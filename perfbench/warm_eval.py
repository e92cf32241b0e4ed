"""``warm-eval``: the warm 36-query mix on large documents, in-process.

A few same-size XMark documents from different seeds, each with its own
engine under ``Workspace(strategy="auto")``.  Every plan is prepared and
executed until the planner freezes it before timing starts.  The whole
set-up runs several times (fresh workspaces), which gives the set-up
median and lets one run draw the planner's near-tie choices on
``setups x documents`` independent plans.  After timing, a fixed ingest
phase adds documents to fresh workspaces and runs the mix once on each:
the update and cold-query samples.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import inputs
from common import (
    CheckFailed,
    Rounds,
    Timer,
    WorkDir,
    check,
    geomean,
    median,
    peak_rss_mb,
    ratio,
    say,
    tail,
    tree_bytes,
)
from layers import cache_layers, span_layers
from repro import Workspace
from repro.engine.planner import CANDIDATES
from repro.xpath.parser import parse_xpath
from repro.xpath.reference import evaluate_reference

DOCS = 4
SCALE = 1.0
SETUPS = 3
#: Rounds of the ingest phase (after timing) that give the update and
#: cold-query samples.
INGEST_ROUNDS = 12
#: Warm-up passes allowed for every plan to freeze.
MAX_WARM_PASSES = 40


def _frozen(plan) -> bool:
    state = plan.artifacts.get("planner")
    return state is None or getattr(state, "frozen", True)


def _executes_as(plan) -> str:
    state = plan.artifacts.get("planner")
    active = getattr(state, "active", None)
    return getattr(active, "name", plan.strategy.name)


def setup(corpus: Dict[str, str], mix: List[str]):
    """One full set-up: build the workspace, prepare, warm until frozen.

    Returns ``(workspace, seconds, answers, passes)``.
    """
    answers: Dict[Tuple[str, str], tuple] = {}
    t0 = time.perf_counter()
    ws = Workspace(strategy="auto")
    for name, xml in corpus.items():
        ws.add(name, xml)
    for name in corpus:
        for query in mix:
            answers[(name, query)] = ws.execute(query, name).ids
    passes = 0
    plans = [ws.prepare(q, name) for name in corpus for q in mix]
    while passes < MAX_WARM_PASSES and not all(_frozen(p) for p in plans):
        for name in corpus:
            for query in mix:
                ids = ws.execute(query, name).ids
                check(
                    ids == answers[(name, query)],
                    f"warm-up answer changed: {query!r} on {name}",
                )
        passes += 1
    return ws, time.perf_counter() - t0, answers, passes


def ingest(corpus: Dict[str, str], mix: List[str], answers) -> Rounds:
    """Fixed rounds of: add one document to a fresh workspace (an
    ``update`` sample), run the mix once on it (``cold`` samples: parse,
    compile, plan and first execution), drop the workspace."""
    rounds = Rounds()
    names = list(corpus)
    for i in range(INGEST_ROUNDS):
        name = names[i % len(names)]
        rounds.start()
        ws = Workspace(strategy="auto")
        with Timer() as t:
            ws.add(name, corpus[name])
        rounds.add("update", t.ms)
        for query in mix:
            with Timer() as t:
                ids = ws.execute(query, name).ids
            rounds.add("cold", t.ms)
            check(
                ids == answers[(name, query)],
                f"first answer on a fresh workspace differs: {query!r} on {name}",
            )
        rounds.end()
        ws.close()
    return rounds


def best_fixed(ws: Workspace, names: List[str], mix: List[str], reps: int = 5):
    """Frozen ``auto`` choice vs every fixed candidate, per (query, doc).

    Returns ``[(doc, query, frozen_ms, best_ms, best_name)]``; times are
    the minimum of ``reps`` executions after one warming run.
    """
    rows = []
    for name in names:
        engine = ws.engine(name)
        for query in mix:
            plans = {"auto": engine.prepare(query)}
            for cand in CANDIDATES:
                plans[cand] = engine.prepare(query, strategy=cand)
            times = {}
            for label, plan in plans.items():
                with Timer() as first:
                    plan.execute()
                best = first.s
                if label == "auto" or first.s < 20 * times.get("auto", first.s):
                    for _ in range(reps):
                        with Timer() as t:
                            plan.execute()
                        best = min(best, t.s)
                times[label] = best
            fixed = {k: v for k, v in times.items() if k != "auto"}
            winner = min(fixed, key=fixed.get)
            rows.append(
                (name, query, times["auto"] * 1e3, fixed[winner] * 1e3, winner)
            )
    return rows


def run(seed: int, seconds: float, tracer=None) -> dict:
    mix = list(inputs.WARM_EVAL_MIX.values())
    corpus = inputs.warm_eval_corpus(seed, DOCS, SCALE)
    xml_bytes = sum(len(x.encode("utf-8")) for x in corpus.values())

    setups = []
    for _ in range(SETUPS):
        setups.append(setup(corpus, mix))
    workspaces = [s[0] for s in setups]
    say(
        "warm-eval set-ups (s):",
        " ".join(f"{s[1]:.3f}" for s in setups),
        "| warm passes:",
        " ".join(str(s[3]) for s in setups),
    )

    # Timed phase: whole rounds over every (workspace, document) pass.
    rounds = Rounds()
    touches = selected = executed = 0
    clock = time.perf_counter
    t_start = clock()
    while clock() - t_start < seconds:
        rounds.start()
        for k, ws in enumerate(workspaces):
            answers = setups[k][2]
            for name in corpus:
                b0 = clock()
                for query in mix:
                    q0 = clock()
                    result = ws.execute(query, name)
                    rounds.add("query", (clock() - q0) * 1e3)
                    if result.ids != answers[(name, query)]:
                        raise CheckFailed(
                            f"timed answer changed: {query!r} on {name}"
                        )
                    if tracer is not None:
                        touches += result.stats.visited
                        selected += len(result.ids)
                rounds.add("batch", (clock() - b0) * 1e3)
                rounds.count += len(mix)
        rounds.end()
        executed += rounds.count
    elapsed = clock() - t_start
    fresh = ingest(corpus, mix, setups[0][2])
    rss = peak_rss_mb()

    pct, tail_ms, n = tail(rounds.pooled("query"))
    say(f"warm-eval timed: {executed} executes in {elapsed:.2f}s; "
        f"tail = p{pct:g} of {n} samples = {tail_ms:.4f} ms")
    frozen = {
        f"{k}:{name}:{query}": _executes_as(ws.prepare(query, name))
        for k, ws in enumerate(workspaces)
        for name in corpus
        for query in mix
    }
    unfrozen = sum(
        1
        for ws in workspaces
        for name in corpus
        for query in mix
        if not _frozen(ws.prepare(query, name))
    )

    layers = {}
    if tracer is not None:
        layers.update(span_layers(tracer))
        layers.update(cache_layers([ws.cache_info() for ws in workspaces]))
        layers["engine.touches_per_result"] = ratio(touches, selected)
        layers["trace.queries_per_s"] = rounds.rate()
        rows = best_fixed(workspaces[0], list(corpus)[:2], mix)
        ratios = [max(f / b, 1e-9) for _, _, f, b, _ in rows]
        layers["planner.best_fixed_ratio"] = geomean(ratios)
        layers["planner.off_best_pairs"] = sum(1 for r in ratios if r > 1.1)

    # Size of the stored form (after timing; not part of set-up).
    with WorkDir("warm-eval") as work:
        workspaces[0].save(work.path)
        store_ratio = tree_bytes(work.path) / xml_bytes

    # Oracle: after timing and outside set-up.
    oracle = {}
    trees = {name: workspaces[0].engine(name).tree for name in corpus}
    for name in corpus:
        for query in mix:
            oracle[(name, query)] = tuple(
                evaluate_reference(trees[name], parse_xpath(query))
            )
    for k, s in enumerate(setups):
        for key, ids in s[2].items():
            check(
                ids == oracle[key],
                f"answer differs from the oracle: {key[1]!r} on {key[0]} "
                f"(set-up {k})",
            )
            check(
                all(a < b for a, b in zip(ids, ids[1:])),
                f"answer not strictly ascending: {key[1]!r} on {key[0]}",
            )

    for ws in workspaces:
        ws.close()
    return {
        "attempted": executed,
        "failed": 0,
        "elapsed_s": elapsed,
        "e2e": {
            "setup_s": median([s[1] for s in setups]),
            "queries_per_s": rounds.rate(),
            "query_p50_ms": rounds.p50("query"),
            "query_tail_ms": tail_ms,
            "cold_query_p50_ms": fresh.p50("cold"),
            "batch_p50_ms": median(rounds.pooled("batch")),
            "update_p50_ms": fresh.p50("update"),
            "peak_rss_mb": rss,
            "store_bytes_per_xml_byte": store_ratio,
        },
        "layers": layers,
        "record": {
            "timed_rounds": rounds.summary(),
            "corpus": {"documents": DOCS, "scale": SCALE, "xml_bytes": xml_bytes},
            "setups": SETUPS,
            "setup_s": [s[1] for s in setups],
            "warm_passes": [s[3] for s in setups],
            "ingest_rounds": fresh.summary(),
            "unfrozen_plans": unfrozen,
            "tail": {"percentile": pct, "samples": n},
            "frozen_choice": frozen,
        },
    }
