"""``corpus-churn``: store writes beside pool batches, in-process.

A :class:`~repro.store.DocumentStore` corpus of small XMark documents,
each with two pre-generated versions.  Each round replaces one document
with its other version, reopens it and ``swap_stored``s it into the
workspace (the update), runs the Q+A mix on that document in-process
(read-after-write: one pass on the new engine's cold plans, then three
warm passes), then runs the Q+A mix over every document
as one batch through ``executor="pool"`` with two workers.  Every few
rounds the store is compacted.  fsync stays on (the program's default).
The strategy is the library default, ``optimized``.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Dict, List, Tuple

import inputs
from common import (
    Rounds,
    Timer,
    WorkDir,
    check,
    median,
    peak_rss_mb,
    ratio,
    say,
    tail,
    tree_bytes,
)
from layers import cache_layers, span_layers
from repro import Workspace
from repro.store import DocumentStore
from repro.tree.binary import BinaryTree
from repro.tree.parser import parse_xml
from repro.xpath.parser import parse_xpath
from repro.xpath.reference import evaluate_reference

DOCS = 6
SCALE = 0.25
SETUPS = 3
WORKERS = 2
COMPACT_EVERY = 4
#: Warm read-after-write passes per round (more samples for the tail).
WARM_PASSES = 3


def _pool_batch(ws: Workspace, mix: List[str]) -> Dict[str, Dict[str, list]]:
    return ws.select_many(mix, executor="pool", jobs=WORKERS)


def _child_pids() -> List[int]:
    """Live child processes of this one (the pool workers)."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/status") as handle:
                for line in handle:
                    if line.startswith("PPid:"):
                        if line.split()[1] == me:
                            pids.append(int(entry))
                        break
        except OSError:
            continue
    return pids


def setup(root: str, corpus, mix: List[str]):
    """Build the store, mount it, start the pool and run one batch.

    Returns ``(workspace, store, seconds)``.
    """
    t0 = time.perf_counter()
    store = DocumentStore(root)
    for name, (v0, _) in corpus.items():
        store.add(name, v0)
    ws = Workspace()
    ws.open_store(root)
    _pool_batch(ws, mix)
    return ws, store, time.perf_counter() - t0


def run(seed: int, seconds: float, tracer=None) -> dict:
    mix = list(inputs.QA_MIX.values())
    corpus = inputs.churn_corpus(seed, DOCS, SCALE)
    names = list(corpus)

    # Oracle for both versions of every document, before timing.
    oracle: Dict[Tuple[str, int, str], tuple] = {}
    for name, pair in corpus.items():
        for version, xml in enumerate(pair):
            tree = BinaryTree.from_document(parse_xml(xml))
            for query in mix:
                oracle[(name, version, query)] = tuple(
                    evaluate_reference(tree, parse_xpath(query))
                )
        differ = sum(
            oracle[(name, 0, q)] != oracle[(name, 1, q)] for q in mix
        )
        check(differ > 0, f"versions of {name} answer alike; retired reads undetectable")

    # The oracle answers are benchmark data: keep them out of the
    # program's garbage-collection passes.
    gc.collect()
    gc.freeze()

    with WorkDir("corpus-churn") as work:
        setups = []
        try:
            for k in range(SETUPS):
                setups.append(setup(os.path.join(work.path, f"corpus{k}"), corpus, mix))
                if k < SETUPS - 1:
                    setups[-1][0].close()
            ws, store, _ = setups[-1]
            root = store.root
            say("corpus-churn set-ups (s):", " ".join(f"{s[2]:.3f}" for s in setups))

            version = {name: 0 for name in names}
            service = ws.service(jobs=WORKERS, executor="pool")
            pool_before = service.pool_stats()
            rounds = Rounds()
            completed = attempted = 0
            clock = time.perf_counter
            t_start = clock()
            while clock() - t_start < seconds:
                rounds.start()
                name = names[len(rounds.done) % len(names)]
                new = 1 - version[name]
                with Timer() as t:
                    store.replace(name, corpus[name][new])
                    old = ws.swap_stored(name, store.open(name))
                rounds.add("update", t.ms)
                version[name] = new
                if old is not None:
                    old.close()
                # Read-after-write on the swapped document: cold plans on the
                # new engine first, then warm.
                for key in ("cold",) + ("warm",) * WARM_PASSES:
                    for query in mix:
                        q0 = clock()
                        ids = ws.execute(query, name).ids
                        rounds.add(key, (clock() - q0) * 1e3)
                        check(
                            ids == oracle[(name, new, query)],
                            f"read after swap differs from version {new}: "
                            f"{query!r} on {name}",
                        )
                b0 = clock()
                answers = _pool_batch(ws, mix)
                rounds.add("batch", (clock() - b0) * 1e3)
                for doc in names:
                    for query in mix:
                        check(
                            tuple(answers[doc][query]) == oracle[(doc, version[doc], query)],
                            f"pool answer differs from version {version[doc]}: "
                            f"{query!r} on {doc}",
                        )
                rounds.count = (1 + WARM_PASSES + len(names)) * len(mix)
                if (len(rounds.done) + 1) % COMPACT_EVERY == 0:
                    store.compact()
                    attempted += 1
                rounds.end()
                completed += rounds.count
                attempted += 1 + rounds.count
            elapsed = clock() - t_start
            pool_after = service.pool_stats()
            rss = peak_rss_mb() + sum(peak_rss_mb(pid) for pid in _child_pids())

            store.compact()
            xml_bytes = sum(
                len(corpus[n][version[n]].encode("utf-8")) for n in names
            )
            store_ratio = tree_bytes(root) / xml_bytes

            layers = {}
            if tracer is not None:
                layers.update(
                    _serial_pass(ws, names, mix, median(rounds.pooled("batch")))
                )
                layers.update(span_layers(tracer))
                layers.update(cache_layers([ws.cache_info()]))
                layers.update(_pool_layers(pool_before, pool_after, len(rounds.done)))
                layers["trace.queries_per_s"] = rounds.rate()
        finally:
            for opened, _, _ in setups:
                opened.close()

    pct, tail_ms, n = tail(rounds.pooled("warm"))
    say(f"corpus-churn timed: {len(rounds.done)} rounds, {completed} queries in "
        f"{elapsed:.2f}s; tail = p{pct:g} of {n} samples = {tail_ms:.4f} ms")
    return {
        "attempted": attempted,
        "failed": 0,
        "elapsed_s": elapsed,
        "e2e": {
            "setup_s": median([s[2] for s in setups]),
            "queries_per_s": rounds.rate(),
            "query_p50_ms": rounds.p50("warm"),
            "query_tail_ms": tail_ms,
            "cold_query_p50_ms": rounds.p50("cold"),
            "batch_p50_ms": median(rounds.pooled("batch")),
            "update_p50_ms": median(rounds.pooled("update")),
            "peak_rss_mb": rss,
            "store_bytes_per_xml_byte": store_ratio,
        },
        "layers": layers,
        "record": {
            "timed_rounds": rounds.summary(),
            "corpus": {"documents": DOCS, "scale": SCALE, "versions": 2},
            "setup_s": [s[2] for s in setups],
            "tail": {"percentile": pct, "samples": n},
            "pool": pool_after,
        },
    }


def _pool_layers(before: dict, after: dict, rounds: int) -> Dict[str, float]:
    delta = {k: after[k] - before[k] for k in ("chunks", "steals", "warm_hits", "cold_misses")}
    return {
        "pool.chunks_per_batch": ratio(delta["chunks"], rounds),
        "pool.steals_per_batch": ratio(delta["steals"], rounds),
        "pool.warm_hit_rate": ratio(
            delta["warm_hits"], delta["warm_hits"] + delta["cold_misses"]
        ),
        "pool.cold_misses_per_update": ratio(delta["cold_misses"], rounds),
    }


def _serial_pass(ws: Workspace, names, mix, pool_batch_ms: float) -> Dict[str, float]:
    """The same batch in-process and serial: the paper's evaluator
    counters, hybrid beside it, and the pool's speed-up over serial."""
    ws.select_many(mix)  # warm the serial plans
    with Timer() as t:
        ws.select_many(mix)
    visited = selected = jumps = hits = entries = runs = 0
    for name in names:
        engine = ws.engine(name)
        for query in mix:
            stats = engine.execute(query).stats
            visited += stats.visited
            selected += stats.selected
            jumps += stats.jumps
            hits += stats.memo_hits
            entries += stats.memo_entries
            runs += 1
            hybrid = engine.prepare(query, strategy="hybrid")
            hybrid.execute()
            hybrid.execute()
    return {
        "engine.optimized.visited_per_selected": ratio(visited, selected),
        "engine.optimized.jumps": ratio(jumps, runs),
        "engine.optimized.memo_hit_rate": ratio(hits, hits + entries),
        "pool.speedup_vs_serial": ratio(t.ms, pool_batch_ms),
    }
