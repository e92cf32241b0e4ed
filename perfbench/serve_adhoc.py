"""``serve-adhoc``: one keep-alive client against a ``repro serve`` daemon.

The daemon runs in its own process over an mmap store corpus (one
larger and a few small XMark documents).  The client is closed-loop:
it sends the next request when the previous answer arrives.  The run is
made of whole rounds of the same ~500 operations in a seeded order:

- warm requests: the Q+A mix plus ``//keyword`` on every document;
- :data:`FIRST_SEEN` never-seen query strings (about one request in a
  dozen), each re-sent :data:`RESENDS` times a few requests later;
- two ``/batch`` requests of the Q+A mix;
- two updates: ``DocumentStore.replace`` of document ``s2`` with its
  other version, then ``POST /reload``;
- one over-deep probe (:func:`inputs.probe_query`).  It counts as
  failed until the daemon answers it with a structured 4xx.

Every answer is compared with the reference oracle for the document
version current when it was sent; the oracle runs before timing.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import inputs
from common import (
    ROOT,
    CheckFailed,
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
from layers import cache_layers
from repro.serve.client import ServeClient, ServeError
from repro.store import DocumentStore
from repro.tree.parser import parse_xml
from repro.tree.binary import BinaryTree
from repro.xpath.parser import parse_xpath
from repro.xpath.reference import evaluate_reference

LARGE_SCALE = 0.5
SMALL_SCALE = 0.1
SMALL_DOCS = 3
#: The document the updates replace (alternating two versions).
UPDATED = "s2"
#: The larger document; the ``/batch`` requests go to it.
LARGE = "big"
SETUPS = 3
#: Per round: each (document, warm query) pair this many times ...
WARM_REPEATS = 4
#: ... this many first-seen queries (10 per document), each re-sent
#: RESENDS times ...
FIRST_SEEN = 40
RESENDS = 2
#: ... and these fixed operations.
BATCHES = 2
UPDATES = 2
PROBES = 1
#: Warm-up passes allowed for every warm plan to freeze.
MAX_WARM_PASSES = 40
#: First-seen queries are generated for at most this many rounds per
#: measured second; a run that uses them up ends early.
ROUNDS_PER_SECOND_CAP = 1.0
START_TIMEOUT_S = 120.0


# -- the daemon process -------------------------------------------------------


def _die_with_parent() -> None:
    """In the child before exec: SIGTERM it when the benchmark dies, so a
    killed run leaves no daemon behind (Linux ``PR_SET_PDEATHSIG``)."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    libc.prctl(1, signal.SIGTERM, 0, 0, 0)  # PR_SET_PDEATHSIG = 1


class Daemon:
    """A ``repro serve`` child process with its output in files."""

    def __init__(self, store: str, work: str, tag: str, trace_out: Optional[str]):
        self.stdout_path = os.path.join(work, f"daemon-{tag}.out")
        self.stderr_path = os.path.join(work, f"daemon-{tag}.err")
        args = ["--store", store, "--port", "0", "--workers", "2"]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *args]
        else:
            launcher = os.path.join(os.path.dirname(__file__), "serve_launcher.py")
            cmd = [sys.executable, launcher, trace_out, *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self._out = open(self.stdout_path, "w")
        self._err = open(self.stderr_path, "w")
        self.proc = subprocess.Popen(
            cmd,
            stdout=self._out,
            stderr=self._err,
            cwd=ROOT,
            env=env,
            preexec_fn=_die_with_parent,
        )
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            with open(self.stdout_path) as handle:
                line = handle.readline()
            if line.endswith("\n"):
                return int(json.loads(line)["serving"].rsplit(":", 1)[1])
            time.sleep(0.01)
        self.stop()
        with open(self.stderr_path) as handle:
            raise CheckFailed(f"daemon did not start: {handle.read()[-2000:]}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._out.close()
        self._err.close()


# -- inputs and oracle -------------------------------------------------------


def build_inputs(seed: int, seconds: float):
    """Corpus XML, the first-seen stream and every oracle answer."""
    docs = {LARGE: inputs.xmark_xml(LARGE_SCALE, inputs.doc_seed(seed, 50))}
    for i in range(SMALL_DOCS):
        docs[f"s{i}"] = inputs.xmark_xml(SMALL_SCALE, inputs.doc_seed(seed, 60 + i))
    other = inputs.xmark_xml(SMALL_SCALE, inputs.doc_seed(seed, 70))
    versions = {UPDATED: (docs[UPDATED], other)}

    trees = {name: BinaryTree.from_document(parse_xml(x)) for name, x in docs.items()}
    other_tree = BinaryTree.from_document(parse_xml(other))
    rounds_cap = int(seconds * ROUNDS_PER_SECOND_CAP) + 1
    warm = list(inputs.SERVE_WARM_MIX.values())
    stream = inputs.first_seen_queries(
        seed, trees, rounds_cap * FIRST_SEEN, set(warm)
    )

    def answer(tree, query):
        return evaluate_reference(tree, parse_xpath(query))

    # oracle[(doc, version, query)] -> ids; version is 0 except for UPDATED.
    oracle: Dict[Tuple[str, int, str], List[int]] = {}
    for name, tree in trees.items():
        for query in warm:
            oracle[(name, 0, query)] = answer(tree, query)
    for query in warm:
        oracle[(UPDATED, 1, query)] = answer(other_tree, query)
    for name, query in stream:
        oracle[(name, 0, query)] = answer(trees[name], query)
        if name == UPDATED:
            oracle[(name, 1, query)] = answer(other_tree, query)
    return docs, versions, stream, oracle, rounds_cap


def plan_round(rng: random.Random, names: List[str], warm: List[str], fresh):
    """One round's operation list, in a seeded order.

    Kinds: ``warm``, ``first``, ``resend``, ``batch``, ``update`` and
    ``probe``.  Every round holds the same operations: each (document,
    warm query) pair :data:`WARM_REPEATS` times, the round's share of
    the first-seen stream, and the fixed operations.
    """
    ops: List[Optional[tuple]] = [None] * round_ops(len(names), len(warm))
    positions = list(range(len(ops)))
    rng.shuffle(positions)
    fixed = (
        [("probe",)] * PROBES
        + [("batch", LARGE)] * BATCHES
        + [("update",)] * UPDATES
    )
    for op in fixed:
        ops[positions.pop()] = op
    # Each first send is followed by RESENDS re-sends among the next
    # few dozen free positions.
    free = sorted(positions)
    slots = sorted(rng.sample(free[: len(free) - 200], len(fresh)))
    taken = set(slots)
    for slot, (name, query) in zip(slots, fresh):
        ops[slot] = ("first", name, query)
        later = [p for p in free if p > slot and p not in taken][:40]
        for pos in rng.sample(later, RESENDS):
            ops[pos] = ("resend", name, query)
            taken.add(pos)
    warm_ops = [("warm", n, q) for n in names for q in warm] * WARM_REPEATS
    rng.shuffle(warm_ops)
    for pos in range(len(ops)):
        if ops[pos] is None:
            ops[pos] = warm_ops.pop()
    check(not warm_ops, "round plan left warm requests unplaced")
    return ops


def round_ops(docs: int, warm: int) -> int:
    """Operations per round (about 500)."""
    fixed = PROBES + BATCHES + UPDATES
    return fixed + FIRST_SEEN * (1 + RESENDS) + docs * warm * WARM_REPEATS


# -- the run ------------------------------------------------------------------


class Client:
    """Sends requests, checks answers, and keeps the samples."""

    def __init__(self, port: int, oracle, trace: bool) -> None:
        self.api = ServeClient(port=port, retries=0, timeout=60.0)
        self.oracle = oracle
        self.version = 0  # version of UPDATED currently served
        self.sent_queries = 0
        self.sent_batches = 0
        self.sent_batch_queries = 0
        self.reloads = 0
        self.frozen: Dict[str, str] = {}
        self.bytes_read = 0
        if trace:
            self._count_bytes()

    def _count_bytes(self) -> None:
        original = http.client.HTTPResponse.read
        client = self

        def read(self, *args, **kwargs):
            data = original(self, *args, **kwargs)
            client.bytes_read += len(data)
            return data

        http.client.HTTPResponse.read = read

    def expected(self, name: str, query: str) -> List[int]:
        version = self.version if name == UPDATED else 0
        return self.oracle[(name, version, query)]

    def query(self, name: str, query: str) -> Tuple[float, dict]:
        expect = self.expected(name, query)
        self.sent_queries += 1
        t0 = time.perf_counter()
        payload = self.api.query(query, document=name)
        elapsed = time.perf_counter() - t0
        if payload["ids"] != expect:
            raise CheckFailed(
                f"served answer differs from the oracle: {query!r} on {name} "
                f"(version {self.version if name == UPDATED else 0})"
            )
        if "executes_as" in payload:
            self.frozen[f"{name}:{query}"] = payload["executes_as"]
        return elapsed, payload

    def batch(self, name: str, queries: List[str]) -> float:
        self.sent_batches += 1
        self.sent_batch_queries += len(queries)
        t0 = time.perf_counter()
        payload = self.api.batch(queries, document=name)
        elapsed = time.perf_counter() - t0
        for query, entry in zip(queries, payload["results"]):
            check(
                entry["ids"] == self.expected(name, query),
                f"batch answer differs from the oracle: {query!r} on {name}",
            )
        return elapsed

    def probe(self) -> Tuple[bool, int]:
        """True when the over-deep query got a structured 4xx."""
        self.sent_queries += 1
        try:
            self.api.query(inputs.probe_query(), document="s0")
        except ServeError as exc:
            structured = isinstance(exc.payload.get("error"), dict)
            return 400 <= exc.status < 500 and structured, exc.status
        return False, 200


def warm_up(client: Client, names: List[str], warm: List[str]) -> int:
    """Send the warm set until every plan reports frozen."""
    for passes in range(1, MAX_WARM_PASSES + 1):
        frozen = True
        for name in names:
            for query in warm:
                _, payload = client.query(name, query)
                planner = payload.get("planner")
                if planner is not None and not planner.get("frozen"):
                    frozen = False
        if frozen:
            return passes
    return MAX_WARM_PASSES


def run(seed: int, seconds: float, trace: bool = False) -> dict:
    # One closed-loop client keeps at most one CPU busy at a time: the
    # client waits while the daemon works and the other way round.  Both
    # processes share one CPU (the daemon inherits this affinity), so a
    # request crosses no CPUs.  Cross-CPU wake-ups amplified host steal
    # on the 2-vCPU VM the benchmark was built on: 25% steal cut the
    # unpinned throughput by half.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    docs, versions, stream, oracle, rounds_cap = build_inputs(seed, seconds)
    names = sorted(docs)
    warm = list(inputs.SERVE_WARM_MIX.values())
    qa = list(inputs.QA_MIX.values())
    xml_bytes = sum(len(x.encode("utf-8")) for x in docs.values())
    # The oracle answers are benchmark data, not the client's working
    # set: keep them out of the client's garbage-collection passes.
    gc.collect()
    gc.freeze()

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer().install({"store.replace": ("repro.store.store", "DocumentStore.replace")})

    with WorkDir("serve-adhoc") as work:
        corpus = os.path.join(work.path, "corpus")
        store = DocumentStore(corpus)
        for name, xml in docs.items():
            store.add(name, xml)
        store_ratio = tree_bytes(corpus) / xml_bytes
        span_file = os.path.join(work.path, "daemon-spans.json") if trace else None

        daemons: List[Daemon] = []
        try:
            setup_s: List[float] = []
            warm_passes: List[int] = []
            daemon = client = None
            for k in range(SETUPS):
                last = k == SETUPS - 1
                t0 = time.perf_counter()
                daemon = Daemon(corpus, work.path, str(k), span_file if last else None)
                daemons.append(daemon)
                client = Client(daemon.port, oracle, trace and last)
                warm_passes.append(warm_up(client, names, warm))
                setup_s.append(time.perf_counter() - t0)
                if not last:
                    client.api.close()
                    daemon.stop()
            say("serve-adhoc set-ups (s):", " ".join(f"{s:.3f}" for s in setup_s),
                "| warm passes:", " ".join(map(str, warm_passes)))

            rng = random.Random(seed)
            rounds = Rounds()
            daemon_ms: List[float] = []
            overhead_ms: List[float] = []
            ids_returned = bytes_for_ids = 0
            probe_status = []
            attempted = failed = completed = reprepared = 0
            seen_since_reload = set()
            clock = time.perf_counter
            t_start = clock()
            while clock() - t_start < seconds and len(rounds.done) < rounds_cap:
                rounds.start()
                r = len(rounds.done)
                fresh = stream[r * FIRST_SEEN:(r + 1) * FIRST_SEEN]
                for op in plan_round(rng, names, warm, fresh):
                    kind = op[0]
                    attempted += 1
                    if kind == "probe":
                        ok, status = client.probe()
                        probe_status.append(status)
                        failed += not ok
                    elif kind == "batch":
                        rounds.add("batch", client.batch(op[1], qa) * 1e3)
                        rounds.count += len(qa)
                    elif kind == "update":
                        with Timer() as t:
                            new = 1 - client.version
                            store.replace(UPDATED, versions[UPDATED][new])
                            report = client.api.reload()
                            client.version = new
                        check(report.get("reloaded") is True, f"reload did not swap: {report}")
                        client.reloads += 1
                        seen_since_reload.clear()
                        rounds.add("update", t.ms)
                    else:
                        _, name, query = op
                        before = client.bytes_read
                        elapsed, payload = client.query(name, query)
                        rounds.count += 1
                        key = (name, query)
                        if kind == "first":
                            rounds.add("cold", elapsed * 1e3)
                            seen_since_reload.add(key)
                        elif name == UPDATED and key not in seen_since_reload:
                            # First request on a freshly reloaded document:
                            # neither warm nor never-seen.
                            reprepared += 1
                            seen_since_reload.add(key)
                        else:
                            rounds.add("warm", elapsed * 1e3)
                            if trace and kind == "warm":
                                total = payload["timing_ms"]["total"]
                                daemon_ms.append(total)
                                overhead_ms.append(elapsed * 1e3 - total)
                                ids_returned += len(payload["ids"])
                                bytes_for_ids += client.bytes_read - before
                rounds.end()
                completed += rounds.count
            elapsed = clock() - t_start
            if elapsed < seconds:
                say(f"serve-adhoc: first-seen stream used up after {rounds_cap} rounds")

            stats = client.api.stats()
            rss = peak_rss_mb(daemon.proc.pid)
            counters = stats["counters"]
            check(counters["queries"] == client.sent_queries,
                  f"/stats queries {counters['queries']} != sent {client.sent_queries}")
            check(counters["batches"] == client.sent_batches,
                  f"/stats batches {counters['batches']} != sent {client.sent_batches}")
            check(counters["batch_queries"] == client.sent_batch_queries,
                  "/stats batch_queries disagree with the batches sent")
            check(counters["reloads"] == client.reloads,
                  f"/stats reloads {counters['reloads']} != sent {client.reloads}")
            client.api.close()
            daemon.stop()
            spans = None
            if trace:
                with open(span_file) as handle:
                    spans = json.load(handle)
            if tracer is not None:
                tracer.uninstall()
        finally:
            for started in daemons:
                started.stop()

    pct, tail_ms, n = tail(rounds.pooled("warm"))
    say(f"serve-adhoc timed: {len(rounds.done)} rounds, {attempted} ops in {elapsed:.2f}s; "
        f"tail = p{pct:g} of {n} samples = {tail_ms:.4f} ms; "
        f"probe statuses {sorted(set(probe_status))}")

    layers = {}
    if trace:
        from layers import span_layers
        from tracing import Tracer, overhead_pct

        merged = Tracer.from_snapshots([spans, tracer.snapshot()])
        layers.update(span_layers(merged))
        layers.update(cache_layers([stats["caches"]]))
        c = stats["counters"]
        layers["serve.roundtrip_ms"] = rounds.p50("warm")
        layers["serve.daemon_ms"] = median(daemon_ms)
        layers["serve.overhead_ms"] = median(overhead_ms)
        layers["serve.response_bytes_per_id"] = ratio(bytes_for_ids, ids_returned)
        layers["serve.warm_hit_rate"] = ratio(
            c["warm_hits"], c["warm_hits"] + c["cold_misses"]
        )
        layers["trace.queries_per_s"] = rounds.rate()
        # The daemon's spans cover its set-up as well as the timed phase.
        layers["trace.overhead_pct"] = overhead_pct(merged, elapsed + setup_s[-1])

    return {
        "attempted": attempted,
        "failed": failed,
        "elapsed_s": elapsed,
        "e2e": {
            "setup_s": median(setup_s),
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
            "corpus": {
                "large_scale": LARGE_SCALE,
                "small_scale": SMALL_SCALE,
                "small_docs": SMALL_DOCS,
                "xml_bytes": xml_bytes,
            },
            "round_ops": round_ops(len(names), len(warm)),
            "setup_s": setup_s,
            "warm_passes": warm_passes,
            "reprepared": reprepared,
            "probe_statuses": probe_status,
            "tail": {"percentile": pct, "samples": n},
            "frozen_choice": client.frozen,
            "daemon_stats": stats,
            "daemon_spans": spans,
        },
    }
