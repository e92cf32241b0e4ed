"""The metric tables: names, units and directions, in one place.

``run.py --write-spec`` renders ``BENCHMARK.json`` from these tables;
each workload fills in the values it measures.  A per-layer metric a
workload does not exercise reads 0 (that layer did no work there).
"""

from __future__ import annotations

from typing import Dict

from common import ratio

#: (name, unit, better, bound)
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.25),
    ("query_p50_ms", "ms", "lower", 0.25),
    ("query_tail_ms", "ms", "lower", 0.25),
    ("cold_query_p50_ms", "ms", "lower", 0.25),
    ("batch_p50_ms", "ms", "lower", 0.25),
    ("update_p50_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("store_bytes_per_xml_byte", "ratio", "lower", 0.05),
)

#: (name, unit, better)
PER_LAYER = (
    ("xpath.parse_us", "us", "lower"),
    ("xpath.compile_us", "us", "lower"),
    ("planner.prepare_us", "us", "lower"),
    ("planner.explore_ms", "ms", "lower"),
    ("planner.trial_runs", "count", "lower"),
    ("planner.best_fixed_ratio", "ratio", "lower"),
    ("planner.off_best_pairs", "count", "lower"),
    ("engine.vectorized.exec_ms", "ms", "lower"),
    ("engine.window.exec_ms", "ms", "lower"),
    ("engine.mixed.exec_ms", "ms", "lower"),
    ("engine.touches_per_result", "ratio", "lower"),
    ("engine.optimized.exec_ms", "ms", "lower"),
    ("engine.hybrid.exec_ms", "ms", "lower"),
    ("engine.optimized.visited_per_selected", "ratio", "lower"),
    ("engine.optimized.jumps", "count", "lower"),
    ("engine.optimized.memo_hit_rate", "ratio", "higher"),
    ("index.fused_hit_rate", "ratio", "higher"),
    ("index.fused_evictions", "count", "lower"),
    ("plan.cache_hit_rate", "ratio", "higher"),
    ("plan.evictions", "count", "lower"),
    ("plan.compiled_entries", "count", "lower"),
    ("tree.build_ms_per_mb", "ms/MB", "lower"),
    ("store.save_ms", "ms", "lower"),
    ("store.replace_ms", "ms", "lower"),
    ("store.open_ms", "ms", "lower"),
    ("store.compact_ms", "ms", "lower"),
    ("workspace.swap_ms", "ms", "lower"),
    ("pool.batch_ms", "ms", "lower"),
    ("pool.chunks_per_batch", "count", "lower"),
    ("pool.steals_per_batch", "count", "lower"),
    ("pool.warm_hit_rate", "ratio", "higher"),
    ("pool.cold_misses_per_update", "count", "lower"),
    ("pool.speedup_vs_serial", "ratio", "higher"),
    ("serve.roundtrip_ms", "ms", "lower"),
    ("serve.daemon_ms", "ms", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("serve.response_bytes_per_id", "B", "lower"),
    ("serve.warm_hit_rate", "ratio", "higher"),
    ("trace.queries_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def e2e_metrics(values: Dict[str, float]) -> Dict[str, dict]:
    """Every end-to-end metric, in table order; all must be measured."""
    missing = [name for name in E2E_UNITS if name not in values]
    if missing:
        raise KeyError(f"end-to-end metrics not measured: {missing}")
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in E2E_UNITS.items()
    }


def layer_metrics(values: Dict[str, float]) -> Dict[str, dict]:
    """Every per-layer metric; a layer the workload does not cross is 0."""
    unknown = sorted(set(values) - set(LAYER_UNITS))
    if unknown:
        raise KeyError(f"unknown per-layer metrics: {unknown}")
    return {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in LAYER_UNITS.items()
    }


def span_layers(tracer) -> Dict[str, float]:
    """Per-layer values read off the span aggregates of one traced run."""
    explore = tracer.explore.values()
    plans = len(tracer.explore)
    out = {
        "xpath.parse_us": tracer.mean_ms("xpath.parse") * 1000.0,
        "xpath.compile_us": tracer.mean_ms("xpath.compile") * 1000.0,
        "planner.prepare_us": tracer.mean_ms("planner.prepare") * 1000.0,
        "planner.explore_ms": ratio(sum(s for _, s in explore) * 1000.0, plans),
        "planner.trial_runs": ratio(sum(n for n, _ in explore), plans),
        "tree.build_ms_per_mb": ratio(
            tracer.total.get("tree.build", 0.0) * 1000.0,
            tracer.xml_bytes / 2**20,
        ),
        "store.save_ms": tracer.mean_ms("store.save"),
        "store.replace_ms": tracer.mean_ms("store.replace"),
        "store.open_ms": tracer.mean_ms("store.open"),
        "store.compact_ms": tracer.mean_ms("store.compact"),
        "workspace.swap_ms": tracer.mean_ms("workspace.swap"),
        "pool.batch_ms": tracer.mean_ms("pool.batch"),
    }
    for name in ("vectorized", "window", "mixed", "optimized", "hybrid"):
        out[f"engine.{name}.exec_ms"] = tracer.mean_self_ms(f"engine.{name}")
    return out


def cache_layers(cache_infos) -> Dict[str, float]:
    """Index and plan-cache figures from ``Workspace.cache_info()`` dicts
    (summed over workspaces)."""
    docs = [d for info in cache_infos for d in info["documents"].values()]
    fused_hits = sum(d["fused"]["hits"] for d in docs)
    fused_misses = sum(d["fused"]["misses"] for d in docs)
    plan_hits = sum(d["plans"]["hits"] for d in docs)
    plan_misses = sum(d["plans"]["misses"] for d in docs)
    return {
        "index.fused_hit_rate": ratio(fused_hits, fused_hits + fused_misses),
        "index.fused_evictions": sum(d["fused"]["evictions"] for d in docs),
        "plan.cache_hit_rate": ratio(plan_hits, plan_hits + plan_misses),
        "plan.evictions": sum(d["plans"]["evictions"] for d in docs),
        "plan.compiled_entries": sum(
            info["compiled"]["size"] for info in cache_infos
        ),
    }
