"""Metric names, units and the derivation of per-layer metrics from spans.

``END_TO_END`` is what an untraced run reports and ``PER_LAYER`` what a
traced run reports; both lists mirror ``BENCHMARK.json``. Every workload
reports every name. End-to-end names are generic (each workload's reading
is documented in ``README.md``) because the result format requires every
end-to-end metric from every workload. Tail percentiles (p90) are detail
lines, not end-to-end metrics: runs of the same code on this benchmark's
shared host differ in p90 by about the largest bound allowed, and a fit
run has too few samples for one. A per-layer metric of a layer that
a workload does not use reads 0: that layer did no work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .common import Outcome, min_samples, percentile
from .layers import LAYERS
from .tracing import ATTRS, END, NAME, START, layer_self_times, summarize

END_TO_END = {
    "setup_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MiB",
    "quality": "frac",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
}

PER_LAYER = {
    "blocking.block_s": "s",
    "blocking.pairs": "count",
    "features.fit_s": "s",
    "features.transform_s": "s",
    "features.transform_calls": "count",
    "features.pairs": "count",
    "core.em.m_step_s": "s",
    "core.em.e_step_s": "s",
    "core.em.steps": "count",
    "core.transitivity.calibrate_s": "s",
    "core.transitivity.adjusted": "count",
    "core.fit_self_s": "s",
    "core.predict_proba_s": "s",
    "incremental.index.candidates_s": "s",
    "incremental.index.probes": "count",
    "incremental.index.candidate_pairs": "count",
    "incremental.index.match_yield": "frac",
    "incremental.index.add_s": "s",
    "incremental.store.add_s": "s",
    "incremental.store.merge_s": "s",
    "incremental.store.merges": "count",
    "incremental.store.snapshot_s": "s",
    "incremental.store.snapshots": "count",
    "incremental.resolver.resolve_s": "s",
    "incremental.resolver.self_s": "s",
    "incremental.artifacts.load_s": "s",
    "serve.resolve.dispatch_s": "s",
    "serve.lookup.dispatch_s": "s",
    "serve.http_s": "s",
    "serve.queue_wait_s": "s",
    "serve.engine_s": "s",
    "serve.batches": "count",
    "serve.records_per_batch": "count",
    "loadgen.lookup_late_ms": "ms",
    "obs.trace_overhead_frac": "frac",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.uncovered_s": "s",
    "trace.uncovered_frac": "frac",
}


@dataclass
class WorkloadResult:
    """What one workload run measured."""

    outcome: Outcome
    #: End-to-end values by ``END_TO_END`` name (untraced runs).
    metrics: dict = field(default_factory=dict)
    #: The workload's own metrics, ``name -> {"value", "unit", ...}``.
    detail: dict = field(default_factory=dict)
    #: Per-layer values by ``PER_LAYER`` name (traced runs).
    layers: dict = field(default_factory=dict)


def detail_entry(value, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def tail_ms(values) -> float:
    """The workload's tail latency: p90 when the sample supports it, else the max."""
    if len(values) >= min_samples(0.9):
        return percentile(values, 0.9) * 1000.0
    return max(values) * 1000.0


def layer_metrics(
    client_spans: list,
    server_spans: list,
    *,
    overhead_frac: float,
    lookup_late_ms: float = 0.0,
) -> dict:
    """Every ``PER_LAYER`` metric from one traced pass.

    ``client_spans`` come from the benchmark process, whose measured
    phases are spans named ``bench.*``; ``server_spans`` from the serving
    process (empty for in-process workloads). The two sets are summarized
    apart, because span ids are per process.
    """
    engine = server_spans if server_spans else client_spans
    s = summarize(engine)
    c = summarize(client_spans)

    def total(name, summary=s):
        return summary.get(name, {}).get("total_s", 0.0)

    def count(name, summary=s):
        return summary.get(name, {}).get("count", 0)

    def attr(name, key, summary=s):
        return summary.get(name, {}).get("attrs", {}).get(key, 0)

    def self_s(name, summary=s):
        return summary.get(name, {}).get("self_s", 0.0)

    dispatch = {"resolve": 0.0, "lookup": 0.0}
    for span in server_spans:
        route = span[ATTRS].get("route")
        if span[NAME] == "serve.dispatch" and route in dispatch:
            dispatch[route] += span[END] - span[START]
    # each request of a batch waits for the whole engine pass
    engine_wait = sum(
        (span[END] - span[START]) * span[ATTRS].get("requests", 1)
        for span in server_spans
        if span[NAME] == "serve.execute_batch"
    )
    client_rtt = total("loadgen.resolve", c) + total("loadgen.lookup", c)
    candidate_pairs = attr("incremental.index.candidates", "candidate_pairs")
    batches = count("serve.execute_batch")
    phase_total = sum(v["total_s"] for k, v in c.items() if k.startswith("bench."))
    uncovered = sum(v["self_s"] for k, v in c.items() if k.startswith("bench."))
    self_times = layer_self_times(engine, LAYERS)

    values = {
        "blocking.block_s": total("blocking.block"),
        "blocking.pairs": attr("blocking.block", "pairs"),
        "features.fit_s": total("features.fit"),
        "features.transform_s": total("features.transform"),
        "features.transform_calls": count("features.transform"),
        "features.pairs": attr("features.transform", "pairs"),
        "core.em.m_step_s": total("core.em.m_step"),
        "core.em.e_step_s": total("core.em.e_step"),
        "core.em.steps": count("core.em.m_step"),
        "core.transitivity.calibrate_s": total("core.transitivity.calibrate"),
        "core.transitivity.adjusted": attr("core.transitivity.calibrate", "adjusted"),
        "core.fit_self_s": self_s("core.fit"),
        "core.predict_proba_s": total("core.predict_proba"),
        "incremental.index.candidates_s": total("incremental.index.candidates"),
        "incremental.index.probes": count("incremental.index.candidates"),
        "incremental.index.candidate_pairs": candidate_pairs,
        "incremental.index.match_yield": (
            attr("incremental.resolver.resolve", "matches") / candidate_pairs
            if candidate_pairs else 0.0
        ),
        "incremental.index.add_s": total("incremental.index.add"),
        "incremental.store.add_s": total("incremental.store.add"),
        "incremental.store.merge_s": total("incremental.store.merge"),
        "incremental.store.merges": count("incremental.store.merge"),
        "incremental.store.snapshot_s": total("incremental.store.snapshot"),
        "incremental.store.snapshots": count("incremental.store.snapshot"),
        "incremental.resolver.resolve_s": total("incremental.resolver.resolve"),
        "incremental.resolver.self_s": self_s("incremental.resolver.resolve"),
        "incremental.artifacts.load_s": total("incremental.artifacts.load"),
        "serve.resolve.dispatch_s": dispatch["resolve"],
        "serve.lookup.dispatch_s": dispatch["lookup"],
        "serve.http_s": client_rtt - dispatch["resolve"] - dispatch["lookup"]
        if server_spans else 0.0,
        "serve.queue_wait_s": total("serve.submit") - engine_wait,
        "serve.engine_s": total("serve.execute_batch"),
        "serve.batches": batches,
        "serve.records_per_batch": (
            attr("serve.execute_batch", "records") / batches if batches else 0.0
        ),
        "loadgen.lookup_late_ms": lookup_late_ms,
        "obs.trace_overhead_frac": overhead_frac,
        **{f"layer.{layer}.self_s": t for layer, t in self_times.items()},
        "trace.uncovered_s": uncovered,
        "trace.uncovered_frac": uncovered / phase_total if phase_total else 0.0,
    }
    missing = set(PER_LAYER) - set(values)
    if missing:
        raise AssertionError(f"per-layer metrics not derived: {sorted(missing)}")
    return values
