"""``resolve_100k``: bulk ingest, then a read-heavy resolve stream.

Fit on a seeded 1.5k venue corpus and freeze the default resolver. Bulk
ingest a 100k corpus of the same family (``index.add`` and
``store.add_records``: how the store got large is not what is measured, so
the records go in unscored). Then stream 10-record batches of corrupted
probes through ``resolver.resolve``. Most of a resolve is
``index.candidates``; EM is not run.

Output checks: the first ``replay_batches`` batches are replayed on a
freshly ingested resolver and must give the same assignments and match
counts, so the recall and match count of a seed repeat from run to run.

``BENCHMARK.json`` does not gate this workload: its run-to-run spread on
the reference host exceeds the largest allowed bound (see README.md).
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

from .common import Outcome, median, peak_rss_mb, percentile
from .corpus import ATTRIBUTES, probes, venue_corpus
from .report import WorkloadResult, detail_entry, layer_metrics, tail_ms
from .tracing import Tracer

#: Records per resolve call.
BATCH = 10


@dataclass(frozen=True)
class ResolveSize:
    fit_records: int = 1_500
    store_records: int = 100_000
    setup_repeats: int = 3
    ingest_repeats: int = 5
    #: Batches every run resolves (p90 needs 100 for ten samples beyond it).
    min_batches: int = 150
    #: Recall is taken after this many batches, the same work on every run.
    quality_batches: int = 150
    replay_batches: int = 20


class _Workload:
    def __init__(self, seed: int, size: ResolveSize):
        self.seed = seed
        self.size = size
        self._probe_rng = np.random.default_rng([seed, 2])
        self.batches: list[list[tuple]] = []

    def setup(self) -> float:
        from repro import ERPipeline
        from repro.blocking import TokenOverlapBlocker
        from repro.data.table import Table

        started = time.perf_counter()
        self.pipeline = ERPipeline(
            blocker=TokenOverlapBlocker("name", min_overlap=2, top_k=10)
        )
        self.pipeline.run(
            Table(
                venue_corpus(self.size.fit_records, self.seed + 1, prefix="fit-"),
                attributes=ATTRIBUTES,
            )
        )
        self.pipeline.freeze()
        self.corpus = venue_corpus(self.size.store_records, self.seed)
        return time.perf_counter() - started

    def fresh_resolver(self):
        """A newly frozen resolver with the corpus ingested; returns (resolver, s)."""
        gc.collect()
        resolver = self.pipeline.freeze()
        started = time.perf_counter()
        resolver.index.add(self.corpus)
        resolver.store.add_records(self.corpus)
        return resolver, time.perf_counter() - started

    def batch(self, k: int) -> list[tuple]:
        """The ``k``-th probe batch of this seed (generated on first use)."""
        while len(self.batches) <= k:
            n = len(self.batches)
            self.batches.append(
                probes(self.corpus, self._probe_rng, BATCH, f"p{n}", "name")
            )
        return self.batches[k]


def _recall(resolver, batches) -> float:
    store = resolver.store
    pairs = [(p["id"], src) for batch in batches for p, src in batch]
    return sum(store.entity_of(p) == store.entity_of(s) for p, s in pairs) / len(pairs)


def _stream(resolver, work: _Workload, seconds: float, n_batches=None):
    """Resolve batches for ``seconds`` (at least ``min_batches``), or exactly
    ``n_batches``; returns per-batch ``(seconds, assignments, n_matches)``
    and the recall after ``quality_batches``."""
    size = work.size
    out = []
    recall = None
    began = time.perf_counter()
    k = 0
    while True:
        if n_batches is not None:
            if k >= n_batches:
                break
        elif k >= size.min_batches and time.perf_counter() - began >= seconds:
            break
        records = [p for p, _src in work.batch(k)]
        started = time.perf_counter()
        result = resolver.resolve(records)
        out.append((time.perf_counter() - started, result.assignments, len(result.matches)))
        k += 1
        if k == size.quality_batches:
            recall = _recall(resolver, work.batches[:k])
    return out, recall


def _replay_matches(work: _Workload, stream) -> list[bool]:
    """Replay the first ``replay_batches`` on a fresh resolver; per batch, equal?"""
    resolver, _ = work.fresh_resolver()
    same = []
    for k in range(min(work.size.replay_batches, len(stream))):
        result = resolver.resolve([p for p, _src in work.batch(k)])
        _s, assignments, n_matches = stream[k]
        same.append(result.assignments == assignments and len(result.matches) == n_matches)
    return same


def _count_stream(work: _Workload, stream, outcome: Outcome) -> None:
    """One operation per batch: complete, and equal to its replay where replayed."""
    same = _replay_matches(work, stream)
    outcome.check(
        "resolve_replay", all(same),
        f"{len(same) - sum(same)} of {len(same)} batches differ when replayed "
        "on a freshly ingested resolver",
    )
    for k, (_s, assignments, _m) in enumerate(stream):
        outcome.op(len(assignments) == BATCH and (k >= len(same) or same[k]))


def run(seed: int, seconds: float, trace: bool, size: ResolveSize = ResolveSize(),
        trace_path=None) -> WorkloadResult:
    outcome = Outcome()
    work = _Workload(seed, size)
    setup_times = [work.setup() for _ in range(size.setup_repeats if not trace else 1)]
    if trace:
        return _traced(work, outcome, trace_path)

    ingest_times = []
    resolver = None
    for _ in range(size.ingest_repeats):
        resolver = None
        resolver, ingest_s = work.fresh_resolver()
        ingest_times.append(ingest_s)
    stream, recall = _stream(resolver, work, seconds)
    rss = peak_rss_mb()
    resolver = None
    _count_stream(work, stream, outcome)

    batch_s = [s for s, _a, _m in stream]
    records = BATCH * len(stream)
    records_per_s = records / sum(batch_s)
    n_matches = sum(m for _s, _a, m in stream[: size.quality_batches])
    result = WorkloadResult(outcome)
    result.metrics = {
        "setup_s": median(setup_times),
        "peak_rss_mb": rss,
        "quality": recall,
        "throughput_per_s": records_per_s,
        "latency_p50_ms": percentile(batch_s, 0.5) * 1000.0,
    }
    result.detail = {
        "ingest_records_per_s": detail_entry(
            size.store_records / median(ingest_times), "1/s", samples=len(ingest_times)
        ),
        "resolve_records_per_s": detail_entry(records_per_s, "1/s", samples=records),
        "resolve_batch_p50_ms": detail_entry(
            result.metrics["latency_p50_ms"], "ms", samples=len(batch_s)
        ),
        "resolve_batch_p90_ms": detail_entry(tail_ms(batch_s), "ms", samples=len(batch_s)),
        "resolve_recall": detail_entry(
            recall, "frac", samples=BATCH * size.quality_batches
        ),
        "resolve_matches": detail_entry(n_matches, "count"),
        "setup_s": detail_entry(median(setup_times), "s", samples=len(setup_times)),
    }
    return result


def _traced(work: _Workload, outcome: Outcome, trace_path) -> WorkloadResult:
    """Per-layer metrics over the seed's first ``min_batches`` batches.

    The trace overhead compares two resolvers built side by side: a traced
    one fed the measured batches and an untraced one fed the next
    ``min_batches`` batches, interleaved batch by batch, so both see the
    same machine state. Separate passes in one process differ by more
    than the tracing costs (heap growth, warm caches).
    """
    from repro.features.generator import clear_feature_caches

    from .layers import install_engine, install_resolver

    n = work.size.min_batches
    work.fresh_resolver()  # warm-up: the first ingest of a process is slower
    clear_feature_caches()
    untraced, untraced_s = work.fresh_resolver()
    tracer = Tracer()
    install_engine(tracer)
    try:
        traced = work.pipeline.freeze()
        install_resolver(tracer, traced)
        with tracer.span("bench.ingest"):
            started = time.perf_counter()
            traced.index.add(work.corpus)
            traced.store.add_records(work.corpus)
            traced_s = time.perf_counter() - started
        tracer.active = False
        stream = []
        for k in range(n):
            records = [p for p, _src in work.batch(n + k)]
            started = time.perf_counter()
            outcome.op(len(untraced.resolve(records).record_ids) == len(records))
            untraced_s += time.perf_counter() - started
            tracer.active = True
            with tracer.span("bench.resolve"):
                started = time.perf_counter()
                result = traced.resolve([p for p, _src in work.batch(k)])
                seconds = time.perf_counter() - started
            tracer.active = False
            traced_s += seconds
            stream.append((seconds, result.assignments, len(result.matches)))
    finally:
        tracer.restore()
    untraced = traced = None
    _count_stream(work, stream, outcome)
    if trace_path is not None:
        tracer.dump(trace_path)
    result = WorkloadResult(outcome)
    result.layers = layer_metrics(
        tracer.spans, [], overhead_frac=traced_s / untraced_s - 1.0
    )
    return result
