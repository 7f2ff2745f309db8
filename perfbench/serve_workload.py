"""``serve_mixed``: a writer and a reader against one ``repro serve`` process.

The server (its own process, ``python -m repro serve --port 0``) serves a
frozen paper-scale pub_da dedup model. From this one client process:

* connection 1 sends single-record ``POST /resolve`` requests in a closed
  loop — each a corrupted copy of a stored record under a fresh id;
* connection 2 sends ``GET /lookup/{id}`` for stored ids in an open loop
  at a fixed ``lookup_rate`` per second, each timed from when it was due.

With one resolve connection every engine batch holds one record, so the
assignments are deterministic: the output check replays the same records
in the same order through an in-process ``IncrementalResolver`` loaded
from the same artifacts and requires identical answers.
"""

from __future__ import annotations

import http.client
import json
import shutil
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .common import (
    MAX_EXTEND,
    Outcome,
    StealWindows,
    median,
    min_samples,
    peak_rss_mb,
    percentile,
)
from .corpus import probes
from .report import WorkloadResult, detail_entry, layer_metrics, tail_ms
from .server import ServerProcess, refuse_if_stale
from .tracing import ID, PARENT, Tracer


@dataclass(frozen=True)
class ServeSize:
    scale: str = "paper"
    setup_repeats: int = 3
    #: Resolves every run makes (p90 needs 100 for ten samples beyond it).
    min_resolves: int = 400
    min_lookups: int = 100
    #: Requests a second on the lookup connection. The seed code's
    #: per-lookup store snapshot sustains this without a growing backlog.
    lookup_rate: float = 20.0
    #: Recall is taken over this many first resolves.
    quality_resolves: int = 400


def _fit_and_save(dataset_seed: int, scale: str, artifacts: Path):
    from repro import ERPipeline
    from repro.blocking import TokenOverlapBlocker
    from repro.data import load_benchmark

    merged, _gold = load_benchmark("pub_da", scale=scale, seed=dataset_seed).as_dedup()
    pipeline = ERPipeline(blocker=TokenOverlapBlocker("title", min_overlap=2, top_k=20))
    pipeline.run(merged)
    resolver = pipeline.freeze()
    resolver.save(artifacts)
    return list(merged)


class _Traffic:
    """Both connections' loops and what they observed."""

    def __init__(self, server: ServerProcess, records: list, seed: int, size: ServeSize,
                 tracer: Tracer | None):
        self.server = server
        self.size = size
        self.tracer = tracer
        self._records = records
        self._probe_rng = np.random.default_rng([seed, 3])
        self._lookup_rng = np.random.default_rng([seed, 4])
        self.probes: list[tuple] = []
        #: per resolve: (probe id, latency s, assignment or None, sent at)
        self.resolves: list[tuple] = []
        #: per lookup: (latency from due time s, late s, ok, due at)
        self.lookups: list[tuple] = []
        self.resolve_wall_s = 0.0
        #: the resolve loop's clean and stolen stretches
        self.windows: StealWindows | None = None
        self._resolves_done = threading.Event()

    def _probe(self, k: int) -> dict:
        while len(self.probes) <= k:
            chunk = min(500, len(self._records))
            self.probes.extend(probes(
                self._records, self._probe_rng, chunk, f"q{len(self.probes)}", "title"
            ))
        return self.probes[k][0]

    def _span(self, name):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def _request(self, conn, method, path, body=None):
        """One request; returns (status, payload) or raises OSError/HTTPException."""
        conn.request(method, path, body=body, headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, json.loads(response.read())

    def resolve_loop(self, seconds: float, exact: int | None) -> None:
        conn = self.server.connection()
        self.windows = windows = StealWindows()
        began = time.perf_counter()
        k = 0
        try:
            while True:
                windows.tick()
                elapsed = time.perf_counter() - began
                if exact is not None:
                    if k >= exact:
                        break
                elif k >= self.size.min_resolves and elapsed >= min(
                    seconds + windows.stolen_s, seconds * MAX_EXTEND
                ):
                    break
                probe = self._probe(k)
                body = json.dumps({"records": [probe]}).encode()
                started = time.perf_counter()
                assignment = None
                try:
                    with self._span("loadgen.resolve"):
                        status, payload = self._request(conn, "POST", "/resolve", body)
                    if status == 200:
                        assignment = payload["assignments"].get(probe["id"])
                except (OSError, http.client.HTTPException, ValueError, KeyError):
                    conn.close()
                    conn = self.server.connection()
                self.resolves.append(
                    (probe["id"], time.perf_counter() - started, assignment, started)
                )
                k += 1
        finally:
            windows.tick(force=True)
            self.resolve_wall_s = time.perf_counter() - began
            conn.close()
            self._resolves_done.set()

    def lookup_loop(self, exact: bool) -> None:
        conn = self.server.connection()
        interval = 1.0 / self.size.lookup_rate
        began = time.perf_counter()
        i = 0
        try:
            while not (self._resolves_done.is_set() and (
                exact or len(self.lookups) >= self.size.min_lookups
            )):
                due = began + i * interval
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                target = self._records[int(self._lookup_rng.integers(len(self._records)))]["id"]
                sent = time.perf_counter()
                ok = False
                try:
                    with self._span("loadgen.lookup"):
                        status, payload = self._request(conn, "GET", f"/lookup/{target}")
                    ok = status == 200 and target in payload.get("members", ())
                except (OSError, http.client.HTTPException, ValueError):
                    conn.close()
                    conn = self.server.connection()
                self.lookups.append((time.perf_counter() - due, sent - due, ok, due))
                i += 1
        finally:
            conn.close()

    def run(self, seconds: float, exact: int | None = None) -> None:
        """Both loops on their own threads; ``exact`` fixes the resolve count."""
        def start(fn, *args):
            target = self.tracer.run_in_context(fn, *args) if self.tracer else (
                lambda: fn(*args)
            )
            thread = threading.Thread(target=target, daemon=True)
            thread.start()
            return thread

        threads = [start(self.resolve_loop, seconds, exact),
                   start(self.lookup_loop, exact is not None)]
        for thread in threads:
            thread.join()


def _replay(artifacts: Path, traffic: _Traffic, outcome: Outcome, quality_n: int):
    """Replay the resolves in-process; count each resolve and lookup as an op.

    Returns the recall over the first ``quality_n`` resolves: the share of
    probes whose entity is their source record's entity at that point.
    """
    from repro.incremental import IncrementalResolver

    resolver = IncrementalResolver.load(artifacts)
    recall = None
    differ = 0
    try:
        for k, (probe_id, _latency, assignment, _sent) in enumerate(traffic.resolves):
            probe, _source_id = traffic.probes[k]
            expected = resolver.resolve([probe]).assignments[probe_id]
            differ += assignment != expected
            outcome.op(assignment is not None and assignment == expected)
            if k + 1 == quality_n:
                store = resolver.store
                pairs = traffic.probes[:quality_n]
                recall = sum(
                    store.entity_of(p["id"]) == store.entity_of(src) for p, src in pairs
                ) / quality_n
    finally:
        resolver.close()
    outcome.check(
        "serve_equals_in_process", differ == 0,
        f"{differ} of {len(traffic.resolves)} /resolve assignments differ from an "
        "in-process resolver fed the same records in the same order",
    )
    for _latency, _late, ok, _due in traffic.lookups:
        outcome.op(ok)
    return recall


def _start(root: Path, artifacts: Path, workdir: Path, name: str, trace_out=None):
    server = ServerProcess(root, artifacts, workdir / f"{name}.log", trace_out).start()
    try:
        refuse_if_stale(workdir.parent, exclude={server.pid})
    except Exception:
        server.stop()
        raise
    return server


def run(seed: int, seconds: float, trace: bool, size: ServeSize = ServeSize(), *,
        root: Path, workdir: Path, trace_path=None) -> WorkloadResult:
    outcome = Outcome()
    workdir.mkdir(parents=True, exist_ok=True)
    refuse_if_stale(workdir.parent)
    try:
        if trace:
            return _traced(seed, size, root, workdir, outcome, trace_path)
        setup_times = []
        server = None
        for r in range(size.setup_repeats):
            if server is not None:
                server.stop()
            artifacts = workdir / f"artifacts-{r}"
            started = time.perf_counter()
            records = _fit_and_save(seed, size.scale, artifacts)
            server = _start(root, artifacts, workdir, f"server-{r}")
            setup_times.append(time.perf_counter() - started)
        with server:
            traffic = _Traffic(server, records, seed, size, None)
            traffic.run(seconds)
            rss = peak_rss_mb(server.pid)
            drained = server.stop()
        outcome.check("server_drained", drained, "server exited cleanly after drain")
        recall = _replay(artifacts, traffic, outcome, size.quality_resolves)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # time only what ran while the hypervisor left the machine alone
    windows, tail_n = traffic.windows, min_samples(0.9)
    resolves = windows.timed(traffic.resolves, lambda r: r[3], tail_n)
    lookups = windows.timed(traffic.lookups, lambda r: r[3], tail_n)
    resolve_s = [r[1] for r in resolves]
    lookup_s = [r[0] for r in lookups]
    rps = len(resolve_s) / (
        windows.clean_s if resolves is not traffic.resolves else traffic.resolve_wall_s
    )
    result = WorkloadResult(outcome)
    result.metrics = {
        "setup_s": median(setup_times),
        "peak_rss_mb": rss,
        "quality": recall,
        "throughput_per_s": rps,
        "latency_p50_ms": percentile(resolve_s, 0.5) * 1000.0,
    }
    result.detail = {
        "serve_resolve_rps": detail_entry(rps, "1/s", samples=len(resolve_s)),
        "serve_resolve_p50_ms": detail_entry(
            result.metrics["latency_p50_ms"], "ms", samples=len(resolve_s)
        ),
        "serve_resolve_p90_ms": detail_entry(tail_ms(resolve_s), "ms", samples=len(resolve_s)),
        "serve_lookup_p50_ms": detail_entry(
            percentile(lookup_s, 0.5) * 1000.0, "ms", samples=len(lookup_s)
        ),
        "serve_lookup_p90_ms": detail_entry(tail_ms(lookup_s), "ms", samples=len(lookup_s)),
        "serve_recall": detail_entry(recall, "frac", samples=size.quality_resolves),
        "clean_frac": detail_entry(windows.clean_frac, "frac", samples=len(traffic.resolves)),
        "setup_s": detail_entry(median(setup_times), "s", samples=len(setup_times)),
    }
    return result


def _traced(seed, size: ServeSize, root: Path, workdir: Path, outcome: Outcome,
            trace_path) -> WorkloadResult:
    """An untraced and a traced server over the same artifacts and requests."""
    artifacts = workdir / "artifacts"
    records = _fit_and_save(seed, size.scale, artifacts)
    n = size.min_resolves
    passes = []
    for traced in (False, True):
        tracer = Tracer() if traced else None
        server_trace = workdir / "server-spans.json" if traced else None
        server = _start(root, artifacts, workdir, f"server-{int(traced)}", server_trace)
        with server:
            traffic = _Traffic(server, records, seed, size, tracer)
            if tracer is not None:
                with tracer.span("bench.serve"):
                    traffic.run(0.0, exact=n)
            else:
                traffic.run(0.0, exact=n)
            drained = server.stop()
        outcome.check("server_drained", drained, "server exited cleanly after drain")
        _replay(artifacts, traffic, outcome, size.quality_resolves)
        passes.append((traffic, tracer, server_trace))

    (plain, _t, _p), (traffic, tracer, server_trace) = passes
    server_spans = json.loads(server_trace.read_text())
    # server span ids live in their own number space
    offset = 1 + max((s[ID] for s in tracer.spans), default=0)
    for span in server_spans:
        span[ID] += offset
        if span[PARENT] is not None:
            span[PARENT] += offset
    if trace_path is not None:
        Path(trace_path).write_text(
            json.dumps({"client": tracer.spans, "server": server_spans})
        )

    def mean_resolve(t: _Traffic) -> float:
        return sum(r[1] for r in t.resolves) / len(t.resolves)

    late = [r[1] for r in traffic.lookups]
    result = WorkloadResult(outcome)
    result.layers = layer_metrics(
        tracer.spans, server_spans,
        overhead_frac=mean_resolve(traffic) / mean_resolve(plain) - 1.0,
        lookup_late_ms=(sum(late) / len(late) * 1000.0) if late else 0.0,
    )
    return result
