"""The benchmark's own tests: its arithmetic, and a toy-size pass of each workload.

The toy passes shrink every input so each workload finishes in seconds;
they check the plumbing (every metric reported, output checks passing,
the serve process drained and gone), not the numbers.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (str(ROOT), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import fit_workload, resolve_workload, serve_workload  # noqa: E402
from perfbench.common import Outcome, median, min_samples, percentile  # noqa: E402
from perfbench.report import END_TO_END, PER_LAYER, WorkloadResult, tail_ms  # noqa: E402
from perfbench.run import result_line  # noqa: E402
from perfbench.server import stale_servers  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Tracer,
    exclusive_times,
    layer_self_times,
    summarize,
)

TOY_FIT = fit_workload.FitSize(scale="tiny", suite=2, setup_repeats=2)
TOY_RESOLVE = resolve_workload.ResolveSize(
    fit_records=300, store_records=2_000, setup_repeats=2, ingest_repeats=2,
    min_batches=6, quality_batches=5, replay_batches=3,
)
TOY_SERVE = serve_workload.ServeSize(
    scale="tiny", setup_repeats=2, min_resolves=8, min_lookups=4, lookup_rate=50.0,
    quality_resolves=6,
)


# -- arithmetic ---------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(values, 1.0) == 100
    assert percentile([7.0], 0.9) == 7.0
    assert percentile([3, 1, 2], 0.5) == 2
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 0.0)


def test_p90_needs_ten_samples_beyond_it():
    assert min_samples(0.9) == 100
    assert min_samples(0.5) == 20
    # with 100 samples, p90 has exactly ten above it
    values = list(range(100))
    assert sum(v > percentile(values, 0.9) for v in values) == 10
    # below that the tail is the largest sample
    assert tail_ms([0.001, 0.003, 0.002]) == pytest.approx(3.0)
    assert tail_ms([i / 1000 for i in range(1, 101)]) == pytest.approx(90.0)


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


def _span(span_id, parent, name, start, end, **attrs):
    return [span_id, parent, name, start, end, attrs]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, None, "bench.fit", 0.0, 10.0),
        _span(2, 1, "core.fit", 1.0, 4.0),
        _span(3, 1, "features.transform", 3.0, 6.0, pairs=5),  # overlaps span 2
        _span(4, 2, "core.em.m_step", 2.0, 3.0),
        _span(5, 4, "core.em.e_step", 2.5, 9.0),  # outlives its parent: clipped
    ]
    exclusive = exclusive_times(spans)
    assert exclusive[1] == pytest.approx(10.0 - 5.0)  # children cover [1, 6]
    assert exclusive[2] == pytest.approx(3.0 - 1.0)
    assert exclusive[4] == pytest.approx(1.0 - 0.5)
    assert exclusive[5] == pytest.approx(6.5)
    summary = summarize(spans)
    assert summary["features.transform"]["attrs"] == {"pairs": 5}
    assert summary["core.fit"]["count"] == 1
    layers = layer_self_times(spans, ("core", "features"))
    assert layers == {"core": pytest.approx(2.0 + 0.5 + 6.5), "features": pytest.approx(3.0)}


def test_failure_share_and_correctness():
    outcome = Outcome()
    for ok in (True, True, True, False):
        outcome.op(ok)
    assert outcome.failed_frac == 0.25
    assert not outcome.correct

    clean = Outcome()
    clean.op(True)
    assert clean.correct
    clean.check("replay", False, "one batch differs")
    assert not clean.correct  # a failed check fails the run

    with pytest.raises(ValueError):
        Outcome().failed_frac


def test_result_line_needs_every_metric():
    outcome = Outcome()
    outcome.op(True)
    result = WorkloadResult(outcome, metrics={"setup_s": 1.0})
    with pytest.raises(RuntimeError, match="did not report"):
        result_line(result, trace=False)


# -- tracer -------------------------------------------------------------------


class _Store:
    def add(self, x):
        return [x]

    def add_records(self, xs):
        return [self.add(x) for x in xs]

    @classmethod
    def load(cls):
        return cls()

    async def submit(self, x):
        await asyncio.sleep(0)
        return x


class _SubStore(_Store):
    pass


def test_tracer_wraps_and_restores():
    tracer = Tracer()
    originals = dict(_Store.__dict__)
    loaded = []
    tracer.wrap(_SubStore, "add_records", "incremental.store.add")  # inherited method
    assert "add_records" in vars(_SubStore)
    tracer.wrap(_Store, "add", "incremental.store.add", result_attrs=lambda r: {"n": len(r)})
    tracer.wrap(_Store, "add_records", "incremental.store.add")
    tracer.wrap(_Store, "load", "incremental.artifacts.load", after=loaded.append)
    tracer.wrap(_Store, "submit", "serve.submit")
    tracer.wrap(_Store, "add", "incremental.store.add")  # second wrap: no-op

    store = _Store.load()
    assert loaded == [store]
    with tracer.span("bench.ingest"):
        assert store.add_records([1, 2, 3]) == [[1], [2], [3]]
    assert asyncio.run(store.submit(5)) == 5
    tracer.active = False
    store.add(4)

    names = [s[2] for s in tracer.spans]
    # add() inside add_records() is not recorded twice; inactive calls not at all
    assert names.count("incremental.store.add") == 1
    assert sorted(names) == sorted(
        ["incremental.artifacts.load", "incremental.store.add", "bench.ingest", "serve.submit"]
    )
    by_name = {s[2]: s for s in tracer.spans}
    assert by_name["incremental.store.add"][1] == by_name["bench.ingest"][0]

    tracer.restore()
    for name in ("add", "add_records", "load", "submit"):
        assert _Store.__dict__[name] is originals[name]
    assert "add_records" not in vars(_SubStore)


# -- toy passes ---------------------------------------------------------------


def _check_e2e(result):
    line = result_line(result, trace=False)
    assert line["correct"], result.outcome.checks
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == set(END_TO_END)
    for name, entry in line["metrics"].items():
        assert entry["value"] > 0, name
    json.dumps(line)


def _check_layers(result, used):
    line = result_line(result, trace=True)
    assert line["correct"], result.outcome.checks
    assert set(line["metrics"]) == set(PER_LAYER)
    for name in used:
        assert line["metrics"][name]["value"] > 0, name


def test_toy_fit(tmp_path):
    _check_e2e(fit_workload.run(0, 0.1, False, TOY_FIT))
    result = fit_workload.run(0, 0.1, True, TOY_FIT, trace_path=tmp_path / "t.json")
    _check_layers(result, ["blocking.block_s", "features.transform_s", "core.em.e_step_s",
                           "core.fit_self_s", "layer.core.self_s"])
    assert result.layers["incremental.index.candidates_s"] == 0
    assert json.loads((tmp_path / "t.json").read_text())


def test_fit_suite_datasets_differ_and_refits_repeat():
    from repro.data import load_benchmark

    seeds = {fit_workload.suite_seed(s, i, TOY_FIT) for s in (0, 1) for i in range(TOY_FIT.suite)}
    assert len(seeds) == 2 * TOY_FIT.suite
    datasets = [load_benchmark("pub_da", scale="tiny", seed=fit_workload.suite_seed(0, i, TOY_FIT))
                for i in range(TOY_FIT.suite)]
    assert datasets[0].matches != datasets[1].matches
    outcome = Outcome()
    fitter = fit_workload._Fitter(datasets, outcome)
    for i in (0, 1, 0):
        fitter.fit(i)
    assert outcome.correct and outcome.attempted == 3


def test_toy_resolve():
    result = resolve_workload.run(3, 0.1, False, TOY_RESOLVE)
    _check_e2e(result)
    assert result.detail["ingest_records_per_s"]["value"] > 0
    traced = resolve_workload.run(3, 0.1, True, TOY_RESOLVE)
    _check_layers(traced, ["incremental.index.candidates_s", "incremental.index.add_s",
                           "incremental.store.add_s", "incremental.resolver.self_s"])


def _assert_no_server_left(workdir: Path):
    assert not stale_servers(workdir.parent)
    assert not workdir.exists()


def test_toy_serve(tmp_path):
    workdir = tmp_path / "work" / "serve"
    result = serve_workload.run(5, 0.5, False, TOY_SERVE, root=ROOT, workdir=workdir)
    _check_e2e(result)
    assert result.detail["serve_lookup_p50_ms"]["value"] > 0
    _assert_no_server_left(workdir)

    traced = serve_workload.run(5, 0.5, True, TOY_SERVE, root=ROOT, workdir=workdir)
    _check_layers(traced, ["serve.resolve.dispatch_s", "serve.lookup.dispatch_s",
                           "serve.engine_s", "serve.queue_wait_s",
                           "incremental.store.snapshot_s", "incremental.artifacts.load_s"])
    assert traced.layers["serve.records_per_batch"] == 1.0
    _assert_no_server_left(workdir)


def test_serve_is_drained_after_a_client_error(tmp_path, monkeypatch):
    workdir = tmp_path / "work" / "serve"
    started = []
    original_start = serve_workload.ServerProcess.start

    def start(self, *args, **kwargs):
        started.append(self)
        return original_start(self, *args, **kwargs)

    def broken_client(self, seconds, exact=None):
        raise ConnectionResetError("injected client error")

    monkeypatch.setattr(serve_workload.ServerProcess, "start", start)
    monkeypatch.setattr(serve_workload._Traffic, "run", broken_client)
    with pytest.raises(ConnectionResetError):
        serve_workload.run(5, 0.5, False, TOY_SERVE, root=ROOT, workdir=workdir)
    assert started and all(s.proc.poll() is not None for s in started)
    _assert_no_server_left(workdir)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit_pub_da", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode != 0
    assert done.stdout == ""
