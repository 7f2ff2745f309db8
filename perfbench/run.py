"""The repository's benchmark: one command, three workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fit_pub_da --seed 1 --seconds 12 --trace 0

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` makes an untraced and a traced pass over the same
fixed work and reports the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Lines before it give the environment block and the
workload's own metrics by name and unit. The exit code is 0 only when
every output check passed. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# import the benchmark as the ``perfbench`` package, not as loose modules
sys.path[0] = str(ROOT)

from perfbench.common import (  # noqa: E402
    cpu_ticks,
    environment,
    loadavg,
    pin_blas_threads,
    steal_frac,
)

#: Scratch space inside the checkout (listed in ``.gitignore``).
WORK = HERE / ".work"

WORKLOADS = ("fit_pub_da", "resolve_100k", "serve_mixed")


def _run_workload(name: str, seed: int, seconds: float, trace: bool):
    trace_path = WORK / f"trace-{name}.json" if trace else None
    if name == "fit_pub_da":
        from perfbench import fit_workload

        return fit_workload.run(seed, seconds, trace, trace_path=trace_path)
    if name == "resolve_100k":
        from perfbench import resolve_workload

        return resolve_workload.run(seed, seconds, trace, trace_path=trace_path)
    from perfbench import serve_workload

    return serve_workload.run(
        seed, seconds, trace, root=ROOT, workdir=WORK / f"serve-{os.getpid()}",
        trace_path=trace_path,
    )


def result_line(result, trace: bool) -> dict:
    """The final JSON object; ``metrics`` holds every end-to-end or per-layer name."""
    from perfbench.report import END_TO_END, PER_LAYER

    outcome = result.outcome
    if trace:
        units, values = PER_LAYER, result.layers
    else:
        units = END_TO_END
        values = {**result.metrics, "ok_frac": 1.0 - outcome.failed_frac}
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"workload did not report {sorted(missing)}")
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2

    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    WORK.mkdir(exist_ok=True)
    env = {**environment(ROOT), "loadavg_before": loadavg()}
    ticks = cpu_ticks()
    started = time.perf_counter()
    result = _run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    env["loadavg_after"] = loadavg()
    env["steal_frac"] = round(steal_frac(ticks, cpu_ticks()), 4)
    env["run_s"] = round(time.perf_counter() - started, 3)

    line = result_line(result, bool(args.trace))
    print(json.dumps({"environment": env}))
    for name, entry in result.detail.items():
        extra = f" (n={entry['samples']})" if "samples" in entry else ""
        print(f"{args.workload}  {name} = {entry['value']:.6g} {entry['unit']}{extra}")
    for check in result.outcome.checks:
        if not check["ok"]:
            print(f"CHECK FAILED: {check['check']}: {check['detail']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
