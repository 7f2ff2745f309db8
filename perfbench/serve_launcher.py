"""Run ``python -m repro serve`` with the benchmark's layer wrappers installed.

Usage::

    python perfbench/serve_launcher.py --trace-out SPANS.json -- serve --artifacts DIR --port 0

The wrappers go on before the app loads its artifacts, so the spans cover
start-up (``IncrementalResolver.load``) and every request. The spans are
written to ``--trace-out`` when the server has drained and ``main``
returns. ``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# import the benchmark as the ``perfbench`` package, not as loose modules
sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench.common import pin_blas_threads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True, type=Path)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    pin_blas_threads()
    from repro.__main__ import main as repro_main
    from perfbench.layers import install_engine, install_serve
    from perfbench.tracing import Tracer

    tracer = Tracer()
    install_engine(tracer)
    install_serve(tracer)
    try:
        return repro_main(serve_args)
    finally:
        tracer.restore()
        tracer.dump(args.trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
