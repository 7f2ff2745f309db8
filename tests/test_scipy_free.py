"""The package runs without scipy, which it does not declare as a dependency.

scipy is only the optional ``baselines`` extra (the logistic-regression
baseline) and a test-suite oracle. A subprocess with every ``scipy*``
import blocked must still import the package, its CLI and service modules,
fit a small linkage model, freeze it and score with it.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_BLOCK_SCIPY = """
import importlib.abc
import sys


class _BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, _BlockScipy())
"""


def _run_without_scipy(body: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = _BLOCK_SCIPY + textwrap.dedent(body)
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )


def test_fit_freeze_and_score_without_scipy():
    proc = _run_without_scipy(
        """
        import numpy as np

        import repro
        import repro.__main__
        import repro.serve
        from repro import ERPipeline, load_benchmark

        ds = load_benchmark("pub_da", scale="tiny", seed=3)
        pipeline = ERPipeline(blocking_attribute="title")
        result = pipeline.run(ds.left, ds.right)
        resolver = pipeline.freeze()
        X = pipeline.generator_.transform(ds.left, ds.right, result.pairs[:50])
        proba = resolver.model.predict_proba(X)
        assert proba.shape == (len(X),) and np.all(np.isfinite(proba))
        np.testing.assert_allclose(proba, result.scores[:50], atol=1e-6)
        assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        print("ok", len(result.pairs))
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok")


def test_serve_cli_loads_without_scipy():
    proc = _run_without_scipy(
        """
        import runpy

        sys.argv = ["repro", "serve", "--help"]
        try:
            runpy.run_module("repro", run_name="__main__")
        except SystemExit as exc:
            assert exc.code in (0, None), exc.code
        assert not [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert "--artifacts" in proc.stdout


def test_logistic_regression_names_the_extra_without_scipy():
    proc = _run_without_scipy(
        """
        import numpy as np

        from repro.baselines import LogisticRegression

        X = np.array([[0.1, 0.2], [0.9, 0.8], [0.2, 0.1], [0.8, 0.9]])
        try:
            LogisticRegression().fit(X, np.array([0, 1, 0, 1]))
        except ImportError as exc:
            assert "repro[baselines]" in str(exc), exc
            print("ok")
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok")
