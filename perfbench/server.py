"""The ``repro serve`` process: start, wait for ``serving``, drain, reap.

A server is always drained on the way out — ``POST /admin/drain``, then
``SIGKILL`` if it has not exited within the timeout — including when the
client failed. The child also gets ``SIGTERM`` (which starts a drain) if
the benchmark process dies first, so no server outlives its run.
:func:`stale_servers` finds ``repro serve`` processes still serving
artifacts under this checkout's work directory, which the workload refuses
to time beside.
"""

from __future__ import annotations

import ctypes
import http.client
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

_SERVING = re.compile(r"^serving .* on (http://[\w.\-]+:\d+)")

#: ``prctl`` option: signal delivered to this process when its parent dies.
_PR_SET_PDEATHSIG = 1


class ServerError(RuntimeError):
    """The server did not start, or a stale one is still alive."""


def _term_with_parent() -> None:  # runs in the child between fork and exec
    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    except (OSError, AttributeError):
        pass


class ServerProcess:
    """One ``repro serve --port 0`` process over an artifact root.

    ``trace_out`` runs it through the benchmark-owned launcher, which
    records spans and writes them to that path at drain.
    """

    def __init__(self, root: Path, artifacts: Path, log: Path, trace_out: Path | None = None):
        self.root = root
        self.artifacts = artifacts
        self.log = log
        self.trace_out = trace_out
        self.proc: subprocess.Popen | None = None
        self.url: str | None = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def start(self, timeout: float = 120.0) -> "ServerProcess":
        serve_args = ["serve", "--artifacts", str(self.artifacts), "--port", "0"]
        if self.trace_out is None:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        else:
            launcher = Path(__file__).resolve().parent / "serve_launcher.py"
            cmd = [sys.executable, str(launcher), "--trace-out", str(self.trace_out),
                   "--", *serve_args]
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                env=env, cwd=self.root, preexec_fn=_term_with_parent,
            )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.log.read_text(errors="replace").splitlines():
                match = _SERVING.match(line)
                if match:
                    self.url = match.group(1)
                    return self
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise ServerError(f"server did not start; log:\n{self.log.read_text(errors='replace')}")

    def connection(self, timeout: float = 60.0) -> http.client.HTTPConnection:
        host, port = self.url.removeprefix("http://").rsplit(":", 1)
        return http.client.HTTPConnection(host, int(port), timeout=timeout)

    def stop(self, timeout: float = 30.0) -> bool:
        """Drain, wait up to ``timeout`` s, then kill; True when it drained itself."""
        if self.proc is None or self.proc.poll() is not None:
            return self.proc is not None and self.proc.returncode == 0
        if self.url is not None:
            conn = self.connection(timeout=10.0)
            try:
                conn.request("POST", "/admin/drain", body=b"{}")
                conn.getresponse().read()
            except (OSError, http.client.HTTPException):
                pass
            finally:
                conn.close()
        else:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=timeout)
            return self.proc.returncode == 0
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return False

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()
        return False


def stale_servers(workdir: Path, exclude=()) -> list[int]:
    """Pids of ``repro serve`` processes over artifacts under ``workdir``."""
    marker = str(workdir)
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) in exclude:
            continue
        try:
            argv = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        args = [a.decode(errors="replace") for a in argv]
        if "serve" in args and any(a.startswith(marker) for a in args):
            found.append(int(entry.name))
    return found


def refuse_if_stale(workdir: Path, exclude=(), wait_s: float = 15.0) -> None:
    """Wait for stale servers to exit; raise :class:`ServerError` if any remain."""
    deadline = time.monotonic() + wait_s
    while True:
        stale = stale_servers(workdir, exclude)
        if not stale:
            return
        if time.monotonic() >= deadline:
            raise ServerError(
                f"stale repro serve process(es) {stale} still alive under {workdir}; "
                "refusing to time beside them"
            )
        time.sleep(0.2)
