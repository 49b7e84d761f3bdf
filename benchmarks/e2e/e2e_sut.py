"""Lifecycle of the system under test: ``python -m repro.cli serve`` as a subprocess.

The harness is a client; the server runs in its own process, started through
the public CLI on ``--port 0`` and found through the ``{"serving": ...}``
line it prints.  Everything here is built so a run can neither hang nor leak:
the start has a timeout, shutdown escalates from SIGINT (so a cluster router
closes its shard processes) to killing the process group, the
``--session-dir`` is removed in ``finally``, and the kernel sends the server
SIGINT when the harness dies without running any of that (SIGKILL, a driver
timeout).
"""

from __future__ import annotations

import ctypes
import json
import os
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 10.0
#: Socket timeout of every client connection; a timed-out request is a
#: failed operation, not a hung run.
REQUEST_TIMEOUT_S = 30.0

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    """In the child, before exec: SIGINT when the harness process is gone.

    The server sits in a session of its own, so no signal sent to the harness
    or its group reaches it; without this a killed harness leaves a server
    holding up to 900 MB behind.  SIGINT rather than SIGKILL, because that is
    what makes a cluster router stop its shard processes.
    """
    # A harness started as a shell's background job inherits SIGINT ignored,
    # and Python then installs no KeyboardInterrupt handler in the server.
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    if _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGINT, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG)")


class ServerStartError(RuntimeError):
    """The server did not print its address in time (or exited first)."""


class ServerProcess:
    """One ``repro.cli serve`` subprocess; use as a context manager."""

    def __init__(
        self,
        program_files: Sequence[Path],
        backend: str,
        src_dir: Path,
        log_path: Path,
        extra_args: Sequence[str] = (),
        session_dir: bool = False,
    ) -> None:
        self._session_dir: Optional[str] = None
        self._log_path = log_path
        self._proc: Optional[subprocess.Popen] = None
        self.address: Tuple[str, int] = ("", 0)
        args: List[str] = [
            sys.executable, "-m", "repro.cli", "serve",
            *[str(path) for path in program_files],
            "--port", "0", "--backend", backend, "--max-rescale-bits", "25",
            *extra_args,
        ]  # fmt: skip
        if session_dir:
            # A fixed place, emptied before use: what a killed harness could not
            # remove is gone with the next run instead of piling up.
            self._session_dir = str(log_path.with_suffix(".sessions"))
            shutil.rmtree(self._session_dir, ignore_errors=True)
            args += ["--session-dir", self._session_dir]
        self._args = args
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self._env = env

    def __enter__(self) -> "ServerProcess":
        try:
            self._start()
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    def _start(self) -> None:
        log = open(self._log_path, "ab")
        try:
            self._proc = subprocess.Popen(
                self._args,
                stdout=subprocess.PIPE,
                stderr=log,
                env=self._env,
                # Own process group: a stuck router and its shards die together.
                start_new_session=True,
                preexec_fn=_die_with_parent,
            )
        finally:
            log.close()
        deadline = time.monotonic() + START_TIMEOUT_S
        stdout = self._proc.stdout
        buffer = b""
        while b"\n" not in buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServerStartError(f"no serving line within {START_TIMEOUT_S:.0f}s")
            ready, _, _ = select.select([stdout], [], [], min(remaining, 0.5))
            if ready:
                chunk = os.read(stdout.fileno(), 65536)
                if not chunk:
                    raise ServerStartError(
                        f"server exited with code {self._proc.wait()} before serving; "
                        f"see {self._log_path}"
                    )
                buffer += chunk
        try:
            host, port = json.loads(buffer.split(b"\n", 1)[0])["serving"].rsplit(":", 1)
        except (ValueError, KeyError, TypeError) as exc:
            raise ServerStartError(f"unreadable serving line {buffer[:200]!r}") from exc
        self.address = (host, int(port))

    @property
    def pid(self) -> int:
        return self._proc.pid

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, read while it is still alive."""
        return _status_kb(self.pid, "VmHWM") / 1024.0

    def cpu_seconds(self) -> float:
        """User + system CPU time the server process has used so far."""
        with open(f"/proc/{self.pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def stop(self) -> None:
        """Stop the server and everything it spawned; never raises, never hangs."""
        proc = self._proc
        try:
            if proc is not None and proc.poll() is None:
                proc.send_signal(signal.SIGINT)
                try:
                    proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    pass
            if proc is not None:
                # Whatever is left of the group (a shard that outlived its router).
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
                proc.wait()
                if proc.stdout is not None:
                    proc.stdout.close()
        finally:
            self._proc = None
            if self._session_dir is not None:
                shutil.rmtree(self._session_dir, ignore_errors=True)
                self._session_dir = None


def _status_kb(pid: int, key: str) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return float(line.split()[1])
    raise RuntimeError(f"{key} not found in /proc/{pid}/status")


def own_peak_rss_mb() -> float:
    return _status_kb(os.getpid(), "VmHWM") / 1024.0
