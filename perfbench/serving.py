"""Server processes under the benchmark: spawn, wait for ready, read
``/proc`` counters, stop.

Readiness is the moment the server prints its serving banner, read from
its unbuffered stdout pipe, so spawn-to-ready is timed to the line and not
to a polling interval.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from pathlib import Path

from prepare import ROOT, child_env

READY_TIMEOUT_SECONDS = 120.0
STOP_TIMEOUT_SECONDS = 10.0


def _process_cpu_clock(pid: int) -> int:
    """The clock id of another process's CPU clock, as glibc's
    ``clock_getcpuclockid`` builds it (``CPUCLOCK_SCHED`` of the whole
    process)."""
    return ((~pid) << 3) | 2


class ServerError(RuntimeError):
    pass


class ServerProcess:
    """One spawned server; ``banners`` maps banner prefixes to the seconds
    from spawn at which each first appeared on stdout."""

    def __init__(self, argv: list[str], ready_prefix: str, stderr_path: Path,
                 marks: tuple[str, ...] = ()):
        self.argv = argv
        self.ready_prefix = ready_prefix
        self.marks = marks
        self.stderr_path = stderr_path
        self.banners: dict[str, float] = {}
        #: peak RSS (MiB) at the moment the server became ready.
        self.ready_rss_mb: float | None = None
        self.url: str | None = None
        self.process: subprocess.Popen | None = None

    def start(self) -> "ServerProcess":
        self.stderr_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.stderr_path, "wb") as stderr:
            started = time.perf_counter()
            self.process = subprocess.Popen(
                self.argv, stdout=subprocess.PIPE, stderr=stderr, env=child_env(),
                cwd=ROOT, text=True, bufsize=1,
            )
        # A wedged server never prints; a watchdog kills it so the read
        # below ends instead of blocking past the run's deadline.
        watchdog = threading.Timer(READY_TIMEOUT_SECONDS, self.process.kill)
        watchdog.start()
        try:
            for line in self.process.stdout:
                elapsed = time.perf_counter() - started
                for mark in (*self.marks, self.ready_prefix):
                    if line.startswith(mark) and mark not in self.banners:
                        self.banners[mark] = elapsed
                if line.startswith(self.ready_prefix):
                    self.url = line.rsplit(" on ", 1)[1].strip()
                    break
        finally:
            watchdog.cancel()
        if self.url is None:
            self.stop()
            tail = self.stderr_path.read_text(errors="replace")[-2000:]
            raise ServerError(f"{' '.join(self.argv[2:4])} never became ready:\n{tail}")
        self.ready_rss_mb = self.peak_rss_mb()
        return self

    @property
    def ready_seconds(self) -> float:
        return self.banners[self.ready_prefix]

    @property
    def pid(self) -> int:
        return self.process.pid

    def cpu_seconds(self) -> float:
        """CPU seconds the server process (all its threads) has used so far,
        read from the kernel's nanosecond process clock rather than the
        10 ms ticks of ``/proc/<pid>/stat``."""
        return time.clock_gettime(_process_cpu_clock(self.pid))

    def peak_rss_mb(self) -> float:
        """``VmHWM`` (peak resident set) in MiB."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError(f"no VmHWM for pid {self.pid}")

    def stop(self) -> None:
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=STOP_TIMEOUT_SECONDS)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()

    def stderr_text(self) -> str:
        return self.stderr_path.read_text(errors="replace")


SERVE_READY = "Serving expansion API v1 on "
#: banner printed once the dataset is loaded and the store attached.
SERVE_LOADED = "Artifact store: "
#: banner printed just before the ``--warm`` methods are restored.
SERVE_WARMING = "Warming up "


def start_serve(prepared: Path, methods, extra, stderr_path: Path) -> ServerProcess:
    """``repro serve`` restoring ``methods`` from the prefitted store."""
    argv = [
        sys.executable, "-m", "repro.cli", "serve",
        "--dataset", str(prepared / "dataset"),
        "--store", str(prepared / "store"),
        "--host", "127.0.0.1", "--port", "0",
        "--warm", *methods, *extra,
    ]
    return ServerProcess(
        argv, SERVE_READY, stderr_path, marks=(SERVE_LOADED, SERVE_WARMING)
    ).start()
