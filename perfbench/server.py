"""Start, probe and stop the real ``acic serve`` as a child process."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.net.client import AcicClient

HERE = Path(__file__).resolve().parent
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def peak_rss_mb(pid) -> float:
    """VmHWM (peak resident set) of a live process (or "self"), in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_s(pid) -> float:
    """User plus system CPU seconds of a live process, all its threads.

    Time the host's hypervisor stole from the guest is not in it.
    """
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Server:
    """One ``acic serve --listen 127.0.0.1:0`` child.

    With ``spans_out`` the server runs under ``serve_shim.py``, which
    records the benchmark's server-side spans and writes them there on
    shutdown.
    """

    def __init__(self, root: Path, pack: Path, extra: list[str],
                 spans_out: Path | None = None) -> None:
        self.spans_out = spans_out
        args = ["serve", "--artifacts", str(pack), "--listen", "127.0.0.1:0",
                *extra]
        if spans_out is None:
            command = [sys.executable, "-m", "repro.cli", *args]
        else:
            command = [sys.executable, str(HERE / "serve_shim.py"),
                       str(spans_out), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env, cwd=root,
        )
        self.port = self._await_banner()
        # Keep both pipes drained so the child never blocks on a write.
        self._stdout = threading.Thread(
            target=self.process.stdout.read, daemon=True)
        self._stdout.start()
        self._stderr: list[str] = []
        self._stderr_pump = threading.Thread(
            target=lambda: self._stderr.append(self.process.stderr.read()),
            daemon=True)
        self._stderr_pump.start()

    def _await_banner(self) -> int:
        found: list[int] = []

        def read() -> None:
            for line in self.process.stdout:
                if "# listening on " in line:
                    found.append(int(line.rsplit(":", 1)[1]))
                    return

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(BOOT_TIMEOUT_S)
        if not found:
            self.process.kill()
            _, err = self.process.communicate()
            raise RuntimeError(f"acic serve did not start: {err.strip()[-2000:]}")
        return found[0]

    def ready(self, warmup) -> float:
        """Seconds from spawn to the first PONG plus a warm-up frame."""
        with AcicClient("127.0.0.1", self.port, timeout_s=60.0) as client:
            client.ping()
            client.query_batch(warmup)
        return time.perf_counter() - self.started

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.process.pid)

    def cpu_s(self) -> float:
        """CPU time (user + system, all threads) the server has used."""
        return cpu_s(self.process.pid)

    def stop(self) -> None:
        """SIGTERM, wait for the drain; kill if it does not finish."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._stdout.join(5.0)
        self._stderr_pump.join(5.0)
        if self.process.returncode not in (0, -signal.SIGTERM):
            raise RuntimeError(
                f"acic serve exited {self.process.returncode}: "
                f"{''.join(self._stderr).strip()[-2000:]}"
            )
