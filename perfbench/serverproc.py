"""Boot, probe and stop one ``repro serve --async`` subprocess."""

from __future__ import annotations

import http.client
import json
import signal
import socket
import subprocess
import time
from pathlib import Path

BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """One server process; ``start`` returns its set-up time.

    Args:
        argv: the full command line (interpreter first).
        env: the process environment.
        log_path: where the server's stdout and stderr go.
        port: the port the command line binds.
    """

    def __init__(self, argv: list[str], env: dict, log_path: Path, port: int) -> None:
        self.argv = argv
        self.env = env
        self.log_path = log_path
        self.port = port
        self.proc: subprocess.Popen | None = None
        self._log = None

    def start(self) -> float:
        """Launch; return seconds from launch to the first 200 from /healthz."""
        self._log = open(self.log_path, "ab")
        started = time.monotonic()
        self.proc = subprocess.Popen(
            self.argv, stdout=self._log, stderr=subprocess.STDOUT, env=self.env
        )
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.proc.returncode} during boot:\n"
                    + self.log_tail()
                )
            try:
                self.get_json("/healthz", timeout=5.0)
                return time.monotonic() - started
            except (ConnectionRefusedError, ConnectionResetError):
                pass
            if time.monotonic() - started > BOOT_TIMEOUT_S:
                raise RuntimeError("server did not answer /healthz:\n" + self.log_tail())
            time.sleep(0.005)

    def get_json(self, path: str, timeout: float = 30.0) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path}: HTTP {response.status}")
            return json.loads(body)
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """The process's peak resident set (``VmHWM``) in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """SIGTERM, wait for the graceful exit; kill if it hangs."""
        if self.proc is None:
            return 0
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                return self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                return -signal.SIGKILL
        finally:
            if self._log is not None:
                self._log.close()
                self._log = None

    def log_tail(self, lines: int = 20) -> str:
        if self._log is not None:
            self._log.flush()
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
