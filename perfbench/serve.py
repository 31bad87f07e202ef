"""``serve-cached`` driver: ``repro serve`` in its own process, two HTTP clients.

Each client runs a closed loop over the shared op sequence: a session is
``POST /sessions``, long-polls of ``/events`` until ``X-Repro-Terminal: 1``,
then ``GET /result``; a write is one ``POST /mutate``.  Writes are applied
in sequence order (a later write waits for an earlier one), so the
benchmark always knows the position of each row it deletes.
"""

from __future__ import annotations

import http.client
import json
import re
import select
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench.oracle import Outputs, payload_outputs
from perfbench.tracing import Span
from perfbench.workloads import NonceRows, Op, Workload, Write

CLIENTS = 2
SERVER_WORKERS = 2
#: Seconds a server may take to print its address, turn healthy, or exit.
START_TIMEOUT = 120.0
STOP_TIMEOUT = 60.0
HEALTH_TIMEOUT = 30.0
POLL_WAIT_SECONDS = 10
REQUEST_TIMEOUT = 60.0

_ADDRESS = re.compile(r"repro service on http://([^\s:]+):(\d+)")


def serve_args(workload: Workload, cache_dir: Path) -> list[str]:
    return [
        "serve",
        "--dataset", "dblife",
        "--scale", str(workload.scale),
        "--level", str(workload.level),
        "--direct",
        "--backend", workload.backend,
        "--workers", str(SERVER_WORKERS),
        "--cache-dir", str(cache_dir),
        "--port", "0",
    ]


class Server:
    """One ``repro serve`` process; ``setup_s`` runs from spawn to healthz."""

    def __init__(self, root: Path, workload: Workload, cache_dir: Path, spans_path: Path | None = None):
        argv = [sys.executable, "-u", str(root / "perfbench" / "launcher.py")]
        if spans_path is not None:
            argv += ["--spans", str(spans_path)]
        started = time.perf_counter()
        self.process = subprocess.Popen(
            argv + serve_args(workload, cache_dir), cwd=root, stdout=subprocess.PIPE, text=True
        )
        try:
            self.host, self.port = self._read_address()
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _read_address(self) -> tuple[str, int]:
        assert self.process.stdout is not None
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT)
        line = self.process.stdout.readline() if ready else ""
        match = _ADDRESS.search(line)
        if match is None:
            raise RuntimeError(f"server did not report its address: {line!r}")
        return match.group(1), int(match.group(2))

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + HEALTH_TIMEOUT
        while time.perf_counter() < deadline:
            try:
                if self.request("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("server never answered /healthz")

    def request(self, method: str, path: str, body: dict[str, Any] | None = None) -> tuple[int, dict[str, str], bytes]:
        connection = http.client.HTTPConnection(self.host, self.port, timeout=REQUEST_TIMEOUT)
        try:
            payload = None if body is None else json.dumps(body).encode("utf-8")
            headers = {} if payload is None else {"Content-Type": "application/json"}
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, dict(response.getheaders()), response.read()
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """The server's high-water RSS (``VmHWM``), in MiB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Ctrl-C: the server drains its sessions and exits; wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


@dataclass
class SessionRun:
    """What the clients saw."""

    latencies: list[float] = field(default_factory=list)
    completed: list[tuple[str, Outputs]] = field(default_factory=list)
    failed: int = 0
    write_times: list[float] = field(default_factory=list)
    window: float = 0.0
    #: Client-side root spans, for the traced run.
    roots: list[Span] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.completed) + self.failed + len(self.write_times)


def _session(server: Server, query: str) -> tuple[str, dict[str, Any], bool]:
    """One session: submit, long-poll to the terminal event, fetch the result."""
    status, _, body = server.request("POST", "/sessions", {"query": query})
    if status != 202:
        raise RuntimeError(f"POST /sessions -> {status}: {body!r}")
    session_id = json.loads(body)["session_id"]
    cursor = -1
    skipped = False
    while True:
        status, headers, body = server.request(
            "GET", f"/sessions/{session_id}/events?after={cursor}&wait={POLL_WAIT_SECONDS}"
        )
        if status != 200:
            raise RuntimeError(f"events of {session_id} -> {status}")
        for line in body.decode("utf-8").splitlines():
            record = json.loads(line)
            cursor = max(cursor, record["seq"])
            skipped = skipped or record.get("name") == "phase3_skipped"
        if headers.get("X-Repro-Terminal") == "1":
            break
    status, _, body = server.request("GET", f"/sessions/{session_id}/result")
    payload = json.loads(body)
    if status != 200 or payload.get("state") != "completed":
        raise RuntimeError(f"session {session_id} ended {payload.get('state')}: {payload.get('error')}")
    return session_id, payload, skipped


def _write(server: Server, rows: NonceRows, write: Write) -> tuple[float, float] | None:
    """One ``POST /mutate``; its (start, end), or None when it failed."""
    mutation = rows.mutation(write)
    started = time.perf_counter()
    try:
        status, _, body = server.request("POST", "/mutate", mutation)
    except OSError:
        traceback.print_exc(file=sys.stderr)
        return None
    if status != 200:
        print(f"POST /mutate -> {status}: {body!r}", file=sys.stderr)
        return None
    return started, time.perf_counter()


def run_clients(server: Server, ops: list[Op], base_rows: int) -> SessionRun:
    """Drive ``ops`` through ``CLIENTS`` closed-loop clients."""
    run = SessionRun()
    rows = NonceRows(base_rows)
    lock = threading.Lock()
    write_lock = threading.Lock()
    pending = iter(enumerate(ops))

    def client() -> None:
        while True:
            with lock:
                number, op = next(pending, (None, None))
                if isinstance(op, Write):
                    # taken in order under ``lock``: writes apply in sequence
                    write_lock.acquire()
            if op is None:
                return
            if isinstance(op, Write):
                try:
                    timing = _write(server, rows, op)
                finally:
                    write_lock.release()
                with lock:
                    if timing is None:
                        run.failed += 1
                        continue
                    run.write_times.append(timing[1] - timing[0])
                    run.roots.append(Span("workload.write", *timing, qid=f"w{number}"))
                continue
            started = time.perf_counter()
            try:
                session_id, payload, skipped = _session(server, op)
            except Exception:  # counted and reported; the client goes on
                traceback.print_exc(file=sys.stderr)
                with lock:
                    run.failed += 1
                continue
            ended = time.perf_counter()
            with lock:
                run.latencies.append(ended - started)
                run.completed.append((op, payload_outputs(payload)))
                run.roots.append(
                    Span(
                        "workload.session",
                        started,
                        ended,
                        qid=session_id,
                        attrs={
                            "probes": payload.get("queries_executed", 0),
                            "phase3_skipped": skipped,
                        },
                    )
                )

    threads = [threading.Thread(target=client, name=f"bench-client-{n}") for n in range(CLIENTS)]
    window_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    run.window = time.perf_counter() - window_start
    return run
