"""One benchmark run: set up, measure, check outputs, report metrics.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the same inputs twice, untraced and with every layer's
entry points wrapped (in-process: the two passes side by side, one per
core; ``serve-cached``: one after the other), and reports the per-layer
metrics of the traced pass (plus its overhead over the untraced one).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any

from perfbench.oracle import Oracle
from perfbench.serve import Server, run_clients
from perfbench.tracing import SpanRecorder, check_partition, layer_metrics
from perfbench.workloads import (
    WORKLOADS,
    WRITE_RELATION,
    Workload,
    query_stream,
    repeat_share,
    session_ops,
    zipf_sessions,
)

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

#: Set-ups per untraced run; ``setup_s`` is their median.  An in-process
#: run also spreads its queries over this many worker processes, one set-up
#: each, ``PARALLEL`` at a time.
SETUP_REPEATS = 6
#: In-process worker processes that run at once, one per core of a 2-core
#: host: each core's speed drifts on its own (a fixed loop pinned to one
#: core moved 0.14 as IQR/median of 20-s means, on the other 0.08, the two
#: averaged 0.06), so latencies pooled over both cores drift less.
PARALLEL = 2
#: Seconds one worker process may take.
WORKER_TIMEOUT = 150.0
#: ``serve-cached`` draws its sessions from ``count // POOL_DIVISOR``
#: distinct queries, so 1 - 1/6 of the sessions repeat an earlier query.
POOL_DIVISOR = 6


def _beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b) (Lentz's continued fraction)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _beta_cdf(b, a, 1.0 - x)
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    fraction = d
    for m in range(1, 1000):
        for numerator in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            fraction *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return math.exp(log_front) * fraction / a


def quantile(values: list[float], share: float) -> float:
    """The Harrell-Davis ``share`` quantile: a Beta-weighted mean of all order statistics.

    Query costs cluster by keyword-to-relation pattern, and a nearest-rank
    quantile jumps when it falls in a gap between clusters (``probe-sqlite``'s
    p95 sits at the edge of its three-person-name cluster); this estimate
    moves smoothly instead.
    """
    ordered = sorted(values)
    count = len(ordered)
    a, b = share * (count + 1), (1.0 - share) * (count + 1)
    cdf = [_beta_cdf(a, b, rank / count) for rank in range(count + 1)]
    return sum((high - low) * value for low, high, value in zip(cdf, cdf[1:], ordered))


def _end_to_end(
    setups: list[float], latencies: list[float], window: float, peak_rss_mb: float
) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": 1000.0 * quantile(latencies, 0.5),
        "latency_p95_ms": 1000.0 * quantile(latencies, 0.95),
        "queries_per_s": len(latencies) / window,
        "peak_rss_mb": peak_rss_mb,
    }


# --------------------------------------------------------------- in-process
def _workers(
    workload: Workload,
    seed: int,
    count: int,
    slices: int,
    jobs: list[tuple[int, Path | None]],
    work: Path,
) -> list[dict[str, Any]]:
    """Run ``(slice, spans path)`` jobs at once, each in a fresh process
    (``perfbench/worker.py``) on slice ``slice`` of ``slices``."""
    started: list[tuple[subprocess.Popen[bytes], Path]] = []
    try:
        for part, spans_path in jobs:
            out = work / f"slice{part}{'-traced' if spans_path else ''}.json"
            argv = [
                sys.executable,
                str(ROOT / "perfbench" / "worker.py"),
                str(out),
                json.dumps(asdict(workload)),
                *(str(value) for value in (seed, count, part, slices)),
            ]
            if spans_path is not None:
                argv.append(str(spans_path))
            started.append((subprocess.Popen(argv, cwd=ROOT), out))
        deadline = time.monotonic() + WORKER_TIMEOUT
        for process, _ in started:
            code = process.wait(timeout=max(0.0, deadline - time.monotonic()))
            if code:
                raise subprocess.CalledProcessError(code, process.args)
    finally:
        for process, _ in started:
            if process.poll() is None:
                process.kill()
            process.wait()
    return [json.loads(out.read_text(encoding="utf-8")) for _, out in started]


def _inproc(workload: Workload, seed: int, count: int, trace: bool, work: Path) -> dict[str, Any]:
    result: dict[str, Any] = {}
    if trace:
        # both passes at once, one per core, so they share the host's pace
        spans_path = WORK / f"trace-{workload.name}-seed{seed}.json"
        slices = _workers(workload, seed, count, 1, [(0, None), (0, spans_path)], work)
        plain, traced = slices
        metrics = layer_metrics(
            SpanRecorder.load(str(spans_path)),
            1000.0 * statistics.median(plain["latencies"]),
            traced["repeat_share"],
            traced["pool_waits"],
        )
        result["partition"] = check_partition(metrics)
    else:
        slices = []
        for first in range(0, SETUP_REPEATS, PARALLEL):
            parts = range(first, min(first + PARALLEL, SETUP_REPEATS))
            slices += _workers(
                workload, seed, count, SETUP_REPEATS, [(part, None) for part in parts], work
            )
        metrics = _end_to_end(
            [slice_["setup_s"] for slice_ in slices],
            [latency for slice_ in slices for latency in slice_["latencies"]],
            sum(slice_["window"] for slice_ in slices),
            statistics.median(slice_["peak_rss_mb"] for slice_ in slices),
        )
    result.update(
        metrics=metrics,
        attempted=sum(slice_["completed"] + slice_["failed"] for slice_ in slices),
        failed=sum(slice_["failed"] + slice_["mismatches"] for slice_ in slices),
    )
    return result


# ------------------------------------------------------------------ service
def _serve(workload: Workload, seed: int, count: int, trace: bool, work: Path) -> dict[str, Any]:
    oracle = Oracle(workload.scale, workload.level)
    servers: list[Server] = []

    def start(spans_path: Path | None = None) -> Server:
        server = Server(ROOT, workload, work / f"cache{len(servers)}", spans_path)
        servers.append(server)
        return server

    try:
        pool = query_stream(oracle.debugger.index, seed, count // POOL_DIVISOR)
        sessions = zipf_sessions(pool, count)
        ops = session_ops(sessions, seed, workload.write_every)
        base_rows = len(oracle.database.table(WRITE_RELATION))
        for _ in range(1 if trace else SETUP_REPEATS):
            if servers:
                servers[-1].stop()
            start()
        plain = run_clients(servers[-1], ops, base_rows)
        peak_rss_mb = servers[-1].peak_rss_mb()
        servers[-1].stop()
        runs = [plain]
        result: dict[str, Any] = {}
        if trace:
            spans_path = WORK / f"trace-{workload.name}-seed{seed}.json"
            traced = run_clients(start(spans_path), ops, base_rows)
            servers[-1].stop()
            runs.append(traced)
            spans = SpanRecorder.load(str(spans_path)) + traced.roots
            metrics = layer_metrics(
                spans, 1000.0 * statistics.median(plain.latencies), repeat_share(sessions), 0
            )
            result["partition"] = check_partition(metrics)
        else:
            setups = [server.setup_s for server in servers]
            metrics = _end_to_end(setups, plain.latencies, plain.window, peak_rss_mb)
        mismatches = sum(oracle.mismatches(run.completed) for run in runs)
    finally:
        for server in servers:
            server.stop()
        oracle.close()
    result.update(
        metrics=metrics,
        attempted=sum(run.attempted for run in runs),
        failed=sum(run.failed for run in runs) + mismatches,
    )
    return result


def run(name: str, seed: int, seconds: float, trace: bool, count: int | None = None) -> dict[str, Any]:
    """One run; returns the result object the last output line carries.

    ``count`` overrides the number of queries (sessions) ``seconds`` implies.
    """
    workload = WORKLOADS[name]
    count = count if count is not None else workload.query_count(seconds)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        if workload.in_process:
            outcome = _inproc(workload, seed, count, trace, work)
        else:
            outcome = _serve(workload, seed, count, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer" if trace else "end_to_end"]}
    metrics = outcome["metrics"]
    failed = outcome["failed"]
    attempted = outcome["attempted"]
    print(f"{name} seed={seed} queries={count} trace={int(trace)}")
    for key, unit in units.items():
        print(f"  {key:<30} {metrics[key]:>14.4f} {unit}")
    print(f"  {'error_rate':<30} {failed / attempted:>14.4f} fraction ({failed} of {attempted} failed)")
    return {
        "correct": failed == 0 and outcome.get("partition", True),
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
