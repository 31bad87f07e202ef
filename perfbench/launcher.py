"""Start ``repro serve`` for the benchmark, optionally with span wrappers.

Usage: ``python3 perfbench/launcher.py [--spans PATH] SERVE_ARGS...``.
With ``--spans`` the benchmark's wrappers are installed first; the spans
stay in memory while the server runs and are written to ``PATH`` after it
has drained and shut down on Ctrl-C (SIGINT).
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro.cli  # noqa: E402

from perfbench.tracing import SpanRecorder, install  # noqa: E402


def main(argv: list[str]) -> int:
    # A parent started in the background may have set SIGINT to be ignored,
    # which the child inherits; the benchmark stops the server with SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if argv[:1] != ["--spans"]:
        return repro.cli.main(argv)
    spans_path, serve_args = argv[1], argv[2:]
    recorder = SpanRecorder()
    restore = install(recorder)
    try:
        return repro.cli.main(serve_args)
    finally:
        restore()
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
