"""Run ``acic serve`` with the benchmark's server-side spans installed.

Usage: python3 serve_shim.py SPANS.json serve --artifacts PACK --listen ...

The arguments after the spans path go to the program's own CLI
unchanged.  When the server drains and returns (SIGTERM), the recorded
spans are written to SPANS.json.  Span timestamps come from
``time.perf_counter``, the system-wide monotonic clock on Linux, so the
benchmark can cut them to its own measurement window.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import instrument  # noqa: E402
from spans import Recorder  # noqa: E402


def main(argv: list[str]) -> int:
    from repro.cli import main as acic_main

    recorder = Recorder()
    instrument.server(recorder)
    code = acic_main(argv[1:])
    Path(argv[0]).write_text(json.dumps(recorder.snapshot()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
