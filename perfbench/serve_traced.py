"""Run ``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_traced.py SPANS_PATH serve --snapshot ... --port 0

The wrappers go around the server-side public calls (see
``tracing.install``); then ``repro.cli.main`` runs the given arguments.
``SIGUSR1`` toggles recording, so one server can be measured with and
without tracing.  The spans are written to ``SPANS_PATH`` when the server
exits (on ``SIGINT``).
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    common.require_source_tree()
    from repro.cli import main as repro_main

    recorder = tracing.Recorder()
    tracing.install(recorder, "server")

    def toggle(_signum, _frame) -> None:
        recorder.enabled = not recorder.enabled

    signal.signal(signal.SIGUSR1, toggle)
    try:
        return repro_main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
