"""Traced entry point for the serve daemon.

Installs the serving-layer wrappers from :mod:`tracing`, then runs the
program's own CLI (``repro.cli.main``) with the remaining arguments.
The spans stay in memory and are written to ``SPANS_PATH`` when the
daemon has drained and ``main`` returns.

    python3 perfbench/serve_launcher.py SPANS_PATH serve --model M --listen ...
"""

from __future__ import annotations

import sys

from tracing import Recorder, install_serving


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    install_serving(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
