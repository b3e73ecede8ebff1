"""``repro serve`` with the benchmark's span wrappers installed.

The traced serve-mixed pass starts the server through this launcher instead
of ``python -m repro``::

    python bench/serve_launcher.py --spans-out FILE serve --port 8484 ...

Everything after ``--spans-out FILE`` is handed to the ``repro`` command
line unchanged.  The spans are kept in memory and written to FILE when the
server exits after its SIGTERM drain.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracing import Tracer, install


def main(argv: list) -> int:
    if len(argv) < 2 or argv[0] != "--spans-out":
        raise SystemExit("usage: serve_launcher.py --spans-out FILE serve ...")
    spans_out, cli_args = argv[1], argv[2:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as repro_main
    try:
        return repro_main(cli_args)
    finally:
        tracer.write(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
