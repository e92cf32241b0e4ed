"""Start ``repro serve`` with the layer spans of :mod:`tracing` installed.

    python3 perfbench/serve_launcher.py SPANS.json [serve arguments...]

The wrappers go in before the daemon does any work; when the daemon
stops (SIGTERM drains it and ``repro serve`` returns), the span
aggregates are written to ``SPANS.json``.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv) -> int:
    from tracing import Tracer

    import repro.cli

    out, serve_args = argv[0], argv[1:]
    tracer = Tracer().install()
    try:
        return repro.cli.main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        with open(out, "w") as handle:
            json.dump(tracer.snapshot(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
