"""Start ``repro serve`` for the benchmark, optionally with layer spans.

Usage: ``python3 perfbench/serve_launcher.py [--trace] serve ARGS...``.
With ``--trace`` the layer spans of :mod:`perfbench.tracing` are installed
before the CLI builds the service, so the server's operations thread and
its fork-started socket workers record them; run it with
``--telemetry-out`` to collect them.  Without ``--trace`` it is the plain
CLI entry point, so both runs start the server the same way.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    if argv[:1] == ["--trace"]:
        from perfbench.tracing import LayerTracer

        LayerTracer().install()
        argv = argv[1:]
    from repro.cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
