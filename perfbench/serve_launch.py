"""Start the ``metacache-repro`` CLI with the benchmark's span tracing.

Usage: ``python3 perfbench/serve_launch.py serve --db DIR ...`` (any
CLI arguments).  With ``PERFBENCH_TRACE`` set, this process and every
worker it spawns (spawn re-imports this script as ``__mp_main__``)
wrap the traced layers and dump their spans at exit; without it the
launcher is the plain CLI.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import spans  # noqa: E402

spans.install_from_env()

if __name__ == "__main__":
    from repro.cli import main

    raise SystemExit(main(sys.argv[1:]))
