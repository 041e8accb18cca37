"""``python3 benchmarks/e2e/run.py`` — the benchmark's command in ``BENCHMARK.json``.

Runs from a bare checkout: puts the repository root and ``src/`` on the
import path itself, so it needs no ``PYTHONPATH``, and keeps every
``.pyc`` it causes inside ``benchmarks/e2e/.build/``.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]

if __name__ == "__main__":
    sys.pycache_prefix = str(HERE / ".build" / "pycache")
    # Replace the script's own directory: its module names are not top-level ones.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e.cli import main

    sys.exit(main())
