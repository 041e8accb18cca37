"""``PYTHONPATH=src python -m benchmarks.e2e`` — same command as ``run.py``."""

import sys

from benchmarks.e2e.cli import main

sys.exit(main())
