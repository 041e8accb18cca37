"""Child process of the harness: runs one workload once, prints one JSON line.

The harness starts this module in a fresh interpreter per workload and
per pass, so peak RSS is the workload's own and nothing one workload
cached helps the next.  ``setup_s`` is timed from the first statement of
:func:`main` and therefore includes importing :mod:`repro.api`.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from typing import List, Optional

from benchmarks.e2e.measure import Run, SetupOnly
from benchmarks.e2e.spans import NoSpans, Spans
from benchmarks.e2e.workloads import WORKLOADS, Sizing


def _workload_function(name: str):
    """Import the workload's module — and with it :mod:`repro.api` — on demand."""
    if name == "service_closed_loop":
        from benchmarks.e2e import service

        return service.service_closed_loop
    from benchmarks.e2e import pipeline

    return getattr(pipeline, name)


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tmp-root", required=True)
    args = parser.parse_args(argv)

    # Salvage replay announces every excluded rank; the checks read the
    # result's completeness record instead.
    warnings.simplefilter("ignore")

    tmpdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.tmp_root)
    run = Run(
        workload=args.workload,
        seed=args.seed,
        sizing=Sizing.smoke() if args.smoke else Sizing.timed(args.seconds),
        spans=Spans() if args.traced else NoSpans(),
        tmpdir=tmpdir,
        started=started,
        setup_only=args.setup_only,
    )
    try:
        _workload_function(args.workload)(run)
    except SetupOnly:
        pass
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    if run.traced and run.samples:
        run.layer["harness.traced_wall_s"] = statistics.median(run.samples)
        run.layer["harness.spans"] = len(run.spans.records)
        # What the timed operation spent outside every layer call: the
        # benchmark's own glue, which should stay near zero.
        glue = run.spans.self_times("op")
        if glue:
            run.layer["harness.op_self_s"] = statistics.median(glue)

    document = {
        "workload": run.workload,
        "seed": run.seed,
        "traced": run.traced,
        "setup_s": run.setup_s,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures[:20],
        "samples": run.samples,
        "throughput_per_s": run.throughput_per_s,
        "peak_rss_mib": run.peak_rss_mib,
        "facts": run.facts,
        "layer": run.layer,
        "spans": run.spans.dump(),
    }
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
