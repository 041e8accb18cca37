"""Command line of the end-to-end benchmark.

Without ``--workload`` every workload runs — untraced, and with
``--traced`` a second, traced pass — and a report of every metric is
printed and written to ``--out``.  With ``--workload`` one workload runs
one pass and the last line of standard output is the single JSON result
the contract in ``BENCHMARK.json``'s driver asks for.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional

from benchmarks.e2e import compare, harness, schema
from benchmarks.e2e.workloads import WORKLOADS

DEFAULT_OUT = harness.HERE / "out" / "BENCH_e2e.json"
#: Default run length of the all-workloads command: 11/8/7/9 timed
#: repetitions of the pipeline workloads and 120 + 400 service requests
#: on the 2-core box the benchmark was sized on.
DEFAULT_SECONDS = 20.0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument(
        "--seconds", type=float, default=None, metavar="T",
        help=f"seconds each workload measures for (default {DEFAULT_SECONDS:g})",
    )  # fmt: skip
    parser.add_argument(
        "--traced", action="store_true",
        help="also run the traced pass: per-layer metrics and tracing overhead",
    )  # fmt: skip
    parser.add_argument(
        "--smoke", action="store_true",
        help="32 ranks, 2 repetitions, 12+40 service requests, both passes; validates the schema",
    )  # fmt: skip
    parser.add_argument(
        "--out", type=pathlib.Path, default=None, metavar="FILE",
        help=f"result document (default {DEFAULT_OUT.relative_to(harness.ROOT)})",
    )  # fmt: skip
    parser.add_argument(
        "--compare", nargs=2, metavar=("A.json", "B.json"),
        help="compare result documents instead of measuring; each side is one "
        "file or several runs of one commit joined by commas",
    )  # fmt: skip
    single = parser.add_argument_group("one workload, one pass (the driver's form)")
    single.add_argument("--workload", choices=WORKLOADS)
    single.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _write(document: Dict[str, Any], out: pathlib.Path) -> None:
    """The document to *out*; its spans, which dwarf it, to a file beside it."""
    out.parent.mkdir(parents=True, exist_ok=True)
    spans = {
        name: entry.pop("spans") for name, entry in document["workloads"].items()
        if "spans" in entry
    }  # fmt: skip
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    if spans:
        out.with_suffix(".spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    spec = harness.load_spec()
    if args.compare:
        old, new = (
            [json.loads(pathlib.Path(path).read_text(encoding="utf-8")) for path in side.split(",")]
            for side in args.compare
        )
        print(compare.format_comparison(spec, old, new))
        return 0

    single = args.workload is not None
    trace = bool(args.trace) if single else (args.traced or args.smoke)
    try:
        document = harness.run_benchmark(
            spec,
            args.seed,
            DEFAULT_SECONDS if args.seconds is None else args.seconds,
            smoke=args.smoke,
            workloads=[args.workload] if single else WORKLOADS,
            untraced=not (single and trace),
            traced=trace,
        )
    except harness.BenchmarkError as exc:
        print(f"benchmarks.e2e: {exc}", file=sys.stderr)
        return 2

    failed = sum(entry["failed"] for entry in document["workloads"].values())
    if single:
        for failure in document["workloads"][args.workload]["failures"]:
            print(f"FAILED: {failure}", file=sys.stderr)
        print(json.dumps(harness.contract_result(spec, document, args.workload, trace)))
    else:
        print(harness.format_report(document))
        schema.validate(document, spec)
        _write(document, args.out or DEFAULT_OUT)
    return 1 if failed else 0
