"""Self-test: the smoke run produces every metric ``BENCHMARK.json`` names.

``python3 benchmarks/e2e/selftest.py`` runs ``--smoke`` (every workload,
both passes, small sizes), validates ``BENCHMARK.json`` and the result
document against :mod:`benchmarks.e2e.schema`, and asserts that every
end-to-end metric is present on every workload, every per-layer metric on
at least one, all finite, and that no operation failed.  Exit code 0 means
a later PR can rely on each name.
"""

import math
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def main() -> int:
    from benchmarks.e2e import harness, schema
    from benchmarks.e2e.workloads import WORKLOADS

    spec = harness.load_spec()
    schema.validate_spec(spec)
    document = harness.run_benchmark(spec, seed=1, seconds=0.0, smoke=True, traced=True)
    print(harness.format_report(document))
    schema.validate(document, spec)

    problems = []
    measured_layers = set()
    for name in WORKLOADS:
        entry = document["workloads"][name]
        if entry["failed"]:
            problems.append(f"{name}: {entry['failed']} failed: {entry['failures'][:3]}")
        for metric in spec["end_to_end"]:
            row = entry["end_to_end"].get(metric["name"])
            if row is None or not math.isfinite(row["value"]) or row["value"] <= 0:
                problems.append(f"{name}: end-to-end metric {metric['name']} is {row}")
        measured_layers |= set(entry["per_layer"])
        result = harness.contract_result(spec, document, name, trace=True)
        if set(result["metrics"]) != {m["name"] for m in spec["per_layer"]}:
            problems.append(f"{name}: traced result does not carry every per-layer metric")
    for metric in spec["per_layer"]:
        if metric["name"] not in measured_layers:
            problems.append(f"per-layer metric {metric['name']} is measured on no workload")
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}", file=sys.stderr)
    if not problems:
        print("\nselftest ok: every metric of BENCHMARK.json is present and finite")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.pycache_prefix = str(HERE / ".build" / "pycache")
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    sys.exit(main())
