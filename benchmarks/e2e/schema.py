"""Schema of the result document and of ``BENCHMARK.json``.

:func:`validate` raises ``ValueError`` on the first thing wrong with a
result document; :func:`validate_spec` does the same for the benchmark's
own ``BENCHMARK.json`` against the limits its contract sets.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict

from benchmarks.e2e.harness import SCHEMA
from benchmarks.e2e.workloads import WORKLOADS

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
_MACHINE_KEYS = ("cpu_count", "affinity", "python", "platform")


def _finite(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _need(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def validate_spec(spec: Dict[str, Any]) -> None:
    """``BENCHMARK.json`` has exactly the contract's keys, within its limits."""
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    _need(set(spec) == keys, f"BENCHMARK.json keys are {sorted(spec)}, want {sorted(keys)}")
    _need(1 <= len(spec["command"]) <= 32, "command has 1 to 32 strings")
    _need(1 <= len(spec["paths"]) <= 16, "paths has 1 to 16 directories")
    _need(
        isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
        "run_seconds is a whole number from 1 to 60",
    )
    _need(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    _need(1 <= len(spec["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    _need(1 <= len(spec["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    names = []
    for workload in spec["workloads"]:
        _need(set(workload) == {"name", "why"}, f"workload keys: {sorted(workload)}")
        _need(len(workload["why"]) <= 200 and "\n" not in workload["why"], "why is one short line")
        names.append(workload["name"])
    _need(tuple(names) == WORKLOADS, f"workloads are {names}, the package runs {WORKLOADS}")
    for metric in spec["end_to_end"]:
        _need(set(metric) == {"name", "unit", "better", "bound"}, f"keys of {metric}")
        _need(0 < metric["bound"] <= 0.25, f"bound of {metric['name']} is within (0, 0.25]")
    for metric in spec["per_layer"]:
        _need(set(metric) == {"name", "unit", "better"}, f"keys of {metric}")
    for metric in spec["end_to_end"] + spec["per_layer"]:
        _need(bool(_UNIT.match(metric["unit"])), f"unit of {metric['name']}")
        _need(metric["better"] in ("lower", "higher"), f"better of {metric['name']}")
        names.append(metric["name"])
    for name in names:
        _need(bool(_NAME.match(name)), f"name {name!r} is malformed")
    _need(len(set(names)) == len(names), "a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    _need(
        len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
        "setup_s is an end-to-end metric in s, lower is better",
    )


def validate(document: Dict[str, Any], spec: Dict[str, Any]) -> None:
    """A result document names known workloads and metrics, with finite values."""
    _need(document.get("schema") == SCHEMA, f"schema is {document.get('schema')!r}")
    for key in ("seed", "seconds", "smoke", "machine", "workloads"):
        _need(key in document, f"document lacks {key!r}")
    for key in _MACHINE_KEYS:
        _need(key in document["machine"], f"machine facts lack {key!r}")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    _need(bool(document["workloads"]), "no workload in the document")
    for name, entry in document["workloads"].items():
        _need(name in WORKLOADS, f"unknown workload {name!r}")
        for key in ("why", "seed", "attempted", "failed", "failures"):
            _need(key in entry, f"{name} lacks {key!r}")
        _need(entry["attempted"] >= 1, f"{name} attempted nothing")
        _need(0 <= entry["failed"] <= entry["attempted"], f"{name}: failed > attempted")
        _need("end_to_end" in entry or "per_layer" in entry, f"{name} has no metrics")
        if "end_to_end" in entry:
            _need(
                set(entry["end_to_end"]) == set(end_to_end),
                f"{name}: end-to-end metrics are {sorted(entry['end_to_end'])}",
            )
        for metric, row in entry.get("end_to_end", {}).items():
            _need(row["unit"] == end_to_end[metric], f"{name}.{metric}: unit {row['unit']!r}")
            _need(row["n"] == len(row["samples"]) >= 1, f"{name}.{metric}: sample count")
            for key in ("value", "q1", "q3"):
                _need(_finite(row[key]), f"{name}.{metric}.{key} is {row[key]!r}")
            _need(row["value"] > 0, f"{name}.{metric} is not positive")
        for metric, row in entry.get("per_layer", {}).items():
            _need(metric in per_layer, f"{name}: unknown per-layer metric {metric!r}")
            _need(row["unit"] == per_layer[metric], f"{name}.{metric}: unit {row['unit']!r}")
            _need(_finite(row["value"]), f"{name}.{metric} is {row['value']!r}")
