"""JSON round-trip of analysis results and experiment data."""

from __future__ import annotations

from typing import Any, Dict

from repro.analysis.result import AnalysisResult
from repro.errors import ReportError
from repro.report.algebra import ExperimentData, canonicalize


def result_to_dict(result: AnalysisResult, name: str = "experiment") -> Dict[str, Any]:
    """Serializable summary of an analysis (canonical cells + metadata)."""
    return experiment_to_dict(canonicalize(result, name)) | {
        "scheme": result.scheme_name,
        "violations": result.violations.summary(),
        "traffic": {
            "replay_metadata_bytes": result.traffic.replay_metadata_bytes,
            "merged_copy_bytes": result.traffic.merged_copy_bytes,
            "trace_bytes_total": result.traffic.trace_bytes_total,
        },
    }


def experiment_to_dict(data: ExperimentData) -> Dict[str, Any]:
    return {
        "name": data.name,
        "total_time": data.total_time,
        "machine_names": list(data.machine_names),
        "machine_of_rank": {str(r): m for r, m in data.machine_of_rank.items()},
        "cells": [
            {"metric": metric, "path": list(path), "rank": rank, "value": value}
            for (metric, path, rank), value in sorted(data.cells.items())
        ],
    }


def experiment_from_dict(raw: Dict[str, Any]) -> ExperimentData:
    try:
        data = ExperimentData(
            name=str(raw["name"]),
            total_time=float(raw["total_time"]),
            machine_names=list(raw["machine_names"]),
            machine_of_rank={
                int(r): int(m) for r, m in raw["machine_of_rank"].items()
            },
        )
        for cell in raw["cells"]:
            key = (
                str(cell["metric"]),
                tuple(str(p) for p in cell["path"]),
                int(cell["rank"]),
            )
            data.cells[key] = float(cell["value"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ReportError(f"malformed experiment document: {exc}") from exc
    return data
