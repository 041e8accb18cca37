"""State and timing loop of one workload run inside its own process."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from benchmarks.e2e.spans import Spans
from benchmarks.e2e.workloads import Sizing

#: Timed repetitions a time-boxed run never goes below.
MIN_REPS = 3


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with *pct* % at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mib() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SetupOnly(Exception):
    """Ends a run that was asked to measure its set-up and nothing else."""


@dataclass
class Run:
    """Everything one workload run accumulates on its way to a result."""

    workload: str
    seed: int
    sizing: Sizing
    spans: Spans
    tmpdir: str
    #: ``perf_counter`` reading at process entry; set-up is timed from here.
    started: float
    #: Stop (by raising :class:`SetupOnly`) as soon as set-up is timed.
    setup_only: bool = False
    setup_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Wall seconds of each timed operation (warm-up excluded).
    samples: List[float] = field(default_factory=list)
    throughput_per_s: float = 0.0
    peak_rss_mib: float = 0.0
    #: Input sizes and exact counts recorded beside the timings.
    facts: Dict[str, Any] = field(default_factory=dict)
    #: Per-layer metrics of the traced pass, by name.
    layer: Dict[str, float] = field(default_factory=dict)

    @property
    def traced(self) -> bool:
        return self.spans.enabled

    def setup_done(self) -> None:
        self.setup_s = time.perf_counter() - self.started
        if self.setup_only:
            raise SetupOnly

    def fail(self, message: str) -> None:
        """Record a failed check; :meth:`settle` turns it into a failed operation."""
        self.failures.append(message)

    def settle(self, failures_before: int) -> None:
        """Close one attempted operation: it failed if any check did."""
        self.attempted += 1
        if len(self.failures) > failures_before:
            self.failed += 1

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)

    def mark_peak(self) -> None:
        """Peak RSS of set-up plus the timed operations, before any probe."""
        self.peak_rss_mib = peak_rss_mib()

    def probe(self, span: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """A layer probe: ``fn(*args, **kwargs)`` in a span, from a collected heap."""
        gc.collect()
        return self.spans.call(span, fn, *args, **kwargs)

    def layer_time(self, *spans: str, unit: str = "s") -> None:
        """Per-layer metric ``<span>_<unit>`` = median duration of the spans so called."""
        scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        for span in spans:
            value = self.spans.median(span)
            if value is not None:
                self.layer[f"{span}_{unit}"] = value * scale


def timed_reps(
    run: Run,
    operation: Callable[[], Any],
    check: Callable[[Any], None],
) -> None:
    """One discarded warm-up, then timed repetitions of *operation*.

    Each repetition starts from a collected heap with the previous output
    released, runs inside a root ``op`` span, and is checked outside the
    timed interval; a repetition that raises or fails a check is a failed
    operation.  Repetitions stop at ``sizing.reps`` when that is set, and
    otherwise when the time box closes (never before :data:`MIN_REPS`).
    The traced pass gets half the box: the probes use the rest.
    """
    sizing = run.sizing
    box = sizing.seconds / 2 if run.traced else sizing.seconds
    deadline: Optional[float] = None
    timed = 0
    while True:
        before = len(run.failures)
        gc.collect()
        output = None
        elapsed = None
        try:
            with run.spans.span("op"):
                t0 = time.perf_counter()
                output = operation()
                elapsed = time.perf_counter() - t0
            check(output)
        except Exception as exc:  # a rep that raises is a failed operation
            run.fail(f"{type(exc).__name__}: {exc}")
        del output
        run.settle(before)
        if deadline is None:
            deadline = time.perf_counter() + box  # the warm-up is discarded
            continue
        timed += 1
        if elapsed is not None:
            run.samples.append(elapsed)
        if sizing.reps is not None:
            if timed >= sizing.reps:
                break
        elif timed >= (2 if run.traced else MIN_REPS):
            typical = statistics.median(run.samples) if run.samples else 0.0
            if time.perf_counter() + typical / 2 >= deadline:
                break
        if run.failed >= MIN_REPS:
            break  # broken, not noisy: do not spin until the box closes
    run.mark_peak()
