"""Time-stamp synchronization schemes.

Post-mortem trace analysis needs all event time stamps expressed in one
global time base — conventionally the clock of the node hosting rank zero
("master time").  Three schemes are implemented, matching the three rows of
the paper's Table 2, plus the truth they are scored against:

``FlatSingleOffset``
    One offset measurement per node against the master at program start;
    no drift compensation.

``FlatInterpolation``
    Two offset measurements (program start and end) per node against the
    master; linear interpolation removes constant drift.  This is KOJAK's
    previous, *flat* method: every slave contacts the master directly, so
    slaves of a remote metahost inherit the (large) external-link
    measurement error — and their offsets *relative to each other* can be
    wrong at the scale of that error, which exceeds internal latencies.

``HierarchicalInterpolation``
    The paper's contribution.  Each metahost appoints a local master; one
    metamaster is chosen among the local masters.  Local masters measure
    against the metamaster (external link, larger error), slaves measure
    against their local master (internal link, small error), and the two
    linear corrections compose.  Slaves of one metahost share the same
    inter-metahost correction, so their *relative* offsets only carry
    internal-link error.  If a metahost has a hardware global clock the
    slave step is skipped.

``GroundTruth``
    The exact conversion, read off a simulated run's clock parameters.
    Never a Table 2 row: it exists to measure the other three against
    (Figure 3, and ``analyze(run, scheme=GroundTruth(run.clocks))``).

Every scheme is used the same way: ``scheme.converters(sync_data)`` maps
each node to a :class:`LinearConverter` into master time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.clocks.clock import ClockEnsemble
from repro.clocks.measurement import (
    OffsetMeasurement,
    OffsetMeasurementConfig,
    measure_offset,
)
from repro.errors import ClockError, MeasurementError
from repro.ids import Location, NodeId
from repro.topology.metacomputer import Metacomputer


#: Minimum anchor separation for drift interpolation, in units of the
#: winning exchange's round-trip time.  Below this the offset difference
#: between the two anchors is dominated by measurement error (≤ RTT/2 of
#: latency asymmetry each), so a fitted gradient is noise and the
#: interpolating converter degrades to the single-offset form instead.
#: Normal runs sit far above this (figure6's worst pair is ~2200 RTTs);
#: only very short runs, whose start/end measurement rounds overlap in
#: time, fall below it.
MIN_DRIFT_BASELINE_RTTS = 100.0


@dataclass(frozen=True)
class LinearConverter:
    """Affine map from one clock's local time to another's: ``out = slope*t + intercept``."""

    slope: float = 1.0
    intercept: float = 0.0

    def convert(self, local: float) -> float:
        return self.slope * local + self.intercept

    def then(self, outer: "LinearConverter") -> "LinearConverter":
        """Composition ``outer(self(t))``."""
        return LinearConverter(
            slope=outer.slope * self.slope,
            intercept=outer.slope * self.intercept + outer.intercept,
        )

    @staticmethod
    def identity() -> "LinearConverter":
        return LinearConverter(1.0, 0.0)

    @staticmethod
    def from_single_offset(measurement: OffsetMeasurement) -> "LinearConverter":
        """Reference time ≈ local − offset, with unit slope (no drift model)."""
        return LinearConverter(1.0, -measurement.offset_s)

    @staticmethod
    def from_interpolation(
        start: OffsetMeasurement, end: OffsetMeasurement
    ) -> "LinearConverter":
        """Linear interpolation between two offset measurements.

        With offsets ``o1`` at slave-local ``s1`` and ``o2`` at ``s2``::

            ref(s) = s - [ o1 + (o2 - o1) * (s - s1) / (s2 - s1) ]

        which is affine in ``s``.  Falls back to the single-offset form when
        the anchors are too close for a drift estimate: each offset carries
        up to half its exchange's latency asymmetry as error, so a baseline
        within :data:`MIN_DRIFT_BASELINE_RTTS` round-trip times makes the
        gradient noise-dominated — extrapolating it would amplify the
        measurement error far beyond what a plain offset correction incurs.
        (Very short runs can even land the two rounds' winning exchanges at
        nearly the same instant.)
        """
        s1, s2 = start.slave_local_s, end.slave_local_s
        baseline = abs(s2 - s1)
        if baseline <= MIN_DRIFT_BASELINE_RTTS * max(start.rtt_s, end.rtt_s):
            return LinearConverter.from_single_offset(start)
        gradient = (end.offset_s - start.offset_s) / (s2 - s1)
        # ref(s) = s - o1 - gradient*(s - s1) = (1 - gradient)*s + (gradient*s1 - o1)
        return LinearConverter(1.0 - gradient, gradient * s1 - start.offset_s)


@dataclass
class NodeSyncRecord:
    """All offset measurements collected for one node.

    ``flat_*`` entries are against the global master (used by the flat
    schemes); ``local_*`` against the node's local master and ``meta_*``
    (local masters only) against the metamaster (used by the hierarchical
    scheme).
    """

    node: NodeId
    machine: int
    flat_start: Optional[OffsetMeasurement] = None
    flat_end: Optional[OffsetMeasurement] = None
    local_start: Optional[OffsetMeasurement] = None
    local_end: Optional[OffsetMeasurement] = None
    meta_start: Optional[OffsetMeasurement] = None
    meta_end: Optional[OffsetMeasurement] = None


@dataclass
class SyncData:
    """Everything a synchronization scheme may consume.

    Attributes
    ----------
    master_node:
        Node hosting the process with rank zero; its clock defines master
        time.  It is also the metamaster of the hierarchical scheme.
    records:
        Per-node measurement records.
    local_masters:
        Mapping machine index → node acting as that metahost's local master.
    global_clock_machines:
        Machines whose nodes share a hardware-synchronized clock; the
        hierarchical scheme skips the slave step there.
    failures:
        Human-readable descriptions of offset measurements that could not
        be carried out (all probes lost under fault injection).  The
        corresponding record fields stay ``None``; non-strict schemes fall
        back around them.
    """

    master_node: NodeId
    records: Dict[NodeId, NodeSyncRecord] = field(default_factory=dict)
    local_masters: Dict[int, NodeId] = field(default_factory=dict)
    global_clock_machines: frozenset = frozenset()
    failures: List[str] = field(default_factory=list)

    def record(self, node: NodeId) -> NodeSyncRecord:
        try:
            return self.records[node]
        except KeyError:
            raise ClockError(f"no synchronization record for node {node}") from None


def _single(measurement: Optional[OffsetMeasurement]) -> Optional[LinearConverter]:
    return None if measurement is None else LinearConverter.from_single_offset(measurement)


def _both(
    start: Optional[OffsetMeasurement], end: Optional[OffsetMeasurement]
) -> Optional[LinearConverter]:
    """Interpolation between two anchors; ``None`` unless both survived."""
    if start is None or end is None:
        return None
    return LinearConverter.from_interpolation(start, end)


def _fits(
    start: Optional[OffsetMeasurement], end: Optional[OffsetMeasurement]
) -> List[LinearConverter]:
    """Converters obtainable from whatever anchors survived, best first."""
    return [c for c in (_both(start, end), _single(start), _single(end)) if c is not None]


class SyncScheme:
    """Base class: turns :class:`SyncData` into per-node converters.

    ``strict`` (the default) raises :class:`~repro.errors.ClockError` on
    missing measurements.  With ``strict=False`` each scheme degrades
    instead (:meth:`_ladder`): interpolation falls back to a single offset,
    the hierarchical scheme falls back to flat measurements for a metahost
    whose local master is unreachable, and as a last resort a node converts
    through the identity — degraded-mode replay prefers an imprecise time
    base over no analysis at all.
    """

    #: Short identifier used by experiment drivers and Table 2 rows.
    name: str = "abstract"

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict

    def converters(self, data: SyncData) -> Dict[NodeId, LinearConverter]:
        raise NotImplementedError

    def _ladder(
        self,
        exact: Optional[LinearConverter],
        message: str,
        fallbacks: List[LinearConverter],
    ) -> LinearConverter:
        """*exact* if it was measured; else raise (strict) or degrade to the
        first surviving fallback, then the identity."""
        if exact is not None:
            return exact
        if self.strict:
            raise ClockError(message)
        return fallbacks[0] if fallbacks else LinearConverter.identity()


class FlatSingleOffset(SyncScheme):
    """One start-of-run offset per node, no drift compensation (Table 2 row 1)."""

    name = "single-flat-offset"
    _lacks = "a flat start measurement"

    def _exact(self, rec: NodeSyncRecord) -> Optional[LinearConverter]:
        return _single(rec.flat_start)

    def converters(self, data: SyncData) -> Dict[NodeId, LinearConverter]:
        return {
            node: LinearConverter.identity()
            if node == data.master_node
            else self._ladder(
                self._exact(rec), f"node {node} lacks {self._lacks}",
                _fits(rec.flat_start, rec.flat_end),
            )
            for node, rec in data.records.items()
        }


class FlatInterpolation(FlatSingleOffset):
    """Two flat offsets + linear interpolation (Table 2 row 2, KOJAK's method)."""

    name = "two-flat-offsets"
    _lacks = "flat start/end measurements"

    def _exact(self, rec: NodeSyncRecord) -> Optional[LinearConverter]:
        return _both(rec.flat_start, rec.flat_end)


class HierarchicalInterpolation(SyncScheme):
    """Two hierarchical offsets + linear interpolation (Table 2 row 3, this paper)."""

    name = "two-hierarchical-offsets"

    def converters(self, data: SyncData) -> Dict[NodeId, LinearConverter]:
        # First build local-master -> metamaster converters.  An unreachable
        # local master degrades its whole metahost to whatever survived:
        # partial metamaster measurements, then its flat measurements.
        meta_conv: Dict[int, LinearConverter] = {}
        for machine, local_master in data.local_masters.items():
            if local_master == data.master_node:
                meta_conv[machine] = LinearConverter.identity()
                continue
            rec = data.record(local_master)
            meta_conv[machine] = self._ladder(
                _both(rec.meta_start, rec.meta_end),
                f"local master {local_master} lacks metamaster measurements",
                _fits(rec.meta_start, rec.meta_end) + _fits(rec.flat_start, rec.flat_end),
            )

        out: Dict[NodeId, LinearConverter] = {}
        for node, rec in data.records.items():
            machine_converter = self._ladder(
                meta_conv.get(rec.machine), f"machine {rec.machine} has no local master", []
            )
            if (
                node == data.local_masters.get(rec.machine)
                or rec.machine in data.global_clock_machines
            ):
                # Local masters (and every node of a globally-clocked
                # metahost) convert straight to metamaster time.
                out[node] = machine_converter
                continue
            # A slave missing local-master anchors falls back to a single
            # local offset, then to its own flat measurements (the pre-paper
            # scheme), then to the metahost-level converter alone.
            local = [c.then(machine_converter) for c in _fits(rec.local_start, rec.local_end)]
            measured = rec.local_start is not None and rec.local_end is not None
            out[node] = self._ladder(
                local[0] if measured else None,
                f"node {node} lacks local-master measurements",
                local + _fits(rec.flat_start, rec.flat_end) + [machine_converter],
            )
        return out


class GroundTruth(SyncScheme):
    """Exact conversion from the simulator's clock parameters.

    Simulated runs only (``RunResult.clocks``) and never a Table 2 row: a
    real tool cannot read its clocks' offsets and drifts.  It is the truth
    the three measured schemes are scored against.  A node's local stamp
    ``offset_n + (1+d_n)*t`` maps to master time
    ``offset_m + (1+d_m)*t`` by one affine map.
    """

    name = "ground-truth"

    def __init__(self, clocks: Optional[ClockEnsemble]) -> None:
        if clocks is None:
            raise ClockError("no ground-truth clocks: only a simulated run carries them")
        super().__init__()
        self.clocks = clocks

    def converters(self, data: SyncData) -> Dict[NodeId, LinearConverter]:
        master = self.clocks.clock(data.master_node)
        out: Dict[NodeId, LinearConverter] = {}
        for node in data.records:
            clock = self.clocks.clock(node)
            slope = (1.0 + master.drift) / (1.0 + clock.drift)
            out[node] = LinearConverter(slope, master.offset_s - slope * clock.offset_s)
        return out


#: Registry used by experiment drivers (Table 2 rows, in paper order).
SCHEMES: Tuple[SyncScheme, ...] = (
    FlatSingleOffset(),
    FlatInterpolation(),
    HierarchicalInterpolation(),
)


def collect_sync_data(
    metacomputer: Metacomputer,
    machine_nodes: Mapping[int, List[NodeId]],
    clocks: ClockEnsemble,
    master_node: NodeId,
    run_start_s: float,
    run_end_s: float,
    rng: np.random.Generator,
    config: OffsetMeasurementConfig = OffsetMeasurementConfig(),
    injector: Any = None,
) -> SyncData:
    """Carry out all offset measurements of a run (start and end rounds).

    Parameters
    ----------
    machine_nodes:
        Machine index → ordered list of nodes in use; the *first* node of
        each machine becomes its local master.  The machine hosting
        *master_node* must list it first so the metamaster is rank zero's
        node, matching the paper's convention.
    run_start_s / run_end_s:
        True times of the two measurement rounds ("taken at program start
        and repeated at program end").
    injector:
        Optional fault injector; dropped pings are re-pinged inside
        :func:`~repro.clocks.measurement.measure_offset`, and measurements
        whose every probe is lost are recorded in ``SyncData.failures``
        (their record fields stay ``None``) instead of raising.
    """
    if run_end_s < run_start_s:
        raise ClockError(
            f"run end {run_end_s} precedes run start {run_start_s}"
        )
    local_masters = {}
    for machine, nodes in machine_nodes.items():
        if not nodes:
            raise ClockError(f"machine {machine} has no nodes in use")
        local_masters[machine] = nodes[0]
    master_machine = master_node.machine
    if local_masters.get(master_machine) != master_node:
        raise ClockError(
            "master node must be the first node of its machine "
            f"(got {local_masters.get(master_machine)}, expected {master_node})"
        )

    global_clock_machines = frozenset(
        machine
        for machine in machine_nodes
        if metacomputer.metahost(machine).has_global_clock
    )

    data = SyncData(
        master_node=master_node,
        local_masters=local_masters,
        global_clock_machines=global_clock_machines,
    )

    def link_model(a: NodeId, b: NodeId):
        loc_a = Location(a.machine, a.node, 0, 0)
        loc_b = Location(b.machine, b.node, 0, 0)
        return metacomputer.latency_model(metacomputer.link_between(loc_a, loc_b))

    master_clock = clocks.clock(master_node)

    for machine, nodes in machine_nodes.items():
        for node in nodes:
            data.records[node] = NodeSyncRecord(node=node, machine=machine)

    def attempt(kind: str, round_name: str, *args) -> Optional[OffsetMeasurement]:
        """One measurement; lost-measurement failures recorded, not raised."""
        try:
            return measure_offset(*args, rng, config, injector=injector)
        except MeasurementError as exc:
            data.failures.append(f"{kind}@{round_name}: {exc}")
            return None

    for round_index, t0 in enumerate((run_start_s, run_end_s)):
        round_name = "start" if round_index == 0 else "end"
        # Offset measurements are ping-pongs carried out one after another;
        # a small stagger keeps their simulated instants distinct.
        stagger = 0.0
        for machine, nodes in sorted(machine_nodes.items()):
            local_master = local_masters[machine]
            lm_clock = clocks.clock(local_master)
            for node in nodes:
                rec = data.records[node]
                node_clock = clocks.clock(node)
                if node != master_node:
                    flat = attempt(
                        "flat",
                        round_name,
                        node,
                        master_node,
                        node_clock,
                        master_clock,
                        link_model(node, master_node),
                        t0 + stagger,
                    )
                    stagger += config.exchanges * 2.5e-3
                    if round_index == 0:
                        rec.flat_start = flat
                    else:
                        rec.flat_end = flat
                if node != local_master and machine not in global_clock_machines:
                    local = attempt(
                        "local",
                        round_name,
                        node,
                        local_master,
                        node_clock,
                        lm_clock,
                        link_model(node, local_master),
                        t0 + stagger,
                    )
                    stagger += config.exchanges * 1e-4
                    if round_index == 0:
                        rec.local_start = local
                    else:
                        rec.local_end = local
            if local_master != master_node:
                meta = attempt(
                    "meta",
                    round_name,
                    local_master,
                    master_node,
                    lm_clock,
                    master_clock,
                    link_model(local_master, master_node),
                    t0 + stagger,
                )
                stagger += config.exchanges * 2.5e-3
                rec = data.records[local_master]
                if round_index == 0:
                    rec.meta_start = meta
                else:
                    rec.meta_end = meta
    return data

