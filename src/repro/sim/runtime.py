"""The metacomputing-enabled measurement runtime.

:class:`MetaMPIRuntime` orchestrates one traced experiment end to end, the
way the paper's extended SCALASCA runtime does:

1. identify each process's metahost (the two environment variables of
   Section 4 are set per rank by the world);
2. run the instrumented application on the simulated metacomputer, writing
   node-local-clock event records into per-process buffers;
3. perform clock-offset measurements at program start and end — flat
   (slave ↔ master) and hierarchical (slave ↔ local master ↔ metamaster)
   rounds, so the post-mortem analysis can apply any of the three schemes;
4. execute the runtime archive-management protocol and write each rank's
   local trace into the partial archive of its own metahost.

The returned :class:`RunResult` carries everything the post-mortem analyzer
needs — archive path plus per-metahost mount namespaces — while exposing
only data a real tool would have (plus the ground-truth clock ensemble,
kept strictly for validation in tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.analysis.request import SEED
from repro.clocks.clock import ClockEnsemble
from repro.clocks.measurement import OffsetMeasurementConfig
from repro.clocks.sync import SyncData, collect_sync_data
from repro.errors import ConfigurationError
from repro.faults.injector import FaultCounters, build_injector
from repro.faults.plan import FaultPlan
from repro.fs.filesystem import MountNamespace, private_namespaces
from repro.fs.manager import ArchiveManagementOutcome, ensure_archives
from repro.ids import NodeId
from repro.instrument.tracer import Tracer
from repro.sim.process import AppGenerator
from repro.sim.transfer import SimParams
from repro.sim.world import World, WorldStats
from repro.topology.metacomputer import Metacomputer, Placement
from repro.trace.archive import ArchiveReader, ArchiveWriter, Definitions, TraceShard

DEFAULT_ARCHIVE_PATH = "/work/epik_experiment"


@dataclass
class RunResult:
    """Everything produced by one traced run."""

    metacomputer: Metacomputer
    placement: Placement
    stats: WorldStats
    sync_data: SyncData
    archive_path: str
    namespaces: Dict[int, MountNamespace]
    archive_outcome: ArchiveManagementOutcome
    definitions: Definitions
    trace_bytes: Dict[int, int] = field(default_factory=dict)
    #: Ground truth (``GroundTruth(run.clocks)``); real tools never have this.
    clocks: Optional[ClockEnsemble] = None
    #: Fault plan the run executed under (None / empty plan → clean run)
    #: and what the injector actually did.
    fault_plan: Optional[FaultPlan] = None
    fault_counters: Optional[FaultCounters] = None

    def reader(self, machine: int) -> ArchiveReader:
        """Archive reader through the given metahost's namespace."""
        return ArchiveReader(self.namespaces[machine], self.archive_path)

    def trace_shard(self, ranks: Sequence[int]) -> TraceShard:
        """Picklable trace snapshot for *ranks*, each read through the
        namespace of its own metahost (a shard worker's work unit)."""
        readers = {machine: self.reader(machine) for machine in self.namespaces}
        return TraceShard.gather(sorted(ranks), self.definitions, readers)

    @property
    def machines_used(self) -> List[int]:
        return self.placement.machines_used()

    @property
    def total_trace_bytes(self) -> int:
        return sum(self.trace_bytes.values())


class MetaMPIRuntime:
    """Configures and executes one traced metacomputing experiment.

    Parameters
    ----------
    metacomputer / placement:
        The machine and the rank-to-CPU assignment.
    params:
        MPI timing constants of the simulator.
    seed:
        Root seed; clocks, latency jitter and application randomness all
        derive from it deterministically.
    clocks:
        Explicit clock ensemble; default draws random offsets/drifts per
        node (hardware-unsynchronized clusters).
    namespaces:
        Machine → mount namespace; default gives every metahost a private
        file system mounted at ``/work`` (the no-shared-FS situation).
    subcomms:
        Named sub-communicators to create before launch, e.g.
        ``{"trace": [...ranks...], "partrace": [...]}`` for MetaTrace.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` injected into the whole
        pipeline (transport, offset measurement, archive management, trace
        writing).  ``None`` or an empty plan changes nothing, byte for
        byte.
    """

    def __init__(
        self,
        metacomputer: Metacomputer,
        placement: Placement,
        params: SimParams = SimParams(),
        seed: int = 0,
        clocks: Optional[ClockEnsemble] = None,
        clock_offset_scale_s: float = 5e-3,
        clock_drift_scale: float = 2e-6,
        namespaces: Optional[Mapping[int, MountNamespace]] = None,
        archive_path: str = DEFAULT_ARCHIVE_PATH,
        subcomms: Optional[Mapping[str, Sequence[int]]] = None,
        measurement_config: Optional[OffsetMeasurementConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.metacomputer = metacomputer
        self.placement = placement
        self.params = params
        self.seed = SEED.admit("seed", seed, 0)
        self.archive_path = archive_path
        self.subcomms = dict(subcomms or {})
        self.fault_plan = fault_plan
        self.fault_injector = build_injector(fault_plan)
        self._rng = np.random.default_rng(seed)
        nodes_in_use = sorted(placement.ranks_by_node())
        if clocks is None:
            clocks = self._default_clocks(
                nodes_in_use, clock_offset_scale_s, clock_drift_scale
            )
        for node in nodes_in_use:
            if node not in clocks:
                raise ConfigurationError(f"no clock supplied for node {node}")
        self.clocks = clocks
        if namespaces is None:
            namespaces = private_namespaces(metacomputer.machine_names())
        self.namespaces: Dict[int, MountNamespace] = dict(namespaces)
        for machine in placement.machines_used():
            if machine not in self.namespaces:
                raise ConfigurationError(f"no mount namespace for machine {machine}")
        self.measurement_config = measurement_config or OffsetMeasurementConfig(
            exchanges=params.measurement_exchanges
        )

    # -- helpers --------------------------------------------------------------

    def _default_clocks(
        self,
        nodes: List[NodeId],
        offset_scale_s: float,
        drift_scale: float,
    ) -> ClockEnsemble:
        """Random per-node clocks; hardware-synchronized metahosts share one.

        A metahost with ``has_global_clock`` provides hardware clock
        synchronization among its nodes (paper Section 4), so all its nodes
        get the *same* clock model.
        """
        from repro.clocks.clock import LinearClock

        per_machine: Dict[int, LinearClock] = {}
        table: Dict[NodeId, LinearClock] = {}
        for node in nodes:
            host = self.metacomputer.metahost(node.machine)
            if host.has_global_clock:
                clock = per_machine.get(node.machine)
                if clock is None:
                    clock = LinearClock(
                        offset_s=float(
                            self._rng.uniform(-offset_scale_s, offset_scale_s)
                        ),
                        drift=float(self._rng.uniform(-drift_scale, drift_scale)),
                    )
                    per_machine[node.machine] = clock
                table[node] = clock
            else:
                table[node] = LinearClock(
                    offset_s=float(
                        self._rng.uniform(-offset_scale_s, offset_scale_s)
                    ),
                    drift=float(self._rng.uniform(-drift_scale, drift_scale)),
                )
        return ClockEnsemble(table)

    def _machine_nodes(self) -> Dict[int, List[NodeId]]:
        """Machine → nodes in use, ordered so the lowest rank's node is first.

        The first node per machine acts as local master; for the master's
        machine this is rank zero's node, making it the metamaster.
        """
        order: Dict[int, List[NodeId]] = {}
        for slot in sorted(self.placement.slots, key=lambda s: s.rank):
            nodes = order.setdefault(slot.location.machine, [])
            node = slot.node
            if node not in nodes:
                nodes.append(node)
        return order

    def _ranks_of_machine(self) -> Dict[int, List[int]]:
        out: Dict[int, List[int]] = {}
        for slot in sorted(self.placement.slots, key=lambda s: s.rank):
            out.setdefault(slot.location.machine, []).append(slot.rank)
        return out

    # -- execution ---------------------------------------------------------------

    def run(self, app: Callable[..., AppGenerator]) -> RunResult:
        """Execute *app*, write archives, return the run record."""
        injector = self.fault_injector
        tracer = Tracer(self.clocks)
        world = World(
            self.metacomputer,
            self.placement,
            params=self.params,
            rng=self._rng,
            tracer=tracer,
            fault_injector=injector,
        )
        for name, ranks in self.subcomms.items():
            world.new_communicator(name, ranks)
        world.launch(app, seed=self.seed)
        stats = world.run()
        tracer.finalize(self.placement.size)

        master_node = self.placement.slot(0).node
        sync_data = collect_sync_data(
            self.metacomputer,
            self._machine_nodes(),
            self.clocks,
            master_node,
            run_start_s=0.0,
            run_end_s=stats.finish_time,
            rng=self._rng,
            config=self.measurement_config,
            injector=injector,
        )

        ranks_of_machine = self._ranks_of_machine()
        namespaces_in_use = {
            machine: self.namespaces[machine] for machine in ranks_of_machine
        }
        machine_names = dict(enumerate(self.metacomputer.machine_names()))
        outcome = ensure_archives(
            namespaces_in_use,
            self.archive_path,
            ranks_of_machine,
            root_rank=0,
            injector=injector,
            machine_names=machine_names,
        )

        definitions = Definitions(
            machine_names=self.metacomputer.machine_names(),
            locations={
                slot.rank: slot.location for slot in self.placement.slots
            },
            regions=tracer.regions,
            communicators={
                data.id: (data.name, data.global_ranks)
                for data in world.all_communicators()
            },
        )

        trace_bytes: Dict[int, int] = {}
        for machine, ranks in ranks_of_machine.items():
            writer = ArchiveWriter(namespaces_in_use[machine], self.archive_path)
            writer.write_definitions(definitions)
            writer.write_sync_data(sync_data)
            for rank in ranks:
                # Buffers hold the already-encoded record stream (encoding
                # happened incrementally during simulation) and its checksum
                # blocks, so emission is one byte copy per rank — no event
                # objects, no second pass over the records.  Checksums cover
                # the pristine encoding; an injector's damage models storage
                # corrupting the bytes *after* they were checksummed, so
                # verify() can catch it.
                buffer = tracer.buffer(rank)
                clean = buffer.encoded()
                blob = clean if injector is None else injector.mangle_trace(rank, clean)
                trace_bytes[rank] = writer.write_trace_blob(rank, blob, buffer.blocks())
            writer.write_manifest()

        return RunResult(
            metacomputer=self.metacomputer,
            placement=self.placement,
            stats=stats,
            sync_data=sync_data,
            archive_path=self.archive_path,
            namespaces=dict(namespaces_in_use),
            archive_outcome=outcome,
            definitions=definitions,
            trace_bytes=trace_bytes,
            clocks=self.clocks,
            fault_plan=self.fault_plan,
            fault_counters=injector.counters if injector is not None else None,
        )
