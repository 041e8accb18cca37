"""Metacomputer topology substrate.

Models the hardware the paper ran on: metahosts (independent clusters) made
of SMP nodes with per-CPU speed factors, internal interconnects, and external
(wide-area) links joining metahosts into a single metacomputer (paper
Figure 2).  Presets encode the VIOLA testbed of Figure 5 / Table 1 and the
homogeneous IBM AIX POWER host of Experiment 2.
"""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.topology.machine": ("CpuSpec", "NodeSpec", "Metahost"),
        "repro.topology.network": ("LinkSpec", "LatencyModel", "LinkClass"),
        "repro.topology.metacomputer": ("Metacomputer", "Placement", "ProcessSlot"),
        "repro.topology.presets": (
            "viola_testbed", "ibm_aix_power", "single_cluster", "uniform_metacomputer",
        ),
    },
)
