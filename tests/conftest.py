"""Shared fixtures.

Expensive end-to-end runs (MetaTrace experiments, the Table 2 benchmark)
are session-scoped so the many tests that assert different facets of one
run share a single simulation.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.experiments.figures import run_metatrace_experiment
from repro.experiments.table2 import run_table2
from repro.sim.runtime import MetaMPIRuntime
from repro.topology.metacomputer import Placement
from repro.topology.presets import single_cluster, uniform_metacomputer


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def two_host_mc():
    """Two symmetric metahosts, 2 nodes × 2 CPUs each."""
    return uniform_metacomputer(metahost_count=2, node_count=2, cpus_per_node=2)


@pytest.fixture
def single_mc():
    return single_cluster(node_count=4, cpus_per_node=2)


def run_app(metacomputer, nprocs, app, seed=0, **runtime_kwargs):
    """Convenience: block placement + runtime + run."""
    placement = Placement.block(metacomputer, nprocs)
    runtime = MetaMPIRuntime(metacomputer, placement, seed=seed, **runtime_kwargs)
    return runtime.run(app)


def archive_digest(run):
    """One hash over every archive file of every metahost, in stable order."""
    h = hashlib.sha256()
    for machine in run.machines_used:
        reader = run.reader(machine)
        for name in sorted(reader.namespace.list_dir(reader.path)):
            h.update(name.encode())
            h.update(reader.namespace.read_file(f"{reader.path}/{name}"))
    return h.hexdigest()


@pytest.fixture(scope="session")
def metatrace_exp1():
    """One shared Experiment-1 (Figure 6) run + analysis."""
    return run_metatrace_experiment(figure=1, seed=11)


@pytest.fixture(scope="session")
def metatrace_exp2():
    """One shared Experiment-2 (Figure 7) run + analysis."""
    return run_metatrace_experiment(figure=2, seed=11)


@pytest.fixture(scope="session")
def table2_outcome():
    """One shared Table-2 benchmark run analyzed under all three schemes."""
    rows, run, analyses = run_table2(seed=7)
    return {"rows": rows, "run": run, "analyses": analyses}
