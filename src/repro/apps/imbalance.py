"""Synthetic imbalance generators for tests, examples, and pattern studies.

Small, fully-controllable workloads whose wait states are analytically
predictable — the unit tests of the pattern catalogue are built on them.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ConfigurationError


def make_imbalance_app(
    work_of_rank: Dict[int, float],
    message_bytes: int = 1024,
    iterations: int = 1,
):
    """Ring exchange after per-rank compute phases of different lengths.

    Each iteration, rank *r* computes ``work_of_rank[r]`` reference seconds,
    then exchanges a message with its ring successor via sendrecv.  Ranks
    following a slower predecessor accumulate Late Sender waiting time.
    """
    if iterations < 1:
        raise ConfigurationError("need at least one iteration")

    def app(ctx):
        work = work_of_rank.get(ctx.rank, 0.0)
        succ = (ctx.rank + 1) % ctx.size
        pred = (ctx.rank - 1) % ctx.size
        with ctx.region("main"):
            for _ in range(iterations):
                with ctx.region("work"):
                    yield ctx.compute(work)
                with ctx.region("ring"):
                    yield ctx.comm.sendrecv(
                        dest=succ,
                        send_size=message_bytes,
                        send_tag=3,
                        source=pred,
                        recv_tag=3,
                    )
        yield ctx.comm.barrier()

    return app


def make_barrier_imbalance_app(
    work_of_rank: Dict[int, float],
    iterations: int = 1,
    comm_name: Optional[str] = None,
):
    """Compute phases of different lengths separated by barriers.

    The fast ranks wait at every barrier for the slowest rank — the
    textbook Wait at Barrier situation (grid-flavored when the ranks span
    metahosts).
    """
    if iterations < 1:
        raise ConfigurationError("need at least one iteration")

    def app(ctx):
        comm = ctx.comm if comm_name is None else ctx.get_comm(comm_name)
        work = work_of_rank.get(ctx.rank, 0.0)
        with ctx.region("main"):
            for _ in range(iterations):
                with ctx.region("work"):
                    yield ctx.compute(work)
                if comm is not None:
                    with ctx.region("sync"):
                        yield comm.barrier()

    return app


def make_nxn_imbalance_app(
    work_of_rank: Dict[int, float],
    payload_bytes: int = 4096,
    iterations: int = 1,
):
    """Unequal compute followed by allreduce (the Wait at N×N situation)."""
    if iterations < 1:
        raise ConfigurationError("need at least one iteration")

    def app(ctx):
        work = work_of_rank.get(ctx.rank, 0.0)
        with ctx.region("main"):
            for _ in range(iterations):
                with ctx.region("work"):
                    yield ctx.compute(work)
                with ctx.region("reduce"):
                    yield ctx.comm.allreduce(payload_bytes)

    return app
