"""Network links and the stochastic latency model.

The metacomputer exposes a *hierarchy of varying latencies and bandwidths*
(paper Section 1): fast internal interconnects inside each metahost, and
external links between metahosts whose latency may be an order of magnitude
(in VIOLA: two orders, Table 1) larger.

Per-message latency is modeled as::

    latency = base + Exponential(jitter)

i.e. a deterministic propagation/protocol floor plus a heavy-ish, strictly
positive jitter term capturing OS and switch interference.  The exponential
tail matters: the accuracy of remote-clock-reading offset measurements is
governed by the *asymmetry* of forward and backward jitter, so a realistic
tail reproduces the paper's observation that offset measurements over the
external network are far less precise than over internal networks.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import TopologyError


class LinkClass(enum.Enum):
    """Classification of a network hop.

    ``LOOPBACK``  — intra-node communication (shared memory).
    ``INTERNAL``  — between nodes of one metahost.
    ``EXTERNAL``  — between metahosts (LAN or WAN).
    """

    LOOPBACK = "loopback"
    INTERNAL = "internal"
    EXTERNAL = "external"


@dataclass(frozen=True)
class LinkSpec:
    """Static description of a (directed-symmetric) network link.

    Parameters
    ----------
    latency_s:
        Mean one-way message latency in seconds (the paper's Table 1 means).
    jitter_s:
        Scale of the exponential jitter term.  The standard deviation of the
        resulting latency equals ``jitter_s``; Table 1's standard deviations
        are used for the VIOLA presets.
    bandwidth_bps:
        Sustained bandwidth in bytes per second.
    link_class:
        Hop classification, see :class:`LinkClass`.
    name:
        Optional human-readable name (e.g. ``"FZJ<->FH-BRS"``).
    congestion_prob / congestion_scale_s / congestion_block_s:
        Slowly-varying *directional* congestion episodes: within each
        ``congestion_block_s`` window, a given (endpoint-pair, direction)
        path carries an extra queueing delay that is exponential with scale
        ``congestion_scale_s`` with probability ``congestion_prob`` (zero
        otherwise).  This models interference at shared path segments and
        per-node NIC endpoints — the paper notes external networks "may
        suffer ... from interference with unrelated traffic".  Because the
        bias is (a) strictly positive and (b) constant across the few
        milliseconds of an offset-measurement window, it delays messages
        without ever reordering them, yet it survives minimum-RTT filtering
        and makes clock-offset measurements across such links systematically
        less accurate — the effect the hierarchical synchronization scheme
        exists to contain.
    """

    latency_s: float
    jitter_s: float
    bandwidth_bps: float
    link_class: LinkClass = LinkClass.INTERNAL
    name: str = ""
    congestion_prob: float = 0.0
    congestion_scale_s: float = 0.0
    congestion_block_s: float = 2.0

    def __post_init__(self) -> None:
        if self.latency_s < 0:
            raise TopologyError(f"latency must be non-negative, got {self.latency_s}")
        if self.jitter_s < 0:
            raise TopologyError(f"jitter must be non-negative, got {self.jitter_s}")
        if self.bandwidth_bps <= 0:
            raise TopologyError(
                f"bandwidth must be positive, got {self.bandwidth_bps}"
            )
        if not 0.0 <= self.congestion_prob <= 1.0:
            raise TopologyError(
                f"congestion probability must be in [0, 1]: {self.congestion_prob}"
            )
        if self.congestion_scale_s < 0 or self.congestion_block_s <= 0:
            raise TopologyError("congestion scale/block must be non-negative/positive")

    @property
    def base_latency_s(self) -> float:
        """Deterministic latency floor (mean minus the jitter mean)."""
        return max(0.0, self.latency_s - self.jitter_s)


class ExponentialJitterStream:
    """Batched façade over a generator's scalar ``exponential`` draws.

    Pre-draws blocks of *standard* exponential variates with one vectorized
    numpy call and hands them out one at a time, scaled on demand — the
    per-message ``Generator.exponential(scale)`` dispatch was the single
    hottest call in the simulator.  Byte-identity with scalar draws holds
    because numpy computes ``exponential(scale)`` as
    ``scale * standard_exponential()`` and a size-``n`` vectorized draw
    consumes the bit-generator stream exactly like ``n`` scalar draws.

    :meth:`sync` rewinds the underlying generator to the position an
    all-scalar consumer would have reached (restoring the pre-block state
    and redrawing only the consumed count), so code that shares the
    generator *after* the simulation — the clock-offset measurement phase —
    continues on the byte-identical stream.  Do not draw from the wrapped
    generator directly while a block is outstanding.
    """

    __slots__ = ("_rng", "_block", "_buf", "_next", "_state")

    def __init__(self, rng: np.random.Generator, block: int = 1024) -> None:
        if block < 1:
            raise TopologyError(f"jitter block size must be positive: {block}")
        self._rng = rng
        self._block = block
        self._buf: list = []
        self._next = 0
        self._state = None

    def exponential(self, scale: float) -> float:
        """One draw from ``Exponential(scale)`` — same stream as the scalar API."""
        i = self._next
        buf = self._buf
        if i >= len(buf):
            self._state = self._rng.bit_generator.state
            buf = self._rng.standard_exponential(self._block).tolist()
            self._buf = buf
            i = 0
        self._next = i + 1
        return scale * buf[i]

    def sync(self) -> None:
        """Rewind the wrapped generator to the scalar-equivalent position."""
        consumed = self._next
        if self._buf and consumed < len(self._buf):
            self._rng.bit_generator.state = self._state
            if consumed:
                self._rng.standard_exponential(consumed)
        self._buf = []
        self._next = 0
        self._state = None


class LatencyModel:
    """Samples per-message transfer times for a :class:`LinkSpec`.

    The model is ``base + Exp(jitter) [+ congestion(when, direction)]
    + size / bandwidth``.  Sampling is driven by a caller-provided
    generator — a :class:`numpy.random.Generator` or the batched
    :class:`ExponentialJitterStream` over one — so that whole simulations
    are reproducible from one seed.

    The congestion component deliberately does NOT draw from that stream:
    the bias must be a pure function of (link, direction, time block) so
    that every model instance — the simulator's and, independently, any
    cost model or test probing the same link — sees the same episode
    pattern regardless of how many latency samples were drawn in between.
    Each (direction, block) bias is derived from a CRC32-keyed generator;
    the cache keeps only the most recently queried block per direction
    (simulation time moves forward, so older blocks are dead weight and an
    unbounded cache grew with run length).  Re-deriving an evicted block is
    always byte-identical — purity makes eviction free of semantics.
    """

    def __init__(self, spec: LinkSpec) -> None:
        self.spec = spec
        #: direction -> (time block, bias); one entry per direction, ever.
        self._bias_cache: Dict[str, Tuple[int, float]] = {}
        # What every draw reads, resolved once (``base_latency_s`` is a property).
        self._jitter = spec.jitter_s
        self._floor = spec.base_latency_s if spec.jitter_s > 0.0 else spec.latency_s
        self._congested = spec.congestion_prob > 0.0 and spec.congestion_scale_s > 0.0

    def _derive_bias(self, direction: str, block: int) -> float:
        """Pure (link, direction, block) -> bias; CRC32-keyed, stream-free."""
        spec = self.spec
        seed = zlib.crc32(f"{spec.name}|{direction}|{block}".encode("utf-8"))
        draw = np.random.Generator(np.random.PCG64(seed))
        if draw.random() >= spec.congestion_prob:
            return 0.0
        return float(draw.exponential(spec.congestion_scale_s))

    def congestion_bias(self, when: Optional[float], direction: Optional[str]) -> float:
        """Directional queueing bias active at time *when* (0 if unmodeled)."""
        if not self._congested or when is None or direction is None:
            return 0.0
        block = int(when // self.spec.congestion_block_s)
        cached = self._bias_cache.get(direction)
        if cached is not None and cached[0] == block:
            return cached[1]
        bias = self._derive_bias(direction, block)
        self._bias_cache[direction] = (block, bias)
        return bias

    # The two draws are one frame each (the simulator makes one per message):
    # a cached congestion bias is read inline, :meth:`congestion_bias` runs
    # only to derive a new block's.

    def sample_latency(
        self, rng, when: Optional[float] = None, direction: Optional[str] = None
    ) -> float:
        """Draw one one-way latency sample in seconds."""
        latency = self._floor
        if self._jitter > 0.0:
            latency += rng.exponential(self._jitter)
        if self._congested and when is not None and direction is not None:
            cached = self._bias_cache.get(direction)
            hit = cached is not None and cached[0] == int(when // self.spec.congestion_block_s)
            latency += cached[1] if hit else self.congestion_bias(when, direction)
        return latency

    def transfer_time(
        self, size_bytes: int, rng, when: Optional[float] = None, direction: Optional[str] = None
    ) -> float:
        """Draw the total time to move *size_bytes* over the link:
        ``((floor + jitter) + bias) + size / bandwidth``."""
        if size_bytes < 0:
            raise TopologyError(f"message size must be non-negative: {size_bytes}")
        latency = self._floor
        if self._jitter > 0.0:
            latency += rng.exponential(self._jitter)
        if self._congested and when is not None and direction is not None:
            cached = self._bias_cache.get(direction)
            hit = cached is not None and cached[0] == int(when // self.spec.congestion_block_s)
            latency += cached[1] if hit else self.congestion_bias(when, direction)
        return latency + size_bytes / self.spec.bandwidth_bps

    def mean_transfer_time(self, size_bytes: int) -> float:
        """Expected transfer time (no sampling); useful for cost models.

        Includes the expected congestion bias
        ``congestion_prob * congestion_scale_s`` — the sampled
        :meth:`transfer_time` always carried it, and a mean that silently
        dropped it skewed cost-model predictions on congested external
        links (e.g. the ping-drop penalty of offset measurements).
        """
        if size_bytes < 0:
            raise TopologyError(f"message size must be non-negative: {size_bytes}")
        spec = self.spec
        return (
            spec.latency_s
            + spec.congestion_prob * spec.congestion_scale_s
            + size_bytes / spec.bandwidth_bps
        )


def loopback_link(bandwidth_bps: float = 4e9, latency_s: float = 0.5e-6) -> LinkSpec:
    """Link spec for intra-node (shared-memory) transfers."""
    return LinkSpec(
        latency_s=latency_s,
        jitter_s=latency_s * 0.05,
        bandwidth_bps=bandwidth_bps,
        link_class=LinkClass.LOOPBACK,
        name="loopback",
    )
