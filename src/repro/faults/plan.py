"""Fault plans: declarative, seed-driven descriptions of injected faults.

A :class:`FaultPlan` is an immutable list of fault specs plus its own
random seed.  Fault randomness (message-loss coin flips, ping drops) is
drawn from a generator seeded by the *plan*, never from the simulation's
latency stream — so an empty plan leaves every simulation draw, and hence
every trace byte, exactly as it would be without fault injection, and the
same plan replayed against the same workload injects the same faults.

Link-valued specs select links by *pattern*: an exact link name
(``"FZJ<->FH-BRS"``), a link class (``"external"``, ``"internal"``,
``"loopback"``), or ``"*"`` for every link.  The external links are the
interesting targets — the paper's premise is that metacomputer trouble
lives on the slow inter-metahost paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from repro.errors import ConfigurationError
from repro.topology.network import LinkSpec


def link_matches(pattern: str, spec: LinkSpec) -> bool:
    """Does *pattern* (name, class, or ``"*"``) select this link?"""
    if pattern == "*":
        return True
    if spec.name == pattern:
        return True
    return spec.link_class.value == pattern


def _check_pattern(pattern: str) -> None:
    if not pattern:
        raise ConfigurationError("fault spec link pattern must be non-empty")


def _check_prob(value: float, what: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{what} must be in [0, 1], got {value}")


def _check_window(start_s: float, end_s: float) -> None:
    if start_s < 0 or end_s <= start_s:
        raise ConfigurationError(
            f"fault window must satisfy 0 <= start < end, got [{start_s}, {end_s}]"
        )


@dataclass(frozen=True)
class LinkOutage:
    """The selected links deliver nothing during ``[start_s, end_s)``.

    Every message hitting the link inside the window is lost; senders ride
    the outage out through retransmission backoff or — if the window outlasts
    the retry budget — hit :class:`~repro.errors.CommunicationTimeoutError`.
    """

    link: str
    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        _check_pattern(self.link)
        _check_window(self.start_s, self.end_s)


@dataclass(frozen=True)
class LinkDegradation:
    """The selected links run slow and lossy during ``[start_s, end_s)``.

    ``latency_factor`` multiplies every sampled transfer time on the link
    while the window is active; ``loss_prob`` additionally drops each
    message with that probability (recovered by retransmission).
    """

    link: str
    start_s: float
    end_s: float
    latency_factor: float = 1.0
    loss_prob: float = 0.0

    def __post_init__(self) -> None:
        _check_pattern(self.link)
        _check_window(self.start_s, self.end_s)
        if self.latency_factor < 1.0:
            raise ConfigurationError(
                f"latency factor must be >= 1, got {self.latency_factor}"
            )
        _check_prob(self.loss_prob, "degradation loss probability")


@dataclass(frozen=True)
class MessageLoss:
    """Uniform per-message loss on the selected links, for the whole run."""

    link: str
    probability: float

    def __post_init__(self) -> None:
        _check_pattern(self.link)
        _check_prob(self.probability, "message-loss probability")


@dataclass(frozen=True)
class PingFault:
    """Interference with clock-offset measurement probes on selected links.

    ``drop_prob`` loses individual ping-pong exchanges (the measurement
    re-pings, bounded); ``asymmetry_s`` adds a one-directional delay to the
    *return* leg of each exchange, biasing the Cristian offset estimate —
    the failure mode that makes outlier rejection worthwhile.
    """

    link: str
    drop_prob: float = 0.0
    asymmetry_s: float = 0.0

    def __post_init__(self) -> None:
        _check_pattern(self.link)
        _check_prob(self.drop_prob, "ping drop probability")
        if self.asymmetry_s < 0:
            raise ConfigurationError("ping asymmetry must be non-negative")


@dataclass(frozen=True)
class FileSystemFault:
    """Directory creation on one metahost's storage fails.

    The first ``fail_count`` create attempts raise
    :class:`~repro.errors.FileSystemError`; with ``permanent`` every attempt
    fails, which drives the archive-management protocol into its abort path.
    ``machine`` is a metahost name or ``"*"``.
    """

    machine: str
    fail_count: int = 1
    permanent: bool = False

    def __post_init__(self) -> None:
        if not self.machine:
            raise ConfigurationError("file-system fault machine must be non-empty")
        if self.fail_count < 1:
            raise ConfigurationError("file-system fault needs fail_count >= 1")


@dataclass(frozen=True)
class TraceTruncation:
    """Keep only a prefix of one rank's trace file (buffer lost at the end).

    ``keep_fraction`` is the fraction of the payload (post-header) bytes
    retained; the cut lands wherever it lands, usually mid-record.
    """

    rank: int
    keep_fraction: float

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError("trace truncation rank must be >= 0")
        _check_prob(self.keep_fraction, "trace keep fraction")


@dataclass(frozen=True)
class TraceCorruption:
    """Overwrite bytes of one rank's trace file with garbage (0xFF).

    The damage starts at the first record boundary at or after
    ``at_fraction`` of the payload, so the salvageable prefix ends exactly
    at the corruption point.
    """

    rank: int
    at_fraction: float = 0.5
    length: int = 4

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError("trace corruption rank must be >= 0")
        _check_prob(self.at_fraction, "trace corruption position")
        if self.length < 1:
            raise ConfigurationError("trace corruption length must be >= 1")


FaultSpec = Union[
    LinkOutage,
    LinkDegradation,
    MessageLoss,
    PingFault,
    FileSystemFault,
    TraceTruncation,
    TraceCorruption,
]

_SPEC_TYPES = (
    LinkOutage,
    LinkDegradation,
    MessageLoss,
    PingFault,
    FileSystemFault,
    TraceTruncation,
    TraceCorruption,
)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of fault specs plus the seed for fault randomness.

    ``FaultPlan()`` is the empty plan: injecting it is indistinguishable
    from not injecting at all (no draws, no delays, no mangling).
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        for spec in self.specs:
            if not isinstance(spec, _SPEC_TYPES):
                raise ConfigurationError(
                    f"not a fault spec: {spec!r} (type {type(spec).__name__})"
                )
        object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def is_empty(self) -> bool:
        return not self.specs

    def of_type(self, spec_type: type) -> Tuple[FaultSpec, ...]:
        return tuple(s for s in self.specs if isinstance(s, spec_type))

    def describe(self) -> str:
        """One line per spec, for degradation reports and logs."""
        if self.is_empty:
            return "(no faults)"
        return "\n".join(
            f"{type(s).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(s).items())})"
            for s in self.specs
        )
