"""A shared, cancellable wall-clock budget for one analysis request.

A :class:`Deadline` is created once per request (from
``AnalysisRequest.deadline_s`` or by the service per job) and handed down
through every layer that does open-ended work: the streaming replay pump
polls it between chunks, the supervised pool derives per-shard budgets
from :meth:`Deadline.remaining`, and the service keeps the handle so a
``DELETE /jobs/<key>`` can :meth:`cancel` it from another thread.

The clock is :func:`time.monotonic`.  Cancellation is a single attribute
assignment, so the object is safe to share between the service threads
and the analysis without extra locking; worker *processes* never see the
object — only budgets derived from it.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.errors import TimeBudgetExceeded

__all__ = ["Deadline", "TimeBudgetExceeded"]


class Deadline:
    """Wall-clock budget that can also be cancelled explicitly.

    Parameters
    ----------
    budget_s:
        Total seconds allowed from construction.  ``None`` means
        unbounded: the deadline never expires on its own but can still
        be cancelled.
    """

    __slots__ = ("budget_s", "_expires_at", "_cancel_reason")

    def __init__(self, budget_s: Optional[float] = None) -> None:
        if budget_s is not None and not budget_s > 0:  # NaN fails too
            raise ValueError(f"deadline budget must be positive, got {budget_s!r}")
        self.budget_s = budget_s
        self._expires_at = (
            None if budget_s is None else time.monotonic() + budget_s
        )
        self._cancel_reason: Optional[str] = None

    def cancel(self, reason: str = "cancelled") -> None:
        """Expire the deadline immediately (idempotent, thread-safe)."""
        if self._cancel_reason is None:
            self._cancel_reason = reason

    @property
    def cancelled(self) -> bool:
        return self._cancel_reason is not None

    def remaining(self) -> float:
        """Seconds left in the budget; ``inf`` when unbounded, 0 when spent."""
        if self._cancel_reason is not None:
            return 0.0
        if self._expires_at is None:
            return float("inf")
        return max(0.0, self._expires_at - time.monotonic())

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def reason(self) -> Optional[str]:
        """Why the budget ended, or ``None`` while it is still open."""
        if self._cancel_reason is not None:
            return self._cancel_reason
        if self._expires_at is not None and time.monotonic() >= self._expires_at:
            return f"deadline of {self.budget_s}s exceeded"
        return None

    def check(self) -> None:
        """Raise :class:`TimeBudgetExceeded` if the budget has ended."""
        reason = self.reason()
        if reason is not None:
            raise TimeBudgetExceeded(reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._cancel_reason is not None:
            state = f"cancelled: {self._cancel_reason}"
        elif self.budget_s is None:
            state = "unbounded"
        else:
            state = f"{self.remaining():.3f}s of {self.budget_s}s left"
        return f"Deadline({state})"
