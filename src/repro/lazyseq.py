"""List behaviour over numpy columns: the objects exist only while being read.

What the analysis keeps per operation, record or message is columns; a
consumer that wants the old list of objects — a report, a test, the
reference engine — reads one of these sequences instead, and each element
is made as it is read.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Iterator


class LazySequence(Sequence):
    """A read-only sequence whose elements a subclass makes from columns.

    A subclass gives ``__len__`` and :meth:`span`; iteration, indexing,
    slicing and equality with a list of the same elements follow.
    """

    __slots__ = ()

    def span(self, lo: int, hi: int) -> Iterator:
        """Elements ``lo`` to ``hi``, made as the iterator advances."""
        raise NotImplementedError

    def __iter__(self) -> Iterator:
        return self.span(0, len(self))

    def __getitem__(self, index):
        size = len(self)
        if isinstance(index, slice):
            lo, hi, step = index.indices(size)
            if step == 1:
                return list(self.span(lo, hi))
            return [self[i] for i in range(lo, hi, step)]
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError(f"{type(self).__name__} index out of range")
        return next(self.span(index, index + 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, LazySequence)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} of {len(self)}>"
