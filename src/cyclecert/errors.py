"""The one budget of every bounded search, and the error it raises."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from numbers import Real
from typing import Optional


class BudgetExceededError(RuntimeError):
    """A search ran out of its node or time budget before reaching an answer.

    Distinct from a negative answer: the caller learns nothing about
    existence when this is raised.
    """


@dataclass
class SearchBudget:
    """Node and wall-clock caps shared by the exact searches.

    The caps must be a non-negative int (not a bool) and a non-negative
    number of seconds other than NaN; anything else is a ValueError.

    A hot loop counts its own nodes: `room()` starts the clock and returns
    how many nodes the loop may count before it must settle them with
    `charge(k)`, which adds the k nodes, reads the clock and raises past
    either cap.  The loop charges when its count passes the room, opens a
    new room, and charges what is left on every exit, so the cap still
    raises at node max_nodes + 1 and the clock is read once per 4096 nodes.
    A cold loop charges each node as it goes.

    The clock starts at the first room or charge, whichever comes first: a
    search that opens a room fixes its deadline before its first node.
    """

    max_nodes: int = 10_000_000
    max_seconds: float = 60.0
    nodes: int = 0
    _deadline: Optional[float] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        cap, seconds = self.max_nodes, self.max_seconds
        if isinstance(cap, bool) or not isinstance(cap, int) or cap < 0:
            raise ValueError(f"max_nodes must be a non-negative int, got {cap!r}")
        # NaN compares false with everything, so a NaN deadline never passes
        if isinstance(seconds, bool) or not isinstance(seconds, Real) or not seconds >= 0:
            raise ValueError(f"max_seconds must be a non-negative number, got {seconds!r}")

    def room(self) -> int:
        if self._deadline is None:
            self._deadline = time.monotonic() + self.max_seconds
        return min(self.max_nodes - self.nodes, 4096)

    def charge(self, nodes: int) -> None:
        now = time.monotonic()
        if self._deadline is None:
            self._deadline = now + self.max_seconds
        self.nodes += nodes
        if self.nodes > self.max_nodes:
            raise BudgetExceededError(f"node budget {self.max_nodes} exceeded")
        if now > self._deadline:
            raise BudgetExceededError(f"time budget {self.max_seconds}s exceeded")
