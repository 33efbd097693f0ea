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

    `charge(k)` is the one settle call: it adds k nodes, reads the clock,
    raises past either cap, and returns the room, how many nodes a loop
    may count before it must settle again.  A hot loop counts its own
    nodes: it opens with `room = charge(0)`, settles with
    `room = charge(nodes)` and a fresh count whenever the count passes the
    room, and charges what is left on every exit, so the cap still raises
    at node max_nodes + 1 and the clock is read once per 4096 nodes.  A
    cold loop charges each node as it goes.

    The clock starts at the first charge: a search that opens with
    `charge(0)` fixes its deadline before its first node.
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

    def charge(self, nodes: int) -> int:
        now = time.monotonic()
        if self._deadline is None:
            self._deadline = now + self.max_seconds
        self.nodes += nodes
        if self.nodes > self.max_nodes:
            raise BudgetExceededError(f"node budget {self.max_nodes} exceeded")
        if now > self._deadline:
            raise BudgetExceededError(f"time budget {self.max_seconds}s exceeded")
        return min(self.max_nodes - self.nodes, 4096)
