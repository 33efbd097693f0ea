"""The one budget of every bounded search, and the error it raises."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional


class BudgetExceededError(RuntimeError):
    """A search ran out of its node or time budget before reaching an answer.

    Distinct from a negative answer: the caller learns nothing about
    existence when this is raised.
    """


@dataclass
class SearchBudget:
    """Node and wall-clock caps shared by the exact searches.

    The clock starts at the first tick or charge.  `tick()` counts one node
    and reads the clock every 4096 nodes; `charge(k)` settles k nodes
    counted by the caller and reads the clock at once.
    """

    max_nodes: int = 10_000_000
    max_seconds: float = 60.0
    nodes: int = 0
    _deadline: Optional[float] = field(default=None, repr=False)

    def tick(self) -> None:
        if self._deadline is None:
            self._deadline = time.monotonic() + self.max_seconds
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise BudgetExceededError(f"node budget {self.max_nodes} exceeded")
        if self.nodes % 4096 == 0 and time.monotonic() > self._deadline:
            raise BudgetExceededError(f"time budget {self.max_seconds}s exceeded")

    def charge(self, nodes: int) -> None:
        now = time.monotonic()
        if self._deadline is None:
            self._deadline = now + self.max_seconds
        self.nodes += nodes
        if self.nodes > self.max_nodes:
            raise BudgetExceededError(f"node budget {self.max_nodes} exceeded")
        if now > self._deadline:
            raise BudgetExceededError(f"time budget {self.max_seconds}s exceeded")
