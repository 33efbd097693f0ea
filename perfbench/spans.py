"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the cyclecert modules from outside:
`patch` replaces every binding of a wrapped function in every loaded
cyclecert module, so calls made through from-import names (for example
`structures.isomorphic`, `crossing.find_rotation`, or the names bound in
`cli`) are caught as well as calls through the defining module.  The library
itself is not edited.

A span records its name, start, end, parent span and the benchmark operation
it belongs to.  Self time is span time minus the time covered by its child
spans.  Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Union

from cyclecert.errors import BudgetExceededError

# Spans beyond this many are not kept for the span file.
MAX_KEPT_SPANS = 300_000


class _Frame:
    __slots__ = ("index", "name", "fell_back")

    def __init__(self, index: int, name: str):
        self.index = index
        self.name = name
        self.fell_back = False


class Recorder:
    """Spans and boundary counts; `reset` starts a new aggregate (one pass).

    Span tuples are (id, name, start, end, parent id, operation id).
    """

    def __init__(self) -> None:
        self.kept: list[tuple] = []
        self.dropped = 0
        self.op_id = -1
        self.paused = False
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[_Frame] = []
        self._next = 0

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def parent(self) -> Optional[_Frame]:
        return self._stack[-1] if self._stack else None

    def times(self, seconds: Callable[[float, float], float]) -> tuple[dict, dict]:
        """(self time, total time) per span name since the last reset, with
        each span measured by `seconds(start, end)`."""
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        names = {index: name for index, name, *_ in self.spans}
        for index, name, start, end, parent, _ in self.spans:
            length = seconds(start, end)
            total[name] += length
            own[name] += length
            if parent in names:
                own[names[parent]] -= length
        return dict(own), dict(total)

    def wrap(self, layer: "Layer", fn: Callable) -> Callable:
        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            if self.paused:
                return fn(*args, **kwargs)
            name = layer.name if isinstance(layer.name, str) else layer.name(args, kwargs)
            state = layer.pre(args, kwargs) if layer.pre else None
            parent = self._stack[-1] if self._stack else None
            frame = _Frame(self._next, name)
            self._next += 1
            self._stack.append(frame)
            result: Any = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BudgetExceededError:
                self.counts[f"{name.split('.')[0]}.budget_exceeded"] += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                record = (frame.index, name, start, end, parent.index if parent else None, self.op_id)
                self.spans.append(record)
                if len(self.kept) < MAX_KEPT_SPANS:
                    self.kept.append(record)
                else:
                    self.dropped += 1
                if layer.post:
                    layer.post(self, frame, state, args, kwargs, result)

        return span

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, name, start, end, parent, op in self.kept:
                fh.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end, "parent": parent, "op": op}
                    )
                    + "\n"
                )
            if self.dropped:
                fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")


@dataclass(frozen=True)
class Layer:
    """One wrapped public function: where it lives and how its span is named.

    `pre` sees the call before it runs and returns a state for `post`, which
    runs after the call with the result (None when the call raised).
    """

    module: str
    attr: str
    name: Union[str, Callable[[tuple, dict], str]]
    pre: Optional[Callable] = None
    post: Optional[Callable] = None


# --- counters taken at the layer boundaries ---------------------------------


def _arg(args: tuple, kwargs: dict, index: int, key: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(key)


def _entries(rec: Recorder, frame: _Frame, state: Any, args: tuple, kwargs: dict, result: Any) -> None:
    xs = _arg(args, kwargs, 0, "xs")
    rec.counts["cyclic_core.entries"] += len(getattr(xs, "values", xs))


def _find_rotation_post(rec: Recorder, frame: _Frame, state: Any, args: tuple, kwargs: dict, result: Any) -> None:
    _entries(rec, frame, state, args, kwargs, result)
    if result is not None:
        rec.counts["cyclic_core.found"] += 1
        if not frame.fell_back:
            rec.counts["cyclic_core.found_without_fallback"] += 1


def _scan_post(rec: Recorder, frame: _Frame, state: Any, args: tuple, kwargs: dict, result: Any) -> None:
    parent = rec.parent()
    if parent is not None and parent.name == "cyclic_core.find_rotation":
        rec.counts["cyclic_core.scan_fallbacks"] += 1
        parent.fell_back = True


def _bytes_post(rec: Recorder, frame: _Frame, state: Any, args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        rec.counts["formats.bytes"] += len(result.encode("utf-8"))


def _iso_post(rec: Recorder, frame: _Frame, state: Any, args: tuple, kwargs: dict, result: Any) -> None:
    rec.counts["iso.isomorphic.calls"] += 1
    if result is True:
        rec.counts["iso.isomorphic.positive"] += 1


def _budget(args: tuple, kwargs: dict) -> Any:
    from cyclecert.domination import SearchBudget

    for value in (*args, *kwargs.values()):
        if isinstance(value, SearchBudget):
            return value
    return None


def _nodes_pre(args: tuple, kwargs: dict) -> tuple:
    budget = _budget(args, kwargs)
    return budget, budget.nodes if budget is not None else 0


def _nodes_post(rec: Recorder, frame: _Frame, state: Any, args: tuple, kwargs: dict, result: Any) -> None:
    budget, before = state
    if budget is not None:
        rec.counts[f"{frame.name}.nodes"] += budget.nodes - before


def _min_name(args: tuple, kwargs: dict) -> str:
    variant = _arg(args, kwargs, 1, "variant")
    return "domination.paired" if variant.value == "paired" else "domination.cover"


def _name(module: str, attr: str, **extra: Any) -> Layer:
    return Layer(module, attr, f"{module}.{attr}", **extra)


_CC = "cyclic_core"
_DOM = "domination"

LAYERS: tuple[Layer, ...] = (
    _name(_CC, "find_rotation", post=_find_rotation_post),
    _name(_CC, "verify_certificate", post=_entries),
    _name(_CC, "equality_certificate"),
    _name(_CC, "scan_rotation", post=_scan_post),
    _name(_CC, "prefix_condition_all_starts"),
    _name(_CC, "greedy_block_cover"),
    _name("formats", "certificate_to_json"),
    _name("formats", "certificate_from_json"),
    _name("formats", "dump_json", post=_bytes_post),
    Layer(_DOM, "min_parameter", _min_name, _nodes_pre, _nodes_post),
    Layer(_DOM, "max_minimal_parameter", "domination.upper_total", _nodes_pre, _nodes_post),
    Layer(_DOM, "prefix_pruned_search", "domination.prefix", _nodes_pre, _nodes_post),
    Layer(_DOM, "decide_parameter_via_prefix", "domination.prefix", _nodes_pre, _nodes_post),
    Layer(_DOM, "rd_prefix_pruned_search", "domination.rd", _nodes_pre, _nodes_post),
    _name("structures", "is_transitive_decomposition"),
    _name("structures", "is_transitive_partition"),
    _name("structures", "find_transitive_partition"),
    _name("structures", "cyclic_symmetry_violations"),
    _name("iso", "isomorphic", post=_iso_post),
    _name("tiles", "canonical_periodic_decomposition"),
    _name("tiles", "tile_close"),
    _name("crossing", "convex_drawing"),
    _name("crossing", "validate_drawing"),
    _name("crossing", "decomposition_weights"),
    _name("crossing", "prefix_cr_certificate"),
    _name("crossing", "jordan_parity_screen"),
    *(
        Layer("graphs", attr, "graphs.construct")
        for attr in ("cycle", "complete", "complete_bipartite", "cartesian_cycles", "circulant")
    ),
    _name("cli", "main"),
)


@contextmanager
def patch(rec: Recorder, layers: tuple[Layer, ...] = LAYERS) -> Iterator[Recorder]:
    """Wrap every layer function at every cyclecert binding, then restore."""
    undo: list[tuple[Any, str, Any]] = []
    try:
        for layer in layers:
            orig = getattr(importlib.import_module(f"cyclecert.{layer.module}"), layer.attr)
            wrapper = rec.wrap(layer, orig)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "cyclecert" and not name.startswith("cyclecert."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        yield rec
    finally:
        for mod, key, orig in reversed(undo):
            setattr(mod, key, orig)
