"""On-disk formats: graph, certificate, partition, decomposition and drawing
JSON, and the graph spec mini-language.

A graph is {"n": n, "edges": [[u, v], ...]}, vertices 0-based.  Graph specs
name a family (cycle:n, torus:m:n, circulant:n:a,b, complete:n, kmn:m:n) or
point with @path at a file holding a graph object.  A drawing holds its graph
inline, as that object, and names no other file.  Every file is read by
`load_json`.  Rationals are {"num": p, "den": q} objects so nothing is ever
rounded.  Integers in specs go through `parse_int`: ASCII decimal digits
with an optional sign; vertex ids and edges go through `graphs.read_id` and
`read_edge`, for a partition, decomposition or drawing in its constructor.
All parsers raise ValueError with a file- or field-specific message.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd
from typing import Any, Callable, Sequence, Union

from .crossing import AbstractDrawing
from .cyclic_core import (
    BoundSpec,
    CyclicList,
    Direction,
    EqualityCertificate,
    PrefixTable,
    RationalLike,
    RotationCertificate,
    common_denominator,
)
from .graphs import Graph, cartesian_cycles, circulant, complete, complete_bipartite, cycle, read_edge
from .structures import EdgeDecomposition, Piece, VertexPartition

__all__ = [
    "fraction_to_json",
    "fraction_from_json",
    "certificate_to_json",
    "certificate_from_json",
    "equality_to_json",
    "equality_from_json",
    "graph_to_json",
    "graph_from_json",
    "parse_int",
    "load_json",
    "parse_graph_spec",
    "partition_to_json",
    "partition_from_json",
    "decomposition_to_json",
    "decomposition_from_json",
    "drawing_to_json",
    "drawing_from_json",
    "dump_json",
]


def fraction_to_json(value: Fraction) -> dict[str, int]:
    value = Fraction(value)
    return {"num": value.numerator, "den": value.denominator}


def fraction_from_json(obj: Any) -> Fraction:
    if not isinstance(obj, dict) or set(obj) != {"num", "den"}:
        raise ValueError(f"expected a num/den object, got {obj!r}")
    num, den = obj["num"], obj["den"]
    if not isinstance(num, int) or not isinstance(den, int) or isinstance(num, bool) or isinstance(den, bool):
        raise ValueError(f"num/den must be integers, got {obj!r}")
    if den <= 0:
        raise ValueError(f"den must be positive, got {den}")
    return Fraction(num, den)


def certificate_to_json(cert: RotationCertificate, h: Fraction) -> dict[str, Any]:
    table = cert.prefix_sums
    den = table.den
    prefix = []
    for p in table.scaled:
        g = gcd(p, den)
        prefix.append({"num": p // g, "den": den // g})
    return {
        "direction": cert.direction.value,
        "k": cert.k,
        "n": cert.n,
        "h": fraction_to_json(h),
        "prefix": prefix,
    }


def certificate_from_json(
    doc: Any, xs: Union[CyclicList, Sequence[RationalLike], None] = None
) -> tuple[RotationCertificate, Fraction]:
    """The certificate and h of a document.

    Given the list the certificate is for, a prefix entry that is no integer
    over the list's D (`common_denominator` of the list and h) is refused
    with ValueError before the table is built: no prefix sum of the list has
    it.  Without the list nothing bounds the table's denominator, so a
    reader of untrusted documents passes it.
    """
    if not isinstance(doc, dict):
        raise ValueError("certificate document must be an object")
    try:
        direction = Direction(doc["direction"])
        k = doc["k"]
        n = doc["n"]
        h = fraction_from_json(doc["h"])
        raw = doc["prefix"]
    except KeyError as missing:
        raise ValueError(f"certificate document lacks field {missing}") from None
    if not isinstance(raw, list):
        raise ValueError(f"prefix must be a list of num/den objects, got {raw!r}")
    # The well-formed entry is tested inline, as the table runs to 10^5
    # entries; anything else goes to fraction_from_json, which words the error.
    nums = []
    dens = []
    for p in raw:
        if type(p) is dict and len(p) == 2:
            num, den = p.get("num"), p.get("den")
            if type(num) is int and type(den) is int and den > 0:
                nums.append(num)
                dens.append(den)
                continue
        value = fraction_from_json(p)
        nums.append(value.numerator)
        dens.append(value.denominator)
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not isinstance(n, int) or isinstance(n, bool) or n != len(nums):
        raise ValueError("n must match the prefix table length")
    within = None if xs is None else common_denominator(xs, h)
    table = PrefixTable.over(nums, dens, within)
    return RotationCertificate(direction=direction, k=k, prefix_sums=table), h


def equality_to_json(eq: EqualityCertificate, bound: BoundSpec) -> dict[str, Any]:
    return {
        "h": fraction_to_json(bound.h),
        "epsilon": fraction_to_json(bound.epsilon),
        "below": certificate_to_json(eq.below, bound.h + bound.epsilon),
        "above": certificate_to_json(eq.above, bound.h - bound.epsilon),
    }


def equality_from_json(
    doc: Any, xs: Union[CyclicList, Sequence[RationalLike], None] = None
) -> tuple[EqualityCertificate, BoundSpec]:
    """The equality certificate and bound of a document; `xs` as for
    `certificate_from_json`."""
    if not isinstance(doc, dict):
        raise ValueError("equality document must be an object")
    try:
        bound = BoundSpec(
            h=fraction_from_json(doc["h"]), epsilon=fraction_from_json(doc["epsilon"])
        )
        below, below_h = certificate_from_json(doc["below"], xs)
        above, above_h = certificate_from_json(doc["above"], xs)
    except KeyError as missing:
        raise ValueError(f"equality document lacks field {missing}") from None
    if below_h != bound.h + bound.epsilon or above_h != bound.h - bound.epsilon:
        raise ValueError("nudged bounds do not match h and epsilon")
    return EqualityCertificate(below=below, above=above), bound


def graph_to_json(g: Graph) -> dict[str, Any]:
    return {"n": g.n, "edges": [list(e) for e in g.edges()]}


def _read(read: Callable[..., Any], *args: Any) -> Any:
    # graphs' edge reader, or a structure or drawing constructor, on values
    # from a file: a bad id there is malformed input, so its TypeError is
    # ValueError
    try:
        return read(*args)
    except TypeError as err:
        raise ValueError(str(err)) from None


def _id_list(value: Any, where: str) -> list[Any]:
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list of vertex ids, got {value!r}")
    return value


def _list(doc: dict[str, Any], key: str) -> list[Any]:
    value = doc[key]
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def graph_from_json(obj: Any) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError("a graph must be an object with n and edges")
    n = obj["n"]
    if type(n) is not int:  # True is an int but not a vertex count
        raise ValueError(f"n must be an integer, got {n!r}")
    return Graph.from_edges(n, [_read(read_edge, e, "graph") for e in _list(obj, "edges")])


_DECIMAL_INT = re.compile(r"[+-]?[0-9]+")


def parse_int(text: str, where: str = "") -> int:
    """An integer in ASCII decimal digits with an optional sign, nothing else
    that `int()` would read: no underscores, padding or other scripts'
    digits.  `where` prefixes the error message."""
    if _DECIMAL_INT.fullmatch(text) is None:
        raise ValueError(f"{where}expected an integer in decimal digits, got {text!r}")
    return int(text)


def comma_items(text: str, where: str = "") -> list[str]:
    """The items of a comma list, each stripped of spaces; an empty item, as in
    `1,,2` or `1,2,`, is an input error rather than an item to drop."""
    items = [tok.strip() for tok in text.split(",")]
    if "" in items:
        raise ValueError(f"{where}empty item in the comma list {text!r}")
    return items


def load_json(path: str) -> Any:
    """The JSON document in a file; every way of failing to read one is a
    ValueError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ValueError(f"cannot read {path!r}: {err}") from None
    except json.JSONDecodeError as err:
        raise ValueError(f"{path!r} is not valid JSON: {err}") from None
    except RecursionError:
        raise ValueError(f"{path!r} nests too deeply to parse") from None


def parse_graph_spec(spec: str) -> Graph:
    """Resolve a graph spec string: a named family, or @path to a file holding
    the graph JSON that `graph_to_json` writes, read from the path as given."""
    text = spec.strip()
    if not text:
        raise ValueError("empty graph spec")
    if text.startswith("@"):
        return graph_from_json(load_json(text[1:]))
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    args = rest.split(":") if rest else []
    where = f"graph spec {spec!r}: "
    if kind == "cycle" and len(args) == 1:
        return cycle(parse_int(args[0], where))
    if kind == "torus" and len(args) == 2:
        return cartesian_cycles(parse_int(args[0], where), parse_int(args[1], where))
    if kind == "circulant" and len(args) == 2:
        strides = [parse_int(s, where) for s in comma_items(args[1], where)]
        return circulant(parse_int(args[0], where), strides)
    if kind == "complete" and len(args) == 1:
        return complete(parse_int(args[0], where))
    if kind == "kmn" and len(args) == 2:
        return complete_bipartite(parse_int(args[0], where), parse_int(args[1], where))
    raise ValueError(
        f"unknown graph spec {spec!r}; expected cycle:n, torus:m:n, "
        "circulant:n:a,b, complete:n, kmn:m:n, or @path"
    )


def partition_to_json(p: VertexPartition) -> dict[str, Any]:
    return {"parts": [sorted(part) for part in p.parts]}


def partition_from_json(doc: Any) -> VertexPartition:
    if not isinstance(doc, dict) or "parts" not in doc:
        raise ValueError("partition document must be an object with parts")
    return _read(VertexPartition, tuple(_id_list(p, "part") for p in _list(doc, "parts")))


def decomposition_to_json(d: EdgeDecomposition) -> dict[str, Any]:
    return {
        "pieces": [
            {
                "vertices": sorted(piece.vertices),
                "edges": [list(e) for e in sorted(piece.edges)],
            }
            for piece in d.pieces
        ]
    }


def decomposition_from_json(doc: Any) -> EdgeDecomposition:
    if not isinstance(doc, dict) or "pieces" not in doc:
        raise ValueError("decomposition document must be an object with pieces")
    pieces = []
    for obj in _list(doc, "pieces"):
        if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
            raise ValueError("each piece needs vertices and edges")
        pieces.append(Piece(_id_list(obj["vertices"], "piece"), _list(obj, "edges")))
    return _read(EdgeDecomposition, tuple(pieces))


def drawing_to_json(d: AbstractDrawing) -> dict[str, Any]:
    """Emit a drawing with its graph inlined."""
    return {
        "surface": "plane",
        "graph": graph_to_json(d.graph),
        "crossings": [[list(e), list(f)] for e, f in d.crossings],
    }


def drawing_from_json(doc: Any) -> AbstractDrawing:
    """The drawing `drawing_to_json` writes; its graph is the inline graph
    object, and a string there, spec or @path, is refused."""
    if not isinstance(doc, dict) or "graph" not in doc or "crossings" not in doc:
        raise ValueError("drawing document must be an object with graph and crossings")
    surface = doc.get("surface", "plane")
    if surface != "plane":
        raise ValueError(f"unsupported surface {surface!r}")
    return _read(AbstractDrawing, graph_from_json(doc["graph"]), _list(doc, "crossings"))


def dump_json(doc: Any) -> str:
    """One compact line: without an indent, json.dumps runs its C encoder.

    The cycle check is off.  It records the id of every list and dict on the
    way down, about a seventh of the dump of a 10^5-entry prefix table, and
    it only turns a document that contains itself into ValueError rather
    than RecursionError.  The `*_to_json` writers and the CLI handlers build
    every document fresh from new lists, dicts, strings and numbers, so none
    contains itself."""
    return json.dumps(doc, separators=(",", ":"), check_circular=False) + "\n"
