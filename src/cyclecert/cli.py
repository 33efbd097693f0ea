"""Command line front end.

Every command prints exactly one JSON document on stdout and exits 0 when
the object was found or the property verified, 1 when it was refuted or no
object exists, 2 on malformed input (a usage error included), 3 when a
search blew its budget.  The document is one compact line.
Every file a command reads, the graph behind @path included, is one JSON
document read by `formats.load_json`, and `generate` prints the graph JSON
that @path reads back.
`main` builds one `SearchBudget` per call from --budget-nodes and
--budget-seconds, and every search of the command spends it, so a
`reproduce` suite shares it across its instances.  The flags default to
`SearchBudget`'s caps, 10^7 nodes and 60 seconds, and to ten times them for
`reproduce`.  A negative node cap is malformed input.
Integer flags, and the integers inside specs and lists, go through
`formats.parse_int`: plain decimal digits with an optional sign, nothing
else that `int()` would read.  --budget-seconds takes plain decimals such
as 10 or 0.5, so a negative, infinite or NaN time cap is a usage error.
Rationals take an exponent of at most 4300 in absolute value.
The comma lists (--list, --order, --cycle-a, --cycle-b, and a circulant's
strides) share one tokenizer, `formats.comma_items`, which refuses an empty
item such as the middle one of `1,,2`.  `certify verify` hands the list to
the certificate reader, which refuses a prefix entry that no prefix sum of
the list can have before it builds the table.

The argparse tree is built once per process, on the first call of `main`,
and reused by every later call.  It holds no library function: handlers look
those up at call time, so rebinding a library name in this module takes effect
on the next call.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from typing import Any, Callable, NoReturn, Optional, Sequence

from .crossing import (
    Parity,
    convex_drawing,
    cr_total,
    jordan_parity_screen,
    prefix_cr_certificate,
    validate_drawing,
)
from .cyclic_core import (
    HALF,
    BoundSpec,
    Direction,
    as_fraction,
    cyclic_list,
    equality_certificate,
    find_rotation,
    total,
    verify_certificate,
)
from .domination import (
    SearchBudget,
    Variant,
    _decided,
    max_minimal_parameter,
    min_parameter,
    paired_value_c5,
    prefix_pruned_search,
    rd_prefix_pruned_search,
)
from .errors import BudgetExceededError
from .formats import (
    certificate_from_json,
    certificate_to_json,
    comma_items,
    decomposition_from_json,
    drawing_from_json,
    drawing_to_json,
    dump_json,
    equality_from_json,
    equality_to_json,
    graph_to_json,
    load_json,
    parse_graph_spec,
    parse_int,
    partition_from_json,
    partition_to_json,
)
from .graphs import cartesian_cycles, complete, complete_bipartite
from .structures import (
    columns_partition,
    find_shift,
    find_transitive_partition,
    is_transitive_decomposition,
    is_transitive_partition,
    star_decomposition_bipartite,
    star_decomposition_complete,
    validate_decomposition,
    validate_partition,
)

__all__ = ["main"]


def _int_arg(text: str) -> int:
    """An integer flag, read by `parse_int`."""
    try:
        return parse_int(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _count_arg(text: str) -> int:
    """A non-negative integer flag, read by `parse_int`."""
    count = _int_arg(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {count}")
    return count


def _seconds_arg(text: str) -> float:
    """A time cap: plain decimal digits with an optional fraction, nothing
    else that `float()` would read (a sign, an exponent, nan, inf, 1_0)."""
    if re.fullmatch(r"[0-9]+(\.[0-9]+)?", text) is None:
        raise argparse.ArgumentTypeError(f"expected seconds like 10 or 0.5, got {text!r}")
    return float(text)


def _add_budget_flags(p: argparse.ArgumentParser, scale: int = 1) -> None:
    """The budget flags, defaulting to scale times `SearchBudget`'s caps."""
    nodes, seconds = SearchBudget.max_nodes * scale, SearchBudget.max_seconds * scale
    p.add_argument("--budget-nodes", type=_count_arg, default=nodes, help="search node cap")
    p.add_argument("--budget-seconds", type=_seconds_arg, default=seconds, help="wall clock cap")


def _int_list(text: str) -> list[int]:
    return [parse_int(tok, f"in {text!r}: ") for tok in comma_items(text)]


def _rational_list(text: str) -> tuple[Fraction, ...]:
    return tuple([as_fraction(tok) for tok in comma_items(text)])


def _edge_list(text: str) -> list[tuple[int, int]]:
    edges = []
    for tok in comma_items(text):
        parts = tok.split("-")
        if len(parts) != 2:
            raise ValueError(f"expected edges like 0-1,1-2, got {tok!r}")
        u, v = (parse_int(end.strip(), f"in edge {tok!r}: ") for end in parts)
        edges.append((u, v))
    return edges


def _graph(args: argparse.Namespace):
    return parse_graph_spec(args.graph)


def _drawing(path: str):
    return drawing_from_json(load_json(path))


def _partition_arg(text: str) -> Any:
    """A partition: columns:m:n shorthand or a JSON file path."""
    if not text.startswith("columns:"):
        return partition_from_json(load_json(text))
    try:
        _, m, n = text.split(":")
        rows, cols = parse_int(m), parse_int(n)
    except ValueError:
        raise ValueError(f"expected columns:m:n with m and n in decimal digits, got {text!r}") from None
    return columns_partition(rows, cols)


# --- certify ---------------------------------------------------------------


def _cmd_certify_sum(args: argparse.Namespace) -> tuple[Any, int]:
    if args.epsilon is not None and args.direction != "equality":
        raise ValueError(f"--epsilon belongs to --direction equality alone, not {args.direction}")
    xs = cyclic_list(_rational_list(args.list))
    h = as_fraction(args.h)
    if args.direction == "equality":
        bound = BoundSpec(h) if args.epsilon is None else BoundSpec(h, args.epsilon)
        eq = equality_certificate(xs, bound)
        if eq is None:
            return {"found": False, "total": str(total(xs)), "h": str(h)}, 1
        return {"found": True, "equality": equality_to_json(eq, bound)}, 0
    direction = Direction(args.direction)
    cert = find_rotation(xs, h, direction)
    if cert is None:
        return {"found": False, "total": str(total(xs)), "h": str(h)}, 1
    return {"found": True, "certificate": certificate_to_json(cert, h)}, 0


def _cmd_certify_verify(args: argparse.Namespace) -> tuple[Any, int]:
    xs = cyclic_list(_rational_list(args.list))
    doc = load_json(args.certificate)
    # accept the wrapper that `certify sum` emits, so output pipes back in
    if isinstance(doc, dict) and "certificate" in doc:
        doc = doc["certificate"]
    elif isinstance(doc, dict) and "equality" in doc:
        doc = doc["equality"]
    if isinstance(doc, dict) and "below" in doc and "above" in doc:
        eq, bound = equality_from_json(doc, xs)
        ok_below = verify_certificate(xs, bound.h + bound.epsilon, eq.below)
        ok_above = verify_certificate(xs, bound.h - bound.epsilon, eq.above)
        matches = total(xs) == bound.h
        verified = ok_below and ok_above and matches
        return {
            "verified": verified,
            "below_ok": ok_below,
            "above_ok": ok_above,
            "total_equals_h": matches,
        }, 0 if verified else 1
    cert, h = certificate_from_json(doc, xs)
    verified = verify_certificate(xs, h, cert)
    return {"verified": verified}, 0 if verified else 1


# --- domination ------------------------------------------------------------


def _solver(mode: str) -> Callable[..., Any]:
    """The exact solver of a `domination solve --mode`.  The name is read
    from this module at call time, so a rebound `min_parameter` or
    `max_minimal_parameter` here is the one called."""
    return min_parameter if mode == "min" else max_minimal_parameter


def _cmd_domination_solve(args: argparse.Namespace) -> tuple[Any, int]:
    g = _graph(args)
    variant = Variant(args.variant)
    report = _solver(args.mode)(g, variant, args.budget)
    return {
        "graph": args.graph,
        "variant": variant.value,
        "mode": args.mode,
        "value": report.value,
        "witness": list(report.witness),
        "nodes_explored": report.nodes_explored,
    }, 0


def _cmd_domination_corollary(args: argparse.Namespace) -> tuple[Any, int]:
    variant = Variant(args.variant)
    if args.rd and variant is not Variant.DOMINATING:
        raise ValueError("--rd weighs dominating sets only")
    g = _graph(args)
    partition = _partition_arg(args.partition)
    shift = find_shift(g, partition, args.budget)
    if shift is None:
        raise ValueError(
            "the partition has no shift: no automorphism carries each part onto the next"
        )

    def search(h: int) -> Optional[frozenset[int]]:
        if args.rd:
            return rd_prefix_pruned_search(g, partition, shift, h, args.budget)
        return prefix_pruned_search(g, partition, shift, variant, h, args.budget)

    if args.mode == "search":
        found = search(args.h)
        doc: dict[str, Any] = {"h": args.h, "found": found is not None}
        if found is not None:
            doc["witness"] = sorted(found)
        return doc, 0 if found is not None else 1
    decided = _decided(search, args.h)
    return {"h": args.h, "equals": decided}, 0 if decided else 1


# --- partition / decomposition ---------------------------------------------


def _decomposition(path: str):
    return decomposition_from_json(load_json(path))


def _cmd_structure_check(args: argparse.Namespace) -> tuple[Any, int]:
    """`partition check` and `decomposition check`."""
    # chosen per call, not stored in the cached parser, so that a rebound
    # module name is the one called
    load, validate, key, is_transitive = (
        (_partition_arg, validate_partition, "parts", is_transitive_partition)
        if args.command == "partition"
        else (_decomposition, validate_decomposition, "pieces", is_transitive_decomposition)
    )
    g = _graph(args)
    structure = load(getattr(args, args.command))  # --partition or --decomposition
    if not args.transitive:
        validate(g, structure)
        return {"valid": True, key: len(getattr(structure, key))}, 0
    transitive = is_transitive(g, structure, args.budget)  # validates it first
    doc = {"valid": True, key: len(getattr(structure, key)), "transitive": transitive}
    return doc, 0 if transitive else 1


def _cmd_partition_find(args: argparse.Namespace) -> tuple[Any, int]:
    g = _graph(args)
    found = find_transitive_partition(g, args.t, args.budget)
    if found is None:
        return {"found": False, "t": args.t}, 1
    return {"found": True, "t": args.t, **partition_to_json(found)}, 0


# --- drawing ----------------------------------------------------------------


def _cmd_drawing_check(args: argparse.Namespace) -> tuple[Any, int]:
    d = _drawing(args.drawing)
    problems = validate_drawing(d)
    if problems:
        return {
            "valid": False,
            "violations": [{"kind": v.kind, "message": v.message} for v in problems],
        }, 1
    return {"valid": True, "cr_total": cr_total(d)}, 0


def _cmd_drawing_convex(args: argparse.Namespace) -> tuple[Any, int]:
    g = _graph(args)
    order = _int_list(args.order) if args.order else None
    d = convex_drawing(g, order)
    doc = drawing_to_json(d)
    doc["cr_total"] = cr_total(d)
    return doc, 0


def _cmd_drawing_parity(args: argparse.Namespace) -> tuple[Any, int]:
    d = _drawing(args.drawing)
    parity = jordan_parity_screen(d, _edge_list(args.cycle_a), _edge_list(args.cycle_b))
    return {"parity": parity.value}, 0 if parity is Parity.EVEN else 1


def _cmd_drawing_certify(args: argparse.Namespace) -> tuple[Any, int]:
    d = _drawing(args.drawing)
    decomposition = _decomposition(args.pieces)
    direction = Direction(args.direction)
    cert = prefix_cr_certificate(d, decomposition, args.h, direction)
    if cert is None:
        return {"found": False, "cr_total": cr_total(d), "h": str(args.h)}, 1
    bound = args.h + HALF if direction is Direction.BELOW else args.h - HALF
    return {"found": True, "certificate": certificate_to_json(cert, bound)}, 0


# --- generate / reproduce ----------------------------------------------------


def _cmd_generate(args: argparse.Namespace) -> tuple[Any, int]:
    return graph_to_json(_graph(args)), 0


# The paper's two domination values, by suite: t1 is the paired value of
# C5 x Cn, n4 the upper total value of C4 x Cn.  A row holds the torus rows,
# the variant, the solver's --mode, the paper's value at n, and the n of a
# full and of a --quick run.
_PAPER_VALUES = {
    "t1": (5, Variant.PAIRED, "min", paired_value_c5, (3, 4, 5, 6), (3, 4)),
    "n4": (4, Variant.TOTAL, "max-minimal", lambda n: 2 * n, (3, 4, 5), (3,)),
}


def _reproduce_paper_values(args: argparse.Namespace) -> tuple[Any, int]:
    rows, variant, mode, expected, full, quick = _PAPER_VALUES[args.suite]
    solve = _solver(mode)
    results = []
    for n in (args.n,) if args.n is not None else quick if args.quick else full:
        report = solve(cartesian_cycles(rows, n), variant, args.budget)
        value = expected(n)
        results.append(
            {
                "n": n,
                "value": report.value,
                "expected": value,
                "match": report.value == value,
                "witness": list(report.witness),
            }
        )
    ok = all(r["match"] for r in results)
    return {"suite": args.suite, "results": results, "ok": ok}, 0 if ok else 1


def _reproduce_structures(quick: bool, budget: SearchBudget) -> tuple[Any, int]:
    results = []

    def record(name: str, ok: bool) -> None:
        results.append({"name": name, "ok": ok})

    pairs = [(2, 2), (2, 3)] if quick else [(m, n) for m in (2, 3, 4) for n in (2, 3, 4)]
    for m, n in pairs:
        g = complete_bipartite(m, n)
        dec = star_decomposition_bipartite(m, n)
        record(
            f"star decomposition of K_{m},{n} is transitive",
            is_transitive_decomposition(g, dec, budget),
        )
    if not quick:
        g13 = complete(13)
        record(
            "star decomposition of K_13 is transitive",
            is_transitive_decomposition(g13, star_decomposition_complete(13), budget),
        )
    for m, n in [(3, 3)] if quick else [(3, 3), (3, 4), (4, 3), (4, 4)]:
        g = cartesian_cycles(m, n)
        record(
            f"column partition of the {m}x{n} torus is transitive",
            is_transitive_partition(g, columns_partition(m, n), budget),
        )
    g23 = complete_bipartite(2, 3)
    for t in (2, 3) if quick else (2, 3, 4, 5):
        record(
            f"K_2,3 has no transitive partition into {t} classes",
            find_transitive_partition(g23, t, budget) is None,
        )
    ok = all(r["ok"] for r in results)
    return {"suite": "structures", "results": results, "ok": ok}, 0 if ok else 1


def _cmd_reproduce(args: argparse.Namespace) -> tuple[Any, int]:
    if args.suite == "structures":
        if args.n is not None:
            raise ValueError("--n goes with --suite t1 or n4")
        return _reproduce_structures(args.quick, args.budget)
    return _reproduce_paper_values(args)


# --- parser -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors become ValueError, so they exit 2 with a JSON error like
    any other malformed input instead of printing usage to stderr."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cyclecert",
        description="rotation certificates for cyclic sums and their graph corollaries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    certify = sub.add_parser("certify", help="sum certificates").add_subparsers(
        dest="subcommand", required=True
    )
    p = certify.add_parser("sum", help="find a rotation or equality certificate")
    p.add_argument("--list", required=True, help="comma-separated rationals, e.g. 1,3/2,-2")
    p.add_argument("--h", required=True, help="bound, a rational like 5/2")
    p.add_argument("--direction", choices=[*(d.value for d in Direction), "equality"],
                   default="below")
    p.add_argument("--epsilon", default=None,
                   help="nudge for equality certificates only, 1/2 when omitted")
    p.set_defaults(handler=_cmd_certify_sum)
    p = certify.add_parser("verify", help="check a stored certificate against a list")
    p.add_argument("--list", required=True)
    p.add_argument("--certificate", required=True, help="certificate JSON file")
    p.set_defaults(handler=_cmd_certify_verify)

    dom = sub.add_parser("domination", help="exact domination solvers").add_subparsers(
        dest="subcommand", required=True
    )
    p = dom.add_parser("solve", help="exact minimum or maximum-minimal size")
    p.add_argument("--graph", required=True, help="graph spec, e.g. torus:5:3 or @file")
    p.add_argument("--variant", choices=[v.value for v in Variant], default="dominating")
    p.add_argument("--mode", choices=["min", "max-minimal"], default="min")
    _add_budget_flags(p)
    p.set_defaults(handler=_cmd_domination_solve)
    p = dom.add_parser("corollary", help="prefix-pruned search or size decision")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True, help="columns:m:n or a partition JSON file")
    p.add_argument("--variant", choices=[v.value for v in Variant], default="dominating")
    p.add_argument("--h", type=_int_arg, required=True)
    p.add_argument("--mode", choices=["search", "decide"], default="decide")
    p.add_argument("--rd", action="store_true",
                   help="use redundancy counts instead of sizes (dominating sets only)")
    _add_budget_flags(p)
    p.set_defaults(handler=_cmd_domination_corollary)

    part = sub.add_parser("partition", help="vertex partitions").add_subparsers(
        dest="subcommand", required=True
    )
    p = part.add_parser("check", help="validate, optionally test transitivity")
    p.add_argument("--graph", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--transitive", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(handler=_cmd_structure_check)
    p = part.add_parser("find", help="search for a transitive partition into t classes")
    p.add_argument("--graph", required=True)
    p.add_argument("--t", type=_int_arg, required=True)
    _add_budget_flags(p)
    p.set_defaults(handler=_cmd_partition_find)

    dec = sub.add_parser("decomposition", help="edge decompositions").add_subparsers(
        dest="subcommand", required=True
    )
    p = dec.add_parser("check", help="validate, optionally test transitivity")
    p.add_argument("--graph", required=True)
    p.add_argument("--decomposition", required=True, help="decomposition JSON file")
    p.add_argument("--transitive", action="store_true")
    _add_budget_flags(p)
    p.set_defaults(handler=_cmd_structure_check)

    draw = sub.add_parser("drawing", help="combinatorial drawings").add_subparsers(
        dest="subcommand", required=True
    )
    p = draw.add_parser("check", help="good-drawing rules")
    p.add_argument("--drawing", required=True, help="drawing JSON file")
    p.set_defaults(handler=_cmd_drawing_check)
    p = draw.add_parser("convex", help="crossings of a circle drawing")
    p.add_argument("--graph", required=True)
    p.add_argument("--order", default=None, help="comma-separated vertex order")
    p.set_defaults(handler=_cmd_drawing_convex)
    p = draw.add_parser("parity", help="crossing parity of two disjoint cycles")
    p.add_argument("--drawing", required=True)
    p.add_argument("--cycle-a", required=True, help="edges like 0-1,1-2,2-0")
    p.add_argument("--cycle-b", required=True)
    p.set_defaults(handler=_cmd_drawing_parity)
    p = draw.add_parser("certify", help="prefix certificate on piece weights")
    p.add_argument("--drawing", required=True)
    p.add_argument("--pieces", required=True, help="decomposition JSON file")
    p.add_argument("--h", type=_int_arg, required=True, help="integer crossing bound")
    p.add_argument("--direction", choices=[d.value for d in Direction], default="below")
    p.set_defaults(handler=_cmd_drawing_certify)

    p = sub.add_parser("generate", help="emit a graph from a spec")
    p.add_argument("--graph", required=True)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("reproduce", help="re-run a verification suite")
    p.add_argument("--suite", choices=[*_PAPER_VALUES, "structures"], required=True)
    size = p.add_mutually_exclusive_group()
    size.add_argument("--quick", action="store_true", help="smaller instances only")
    size.add_argument("--n", type=_int_arg, default=None,
                      help="the t1 or n4 torus with n columns alone, n >= 3")
    _add_budget_flags(p, 10)
    p.set_defaults(handler=_cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if hasattr(args, "budget_nodes"):
            args.budget = SearchBudget(max_nodes=args.budget_nodes, max_seconds=args.budget_seconds)
        doc, code = args.handler(args)
        # inside the try: encoding can fail too, say on an integer past
        # Python's int-to-str digit limit
        sys.stdout.write(dump_json(doc))
        return code
    except BudgetExceededError as err:
        sys.stdout.write(dump_json({"error": "budget exceeded", "detail": str(err)}))
        return 3
    except ValueError as err:
        sys.stdout.write(dump_json({"error": "invalid input", "detail": str(err)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
