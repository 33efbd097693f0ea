"""The four benchmark workloads, built from a seed.

`build(workload, seed, size, out_dir)` generates every input up front and returns the
fixed list of operations one pass runs.  Each operation is a closed call
into the library's public API plus a check of its answer against
`oracles`; the harness times the call and runs the check outside the timed
region.  Functions are looked up on their modules at call time, so the
traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

from cyclecert import cli, crossing, cyclic_core, domination, formats, graphs, iso, structures, tiles

import oracles
from oracles import ABOVE, BELOW, Scaled

# A budget no correct search here comes near; running out of it is a failure.
BUDGET_NODES = 50_000_000
BUDGET_SECONDS = 120.0


@dataclass
class Op:
    """One closed-loop operation: the timed call and the check of its answer.

    `entries` is how many input entries the call carries (list entries for
    the certificate workloads, graph edges for the others).  `cli` marks
    calls through `cli.main`, which make up `reproduce_s`.  `count` pulls
    exact counts (search nodes per instance) out of the answer.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    entries: int
    cli: bool = False
    count: Optional[Callable[[Any], dict[str, int]]] = None


def _budget() -> domination.SearchBudget:
    return domination.SearchBudget(max_nodes=BUDGET_NODES, max_seconds=BUDGET_SECONDS)


def _batch(name: str, parts: list[Op]) -> Op:
    """Several calls as one operation, so that seed-dependent instances are
    timed together and their sum, not each one, sets the latency."""

    def check(answers: list) -> Optional[str]:
        for part, answer in zip(parts, answers):
            bad = part.check(answer)
            if bad:
                return f"{part.name}: {bad}"
        return None

    def count(answers: list) -> dict[str, int]:
        out: dict[str, int] = {}
        for part, answer in zip(parts, answers):
            out.update(part.count(answer) if part.count else {})
        return out

    return Op(name, lambda: [part.run() for part in parts], check, sum(p.entries for p in parts), count=count)


def _dir(name: str) -> cyclic_core.Direction:
    return cyclic_core.Direction(name)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run `cli.main` in-process; return its exit code and its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 2
    return code, out.getvalue()


class _Case:
    """A generated list with its oracle view, built on first check."""

    def __init__(self, values: tuple[Fraction, ...]):
        self.values = values
        self._scaled: Optional[Scaled] = None

    @property
    def scaled(self) -> Scaled:
        if self._scaled is None:
            self._scaled = Scaled(self.values)
        return self._scaled


# --- certificates ------------------------------------------------------------


def _rotation_op(name: str, case: _Case, h: Fraction) -> Op:
    """find_rotation in both directions at one bound, verifying each answer."""

    def run() -> Any:
        out = []
        for direction in (BELOW, ABOVE):
            cert = cyclic_core.find_rotation(case.values, h, _dir(direction))
            ok = cyclic_core.verify_certificate(case.values, h, cert) if cert is not None else None
            out.append((cert, ok))
        return out

    def check(answer: Any) -> Optional[str]:
        for direction, (cert, ok) in zip((BELOW, ABOVE), answer):
            bad = oracles.rotation_reason(case.scaled, h, direction, cert)
            if bad:
                return bad
            if cert is not None and ok is not True:
                return f"verify_certificate rejects a right {direction} certificate"
        return None

    return Op(name, run, check, len(case.values))


def _find_op(name: str, case: _Case, h: Fraction, direction: str) -> Op:
    """find_rotation in one direction, verifying a returned certificate."""

    def run() -> Any:
        cert = cyclic_core.find_rotation(case.values, h, _dir(direction))
        return cert, cert is not None and cyclic_core.verify_certificate(case.values, h, cert)

    def check(answer: Any) -> Optional[str]:
        cert, ok = answer
        bad = oracles.rotation_reason(case.scaled, h, direction, cert)
        if bad or cert is None:
            return bad
        return None if ok is True else "verify_certificate rejects a right certificate"

    return Op(name, run, check, len(case.values))


def _equality_op(name: str, case: _Case, h: Fraction, eps: Fraction) -> Op:
    bound = cyclic_core.BoundSpec(h=h, epsilon=eps)

    def run() -> Any:
        eq = cyclic_core.equality_certificate(case.values, bound)
        if eq is None:
            return None, None
        ok = cyclic_core.verify_certificate(case.values, h + eps, eq.below) and (
            cyclic_core.verify_certificate(case.values, h - eps, eq.above)
        )
        return eq, ok

    def check(answer: Any) -> Optional[str]:
        eq, ok = answer
        bad = oracles.equality_reason(case.scaled, h, eps, eq)
        if bad:
            return bad
        if eq is not None and ok is not True:
            return "verify_certificate rejects a right equality certificate"
        return None

    return Op(name, run, check, len(case.values))


def _round_trip_op(name: str, case: _Case, h: Fraction, direction: str) -> Op:
    """find, verify, JSON out and back in, and verify the parsed copy."""

    def run() -> Any:
        cert = cyclic_core.find_rotation(case.values, h, _dir(direction))
        if cert is None:
            return None, None, None, None
        first = cyclic_core.verify_certificate(case.values, h, cert)
        text = formats.dump_json(formats.certificate_to_json(cert, h))
        back, back_h = formats.certificate_from_json(json.loads(text))
        second = cyclic_core.verify_certificate(case.values, back_h, back) and back_h == h
        return cert, first, back, second

    def check(answer: Any) -> Optional[str]:
        cert, first, back, second = answer
        bad = oracles.rotation_reason(case.scaled, h, direction, cert)
        if bad or cert is None:
            return bad
        if first is not True or second is not True:
            return "verify_certificate rejects a right certificate"
        if back != cert:
            return "JSON round trip changed the certificate"
        return None

    return Op(name, run, check, len(case.values))


def _cli_op(name: str, case: _Case, h: Fraction, direction: str, path: str) -> Op:
    """`certify sum` then, on success, `certify verify` on the saved output."""
    listing = "--list=" + ",".join(str(v) for v in case.values)

    def run() -> Any:
        argv = ["certify", "sum", listing, f"--h={h}", f"--direction={direction}"]
        summed = call_cli(argv)
        verified = (None, "{}")
        if summed[0] == 0:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(summed[1])
            verified = call_cli(["certify", "verify", listing, "--certificate", path])
        return summed, verified

    def check(answer: Any) -> Optional[str]:
        return oracles.cli_certify_reason(case.scaled, h, direction, answer)

    return Op(name, run, check, len(case.values), cli=True)


def _small_list(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n))


def _mixed_list(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    dens = (1, 2, 3, 4, 5, 6, 8, 12)
    return tuple(Fraction(rng.randint(-50, 50), rng.choice(dens)) for _ in range(n))


def _int_list(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-50, 50)) for _ in range(n))


# Offsets of the off-total equality requests, cycled over the lists; with
# epsilon 1/2, the +1/8 offset is closer to the total than epsilon.
_OFF_TOTAL = (Fraction(1), Fraction(-1), Fraction(1, 8), Fraction(-3, 4))
_HALF = Fraction(1, 2)


def certify_small(seed: int, size: str, out_dir: str) -> list[Op]:
    rng = random.Random(seed)
    lists, round_trips = {"full": (1000, 50), "tiny": (8, 2)}[size]
    ops = []
    for i in range(lists):
        # Lengths cycle through 1..12 so that the cost of a pass does not
        # depend on the seed; the entries and the random bound do.
        case = _Case(_small_list(rng, 1 + i % 12))
        s = case.scaled.total
        extra = s + Fraction(rng.randint(-16, 16), rng.choice((1, 2, 3, 4, 6, 8)))
        for h in (s - 1, s - _HALF, s, s + _HALF, s + 1, extra):
            ops.append(_rotation_op(f"rotation list{i} h={h}", case, h))
        for eps in (Fraction(1, 4), _HALF, Fraction(3, 4)):
            ops.append(_equality_op(f"equality list{i} eps={eps}", case, s, eps))
        off = s + _OFF_TOTAL[i % len(_OFF_TOTAL)]
        ops.append(_equality_op(f"equality list{i} off-total h={off}", case, off, _HALF))
    path = os.path.join(out_dir, "cli-small.json")
    for i in range(round_trips):
        case = _Case(_small_list(rng, 1 + i % 12))
        s = case.scaled.total
        direction, h = ((BELOW, s + 1), (ABOVE, s - 1), ("equality", s))[i % 3]
        ops.append(_cli_op(f"cli certify {direction} list{i}", case, h, direction, path))
    return ops


def certify_large(seed: int, size: str, out_dir: str) -> list[Op]:
    rng = random.Random(seed)
    params = {
        "full": dict(sizes=(1000, 10_000, 100_000), equality=(1000, 10_000), starts=(100, 300, 1000), cli=1000),
        "tiny": dict(sizes=(50, 200), equality=(50,), starts=(20,), cli=20),
    }[size]
    ops = []
    for n in params["sizes"]:
        case = _Case(_mixed_list(rng, n))
        s = case.scaled.total
        ops.append(_round_trip_op(f"below n={n} h=s+1", case, s + 1, BELOW))
        # At the largest size the above direction skips the JSON round trip,
        # which keeps one pass short enough to repeat within a run.
        if n < 100_000:
            ops.append(_round_trip_op(f"above n={n} h=s-1", case, s - 1, ABOVE))
        else:
            ops.append(_find_op(f"above n={n} h=s-1", case, s - 1, ABOVE))
        ops.append(_find_op(f"below n={n} h=s-1", case, s - 1, BELOW))
        ops.append(_find_op(f"above n={n} h=s+1", case, s + 1, ABOVE))
    for n in params["equality"]:
        case = _Case(_int_list(rng, n))
        ops.append(_equality_op(f"equality n={n}", case, case.scaled.total, _HALF))
    for n in params["starts"]:
        # Their cost follows the seeded witness lengths, so they are timed as
        # one operation per size.
        ops.append(_batch(f"all-starts and greedy cover n={n}", _starts_ops(n, _Case(_small_list(rng, n)))))
    path = os.path.join(out_dir, "cli-large.json")
    case = _Case(_mixed_list(rng, params["cli"]))
    s = case.scaled.total
    ops.append(_cli_op(f"cli certify below n={case.scaled.n}", case, s + 1, BELOW, path))
    ops.append(_cli_op(f"cli certify above n={case.scaled.n}", case, s - 1, ABOVE, path))
    eq_case = _Case(_int_list(rng, params["cli"]))
    ops.append(_cli_op(f"cli certify equality n={eq_case.scaled.n}", eq_case, eq_case.scaled.total, "equality", path))
    return ops


def _starts_ops(n: int, case: _Case) -> list[Op]:
    """prefix_condition_all_starts both ways at h = s, and a greedy cover."""
    s = case.scaled.total
    ops = []
    for geq, h in ((True, s), (False, s), (True, s + 1)):
        goal = cyclic_core.PrefixGoal.GEQ_SOMEWHERE if geq else cyclic_core.PrefixGoal.LEQ_SOMEWHERE

        def run(h: Fraction = h, goal: Any = goal) -> Any:
            return cyclic_core.prefix_condition_all_starts(case.values, h, goal)

        def check(answer: Any, h: Fraction = h, geq: bool = geq) -> Optional[str]:
            return oracles.all_starts_reason(case.scaled, h, geq, answer)

        ops.append(Op(f"all-starts {goal.value} n={n} h={'s' if h == s else 's+1'}", run, check, n))
    c = s / n

    def cover() -> Any:
        return cyclic_core.greedy_block_cover(case.values, c, 1)

    ops.append(Op(f"greedy cover n={n}", cover, lambda ans: oracles.block_cover_reason(case.scaled, c, 1, ans), n))
    return ops


# --- searches ----------------------------------------------------------------


def _relabel(g: graphs.Graph, rng: random.Random) -> graphs.Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graphs.Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _solve_op(name: str, g: graphs.Graph, solve: Callable, check: Callable[[Any], Optional[str]]) -> Op:
    def run() -> Any:
        budget = _budget()
        return solve(g, budget), budget.nodes

    return Op(name, run, lambda ans: check(ans[0]), g.edge_count, count=lambda ans: {name: ans[1]})


def _min_op(label: str, g: graphs.Graph, variant: str, expected: int) -> Op:
    def solve(g: graphs.Graph, budget: Any) -> Any:
        return domination.min_parameter(g, domination.Variant(variant), budget)

    def check(report: Any) -> Optional[str]:
        if report.value != expected:
            return f"{variant} minimum {report.value}, expected {expected}"
        if variant == "paired":
            return oracles.paired_reason(g, report.witness, expected)
        return oracles.cover_reason(g, variant == "total", report.witness, expected)

    return _solve_op(f"min {variant} {label}", g, solve, check)


def _upper_total_op(n: int) -> Op:
    g = graphs.cartesian_cycles(4, n)

    def solve(g: graphs.Graph, budget: Any) -> Any:
        return domination.max_minimal_parameter(g, domination.Variant.TOTAL, budget)

    def check(report: Any) -> Optional[str]:
        if report.value != 2 * n:
            return f"upper total {report.value}, expected {2 * n}"
        return oracles.minimal_total_reason(g, report.witness, 2 * n)

    return _solve_op(f"upper total C4xC{n}", g, solve, check)


def _decide_op(n: int, variant: str, h: int, expected: bool) -> Op:
    g = graphs.cartesian_cycles(5, n)
    part = structures.columns_partition(5, n)
    shift = structures.column_shift_symmetry(5, n)

    def solve(g: graphs.Graph, budget: Any) -> Any:
        return domination.decide_parameter_via_prefix(g, part, shift, domination.Variant(variant), h, budget=budget)

    def check(answer: Any) -> Optional[str]:
        return None if answer is expected else f"decided {answer} for {variant} h={h}, expected {expected}"

    return _solve_op(f"decide {variant} C5xC{n} h={h}", g, solve, check)


def _rd_op(n: int, h: int, gamma: int) -> Op:
    g = graphs.cartesian_cycles(5, n)
    part = structures.columns_partition(5, n)
    shift = structures.column_shift_symmetry(5, n)

    def solve(g: graphs.Graph, budget: Any) -> Any:
        return domination.rd_prefix_pruned_search(g, part, shift, h, budget=budget)

    def check(found: Any) -> Optional[str]:
        if h < gamma:
            return None if found is None else f"redundancy search found a set below the minimum {gamma}"
        if found is None:
            return f"redundancy search found nothing at h={h}"
        members = sorted(found)
        if len(members) > h:
            return f"redundancy witness has {len(members)} > {h} vertices"
        return oracles.cover_reason(g, False, members, len(members))

    return _solve_op(f"rd C5xC{n} h={h}", g, solve, check)


def _reproduce_op(suite: str, quick: bool) -> Op:
    argv = ["reproduce", "--suite", suite] + (["--quick"] if quick else [])

    def check(answer: Any) -> Optional[str]:
        code, out = answer
        doc = json.loads(out)
        if code != 0 or doc.get("ok") is not True:
            return f"reproduce {suite} exited {code}"
        for r in doc["results"]:
            if suite == "t1":
                n = r["n"]
                g = graphs.cartesian_cycles(5, n)
                bad = r["value"] != oracles.paired_c5(n) and "wrong paired value"
                bad = bad or oracles.paired_reason(g, r["witness"], r["value"])
            elif suite == "n4":
                n = r["n"]
                bad = r["value"] != 2 * n and "wrong upper total value"
                bad = bad or oracles.minimal_total_reason(graphs.cartesian_cycles(4, n), r["witness"], 2 * n)
            else:
                bad = r["ok"] is not True and r["name"]
            if bad:
                return f"reproduce {suite}: {bad}"
        return None

    return Op(f"cli reproduce {suite}", lambda: call_cli(argv), check, 0, cli=True)


def search_tori(seed: int, size: str, out_dir: str) -> list[Op]:
    rng = random.Random(seed)
    tiny = size == "tiny"
    ops = []
    for n in range(3, 6 if tiny else 14):
        ops.append(_min_op(f"C5xC{n}", graphs.cartesian_cycles(5, n), "paired", oracles.paired_c5(n)))
    for n in (3,) if tiny else (3, 4, 5):
        ops.append(_upper_total_op(n))
    canonical = (("dominating", 5, 5),) if tiny else (("dominating", 7, 7), ("total", 7, 7), ("total", 8, 8))
    for variant, m, n in canonical:
        ops.append(_min_op(f"C{m}xC{n}", graphs.cartesian_cycles(m, n), variant, oracles.KNOWN_MINIMA[variant, m, n]))
    # Relabelled copies: a speed-up that leans on canonical vertex ids shows
    # here.  Several small ones per pass keep the seed-to-seed spread of the
    # pass time low.
    for m, n in ((5, 5),) if tiny else ((6, 7), (7, 6)):
        parts = []
        for i in range(1 if tiny else 4):
            for variant in ("dominating", "total"):
                g = _relabel(graphs.cartesian_cycles(m, n), rng)
                expected = oracles.KNOWN_MINIMA[variant, m, n]
                parts.append(_min_op(f"C{m}xC{n} relabelled#{i}", g, variant, expected))
        ops.append(_batch(f"min relabelled C{m}xC{n}", parts))
    for n in (5,) if tiny else (5, 6, 7):
        for variant in ("dominating", "paired"):
            h = oracles.KNOWN_MINIMA["dominating", 5, n] if variant == "dominating" else oracles.paired_c5(n)
            ops.append(_decide_op(n, variant, h, True))
    ops.append(_decide_op(5, "dominating", 6, False))
    for n in (5,) if tiny else (5, 6):
        gamma = oracles.KNOWN_MINIMA["dominating", 5, n]
        ops.append(_rd_op(n, gamma, gamma))
        ops.append(_rd_op(n, gamma - 1, gamma))
    for suite in ("t1", "n4", "structures"):
        ops.append(_reproduce_op(suite, tiny))
    return ops


# --- structures and crossings ------------------------------------------------


def _truth_op(name: str, g: graphs.Graph, run: Callable[[], Any], expected: Any) -> Op:
    def check(answer: Any) -> Optional[str]:
        return None if answer == expected else f"answered {answer!r}, expected {expected!r}"

    return Op(name, run, check, g.edge_count)


def _rotated(parts: tuple, rng: random.Random) -> tuple:
    """The same cyclic order started at a seeded part; transitivity is kept."""
    k = rng.randrange(len(parts))
    return parts[k:] + parts[:k]


def _partition_op(g: graphs.Graph, label: str, t: int, exists: bool) -> Op:
    def check(found: Any) -> Optional[str]:
        if found is None:
            return f"no transitive partition of {label} into {t}" if exists else None
        if not exists:
            return f"transitive partition of {label} into {t} that cannot exist"
        if len(found.parts) != t or sorted(v for p in found.parts for v in p) != list(range(g.n)):
            return "found partition does not split the vertices into t classes"
        if not structures.is_transitive_partition(g, found):
            return "found partition is not transitive"
        return None

    return Op(f"find partition {label} t={t}", lambda: structures.find_transitive_partition(g, t), check, g.edge_count)


def _drawing_op(k: int, rng: random.Random, shuffle: bool) -> Op:
    """Convex drawing of circulant(4k; 1, 4), then every check on it."""
    n = 4 * k
    g = graphs.circulant(n, [1, 4])
    dec = structures.circulant14_decomposition(k)
    order = list(range(n))
    if shuffle:
        rng.shuffle(order)
    else:
        turn = rng.randrange(n)
        order = order[turn:] + order[:turn]
    cyc_a = [(4 * i, 4 * (i + 1) % n) for i in range(k)]
    cyc_b = [(4 * i + 1, (4 * i + 5) % n) for i in range(k)]
    expected: dict[str, Any] = {}

    def run() -> Any:
        d = crossing.convex_drawing(g, order)
        problems = crossing.validate_drawing(d)
        weights = crossing.decomposition_weights(d, dec)
        cr = len(d.crossings)
        certs = {
            (h, direction): crossing.prefix_cr_certificate(d, dec, h, _dir(direction))
            for h in (cr - 1, cr, cr + 1)
            for direction in (BELOW, ABOVE)
        }
        parity = crossing.jordan_parity_screen(d, cyc_a, cyc_b)
        return d, problems, weights, certs, parity

    def check(answer: Any) -> Optional[str]:
        d, problems, weights, certs, parity = answer
        if not expected:
            expected["crossings"] = oracles.convex_crossings(g.edges(), order)
            expected["weights"] = oracles.doubled_weights(dec.pieces, expected["crossings"])
        if list(d.crossings) != expected["crossings"]:
            return "convex drawing has the wrong crossings"
        if problems:
            return f"clean drawing reported bad: {problems[0]}"
        if list(weights.weights) != expected["weights"]:
            return "wrong doubled crossing weights"
        halves = Scaled([Fraction(w, 2) for w in expected["weights"]])
        for (h, direction), cert in certs.items():
            bound = h + _HALF if direction == BELOW else h - _HALF
            bad = oracles.rotation_reason(halves, Fraction(bound), direction, cert)
            if bad:
                return f"crossing certificate h={h}: {bad}"
        return None if parity is crossing.Parity.EVEN else "odd crossing parity in a real drawing"

    return Op(f"drawing circulant{n} {'shuffled' if shuffle else 'rotated'}", run, check, g.edge_count)


def structures_crossing(seed: int, size: str, out_dir: str) -> list[Op]:
    rng = random.Random(seed)
    tiny = size == "tiny"
    ops = []
    for n in (7,) if tiny else (13, 31):
        g = graphs.complete(n)
        dec = structures.EdgeDecomposition(_rotated(structures.star_decomposition_complete(n).pieces, rng))
        ops.append(_truth_op(f"transitive stars K{n}", g, lambda g=g, dec=dec: structures.is_transitive_decomposition(g, dec), True))
    for k in (3,) if tiny else (4, 8):
        g = graphs.circulant(4 * k, [1, 4])
        dec = structures.EdgeDecomposition(_rotated(structures.circulant14_decomposition(k).pieces, rng))
        ops.append(_truth_op(f"transitive fans circulant{4 * k}", g, lambda g=g, dec=dec: structures.is_transitive_decomposition(g, dec), True))
    tile = tiles.Tile(graph=graphs.complete(4), left=(0, 1), right=(2, 3))
    for t in (4,) if tiny else (8, 16):

        def closed(t: int = t) -> Any:
            g, dec = tiles.canonical_periodic_decomposition(tile, t)
            return structures.is_transitive_decomposition(g, dec)

        ops.append(_truth_op(f"transitive tile closure t={t}", tiles.tile_close(tile, t), closed, True))
    for m, n in ((3, 3),) if tiny else ((5, 5), (6, 8), (8, 8), (10, 10)):
        g = graphs.cartesian_cycles(m, n)
        part = structures.VertexPartition(_rotated(structures.columns_partition(m, n).parts, rng))
        ops.append(_truth_op(f"transitive columns {m}x{n}", g, lambda g=g, part=part: structures.is_transitive_partition(g, part), True))
    finds = [
        (graphs.cycle(12), "C12", 4, True),
        (graphs.cartesian_cycles(3, 3), "C3xC3", 3, True),
        (graphs.complete_bipartite(3, 3), "K3,3", 3, True),
        (graphs.complete_bipartite(2, 3), "K2,3", 5, False),
    ]
    if not tiny:
        finds.append((graphs.complete_bipartite(3, 4), "K3,4", 7, False))
    for g, label, t, exists in finds:
        ops.append(_partition_op(g, label, t, exists))
    parts = []
    for m in (4,) if tiny else (6, 8, 10, 12, 6, 8, 10, 12):
        g = graphs.cartesian_cycles(m, m)
        h = _relabel(g, rng)
        parts.append(_truth_op(f"relabelled {m}x{m}", g, lambda g=g, h=h: iso.isomorphic(g, h), True))
        edges = h.edges()
        u, v = edges[rng.randrange(len(edges))]
        w = next(x for x in range(h.n) if x not in (u, v) and not h.has_edge(u, x))
        moved = graphs.Graph.from_edges(h.n, [e for e in edges if e != (u, v)] + [(u, w)])
        parts.append(_truth_op(f"moved edge {m}x{m}", g, lambda g=g, moved=moved: iso.isomorphic(g, moved), False))
    ops.append(_batch("isomorphic tori", parts))
    for k, shuffle in ((3, True), (4, False)) if tiny else ((50, True), (100, False)):
        ops.append(_drawing_op(k, rng, shuffle))
    ops.append(_reproduce_op("structures", tiny))
    side = 3 if tiny else 10
    ops.append(_partition_check_op(side))
    return ops


def _partition_check_op(side: int) -> Op:
    """`partition check --transitive` on the column partition of a torus."""
    spec = f"{side}:{side}"
    argv = ["partition", "check", f"--graph=torus:{spec}", f"--partition=columns:{spec}", "--transitive"]

    def check(answer: Any) -> Optional[str]:
        code, out = answer
        doc = json.loads(out)
        if code != 0 or doc.get("transitive") is not True or doc.get("parts") != side:
            return f"partition check on the {side}x{side} torus exited {code}: {doc}"
        return None

    return Op(f"cli partition check columns {spec}", lambda: call_cli(argv), check, 2 * side * side, cli=True)


GENERATORS = {
    "certify-small": certify_small,
    "certify-large": certify_large,
    "search-tori": search_tori,
    "structures-crossing": structures_crossing,
}


def build(workload: str, seed: int, size: str, out_dir: str) -> list[Op]:
    return GENERATORS[workload](seed, size, out_dir)
