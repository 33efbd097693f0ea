"""Answer checks for the benchmark, kept apart from the library they judge.

Every check returns None when an answer is right and a short reason when it
is wrong.  The rotation checks scale a list by the lcm of its denominators
once and re-derive every prefix sum in integers, so they share no arithmetic
with `cyclecert.cyclic_core`.  Expected values of the searches come from the
closed forms and tables below, never from the solver under test.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from types import SimpleNamespace
from typing import Any, Optional, Sequence

# The one class of wrong answer the library is known to give: an equality
# certificate for a bound h with 0 < |total - h| < epsilon.  Such answers are
# counted as failures like any other; the harness only tells them apart so
# that a new kind of failure is not hidden among them.
KNOWN_DEFECT = "equality certificate for a bound off the total"

BELOW = "below"
ABOVE = "above"


class Scaled:
    """A cyclic list of Fractions as integers over a common denominator."""

    def __init__(self, values: Sequence[Fraction]):
        self.n = len(values)
        self.den = lcm(*(v.denominator for v in values))
        self.ints = [v.numerator * (self.den // v.denominator) for v in values]
        self.total = Fraction(sum(self.ints), self.den)

    def below(self, run: int, j: int, h: Fraction) -> bool:
        """Strict test (run / den) < j * h / n, in integers."""
        return run * self.n * h.denominator < j * h.numerator * self.den

    def above(self, run: int, j: int, h: Fraction) -> bool:
        return run * self.n * h.denominator > j * h.numerator * self.den


def rotation_reason(scaled: Scaled, h: Fraction, direction: str, cert: Any) -> Optional[str]:
    """A rotation answer: present exactly when the total is on the strict
    side of h, and then a prefix table that is right and strict throughout."""
    want = scaled.total < h if direction == BELOW else scaled.total > h
    if cert is None:
        return f"no {direction} certificate although one exists" if want else None
    if not want:
        return f"{direction} certificate although none exists"
    if cert.direction.value != direction:
        return f"certificate direction {cert.direction.value}, asked {direction}"
    n, k = scaled.n, cert.k
    if not 1 <= k <= n or len(cert.prefix_sums) != n:
        return "malformed certificate"
    strict = scaled.below if direction == BELOW else scaled.above
    run = 0
    for j in range(1, n + 1):
        run += scaled.ints[(k + j - 2) % n]
        p = cert.prefix_sums[j - 1]
        if p.numerator * scaled.den != run * p.denominator:
            return f"prefix sum {j} from start {k} is wrong"
        if not strict(run, j, h):
            return f"prefix sum {j} from start {k} breaks the {direction} bound"
    return None


def equality_reason(scaled: Scaled, h: Fraction, eps: Fraction, eq: Any) -> Optional[str]:
    """An equality answer is right only when it exists exactly at total == h."""
    if scaled.total != h:
        if eq is None:
            return None
        if abs(scaled.total - h) < eps:
            return KNOWN_DEFECT
        return "equality certificate far from the total"
    if eq is None:
        return "no equality certificate at the total"
    return rotation_reason(scaled, h + eps, BELOW, eq.below) or rotation_reason(
        scaled, h - eps, ABOVE, eq.above
    )


def _least_reach(scaled: Scaled, h: Fraction, start: int, geq: bool) -> int:
    """Least j whose j-term sum from 1-based `start` reaches j*h/n, or 0."""
    n, run = scaled.n, 0
    for j in range(1, n + 1):
        run += scaled.ints[(start + j - 2) % n]
        lhs = run * n * h.denominator
        rhs = j * h.numerator * scaled.den
        if (lhs >= rhs) if geq else (lhs <= rhs):
            return j
    return 0


def all_starts_reason(scaled: Scaled, h: Fraction, geq: bool, answer: Any) -> Optional[str]:
    ok, gs = answer
    want = scaled.total >= h if geq else scaled.total <= h
    if not want:
        return None if (ok is False and gs is None) else "witness vector although none exists"
    if ok is not True or gs is None or len(gs) != scaled.n:
        return "no witness vector although one exists"
    for i, g in enumerate(gs, start=1):
        if g != _least_reach(scaled, h, i, geq):
            return f"witness at start {i} is not the least prefix length"
    return None


def block_cover_reason(scaled: Scaled, c: Fraction, start: int, cover: Any) -> Optional[str]:
    n, h = scaled.n, c * scaled.n
    pos, covered = start, 0
    for b in cover.blocks:
        if covered >= n:
            return "cover runs past one full wrap"
        if b.start != pos or b.length != _least_reach(scaled, h, pos, True):
            return f"block at {b.start} is not the greedy block"
        run = sum(scaled.ints[(pos + off - 1) % n] for off in range(b.length))
        if b.total * scaled.den != run:
            return f"block at {b.start} has a wrong total"
        covered += b.length
        pos = (pos - 1 + b.length) % n + 1
    return None if covered >= n else "cover stops short of one wrap"


# --- searches ----------------------------------------------------------------

# Minimum dominating and total dominating set sizes of C_m x C_n tori.
KNOWN_MINIMA = {
    ("dominating", 5, 5): 5,
    ("dominating", 5, 6): 7,
    ("dominating", 5, 7): 8,
    ("dominating", 6, 7): 10,
    ("dominating", 7, 6): 10,
    ("dominating", 7, 7): 12,
    ("total", 5, 5): 8,
    ("total", 6, 7): 12,
    ("total", 7, 6): 12,
    ("total", 7, 7): 14,
    ("total", 8, 8): 16,
}


def paired_c5(n: int) -> int:
    """Paired domination number of C_5 x C_n, from its closed form."""
    value = -(-4 * n // 3)
    return value + 1 if n % 3 == 2 else value


def _members_ok(g: Any, witness: Sequence[int], size: int) -> Optional[str]:
    if len(set(witness)) != len(witness) or not all(0 <= v < g.n for v in witness):
        return "witness is not a vertex set"
    if len(witness) != size:
        return f"witness has {len(witness)} vertices, value says {size}"
    return None


def cover_reason(g: Any, total: bool, witness: Sequence[int], size: int) -> Optional[str]:
    """Witness of a dominating (or total dominating) set of the given size."""
    bad = _members_ok(g, witness, size)
    if bad:
        return bad
    covered = 0
    for v in witness:
        covered |= g.adj[v] if total else g.adj[v] | (1 << v)
    return None if covered == (1 << g.n) - 1 else "witness does not dominate"


def paired_reason(g: Any, witness: Sequence[int], size: int) -> Optional[str]:
    bad = cover_reason(g, False, witness, size)
    if bad:
        return bad

    def matched(rest: int) -> bool:
        if rest == 0:
            return True
        low = rest & -rest
        v = low.bit_length() - 1
        mates = g.adj[v] & rest
        while mates:
            w = mates & -mates
            if matched(rest & ~low & ~w):
                return True
            mates ^= w
        return False

    mask = sum(1 << v for v in witness)
    return None if matched(mask) else "witness has no perfect matching"


def minimal_total_reason(g: Any, witness: Sequence[int], size: int) -> Optional[str]:
    bad = cover_reason(g, True, witness, size)
    if bad:
        return bad
    for v in witness:
        covered = 0
        for u in witness:
            if u != v:
                covered |= g.adj[u]
        if covered == (1 << g.n) - 1:
            return f"witness stays total dominating without {v}"
    return None


# --- drawings ----------------------------------------------------------------


def convex_crossings(edges: Sequence[tuple[int, int]], order: Sequence[int]) -> list:
    """Crossing chord pairs of a circle drawing, normalized and sorted."""
    pos = {v: i for i, v in enumerate(order)}
    chords = [(min(pos[u], pos[v]), max(pos[u], pos[v]), (u, v)) for u, v in edges]
    out = []
    for i, (a, b, e) in enumerate(chords):
        for c, d, f in chords[i + 1 :]:
            if a < c < b < d or c < a < d < b:
                out.append((e, f) if e <= f else (f, e))
    return sorted(out)


def doubled_weights(pieces: Any, crossings: Sequence) -> list[int]:
    owner = {}
    for i, piece in enumerate(pieces):
        for u, v in piece.edges:
            owner[(min(u, v), max(u, v))] = i
    weights = [0] * len(pieces)
    for e, f in crossings:
        weights[owner[e]] += 1
        weights[owner[f]] += 1
    return weights


# --- command line ------------------------------------------------------------


def _cert(doc: dict) -> SimpleNamespace:
    """A rotation certificate read back from the CLI's JSON."""
    return SimpleNamespace(
        direction=SimpleNamespace(value=doc["direction"]),
        k=doc["k"],
        prefix_sums=tuple(Fraction(p["num"], p["den"]) for p in doc["prefix"]),
    )


def cli_certify_reason(scaled: Scaled, h: Fraction, direction: str, answer: Any) -> Optional[str]:
    """`certify sum` then `certify verify`: exit codes and the certificate."""
    (code, out), verified = answer
    doc = json.loads(out)
    if direction == "equality":
        exists = scaled.total == h
        if not exists:
            return None if code == 1 and not doc["found"] else "CLI found an equality certificate off the total"
        if code != 0:
            return f"CLI exited {code} at the total"
        eq = doc["equality"]
        eps = Fraction(eq["epsilon"]["num"], eq["epsilon"]["den"])
        bad = rotation_reason(scaled, h + eps, BELOW, _cert(eq["below"])) or rotation_reason(
            scaled, h - eps, ABOVE, _cert(eq["above"])
        )
    else:
        exists = scaled.total < h if direction == BELOW else scaled.total > h
        if not exists:
            return None if code == 1 and not doc["found"] else "CLI found a certificate that cannot exist"
        if code != 0:
            return f"CLI exited {code} although a certificate exists"
        bad = rotation_reason(scaled, h, direction, _cert(doc["certificate"]))
    if bad:
        return "CLI " + bad
    vcode, vout = verified
    if vcode != 0 or json.loads(vout).get("verified") is not True:
        return f"CLI verify exited {vcode} on its own certificate"
    return None
