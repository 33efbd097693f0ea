"""Exact rotation certificates for strict prefix-sum bounds on cyclic lists.

For a cyclic list x_1..x_n of rationals with total s, a bound h, and the
per-slot average c = h/n, this module produces and checks three kinds of
witness:

* a rotation certificate: a start k whose cyclic prefix sums stay strictly
  below c*j (or strictly above, for the dual direction) for every prefix
  length j in 1..n; one exists exactly when s < h (respectively s > h);

* a per-start witness vector g_1..g_n: for each start i, the least prefix
  length j at which the running sum reaches c*j (at least, or at most for
  the dual goal); the full vector exists exactly when s >= h (resp. s <= h),
  and the greedy block cover built from it tiles one full wrap of the list
  into blocks that each meet the per-slot average;

* an equality certificate: a below-certificate at h + eps paired with an
  above-certificate at h - eps for a rational 0 < eps < 1; the pair exists
  exactly when s = h.

Arithmetic is exact: rationals (`fractions.Fraction`) at the API, exact
integers inside, and no float mode.  Each list is scaled once, by D0, the lcm
of its entries' denominators; a `CyclicList` keeps those integers, and every
call on it reuses them, multiplying once more only when h's denominator does
not divide D0.  With D the lcm of D0 and h's denominator, a_i = D*x_i and
H = D*h are integers and the test "p_j < j*h/n" becomes the sign test
n*P_j < j*H on running sums P_j of a (flipped for the dual direction).
`cyclic_list` hands back the same `CyclicList` for the same tuple while
that tuple is among the last four it was given, so `find_rotation(xs, ...)`
then `verify_certificate(xs, ...)` on one tuple scale it once.
Indices are 1-based in every public signature and certificate, in the style
of cycle-lemma statements; subscripts wrap modulo n.

`find_rotation` locates its start in O(n) by walking the running sums of
(n*a_i - H): the slot after the last maximum works for the below direction
(last minimum for above).  By the cycle lemma (Dvoretzky-Motzkin/Raney)
that start always works once the total is on the right side of h, so there
is no second try; one pass re-checks every inequality on the running sums,
which become the certificate's `PrefixTable` as they are: integers over one
denominator, with no Fraction built per entry.  `verify_certificate` is one
integer pass over that table.  `scan_rotation` is the exhaustive O(n^2)
search in Fractions, kept as a reference to test against.
`prefix_condition_all_starts` finds every per-start witness in O(n) with a
monotone stack over the doubled running sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, count, islice
from math import gcd, lcm
from typing import Any, Iterable, Iterator, Optional, Sequence, Union

RationalLike = Union[Fraction, int, str]

__all__ = [
    "Direction",
    "PrefixGoal",
    "CyclicList",
    "BoundSpec",
    "PrefixTable",
    "RotationCertificate",
    "EqualityCertificate",
    "Block",
    "BlockCover",
    "as_fraction",
    "cyclic_list",
    "common_denominator",
    "total",
    "scan_rotation",
    "find_rotation",
    "verify_certificate",
    "prefix_condition_all_starts",
    "greedy_block_cover",
    "equality_certificate",
]


class Direction(Enum):
    """Which strict side of the average bound a certificate pins down."""

    BELOW = "below"
    ABOVE = "above"


class PrefixGoal(Enum):
    """Per-start goal: some prefix reaches at least (or at most) the average."""

    GEQ_SOMEWHERE = "geq"
    LEQ_SOMEWHERE = "leq"


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, 'p/q' strings, and Fractions to an exact Fraction.

    Strings follow `Fraction`'s grammar in ASCII without underscores, which
    `Fraction` alone would read as digit separators ('1_3' as 13)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "_" in value or not value.isascii():
            raise ValueError(f"expected a rational in ASCII without underscores, got {value!r}")
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class CyclicList:
    """A nonempty tuple of exact rationals read cyclically with 1-based slots.

    Its entries as integers over D0, the lcm of their denominators, are
    computed on first use and kept for the life of the list (`integer_form`),
    so every certificate call on one list converts it once.
    """

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ValueError("cyclic list must have at least one entry")
        if not all(isinstance(v, Fraction) for v in self.values):
            raise TypeError("cyclic list entries must be Fractions; use cyclic_list()")

    @property
    def n(self) -> int:
        return len(self.values)

    def at(self, i: int) -> Fraction:
        """Entry at 1-based cyclic position i (any integer i is accepted)."""
        return self.values[(i - 1) % len(self.values)]

    @cached_property
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """(a, D0): D0 the lcm of the entries' denominators, a_i = D0*x_i."""
        return _integer_form(self.values)


def _integer_form(values: tuple[Fraction, ...]) -> tuple[tuple[int, ...], int]:
    d = lcm(*{v.denominator for v in values})
    return tuple([v.numerator * (d // v.denominator) for v in values]), d


# The last four tuples given to `cyclic_list`, each with its list, in slots
# written in turn.  A slot holds its tuple, so the tuple stays alive while its
# slot does, and a lookup compares identity, not ids.  Each write is one store
# into a list of fixed length, so threads need no lock.
_RECENT_SLOTS = 4
_recent: list[tuple[Optional[tuple], Optional[CyclicList]]] = [(None, None)] * _RECENT_SLOTS
_turn = count()


def cyclic_list(values: Union[CyclicList, Iterable[RationalLike]]) -> CyclicList:
    """Build a CyclicList, coercing entries; idempotent on CyclicList.

    A tuple is immutable, so the same tuple gets the same CyclicList, and
    its integer form, while it is among the last four tuples given here;
    those four stay alive until newer tuples take their place.  Lists and
    other iterables are coerced anew on every call.
    """
    if isinstance(values, CyclicList):
        return values
    if type(values) is not tuple:
        return CyclicList(tuple(as_fraction(v) for v in values))
    for held, cl in _recent:
        if held is values:
            return cl
    # A tuple of Fractions is taken as it is; its one type scan is the
    # constructor's own check.
    try:
        cl = CyclicList(values)
    except TypeError:
        cl = CyclicList(tuple(as_fraction(v) for v in values))
    _recent[next(_turn) % _RECENT_SLOTS] = (values, cl)
    return cl


@dataclass(frozen=True)
class BoundSpec:
    """Equality target h with the strict-window half-width eps, 0 < eps < 1."""

    h: Fraction
    epsilon: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        object.__setattr__(self, "h", as_fraction(self.h))
        object.__setattr__(self, "epsilon", as_fraction(self.epsilon))
        if not Fraction(0) < self.epsilon < Fraction(1):
            raise ValueError("epsilon must satisfy 0 < eps < 1")


HALF = Fraction(1, 2)


def integer_bound(h: object) -> int:
    """h itself when it is an int and not a bool; ValueError otherwise."""
    if isinstance(h, bool) or not isinstance(h, int):
        raise ValueError(f"h must be an integer, got {h!r}")
    return h


@dataclass(frozen=True, eq=False, slots=True)
class PrefixTable(Sequence[Fraction]):
    """Prefix sums as integers over one denominator: entry j is scaled[j]/den.

    den is canonical, the lcm of the entries' reduced denominators (the
    constructor divides out any common factor), so tables of equal value have
    equal fields.  Indexing and iteration build Fractions on access (a slice
    is a tuple of them), and a table equals any sequence of the same
    rationals.
    """

    scaled: tuple[int, ...]
    den: int

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise ValueError(f"denominator must be positive, got {self.den}")
        g = gcd(self.den, *self.scaled)
        if g != 1:
            object.__setattr__(self, "scaled", tuple([a // g for a in self.scaled]))
            object.__setattr__(self, "den", self.den // g)

    @classmethod
    def over(cls, nums: Sequence[int], dens: Sequence[int], within: Optional[int] = None) -> PrefixTable:
        """The table of entries nums[j]/dens[j], each den positive.

        Without `within` the entries go over the lcm of their dens, which
        nothing bounds: n entries over distinct primes cost time and memory
        quadratic in n.  `within` is the D of a list and h (see
        `common_denominator`): every prefix sum of that list is an integer
        over D, so an entry that is not raises ValueError, and no entry is
        put over more than D, which bounds the cost by that of the list.
        """
        distinct = set(dens)
        if within is not None and any(within % q for q in distinct):
            # some den does not divide D; only an unreduced entry can be right
            scaled = []
            for j, (p, q) in enumerate(zip(nums, dens)):
                a, r = divmod(p * within, q)
                if r:
                    raise ValueError(
                        f"prefix entry {j + 1} is {Fraction(p, q)}, but every prefix sum of the list"
                        f" is an integer over {within}, the lcm of the denominators of the list and h"
                    )
                scaled.append(a)
            return cls(tuple(scaled), within)
        d = lcm(*distinct)
        return cls(tuple([p * (d // q) for p, q in zip(nums, dens)]), d)

    @classmethod
    def of(cls, values: Iterable[Union[int, Fraction]]) -> PrefixTable:
        """The table of int or Fraction entries; TypeError on anything else."""
        values = tuple(values)
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise TypeError(f"prefix sums must be ints or Fractions, got {v!r}")
        return cls.over([v.numerator for v in values], [v.denominator for v in values])

    def __len__(self) -> int:
        return len(self.scaled)

    def __getitem__(self, index: Union[int, slice]) -> Union[Fraction, tuple[Fraction, ...]]:
        if isinstance(index, slice):
            return tuple(Fraction(a, self.den) for a in self.scaled[index])
        return Fraction(self.scaled[index], self.den)

    def __iter__(self) -> Iterator[Fraction]:
        den = self.den
        return (Fraction(a, den) for a in self.scaled)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, PrefixTable):
            return self.den == other.den and self.scaled == other.scaled
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(p == q for p, q in zip(self, other))
        return NotImplemented

    def __hash__(self) -> int:
        # the hash of the equal tuple of Fractions
        return hash(tuple(self))


@dataclass(frozen=True)
class RotationCertificate:
    """A start k plus the prefix-sum table that witnesses one strict direction.

    prefix_sums[j-1] is the sum of the j entries starting at slot k, wrapping
    cyclically; a verifier recomputes the table and re-checks every strict
    inequality rather than trusting the stored values.  Any sequence of int
    or Fraction entries is taken and stored once as a `PrefixTable`.
    """

    direction: Direction
    k: int
    prefix_sums: PrefixTable

    def __post_init__(self) -> None:
        if not isinstance(self.prefix_sums, PrefixTable):
            object.__setattr__(self, "prefix_sums", PrefixTable.of(self.prefix_sums))

    @property
    def n(self) -> int:
        return len(self.prefix_sums)


@dataclass(frozen=True)
class EqualityCertificate:
    """Paired below/above certificates that together pin the total exactly."""

    below: RotationCertificate
    above: RotationCertificate

    @property
    def k1(self) -> int:
        return self.below.k

    @property
    def k2(self) -> int:
        return self.above.k


@dataclass(frozen=True)
class Block:
    """One greedy block: 1-based start slot, length, and exact sum."""

    start: int
    length: int
    total: Fraction


@dataclass(frozen=True)
class BlockCover:
    """Greedy blocks tiling at least one full wrap; only the last may wrap."""

    blocks: tuple[Block, ...]

    @property
    def covered_length(self) -> int:
        return sum(b.length for b in self.blocks)


def common_denominator(xs: Union[CyclicList, Iterable[RationalLike]], h: RationalLike) -> int:
    """D, the lcm of the denominators of the list's entries and of h: every
    prefix sum of the list, and h, is an integer over D."""
    return lcm(cyclic_list(xs).integer_form[1], as_fraction(h).denominator)


def _scaled(cl: CyclicList, h: Fraction) -> tuple[Sequence[int], int, int]:
    """(a, H, D): the entries and h as integers a_i = D*x_i and H = D*h, with
    D the `common_denominator` of the list and h.  a is the list's own
    integer form when h's denominator divides its D0."""
    a, d = cl.integer_form
    if d % h.denominator:
        m = lcm(d, h.denominator) // d
        a, d = [v * m for v in a], d * m
    return a, h.numerator * (d // h.denominator), d


def _rotation(a: Sequence[int], k: int) -> Iterator[int]:
    """The entries of a read from 1-based slot k once around, without a copy."""
    return chain(islice(a, k - 1, None), islice(a, k - 1))


def total(xs: Union[CyclicList, Iterable[RationalLike]]) -> Fraction:
    """Exact sum of the list."""
    a, d = cyclic_list(xs).integer_form
    return Fraction(sum(a), d)


def _prefixes_from(cl: CyclicList, k: int) -> tuple[Fraction, ...]:
    out = []
    acc = Fraction(0)
    for j in range(cl.n):
        acc += cl.at(k + j)
        out.append(acc)
    return tuple(out)


def _strict_ok(prefixes: Sequence[Fraction], c: Fraction, direction: Direction) -> bool:
    if direction is Direction.BELOW:
        return all(p < c * j for j, p in enumerate(prefixes, start=1))
    return all(p > c * j for j, p in enumerate(prefixes, start=1))


def scan_rotation(
    xs: Union[CyclicList, Iterable[RationalLike]],
    h: RationalLike,
    direction: Direction,
) -> Optional[RotationCertificate]:
    """Exhaustive O(n^2) search in Fractions; returns the certificate at the
    smallest k.  A reference to test `find_rotation` against."""
    cl = cyclic_list(xs)
    c = as_fraction(h) / cl.n
    for k in range(1, cl.n + 1):
        prefixes = _prefixes_from(cl, k)
        if _strict_ok(prefixes, c, direction):
            return RotationCertificate(direction=direction, k=k, prefix_sums=prefixes)
    return None


def find_rotation(
    xs: Union[CyclicList, Iterable[RationalLike]],
    h: RationalLike,
    direction: Direction,
) -> Optional[RotationCertificate]:
    """O(n) certificate search: start just past the last extreme running sum.

    Existence always agrees with scan_rotation; the returned k may differ.
    Every inequality is re-checked on the running sums from that start, which
    then become the prefix table; a failure there would contradict the cycle
    lemma and raises RuntimeError.
    """
    cl = cyclic_list(xs)
    n = cl.n
    a, big_h, d = _scaled(cl, as_fraction(h))
    # Sign s = +1 (below) or -1 (above): every test is s*(n*P_j - j*H) < 0.
    sn, sh = (n, big_h) if direction is Direction.BELOW else (-n, -big_h)
    if not sn * sum(a) < n * sh:
        return None
    # Last maximum of the running sums S_i of s*(n*a_i - H), i = 0..n-1.
    best_i = 0
    best = run = 0
    for i, v in enumerate(islice(a, n - 1), start=1):
        run += sn * v - sh
        if run >= best:
            best, best_i = run, i
    k = best_i + 1
    # a list first: tuple() of an iterator of unknown length resizes its
    # result, which strands small tuples on CPython's per-size free lists
    prefixes = list(accumulate(_rotation(a, k)))
    bound = 0
    for acc in prefixes:
        bound += sh
        if not sn * acc < bound:
            raise RuntimeError(f"internal error: start {k} fails a prefix test the cycle lemma guarantees")
    return RotationCertificate(direction=direction, k=k, prefix_sums=PrefixTable(tuple(prefixes), d))


def verify_certificate(
    xs: Union[CyclicList, Iterable[RationalLike]],
    h: RationalLike,
    cert: RotationCertificate,
) -> bool:
    """Recompute the prefix sums at cert.k in integers, compare each with the
    table, and re-check every inequality, in one pass.

    With D the lcm of the denominators of the list and h, every true prefix
    sum is an integer over D, so a table whose den does not divide D is wrong
    without a look at its entries.  A tampered or stale table yields False; a
    start that is not an int, or is outside 1..n, is malformed input and
    raises ValueError instead.
    """
    cl = cyclic_list(xs)
    n = cl.n
    if isinstance(cert.k, bool) or not isinstance(cert.k, int):
        raise ValueError(f"k must be an integer, got {cert.k!r}")
    if not 1 <= cert.k <= n:
        raise ValueError(f"certificate start {cert.k} out of range 1..{n}")
    table = cert.prefix_sums
    if len(table) != n:
        return False
    a, big_h, d = _scaled(cl, as_fraction(h))
    step, rest = divmod(d, table.den)
    if rest:
        return False
    sn, sh = (n, big_h) if cert.direction is Direction.BELOW else (-n, -big_h)
    bound = 0
    for acc, p in zip(accumulate(_rotation(a, cert.k)), table.scaled):
        bound += sh
        if acc != p * step or not sn * acc < bound:
            return False
    return True


def prefix_condition_all_starts(
    xs: Union[CyclicList, Iterable[RationalLike]],
    h: RationalLike,
    goal: PrefixGoal,
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Least qualifying prefix length for every start, or (False, None).

    For goal GEQ_SOMEWHERE, entry i is the least j with the j-term sum from
    start i at least c*j; the vector exists for all starts exactly when the
    total is >= h (dually <= h for LEQ_SOMEWHERE).
    """
    a, big_h, _ = _scaled(cyclic_list(xs), as_fraction(h))
    witnesses = _least_reaches(a, big_h, goal is PrefixGoal.GEQ_SOMEWHERE)
    return (False, None) if witnesses is None else (True, witnesses)


def _least_reaches(a: Sequence[int], big_h: int, geq: bool) -> Optional[tuple[int, ...]]:
    """The witness vector of the scaled entries a against H = D*h, or None
    when the total is on the wrong side of H."""
    n = len(a)
    # With S_q the running sums of s*(n*a_i - H) over the list read twice,
    # the witness of start p+1 is q - p for the least q > p with S_q >= S_p.
    sn, sh = (n, big_h) if geq else (-n, -big_h)
    if sn * sum(a) < n * sh:
        # Total on the wrong side: by the cycle lemma some start stays
        # strictly short of the average on every prefix.
        return None
    # Since S_{p+n} - S_p = s*n*(A - H) >= 0, every start is answered by q <= p + n.
    witnesses = [0] * n
    open_starts: list[tuple[int, int]] = [(0, 0)]  # (p, S_p), S_p strictly decreasing
    run = 0
    for q, v in enumerate(chain(a, islice(a, n - 1)), start=1):
        run += sn * v - sh
        while open_starts and open_starts[-1][1] <= run:
            p = open_starts.pop()[0]
            witnesses[p] = q - p
        if q < n:
            open_starts.append((q, run))
        elif not open_starts:
            break
    return tuple(witnesses)


def greedy_block_cover(
    xs: Union[CyclicList, Iterable[RationalLike]],
    c: RationalLike,
    start: int,
) -> BlockCover:
    """Tile one full wrap from `start` into blocks that each meet average c.

    Each block runs from its start for exactly the least prefix length that
    reaches sum >= c * length, then the next block begins where it ended.
    Requires every start to have such a length (i.e. total >= c * n); the
    caller chooses `start` and is expected to hand in a slot where the
    witness vector attains its maximum when the textbook construction is
    wanted, but any slot is tiled faithfully.  With the textbook choice the
    blocks cover each slot exactly once and only the final block wraps past
    slot n; from other starts the cover may overshoot.
    """
    cl = cyclic_list(xs)
    a, big_h, d = _scaled(cl, as_fraction(c) * cl.n)
    gs = _least_reaches(a, big_h, True)
    if gs is None:
        raise ValueError("no qualifying prefix at some start; total is below c * n")
    if not 1 <= start <= cl.n:
        raise ValueError(f"start {start} out of range 1..{cl.n}")
    blocks = []
    covered = 0
    pos = start
    while covered < cl.n:
        g = gs[pos - 1]
        blocks.append(Block(start=pos, length=g, total=Fraction(sum(islice(_rotation(a, pos), g)), d)))
        covered += g
        pos = (pos - 1 + g) % cl.n + 1
    return BlockCover(tuple(blocks))


def equality_certificate(
    xs: Union[CyclicList, Iterable[RationalLike]],
    bound: BoundSpec,
) -> Optional[EqualityCertificate]:
    """Certify total == bound.h via below(h + eps) plus above(h - eps).

    The pair alone only shows |total - h| < eps, so the exact total (the
    last entry of a full prefix table) is checked as well, in integers: None
    unless total == h.
    """
    cl = cyclic_list(xs)
    below = find_rotation(cl, bound.h + bound.epsilon, Direction.BELOW)
    if below is None:
        return None
    above = find_rotation(cl, bound.h - bound.epsilon, Direction.ABOVE)
    table = below.prefix_sums
    if above is None or table.scaled[-1] * bound.h.denominator != bound.h.numerator * table.den:
        return None
    return EqualityCertificate(below=below, above=above)
