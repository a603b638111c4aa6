"""Root-system combinatorics for simple types A-G and products thereof.

Everything is integral: the symmetrizer d_i = (a_i, a_i)/2 with the short
roots of each factor of squared length 2, and the Cartan matrix, read off the
bonds of each factor's Dynkin diagram and d.  Simple roots follow the Bourbaki
labelling per factor, factors concatenated in input order.  Positive roots
are generated one height at a time from the Cartan matrix alone, each root
carrying its pairings and a_i-string depths, so one code path covers the
exceptional types; they are ordered by (height, coordinates) for reproducible
output.  A rank-n root packs into one int, coefficient i in byte n-1-i
(`x.to_bytes(n, "big")[i]`), so int order is coordinate order; the closure
packs pairings + 64 alike.  `RootSystem.coords` and `RootSystem.summands` are
the one place that tests positive-root membership and lists the two-part
splits delta = beta + gamma of a positive root (by subtracting packed roots, a
member built on first use).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Sequence

from .errors import InvalidType, NegativeRootCoordinate

__all__ = [
    "CartanType",
    "RootSystem",
    "RootVec",
    "WeightVec",
    "build_root_system",
    "root_to_weight",
    "supp",
    "wsupp",
    "is_dominant",
    "positive_root_count",
]

_RANK_BOUNDS = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True)
class CartanType:
    """A product of simple factors, e.g. ``CartanType((("A", 5),))``."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.factors:
            raise InvalidType("empty Cartan type")
        for fam, n in self.factors:
            if fam not in _RANK_BOUNDS:
                raise InvalidType(f"unknown family {fam!r}")
            lo, hi = _RANK_BOUNDS[fam]
            if n < lo or (hi is not None and n > hi):
                raise InvalidType(f"rank {n} out of range for family {fam}")

    @property
    def rank(self) -> int:
        return sum(n for _, n in self.factors)


@dataclass(frozen=True)
class RootVec:
    """A vector in the simple-root basis."""

    coeffs: tuple[int, ...]

    @property
    def height(self) -> int:
        return sum(self.coeffs)


@dataclass(frozen=True)
class WeightVec:
    """A vector in the fundamental-weight basis."""

    coeffs: tuple[int, ...]


@dataclass(frozen=True)
class RootSystem:
    ctype: CartanType
    cartan: tuple[tuple[int, ...], ...]
    sym: tuple[int, ...]
    pos_roots: tuple[RootVec, ...]

    @property
    def rank(self) -> int:
        return len(self.cartan)

    @functools.cached_property
    def coords(self) -> frozenset[tuple[int, ...]]:
        """Positive-root coordinate tuples, built once per cached system."""
        return frozenset(r.coeffs for r in self.pos_roots)

    @functools.cached_property
    def packed(self) -> tuple[list[int], frozenset[int], list[int]]:
        """Each positive root packed into one int (see the module docstring),
        in `pos_roots` order; the set of those ints; the heights."""
        ints = [int.from_bytes(bytes(r.coeffs), "big") for r in self.pos_roots]
        return ints, frozenset(ints), [r.height for r in self.pos_roots]

    def summands(self, delta: Sequence[int]) -> list[RootVec]:
        """The positive roots beta with delta - beta positive, for a positive
        root delta, in `pos_roots` order, scanned up to ht(delta).  Packed
        subtraction is exact: delta - beta has base-256 digits in [-6, 6], so
        it packs to a positive root's int only when it is that root."""
        ints, pset, heights = self.packed
        d = int.from_bytes(bytes(delta), "big")
        top = bisect.bisect_left(heights, sum(delta))
        keep = map(pset.__contains__, map(d.__sub__, itertools.islice(ints, top)))
        return list(itertools.compress(self.pos_roots, keep))


def _diagram(family: str, n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The bonded pairs of a factor's Dynkin diagram (Bourbaki labels, 0-based)
    and its symmetrizer d_i = (a_i,a_i)/2, short roots of squared length 2."""
    chain = [(i, i + 1) for i in range(n - 1)]
    if family == "D":
        return chain[:-1] + [(n - 3, n - 1)], [1] * n
    if family == "E":
        # chain 1-3-4-5-6(-7)(-8), node 2 attached to node 4
        return [(0, 2), (1, 3)] + chain[2:], [1] * n
    d = {"B": [2] * (n - 1) + [1], "C": [1] * (n - 1) + [2], "F": [2, 2, 1, 1], "G": [1, 3]}
    return chain, d.get(family, [1] * n)


def _positive_roots_closure(C: Sequence[Sequence[int]]) -> list[RootVec]:
    """Positive roots, one height at a time, each packed into one int.

    Each root beta of the current height carries its pairings <beta, a_i^vee>
    and its string depths p_i (the largest k with beta - k a_i a root), packed
    like the roots, the pairings plus 64.  The a_i-string through beta is
    unbroken and has p_i - q_i = <beta, a_i^vee>, so beta + a_i is a root iff
    p_i > <beta, a_i^vee>, iff byte i of depths + 127 - pairings, which is
    p_i - <beta, a_i^vee> + 63, has bit 6 set.  Then beta + a_i adds unit[i],
    its pairings add column i of C and its p_i is beta's plus one.  Every root
    one height down that reaches it sets one depth, and the rest stay 0.  No
    byte borrows: coefficients are at most 6, depths at most 3 and pairings
    lie in [-3, 3] (Humphreys 9.4), so every byte formed stays in 0..127.
    """
    n = len(C)
    unit = [1 << 8 * (n - 1 - i) for i in range(n)]
    bias, top = 64 * sum(unit), 127 * sum(unit)
    steps = [int.from_bytes(bytes(map((64).__add__, col)), "big") - bias for col in zip(*C)]
    level = {u: [s + bias, 0] for u, s in zip(unit, steps)}
    roots: list[int] = []
    while level:
        roots.extend(sorted(level))
        up: dict[int, list[int]] = {}
        for beta, (pair, depth) in level.items():
            grow = ((depth + top - pair) & bias).to_bytes(n, "big")
            for i in itertools.compress(range(n), grow):
                u = unit[i]
                up.setdefault(beta + u, [pair + steps[i], 0])[1] += (depth & 255 * u) + u
        level = up
    return [RootVec(tuple(x.to_bytes(n, "big"))) for x in roots]


@functools.lru_cache(maxsize=None)
def build_root_system(ctype: CartanType) -> RootSystem:
    """Assemble Cartan matrix, symmetrizer and positive roots for a product type.

    A bond i - j has C[i][j] = -max(d_i, d_j)/d_i: d_i C[i][j] = (a_i, a_j) is
    symmetric, and the entry in the longer root's row is -1."""
    bonds: list[tuple[int, int]] = []
    d: list[int] = []
    for fam, n in ctype.factors:
        fb, fd = _diagram(fam, n)
        bonds += [(i + len(d), j + len(d)) for i, j in fb]
        d += fd
    C = [[2 if i == j else 0 for j in range(len(d))] for i in range(len(d))]
    for i, j in bonds + [(j, i) for i, j in bonds]:
        C[i][j] = -max(d[i], d[j]) // d[i]
    return RootSystem(
        ctype=ctype,
        cartan=tuple(map(tuple, C)),
        sym=tuple(d),
        pos_roots=tuple(_positive_roots_closure(C)),
    )


def root_to_weight(rs: RootSystem, r: RootVec) -> WeightVec:
    """Change of basis: alpha_j = sum_i C[i][j] pi_i, so the result is C.r."""
    return WeightVec(tuple(sum(map(operator.mul, row, r.coeffs)) for row in rs.cartan))


def supp(r: RootVec) -> frozenset[int]:
    """Indices of strictly positive coordinates; rejects mixed-sign input."""
    if any(c < 0 for c in r.coeffs):
        raise NegativeRootCoordinate(f"supp on mixed-sign vector {r.coeffs}")
    return frozenset(i for i, c in enumerate(r.coeffs) if c > 0)


def wsupp(w: WeightVec) -> frozenset[int]:
    return frozenset(i for i, c in enumerate(w.coeffs) if c > 0)


def is_dominant(w: WeightVec) -> bool:
    return all(c >= 0 for c in w.coeffs)


def positive_root_count(family: str, n: int) -> int:
    """Closed-form number of positive roots, used as a test oracle."""
    if family == "A":
        return n * (n + 1) // 2
    if family in ("B", "C"):
        return n * n
    if family == "D":
        return n * (n - 1)
    if family == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    if family == "F":
        return 24
    if family == "G":
        return 6
    raise InvalidType(family)
