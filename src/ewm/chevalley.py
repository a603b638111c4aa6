"""Chevalley-basis structure constants and subspace arithmetic.

Builds the table N_{beta,gamma} for each root system with the classical
extraspecial-pair sign convention (the extraspecial pair of every non-simple
positive root gets a positive constant), then exposes bracket computation,
ideal closure inside a nilradical, containment and commutation tests -- the
Lie-algebra half of the simple-spherical-root sufficient test.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import EwmError, GeneratorsOutsideAmbient, SchemaError
from .rootsys import RootSystem

__all__ = [
    "ChevalleyAlgebra",
    "AlgVec",
    "build_algebra",
    "bracket",
    "root_vector",
    "ideal_closure",
    "is_contained",
    "commutes_with_all",
]

Root = tuple[int, ...]  # coordinate tuple in the simple-root basis, any sign
Key = tuple[str, object]  # ("e", root) or ("h", index)


@dataclass(frozen=True)
class AlgVec:
    """Sparse element of the algebra; keys are basis labels, values exact
    rationals, held as ints until a division makes them Fractions."""

    items: tuple[tuple[Key, int | Fraction], ...]

    @staticmethod
    def make(d: dict) -> "AlgVec":
        return AlgVec(tuple(sorted(filter(operator.itemgetter(1), d.items()))))

    def as_dict(self) -> dict:
        return dict(self.items)

    def is_zero(self) -> bool:
        return not self.items

    def __add__(self, other: "AlgVec") -> "AlgVec":
        d = self.as_dict()
        for k, v in other.items:
            d[k] = d.get(k, 0) + v
        return AlgVec.make(d)

    def scale(self, c) -> "AlgVec":
        return AlgVec.make({k: c * v for k, v in self.items})


@dataclass(frozen=True, eq=False)
class ChevalleyAlgebra:
    """Structure constants of `rs` in a Chevalley basis.  Compares and hashes
    by identity, so no lookup ever hashes the table."""

    rs: RootSystem
    table: dict[tuple[Root, Root], int]  # N on positive pairs
    norm2: dict[Root, int]  # squared length of each positive root


def _neg(r: Root) -> Root:
    return tuple(map(operator.neg, r))


def N(table: dict, norm2: dict, a: Root, b: Root) -> int:
    """Structure constant N_{a,b} for roots of any sign, reduced to the
    positive-pair table; `norm2` holds the squared length of each positive
    root and doubles as the positive-root set.  The norm ratios divide
    exactly, since every structure constant is an integer.  It is 0 exactly
    when a + b is not a root; a label that is not a root is refused."""
    a_pos, b_pos = a in norm2, b in norm2
    if a_pos and b_pos:  # the table holds every positive pair with a root sum
        return table[(a, b)] if (a, b) in table else -table.get((b, a), 0)
    if not a_pos and not b_pos:
        if (na := _neg(a)) in norm2 and (nb := _neg(b)) in norm2:
            return -N(table, norm2, na, nb)
    elif a_pos:
        if _neg(b) in norm2:
            return -N(table, norm2, b, a)
    elif (u := _neg(a)) in norm2:
        s = tuple(map(operator.add, a, b))  # a = -u, b = v, s = v - u
        if s in norm2:  # v - u is a positive root
            return N(table, norm2, u, s) * norm2[s] // norm2[b]
        w = _neg(s)
        if w in norm2:  # u - v is a positive root: N(-u, v) = N(-v, u)
            return N(table, norm2, b, w) * norm2[w] // norm2[u]
        return 0
    raise SchemaError(f"N{list(a)},{list(b)}: both labels must be roots")


def build_algebra(rs: RootSystem) -> ChevalleyAlgebra:
    """Fill the positive-pair structure-constant table by height recursion."""
    pos = [r.coeffs for r in rs.pos_roots]  # already (height, lex) sorted
    n = rs.rank
    # squared length r.(DC)r, with DC the symmetrized Cartan matrix
    dc = [tuple(d * c for c in row) for d, row in zip(rs.sym, rs.cartan)]
    norm2 = {r: sum(map(operator.mul, r, [sum(map(operator.mul, row, r)) for row in dc]))
             for r in pos}
    table: dict[tuple[Root, Root], int] = {}

    for delta in pos[n:]:  # the non-simple roots
        split = [x.coeffs for x in rs.summands(delta)]
        # extraspecial pair: the first summand, a simple alpha; its constant is
        # p + 1 for the alpha-string beta, beta - alpha, ..., beta - p*alpha
        alpha = split[0]
        beta = tuple(map(operator.sub, delta, alpha))
        p, cur = 0, tuple(map(operator.sub, beta, alpha))
        while cur in norm2:
            p, cur = p + 1, tuple(map(operator.sub, cur, alpha))
        table[(alpha, beta)] = p + 1
        # The other pairs, via the Jacobi identity with e_-alpha.  For positive
        # gamma, N(-alpha, gamma) = N(alpha, gamma - alpha) |gamma - alpha|^2 /
        # |gamma|^2, so every constant read is a positive pair of lower height.
        # `split` lists xi and delta - xi in mirrored order, so its first half
        # holds each unordered pair once, with (alpha, beta) in front.
        q = (p + 1) * norm2[beta] // norm2[delta]  # N(-alpha, delta)
        for xi in split[1:len(split) // 2]:
            eta = tuple(map(operator.sub, delta, xi))
            acc = 0
            xi_m = tuple(map(operator.sub, xi, alpha))
            if xi_m in norm2:
                acc += (N(table, norm2, alpha, xi_m) * norm2[xi_m] // norm2[xi]
                        * N(table, norm2, xi_m, eta))
            eta_m = tuple(map(operator.sub, eta, alpha))
            if eta_m in norm2:
                acc -= (N(table, norm2, alpha, eta_m) * norm2[eta_m] // norm2[eta]
                        * N(table, norm2, eta_m, xi))
            val, rem = divmod(acc, q)
            if rem:
                raise EwmError(f"structure constant N{xi},{eta} is not an integer")
            table[(xi, eta)] = val
    return ChevalleyAlgebra(rs=rs, table=table, norm2=norm2)


def root_vector(alg: ChevalleyAlgebra, r: Sequence[int]) -> AlgVec:
    """e_r for a root r of any sign; anything else is rejected."""
    r = tuple(r)
    if r not in alg.norm2 and _neg(r) not in alg.norm2:
        raise SchemaError(f"{list(r)} is not a root of {alg.rs.ctype}")
    return AlgVec(((("e", r), 1),))


def _bracket_basis(alg: ChevalleyAlgebra, a: Key, b: Key) -> dict:
    """[a, b] for two basis labels, as plain {label: coefficient} terms."""
    rs = alg.rs
    if a[0] == "h":  # [h_i, e_beta] = <beta, a_i^vee> e_beta
        return {} if b[0] == "h" else {b: sum(map(operator.mul, rs.cartan[a[1]], b[1]))}
    if b[0] == "h":
        return {a: -sum(map(operator.mul, rs.cartan[b[1]], a[1]))}
    beta, gamma = a[1], b[1]
    s = tuple(map(operator.add, beta, gamma))
    if not any(s):
        # [e_beta, e_-beta] = h_beta = sum_j beta_j d_j / d_beta * h_j, beta > 0,
        # with d_beta = norm2[beta] / 2; each coefficient is an integer
        sign = 1 if beta in alg.norm2 else -1
        bpos = beta if sign == 1 else gamma
        n2 = alg.norm2[bpos]
        return {("h", j): Fraction(2 * sign * bpos[j] * rs.sym[j], n2)
                for j in range(rs.rank)}
    if s not in alg.norm2 and _neg(s) not in alg.norm2:  # the common zero, before N
        return {}
    return {("e", s): N(alg.table, alg.norm2, beta, gamma)}


def bracket(alg: ChevalleyAlgebra, x: AlgVec, y: AlgVec) -> AlgVec:
    """Bilinear extension of the structure constants."""
    acc: dict = {}
    for ka, ca in x.items:
        for kb, cb in y.items:
            for k, v in _bracket_basis(alg, ka, kb).items():
                acc[k] = acc.get(k, 0) + ca * cb * v
    return AlgVec.make(acc)


class _Span:
    """Incremental echelon span of sparse vectors {basis label: coefficient};
    each row is scaled to 1 at its pivot, its smallest label, so a row holds
    Fractions only once a pivot other than 1 has been inverted."""

    def __init__(self):
        self.rows: list[tuple[Key, dict]] = []

    def _reduce(self, vec: AlgVec) -> dict:
        v = vec.as_dict()
        for p, row in self.rows:
            c = v.get(p)
            if c:
                for k, x in row.items():
                    v[k] = v.get(k, 0) - c * x
                    if not v[k]:
                        del v[k]
        return v

    def contains(self, vec: AlgVec) -> bool:
        return not self._reduce(vec)

    def add(self, vec: AlgVec) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        v = self._reduce(vec)
        if not v:
            return False
        p = min(v)
        if v[p] != 1:
            inv = Fraction(1, v[p])
            v = {k: x * inv for k, x in v.items()}
        self.rows.append((p, v))
        return True


def ideal_closure(
    alg: ChevalleyAlgebra, generators: Sequence[AlgVec], ambient: Sequence[AlgVec]
) -> list[AlgVec]:
    """Smallest subspace containing the generators and stable under bracketing
    with every ambient basis vector (fixpoint iteration, exact rank tests)."""
    amb = _Span()
    for a in ambient:
        amb.add(a)
    if not all(amb.contains(g) for g in generators):
        raise GeneratorsOutsideAmbient("generator outside ambient span")
    span = _Span()
    basis_vecs = [g for g in generators if span.add(g)]
    frontier = list(basis_vecs)
    while frontier:
        new: list[AlgVec] = []
        for v in frontier:
            for a in ambient:
                w = bracket(alg, a, v)
                if span.add(w):
                    basis_vecs.append(w)
                    new.append(w)
        frontier = new
    return basis_vecs


def is_contained(alg: ChevalleyAlgebra, sub: Sequence[AlgVec], space: Sequence[AlgVec]) -> bool:
    sp = _Span()
    for v in space:
        sp.add(v)
    return all(sp.contains(v) for v in sub)


def commutes_with_all(alg: ChevalleyAlgebra, x: AlgVec, gens: Iterable[AlgVec]) -> bool:
    return all(bracket(alg, x, g).is_zero() for g in gens)
