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

from .errors import EwmError, GeneratorsOutsideAmbient
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
    """Sparse element of the algebra; keys are basis labels, values Fractions."""

    items: tuple[tuple[Key, Fraction], ...]

    @staticmethod
    def make(d: dict) -> "AlgVec":
        return AlgVec(tuple(sorted((k, Fraction(v)) for k, v in d.items() if v != 0)))

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
        return AlgVec.make({k: Fraction(c) * v for k, v in self.items})


@dataclass(frozen=True, eq=False)
class ChevalleyAlgebra:
    """Structure constants of `rs` in a Chevalley basis.  Compares and hashes
    by identity, so no lookup ever hashes the table."""

    rs: RootSystem
    table: dict[tuple[Root, Root], int]  # N on positive pairs
    norm2: dict[Root, int]  # squared length of each positive root


def _neg(r: Root) -> Root:
    return tuple(-c for c in r)


def _is_root(norm2: dict, r: Root) -> bool:
    return r in norm2 or _neg(r) in norm2


def N(table: dict, norm2: dict, a: Root, b: Root) -> int:
    """Structure constant N_{a,b} for roots of any sign, reduced to the
    positive-pair table; `norm2` holds the squared length of each positive
    root and doubles as the positive-root set.  The norm ratios divide
    exactly, since every structure constant is an integer."""
    s = tuple(x + y for x, y in zip(a, b))
    if not _is_root(norm2, s):
        return 0
    a_pos = a in norm2
    b_pos = b in norm2
    if a_pos and b_pos:
        return table[(a, b)] if (a, b) in table else -table[(b, a)]
    if not a_pos and not b_pos:
        return -N(table, norm2, _neg(a), _neg(b))
    if not a_pos:  # a = -u, b = v, both u, v positive
        u = _neg(a)
        if s in norm2:  # v - u is a positive root
            return N(table, norm2, u, s) * norm2[s] // norm2[b]
        # u - v is a positive root: N(-u, v) = N(-v, u)
        w = _neg(s)
        return N(table, norm2, b, w) * norm2[w] // norm2[u]
    return -N(table, norm2, b, a)


def build_algebra(rs: RootSystem) -> ChevalleyAlgebra:
    """Fill the positive-pair structure-constant table by height recursion."""
    pos = [r.coeffs for r in rs.pos_roots]  # already (height, lex) sorted
    n = rs.rank
    norm2 = {
        r: sum(r[i] * rs.sym[i] * rs.cartan[i][j] * r[j] for i in range(n) for j in range(n))
        for r in pos
    }
    table: dict[tuple[Root, Root], int] = {}

    for delta in pos[n:]:  # the non-simple roots
        pairs = [(x.coeffs, tuple(map(operator.sub, delta, x.coeffs)))
                 for x in rs.summands(delta)]
        # extraspecial pair: the first summand, a simple alpha; its constant is
        # p + 1 for the alpha-string beta, beta - alpha, ..., beta - p*alpha
        alpha, beta = pairs[0]
        p, cur = 0, tuple(map(operator.sub, beta, alpha))
        while cur in norm2:
            p, cur = p + 1, tuple(map(operator.sub, cur, alpha))
        table[(alpha, beta)] = p + 1
        # remaining pairs summing to delta, via the Jacobi identity with -alpha
        m_alpha = _neg(alpha)
        n_delta_malpha = N(table, norm2, delta, m_alpha)
        for xi, eta in pairs:
            if xi == alpha or eta == alpha:
                continue
            if (xi, eta) in table or (eta, xi) in table:
                continue
            acc = 0
            xi_m = tuple(x - a for x, a in zip(xi, alpha))
            if _is_root(norm2, xi_m):
                acc += N(table, norm2, m_alpha, xi) * N(table, norm2, xi_m, eta)
            eta_m = tuple(x - a for x, a in zip(eta, alpha))
            if _is_root(norm2, eta_m):
                acc += N(table, norm2, eta, m_alpha) * N(table, norm2, eta_m, xi)
            val, rem = divmod(-acc, n_delta_malpha)
            if rem:
                raise EwmError(f"structure constant N{xi},{eta} is not an integer")
            table[(xi, eta)] = val
    return ChevalleyAlgebra(rs=rs, table=table, norm2=norm2)


def root_vector(alg: ChevalleyAlgebra, r: Sequence[int]) -> AlgVec:
    return AlgVec.make({("e", tuple(r)): Fraction(1)})


def _bracket_basis(alg: ChevalleyAlgebra, a: Key, b: Key) -> dict:
    """[a, b] for two basis labels, as plain {label: coefficient} terms."""
    rs = alg.rs
    ka, kb = a[0], b[0]
    if ka == "h" and kb == "h":
        return {}
    if ka == "h" and kb == "e":
        beta = b[1]
        return {b: sum(rs.cartan[a[1]][j] * beta[j] for j in range(rs.rank))}
    if ka == "e" and kb == "h":
        return {k: -v for k, v in _bracket_basis(alg, b, a).items()}
    beta, gamma = a[1], b[1]
    s = tuple(p + q for p, q in zip(beta, gamma))
    if all(c == 0 for c in s):
        # [e_beta, e_-beta] = h_beta = sum_j beta_j d_j / d_beta * h_j, beta > 0,
        # with d_beta = norm2[beta] / 2; each coefficient is an integer
        sign = 1 if beta in alg.norm2 else -1
        bpos = beta if sign == 1 else gamma
        n2 = alg.norm2[bpos]
        return {("h", j): Fraction(2 * sign * bpos[j] * rs.sym[j], n2)
                for j in range(rs.rank)}
    if _is_root(alg.norm2, s):
        return {("e", s): N(alg.table, alg.norm2, beta, gamma)}
    return {}


def bracket(alg: ChevalleyAlgebra, x: AlgVec, y: AlgVec) -> AlgVec:
    """Bilinear extension of the structure constants."""
    acc: dict = {}
    for ka, ca in x.items:
        for kb, cb in y.items:
            for k, v in _bracket_basis(alg, ka, kb).items():
                acc[k] = acc.get(k, 0) + ca * cb * v
    return AlgVec.make(acc)


class _Span:
    """Incremental echelon span of sparse vectors {basis label: Fraction};
    each row is scaled to 1 at its pivot, its smallest label."""

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
        inv = 1 / v[p]
        self.rows.append((p, {k: x * inv for k, x in v.items()}))
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
