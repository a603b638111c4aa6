"""Chevalley-basis structure constants and subspace arithmetic.

Builds the table N_{beta,gamma} for each root system with the classical
extraspecial-pair sign convention (the extraspecial pair of every non-simple
positive root gets a positive constant), then exposes bracket computation,
ideal closure inside a nilradical, containment and commutation tests -- the
Lie-algebra half of the simple-spherical-root sufficient test.
"""

from __future__ import annotations

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
    "cartan_vector",
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
        cleaned = {k: Fraction(v) for k, v in d.items() if v != 0}
        return AlgVec(tuple(sorted(cleaned.items(), key=lambda kv: repr(kv[0]))))

    def as_dict(self) -> dict:
        return dict(self.items)

    def is_zero(self) -> bool:
        return not self.items

    def __add__(self, other: "AlgVec") -> "AlgVec":
        d = self.as_dict()
        for k, v in other.items:
            d[k] = d.get(k, Fraction(0)) + v
        return AlgVec.make(d)

    def scale(self, c) -> "AlgVec":
        return AlgVec.make({k: Fraction(c) * v for k, v in self.items})


@dataclass(frozen=True, eq=False)
class ChevalleyAlgebra:
    """Structure constants of `rs` in a Chevalley basis.  Compares and hashes
    by identity, so no lookup ever hashes the table."""

    rs: RootSystem
    table: dict[tuple[Root, Root], int]  # N on positive pairs
    norm2: dict[Root, Fraction]  # squared length of each positive root
    basis: tuple[Key, ...]
    index: dict[Key, int]  # basis label -> coordinate


def _norm2(rs: RootSystem, r: Root) -> Fraction:
    """Squared length of a root via the symmetrized Cartan matrix."""
    total = Fraction(0)
    n = rs.rank
    for i in range(n):
        if r[i]:
            for j in range(n):
                if r[j] and rs.cartan[i][j]:
                    total += r[i] * rs.sym[i] * rs.cartan[i][j] * r[j]
    return total


def _neg(r: Root) -> Root:
    return tuple(-c for c in r)


def _is_root(norm2: dict, r: Root) -> bool:
    return r in norm2 or _neg(r) in norm2


def _string_down(norm2: dict, beta: Root, alpha: Root) -> int:
    """Largest p with beta - p*alpha still a root."""
    p = 0
    cur = tuple(b - a for b, a in zip(beta, alpha))
    while _is_root(norm2, cur):
        if all(c == 0 for c in cur):
            break
        p += 1
        cur = tuple(c - a for c, a in zip(cur, alpha))
    return p


def N(table: dict, norm2: dict, a: Root, b: Root) -> Fraction:
    """Structure constant N_{a,b} for roots of any sign, reduced to the
    positive-pair table; `norm2` holds the squared length of each positive
    root and doubles as the positive-root set."""
    s = tuple(x + y for x, y in zip(a, b))
    if not _is_root(norm2, s):
        return Fraction(0)
    a_pos = a in norm2
    b_pos = b in norm2
    if a_pos and b_pos:
        return Fraction(table[(a, b)] if (a, b) in table else -table[(b, a)])
    if not a_pos and not b_pos:
        return -N(table, norm2, _neg(a), _neg(b))
    if not a_pos:  # a = -u, b = v, both u, v positive
        u = _neg(a)
        if s in norm2:  # v - u is a positive root
            return N(table, norm2, u, s) * norm2[s] / norm2[b]
        # u - v is a positive root: N(-u, v) = N(-v, u)
        w = _neg(s)
        return N(table, norm2, b, w) * norm2[w] / norm2[u]
    return -N(table, norm2, b, a)


def build_algebra(rs: RootSystem) -> ChevalleyAlgebra:
    """Fill the positive-pair structure-constant table by height recursion."""
    pos = [r.coeffs for r in rs.pos_roots]  # already (height, lex) sorted
    norm2 = {r: _norm2(rs, r) for r in pos}
    table: dict[tuple[Root, Root], int] = {}

    for delta in pos:
        if sum(delta) == 1:
            continue
        pairs = [
            (x, tuple(d - v for d, v in zip(delta, x)))
            for x in pos
            if tuple(d - v for d, v in zip(delta, x)) in norm2
        ]
        # extraspecial pair: minimal alpha (in root order) with delta-alpha positive
        alpha, beta = pairs[0]
        table[(alpha, beta)] = _string_down(norm2, beta, alpha) + 1
        # remaining pairs summing to delta, via the Jacobi identity with -alpha
        n_delta_malpha = -table[(alpha, beta)] * norm2[beta] / norm2[delta]
        m_alpha = _neg(alpha)
        for xi, eta in pairs:
            if xi == alpha or eta == alpha:
                continue
            if (xi, eta) in table or (eta, xi) in table:
                continue
            acc = Fraction(0)
            xi_m = tuple(x - a for x, a in zip(xi, alpha))
            if _is_root(norm2, xi_m):
                acc += N(table, norm2, m_alpha, xi) * N(table, norm2, xi_m, eta)
            eta_m = tuple(x - a for x, a in zip(eta, alpha))
            if _is_root(norm2, eta_m):
                acc += N(table, norm2, eta, m_alpha) * N(table, norm2, eta_m, xi)
            val = -acc / n_delta_malpha
            if val.denominator != 1:
                raise EwmError(f"structure constant N{xi},{eta} = {val} is not an integer")
            table[(xi, eta)] = int(val)

    basis: list[Key] = [("e", r) for r in pos]
    basis += [("e", _neg(r)) for r in pos]
    basis += [("h", i) for i in range(rs.rank)]
    return ChevalleyAlgebra(
        rs=rs, table=table, norm2=norm2, basis=tuple(basis),
        index={k: i for i, k in enumerate(basis)},
    )


def root_vector(alg: ChevalleyAlgebra, r: Sequence[int]) -> AlgVec:
    return AlgVec.make({("e", tuple(r)): Fraction(1)})


def cartan_vector(alg: ChevalleyAlgebra, i: int) -> AlgVec:
    return AlgVec.make({("h", i): Fraction(1)})


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
        # [e_beta, e_-beta] = h_beta = sum_j beta_j d_j / d_beta * h_j, beta > 0
        sign = 1 if beta in alg.norm2 else -1
        bpos = beta if sign == 1 else gamma
        d_beta = alg.norm2[bpos] / 2
        return {("h", j): sign * bpos[j] * rs.sym[j] / d_beta for j in range(rs.rank)}
    if _is_root(alg.norm2, s):
        return {("e", s): N(alg.table, alg.norm2, beta, gamma)}
    return {}


def bracket(alg: ChevalleyAlgebra, x: AlgVec, y: AlgVec) -> AlgVec:
    """Bilinear extension of the structure constants."""
    acc: dict = {}
    for ka, ca in x.items:
        for kb, cb in y.items:
            for k, v in _bracket_basis(alg, ka, kb).items():
                acc[k] = acc.get(k, Fraction(0)) + ca * cb * v
    return AlgVec.make(acc)


def _to_coords(alg: ChevalleyAlgebra, v: AlgVec) -> list[Fraction]:
    out = [Fraction(0)] * len(alg.basis)
    for k, c in v.items:
        out[alg.index[k]] = c
    return out


class _Span:
    """Incremental row-echelon span over the rationals."""

    def __init__(self, dim: int):
        self.rows: list[list[Fraction]] = []
        self.pivots: list[int] = []
        self.dim = dim

    def _reduce(self, vec: list[Fraction]) -> list[Fraction]:
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p] / row[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains(self, vec: list[Fraction]) -> bool:
        return all(c == 0 for c in self._reduce(vec))

    def add(self, vec: list[Fraction]) -> bool:
        """Insert vec; returns True if it enlarged the span."""
        v = self._reduce(vec)
        for i, c in enumerate(v):
            if c != 0:
                self.rows.append(v)
                self.pivots.append(i)
                return True
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


def ideal_closure(
    alg: ChevalleyAlgebra, generators: Sequence[AlgVec], ambient: Sequence[AlgVec]
) -> list[AlgVec]:
    """Smallest subspace containing the generators and stable under bracketing
    with every ambient basis vector (fixpoint iteration, exact rank tests)."""
    amb = _Span(len(alg.basis))
    for a in ambient:
        amb.add(_to_coords(alg, a))
    for g in generators:
        if not amb.contains(_to_coords(alg, g)):
            raise GeneratorsOutsideAmbient("generator outside ambient span")
    span = _Span(len(alg.basis))
    current = [g for g in generators if not g.is_zero()]
    basis_vecs: list[AlgVec] = []
    for g in current:
        if span.add(_to_coords(alg, g)):
            basis_vecs.append(g)
    frontier = list(basis_vecs)
    while frontier:
        new: list[AlgVec] = []
        for v in frontier:
            for a in ambient:
                w = bracket(alg, a, v)
                if not w.is_zero() and span.add(_to_coords(alg, w)):
                    basis_vecs.append(w)
                    new.append(w)
        frontier = new
    return basis_vecs


def is_contained(alg: ChevalleyAlgebra, sub: Sequence[AlgVec], space: Sequence[AlgVec]) -> bool:
    sp = _Span(len(alg.basis))
    for v in space:
        sp.add(_to_coords(alg, v))
    return all(sp.contains(_to_coords(alg, v)) for v in sub)


def commutes_with_all(alg: ChevalleyAlgebra, x: AlgVec, gens: Iterable[AlgVec]) -> bool:
    return all(bracket(alg, x, g).is_zero() for g in gens)
