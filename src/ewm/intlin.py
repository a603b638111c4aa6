"""Exact integer linear algebra over free abelian groups with torsion.

One elimination routine, `_echelon` (row Hermite form, in place, with any
appended columns following each row operation), serves both forms: it is the
body of `hnf_rows`, and the Smith normal form alternates its row and column
passes.  Kernels, congruence solving and lattice membership are phrased as
SNF problems on a matrix augmented with one column m_i * e_i per torsion row.

A matrix carries its column count, so a 0 x n matrix (a map into the zero
group) and an m x 0 one (an empty basis) go down the same SNF path as any
other: the kernel of a 0 x n matrix is all of Z^n.

Each distinct matrix is factored once per process: `smith_normal_form` is a
bounded LRU memo of 16 keyed by the frozen `IntMatrix`, returning one shared
`Smith` record per matrix.  The record holds U, the diagonal of D and the
columns of V, which every kernel and solve on that matrix reads, and one
Hermite basis of its kernel per projection width, derived once; it builds
the matrices D and V only when it is unpacked as (U, D, V).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import SchemaError

__all__ = [
    "IntMatrix",
    "CharSpace",
    "CharVec",
    "Smith",
    "smith_normal_form",
    "kernel_with_moduli",
    "solve_with_moduli",
    "in_sublattice",
    "hnf_rows",
    "mat_vec",
]

Vec = tuple[int, ...]
SNF_MEMO_SIZE = 16  # distinct matrices kept by the smith_normal_form memo


@dataclass(frozen=True)
class IntMatrix:
    """A rectangular integer matrix: a tuple of row tuples and the column
    count, which a matrix with no rows still has."""

    entries: tuple[Vec, ...]
    cols: int

    @property
    def rows(self) -> int:
        return len(self.entries)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        """The matrix with these rows; `cols` is required when there are none."""
        entries = tuple(map(tuple, rows))
        if len(set(map(len, entries))) > 1:
            raise SchemaError(f"ragged matrix: vectors of lengths {[*map(len, entries)]}")
        if entries:
            cols = len(entries[0])
        elif cols is None:
            raise SchemaError("a matrix with no rows needs its column count")
        return IntMatrix(entries, cols)

    @staticmethod
    def from_cols(cols: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        """The matrix with these columns; `rows` is required when there are none."""
        t = IntMatrix.from_rows(cols, rows)
        # zipping in range(t.cols) yields a row per column of t, even when t has no rows
        return IntMatrix(tuple(r[1:] for r in zip(range(t.cols), *t.entries)), t.rows)

    def column(self, j: int) -> Vec:
        return tuple(map(operator.itemgetter(j), self.entries))


@dataclass(frozen=True)
class CharSpace:
    """A finitely generated abelian group Z^free_rank x prod Z/m_i.

    Element vectors have length free_rank + len(moduli); the torsion tail is
    always stored reduced into [0, m_i).
    """

    free_rank: int
    moduli: tuple[int, ...] = ()
    names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if not all(m >= 2 for m in self.moduli):
            raise SchemaError(f"moduli must be integers >= 2, got {self.moduli}")

    @property
    def dim(self) -> int:
        return self.free_rank + len(self.moduli)

    def reduce(self, coords: Sequence[int]) -> Vec:
        if len(coords) != self.dim:
            raise SchemaError(f"character has {len(coords)} entries, space has {self.dim}")
        head = tuple(int(c) for c in coords[: self.free_rank])
        tail = tuple(int(c) % m for c, m in zip(coords[self.free_rank:], self.moduli))
        return head + tail


@dataclass(frozen=True)
class CharVec:
    """An element of a CharSpace, torsion part reduced canonically."""

    space: CharSpace
    coords: Vec

    def __post_init__(self):
        object.__setattr__(self, "coords", self.space.reduce(self.coords))

    def __add__(self, other: "CharVec") -> "CharVec":
        if self.space != other.space:
            raise SchemaError("characters of different spaces do not combine")
        return CharVec(self.space, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "CharVec":
        return CharVec(self.space, tuple(-a for a in self.coords))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)


def mat_vec(A: IntMatrix, x: Sequence[int]) -> Vec:
    if len(x) != A.cols:
        raise SchemaError(f"vector has {len(x)} entries for {A.cols} columns")
    return tuple(sum(map(operator.mul, r, x)) for r in A.entries)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Smith:
    """The factorization D = U*A*V of one matrix, kept as what its kernel and
    solve queries read: U, the diagonal of D (0 past its last column, one
    entry per row) and the columns of V.  Unpacking builds (U, D, V)."""

    U: IntMatrix
    diag: tuple[int, ...]
    cols: tuple[Vec, ...]
    _kernels: dict[int, tuple[Vec, ...]] = field(default_factory=dict, repr=False)

    def __iter__(self):
        n = len(self.cols)
        D = [[d * (i == j) for j in range(n)] for i, d in enumerate(self.diag)]
        return iter((self.U, IntMatrix.from_rows(D, n), IntMatrix.from_cols(self.cols, n)))

    def kernel(self, ncols: int) -> tuple[Vec, ...]:
        """HNF basis of the kernel projected onto the first `ncols` coordinates,
        derived on the first call per width: two (A, moduli) pairs can augment
        to the same matrix and differ only in their width."""
        if ncols not in self._kernels:
            rank = sum(1 for x in self.diag if x != 0)
            self._kernels[ncols] = tuple(hnf_rows([v[:ncols] for v in self.cols[rank:]], ncols))
        return self._kernels[ncols]

    def solve(self, b: Sequence[int], ncols: int) -> Optional[Vec]:
        """V*y cut to its first `ncols` entries, where D*y = U*b, adding only
        the columns of V with y_i != 0; None when a d_i does not divide (U*b)_i."""
        x = [0] * ncols
        for i, (c, d) in enumerate(zip(mat_vec(self.U, b), self.diag)):
            if c:
                if d == 0 or c % d != 0:
                    return None
                q = c // d
                x = [a + q * v for a, v in zip(x, self.cols[i])]
        return tuple(x)


@functools.lru_cache(maxsize=SNF_MEMO_SIZE)
def smith_normal_form(A: IntMatrix) -> Smith:
    """The `Smith` record of A, which unpacks as (U, D, V) with D = U*A*V, U
    and V unimodular, D diagonal with non-negative entries satisfying d1 | d2
    | ...; for an m x n matrix A they are m x m, m x n and n x n.

    Alternating Hermite passes (H. Cohen, *A Course in Computational
    Algebraic Number Theory*, GTM 138, §2.4; R. Kannan and A. Bachem, SIAM
    J. Comput. 8 (1979)): a row pass on the rows of [M | U], then a column
    pass, run as a row pass on the rows of [M^T | V^T], until M is diagonal.
    After each pass the corner of the block not yet cleared divides the one
    before, and a pass that leaves the block's first row or column uncleared
    makes it a proper divisor, so the passes end.  Where d_i does not divide
    d_j, column j is added to column i: the next row pass lowers d_i to
    gcd(d_i, d_j), a proper divisor, and leaves d_1 ... d_(i-1) alone, so
    that loop ends too.  Reducing above each pivot holds down the entries
    of U and V.

    Memoised on A; callers share the one record and its kernels.  16 is over
    three times the most distinct matrices one datum needs (5, on
    data/sl6.json), so no datum factors a matrix twice; at MAX_RANK it also
    caps the memory.
    """
    m, n = A.rows, A.cols
    # the rows of [M | U], and V^T, the right-hand block of each column pass
    MU = [[*r, *(int(i == k) for k in range(m))] for i, r in enumerate(A.entries)]
    VT = [[int(i == k) for k in range(n)] for i in range(n)]
    while True:
        _echelon(MU, n)
        MV = [[r[j] for r in MU] + VT[j] for j in range(n)]
        _echelon(MV, m)
        MU = [[r[i] for r in MV] + MU[i][n:] for i in range(m)]
        VT = [r[m:] for r in MV]
        if any(MU[i][j] for i in range(m) for j in range(n) if i != j):
            continue
        d = [MU[i][i] for i in range(min(m, n))]
        ij = next(((i, j) for i in range(len(d)) for j in range(i + 1, len(d))
                   if d[i] and d[j] % d[i]), None)
        if ij is None:
            break
        i, j = ij
        MU[j][i] = d[j]  # column i += column j
        VT[i] = [a + b for a, b in zip(VT[i], VT[j])]
    return Smith(IntMatrix.from_rows([r[n:] for r in MU], m),
                 tuple(MU[i][i] if i < n else 0 for i in range(m)), tuple(map(tuple, VT)))


def _augment_with_moduli(A: IntMatrix, moduli: Sequence[int]) -> IntMatrix:
    """Append one column m_i * e_i per torsion row (modulus >= 2)."""
    if len(moduli) != A.rows:
        raise SchemaError(f"{len(moduli)} moduli for {A.rows} rows")
    if not any(moduli):
        return A
    extra = [i for i, mmod in enumerate(moduli) if mmod != 0]
    return IntMatrix.from_rows(
        [r + tuple(moduli[i] if i == k else 0 for k in extra) for i, r in enumerate(A.entries)])


def kernel_with_moduli(A: IntMatrix, moduli: Sequence[int],
                       ncols: Optional[int] = None) -> list[Vec]:
    """Basis of {x : (Ax)_i = 0 when m_i = 0, (Ax)_i = 0 mod m_i otherwise}:
    the kernel of the augmented matrix, projected back onto A's columns, or
    onto its first `ncols` when given."""
    width = A.cols if ncols is None else ncols
    return list(smith_normal_form(_augment_with_moduli(A, moduli)).kernel(width))


def solve_with_moduli(
    A: IntMatrix, moduli: Sequence[int], b: Sequence[int]
) -> Optional[tuple[Vec, list[Vec]]]:
    """Full integer solution set of A x = b under the row moduli.

    Returns (particular, homogeneous_basis), or None when inconsistent.
    """
    if len(b) != A.rows:
        raise SchemaError(f"right-hand side has {len(b)} entries for {A.rows} rows")
    particular = smith_normal_form(_augment_with_moduli(A, moduli)).solve(b, A.cols)
    if particular is None:
        return None
    return particular, kernel_with_moduli(A, moduli)


def in_sublattice(v: Sequence[int], basis: Sequence[Sequence[int]], moduli: Sequence[int]) -> bool:
    """Is v an integer combination of the basis vectors, modulo the torsion?

    `moduli` describes the ambient group: one entry per coordinate, 0 for a
    free coordinate and m >= 2 for a Z/m coordinate.
    """
    A = IntMatrix.from_cols(list(basis), len(v))
    return solve_with_moduli(A, moduli, list(v)) is not None


def hnf_rows(vectors: Sequence[Sequence[int]], ncols: int) -> list[Vec]:
    """Row-style Hermite normal form of the given generators.

    Returns a canonical basis (positive pivots, entries above each pivot
    reduced into [0, pivot)) of the lattice they span in Z^ncols, with zero
    rows dropped — the deterministic serialization used everywhere.
    """
    rows = [list(v) for v in vectors if any(v)]
    return [tuple(row) for row in rows[:_echelon(rows, ncols)]]


def _echelon(rows: list[list[int]], ncols: int) -> int:
    """Put `rows` into row Hermite form on their first `ncols` columns, in
    place, and return the pivot count; the pivot rows come first and the
    rest are zero there.  Any further columns follow every row operation,
    so an appended identity records the transform."""
    r = 0
    for col in range(ncols):
        if r == len(rows):  # every row has its pivot: no column left to clear
            break
        # find a row with nonzero entry in this column at or below r
        piv = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        # gcd out the column below the pivot
        changed = True
        while changed:
            changed = False
            for i in range(r + 1, len(rows)):
                if rows[i][col] != 0:
                    if abs(rows[i][col]) < abs(rows[r][col]):
                        rows[r], rows[i] = rows[i], rows[r]
                    q = rows[i][col] // rows[r][col]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                    if rows[i][col] != 0:
                        changed = True
        if rows[r][col] < 0:
            rows[r] = [-a for a in rows[r]]
        # reduce entries above the pivot
        for i in range(r):
            q = rows[i][col] // rows[r][col]
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r
