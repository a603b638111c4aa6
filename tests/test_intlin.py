"""Integer linear algebra: Smith form contract, congruence kernels/solves,
lattice membership against a brute-force oracle, canonical bases."""

import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ewm.intlin import (
    CharSpace,
    CharVec,
    IntMatrix,
    hnf_rows,
    in_sublattice,
    kernel_with_moduli,
    mat_vec,
    smith_normal_form,
    solve_with_moduli,
)
from ewm.cli import parse_general
from ewm.core import lambda_lattice
from ewm.errors import PiMapError, SchemaError
from ewm.rootsys import CartanType, RootVec, build_root_system
from ewm.solvable import SolvableDatum, f_set

DATA = Path(__file__).resolve().parent.parent / "data"


def matmul(A, B, cols):
    """The product of row lists A and B, where B has `cols` columns (and may
    have no rows)."""
    return [[sum(a * B[k][j] for k, a in enumerate(row)) for j in range(cols)] for row in A]


def det(rows):
    M = [list(map(Fraction, r)) for r in rows]
    n = len(M)
    d = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if M[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            d = -d
        d *= M[c][c]
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return d


EMPTY_SHAPES = [(0, 0), (0, 3), (2, 0)]


def check_snf_contract(A):
    U, D, V = smith_normal_form(A)
    m, n = A.rows, A.cols
    assert [(U.rows, U.cols), (D.rows, D.cols), (V.rows, V.cols)] == [(m, m), (m, n), (n, n)]
    Ue = [list(r) for r in U.entries]
    De = [list(r) for r in D.entries]
    Ve = [list(r) for r in V.entries]
    assert matmul(matmul(Ue, [list(r) for r in A.entries], n), Ve, n) == De
    assert abs(det(Ue)) == 1
    assert abs(det(Ve)) == 1
    diag = [De[i][i] for i in range(min(A.rows, A.cols))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert De[i][j] == 0


def test_snf_identity():
    A = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    _, D, _ = smith_normal_form(A)
    assert [list(r) for r in D.entries] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_snf_diag_2_3():
    A = IntMatrix.from_rows([[2, 0], [0, 3]])
    _, D, _ = smith_normal_form(A)
    assert [D.entries[0][0], D.entries[1][1]] == [1, 6]


def test_snf_zero_matrix():
    A = IntMatrix.from_rows([[0, 0], [0, 0]])
    U, D, V = smith_normal_form(A)
    assert all(x == 0 for r in D.entries for x in r)
    assert [list(r) for r in U.entries] == [[1, 0], [0, 1]]
    assert [list(r) for r in V.entries] == [[1, 0], [0, 1]]


def test_snf_random_contract():
    rng = random.Random(11)
    for _ in range(200):
        A = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
        )
        check_snf_contract(A)


def _dense(rng, m, n):
    return IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])


def test_snf_dense_wide_inputs_keep_small_coefficients():
    """U, D and V stay within 128 bits on dense wide matrices with entries in
    -9..9.  The first is the iota of `test_check_dense_iota_kernel` in
    test_cli.py: a min-pivot elimination reached 77,212-bit entries on it."""
    inputs = [_dense(random.Random(7), 6, 8)]
    inputs += [_dense(random.Random(seed), 6, 8) for seed in (1, 2, 3)]
    inputs += [_dense(random.Random(seed), 8, 11) for seed in (1, 2, 3)]
    for A in inputs:
        bits = max(abs(x).bit_length() for M in smith_normal_form(A) for r in M.entries for x in r)
        assert bits <= 128, (A.entries, bits)
        check_snf_contract(A)


def test_snf_nonsquare():
    rng = random.Random(3)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        )
        check_snf_contract(A)
    for m, n in EMPTY_SHAPES:
        check_snf_contract(IntMatrix.from_rows([[0] * n] * m, n))


def test_empty_matrices_keep_their_shape():
    assert (IntMatrix.from_rows([], 3).rows, IntMatrix.from_rows([], 3).cols) == (0, 3)
    assert (IntMatrix.from_cols([], 2).rows, IntMatrix.from_cols([], 2).cols) == (2, 0)
    assert IntMatrix.from_cols([(), ()]) == IntMatrix.from_rows([], 2)
    assert IntMatrix.from_cols([(1, 2, 3)]) == IntMatrix.from_rows([[1], [2], [3]])
    assert IntMatrix.from_rows([], 3) != IntMatrix.from_rows([], 2)


@pytest.mark.parametrize("build", [IntMatrix.from_rows, IntMatrix.from_cols],
                         ids=["from_rows", "from_cols"])
def test_ragged_vectors_rejected(build):
    """Rows (or columns) of different lengths are an error, not a matrix cut
    to the first row's length or padded by a later computation."""
    with pytest.raises(SchemaError, match=r"ragged matrix: vectors of lengths \[2, 1\]"):
        build([[1, 2], [3]])


@pytest.mark.parametrize("x", [(1,), (1, 2, 3)], ids=["short", "long"])
def test_mat_vec_rejects_length_mismatch(x):
    with pytest.raises(SchemaError, match="vector has"):
        mat_vec(IntMatrix.from_rows([[1, 2], [3, 4]]), x)


def test_mat_vec_zero_rows_checks_length():
    """A 0 x 3 matrix, a map into the zero group, still has 3 columns."""
    assert mat_vec(IntMatrix.from_rows([], 3), (1, 2, 3)) == ()
    with pytest.raises(SchemaError, match="vector has 2 entries for 3 columns"):
        mat_vec(IntMatrix.from_rows([], 3), (1, 2))


def test_kernel_sl6():
    iota = IntMatrix.from_rows([[1, 1, 1, 0, 0], [0, 1, 1, 1, 0], [0, 0, 1, 1, 1]])
    basis = kernel_with_moduli(iota, [0, 0, 0])
    assert hnf_rows(basis, 5) == hnf_rows([(1, 0, -1, 1, 0), (0, 1, -1, 0, 1)], 5)
    for v in basis:
        assert mat_vec(iota, v) == (0, 0, 0)


def test_kernel_so7_with_torsion():
    iota = IntMatrix.from_rows([[1, 2, 1], [1, 1, 1], [0, 0, 1]])
    basis = kernel_with_moduli(iota, [0, 0, 2])
    assert hnf_rows(basis, 3) == hnf_rows([(2, 0, -2)], 3)
    for v in basis:
        img = mat_vec(iota, v)
        assert img[0] == 0 and img[1] == 0 and img[2] % 2 == 0


def test_kernel_identity_empty():
    ident = IntMatrix.from_rows([[1, 0], [0, 1]])
    assert kernel_with_moduli(ident, [0, 0]) == []


def test_kernel_of_zero_rows_is_identity():
    """The kernel of a map into the zero group is everything."""
    for n in range(4):
        ident = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        assert kernel_with_moduli(IntMatrix.from_rows([], n), []) == ident


def test_kernel_rank_nullity():
    rng = random.Random(5)
    shapes = ((rng.randint(1, 4), rng.randint(1, 5)) for _ in range(25))
    for m, n in itertools.chain(shapes, EMPTY_SHAPES):
        A = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)], n
        )
        ker = kernel_with_moduli(A, [0] * m)
        _, D, _ = smith_normal_form(A)
        rank = sum(1 for i in range(min(m, n)) if D.entries[i][i] != 0)
        assert len(ker) == n - rank
        for v in ker:
            assert all(x == 0 for x in mat_vec(A, v))


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["torsion-first", "free-first"])
def test_kernel_keeps_each_projection_width(order):
    """[[1]] mod 2 and [[1, 2]] free augment to the same matrix: one shared
    factorization answers both, each at its own width."""
    cases = [
        (IntMatrix.from_rows([[1]]), [2], [(2,)]),
        (IntMatrix.from_rows([[1, 2]]), [0], [(2, -1)]),
    ]
    smith_normal_form.cache_clear()
    for i in order:
        A, moduli, want = cases[i]
        assert kernel_with_moduli(A, moduli) == want
    assert smith_normal_form.cache_info().misses == 1


def test_kernel_answer_is_the_callers_own():
    A = IntMatrix.from_rows([[1, 2, 3], [0, 4, 0]])
    got = kernel_with_moduli(A, [0, 6])
    want = list(got)
    got[0] = (0, 0, 0)
    got.append((1, 1, 1))
    assert kernel_with_moduli(A, [0, 6]) == want


def test_solve_parity_no_solution():
    assert solve_with_moduli(IntMatrix.from_rows([[2]]), [0], [3]) is None


def test_solve_2x2():
    sol = solve_with_moduli(IntMatrix.from_rows([[1, 1], [1, 0]]), [0, 0], [1, -1])
    assert sol is not None
    particular, hom = sol
    assert particular == (-1, 2)
    assert hom == []


def test_solve_zero_rhs_matches_kernel():
    A = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    sol = solve_with_moduli(A, [0, 0], [0, 0])
    particular, hom = sol
    assert all(x == 0 for x in mat_vec(A, particular))
    assert hom == kernel_with_moduli(A, [0, 0])


def test_solve_substitution_random():
    rng = random.Random(13)
    for _ in range(50):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        A = IntMatrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        )
        moduli = [rng.choice([0, 0, 2, 3]) for _ in range(m)]
        x = [rng.randint(-3, 3) for _ in range(n)]
        b = list(mat_vec(A, x))
        sol = solve_with_moduli(A, moduli, b)
        assert sol is not None
        particular, _ = sol
        got = mat_vec(A, particular)
        for g, want, mod in zip(got, b, moduli):
            if mod == 0:
                assert g == want
            else:
                assert (g - want) % mod == 0


def _augmented(A, moduli):
    """A with one column m_i * e_i per torsion row, built apart from the library."""
    extra = [i for i, mod in enumerate(moduli) if mod]
    return IntMatrix.from_rows(
        [list(r) + [moduli[i] * (i == k) for k in extra] for i, r in enumerate(A.entries)],
        A.cols + len(extra))


def _smith_formula(A, moduli, b):
    """V * (U*b / D), cut to A's columns, read off the record of the augmented
    matrix; None when some d_i does not divide (U*b)_i, a zero d_i included."""
    U, D, V = smith_normal_form(_augmented(A, moduli))
    y = [0] * V.rows
    for i, c in enumerate(mat_vec(U, b)):
        d = D.entries[i][i] if i < D.cols else 0
        if (c % d if d else c) != 0:
            return None
        if d:
            y[i] = c // d
    return mat_vec(V, y)[: A.cols]


def test_solve_matches_the_smith_formula():
    """Seeded differential test: on free and torsion systems up to 6 x 8 with
    entries in -5..5, a solve fails exactly when the formula does, and
    otherwise returns the formula's particular solution unchanged."""
    rng = random.Random(23)
    outcomes = {True: 0, False: 0}
    for _ in range(600):
        m, n = rng.randint(0, 6), rng.randint(1, 8)
        A = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)], n)
        moduli = [rng.choice([0, 0, 2, 3, 4, 6]) for _ in range(m)]
        if rng.random() < 0.3:
            b = list(mat_vec(A, [rng.randint(-3, 3) for _ in range(n)]))
        else:
            b = [rng.randint(-5, 5) for _ in range(m)]
        want = _smith_formula(A, moduli, b)
        sol = solve_with_moduli(A, moduli, b)
        outcomes[want is not None] += 1
        if want is None:
            assert sol is None, (A.entries, moduli, b)
        else:
            assert sol == (want, kernel_with_moduli(A, moduli)), (A.entries, moduli, b)
    assert min(outcomes.values()) >= 100, outcomes


def _assert_projections_agree(A, moduli):
    full = kernel_with_moduli(A, moduli)
    for w in range(A.cols + 1):
        assert kernel_with_moduli(A, moduli, w) == hnf_rows([k[:w] for k in full], w), w


def test_projected_kernel_is_the_hermite_form_of_the_projected_basis():
    """Reading a kernel at width w gives the Hermite form of the first w
    coordinates of the full kernel basis, at every width, torsion rows
    included."""
    rng = random.Random(19)
    for _ in range(150):
        m, n = rng.randint(1, 5), rng.randint(1, 7)
        A = IntMatrix.from_rows([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
        _assert_projections_agree(A, [rng.choice([0, 2, 3, 4]) for _ in range(m)])


@pytest.mark.parametrize("name", ["sl6", "so7", "sl3_parabolic"])
def test_projected_kernel_on_the_general_documents(name):
    """The same identity on the iota and [iota | -mu] matrices of the
    checked-in general documents; width rank of the second is the weight
    lattice."""
    d = parse_general(json.loads((DATA / f"{name}.json").read_text()))
    _assert_projections_agree(d.iota, d.moduli)
    _assert_projections_agree(d.joint_matrix, d.moduli)
    assert lambda_lattice(d) == hnf_rows(
        [k[: d.rank] for k in kernel_with_moduli(d.joint_matrix, d.moduli)], d.rank)


def brute_force_member(v, basis, bound=4):
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(basis)):
        combo = [sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(len(v))]
        if combo == list(v):
            return True
    return False


def test_in_sublattice_against_brute_force():
    rng = random.Random(17)
    for _ in range(100):
        k = rng.randint(1, 3)
        basis = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(k)]
        v = tuple(rng.randint(-3, 3) for _ in range(3))
        oracle = brute_force_member(v, basis)
        got = in_sublattice(v, basis, [0, 0, 0])
        if oracle:
            assert got
        elif not got:
            # agreement on the negative side; the brute-force bound can only
            # miss memberships needing large coefficients, never invent one
            assert not oracle
        else:
            # solver says yes with coefficients beyond the brute-force window:
            # verify by substitution
            A = IntMatrix.from_cols(list(basis))
            sol = solve_with_moduli(A, [0, 0, 0], list(v))
            assert sol is not None and mat_vec(A, sol[0]) == v


def test_in_sublattice_trivial_cases():
    assert in_sublattice((1, 2), [(1, 2)], [0, 0])
    assert not in_sublattice((1, 0), [(2, 0)], [0, 0])
    assert in_sublattice((1, 0), [(2, 0)], [3, 0])
    assert in_sublattice((0, 0), [], [0, 0])
    assert not in_sublattice((1, 0), [], [0, 0])


def test_hnf_rows_decides_lattice_equality():
    assert hnf_rows([(1, 0), (0, 1)], 2) == hnf_rows([(1, 1), (0, 1)], 2)
    assert hnf_rows([(2, 0), (0, 1)], 2) != hnf_rows([(1, 0), (0, 1)], 2)


def test_hnf_rows_canonical():
    # same lattice, different generating sets -> identical canonical basis
    b1 = hnf_rows([(1, 2, 3), (4, 5, 6)], 3)
    b2 = hnf_rows([(5, 7, 9), (4, 5, 6), (1, 2, 3)], 3)
    assert b1 == b2
    # the canonical basis spans the lattice of its generators, checked by solves
    gens = [(1, 2, 3), (4, 5, 6)]
    assert all(in_sublattice(v, gens, [0, 0, 0]) for v in b1)
    assert all(in_sublattice(v, b1, [0, 0, 0]) for v in gens)


def test_char_space_reduction():
    sp = CharSpace(2, (2,), ("a", "b", "t"))
    v = CharVec(sp, (3, -1, 5))
    assert v.coords == (3, -1, 1)
    assert (v + v).coords == (6, -2, 0)
    assert (-v).coords == (-3, 1, 1)
    assert not v.is_zero() and CharVec(sp, (0, 0, 2)).is_zero()


def _sl3_solvable(*active):
    return SolvableDatum(rs=build_root_system(CartanType((("A", 2),))),
                         active_roots=tuple(RootVec(r) for r in active),
                         codomain=CharSpace(2),
                         iota=IntMatrix.from_rows([[1, 0], [0, 1]]))


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda: CharSpace(1, (1,)), SchemaError),
        (lambda: CharVec(CharSpace(2), (1,)), SchemaError),
        (lambda: CharVec(CharSpace(2), (1, 1)) + CharVec(CharSpace(1, (2,)), (1, 1)),
         SchemaError),
        (lambda: solve_with_moduli(IntMatrix.from_rows([[1, 2]]), [0, 0], [1]),
         SchemaError),
        (lambda: solve_with_moduli(IntMatrix.from_rows([[1, 2]]), [0], [1, 2]),
         SchemaError),
        (lambda: IntMatrix.from_rows([]), SchemaError),
        (lambda: IntMatrix.from_cols([]), SchemaError),
        (lambda: _sl3_solvable((1, 0), (1, -1)), SchemaError),
        (lambda: f_set(_sl3_solvable((1, 0), (1, 1)), RootVec((0, 1))), PiMapError),
    ],
    ids=["modulus-1", "charvec-length", "add-across-spaces", "moduli-length",
         "rhs-length", "rows-without-cols", "cols-without-rows",
         "active-not-positive", "f-set-inactive"],
)
def test_invariants_raise_typed_errors(call, error):
    with pytest.raises(error):
        call()


def test_charvec_length_checked_under_optimize():
    """The shape checks are typed errors, not asserts: `python -O` keeps them."""
    code = ("from ewm.errors import SchemaError\n"
            "from ewm.intlin import CharSpace, CharVec\n"
            "try:\n"
            "    CharVec(CharSpace(2), (1,))\n"
            "except SchemaError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(1)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_snf_diagonal_matches_sympy_oracle():
    """The Smith diagonal agrees with sympy's invariant factors, computed
    independently, on 200 seeded random matrices up to 5x5 and 40 wider ones
    with up to 9 columns."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(53)
    shapes = [(5, 5)] * 200 + [(6, 9)] * 40
    for mmax, nmax in shapes:
        m, n, bound = rng.randint(1, mmax), rng.randint(1, nmax), rng.choice([1, 3, 9])
        rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
        _, D, _ = smith_normal_form(IntMatrix.from_rows(rows))
        diag = [D.entries[i][i] for i in range(min(m, n))]
        oracle = [abs(int(x)) for x in invariant_factors(sympy.Matrix(rows))]
        assert diag == oracle, rows
