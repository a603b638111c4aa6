"""Root-system layer: Cartan matrices, the symmetrizer, positive roots and
the root-to-weight basis change.  The independent oracle for root generation
is closure under simple reflections, which never looks at root strings."""

import operator
from fractions import Fraction

import pytest

from ewm.errors import InvalidType, NegativeRootCoordinate
from ewm.rootsys import (
    CartanType,
    RootVec,
    WeightVec,
    build_root_system,
    is_dominant,
    positive_root_count,
    root_to_weight,
    supp,
    wsupp,
)

ALL_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", n) for n in (6, 7, 8)]
    + [("F", 4), ("G", 2)]
)


def reflection_closure(rs):
    """Independent oracle: orbit of the simple roots under simple reflections."""
    n = rs.rank
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        new = []
        for beta in frontier:
            for i in range(n):
                pairing = sum(rs.cartan[i][j] * beta[j] for j in range(n))
                img = tuple(
                    b - pairing * s for b, s in zip(beta, simples[i])
                )
                if img not in seen:
                    seen.add(img)
                    new.append(img)
        frontier = new
    return {r for r in seen if all(c >= 0 for c in r)}


@pytest.mark.parametrize(
    "family,n", ALL_TYPES + [("A", 30), ("B", 20), ("C", 18), ("D", 22), ("A", 80)])
def test_positive_root_count_closed_form(family, n):
    rs = build_root_system(CartanType(((family, n),)))
    assert len(rs.pos_roots) == positive_root_count(family, n)


PRODUCT_TYPES = [
    (("G", 2), ("B", 4), ("A", 1)),
    (("E", 6), ("C", 3)),
    (("F", 4), ("A", 2), ("G", 2)),
    (("E", 8), ("A", 1)),
    (("D", 5), ("B", 3), ("C", 2)),
]
EACH_TYPE_ARGS = [(t,) for t in ALL_TYPES] + PRODUCT_TYPES
EACH_TYPE_IDS = [f"{f}-{n}" for f, n in ALL_TYPES] + [
    "x".join(f"{f}{n}" for f, n in t) for t in PRODUCT_TYPES]
EACH_TYPE = pytest.mark.parametrize("factors", EACH_TYPE_ARGS, ids=EACH_TYPE_IDS)
# The sizes of the `roots` benchmark's large types, ranks 18 to 30, at which a
# root packed one byte per coefficient, and its pairings, reach up to 240 bits.
WIDE_TYPES = [(("A", 30),), (("A", 28), ("G", 2)), (("B", 20),), (("C", 18),),
              (("D", 22),), (("E", 8), ("A", 16)), (("G", 2), ("B", 18))]
WIDE_IDS = ["x".join(f"{f}{n}" for f, n in t) for t in WIDE_TYPES]
EACH_OR_WIDE = pytest.mark.parametrize(
    "factors", EACH_TYPE_ARGS + WIDE_TYPES, ids=EACH_TYPE_IDS + WIDE_IDS)


@EACH_OR_WIDE
def test_positive_roots_match_reflection_oracle(factors):
    """Same roots as the reflection orbit, in (height, coordinates) order."""
    rs = build_root_system(CartanType(factors))
    oracle = sorted(reflection_closure(rs), key=lambda r: (sum(r), r))
    assert [r.coeffs for r in rs.pos_roots] == oracle


@pytest.mark.parametrize("family,n", ALL_TYPES)
def test_cartan_matrix_shape(family, n):
    rs = build_root_system(CartanType(((family, n),)))
    C = rs.cartan
    for i in range(n):
        assert C[i][i] == 2
        for j in range(n):
            if i != j:
                assert C[i][j] <= 0
                assert (C[i][j] == 0) == (C[j][i] == 0)


def _det(M):
    """Exact determinant by Gaussian elimination over the rationals."""
    M = [list(map(Fraction, row)) for row in M]
    det = Fraction(1)
    for c in range(len(M)):
        piv = next((r for r in range(c, len(M)) if M[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            det = -det
        det *= M[c][c]
        for r in range(c + 1, len(M)):
            f = M[r][c] / M[c][c]
            M[r] = [a - f * b for a, b in zip(M[r], M[c])]
    return det


@pytest.mark.parametrize("family,n", ALL_TYPES)
def test_symmetrizer(family, n):
    rs = build_root_system(CartanType(((family, n),)))
    # D*C symmetric and positive definite (leading principal minors > 0)
    B = [[rs.sym[i] * rs.cartan[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert B[i][j] == B[j][i]
    for k in range(1, n + 1):
        assert _det([row[:k] for row in B[:k]]) > 0


def _plate(family, n):
    """Highest root in simple-root coordinates and det C, from Bourbaki's
    Plates I-IX; the highest root fixes the labelling, B against C too."""
    top = {
        "A": (1,) * n,
        "B": (1,) + (2,) * (n - 1),
        "C": (2,) * (n - 1) + (1,),
        "D": (1,) + (2,) * (n - 3) + (1, 1),
        "E": {6: (1, 2, 2, 3, 2, 1), 7: (2, 2, 3, 4, 3, 2, 1),
              8: (2, 3, 4, 6, 5, 4, 3, 2)}.get(n),
        "F": (2, 3, 4, 2),
        "G": (3, 2),
    }[family]
    return top, {"A": n + 1, "B": 2, "C": 2, "D": 4, "E": 9 - n, "F": 1, "G": 1}[family]


@pytest.mark.parametrize("factors", (
    [((f, n),) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 25)]
    + [(("E", 6),), (("E", 7),), (("E", 8),), (("F", 4),), (("G", 2),)]
    + [(("G", 2), ("B", 4), ("A", 1)), (("E", 6), ("C", 3)), (("D", 5), ("B", 3), ("C", 2))]),
    ids=lambda t: "x".join(f"{f}{n}" for f, n in t))
def test_bourbaki_plates(factors):
    """Each factor's highest root and the determinant of the Cartan matrix."""
    rs = build_root_system(CartanType(factors))
    det, offset = 1, 0
    for family, n in factors:
        top, factor_det = _plate(family, n)
        block = [r.coeffs[offset:offset + n] for r in rs.pos_roots
                 if not any(r.coeffs[:offset] + r.coeffs[offset + n:])]
        assert max(block, key=sum) == top
        det *= factor_det
        offset += n
    assert _det(rs.cartan) == det


def test_product_type_is_block_diagonal():
    rs = build_root_system(CartanType((("A", 2), ("B", 2))))
    assert rs.rank == rs.ctype.rank == 4
    assert rs.cartan[0][2] == rs.cartan[2][0] == 0
    assert len(rs.pos_roots) == 3 + 4


def test_invalid_ranks_rejected():
    for fam, n in [("A", 0), ("B", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("H", 2)]:
        with pytest.raises(InvalidType):
            CartanType(((fam, n),))


def test_a2_positive_roots():
    rs = build_root_system(CartanType((("A", 2),)))
    assert {r.coeffs for r in rs.pos_roots} == {(1, 0), (0, 1), (1, 1)}


def test_b2_positive_roots():
    rs = build_root_system(CartanType((("B", 2),)))
    assert {r.coeffs for r in rs.pos_roots} == {(1, 0), (0, 1), (1, 1), (1, 2)}


def test_root_to_weight_examples():
    a2 = build_root_system(CartanType((("A", 2),)))
    assert root_to_weight(a2, RootVec((1, 0))).coeffs == (2, -1)
    b3 = build_root_system(CartanType((("B", 3),)))
    assert root_to_weight(b3, RootVec((0, 0, 1))).coeffs == (0, -1, 2)
    assert root_to_weight(b3, RootVec((1, 0, -1))).coeffs == (2, 0, -2)


@EACH_OR_WIDE
def test_root_coefficients_fit_packing(factors):
    """No positive-root coefficient exceeds 6 (E8's highest root).  A root
    packs one coefficient per byte, so the difference of two packed roots
    has base-256 digits in [-6, 6]: it is a packed root only when it is that
    root, which makes `summands`' subtraction exact."""
    rs = build_root_system(CartanType(factors))
    assert max(max(r.coeffs) for r in rs.pos_roots) <= 6


@EACH_OR_WIDE
def test_root_pairings_fit_packing(factors):
    """Every pairing <beta, a_i^vee> of a positive root lies in [-3, 3]
    (Humphreys 9.4).  The closure stores each pairing plus 64 in one byte;
    this bound, with depths at most 3, keeps every byte it forms in 0..127,
    so no byte borrows from its neighbour."""
    rs = build_root_system(CartanType(factors))
    pairings = {sum(map(operator.mul, row, r.coeffs))
                for r in rs.pos_roots for row in rs.cartan}
    assert min(pairings) >= -3 and max(pairings) <= 3


@EACH_OR_WIDE
def test_summands_match_brute_force(factors):
    """`summands` lists, in root order, exactly the positive roots beta whose
    difference delta - beta is a positive root, as a scan of all pairs finds."""
    rs = build_root_system(CartanType(factors))
    pos = [r.coeffs for r in rs.pos_roots]
    assert rs.coords == set(pos)
    for delta in pos:
        expected = [b for b in pos if tuple(x - y for x, y in zip(delta, b)) in rs.coords]
        assert [b.coeffs for b in rs.summands(delta)] == expected


def test_supp_and_wsupp():
    assert supp(RootVec((1, 1))) == {0, 1}
    assert wsupp(WeightVec((1, 0, 1, 0, 1))) == {0, 2, 4}
    assert is_dominant(WeightVec((0, 2)))
    assert not is_dominant(WeightVec((-1, 2)))
    with pytest.raises(NegativeRootCoordinate):
        supp(RootVec((1, -1)))


@pytest.mark.parametrize("family,n", [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_root_string_consistency(family, n):
    """beta + alpha_i is a root exactly when the alpha_i-string through beta
    continues, with the string length read off from the pairing."""
    rs = build_root_system(CartanType(((family, n),)))
    pos = {r.coeffs for r in rs.pos_roots}
    roots = pos | {tuple(-c for c in r) for r in pos}
    for beta in pos:
        for i in range(n):
            pairing = sum(rs.cartan[i][j] * beta[j] for j in range(n))
            p = 0
            cur = beta[:i] + (beta[i] - 1,) + beta[i + 1:]
            while cur in roots:
                p += 1
                cur = cur[:i] + (cur[i] - 1,) + cur[i + 1:]
            q = p - pairing
            assert (beta[:i] + (beta[i] + 1,) + beta[i + 1:] in roots) == (q > 0)


def test_deterministic_ordering():
    rs = build_root_system(CartanType((("A", 3),)))
    heights = [r.height for r in rs.pos_roots]
    assert heights == sorted(heights)
    rs2 = build_root_system(CartanType((("A", 3),)))
    assert rs.pos_roots == rs2.pos_roots
