"""Structure constants: Jacobi identity is the oracle, plus the root-string
magnitude law, grading, and the subspace machinery used by the sufficient
test."""

import hashlib
import random
from fractions import Fraction

import pytest

from ewm.chevalley import (
    N,
    AlgVec,
    _bracket_basis,
    bracket,
    build_algebra,
    commutes_with_all,
    ideal_closure,
    is_contained,
    root_vector,
)
from ewm.errors import GeneratorsOutsideAmbient, SchemaError
from ewm.rootsys import CartanType, build_root_system


def algebra(family, n):
    return build_algebra(build_root_system(CartanType(((family, n),))))


def basis_labels(alg):
    """Every Chevalley basis label: e_r for each root r, then h_0 .. h_{n-1}."""
    pos = [r.coeffs for r in alg.rs.pos_roots]
    return ([("e", r) for r in pos] + [("e", tuple(-c for c in r)) for r in pos]
            + [("h", i) for i in range(alg.rs.rank)])


# First 16 hex digits of the sha256 of
# repr((sorted(alg.table.items()), sorted(alg.norm2.items()))) for each type:
# the whole positive-pair table and every squared length, entry for entry.
TABLE_DIGESTS = {
    "A1": "e5cbf5916de1cb2a",
    "A2": "c8dcc4d4a42ff51d",
    "A3": "bab4cbda57c9a7cf",
    "A4": "178a1aa01aec6f29",
    "A5": "7c6b8deb59af95ae",
    "A6": "80484e4ee27a328b",
    "A7": "cb6f547230c7ac6c",
    "A8": "d5c56b30e49fccd1",
    "B2": "b9eddb7ed3ce581a",
    "B3": "bb67f37b8d2bcd22",
    "B4": "156c80d34abf93c5",
    "B5": "5fe3c3c7e6ce1f2f",
    "B6": "93825f330159468b",
    "C2": "cecdea16af3d546f",
    "C3": "3f6c84d2def938a6",
    "C4": "f5bcad1f873fabe2",
    "C5": "f712bc9e21f54519",
    "C6": "df9a004f7df26841",
    "D3": "a760cb8be03bd17b",
    "D4": "9448c89cdb2838a4",
    "D5": "767645ccfcfa4c3e",
    "D6": "3f04dba24b1dd1e4",
    "D7": "13ed0b0120d9199d",
    "E6": "489a8ba4acf889e9",
    "E7": "d7b617d974fdf018",
    "E8": "12400a16535002d4",
    "F4": "4b3250bd34e17960",
    "G2": "f211324de521d8bc",
}


@pytest.mark.parametrize("name", list(TABLE_DIGESTS))
def test_whole_table_digest(name):
    alg = algebra(name[0], int(name[1:]))
    text = repr((sorted(alg.table.items()), sorted(alg.norm2.items())))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == TABLE_DIGESTS[name]


@pytest.mark.parametrize("r", [(1, 0, 1), (0, 0, 0), (1, 0), (1, 1, 1, 0), (2, 0, 0)])
def test_root_vector_rejects_non_roots(r):
    """No basis vector of sl4 is labelled by r; brackets and `N` assume that
    every label is a root, so the label is refused where it enters."""
    with pytest.raises(SchemaError):
        root_vector(algebra("A", 3), r)


@pytest.mark.parametrize("a,b", [
    ((1, 0, 1), (0, 1, 0)), ((0, 0, 0), (0, 1, 0)), ((0, -1, 0), (-1, 0, -1))])
def test_structure_constant_rejects_non_roots(a, b):
    """Every recursive reduction of `N` checks its labels, so a label that is
    not a root ends in a schema error instead of unbounded recursion."""
    alg = algebra("A", 3)
    with pytest.raises(SchemaError):
        N(alg.table, alg.norm2, a, b)


def test_sl2_relations():
    alg = algebra("A", 1)
    e = root_vector(alg, (1,))
    f = root_vector(alg, (-1,))
    h = bracket(alg, e, f)
    assert h.as_dict() == {("h", 0): 1}
    assert bracket(alg, h, e).as_dict() == {("e", (1,)): 2}
    assert bracket(alg, h, f).as_dict() == {("e", (-1,)): -2}


def test_a2_constants_unit():
    alg = algebra("A", 2)
    table = alg.table
    assert set(abs(v) for v in table.values()) == {1}


def test_b2_long_string_constant():
    alg = algebra("B", 2)
    table = alg.table
    # alpha2-string through alpha1+alpha2 has p=1, so |N| = 2
    assert abs(table.get(((0, 1), (1, 1)), table.get(((1, 1), (0, 1)), 0))) == 2


@pytest.mark.parametrize("family,n", [("A", 5), ("B", 3)])
def test_jacobi_random_triples(family, n):
    alg = algebra(family, n)
    basis = basis_labels(alg)
    rng = random.Random(23)
    for _ in range(500):
        x, y, z = (AlgVec.make({rng.choice(basis): 1}) for _ in range(3))
        j = (
            bracket(alg, x, bracket(alg, y, z))
            + bracket(alg, y, bracket(alg, z, x))
            + bracket(alg, z, bracket(alg, x, y))
        )
        assert j.is_zero(), (x, y, z)


@pytest.mark.parametrize(
    "family,n",
    [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 3), ("D", 4), ("G", 2)],
)
def test_jacobi_small_types(family, n):
    alg = algebra(family, n)
    basis = basis_labels(alg)
    rng = random.Random(29)
    for _ in range(150):
        x, y, z = (AlgVec.make({rng.choice(basis): 1}) for _ in range(3))
        j = (
            bracket(alg, x, bracket(alg, y, z))
            + bracket(alg, y, bracket(alg, z, x))
            + bracket(alg, z, bracket(alg, x, y))
        )
        assert j.is_zero()


@pytest.mark.parametrize(
    "family,n",
    [("A", 3), ("B", 3), ("G", 2), ("C", 4), ("D", 5), ("F", 4), ("E", 6)],
)
def test_constant_magnitude_is_string_length(family, n):
    """|N(beta, gamma)| = p + 1, with p the length of the beta-string down
    from gamma: on the table, and through `N` on every ordered pair of roots
    of any sign whose sum is a root, always as a plain int."""
    rs = build_root_system(CartanType(((family, n),)))
    alg = build_algebra(rs)
    pos = {r.coeffs for r in rs.pos_roots}
    roots = pos | {tuple(-c for c in p) for p in pos}

    def string_down(beta, gamma):
        p = 0
        cur = tuple(g - b for g, b in zip(gamma, beta))
        while cur in roots:
            p += 1
            cur = tuple(c - b for c, b in zip(cur, beta))
        return p

    for (beta, gamma), val in alg.table.items():
        assert type(val) is int and abs(val) == string_down(beta, gamma) + 1
    pairs = 0
    for beta in roots:
        for gamma in roots:
            if tuple(b + g for b, g in zip(beta, gamma)) not in roots:
                continue
            val = N(alg.table, alg.norm2, beta, gamma)
            assert type(val) is int, (beta, gamma, val)
            assert abs(val) == string_down(beta, gamma) + 1, (beta, gamma, val)
            pairs += 1
    assert pairs > 2 * len(alg.table)


@pytest.mark.parametrize("family,n", [("B", 3), ("C", 3), ("F", 4), ("G", 2)])
def test_coroot_coefficients_integral(family, n):
    """[e_beta, e_-beta] is the coroot of beta: integral coefficients on the
    simple coroots h_j, held exactly, for every positive beta."""
    alg = algebra(family, n)
    for r in alg.rs.pos_roots:
        beta, neg = r.coeffs, tuple(-c for c in r.coeffs)
        # the raw terms, before AlgVec.make would turn a float into a Fraction
        terms = _bracket_basis(alg, ("e", beta), ("e", neg))
        assert all(type(c) in (int, Fraction) for c in terms.values()), (beta, terms)
        h = bracket(alg, root_vector(alg, beta), root_vector(alg, neg))
        assert h.items and all(key[0] == "h" for key, _ in h.items)
        assert all(c.denominator == 1 for _, c in h.items), (beta, h)
        if sum(beta) == 1:
            assert h.as_dict() == {("h", beta.index(1)): 1}


@pytest.mark.parametrize(
    "family,n",
    [("A", 4), ("B", 3), ("C", 4), ("D", 5), ("G", 2), ("F", 4), ("E", 6)],
)
def test_extraspecial_pairs_positive(family, n):
    """Sign convention: for each non-simple positive root delta, with alpha the
    first positive root (in pos_roots order) such that delta - alpha is
    positive, N(alpha, delta - alpha) = p + 1 > 0, where p is the length of
    the alpha-string down from delta - alpha."""
    rs = build_root_system(CartanType(((family, n),)))
    alg = build_algebra(rs)
    pos = [r.coeffs for r in rs.pos_roots]
    roots = set(pos) | {tuple(-c for c in r) for r in pos}
    checked = 0
    for delta in pos:
        if sum(delta) == 1:
            continue
        alpha = next(a for a in pos if tuple(d - x for d, x in zip(delta, a)) in pos)
        beta = tuple(d - x for d, x in zip(delta, alpha))
        p = 0
        cur = tuple(b - a for b, a in zip(beta, alpha))
        while cur in roots:
            p += 1
            cur = tuple(c - a for c, a in zip(cur, alpha))
        assert alg.table[(alpha, beta)] == p + 1, (delta, alpha)
        checked += 1
    assert checked == len(pos) - n


@pytest.mark.parametrize("n", [6, 7, 8])
def test_jacobi_e_types_root_triples(n):
    """Jacobi identity on sampled root-vector triples (beta, gamma, delta) with
    beta + gamma a root and beta + gamma + delta a root or zero, so that no
    term vanishes for trivial reasons."""
    alg = algebra("E", n)
    pos = [r.coeffs for r in alg.rs.pos_roots]
    roots = pos + [tuple(-c for c in r) for r in pos]
    root_set = set(roots)
    zero = (0,) * n
    rng = random.Random(41 + n)
    found = 0
    while found < 150:
        b, g, d = rng.sample(roots, 3)
        bg = tuple(x + y for x, y in zip(b, g))
        bgd = tuple(x + y for x, y in zip(bg, d))
        if bg not in root_set or (bgd not in root_set and bgd != zero):
            continue
        found += 1
        x, y, z = (root_vector(alg, r) for r in (b, g, d))
        j = (
            bracket(alg, x, bracket(alg, y, z))
            + bracket(alg, y, bracket(alg, z, x))
            + bracket(alg, z, bracket(alg, x, y))
        )
        assert j.is_zero(), (b, g, d)
        assert not bracket(alg, x, y).is_zero()


def test_antisymmetry_and_alternating():
    alg = algebra("B", 2)
    for key in basis_labels(alg):
        v = AlgVec.make({key: 1})
        assert bracket(alg, v, v).is_zero()
    rng = random.Random(31)
    basis = basis_labels(alg)
    for _ in range(50):
        x = AlgVec.make({rng.choice(basis): rng.randint(1, 3)})
        y = AlgVec.make({rng.choice(basis): rng.randint(1, 3)})
        assert (bracket(alg, x, y) + bracket(alg, y, x)).is_zero()


def test_grading():
    rs = build_root_system(CartanType((("B", 3),)))
    alg = build_algebra(rs)
    pos = {r.coeffs for r in rs.pos_roots}
    roots = list(pos) + [tuple(-c for c in p) for p in pos]
    rng = random.Random(37)
    for _ in range(200):
        b, g = rng.choice(roots), rng.choice(roots)
        out = bracket(alg, root_vector(alg, b), root_vector(alg, g))
        s = tuple(x + y for x, y in zip(b, g))
        for key, _ in out.items:
            if key[0] == "e":
                assert key[1] == s
            else:
                assert all(c == 0 for c in s)


def test_ideal_closure_sl3_conjugate():
    # nilradical of the opposite parabolic with Levi {alpha1}: two root spaces
    alg = algebra("A", 2)
    p_u = [root_vector(alg, (0, -1)), root_vector(alg, (-1, -1))]
    ideal = ideal_closure(alg, [root_vector(alg, (0, -1))], p_u)
    assert len(ideal) == 1
    assert is_contained(alg, ideal, [root_vector(alg, (0, -1))])


def test_ideal_closure_abelian_block():
    # lower-left 3x3 block of sl6 is abelian, so the ideal is the generator
    alg = algebra("A", 5)
    block = []
    for i in range(3):
        for j in range(3):
            root = [0] * 5
            for k in range(j, i + 3):
                root[k] = -1
            block.append(root_vector(alg, tuple(root)))
    gen = root_vector(alg, (0, 0, -1, 0, 0))
    ideal = ideal_closure(alg, [gen], block)
    assert len(ideal) == 1


def test_ideal_closure_full_borel():
    # with the whole lower-triangular nilradical of sl3 as ambient, the ideal
    # of e_{-alpha1} also picks up e_{-alpha1-alpha2}
    alg = algebra("A", 2)
    p_u = [
        root_vector(alg, (-1, 0)),
        root_vector(alg, (0, -1)),
        root_vector(alg, (-1, -1)),
    ]
    ideal = ideal_closure(alg, [root_vector(alg, (-1, 0))], p_u)
    assert len(ideal) == 2
    assert is_contained(
        alg, ideal, [root_vector(alg, (-1, 0)), root_vector(alg, (-1, -1))]
    )


def test_ideal_closure_monotone_idempotent():
    alg = algebra("A", 2)
    p_u = [
        root_vector(alg, (-1, 0)),
        root_vector(alg, (0, -1)),
        root_vector(alg, (-1, -1)),
    ]
    gens = [root_vector(alg, (-1, 0))]
    once = ideal_closure(alg, gens, p_u)
    assert is_contained(alg, gens, once)
    twice = ideal_closure(alg, once, p_u)
    assert is_contained(alg, twice, once) and is_contained(alg, once, twice)


def test_ideal_closure_rejects_outside_generators():
    alg = algebra("A", 2)
    with pytest.raises(GeneratorsOutsideAmbient):
        ideal_closure(alg, [root_vector(alg, (1, 0))], [root_vector(alg, (0, -1))])


def test_is_contained_dimension_cases():
    alg = algebra("A", 2)
    e1 = root_vector(alg, (0, -1))
    e2 = root_vector(alg, (-1, -1))
    diff = e1 + e2.scale(-1)
    assert not is_contained(alg, [e1], [diff])
    assert is_contained(alg, [diff], [e1, e2])


def test_commutes_with_all():
    alg = algebra("A", 2)
    x = root_vector(alg, (-1, 0))
    assert commutes_with_all(alg, x, [])
    assert not commutes_with_all(alg, x, [root_vector(alg, (1, 0))])
    assert commutes_with_all(alg, x, [root_vector(alg, (-1, 0))])
