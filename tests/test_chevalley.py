"""Structure constants: Jacobi identity is the oracle, plus the root-string
magnitude law, grading, and the subspace machinery used by the sufficient
test."""

import random

import pytest

from ewm.chevalley import (
    AlgVec,
    bracket,
    build_algebra,
    cartan_vector,
    commutes_with_all,
    ideal_closure,
    is_contained,
    root_vector,
)
from ewm.errors import GeneratorsOutsideAmbient
from ewm.rootsys import CartanType, build_root_system


def algebra(family, n):
    return build_algebra(build_root_system(CartanType(((family, n),))))


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
    basis = list(alg.basis)
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
    basis = list(alg.basis)
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
    rs = build_root_system(CartanType(((family, n),)))
    alg = build_algebra(rs)
    pos = {r.coeffs for r in rs.pos_roots}
    roots = pos | {tuple(-c for c in p) for p in pos}
    for (beta, gamma), val in alg.table.items():
        p = 0
        cur = tuple(g - b for g, b in zip(gamma, beta))
        while cur in roots:
            p += 1
            cur = tuple(c - b for c, b in zip(cur, beta))
        assert abs(val) == p + 1


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
    for key in alg.basis:
        v = AlgVec.make({key: 1})
        assert bracket(alg, v, v).is_zero()
    rng = random.Random(31)
    basis = list(alg.basis)
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
