"""General pipeline: the three generator families, the weight lattice, the
dual functionals and the 0/1 coefficients, the third-family solve, and the
necessary/sufficient tests, all against the worked examples."""

import dataclasses
import json
import random
from pathlib import Path

import pytest

import ewm.core
import ewm.intlin
from ewm.chevalley import build_algebra, root_vector
from ewm.cli import parse_general, parse_solvable, run
from ewm.core import (
    GeneralDatum,
    NonUnique,
    check_necessary,
    check_sufficient_lie,
    compute_monoid,
    compute_xi1,
    compute_xi2,
    delta_coeff,
    kernel_iota,
    lambda_lattice,
    mu_lift,
    rho_vector,
    solve_xi3,
)
from ewm.errors import (
    DataInconsistency,
    NoLift,
    SchemaError,
    UniquenessViolated,
)
from ewm.intlin import CharSpace, CharVec, IntMatrix, hnf_rows, smith_normal_form
from ewm.rootsys import CartanType, RootVec, WeightVec, build_root_system
from ewm.solvable import SolvableDatum, to_general

DATA = Path(__file__).resolve().parent.parent / "data"


def gens_as_pairs(gens):
    return [(g.lam.coeffs, g.chi.coords) for g in gens]


class TestSL6:
    def test_xi1(self, sl6):
        assert gens_as_pairs(compute_xi1(sl6)) == [((0, 0, 1, 0, 0), (-1,))]

    def test_xi2(self, sl6):
        assert gens_as_pairs(compute_xi2(sl6)) == [
            ((1, 0, 0, 1, 0), (-1,)),
            ((0, 1, 0, 0, 1), (-1,)),
        ]

    def test_pi12_is_everything(self, sl6):
        assert sl6.pi12 == (0, 1, 2, 3, 4)
        assert 2 in sl6.pi12_single

    def test_kernel(self, sl6):
        assert hnf_rows(kernel_iota(sl6), 5) == hnf_rows(
            [(1, 0, -1, 1, 0), (0, 1, -1, 0, 1)], 5
        )

    def test_lambda_lattice(self, sl6):
        paper_basis = [
            (0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0),
            (1, 0, 1, 0, 0),
            (1, 0, 0, 0, 1),
            (0, 0, 1, 0, 1),
        ]
        assert hnf_rows(lambda_lattice(sl6), 5) == hnf_rows(paper_basis, 5)

    def test_rho_table(self, sl6):
        table = [[rho_vector(sl6, a)[j] for a in range(5)] for j in range(3)]
        assert table == [
            [0, 1, 0, 0, -1],
            [1, -1, 1, -1, 1],
            [-1, 0, 0, 1, 0],
        ]

    def test_delta(self, sl6):
        # only alpha3 has a singleton family there with rho = 1 at mu2
        assert delta_coeff(sl6, 1, 2) == 1
        assert delta_coeff(sl6, 0, 2) == 0

    def test_generators(self, sl6):
        result = compute_monoid(sl6)
        assert gens_as_pairs(result.generators) == [
            ((0, 0, 1, 0, 0), (-1,)),
            ((1, 0, 0, 1, 0), (-1,)),
            ((0, 1, 0, 0, 1), (-1,)),
            ((0, 1, 0, 0, 0), (0,)),
            ((1, 0, 1, 0, 1), (-1,)),
            ((0, 0, 0, 1, 0), (0,)),
        ]
        assert len(result.generators) == 6

    def test_lift_computed_when_absent(self, sl6):
        d = dataclasses.replace(sl6, xi3_prime=tuple((mu, None) for mu, _ in sl6.xi3_prime))
        result = compute_monoid(d)
        assert gens_as_pairs(result.generators) == gens_as_pairs(
            compute_monoid(sl6).generators
        )

    def test_necessary_alpha3(self, sl6):
        report = check_necessary(sl6, 2)
        assert report.passed and report.classification == "NecessaryPassed"
        assert report.rho_values == (0, 1, 0)


class TestSO7:
    def test_xi1(self, so7):
        assert gens_as_pairs(compute_xi1(so7)) == [
            ((1, 0, 0), (-1, 0)),
            ((0, 0, 1), (0, -1)),
        ]

    def test_xi2_empty(self, so7):
        assert compute_xi2(so7) == []

    def test_pi12(self, so7):
        assert so7.pi12 == (0, 2)

    def test_kernel(self, so7):
        assert hnf_rows(kernel_iota(so7), 3) == hnf_rows([(2, 0, -2)], 3)

    def test_lambda_is_root_lattice(self, so7):
        rs = so7.rs
        root_basis = [tuple(rs.cartan[i][j] for i in range(3)) for j in range(3)]
        assert hnf_rows(lambda_lattice(so7), 3) == hnf_rows(root_basis, 3)

    def test_rho_table(self, so7):
        table = [[rho_vector(so7, a)[j] for a in range(3)] for j in range(2)]
        assert table == [[-1, 2, -1], [1, -1, 1]]

    def test_delta(self, so7):
        assert delta_coeff(so7, 1, 2) == 1
        assert delta_coeff(so7, 0, 2) == 0

    def test_generators_and_diagnostic(self, so7):
        result = compute_monoid(so7)
        assert gens_as_pairs(result.generators) == [
            ((1, 0, 0), (-1, 0)),
            ((0, 0, 1), (0, -1)),
            ((0, 1, 0), (1, -2)),
            ((0, 0, 1), (1, -1)),
        ]
        codes = [d.code for d in result.diagnostics]
        assert "NECESSARY_PASSED_NOT_IN_SIGMA" in codes

    def test_alpha1_necessary_passes_despite_not_spherical(self, so7):
        report = check_necessary(so7, 0)
        assert report.passed
        assert 0 not in so7.sigma_simple

    def test_alpha2_necessary_fails(self, so7):
        # rho values (2, -1): no functional equals 1
        report = check_necessary(so7, 1)
        assert not report.passed
        assert report.rho_values == (2, -1)


class TestSL3Parabolic:
    def test_nonunique_report(self, sl3_parabolic):
        result = solve_xi3(sl3_parabolic)
        assert isinstance(result, NonUnique)
        ((mu_idx, particular, homogeneous),) = result.entries
        assert mu_idx == 0
        # unknown order: (a over Xi1, b and c over Xi2)
        assert particular[0] == -1
        assert particular[1] + particular[2] == 1
        assert len(homogeneous) == 1
        h = homogeneous[0]
        assert h[0] == 0 and sorted(h[1:]) == [-1, 1]

    def test_unique_expected_raises(self, sl3_parabolic):
        d = dataclasses.replace(sl3_parabolic, unique_expected=True)
        with pytest.raises(UniquenessViolated):
            solve_xi3(d)

    def test_compute_monoid_requires_a_unique_family(self, sl3_parabolic):
        """The datum declares its third family non-unique: `compute_monoid`
        refuses it and points to `solve_xi3`."""
        with pytest.raises(UniquenessViolated, match="compute_monoid requires a unique third"):
            compute_monoid(sl3_parabolic)


def _other_char(coords):
    """A character of a free space, unlike every space of the fixtures it
    is put into."""
    return CharVec(CharSpace(len(coords)), coords)


class TestValidation:
    @pytest.mark.parametrize(
        "base,fields,pointer,message",
        [
            ("so7", lambda d: dict(omega_bar=()), "/omega_bar/1", "missing required field '1'"),
            ("so7", lambda d: dict(omega_bar=d.omega_bar[:1]), "/omega_bar/3",
             "missing required field '3'"),
            ("so7", lambda d: dict(omega_bar=((0, _other_char((1, 0, 0))), d.omega_bar[1])),
             "/omega_bar/1", "outside char_space_K"),
            ("so7", lambda d: dict(pi_L=frozenset({1, 7})), "/pi_L", "indices in 1..3"),
            ("so7", lambda d: dict(sigma_simple=frozenset({2, 9})), "/sigma_simple",
             "indices in 1..3"),
            ("so7", lambda d: dict(xi3_prime=((_other_char((1, 0)), None),)),
             "/xi3_prime/0/mu", "outside codomain"),
            ("so7", lambda d: dict(xi3_prime=(d.xi3_prime[0], (d.xi3_prime[1][0], WeightVec((1, 0))))),
             "/xi3_prime/1/lift", "3 integer entries"),
            ("sl6", lambda d: dict(xi2_prime=((WeightVec((1, -1, 0, 1, 0)), d.xi2_prime[0][1]),)),
             "/xi2_prime/0/lambda_L", "lambda_L must be dominant"),
            ("sl6", lambda d: dict(xi2_prime=(d.xi2_prime[0], (WeightVec((0, 0, 1, 0, 0)),
                                                               d.xi2_prime[0][1]))),
             "/xi2_prime/1/lambda_L", "lambda_L support must lie in pi_L"),
            ("sl6", lambda d: dict(xi2_prime=((WeightVec((1, 0, 0, 1)), d.xi2_prime[0][1]),)),
             "/xi2_prime/0/lambda_L", "5 integer entries"),
            ("sl6", lambda d: dict(xi2_prime=((d.xi2_prime[0][0], _other_char((1, 0))),)),
             "/xi2_prime/0/chi", "outside char_space_K"),
            ("so7", lambda d: dict(iota=IntMatrix.from_rows([r[:2] for r in d.iota.entries])),
             "/iota", "iota must be a 3x3 integer matrix"),
            ("so7", lambda d: dict(iota=IntMatrix.from_rows([r + (0,) for r in d.iota.entries])),
             "/iota", "iota must be a 3x3 integer matrix"),
            ("so7", lambda d: dict(iota=IntMatrix.from_rows(d.iota.entries[:2])),
             "/iota", "iota must be a 3x3 integer matrix"),
        ],
        ids=["omega-bar-empty", "omega-bar-missing", "omega-bar-space", "pi-L-range",
             "sigma-range", "mu-space", "lift-length", "lambda-L-nondominant",
             "lambda-L-outside-levi", "lambda-L-length", "xi2-chi-space",
             "iota-3x2", "iota-3x4", "iota-2x3"],
    )
    def test_malformed_datum_rejected_at_construction(self, base, fields, pointer, message,
                                                      request):
        """A datum built in Python is held to the rules a document is: each
        of these ran to an answer, or failed late without a pointer, when
        only the parser checked them."""
        d = request.getfixturevalue(base)
        with pytest.raises(SchemaError, match=message) as e:
            compute_monoid(dataclasses.replace(d, **fields(d)))
        assert e.value.pointer == pointer

    def test_no_lift(self):
        # index-2 image: an odd target has no preimage
        rs = build_root_system(CartanType((("A", 1),)))
        K = CharSpace(1)
        S = CharSpace(1)
        bad = GeneralDatum(
            rs=rs,
            pi_L=frozenset(),
            char_space_K=K,
            omega_bar=((0, CharVec(K, (1,))),),
            codomain=S,
            iota=IntMatrix.from_rows([[2]]),
            xi2_prime=(),
            xi3_prime=((CharVec(S, (1,)), None),),
            sigma_simple=frozenset(),
        )
        with pytest.raises(NoLift):
            mu_lift(bad, 0)

    def test_bad_lift_rejected(self, so7):
        bad = dataclasses.replace(so7, xi3_prime=((CharVec(so7.codomain, (1, 0, 0)), WeightVec((1, 0, 0))),))
        with pytest.raises(NoLift):
            mu_lift(bad, 0)

    def test_data_inconsistency_on_asserted_root(self):
        # A1 with iota(pi1) = 1 and module weight 1: iota(alpha1) = 2 = 2*mu,
        # so rho = 2 and the necessary test must veto sigma = {alpha1}
        rs = build_root_system(CartanType((("A", 1),)))
        K = CharSpace(1)
        S = CharSpace(1)
        d = GeneralDatum(
            rs=rs,
            pi_L=frozenset(),
            char_space_K=K,
            omega_bar=((0, CharVec(K, (1,))),),
            codomain=S,
            iota=IntMatrix.from_rows([[1]]),
            xi2_prime=(),
            xi3_prime=((CharVec(S, (1,)), None),),
            sigma_simple=frozenset({0}),
        )
        with pytest.raises(DataInconsistency):
            compute_monoid(d)


def _parsed(name, parse):
    return parse(json.loads((DATA / f"{name}.json").read_text(encoding="utf-8")))


@pytest.mark.parametrize("name", ["sl6", "so7", "sl3_parabolic"])
def test_general_fixtures_match_data_files(name, request):
    assert request.getfixturevalue(name) == _parsed(name, parse_general)


@pytest.mark.parametrize("name", ["sl3_solvable", "n0"])
def test_solvable_fixtures_match_data_files(name, request):
    """The parser names the default codomain's coordinates ϖ1, ...; the
    fixture leaves them unnamed, so the codomain is compared without names."""
    fixture, parsed = request.getfixturevalue(name), _parsed(name, parse_solvable)
    assert (fixture.rs, fixture.active_roots, fixture.iota) == \
        (parsed.rs, parsed.active_roots, parsed.iota)
    assert (fixture.codomain.free_rank, fixture.codomain.moduli) == \
        (parsed.codomain.free_rank, parsed.codomain.moduli)


class TestParabolicInduction:
    def test_empty_xi3_short_circuits(self, sl6):
        d = dataclasses.replace(sl6, xi3_prime=())
        result = compute_monoid(d)
        assert [g.origin for g in result.generators] == ["Xi1", "Xi2", "Xi2"]
        assert hnf_rows(result.lambda_basis, 5) == hnf_rows(kernel_iota(d), 5)

    def test_rank_formula_on_synthetic_data(self):
        rng = random.Random(41)
        for _ in range(20):
            n = rng.randint(2, 5)
            rs = build_root_system(CartanType((("A", n),)))
            pi_L = frozenset(
                i for i in range(n) if rng.random() < 0.5
            )
            k = rng.randint(1, 3)
            K = CharSpace(k)
            S = CharSpace(1)
            omega_bar = tuple(
                (i, CharVec(K, tuple(rng.randint(-2, 2) for _ in range(k))))
                for i in sorted(set(range(n)) - pi_L)
            )
            n_xi2 = rng.randint(0, 2) if pi_L else 0
            xi2 = tuple(
                (
                    WeightVec(
                        tuple(
                            rng.randint(0, 2) if i in pi_L else 0 for i in range(n)
                        )
                    ),
                    CharVec(K, tuple(rng.randint(-2, 2) for _ in range(k))),
                )
                for _ in range(n_xi2)
            )
            xi2 = tuple(e for e in xi2 if any(e[0].coeffs))
            d = GeneralDatum(
                rs=rs,
                pi_L=pi_L,
                char_space_K=K,
                omega_bar=omega_bar,
                codomain=S,
                iota=IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)]]),
                xi2_prime=xi2,
                xi3_prime=(),
                sigma_simple=frozenset(),
            )
            result = compute_monoid(d)
            assert len(result.generators) == (n - len(pi_L)) + len(xi2)


class TestLieLevel:
    def test_sl6_ideal_not_in_symmetric_block(self):
        """Symmetric-matrix subalgebra inside the abelian 3x3 block: the ideal
        of the alpha3 root space is not contained in it."""
        alg = build_algebra(build_root_system(CartanType((("A", 5),))))

        def low(i, j):  # E_{i+3, j} for 1-based i, j in 1..3
            root = [0] * 5
            for kk in range(j - 1, i + 2):
                root[kk] = -1
            return root_vector(alg, tuple(root))

        p_u = [low(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
        h_u = [
            low(1, 1), low(2, 2), low(3, 3),
            low(1, 2) + low(2, 1), low(1, 3) + low(3, 1), low(2, 3) + low(3, 2),
        ]
        verdict = check_sufficient_lie(alg, 2, p_u, h_u, [])
        assert verdict == "Spherical"

    def test_sl3_generic_conjugate(self):
        alg = build_algebra(build_root_system(CartanType((("A", 2),))))
        p_u = [root_vector(alg, (0, -1)), root_vector(alg, (-1, -1))]
        h_u = [root_vector(alg, (0, -1)) + root_vector(alg, (-1, -1)).scale(-1)]
        verdict = check_sufficient_lie(alg, 1, p_u, h_u, [])
        assert verdict == "Spherical"

    def test_so7_alpha1_inconclusive(self):
        """The alpha1 commutation with the sl2 part fails, so the sufficient
        test cannot decide -- matching the fact that alpha1 passes the
        necessary conditions yet is not a spherical root."""
        rs = build_root_system(CartanType((("B", 3),)))
        alg = build_algebra(rs)
        neg = lambda *c: root_vector(alg, tuple(-x for x in c))
        p_u = [
            neg(1, 0, 0), neg(1, 1, 0), neg(1, 1, 1), neg(1, 1, 2),
            neg(1, 2, 2), neg(0, 0, 1), neg(0, 1, 1), neg(0, 1, 2),
        ]
        h_u = [
            neg(1, 1, 0) + neg(0, 0, 1),
            neg(1, 1, 1) + neg(0, 1, 1).scale(2),
            neg(1, 1, 2) + neg(0, 1, 2),
        ]
        s_prime = [root_vector(alg, (0, 1, 0)), root_vector(alg, (0, -1, 0))]
        verdict = check_sufficient_lie(alg, 0, p_u, h_u, s_prime)
        assert verdict == "Inconclusive"

    def test_not_spherical_branch(self):
        alg = build_algebra(build_root_system(CartanType((("A", 2),))))
        p_u = [root_vector(alg, (0, -1)), root_vector(alg, (-1, -1))]
        verdict = check_sufficient_lie(alg, 1, p_u, p_u, [])
        assert verdict == "NotSpherical"

    @pytest.mark.parametrize("alpha", [3, 7, -1])
    def test_alpha_outside_the_simple_roots_is_rejected(self, alpha):
        alg = build_algebra(build_root_system(CartanType((("A", 3),))))
        p_u = [root_vector(alg, (0, 0, -1))]
        with pytest.raises(SchemaError):
            check_sufficient_lie(alg, alpha, p_u, p_u, [])


def regular_lie_pair(d: SolvableDatum, alg):
    """(p_u, h_u) of a regular strongly solvable datum with S = T, for H inside
    B^-: P = B, so p_u holds every e_-beta, and h_u the e_-beta whose beta is
    not active.  The Levi of H is T, so s' is empty."""
    active = {r.coeffs for r in d.active_roots}
    p_u, h_u = [], []
    for r in d.rs.pos_roots:
        v = root_vector(alg, tuple(-c for c in r.coeffs))
        p_u.append(v)
        if r.coeffs not in active:
            h_u.append(v)
    return p_u, h_u


@pytest.mark.parametrize("family,n,alphas", [
    ("A", 4, None), ("B", 3, None), ("C", 3, None), ("G", 2, None), ("F", 4, None),
    ("D", 4, None), ("D", 5, None), ("E", 6, None), ("E", 7, None), ("E", 8, (0, 7)),
])
def test_sufficient_lie_ground_truth_on_regular_solvable(family, n, alphas):
    """The ideal of p_u generated by e_-alpha, alpha simple, is spanned by the
    e_-gamma with alpha in supp gamma.  With the active roots Psi a seeded set
    of simple roots, it lies in h_u exactly when alpha is not in Psi, which is
    sigma; otherwise the empty s' makes the verdict Spherical."""
    rs = build_root_system(CartanType(((family, n),)))
    rng = random.Random(f"{family}{n}")
    psi = sorted(rng.sample(range(n), rng.randint(1, n - 1)))
    d = SolvableDatum(
        rs=rs,
        active_roots=tuple(RootVec(tuple(int(i == j) for j in range(n))) for i in psi),
        codomain=CharSpace(free_rank=n),
        iota=IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)]),
    )
    alg = build_algebra(rs)
    p_u, h_u = regular_lie_pair(d, alg)
    verdicts = {a: check_sufficient_lie(alg, a, p_u, h_u, []) for a in alphas or range(n)}
    assert verdicts == {a: "Spherical" if a in d.sigma else "NotSpherical" for a in verdicts}
    assert alphas or len(set(verdicts.values())) == 2


class TestDerivedOnce:
    """Xi1/Xi2 and what is read off them are derived once per datum, and kept
    out of the datum's equality and hash."""

    @pytest.fixture
    def xi1_calls(self, monkeypatch):
        calls = []
        compute = ewm.core.compute_xi1

        def counted(d):
            calls.append(d)
            return compute(d)

        monkeypatch.setattr(ewm.core, "compute_xi1", counted)
        return calls

    @pytest.mark.parametrize("name", ["sl6", "so7"])
    def test_once_per_cli_run(self, name, xi1_calls, capsys):
        assert run(["general", "--input", str(DATA / f"{name}.json")]) == 0
        assert len(xi1_calls) == 1

    def test_once_per_solvable_encoding(self, xi1_calls):
        n = 8
        d = parse_solvable({"mode": "solvable", "group": [{"family": "A", "rank": n}],
                            "active_roots": [[int(i == j) for j in range(n)]
                                             for i in range(n)]})
        compute_monoid(to_general(d))
        assert len(xi1_calls) == 1

    def test_cached_members_leave_eq_and_hash(self):
        doc = json.loads((DATA / "sl6.json").read_text(encoding="utf-8"))
        read, fresh = parse_general(doc), parse_general(doc)
        for name in ("xi12", "pi12", "pi12_single", "moduli", "mu_matrix", "joint_matrix",
                     "xi12_matrix"):
            getattr(read, name)
        assert read == fresh
        assert hash(read) == hash(fresh)

    def test_replace_derives_afresh(self, sl6):
        assert sl6.pi12 == (0, 1, 2, 3, 4)
        d = dataclasses.replace(sl6, xi2_prime=sl6.xi2_prime[:1])
        assert d.xi12 == sl6.xi12[:2]
        assert d.pi12 == (0, 2, 3)


def test_sl6_factors_each_matrix_once(capsys):
    """The 343 SNF requests of one sl6 run factor its 5 distinct matrices once
    each; the output is the golden one with the memo cold and warm."""
    golden = (DATA / "golden" / "sl6.general.json").read_text(encoding="utf-8")
    args = ["general", "--input", str(DATA / "sl6.json")]
    smith_normal_form.cache_clear()
    assert run(args) == 0
    info = smith_normal_form.cache_info()
    assert (info.misses, info.hits) == (5, 338)
    assert capsys.readouterr().out == golden
    assert run(args) == 0
    assert smith_normal_form.cache_info().misses == 5
    assert capsys.readouterr().out == golden


def test_a8_factors_at_most_four_matrices():
    d = parse_solvable({"mode": "solvable", "group": [{"family": "A", "rank": 8}],
                        "active_roots": [[int(i == j) for j in range(8)] for i in range(8)]})
    smith_normal_form.cache_clear()
    compute_monoid(to_general(d))
    info = smith_normal_form.cache_info()
    assert info.hits + info.misses == 714
    assert info.misses <= 4


def _a_n_simple_active(n):
    d = parse_solvable({"mode": "solvable", "group": [{"family": "A", "rank": n}],
                        "active_roots": [[int(i == j) for j in range(n)] for i in range(n)]})
    return lambda: compute_monoid(to_general(d))


def _general_cli(name, *flags):
    return lambda: run(["general", "--input", str(DATA / f"{name}.json"), *flags])


@pytest.mark.parametrize(
    "case,ceiling",
    [
        (_general_cli("so7"), 62),
        (_general_cli("sl3_parabolic", "--allow-nonunique"), 8),
        (_a_n_simple_active(4), 198),
    ],
    ids=["so7", "sl3_parabolic", "a4"],
)
def test_snf_requests_stay_under_the_probe_counts(case, ceiling, capsys):
    """The benchmark probe's SNF request counts as ceilings: a change of
    matrix shapes that adds requests fails here, one that removes them
    passes."""
    smith_normal_form.cache_clear()
    case()
    info = smith_normal_form.cache_info()
    assert info.hits + info.misses <= ceiling


@pytest.mark.parametrize(
    "name,flags,ceiling",
    [("sl6", (), 5), ("so7", (), 5), ("sl3_parabolic", ("--allow-nonunique",), 4)],
    ids=["sl6", "so7", "sl3_parabolic"],
)
def test_hnf_calls_stay_under_the_cold_run_counts(name, flags, ceiling, monkeypatch, capsys):
    """A factorization puts its kernel basis in Hermite form once per
    projection width, not once per query, and the weight lattice is read
    from its record at width rank: a cold `general` run re-deriving the
    basis on every kernel query makes 271, 48 and 7 `hnf_rows` calls, and
    one that puts each lattice query in Hermite form again makes 71, 16
    and 6."""
    calls = []
    hnf = ewm.intlin.hnf_rows

    def counted(*args):
        calls.append(args)
        return hnf(*args)

    monkeypatch.setattr(ewm.intlin, "hnf_rows", counted)
    smith_normal_form.cache_clear()
    assert _general_cli(name, *flags)() == 0
    assert len(calls) <= ceiling
