"""Acceptance gate: the ten headline criteria, one test each, with a visible
pass/fail line per criterion printed around pytest's capture."""

import dataclasses
import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ewm.chevalley import AlgVec, bracket, build_algebra, root_vector
from ewm.core import (
    NonUnique,
    check_sufficient_lie,
    compute_monoid,
    kernel_iota,
    lambda_lattice,
    rho_vector,
    solve_xi3,
)
from ewm.intlin import (
    CharSpace,
    CharVec,
    IntMatrix,
    hnf_rows,
    in_sublattice,
    mat_vec,
    smith_normal_form,
    solve_with_moduli,
)
from ewm.rootsys import CartanType, WeightVec, build_root_system, positive_root_count
from ewm.solvable import pi_map, solvable_monoid, to_general, validate_pi

DATA = Path(__file__).resolve().parent.parent / "data"


def cli(args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "ewm.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )


def announce(capsys, num, desc, fn):
    try:
        fn()
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num:2d} ({desc}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {num:2d} ({desc}): PASS")


SL6_GENERATORS = [
    ((0, 0, 1, 0, 0), (-1,)),
    ((1, 0, 0, 1, 0), (-1,)),
    ((0, 1, 0, 0, 1), (-1,)),
    ((0, 1, 0, 0, 0), (0,)),
    ((1, 0, 1, 0, 1), (-1,)),
    ((0, 0, 0, 1, 0), (0,)),
]


def xi3_coefficients(d):
    """Re-derive the per-module-weight solution coefficients of the linear
    system (unknowns ordered over Xi1 then Xi2)."""
    from ewm.core import mu_lift, delta_coeff

    xi12 = d.xi12
    p12 = d.pi12
    out = []
    for k in range(len(d.xi3_prime)):
        lift = mu_lift(d, k)
        rows = [[bw.lam.coeffs[a] for bw in xi12] for a in p12]
        rhs = [delta_coeff(d, k, a) - lift.coeffs[a] for a in p12]
        particular, hom = solve_with_moduli(
            IntMatrix.from_rows(rows), [0] * len(p12), rhs
        )
        assert hom == []
        out.append(tuple(particular))
    return out


def test_criterion_1_sl6_end_to_end(capsys):
    def body():
        t0 = time.perf_counter()
        proc = cli(["general", "--input", str(DATA / "sl6.json")])
        elapsed = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        gens = [(tuple(g["lambda"]), tuple(g["chi"])) for g in doc["generators"]]
        assert gens == SL6_GENERATORS
        assert elapsed < 1.0, elapsed

    announce(capsys, 1, "SL6 end-to-end", body)


def test_criterion_2_sl6_intermediates(capsys, sl6):
    def body():
        assert hnf_rows(kernel_iota(sl6), 5) == hnf_rows(
            [(1, 0, -1, 1, 0), (0, 1, -1, 0, 1)], 5
        )
        paper_lambda = [
            (0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0),
            (1, 0, 1, 0, 0),
            (1, 0, 0, 0, 1),
            (0, 0, 1, 0, 1),
        ]
        assert hnf_rows(lambda_lattice(sl6), 5) == hnf_rows(paper_lambda, 5)
        table = [[rho_vector(sl6, a)[j] for a in range(5)] for j in range(3)]
        assert table == [
            [0, 1, 0, 0, -1],
            [1, -1, 1, -1, 1],
            [-1, 0, 0, 1, 0],
        ]

    announce(capsys, 2, "SL6 intermediates", body)


def test_criterion_3_so7_end_to_end(capsys, so7):
    def body():
        t0 = time.perf_counter()
        assert hnf_rows(kernel_iota(so7), 3) == hnf_rows([(2, 0, -2)], 3)
        table = [[rho_vector(so7, a)[j] for a in range(3)] for j in range(2)]
        assert table == [[-1, 2, -1], [1, -1, 1]]
        # coefficients over (Xi1 at alpha1, Xi1 at alpha3) per module weight
        assert xi3_coefficients(so7) == [(-1, 2), (-1, 1)]
        result = compute_monoid(so7)
        gens = [(g.lam.coeffs, g.chi.coords) for g in result.generators]
        assert gens == [
            ((1, 0, 0), (-1, 0)),
            ((0, 0, 1), (0, -1)),
            ((0, 1, 0), (1, -2)),
            ((0, 0, 1), (1, -1)),
        ]
        assert any(
            d.code == "NECESSARY_PASSED_NOT_IN_SIGMA" for d in result.diagnostics
        )
        assert time.perf_counter() - t0 < 1.0

    announce(capsys, 3, "SO7 end-to-end with torsion", body)


def test_criterion_4_sl3_both_embeddings(capsys):
    def body():
        proc = cli(
            [
                "general",
                "--input",
                str(DATA / "sl3_parabolic.json"),
                "--allow-nonunique",
            ]
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        (entry,) = doc["nonunique"]["entries"]
        assert entry["particular"][0] == -1
        assert sum(entry["particular"][1:]) == 1
        assert entry["homogeneous"] == [[0, 1, -1]]
        proc2 = cli(["solvable", "--input", str(DATA / "sl3_solvable.json")])
        assert proc2.returncode == 0, proc2.stderr
        doc2 = json.loads(proc2.stdout)
        gens = sorted(
            (tuple(g["lambda"]), tuple(g["chi"])) for g in doc2["generators"]
        )
        assert gens == sorted(
            [
                ((1, 0), (-1, 0)),
                ((0, 1), (0, -1)),
                ((1, 0), (1, -1)),
                ((0, 1), (1, 0)),
            ]
        )

    announce(capsys, 4, "SL3 both embeddings", body)


def test_criterion_5_rank_formula(capsys, sl6, so7, sl3_solvable, n0):
    def body():
        for d in (sl6, so7):
            result = compute_monoid(d)
            assert len(result.generators) == (
                d.rank - len(d.pi_L) + len(d.xi2_prime) + len(d.xi3_prime)
            )
        for s in (sl3_solvable, n0):
            g = to_general(s)
            result = compute_monoid(g)
            assert len(result.generators) == g.rank + len(g.xi3_prime)
        # synthetic parabolic induction: empty third family
        rng = random.Random(43)
        from ewm.core import GeneralDatum

        for _ in range(20):
            n = rng.randint(2, 5)
            rs = build_root_system(CartanType((("A", n),)))
            pi_L = frozenset(i for i in range(n) if rng.random() < 0.5)
            K = CharSpace(2)
            omega_bar = tuple(
                (i, CharVec(K, (rng.randint(-2, 2), rng.randint(-2, 2))))
                for i in sorted(set(range(n)) - pi_L)
            )
            xi2 = tuple(
                (
                    WeightVec(
                        tuple(rng.randint(0, 1) if i in pi_L else 0 for i in range(n))
                    ),
                    CharVec(K, (rng.randint(-2, 2), rng.randint(-2, 2))),
                )
                for _ in range(rng.randint(0, 2))
            )
            xi2 = tuple(e for e in xi2 if any(e[0].coeffs))
            d = GeneralDatum(
                rs=rs,
                pi_L=pi_L,
                char_space_K=K,
                omega_bar=omega_bar,
                codomain=CharSpace(1),
                iota=IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(n)]]),
                xi2_prime=xi2,
                xi3_prime=(),
                sigma_simple=frozenset(),
            )
            result = compute_monoid(d)
            assert len(result.generators) == (n - len(pi_L)) + len(xi2)
            assert all(g.origin in ("Xi1", "Xi2") for g in result.generators)

    announce(capsys, 5, "rank formula incl. parabolic induction", body)


def test_criterion_6_solvable_general_agreement(capsys, sl3_solvable):
    def body():
        solved = solvable_monoid(sl3_solvable)
        general = compute_monoid(to_general(sl3_solvable))
        assert sorted(
            (g.lam.coeffs, g.chi.coords) for g in solved.generators
        ) == sorted((g.lam.coeffs, g.chi.coords) for g in general.generators)

    announce(capsys, 6, "solvable/general agreement", body)


def test_criterion_7_lift_independence(capsys, sl6, so7):
    def body():
        from ewm.core import lift_shift

        rng = random.Random(47)
        for d in (sl6, so7):
            baseline = solve_xi3(d)
            assert not isinstance(baseline, NonUnique)
            kernel = kernel_iota(d)
            assert kernel
            # per-direction effect of changing a lift; the lambda parts are
            # invariant in every direction
            shifts = [lift_shift(d, k) for k in kernel]
            assert all(s is not None for s in shifts)
            assert all(not any(s[0].coeffs) for s in shifts)
            for _ in range(10):
                coeffs = [rng.randint(-3, 3) for _ in kernel]
                total = [
                    sum(c * k[i] for c, k in zip(coeffs, kernel))
                    for i in range(d.rank)
                ]
                chi_shift = CharVec(d.char_space_K, tuple(
                    sum(c * dchi.coords[j] for c, (_, dchi) in zip(coeffs, shifts))
                    for j in range(d.char_space_K.dim)))
                new_xi3 = tuple(
                    (mu, WeightVec(tuple(a + b for a, b in zip(lift.coeffs, total))))
                    for mu, lift in d.xi3_prime
                )
                perturbed = dataclasses.replace(d, xi3_prime=new_xi3)
                got = solve_xi3(perturbed)
                assert [g.lam for g in got] == [g.lam for g in baseline]
                assert [g.chi for g in got] == [g.chi + chi_shift for g in baseline]
        # SL6: genuinely lift-independent (no sensitive direction); the SO7
        # characters covary with the lift, which the pipeline reports
        assert not any(
            dg.code == "LIFT_SENSITIVE" for dg in compute_monoid(sl6).diagnostics
        )
        assert any(
            dg.code == "LIFT_SENSITIVE" for dg in compute_monoid(so7).diagnostics
        )

    announce(capsys, 7, "lift independence", body)


def test_criterion_8_property_suites(capsys):
    def body():
        t0 = time.perf_counter()
        rng = random.Random(53)
        # Smith form contract on 200 random 5x5 matrices
        for _ in range(200):
            A = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
            )
            U, D, V = smith_normal_form(A)
            Ue, De, Ve = ([list(r) for r in m.entries] for m in (U, D, V))
            Ae = [list(r) for r in A.entries]
            UA = [
                [sum(Ue[i][k] * Ae[k][j] for k in range(5)) for j in range(5)]
                for i in range(5)
            ]
            UAV = [
                [sum(UA[i][k] * Ve[k][j] for k in range(5)) for j in range(5)]
                for i in range(5)
            ]
            assert UAV == De
            diag = [De[i][i] for i in range(5)]
            assert all(x >= 0 for x in diag)
            for a, b in zip(diag, diag[1:]):
                if b:
                    assert a and b % a == 0
        # Jacobi identity on 1000 random basis triples in A5 and B3
        for fam, n in (("A", 5), ("B", 3)):
            alg = build_algebra(build_root_system(CartanType(((fam, n),))))
            pos = [r.coeffs for r in alg.rs.pos_roots]
            basis = ([("e", r) for r in pos] + [("e", tuple(-c for c in r)) for r in pos]
                     + [("h", i) for i in range(n)])
            for _ in range(500):
                x, y, z = (AlgVec.make({rng.choice(basis): 1}) for _ in range(3))
                j = (
                    bracket(alg, x, bracket(alg, y, z))
                    + bracket(alg, y, bracket(alg, z, x))
                    + bracket(alg, z, bracket(alg, x, y))
                )
                assert j.is_zero()
        # closed-form positive-root counts through rank 8
        families = (
            [("A", n) for n in range(1, 9)]
            + [("B", n) for n in range(2, 9)]
            + [("C", n) for n in range(2, 9)]
            + [("D", n) for n in range(3, 9)]
            + [("E", n) for n in (6, 7, 8)]
            + [("F", 4), ("G", 2)]
        )
        for fam, n in families:
            rs = build_root_system(CartanType(((fam, n),)))
            assert len(rs.pos_roots) == positive_root_count(fam, n)
        # membership against the brute-force small-coefficient oracle
        for _ in range(100):
            k = rng.randint(1, 3)
            basis = [tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(k)]
            v = tuple(rng.randint(-3, 3) for _ in range(3))
            oracle = any(
                list(v)
                == [
                    sum(c * b[i] for c, b in zip(coeffs, basis))
                    for i in range(3)
                ]
                for coeffs in itertools.product(range(-4, 5), repeat=k)
            )
            got = in_sublattice(v, basis, [0, 0, 0])
            if oracle:
                assert got
            elif got:
                A = IntMatrix.from_cols(list(basis))
                sol = solve_with_moduli(A, [0, 0, 0], list(v))
                assert sol is not None and mat_vec(A, sol[0]) == v
        assert time.perf_counter() - t0 < 25.0

    announce(capsys, 8, "property suites", body)


def test_criterion_9_lie_level(capsys):
    def body():
        # SL6 symmetric block
        alg6 = build_algebra(build_root_system(CartanType((("A", 5),))))

        def low(i, j):
            root = [0] * 5
            for kk in range(j - 1, i + 2):
                root[kk] = -1
            return root_vector(alg6, tuple(root))

        p_u = [low(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
        h_u = [
            low(1, 1), low(2, 2), low(3, 3),
            low(1, 2) + low(2, 1), low(1, 3) + low(3, 1), low(2, 3) + low(3, 2),
        ]
        assert check_sufficient_lie(alg6, 2, p_u, h_u, []) == "Spherical"
        # SL3 generic conjugate
        alg3 = build_algebra(build_root_system(CartanType((("A", 2),))))
        p_u3 = [root_vector(alg3, (0, -1)), root_vector(alg3, (-1, -1))]
        h_u3 = [root_vector(alg3, (0, -1)) + root_vector(alg3, (-1, -1)).scale(-1)]
        from ewm.chevalley import ideal_closure, is_contained

        ideal = ideal_closure(alg3, [root_vector(alg3, (0, -1))], p_u3)
        assert len(ideal) == 1
        assert not is_contained(alg3, ideal, h_u3)
        assert check_sufficient_lie(alg3, 1, p_u3, h_u3, []) == "Spherical"

    announce(capsys, 9, "Lie-level sufficient tests", body)


def test_criterion_10_n0_solvable(capsys, n0):
    def body():
        pm = {r.coeffs: i for r, i in pi_map(n0).items()}
        assert pm == {
            (0, 0, 1, 0, 0): 2,
            (0, 1, 1, 0, 0): 1,
            (0, 0, 1, 1, 0): 3,
        }
        assert n0.sigma == {1, 2, 3}
        assert validate_pi(n0) == []

    announce(capsys, 10, "N0 solvable data", body)
