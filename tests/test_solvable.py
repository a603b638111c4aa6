"""Strongly solvable pipeline: the distinguished-root map, F-sets, the closed
form for the generators, and agreement with the general pipeline."""

import dataclasses
import itertools
import re

import pytest

import ewm.solvable
from ewm.core import compute_monoid
from ewm.errors import BijectionFailure, PiMapError, SchemaError
from ewm.intlin import CharSpace, IntMatrix
from ewm.rootsys import CartanType, RootVec, build_root_system
from ewm.solvable import (
    SolvableDatum,
    f_set,
    pi_map,
    solvable_monoid,
    to_general,
    validate_pi,
)


def pairs(gens):
    return sorted((g.lam.coeffs, g.chi.coords) for g in gens)


class TestActiveRoots:
    @pytest.mark.parametrize(
        "roots,message",
        [
            (((1, 0), (1, 0)), "[1, 0] repeats an earlier active root"),
            (((0, 1), (1, 0), (1, 1), (1, 0)), "[1, 0] repeats an earlier active root"),
            (((1, 0), (1, 2)), "[1, 2] is not a positive root"),
            (((1, 0), (-1, 0)), "[-1, 0] is not a positive root"),
        ],
        ids=["repeated", "repeated-late", "not-a-root", "negative"],
    )
    def test_rejected_with_pointer(self, roots, message):
        with pytest.raises(SchemaError, match=re.escape(message)) as err:
            SolvableDatum(
                rs=build_root_system(CartanType((("A", 2),))),
                active_roots=tuple(RootVec(r) for r in roots),
                codomain=CharSpace(2),
                iota=IntMatrix.from_rows([[1, 0], [0, 1]]),
            )
        assert err.value.pointer == f"/active_roots/{len(roots) - 1}"


class TestDerivedOnce:
    def test_restrictions_computed_once(self, n0, monkeypatch):
        """The closed form and the general encoding share one restriction of
        each active root."""
        calls = []
        real = ewm.solvable.root_to_weight

        def counted(rs, r):
            calls.append(r)
            return real(rs, r)

        monkeypatch.setattr(ewm.solvable, "root_to_weight", counted)
        solvable_monoid(n0)
        to_general(n0)
        assert sorted(calls, key=lambda r: r.coeffs) == sorted(
            n0.active_roots, key=lambda r: r.coeffs)

    def test_members_are_lazy_and_leave_equality_alone(self, n0):
        """Construction caches nothing on the datum: the root set its check
        reads lives on the shared root system, so a parsed datum holds no
        pipeline work yet."""
        before = hash(n0)
        solvable_monoid(n0)
        fresh = dataclasses.replace(n0)
        assert hash(n0) == before == hash(fresh)
        assert n0 == fresh
        fields = {f.name for f in dataclasses.fields(fresh)}
        assert set(vars(fresh)) - fields == set()
        assert "coords" in vars(fresh.rs)


class TestPiMap:
    def test_sl3(self, sl3_solvable):
        pm = {r.coeffs: i for r, i in pi_map(sl3_solvable).items()}
        assert pm == {(1, 0): 0, (1, 1): 1}

    def test_n0(self, n0):
        pm = {r.coeffs: i for r, i in pi_map(n0).items()}
        assert pm == {(0, 0, 1, 0, 0): 2, (0, 1, 1, 0, 0): 1, (0, 0, 1, 1, 0): 3}

    def test_simple_roots_map_to_themselves(self, n0):
        pm = pi_map(n0)
        for root, target in pm.items():
            if root.height == 1:
                assert root.coeffs[target] == 1

    def test_undefined_map_rejected(self):
        # alpha1 + alpha2 active but neither part: both candidates fail
        rs = build_root_system(CartanType((("A", 2),)))
        d = SolvableDatum(
            rs=rs,
            active_roots=(RootVec((1, 1)),),
            codomain=CharSpace(2),
            iota=IntMatrix.from_rows([[1, 0], [0, 1]]),
        )
        with pytest.raises(PiMapError):
            pi_map(d)


class TestFSet:
    def test_sl3(self, sl3_solvable):
        beta = RootVec((1, 1))
        fs = {r.coeffs for r in f_set(sl3_solvable, beta)}
        assert fs == {(1, 1), (1, 0)}

    def test_simple_root_is_singleton(self, sl3_solvable):
        assert [r.coeffs for r in f_set(sl3_solvable, RootVec((1, 0)))] == [(1, 0)]

    def test_n0(self, n0):
        fs = {r.coeffs for r in f_set(n0, RootVec((0, 1, 1, 0, 0)))}
        assert fs == {(0, 1, 1, 0, 0), (0, 0, 1, 0, 0)}

    def test_validation_passes(self, sl3_solvable, n0):
        assert validate_pi(sl3_solvable) == []
        assert validate_pi(n0) == []

    def test_bijection_failure_raised(self):
        """On B2, alpha1 + 2 alpha2 alone has a distinguished root, but its
        F-set is itself and cannot cover both simple roots of its support."""
        d = SolvableDatum(
            rs=build_root_system(CartanType((("B", 2),))),
            active_roots=(RootVec((1, 2)),),
            codomain=CharSpace(2),
            iota=IntMatrix.from_rows([[1, 0], [0, 1]]),
        )
        assert validate_pi(d) == [RootVec((1, 2))]
        with pytest.raises(BijectionFailure, match=re.escape("fails for [(1, 2)]")):
            solvable_monoid(d)


class TestSigma:
    def test_sl3_full(self, sl3_solvable):
        assert sl3_solvable.sigma == {0, 1}

    def test_n0(self, n0):
        assert n0.sigma == {1, 2, 3}

    def test_empty(self):
        rs = build_root_system(CartanType((("A", 2),)))
        d = SolvableDatum(
            rs=rs,
            active_roots=(),
            codomain=CharSpace(2),
            iota=IntMatrix.from_rows([[1, 0], [0, 1]]),
        )
        assert d.sigma == set()


class TestMonoid:
    def test_sl3_generators(self, sl3_solvable):
        result = solvable_monoid(sl3_solvable)
        assert pairs(result.generators) == sorted(
            [
                ((1, 0), (-1, 0)),
                ((0, 1), (0, -1)),
                ((1, 0), (1, -1)),
                ((0, 1), (1, 0)),
            ]
        )

    def test_empty_active_set(self):
        rs = build_root_system(CartanType((("A", 2),)))
        d = SolvableDatum(
            rs=rs,
            active_roots=(),
            codomain=CharSpace(2),
            iota=IntMatrix.from_rows([[1, 0], [0, 1]]),
        )
        result = solvable_monoid(d)
        assert result.phi == ()
        assert pairs(result.generators) == sorted(
            [((1, 0), (-1, 0)), ((0, 1), (0, -1))]
        )

    def test_n0_counts_and_lambdas(self, n0):
        result = solvable_monoid(n0)
        assert len(result.generators) == 5 + 3
        xi3 = [g for g in result.generators if g.origin == "Xi3"]
        lams = sorted(g.lam.coeffs for g in xi3)
        assert lams == [
            (0, 0, 0, 1, 0),
            (0, 0, 1, 0, 0),
            (0, 1, 0, 0, 0),
        ]

    def test_rank_identity(self, sl3_solvable, n0):
        for d in (sl3_solvable, n0):
            result = solvable_monoid(d)
            assert len(result.generators) == d.rank + len(result.phi)

    def test_a64_every_simple_root_active(self):
        """At rank 64 the closed form still gives the rank formula, with pi the
        identity on the simple roots."""
        n = 64
        rs = build_root_system(CartanType((("A", n),)))
        d = SolvableDatum(
            rs=rs,
            active_roots=rs.pos_roots[:n],
            codomain=CharSpace(n),
            iota=IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)]),
        )
        result = solvable_monoid(d)
        assert {r.coeffs.index(1): i for r, i in d.pi_map.items()} == {i: i for i in range(n)}
        assert len(result.generators) == n + len(result.phi) == 2 * n


class TestMultiElementFiber:
    """Synthetic case: non-injective restriction merges two active roots into
    one fiber, producing a two-term highest weight."""

    def datum(self):
        rs = build_root_system(CartanType((("A", 2),)))
        return SolvableDatum(
            rs=rs,
            active_roots=(RootVec((1, 0)), RootVec((0, 1))),
            codomain=CharSpace(1),
            iota=IntMatrix.from_rows([[1, 1]]),
        )

    def test_single_fiber(self):
        d = self.datum()
        # iota(alpha1) = iota(alpha2) = 1: a single restriction value
        result = solvable_monoid(d)
        assert len(result.phi) == 1
        assert result.phi[0].coords == (1,)

    def test_two_term_lambda(self):
        result = solvable_monoid(self.datum())
        xi3 = [g for g in result.generators if g.origin == "Xi3"]
        assert len(xi3) == 1
        assert xi3[0].lam.coeffs == (1, 1)
        # chi = -iota(pi1 + pi2) + phi = -2 + 1
        assert xi3[0].chi.coords == (-1,)

    def test_general_agreement(self):
        d = self.datum()
        assert pairs(solvable_monoid(d).generators) == pairs(
            compute_monoid(to_general(d)).generators
        )


class TestGeneralAgreement:
    @pytest.mark.parametrize("fixture", ["sl3_solvable", "n0"])
    def test_same_generators(self, request, fixture):
        d = request.getfixturevalue(fixture)
        solved = solvable_monoid(d)
        general = compute_monoid(to_general(d))
        assert pairs(solved.generators) == pairs(general.generators)
        assert set(general.sigma_used) == set(solved.sigma)


def _support(r):
    return {i for i, c in enumerate(r) if c}


def _full_scan(rs, active):
    """The pi map and the F-set violations by subtracting every positive root
    from every active root: the reference for `RootSystem.summands`."""
    pos = {r.coeffs for r in rs.pos_roots}
    psi = [r.coeffs for r in active]

    def splits(delta):
        return [b for b in (r.coeffs for r in rs.pos_roots)
                if tuple(x - y for x, y in zip(delta, b)) in pos]

    pm = {}
    for alpha in psi:
        candidates = [delta for delta in sorted(_support(alpha))
                      if all((b in psi) == (delta not in _support(b)) for b in splits(alpha))]
        if len(candidates) != 1:
            raise PiMapError(f"active root {alpha} has {len(candidates)} candidate "
                             "distinguished simple roots; the datum is not spherical")
        pm[alpha] = candidates[0]
    bad = []
    for beta in psi:
        image = [pm[beta]] + [pm[g] for g in psi if g in splits(beta)]
        if len(set(image)) != len(image) or set(image) != _support(beta):
            bad.append(beta)
    return pm, bad


class TestAgainstFullScan:
    @pytest.mark.parametrize("family,n", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3),
                                          ("C", 3)])
    def test_every_active_subset(self, family, n):
        """pi_map and validate_pi agree with the full scan, errors included,
        on every non-empty set of active roots."""
        rs = build_root_system(CartanType(((family, n),)))
        eye = IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])
        for k in range(1, len(rs.pos_roots) + 1):
            for active in itertools.combinations(rs.pos_roots, k):
                d = SolvableDatum(rs=rs, active_roots=active, codomain=CharSpace(n), iota=eye)
                try:
                    expected = _full_scan(rs, active)
                except PiMapError as err:
                    with pytest.raises(PiMapError, match=re.escape(str(err))):
                        validate_pi(d)
                    continue
                assert ({r.coeffs: i for r, i in d.pi_map.items()},
                        [r.coeffs for r in validate_pi(d)]) == expected

