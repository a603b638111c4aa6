"""Strongly solvable pipeline: the distinguished-root map, F-sets, the closed
form for the generators, and agreement with the general pipeline."""

import dataclasses
import re

import pytest

import ewm.solvable
from ewm.core import compute_monoid
from ewm.errors import PiMapError, SchemaError
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
        """Construction derives only the root set its check reads, so a
        parsed datum holds no pipeline work yet."""
        before = hash(n0)
        solvable_monoid(n0)
        fresh = dataclasses.replace(n0)
        assert hash(n0) == before == hash(fresh)
        assert n0 == fresh
        fields = {f.name for f in dataclasses.fields(fresh)}
        assert set(vars(fresh)) - fields == {"pos_set"}


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
