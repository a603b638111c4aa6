"""Shared example data: the three worked examples plus the solvable variants."""

import os
from pathlib import Path

import pytest

from ewm.core import GeneralDatum
from ewm.intlin import CharSpace, CharVec, IntMatrix
from ewm.rootsys import CartanType, RootVec, WeightVec, build_root_system
from ewm.solvable import SolvableDatum

# CLI tests run `python -m ewm.cli` in a child interpreter: let it import this
# checkout's src/ even when PYTHONPATH was not set by the caller.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def sl6():
    """SL6 / (Sp4 x Sp2 semidirect nilradical): the rank-5 worked example."""
    rs = build_root_system(CartanType((("A", 5),)))
    K = CharSpace(1, (), ("χ",))
    S = CharSpace(3)
    return GeneralDatum(
        rs=rs,
        pi_L=frozenset({0, 1, 3, 4}),
        char_space_K=K,
        omega_bar=((2, CharVec(K, (1,))),),
        codomain=S,
        iota=IntMatrix.from_rows([[1, 1, 1, 0, 0], [0, 1, 1, 1, 0], [0, 0, 1, 1, 1]]),
        xi2_prime=(
            (WeightVec((1, 0, 0, 1, 0)), CharVec(K, (-1,))),
            (WeightVec((0, 1, 0, 0, 1)), CharVec(K, (-1,))),
        ),
        xi3_prime=(
            (CharVec(S, (1, 1, 0)), WeightVec((0, 1, 0, 0, 0))),
            (CharVec(S, (1, 0, 1)), WeightVec((1, 0, 0, 0, 1))),
            (CharVec(S, (0, 1, 1)), WeightVec((0, 0, 0, 1, 0))),
        ),
        sigma_simple=frozenset(range(5)),
    )


@pytest.fixture
def so7():
    """SO7 example: torsion in the codomain (spin factor Z/2)."""
    rs = build_root_system(CartanType((("B", 3),)))
    K = CharSpace(2, (), ("ψ1", "ψ3"))
    S = CharSpace(2, (2,))
    return GeneralDatum(
        rs=rs,
        pi_L=frozenset({1}),
        char_space_K=K,
        omega_bar=((0, CharVec(K, (1, 0))), (2, CharVec(K, (0, 1)))),
        codomain=S,
        iota=IntMatrix.from_rows([[1, 2, 1], [1, 1, 1], [0, 0, 1]]),
        xi2_prime=(),
        xi3_prime=(
            (CharVec(S, (1, 0, 0)), WeightVec((1, 1, -2))),
            (CharVec(S, (1, 1, 0)), WeightVec((1, 0, 0))),
        ),
        sigma_simple=frozenset({2}),
    )


@pytest.fixture
def sl3_parabolic():
    """SL3, non-generic parabolic embedding: the non-unique system."""
    rs = build_root_system(CartanType((("A", 2),)))
    K = CharSpace(2, (), ("ϖ̄1", "ϖ̄2"))
    S = CharSpace(1)
    return GeneralDatum(
        rs=rs,
        pi_L=frozenset({0}),
        char_space_K=K,
        omega_bar=((1, CharVec(K, (0, 1))),),
        codomain=S,
        iota=IntMatrix.from_rows([[1, 2]]),
        xi2_prime=(
            (WeightVec((1, 0)), CharVec(K, (-1, 0))),
            (WeightVec((1, 0)), CharVec(K, (1, -1))),
        ),
        xi3_prime=((CharVec(S, (3,)), WeightVec((-1, 2))),),
        sigma_simple=frozenset({0, 1}),
        unique_expected=False,
    )


@pytest.fixture
def sl3_solvable():
    """SL3 with a strongly solvable spherical subgroup, S = T."""
    rs = build_root_system(CartanType((("A", 2),)))
    return SolvableDatum(
        rs=rs,
        active_roots=(RootVec((1, 0)), RootVec((1, 1))),
        codomain=CharSpace(2),
        iota=IntMatrix.from_rows([[1, 0], [0, 1]]),
    )


@pytest.fixture
def n0():
    """The nilradical-derived solvable subgroup inside SL6."""
    rs = build_root_system(CartanType((("A", 5),)))
    ident = IntMatrix.from_rows([[int(i == j) for j in range(5)] for i in range(5)])
    return SolvableDatum(
        rs=rs,
        active_roots=(
            RootVec((0, 0, 1, 0, 0)),
            RootVec((0, 1, 1, 0, 0)),
            RootVec((0, 0, 1, 1, 0)),
        ),
        codomain=CharSpace(5),
        iota=ident,
    )
