"""Metamorphic relations: transformations of a datum whose effect on the
answer is known without computing it.

A diagram automorphism tau of the Dynkin diagram permutes the simple roots,
and so the positive roots and the fundamental weights.  With iota the
identity, a strongly solvable datum with active roots R and the datum with
active roots tau(R) are the same problem with the simple roots relabelled:
tau(R) passes the F-set test exactly when R does, and each generator
(lambda, chi) of one is (tau(lambda), tau(chi)) of the other, in the closed
form and in the general pipeline alike.  The weight lattice is the image of
the original one under tau, so its Hermite basis is `hnf_rows` of the
relabelled basis.

The inputs are enumerated exhaustively, without random draws: every set of
1..k active roots that the pi map and the F-set test accept.
"""

import itertools
from collections import Counter

import pytest

from ewm.core import compute_monoid
from ewm.errors import PiMapError
from ewm.intlin import CharSpace, IntMatrix, hnf_rows
from ewm.rootsys import CartanType, RootVec, build_root_system
from ewm.solvable import SolvableDatum, solvable_monoid, to_general, validate_pi

# (family, rank, largest active set, tau as the 0-based image of each index,
# accepted data); each tau is an involution, so permuting coordinates by it is
# its own inverse
CASES = [
    *(("A", n, 3, tuple(range(n - 1, -1, -1)), count)
      for n, count in zip(range(2, 6), (5, 19, 40, 69))),
    ("D", 4, 2, (0, 1, 3, 2), 16),
    ("E", 6, 2, (5, 1, 4, 3, 2, 0), 31),
]


def _permute(v, tau):
    return tuple(v[t] for t in tau)


def _datum(rs, roots):
    return SolvableDatum(rs=rs, active_roots=tuple(roots), codomain=CharSpace(rs.rank),
                         iota=IntMatrix.from_rows([[int(i == j) for j in range(rs.rank)]
                                                   for i in range(rs.rank)]))


def _accepted(rs, k):
    """Every datum with 1..k active roots that `validate_pi` accepts."""
    for size in range(1, k + 1):
        for roots in itertools.combinations(rs.pos_roots, size):
            d = _datum(rs, roots)
            try:
                if not validate_pi(d):
                    yield d
            except PiMapError:
                pass


def _generators(gens, tau=None):
    """The generators as a multiset of (lambda, chi, family), relabelled by tau."""
    if tau is None:
        return Counter((g.lam.coeffs, g.chi.coords, g.origin) for g in gens)
    return Counter((_permute(g.lam.coeffs, tau), _permute(g.chi.coords, tau), g.origin)
                   for g in gens)


@pytest.mark.parametrize("family,rank,k,tau,accepted", CASES,
                         ids=[f"{f}{n}" for f, n, *_ in CASES])
def test_diagram_automorphism_relabels_the_answer(family, rank, k, tau, accepted):
    rs = build_root_system(CartanType(((family, rank),)))
    count = 0
    for d in _accepted(rs, k):
        image = _datum(rs, [RootVec(_permute(r.coeffs, tau)) for r in d.active_roots])
        at = [r.coeffs for r in d.active_roots]
        assert validate_pi(image) == [], at
        assert (_generators(solvable_monoid(image).generators)
                == _generators(solvable_monoid(d).generators, tau)), at
        general, general_image = compute_monoid(to_general(d)), compute_monoid(to_general(image))
        assert (_generators(general_image.generators)
                == _generators(general.generators, tau)), at
        assert list(general_image.lambda_basis) == hnf_rows(
            [_permute(v, tau) for v in general.lambda_basis], rank), at
        count += 1
    assert count == accepted
