"""Strongly solvable pipeline: active roots, the distinguished-simple-root map
and its bijectivity check, the fibers of the restriction map, and the closed
form for the free generators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Biweight, GeneralDatum
from .errors import BijectionFailure, PiMapError, SchemaError
from .intlin import CharSpace, CharVec, IntMatrix, mat_vec
from .rootsys import RootSystem, RootVec, WeightVec, root_to_weight, supp

__all__ = [
    "SolvableDatum",
    "SolvableResult",
    "pi_map",
    "f_set",
    "validate_pi",
    "solvable_sigma",
    "solvable_monoid",
    "to_general",
]


@dataclass(frozen=True)
class SolvableDatum:
    rs: RootSystem
    active_roots: tuple[RootVec, ...]
    codomain: CharSpace
    iota: IntMatrix  # codomain.dim x rank, column i = iota(pi_i)

    def __post_init__(self):
        pos = set(self.rs.pos_roots)
        for r in self.active_roots:
            if r not in pos:
                raise SchemaError(f"active root {r.coeffs} is not a positive root")

    @property
    def rank(self) -> int:
        return self.rs.rank


@dataclass(frozen=True)
class SolvableResult:
    pi_map: tuple[tuple[RootVec, int], ...]
    phi: tuple[CharVec, ...]
    generators: tuple[Biweight, ...]
    sigma: tuple[int, ...]


def _decompositions(rs: RootSystem, pos: set[RootVec], alpha: RootVec) -> list[RootVec]:
    """The first summands beta of the ways to write alpha as a sum of two
    positive roots; `pos` is the set of positive roots of rs."""
    return [beta for beta in rs.pos_roots if alpha - beta in pos]


def pi_map(d: SolvableDatum) -> dict[RootVec, int]:
    """For each active root, the unique simple root in its support such that
    every summand of every two-part decomposition is active exactly when the
    distinguished root is outside its support."""
    psi = set(d.active_roots)
    pos = set(d.rs.pos_roots)
    out: dict[RootVec, int] = {}
    for alpha in d.active_roots:
        decomps = _decompositions(d.rs, pos, alpha)
        candidates = []
        for delta in sorted(supp(alpha)):
            ok = all(
                (beta in psi) == (delta not in supp(beta)) for beta in decomps
            )
            if ok:
                candidates.append(delta)
        if len(candidates) != 1:
            raise PiMapError(
                f"active root {alpha.coeffs} has {len(candidates)} candidate "
                "distinguished simple roots; the datum is not spherical"
            )
        out[alpha] = candidates[0]
    return out


def f_set(d: SolvableDatum, beta: RootVec) -> list[RootVec]:
    """The active root itself plus every active root subtractable from it."""
    pos = set(d.rs.pos_roots)
    if beta not in d.active_roots:
        raise PiMapError(f"F({beta.coeffs}) is defined only for active roots")
    out = [beta]
    for gamma in d.active_roots:
        if gamma != beta and (beta - gamma) in pos:
            out.append(gamma)
    return out


def validate_pi(d: SolvableDatum) -> list[RootVec]:
    """Roots whose F-set fails to biject onto the support; empty means ok."""
    return _bijection_violations(d, pi_map(d))


def _bijection_violations(d: SolvableDatum, pm: dict[RootVec, int]) -> list[RootVec]:
    """validate_pi against an already computed pi map."""
    violations = []
    for beta in d.active_roots:
        image = [pm[gamma] for gamma in f_set(d, beta)]
        if len(set(image)) != len(image) or set(image) != set(supp(beta)):
            violations.append(beta)
    return violations


def solvable_sigma(d: SolvableDatum) -> set[int]:
    """All spherical roots are simple here: the union of active supports."""
    out: set[int] = set()
    for beta in d.active_roots:
        out |= supp(beta)
    return out


def _iota_char(d: SolvableDatum, w: WeightVec) -> CharVec:
    return CharVec(d.codomain, mat_vec(d.iota, w.coeffs))


def _iota_root_char(d: SolvableDatum, r: RootVec) -> CharVec:
    return _iota_char(d, root_to_weight(d.rs, r))


def _fibers(d: SolvableDatum) -> dict[CharVec, list[RootVec]]:
    """The active roots grouped by restriction value, keyed in first-seen
    order."""
    fibers: dict[CharVec, list[RootVec]] = {}
    for alpha in d.active_roots:
        fibers.setdefault(_iota_root_char(d, alpha), []).append(alpha)
    return fibers


def solvable_monoid(d: SolvableDatum) -> SolvableResult:
    """Closed-form free generators: one per fundamental weight, plus one per
    distinct restriction value of an active root."""
    pm = pi_map(d)
    bad = _bijection_violations(d, pm)
    if bad:
        raise BijectionFailure(
            f"F-set bijectivity fails for {[b.coeffs for b in bad]}"
        )
    fibers = _fibers(d)
    rank = d.rank
    gens: list[Biweight] = []
    for i in range(rank):
        w = WeightVec(tuple(1 if j == i else 0 for j in range(rank)))
        gens.append(Biweight(w, -_iota_char(d, w), "Xi1"))
    for val, fiber in fibers.items():
        indices = sorted({pm[alpha] for alpha in fiber})
        lam = WeightVec(tuple(1 if j in indices else 0 for j in range(rank)))
        gens.append(Biweight(lam, -_iota_char(d, lam) + val, "Xi3"))
    return SolvableResult(
        pi_map=tuple(sorted(pm.items(), key=lambda kv: kv[0].coeffs)),
        phi=tuple(fibers),
        generators=tuple(gens),
        sigma=tuple(sorted(solvable_sigma(d))),
    )


def to_general(d: SolvableDatum) -> GeneralDatum:
    """Encode a strongly solvable datum for the general pipeline (empty Levi;
    the module weights are the distinct active-root restrictions)."""
    rank = d.rank
    omega_bar = tuple(
        (i, _iota_char(d, WeightVec(tuple(1 if j == i else 0 for j in range(rank)))))
        for i in range(rank)
    )
    return GeneralDatum(
        rs=d.rs,
        pi_L=frozenset(),
        char_space_K=d.codomain,
        omega_bar=omega_bar,
        codomain=d.codomain,
        iota=d.iota,
        xi2_prime=(),
        xi3_prime=tuple((v, None) for v in _fibers(d)),
        sigma_simple=frozenset(solvable_sigma(d)),
        unique_expected=True,
    )
