"""Strongly solvable pipeline: active roots, the distinguished-simple-root map
and its bijectivity check, the fibers of the restriction map, and the closed
form for the free generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
        seen: set[RootVec] = set()
        for k, r in enumerate(self.active_roots):
            if r.coeffs not in self.rs.coords:
                raise SchemaError(f"{list(r.coeffs)} is not a positive root",
                                  f"/active_roots/{k}")
            if r in seen:
                raise SchemaError(f"{list(r.coeffs)} repeats an earlier active root",
                                  f"/active_roots/{k}")
            seen.add(r)

    @property
    def rank(self) -> int:
        return self.rs.rank

    # Derivations kept in the instance __dict__ on first read, as on
    # GeneralDatum: fields alone decide `==` and `hash`.

    @cached_property
    def pi_map(self) -> dict[RootVec, int]:
        """The distinguished simple root of each active root."""
        return pi_map(self)

    @cached_property
    def omega_chars(self) -> tuple[CharVec, ...]:
        """iota of each fundamental weight: the columns of iota."""
        return tuple(CharVec(self.codomain, self.iota.column(i)) for i in range(self.rank))

    @cached_property
    def fibers(self) -> dict[CharVec, list[RootVec]]:
        """The active roots grouped by restriction value, keyed in first-seen
        order."""
        out: dict[CharVec, list[RootVec]] = {}
        for alpha in self.active_roots:
            w = root_to_weight(self.rs, alpha).coeffs
            out.setdefault(CharVec(self.codomain, mat_vec(self.iota, w)), []).append(alpha)
        return out

    @cached_property
    def sigma(self) -> frozenset[int]:
        """All spherical roots are simple here: the union of active supports."""
        return frozenset().union(*(supp(beta) for beta in self.active_roots))


@dataclass(frozen=True)
class SolvableResult:
    pi_map: tuple[tuple[RootVec, int], ...]
    phi: tuple[CharVec, ...]
    generators: tuple[Biweight, ...]
    sigma: tuple[int, ...]


def pi_map(d: SolvableDatum) -> dict[RootVec, int]:
    """For each active root, the unique simple root in its support such that
    every summand of every two-part decomposition is active exactly when the
    distinguished root is outside its support."""
    psi = set(d.active_roots)
    out: dict[RootVec, int] = {}
    for alpha in d.active_roots:
        decomps = d.rs.summands(alpha.coeffs)
        candidates = [
            delta for delta in sorted(supp(alpha))
            if all((beta in psi) == (delta not in supp(beta)) for beta in decomps)
        ]
        if len(candidates) != 1:
            raise PiMapError(
                f"active root {alpha.coeffs} has {len(candidates)} candidate "
                "distinguished simple roots; the datum is not spherical"
            )
        out[alpha] = candidates[0]
    return out


def f_set(d: SolvableDatum, beta: RootVec) -> list[RootVec]:
    """The active root itself plus every active root subtractable from it."""
    if beta not in d.active_roots:
        raise PiMapError(f"F({beta.coeffs}) is defined only for active roots")
    split = set(d.rs.summands(beta.coeffs))
    return [beta] + [gamma for gamma in d.active_roots if gamma in split]


def validate_pi(d: SolvableDatum) -> list[RootVec]:
    """Roots whose F-set fails to biject onto the support; empty means ok."""
    pm = d.pi_map
    violations = []
    for beta in d.active_roots:
        image = [pm[gamma] for gamma in f_set(d, beta)]
        if len(set(image)) != len(image) or set(image) != set(supp(beta)):
            violations.append(beta)
    return violations


def solvable_monoid(d: SolvableDatum) -> SolvableResult:
    """Closed-form free generators: one per fundamental weight, plus one per
    distinct restriction value of an active root."""
    bad = validate_pi(d)
    if bad:
        raise BijectionFailure(
            f"F-set bijectivity fails for {[b.coeffs for b in bad]}"
        )
    pm = d.pi_map
    rank = d.rank
    gens: list[Biweight] = []
    for i in range(rank):
        w = WeightVec(tuple(1 if j == i else 0 for j in range(rank)))
        gens.append(Biweight(w, -d.omega_chars[i], "Xi1"))
    for val, fiber in d.fibers.items():
        indices = sorted({pm[alpha] for alpha in fiber})
        lam = WeightVec(tuple(1 if j in indices else 0 for j in range(rank)))
        chi = CharVec(d.codomain, mat_vec(d.iota, lam.coeffs))
        gens.append(Biweight(lam, -chi + val, "Xi3"))
    return SolvableResult(
        pi_map=tuple(sorted(pm.items(), key=lambda kv: kv[0].coeffs)),
        phi=tuple(d.fibers),
        generators=tuple(gens),
        sigma=tuple(sorted(d.sigma)),
    )


def to_general(d: SolvableDatum) -> GeneralDatum:
    """Encode a strongly solvable datum for the general pipeline (empty Levi;
    the module weights are the distinct active-root restrictions)."""
    return GeneralDatum(
        rs=d.rs,
        pi_L=frozenset(),
        char_space_K=d.codomain,
        omega_bar=tuple(enumerate(d.omega_chars)),
        codomain=d.codomain,
        iota=d.iota,
        xi2_prime=(),
        xi3_prime=tuple((v, None) for v in d.fibers),
        sigma_simple=d.sigma,
        unique_expected=True,
    )
