"""General-case pipeline: assemble the three generator families, compute the
weight lattice and the dual-basis functionals, evaluate the 0/1 coefficients,
solve the third-family linear system, and run the simple-spherical-root
necessary/sufficient tests.

Index convention: simple roots are 0-based throughout this module; the CLI
translates to/from the 1-based labels used in input files.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

from .chevalley import (
    AlgVec,
    ChevalleyAlgebra,
    commutes_with_all,
    ideal_closure,
    is_contained,
    root_vector,
)
from .errors import (
    AlphaNotInLambda,
    DataInconsistency,
    Inconsistent,
    NoExpression,
    NoLift,
    SchemaError,
    UniquenessViolated,
)
from .intlin import (
    CharSpace,
    CharVec,
    IntMatrix,
    in_sublattice,
    kernel_with_moduli,
    mat_vec,
    solve_with_moduli,
)
from .rootsys import (
    RootSystem,
    RootVec,
    WeightVec,
    is_dominant,
    root_to_weight,
    wsupp,
)

__all__ = [
    "Biweight",
    "GeneralDatum",
    "MonoidResult",
    "Diagnostic",
    "NonUnique",
    "NecessaryReport",
    "compute_xi1",
    "compute_xi2",
    "kernel_iota",
    "lambda_lattice",
    "mu_lift",
    "rho_vector",
    "delta_coeff",
    "solve_xi3",
    "compute_monoid",
    "necessary_reports",
    "check_necessary",
    "check_sufficient_lie",
]


@dataclass(frozen=True)
class Biweight:
    """A generator (lambda, chi) of the extended weight monoid; lambda must be
    dominant, or the input contradicts the generation theorem."""

    lam: WeightVec
    chi: CharVec
    origin: str  # "Xi1" | "Xi2" | "Xi3"

    def __post_init__(self):
        if not is_dominant(self.lam):
            raise Inconsistent(
                f"{self.origin} generator weight {self.lam.coeffs} is not dominant"
            )


@dataclass(frozen=True)
class GeneralDatum:
    """The input of the general pipeline.  Construction checks its rules and
    raises `SchemaError` at the JSON pointer of the field a document would
    carry (indices 1-based there)."""

    rs: RootSystem
    pi_L: frozenset[int]
    char_space_K: CharSpace
    omega_bar: tuple[tuple[int, CharVec], ...]  # alpha index -> restriction
    codomain: CharSpace
    iota: IntMatrix  # codomain.dim x rank; column i = iota(pi_i)
    xi2_prime: tuple[tuple[WeightVec, CharVec], ...]
    xi3_prime: tuple[tuple[CharVec, Optional[WeightVec]], ...]
    sigma_simple: frozenset[int]
    unique_expected: bool = True

    @property
    def rank(self) -> int:
        return self.rs.rank

    def __post_init__(self):
        rank, K = self.rank, self.char_space_K
        for name in ("pi_L", "sigma_simple"):
            if not getattr(self, name) <= frozenset(range(rank)):
                raise SchemaError(f"expected a list of indices in 1..{rank}", f"/{name}")
        for i, chi in self.omega_bar:
            if chi.space != K:
                raise SchemaError("character lies outside char_space_K", f"/omega_bar/{i + 1}")
        omega = dict(self.omega_bar)
        for i in sorted(set(range(rank)) - self.pi_L):  # the first family needs each one
            if i not in omega:
                raise SchemaError(f"missing required field {str(i + 1)!r}", f"/omega_bar/{i + 1}")
        for k, (lam, chi) in enumerate(self.xi2_prime):
            at = f"/xi2_prime/{k}"
            if len(lam.coeffs) != rank:
                raise SchemaError(f"weight must have {rank} integer entries", f"{at}/lambda_L")
            if not is_dominant(lam):
                raise SchemaError("lambda_L must be dominant", f"{at}/lambda_L")
            if wsupp(lam) - self.pi_L:
                raise SchemaError("lambda_L support must lie in pi_L", f"{at}/lambda_L")
            if chi.space != K:
                raise SchemaError("character lies outside char_space_K", f"{at}/chi")
        for k, (mu, lift) in enumerate(self.xi3_prime):
            if mu.space != self.codomain:
                raise SchemaError("module weight lies outside codomain", f"/xi3_prime/{k}/mu")
            if lift is not None and len(lift.coeffs) != rank:
                raise SchemaError(f"weight must have {rank} integer entries",
                                  f"/xi3_prime/{k}/lift")

    # Derivations free of integer linear algebra, kept in the instance __dict__
    # on first read: fields alone decide `==` and `hash`, and a replaced datum
    # derives its own.

    @cached_property
    def xi12(self) -> tuple[Biweight, ...]:
        """The first two generator families, Xi1 then Xi2."""
        return tuple(compute_xi1(self) + compute_xi2(self))

    @cached_property
    def pi12(self) -> tuple[int, ...]:
        """The coupled simple roots: those met by some Xi12 weight, sorted."""
        return tuple(sorted(set().union(*(wsupp(bw.lam) for bw in self.xi12))))

    @cached_property
    def pi12_single(self) -> tuple[int, ...]:
        """The roots of Pi12 met by exactly one Xi12 weight."""
        return tuple(a for a in self.pi12
                     if sum(a in wsupp(bw.lam) for bw in self.xi12) == 1)

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        """Row moduli of the codomain: 0 per free coordinate, then the torsion."""
        return (0,) * self.codomain.free_rank + self.codomain.moduli

    @cached_property
    def mu_matrix(self) -> IntMatrix:
        """The module weights as columns."""
        return IntMatrix.from_cols([mu.coords for mu, _ in self.xi3_prime],
                                   self.codomain.dim)

    @cached_property
    def joint_matrix(self) -> IntMatrix:
        """[iota | -mu], whose kernel projects onto the weight lattice."""
        rows = zip(self.iota.entries, self.mu_matrix.entries)
        return IntMatrix.from_rows([r + tuple(-x for x in m) for r, m in rows],
                                   self.iota.cols + self.mu_matrix.cols)

    @cached_property
    def xi12_matrix(self) -> IntMatrix:
        """Xi12 weight coefficients at Pi12: a row per root, a column per generator."""
        return IntMatrix.from_rows([[bw.lam.coeffs[a] for bw in self.xi12]
                                    for a in self.pi12], len(self.xi12))


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "info" | "warning" | "error"
    code: str
    message: str
    data: tuple[tuple[str, object], ...] = ()


@dataclass(frozen=True)
class NonUnique:
    """Per-module-weight solution families when the system is underdetermined."""

    entries: tuple[tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...]], ...]
    # each entry: (mu index, particular coefficients over Xi12,
    #              homogeneous basis vectors over Xi12)
    xi12_size: int


@dataclass(frozen=True)
class NecessaryReport:
    alpha: int
    in_lambda: bool
    rho_values: Optional[tuple[int, ...]]
    passed: bool

    @property
    def classification(self) -> str:
        return "NecessaryPassed" if self.passed else "NecessaryFailed"


@dataclass(frozen=True)
class MonoidResult:
    generators: tuple[Biweight, ...]
    lambda_basis: tuple[tuple[int, ...], ...]
    sigma_used: tuple[int, ...]
    diagnostics: tuple[Diagnostic, ...]


def compute_xi1(d: GeneralDatum) -> list[Biweight]:
    """First family: (pi_alpha, -restriction) for alpha outside the Levi."""
    omega = dict(d.omega_bar)
    return [Biweight(WeightVec(tuple(int(j == i) for j in range(d.rank))), -omega[i], "Xi1")
            for i in sorted(set(range(d.rank)) - d.pi_L)]


def compute_xi2(d: GeneralDatum) -> list[Biweight]:
    """Second family, transported from the Levi quotient: a dominant weight of
    the Levi lifts with the same coefficients at the matching fundamental
    weights of the big group."""
    return [Biweight(lam_L, chi, "Xi2") for lam_L, chi in d.xi2_prime]


def kernel_iota(d: GeneralDatum) -> list[tuple[int, ...]]:
    """Basis of Ker iota inside the weight lattice of T (pi-coordinates)."""
    return kernel_with_moduli(d.iota, d.moduli)


def lambda_lattice(d: GeneralDatum) -> list[tuple[int, ...]]:
    """Basis of the preimage under iota of the span of the module weights: the
    kernel of [iota | -mu] read at width rank, exact because the projection
    of a lattice is spanned by the projections of its basis vectors."""
    return kernel_with_moduli(d.joint_matrix, d.moduli, d.rank)


def rho_vector(d: GeneralDatum, alpha: int) -> tuple[int, ...]:
    """All functional values (rho_1(alpha), ..., rho_k(alpha)) at once.  The
    mu-solve always has a solution once alpha lies in the weight lattice: that
    lattice is the preimage under iota of the span of the module weights."""
    lam = lambda_lattice(d)
    w = root_to_weight(d.rs, RootVec(tuple(int(j == alpha) for j in range(d.rank))))
    if not in_sublattice(w.coeffs, lam, [0] * d.rank):
        raise AlphaNotInLambda(f"simple root {alpha + 1} outside the weight lattice")
    particular, hom = solve_with_moduli(d.mu_matrix, d.moduli, mat_vec(d.iota, w.coeffs))
    if hom:
        raise NoExpression("module weights do not freely generate their span")
    return particular


def delta_coeff(d: GeneralDatum, mu_index: int, alpha: int) -> int:
    """The 0/1 coefficient prescribed for the third-family generators."""
    if alpha not in d.sigma_simple or alpha not in d.pi12_single:
        return 0
    return 1 if rho_vector(d, alpha)[mu_index] == 1 else 0


def mu_lift(d: GeneralDatum, mu_index: int) -> WeightVec:
    """A weight mapping to the given module weight under iota (user override
    wins; otherwise an integer solve)."""
    mu, override = d.xi3_prime[mu_index]
    if override is not None:
        got = mat_vec(d.iota, override.coeffs)
        if d.codomain.reduce(got) != mu.coords:
            raise NoLift(f"supplied lift for module weight {mu_index + 1} is not a lift")
        return override
    sol = solve_with_moduli(d.iota, d.moduli, mu.coords)
    if sol is None:
        raise NoLift(f"module weight {mu_index + 1} outside the image of iota")
    return WeightVec(sol[0])


def _solve_xi12(d: GeneralDatum, rhs: Sequence[int]):
    """Integer coefficients over Xi12 whose combined weight takes the values
    rhs at the coupled simple roots Pi12: (particular, homogeneous basis), or
    None when there are none."""
    return solve_with_moduli(d.xi12_matrix, [0] * len(d.pi12), rhs)


def _combine(d: GeneralDatum, lam: WeightVec,
             coeffs: Sequence[int]) -> tuple[WeightVec, CharVec]:
    """(lam, 0) plus the given integer combination of the Xi12 generators."""
    lam_sum, chi_sum = list(lam.coeffs), [0] * d.char_space_K.dim
    for a, bw in zip(coeffs, d.xi12):
        if a:
            lam_sum = [x + a * y for x, y in zip(lam_sum, bw.lam.coeffs)]
            chi_sum = [x + a * y for x, y in zip(chi_sum, bw.chi.coords)]
    return WeightVec(tuple(lam_sum)), CharVec(d.char_space_K, tuple(chi_sum))


def solve_xi3(d: GeneralDatum) -> Union[list[Biweight], NonUnique]:
    """Third family via the linear system: for each module weight mu, the
    coefficient of its generator at each fundamental weight in Pi12 is the
    prescribed 0/1 value."""
    nonunique_entries = []
    out: list[Biweight] = []
    for mu_index in range(len(d.xi3_prime)):
        lift = mu_lift(d, mu_index)
        rhs = [delta_coeff(d, mu_index, a) - lift.coeffs[a] for a in d.pi12]
        sol = _solve_xi12(d, rhs)
        if sol is None:
            raise Inconsistent(
                f"no integer solution for module weight {mu_index + 1}: input data "
                "contradicts the generation theorem"
            )
        particular, hom = sol
        if hom:
            if d.unique_expected:
                raise UniquenessViolated(
                    f"solution family for module weight {mu_index + 1} is "
                    "positive-dimensional"
                )
            nonunique_entries.append(
                (mu_index, tuple(particular), tuple(tuple(h) for h in hom))
            )
            continue
        lam, chi = _combine(d, lift, particular)
        gen = Biweight(lam, chi, "Xi3")
        for a in d.pi12:
            if lam.coeffs[a] != delta_coeff(d, mu_index, a):
                raise Inconsistent(
                    f"third-family weight for module weight {mu_index + 1} misses its "
                    f"prescribed coefficient at alpha_{a + 1}"
                )
        out.append(gen)
    if nonunique_entries:
        return NonUnique(entries=tuple(nonunique_entries), xi12_size=len(d.xi12))
    return out


def necessary_reports(d: GeneralDatum) -> list[NecessaryReport]:
    """The necessary test at each coupled simple root met by exactly one Xi12
    weight, in increasing order; there are none without module weights."""
    if not d.xi3_prime:
        return []
    return [check_necessary(d, a) for a in d.pi12_single]


def _necessary_diagnostics(d: GeneralDatum) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    for report in necessary_reports(d):
        a = report.alpha
        if report.passed and a not in d.sigma_simple:
            diags.append(
                Diagnostic(
                    severity="info",
                    code="NECESSARY_PASSED_NOT_IN_SIGMA",
                    message=(
                        f"alpha_{a + 1} passes all necessary conditions for a "
                        "simple spherical root but is not asserted to be one"
                    ),
                    data=(("alpha", a + 1),),
                )
            )
        if not report.passed and a in d.sigma_simple:
            raise DataInconsistency(
                f"alpha_{a + 1} is asserted to be a simple spherical root but "
                "fails a necessary condition"
            )
    return diags


def lift_shift(d: GeneralDatum, kernel_vec: Sequence[int]):
    """Effect on a third-family generator of replacing a lift by lift + k for
    a kernel element k: the pair (lambda shift, chi shift), or None when the
    perturbed system has no solution (that lift choice is simply invalid).

    The prescribed coefficients pin the generator only on the coupled simple
    roots, so the shift is the same for every module weight."""
    sol = _solve_xi12(d, [-kernel_vec[a] for a in d.pi12])
    if sol is None:
        return None
    return _combine(d, WeightVec(tuple(kernel_vec)), sol[0])


def _lift_sensitivity_diagnostics(d: GeneralDatum) -> list[Diagnostic]:
    """Perturbation self-check: the computed third family should not depend on
    which lift was chosen for each module weight.  Flag any kernel direction
    along which it does."""
    diags: list[Diagnostic] = []
    if not d.xi3_prime:
        return diags
    for k in kernel_iota(d):
        shift = lift_shift(d, k)
        if shift is None:
            continue
        lam, chi = shift
        if any(lam.coeffs) or not chi.is_zero():
            diags.append(
                Diagnostic(
                    severity="warning",
                    code="LIFT_SENSITIVE",
                    message=(
                        "third-family characters depend on the chosen lifts "
                        "of the module weights; the supplied lifts are "
                        "treated as part of the input"
                    ),
                    data=(
                        ("kernel_vector", list(k)),
                        ("lambda_shift", list(lam.coeffs)),
                        ("chi_shift", list(chi.coords)),
                    ),
                )
            )
    return diags


def compute_monoid(d: GeneralDatum) -> MonoidResult:
    """The full generator list, the weight lattice, and diagnostics."""
    diagnostics = _necessary_diagnostics(d)
    diagnostics += _lift_sensitivity_diagnostics(d)
    xi3 = solve_xi3(d)
    if isinstance(xi3, NonUnique):
        raise UniquenessViolated(
            "compute_monoid requires a unique third family; use solve_xi3 for "
            "the non-unique report"
        )
    return MonoidResult(
        generators=d.xi12 + tuple(xi3),
        lambda_basis=tuple(lambda_lattice(d)),
        sigma_used=tuple(sorted(d.sigma_simple)),
        diagnostics=tuple(diagnostics),
    )


def check_necessary(d: GeneralDatum, alpha: int) -> NecessaryReport:
    """Necessary conditions for alpha to be a simple spherical root: alpha in
    the weight lattice, and exactly one functional takes value 1 on it with
    every other value at most 0."""
    try:
        rho = rho_vector(d, alpha)
    except AlphaNotInLambda:
        return NecessaryReport(alpha=alpha, in_lambda=False, rho_values=None, passed=False)
    ones = sum(1 for v in rho if v == 1)
    others_ok = all(v <= 0 for v in rho if v != 1)
    passed = ones == 1 and others_ok
    return NecessaryReport(alpha=alpha, in_lambda=True, rho_values=tuple(rho), passed=passed)


def check_sufficient_lie(
    alg: ChevalleyAlgebra,
    alpha: int,
    p_u_basis: Sequence[AlgVec],
    h_u_basis: Sequence[AlgVec],
    s_prime_gens: Sequence[AlgVec],
) -> str:
    """Sufficient test at the Lie-algebra level.

    Returns "NotSpherical" when the ideal generated by the lowered simple root
    vector sits inside h_u, "Spherical" when it does not and the root vector
    commutes with the given semisimple-part generators, else "Inconclusive".
    The caller is responsible for supplying data for a generic conjugate.
    """
    rank = alg.rs.rank
    e_neg = root_vector(alg, tuple(-1 if j == alpha else 0 for j in range(rank)))
    ideal = ideal_closure(alg, [e_neg], p_u_basis)
    if is_contained(alg, ideal, h_u_basis):
        return "NotSpherical"
    if commutes_with_all(alg, e_neg, s_prime_gens):
        return "Spherical"
    return "Inconclusive"

