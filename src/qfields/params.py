"""Parameter algebra for the conditional-moment structure.

A stationary field here is pinned down by the correlation ``rho`` of adjacent
terms and the coefficients of the quadratic conditional second moment
``Q(x, y) = A(x^2 + y^2) + B x y + D(x + y) + C`` given the two neighbours
(the conditional mean is the symmetric linear form ``a (x + y)`` with
``a = rho / (1 + rho^2)``).  This module validates parameter sets, derives the
deformation parameter ``q``, classifies each set as existing / nonexistent /
open, and gives the regression coefficients of one and two steps and the
residuals of their tower-property system, which the ``coeffs`` command reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "FieldParams",
    "ValidationResult",
    "DerivedParams",
    "Classification",
    "InvalidParams",
    "Nonexistent",
    "NonexistentDegenerate",
    "ExistsScaledTwoPoint",
    "ExistsTwoPointSymmetric",
    "ExistsQGaussian",
    "ExistsGaussian",
    "OpenLattice",
    "RegressionCoeffs",
    "ConsistencyResiduals",
    "BoundaryValues",
    "DegenerateDenominatorError",
    "validate",
    "derive",
    "b_from_q",
    "boundary_values",
    "classify",
    "regression_coeffs",
    "consistency_residuals",
    "params_from_rho_b",
    "params_from_rho_q",
]


# thresholds separating float noise from genuine boundary cases: _TOL on the
# unit scale of the constraints, _LATTICE_TOL on |m* - round(m*)| when q > 1
_TOL = 1e-9
_LATTICE_TOL = 1e-6


@dataclass(frozen=True)
class FieldParams:
    """Quintuple (rho, A, B, C, D) of the conditional-moment structure."""

    rho: float
    A: float
    B: float
    C: float
    D: float


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class DerivedParams:
    """Quantities derived from a validated parameter set.

    ``q`` is None exactly when the defining fraction degenerates
    (its denominator 1 + rho^4 (R - 1) vanishes within tolerance).
    ``constraint_residual`` is |A (rho^2 + 1/rho^2) + B - 1|, the distance
    from the compatibility identity under which the q-parameterization and
    the continuum of absolutely continuous laws exist.
    """

    a: float
    R: float
    q: float | None
    constraint_residual: float


class Classification:
    """Base of the tagged classification verdicts.

    Existing cases set ``eigen_q``, the q of the monic q-Hermite family that
    their one-step kernel maps Q_n -> rho^n Q_n, and ``martingale_n_max`` when
    only eigen-increments up to that degree are identities.
    """

    __slots__ = ()
    eigen_q: float | None = None
    martingale_n_max: int | None = None

    @property
    def name(self) -> str:
        return type(self).__name__

    def payload(self) -> dict:
        return {
            f: getattr(self, f)
            for f in getattr(self, "__dataclass_fields__", {})
        }


@dataclass(frozen=True)
class InvalidParams(Classification):
    reason: str


@dataclass(frozen=True)
class Nonexistent(Classification):
    reason: str


@dataclass(frozen=True)
class NonexistentDegenerate(Classification):
    """q undefined; nonexistence holds under uniform integrability of X_k^2."""

    caveat: str = "nonexistence proven under uniform integrability of the squared field"


@dataclass(frozen=True)
class ExistsScaledTwoPoint(Classification):
    """X_k = R Y_k with R >= 0, E R^2 = 1 and Y_k a symmetric sign chain.

    Finite-dimensional distributions are not unique in this case, and the
    product form requires the marginal law to have no atom at zero.
    """

    note: str = "finite-dimensional distributions not unique; zero-atom caveat applies"
    eigen_q = -1.0
    martingale_n_max = 1


@dataclass(frozen=True)
class ExistsTwoPointSymmetric(Classification):
    note: str = ""
    eigen_q = -1.0


@dataclass(frozen=True)
class ExistsQGaussian(Classification):
    q: float

    @property
    def eigen_q(self) -> float:
        return self.q


@dataclass(frozen=True)
class ExistsGaussian(Classification):
    eigen_q = 1.0


@dataclass(frozen=True)
class OpenLattice(Classification):
    """q = rho^(-2/m): conditional and two-dimensional laws exist, the field's
    existence is an open question; marginals would not be moment-determined."""

    m: int


class DegenerateDenominatorError(ValueError):
    """Raised where a formula's common denominator vanishes within tolerance."""


def validate(p: FieldParams) -> ValidationResult:
    """Check 0 < |rho| < 1 and the standardization constraint C = 1 - 2A - B rho^2."""
    violations: list[str] = []
    vals = (p.rho, p.A, p.B, p.C, p.D)
    if not all(math.isfinite(v) for v in vals):
        violations.append("parameters must be finite")
        return ValidationResult(False, tuple(violations))
    if p.rho == 0.0:
        violations.append("rho=0 excluded (the uncorrelated case admits arbitrary laws)")
    elif abs(p.rho) >= 1.0:
        violations.append("|rho| must be strictly less than 1")
    c_expected = 1.0 - 2.0 * p.A - p.B * p.rho * p.rho
    if abs(p.C - c_expected) > _TOL:
        violations.append(
            f"C mismatch: expected 1 - 2A - B rho^2 = {c_expected!r}, got {p.C!r}"
        )
    return ValidationResult(not violations, tuple(violations))


def derive(p: FieldParams) -> DerivedParams:
    """Derived quantities a, R, q and the compatibility-constraint residual."""
    _check_rho(p.rho)
    rho = p.rho
    rho2 = rho * rho
    a = rho / (1.0 + rho2)
    R = p.B * (rho + 1.0 / rho) ** 2
    rho4 = rho2 * rho2
    den = 1.0 + rho4 * (R - 1.0)
    q = None if abs(den) <= _TOL else (rho4 + R - 1.0) / den
    residual = abs(p.A * (rho2 + 1.0 / rho2) + p.B - 1.0)
    return DerivedParams(a=a, R=R, q=q, constraint_residual=residual)


def b_from_q(rho: float, q: float) -> float:
    """Invert the q-map: the B giving deformation parameter q at this rho.

    Uses R = (1 + q)(1 - rho^4) / (1 - q rho^4) and B = R rho^2 / (1 + rho^2)^2.
    """
    _check_rho(rho)
    rho2 = rho * rho
    rho4 = rho2 * rho2
    den = 1.0 - q * rho4
    if abs(den) <= _TOL:
        raise DegenerateDenominatorError("q * rho^4 = 1: no finite B maps to this q")
    R = (1.0 + q) * (1.0 - rho4) / den
    return R * rho2 / (1.0 + rho2) ** 2


@dataclass(frozen=True)
class BoundaryValues:
    """Admissible-B landmarks at a given rho.

    ``degenerate`` is the single B where q is undefined, ``continuum_sup``
    the supremum of the continuum interval (the Gaussian endpoint), and
    ``lattice[m-1]`` the isolated value mapping to q = (rho^2)^(-1/m).
    """

    degenerate: float
    continuum_sup: float
    lattice: tuple[float, ...]


def boundary_values(rho: float, m_max: int = 5) -> BoundaryValues:
    _check_rho(rho)
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    rho2 = rho * rho
    rho4 = rho2 * rho2
    b1 = (rho2 - 1.0) / (rho2 * (1.0 + rho2))
    b2 = 2.0 * rho2 / (1.0 + rho2) ** 2
    lattice = []
    for m in range(1, m_max + 1):
        r2m = rho2 ** (1.0 / m)  # rho^(2/m), kept real for negative rho
        lattice.append(b2 * (1.0 - rho4) * (1.0 + r2m) / (2.0 * (r2m - rho4)))
    return BoundaryValues(degenerate=b1, continuum_sup=b2, lattice=tuple(lattice))


def classify(p: FieldParams) -> Classification:
    """Decision map from a parameter set to its existence verdict.

    Order of decision: validity, the D = 0 requirement, the B = 0 family
    (scaled or plain two-point), the compatibility constraint, then the
    q-pipeline: q undefined (degenerate), q = 1 (Gaussian, tolerance check
    first so boundary noise cannot leak into the open interval), q in (-1, 1)
    (deformed Gaussian), q > 1 (lattice detection), q < -1 (equivalently
    B < 0, nonexistent).
    """
    v = validate(p)
    if not v.ok:
        return InvalidParams("; ".join(v.violations))
    if abs(p.D) > _TOL:
        return Nonexistent("nonzero D: no standardized field admits a linear shift "
                           "in the conditional second moment")
    d = derive(p)
    if abs(p.B) <= _TOL:
        if abs(p.A - 0.5) <= _TOL:
            return ExistsScaledTwoPoint()
        note = ""
        if d.constraint_residual <= _TOL:
            note = "coincides with the q = -1 endpoint of the continuum family"
        return ExistsTwoPointSymmetric(note=note)
    if d.constraint_residual > _TOL:
        return Nonexistent(
            "compatibility constraint A(rho^2 + 1/rho^2) + B = 1 violated "
            f"(residual {d.constraint_residual:.3e})"
        )
    if d.q is None:
        return NonexistentDegenerate()
    q = d.q
    if abs(q - 1.0) <= _TOL:
        return ExistsGaussian()
    if -1.0 < q < 1.0:
        return ExistsQGaussian(q=q)
    if q > 1.0:
        m_star = -2.0 * math.log(abs(p.rho)) / math.log(q)
        m = round(m_star)
        if m >= 1 and abs(m_star - m) <= _LATTICE_TOL:
            return OpenLattice(m=m)
        return Nonexistent(f"q = {q:.6g} > 1 off the admissible lattice "
                           f"(nearest order {m_star:.6g})")
    return Nonexistent(f"q = {q:.6g} < -1 (equivalently B < 0): "
                       "no positive orthogonality measure")


@dataclass(frozen=True)
class RegressionCoeffs:
    """Coefficients of the one-sided conditional second moments.

    E(X_{k+1}^2 | past) = alpha1 X_k^2 + beta1 X_k + gamma1 and
    E(X_{k+2}^2 | past) = alpha2 X_k^2 + beta2 X_k + gamma2.
    """

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    gamma1: float
    gamma2: float


def regression_coeffs(p: FieldParams) -> RegressionCoeffs:
    rho2 = p.rho * p.rho
    den = 1.0 - p.A * (1.0 + rho2)
    if abs(den) <= _TOL:
        raise DegenerateDenominatorError(
            "degenerate denominator: A = 1/(1 + rho^2)")
    return RegressionCoeffs(
        alpha1=(p.A * (1.0 - rho2) + p.B * rho2) / den,
        alpha2=((1.0 + rho2) * (p.A + p.B * rho2) - rho2) / den,
        beta1=p.D * (1.0 + rho2) / den,
        beta2=p.D * (1.0 + rho2) ** 2 / den,
        gamma1=p.C / den,
        gamma2=p.C * (1.0 + rho2) / den,
    )


@dataclass(frozen=True)
class ConsistencyResiduals:
    """Residuals of the tower-property system linking one- and two-step
    conditional second moments, plus its two reduced scalar consequences."""

    r1: float  # alpha1^2 - alpha2
    r2: float  # beta1 (alpha1 + rho) - beta2
    r3: float  # gamma1 (alpha1 + 1) - gamma2
    d_product: float  # D * {C - (1 - rho) rho [1 - A (1 + rho^2)]}
    c_product: float  # C * [A (rho^2 + 1/rho^2) + B - 1]


def consistency_residuals(p: FieldParams) -> ConsistencyResiduals:
    _check_rho(p.rho)
    rc = regression_coeffs(p)
    rho2 = p.rho * p.rho
    return ConsistencyResiduals(
        r1=rc.alpha1 * rc.alpha1 - rc.alpha2,
        r2=rc.beta1 * (rc.alpha1 + p.rho) - rc.beta2,
        r3=rc.gamma1 * (rc.alpha1 + 1.0) - rc.gamma2,
        d_product=p.D * (p.C - (1.0 - p.rho) * p.rho * (1.0 - p.A * (1.0 + rho2))),
        c_product=p.C * (p.A * (rho2 + 1.0 / rho2) + p.B - 1.0),
    )


def params_from_rho_b(rho: float, B: float) -> FieldParams:
    """Canonical parameter set (compatibility constraint, D = 0) for given B."""
    _check_rho(rho)
    rho2 = rho * rho
    A = (1.0 - B) * rho2 / (1.0 + rho2 * rho2)
    C = 1.0 - 2.0 * A - B * rho2
    return FieldParams(rho=rho, A=A, B=B, C=C, D=0.0)


def params_from_rho_q(rho: float, q: float) -> FieldParams:
    """Canonical parameter set realizing deformation parameter q at this rho."""
    return params_from_rho_b(rho, b_from_q(rho, q))


def _check_rho(rho: float) -> None:
    if not 0.0 < abs(rho) < 1.0:
        raise ValueError("rho must satisfy 0 < |rho| < 1")
