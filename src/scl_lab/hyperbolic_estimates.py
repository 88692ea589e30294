"""Closed-form hyperbolic-geometry estimates for short geodesics and cusps.

Everything here is a pure function of its numeric inputs: tube-supported
quasimorphism values with their defect, Hodgson-Kerckhoff minimum core
lengths, Dehn-surgery genus and length bounds, the Neumann-Zagier cusp
form, tube areas, and the thick-thin length-gap calculators.  The module
also proves the inequality chain behind the surgery length bound on the
whole domain ``T >= SURGERY_T0``, in exact rational arithmetic.

Printed constants (0.5404, 3.993, 1.0376, 0.9816, 1.0206) carry four to
five significant digits; the calculators evaluate in double precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import AuditError

__all__ = [
    "AREA_TOL",
    "HK_COEFFICIENT",
    "SURGERY_COEFFICIENT",
    "AUDIT_COEFFICIENTS",
    "SURGERY_T0",
    "TubeParams",
    "CuspShape",
    "SurgeryCoeffs",
    "SurfaceData",
    "GapParams",
    "AuditReport",
    "hk_min_core_length",
    "TubeQmValue",
    "tube_qm_value",
    "scl_lower_from_tube",
    "scl_upper_from_surgery",
    "surgery_length_bound",
    "surgery_bound_audit",
    "nz_quadratic_form",
    "nz_core_length",
    "genus_bound_from_meridian",
    "tube_area",
    "length_gap_bound",
    "optimal_epsilon",
    "OptimalEpsilon",
]

#: Tolerance for the normalized cusp area check.
AREA_TOL = 1e-9

#: Coefficient of the minimum core length compatible with a given embedded
#: tube radius (Hodgson-Kerckhoff).
HK_COEFFICIENT = 0.5404

#: Coefficient of the surgery length bound.
SURGERY_COEFFICIENT = 3.993

#: Coefficients of the three audited inequalities, in audit order.
AUDIT_COEFFICIENTS = (1.0376, 0.9816, 1.0206)

#: Least tube radius of the surgery length bound.  All three audited
#: inequalities hold on ``[SURGERY_T0, inf)``; the first fails below about
#: 2.00081, so the threshold cannot be 2.
SURGERY_T0 = 2.001


# ---------------------------------------------------------------------------
# domain types

@dataclass(frozen=True)
class TubeParams:
    """An embedded tube: hyperbolic core length and tube radius."""

    core_length: float
    radius: float

    def __post_init__(self):
        if not self.core_length > 0:
            raise ValueError(f"core_length must be > 0, got {self.core_length}")
        if not self.radius > 0:
            raise ValueError(f"radius must be > 0, got {self.radius}")


@dataclass(frozen=True)
class CuspShape:
    """Meridian and longitude translations of a cusp normalized to area 1."""

    meridian: complex
    longitude: complex

    def __post_init__(self):
        area = abs((self.meridian.conjugate() * self.longitude).imag)
        if not abs(area - 1.0) <= AREA_TOL:
            raise ValueError(
                f"cusp area {area!r} is not normalized to 1 within {AREA_TOL}")


@dataclass(frozen=True)
class SurgeryCoeffs:
    """A surgery slope: coprime integers (p, q), not both zero."""

    p: int
    q: int

    def __post_init__(self):
        if (self.p, self.q) == (0, 0):
            raise ValueError("slope (0, 0) is not a curve")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"slope ({self.p}, {self.q}) is not primitive")


@dataclass(frozen=True)
class SurfaceData:
    """A bounding surface: Euler characteristic and boundary multiplicity.

    ``chi_q`` is the characteristic per boundary wrap, the quantity all
    surgery estimates consume.
    """

    chi: int
    multiplicity: int = 1

    def __post_init__(self):
        if self.chi > -1:
            raise ValueError(f"chi must be <= -1, got {self.chi}")
        if self.multiplicity < 1:
            raise ValueError(
                f"multiplicity must be >= 1, got {self.multiplicity}")

    @property
    def chi_q(self) -> Fraction:
        return Fraction(self.chi, self.multiplicity)


@dataclass(frozen=True)
class GapParams:
    """Inputs of the length-gap calculators.

    ``m`` is the boundary wrapping number, ``g`` the surface genus and
    ``epsilon`` the chosen thin-part scale.  ``margulis_n`` is the ambient
    Margulis constant; it is user-supplied because no normative value ships
    with this package.  When present it must be positive and dominate
    ``4 epsilon``.
    """

    m: int
    g: int
    epsilon: float
    margulis_n: Optional[float] = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.g < 1:
            raise ValueError(f"g must be >= 1, got {self.g}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0, got {self.epsilon}")
        if self.margulis_n is None:
            return
        if not self.margulis_n > 0:
            raise ValueError(
                f"Margulis constant must be > 0, got {self.margulis_n}")
        if 4 * self.epsilon > self.margulis_n:
            raise ValueError(
                f"4*epsilon = {4 * self.epsilon} exceeds the supplied "
                f"Margulis constant {self.margulis_n}")


# ---------------------------------------------------------------------------
# areas and tubes

def hk_min_core_length(radius: float) -> float:
    """Minimum core length compatible with an embedded tube of this radius.

    Evaluates ``0.5404 tanh(T) / cosh(2T)``; strictly decreasing for
    T >= 1, so shorter geodesics guarantee fatter tubes.
    """
    if not radius > 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    return HK_COEFFICIENT * math.tanh(radius) / math.cosh(2 * radius)


class TubeQmValue(NamedTuple):
    value: float
    defect_upper: float


def tube_qm_value(t: TubeParams) -> TubeQmValue:
    """Value of the tube-supported quasimorphism on the core class.

    ``length sinh(T) T / (T + 1)`` together with its certified defect bound
    ``2 pi``.
    """
    value = t.core_length * math.sinh(t.radius) * t.radius / (t.radius + 1)
    return TubeQmValue(value, 2 * math.pi)


def scl_lower_from_tube(t: TubeParams) -> float:
    """Lower bound for scl of the core class: quasimorphism value / (4 pi).

    This is the Bavard bound value / (2 defect) with the tube defect 2 pi.
    """
    return tube_qm_value(t).value / (4 * math.pi)


def tube_area(t: TubeParams) -> float:
    """Boundary area of the embedded tube: ``2 pi length sinh(T) cosh(T)``."""
    return 2 * math.pi * t.core_length * math.sinh(t.radius) * math.cosh(t.radius)


# ---------------------------------------------------------------------------
# surgery estimates

def scl_upper_from_surgery(s: SurfaceData, p: int) -> Fraction:
    """Exact scl upper bound ``-chi_q / (2p)`` after filling slope p.

    Monotone decreasing in p: high-order fillings force small scl.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return -s.chi_q / (2 * p)


def surgery_length_bound(s: SurfaceData, radius: float, p: int) -> float:
    """Upper bound for the filled core length from the surgery estimate.

    ``(3.993 pi |chi_q| (T + 1) / (T p))**2``, valid for tube radius
    T >= SURGERY_T0, where ``surgery_bound_audit`` proves its inequalities.
    """
    if not radius >= SURGERY_T0:
        raise ValueError(f"radius must be >= {SURGERY_T0}, got {radius}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    chi_q = abs(float(s.chi_q))
    root = SURGERY_COEFFICIENT * math.pi * chi_q * (radius + 1) / (radius * p)
    return root * root


@dataclass(frozen=True)
class AuditReport:
    """The three audited inequalities, proved on ``[t0, inf)``.

    ``margins`` maps each check name to its exact positive margin, a lower
    bound of the divided left side minus right side at every T >= t0.
    """

    t0: float
    margins: dict


def _exp_neg_upper(s: Fraction) -> Fraction:
    """Upper bound on ``e^(-s)``, s >= 0: 1 / 30 terms of the series of
    ``e^s``; more terms only make it tighter."""
    total = term = Fraction(1)
    for k in range(1, 30):
        term = term * s / k
        total += term
    return 1 / total


def _surgery_margins(t0: Fraction) -> dict:
    """The three divided margins at an upper bound on ``e^(-2 t0)``."""
    x = _exp_neg_upper(2 * t0)
    c1, c2, c3 = map(Fraction, AUDIT_COEFFICIENTS)
    hk = Fraction(HK_COEFFICIENT)
    return {
        "exp-dominates-cosh-over-tanh": c1 - (1 + x * x) * (1 + x) / (1 - x),
        "sinh-dominates-exp": 1 - x - c2,
        "exp-dominates-inverse-root-length":
            2 * hk * (1 - x) / ((1 + x) * (1 + x * x)) - c3 * c3,
    }


def surgery_bound_audit() -> AuditReport:
    """Prove the inequality chain behind the surgery length bound.

    For every tube radius T >= SURGERY_T0 three printed inequalities hold:

      1. ``1.0376 e^(2T) >= 2 cosh(2T) / tanh(T)``
      2. ``2 sinh(T) > 0.9816 e^T``
      3. ``e^T >= 1.0206 length^(-1/2)`` with the minimum core length at T

    Divided by ``e^(2T)``, ``e^T`` and (squared) ``e^(2T)``, with
    ``x = e^(-2T)``, they read ``(1 + x^2)(1 + x) / (1 - x) <= 1.0376``,
    ``1 - x > 0.9816`` and ``2 0.5404 (1 - x) / ((1 + x)(1 + x^2)) >=
    1.0206^2``.  Each gets worse as x grows and x falls as T grows, so
    positive margins at a rational upper bound on ``e^(-2 SURGERY_T0)``
    prove all three on the whole domain.  Raises AuditError otherwise.
    """
    margins = _surgery_margins(Fraction(SURGERY_T0))
    for name, margin in margins.items():
        if not margin > 0:
            raise AuditError(f"inequality {name} fails at T0 = {SURGERY_T0} "
                             f"with margin {float(margin):.3g}")
    return AuditReport(t0=SURGERY_T0, margins=margins)


# ---------------------------------------------------------------------------
# cusp shapes

def nz_quadratic_form(c: CuspShape, s: SurgeryCoeffs) -> float:
    """Squared Euclidean length ``|p m + q l|**2`` of a slope on the cusp."""
    return abs(s.p * c.meridian + s.q * c.longitude) ** 2


def nz_core_length(c: CuspShape, s: SurgeryCoeffs) -> float:
    """Asymptotic filled-core length ``2 pi / Q(p, q)``.

    The error term decays like the inverse fourth power of the slope but
    carries no explicit constant; treat the output as approximate and pair
    it with an independent bound before relying on it.
    """
    q = nz_quadratic_form(c, s)
    if not q > 0:
        raise ValueError(f"degenerate slope: Q = {q}")
    return 2 * math.pi / q


def genus_bound_from_meridian(meridian_length: float, variant: str = "basic"
                              ) -> float:
    """Lower bound for ``-chi_q`` of any bounding surface from the meridian.

    ``1 / (2 pi len^2)`` for the basic packing constant; the "boroczky"
    variant uses the sharper horoball packing density, replacing ``2 pi``
    by 6.
    """
    if not meridian_length > 0:
        raise ValueError(
            f"meridian length must be > 0, got {meridian_length}")
    if variant == "basic":
        return 1 / (2 * math.pi * meridian_length ** 2)
    if variant == "boroczky":
        return 1 / (6 * meridian_length ** 2)
    raise ValueError(f"unknown variant {variant!r}; use 'basic' or 'boroczky'")


# ---------------------------------------------------------------------------
# thick-thin length gaps

def length_gap_bound(gp: GapParams, variant: str = "universal") -> float:
    """Upper bound for the length of a systole wrapped m times by genus g.

    ``(4 eps + pi / (6 eps)) / (m / (12 g - 6) - k)`` with k = 2 for the
    universal bound and k = 1 in the closed case.  Raises when the
    denominator is not positive, since then the inequality carries no
    information.
    """
    if variant == "universal":
        k = 2
    elif variant == "closed":
        k = 1
    else:
        raise ValueError(
            f"unknown variant {variant!r}; use 'universal' or 'closed'")
    denom = gp.m / (12 * gp.g - 6) - k
    if not denom > 0:
        raise ValueError(
            f"m / (12g - 6) - {k} = {denom} is not positive; "
            f"the bound is vacuous for these parameters")
    return (4 * gp.epsilon + math.pi / (6 * gp.epsilon)) / denom


class OptimalEpsilon(NamedTuple):
    epsilon: float
    min_constant: float


def optimal_epsilon(cap: float) -> OptimalEpsilon:
    """Minimize ``4 eps + pi / (6 eps)`` over ``0 < eps <= cap``.

    The unconstrained minimum sits at ``sqrt(pi / 24)``; the function is
    convex, so the cap binds exactly when it is smaller.
    """
    if not cap > 0:
        raise ValueError(f"cap must be > 0, got {cap}")
    eps = min(cap, math.sqrt(math.pi / 24))
    return OptimalEpsilon(eps, 4 * eps + math.pi / (6 * eps))
