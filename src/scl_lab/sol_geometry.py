"""Exact arithmetic in Sol-geometry lattices and scl-vanishing certificates.

The groups here are semidirect products of the integer plane by an integer
Anosov matrix: elements (v, t) multiply by letting the Z part act on the
fiber through matrix powers.  Commutator-subgroup membership in the fiber
reduces to an integer linear solve, and every member is a single
commutator, which is what makes the stable commutator length vanish with a
certificate rather than by abstract amenability.

Two witnesses are produced for a member: the direct one-commutator
certificate, and a recursive decomposition that splits the fiber vector
along the matrix eigendirections into pieces conjugated from a bounded box,
contracting the remainder geometrically.  The second has logarithmic factor
count and exists because the contraction procedure itself is of interest;
its per-matrix constants are certified at profile build time and recorded
in the returned trace.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .errors import CertificateError, SolProfileError, SoundnessError

__all__ = [
    "SolError",
    "SolMembershipError",
    "AnosovMatrix",
    "SolElement",
    "sol_mul",
    "sol_inverse",
    "sol_commutator",
    "membership_commutator_subgroup",
    "membership_witness_rational",
    "SolCommutatorExpression",
    "commutator_certificate",
    "LevelRecord",
    "DecompositionTrace",
    "DecompositionOutcome",
    "recursive_log_decomposition",
]


class SolError(ValueError):
    """Invalid Sol-group input."""


class SolMembershipError(SolError):
    """The fiber vector is not in the commutator subgroup."""


Vec = tuple[int, int]


@dataclass(frozen=True)
class AnosovMatrix:
    """An integer 2x2 matrix with determinant 1 and |trace| > 2."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det != 1:
            raise SolError(f"determinant must be 1, got {det}")
        if abs(self.trace) <= 2:
            raise SolError(f"|trace| must exceed 2, got trace {self.trace}")

    @property
    def trace(self) -> int:
        return self.a + self.d

    @property
    def flat(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def apply(self, v: Vec, power: int = 1) -> Vec:
        m = _matrix_power(self.flat, power)
        return (m[0] * v[0] + m[1] * v[1], m[2] * v[0] + m[3] * v[1])


def _mat_mul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


@lru_cache(maxsize=4096)  # deep decompositions touch ~10^4 powers
def _matrix_power(m: tuple[int, int, int, int], k: int):
    if k == 0:
        return (1, 0, 0, 1)
    if k < 0:
        a, b, c, d = m
        return _matrix_power((d, -b, -c, a), -k)  # adjugate = inverse, det 1
    half = _matrix_power(m, k // 2)
    sq = _mat_mul(half, half)
    return _mat_mul(sq, m) if k % 2 else sq


@dataclass(frozen=True)
class SolElement:
    """A lattice element (v, t): fiber vector v and vertical coordinate t."""

    v: Vec
    t: int

    def __post_init__(self):
        try:
            v0, v1 = self.v
        except ValueError:
            raise SolError(f"fiber vector must have 2 entries, "
                           f"got {len(self.v)}") from None
        object.__setattr__(self, "v", (int(v0), int(v1)))
        object.__setattr__(self, "t", int(self.t))


# the group law on (v0, v1, t) int triples, for the flat matrix entries m
def _mul(m, x, y):
    p0, p1, p2, p3 = _matrix_power(m, x[2])
    return (x[0] + p0 * y[0] + p1 * y[1], x[1] + p2 * y[0] + p3 * y[1],
            x[2] + y[2])


def _inv(m, x):
    p0, p1, p2, p3 = _matrix_power(m, -x[2])
    return (-p0 * x[0] - p1 * x[1], -p2 * x[0] - p3 * x[1], -x[2])


def _comm(m, x, y):
    return _mul(m, _mul(m, x, y), _mul(m, _inv(m, x), _inv(m, y)))


def sol_mul(A: AnosovMatrix, x: SolElement, y: SolElement) -> SolElement:
    """Group law (u, m)(v, n) = (u + A^m v, m + n)."""
    v0, v1, t = _mul(A.flat, (*x.v, x.t), (*y.v, y.t))
    return SolElement((v0, v1), t)


def sol_inverse(A: AnosovMatrix, x: SolElement) -> SolElement:
    v0, v1, t = _inv(A.flat, (*x.v, x.t))
    return SolElement((v0, v1), t)


def sol_commutator(A: AnosovMatrix, x: SolElement, y: SolElement) -> SolElement:
    v0, v1, t = _comm(A.flat, (*x.v, x.t), (*y.v, y.t))
    return SolElement((v0, v1), t)


# ---------------------------------------------------------------------------
# membership and direct certificates

def _adjugate_solve(A: AnosovMatrix, a: Vec) -> tuple[int, int, int]:
    """``(n0, n1, det)`` with ``(A - I)^-1 a = (n0, n1) / det``."""
    a0, a1 = int(a[0]), int(a[1])
    p, q, r, s = A.a - 1, A.b, A.c, A.d - 1
    return (s * a0 - q * a1, p * a1 - r * a0, p * s - q * r)


def membership_witness_rational(A: AnosovMatrix, a: Vec
                                ) -> tuple[Fraction, Fraction]:
    """The unique rational u with (A - I) u = a.

    ``A - I`` is invertible over the rationals because its determinant is
    ``2 - trace`` and the trace avoids 2.  The vector a is in the
    commutator subgroup exactly when this solution is integral.
    """
    n0, n1, det = _adjugate_solve(A, a)
    return (Fraction(n0, det), Fraction(n1, det))


def membership_commutator_subgroup(A: AnosovMatrix, a: Vec) -> Optional[Vec]:
    """Integral u with (A - I) u = a, or None when a is not a member."""
    n0, n1, det = _adjugate_solve(A, a)
    u0, e0 = divmod(n0, det)
    u1, e1 = divmod(n1, det)
    return None if e0 or e1 else (u0, u1)


@dataclass(frozen=True)
class SolCommutatorExpression:
    """A verified product of commutators equal to ``target``.

    Construction multiplies the factors out with exact integer arithmetic
    and compares with the target, so instances always witness
    ``cl(target) <= len(factors)``.
    """

    matrix: AnosovMatrix
    factors: tuple[tuple[SolElement, SolElement], ...]
    target: SolElement

    def __post_init__(self):
        m, product = self.matrix.flat, (0, 0, 0)
        for x, y in self.factors:
            product = _mul(m, product, _comm(m, (*x.v, x.t), (*y.v, y.t)))
        if product != (*self.target.v, self.target.t):
            raise CertificateError(
                f"commutator product {SolElement(product[:2], product[2])} "
                f"does not equal {self.target}")

    @property
    def factor_count(self) -> int:
        return len(self.factors)


_G = SolElement((0, 0), 1)


def _fiber_factor(A: AnosovMatrix, a: Vec) -> tuple[SolElement, SolElement]:
    """The pair (g, (u, 0)) with [g, (u, 0)] = (a, 0), from one solve;
    SolMembershipError when the solve is not integral."""
    u = membership_commutator_subgroup(A, a)
    if u is None:
        raise SolMembershipError(
            f"{a} is not in the commutator subgroup: "
            f"(A - I)^-1 {a} = {membership_witness_rational(A, a)} "
            f"is not integral")
    return (_G, SolElement(u, 0))


def commutator_certificate(A: AnosovMatrix, a: Vec) -> SolCommutatorExpression:
    """One-commutator certificate ``(a, 0) = [g, (u, 0)]`` for a member.

    ``g`` is the vertical generator; the identity gets the empty product.
    The identity ``(A - I)(n u) = n a`` keeps the commutator length at 1
    for every power, so a certificate proves scl 0.  Raises
    SolMembershipError when the defining solve is not integral.
    """
    a = (int(a[0]), int(a[1]))
    factors = (_fiber_factor(A, a),) if a != (0, 0) else ()
    return SolCommutatorExpression(A, factors, SolElement(a, 0))


# ---------------------------------------------------------------------------
# recursive eigendirection decomposition

class LevelRecord(NamedTuple):
    remainder_in: Vec
    pieces: tuple[tuple[int, Vec], ...]  # (conjugation power k, box vector b)
    remainder_out: Vec


@dataclass(frozen=True)
class DecompositionTrace:
    """Recursion log: per-level pieces plus the certified constants.

    ``constants`` records the eigenvalue, box bound, component half-ranges,
    contraction factors, and the (c1, c2) of the factor-count bound
    ``count <= c1 * log(|a| + 2) + c2`` checked at every level; it is the
    matrix's cached profile record, read-only.
    """

    constants: Mapping[str, float]
    levels: tuple[LevelRecord, ...]
    factor_count: int


class DecompositionOutcome(NamedTuple):
    expression: SolCommutatorExpression
    trace: DecompositionTrace


class _Profile(NamedTuple):
    comp_plus: tuple          # dual functional coefficients, expanding
    comp_minus: tuple
    members_plus: tuple       # orbit-minimal box vectors for A^k pieces
    members_minus: tuple      # orbit-minimal box vectors for A^-k pieces
    constants: Mapping[str, float]  # the recorded constants, in record order


def _contraction(coeffs, members: tuple, lam: float) -> tuple[float, float]:
    """Half-range h of one direction's piece values and the contraction
    factor ``lam * gap / 2h``, for the widest gap between values in [-h, h]."""
    values = [coeffs[0] * b0 + coeffs[1] * b1 for b0, b1 in members]
    h = 0.999 * max(abs(x) for x in values)
    window = sorted(x for x in values if -h <= x <= h)
    if len(window) < 2:
        return h, math.inf
    gaps = [b - a for a, b in zip(window, window[1:])]
    # the window edges also need coverage from the nearest value inside
    edge = max(h - window[-1], window[0] + h)
    return h, lam * max(max(gaps), 2 * edge) / (2 * h)


@lru_cache(maxsize=None)
def _decomposition_profile(flat: tuple[int, int, int, int]) -> _Profile:
    A = AnosovMatrix(*flat)
    tr = A.trace
    disc = math.sqrt(tr * tr - 4)
    lam_big = (tr + disc) / 2 if tr > 0 else (tr - disc) / 2
    lam_small = (tr - disc) / 2 if tr > 0 else (tr + disc) / 2
    # eigenvectors (b, lambda - a); b != 0 for every integer Anosov matrix
    ex = (A.b, lam_big - A.a)
    ey = (A.b, lam_small - A.a)
    det = ex[0] * ey[1] - ey[0] * ex[1]
    comp_plus = (ey[1] / det, -ey[0] / det)
    comp_minus = (-ex[1] / det, ex[0] / det)
    lam = abs(lam_big)
    for box_bound in range(2, 9):
        side = range(-box_bound, box_bound + 1)
        members = frozenset(
            b for b in itertools.product(side, side) if b != (0, 0)
            and membership_commutator_subgroup(A, b) is not None)
        if not members:
            continue
        # A^k b = A^(k+1) (A^-1 b), so box vectors that are matrix images of
        # other box vectors generate duplicate piece values; keep only the
        # orbit-minimal representative in each ladder direction
        members_plus = tuple(sorted(
            b for b in members if A.apply(b, -1) not in members))
        members_minus = tuple(sorted(
            b for b in members if A.apply(b, 1) not in members))
        if not members_plus or not members_minus:
            continue
        h_plus, c_plus = _contraction(comp_plus, members_plus, lam)
        h_minus, c_minus = _contraction(comp_minus, members_minus, lam)
        if c_plus < 0.98 and c_minus < 0.98:
            contraction = max(c_plus, c_minus, 0.05)
            constants = {
                "eigenvalue": lam,
                "box_bound": box_bound,
                "half_range_expanding": h_plus,
                "half_range_contracting": h_minus,
                "contraction_expanding": c_plus,
                "contraction_contracting": c_minus,
                "base_bound": 4 * box_bound,
                "c1": 2.0 / math.log(1 / contraction),
                "c2": 8.0,
            }
            return _Profile(comp_plus, comp_minus, members_plus,
                            members_minus, MappingProxyType(constants))
    raise SolProfileError(
        f"could not certify an eigendirection contraction for {A} with "
        f"boxes up to 8")


def _sup(v: Vec) -> int:
    return max(abs(v[0]), abs(v[1]))


def _least_power(coeffs, r: Vec, lam: float, half_range: float) -> int:
    """Least k >= 0 with ``|component of r along coeffs| / lam**k <=
    half_range``, in closed form on the component as one exact integer
    ``x / (d0 d1)``, so it holds at any size of r."""
    (n0, d0), (n1, d1) = (c.as_integer_ratio() for c in coeffs)
    x = abs(n0 * d1 * r[0] + n1 * d0 * r[1])
    if not x:
        return 0
    return max(0, math.ceil((math.log(x) - math.log(d0 * d1)
                             - math.log(half_range)) / math.log(lam)))


def _best_piece(A: AnosovMatrix, members: tuple, r: Vec, k: int
                ) -> tuple[Optional[Vec], Vec, Vec]:
    """``(b, A^k b, rem)`` for the least ``(sup(rem), rem, b)`` over the box
    and the zero vector (b None); ``A^k`` is invertible, so rem decides a tie
    on the sup, and a first entry of rem past the best sup rules b out."""
    m0, m1, m2, m3 = _matrix_power(A.flat, k)
    r0, r1 = r
    best_sup, best_rem, best_b = _sup(r), r, None
    for b0, b1 in members:
        e0 = r0 - m0 * b0 - m1 * b1
        if -best_sup <= e0 <= best_sup:
            e1 = r1 - m2 * b0 - m3 * b1
            sup = max(abs(e0), abs(e1))
            if sup < best_sup or sup == best_sup and (e0, e1) < best_rem:
                best_sup, best_rem, best_b = sup, (e0, e1), (b0, b1)
    return best_b, (r0 - best_rem[0], r1 - best_rem[1]), best_rem


def recursive_log_decomposition(A: AnosovMatrix, a: Vec
                                ) -> DecompositionOutcome:
    """Decompose a member into conjugated bounded pieces, recursively.

    Each level measures the remainder along the two eigendirections, picks
    for each the least matrix power bringing that component into the
    certified half-range, and subtracts the best box vector conjugated by
    that power.  The remainder shrinks by the recorded contraction factor,
    so the factor count is logarithmic in the input.  Every level checks
    the count against the recorded bound ``c1 * log(|a| + 2) + c2``, which
    therefore also bounds the depth; the emitted expression is re-verified
    exactly and the trace records every level.
    """
    a = (int(a[0]), int(a[1]))
    if membership_commutator_subgroup(A, a) is None:
        raise SolMembershipError(
            f"{a} is not in the commutator subgroup of the {A} lattice")
    prof = _decomposition_profile(A.flat)
    constants = prof.constants
    lam = constants["eigenvalue"]
    h_plus = constants["half_range_expanding"]
    h_minus = constants["half_range_contracting"]
    base_bound = constants["base_bound"]
    bound = constants["c1"] * math.log(_sup(a) + 2) + constants["c2"]
    factors: list[tuple[SolElement, SolElement]] = []
    levels: list[LevelRecord] = []
    r = a
    while True:
        # a level that adds no factor leaves r as it was and fails the
        # contraction check, and a nonzero remainder ends as one more
        # factor, so this count never exceeds the final one
        count = len(factors) + (r != (0, 0))
        if count > bound:
            raise SoundnessError(
                f"factor count {count} exceeds the recorded bound "
                f"{bound:.2f} for {a}; the (c1, c2) constants are wrong")
        if _sup(r) <= base_bound:
            break
        r_in = r
        pieces = []
        for coeffs, half_range, members, sign in (
                (prof.comp_plus, h_plus, prof.members_plus, 1),
                (prof.comp_minus, h_minus, prof.members_minus, -1)):
            k = sign * _least_power(coeffs, r, lam, half_range)
            b, image, r = _best_piece(A, members, r, k)
            if b is not None:
                pieces.append((k, b))
                factors.append(_fiber_factor(A, image))
        if _sup(r) >= _sup(r_in):
            raise SoundnessError(
                f"certified contraction failed at {r_in} -> {r} for {A}; "
                f"this is a bug in the profile constants")
        levels.append(LevelRecord(r_in, tuple(pieces), r))
    if r != (0, 0):
        factors.append(_fiber_factor(A, r))
    expression = SolCommutatorExpression(A, tuple(factors), SolElement(a, 0))
    trace = DecompositionTrace(constants, tuple(levels), len(factors))
    return DecompositionOutcome(expression, trace)

