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

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional

from .errors import SclLabError

__all__ = [
    "SolError",
    "SolMembershipError",
    "SolCertificateError",
    "SolProfileError",
    "AnosovMatrix",
    "SolElement",
    "SOL_IDENTITY_T",
    "sol_mul",
    "sol_inverse",
    "sol_power",
    "sol_conjugate",
    "sol_commutator",
    "membership_commutator_subgroup",
    "membership_witness_rational",
    "SolCommutatorExpression",
    "commutator_certificate",
    "LevelRecord",
    "DecompositionTrace",
    "DecompositionOutcome",
    "recursive_log_decomposition",
    "SolSclReport",
    "sol_scl_report",
]


class SolError(ValueError):
    """Invalid Sol-group input."""


class SolMembershipError(SolError):
    """The fiber vector is not in the commutator subgroup."""


class SolCertificateError(SclLabError):
    """A Sol certificate failed its own verification."""

    label = "certificate check failed"


class SolProfileError(SclLabError):
    """No box up to the largest one tried certifies a contraction for the
    matrix, so the recursive decomposition cannot run on it."""

    exit_code = 3
    label = "inconclusive"


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
        if abs(self.a + self.d) <= 2:
            raise SolError(
                f"|trace| must exceed 2, got trace {self.a + self.d}")

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


@lru_cache(maxsize=None)
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
        v = tuple(int(x) for x in self.v)
        if len(v) != 2:
            raise SolError(f"fiber vector must have 2 entries, got {len(v)}")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "t", int(self.t))


SOL_IDENTITY_T = SolElement((0, 0), 0)


def sol_mul(A: AnosovMatrix, x: SolElement, y: SolElement) -> SolElement:
    """Group law (u, m)(v, n) = (u + A^m v, m + n)."""
    w = A.apply(y.v, x.t)
    return SolElement((x.v[0] + w[0], x.v[1] + w[1]), x.t + y.t)


def sol_inverse(A: AnosovMatrix, x: SolElement) -> SolElement:
    w = A.apply(x.v, -x.t)
    return SolElement((-w[0], -w[1]), -x.t)


def sol_power(A: AnosovMatrix, x: SolElement, n: int) -> SolElement:
    """``x^n`` by repeated squaring: O(log |n|) products."""
    base = x if n >= 0 else sol_inverse(A, x)
    out = SOL_IDENTITY_T
    n = abs(n)
    while n:
        if n & 1:
            out = sol_mul(A, out, base)
        n >>= 1
        if n:
            base = sol_mul(A, base, base)
    return out


def sol_conjugate(A: AnosovMatrix, x: SolElement, c: SolElement) -> SolElement:
    """``c x c^-1``."""
    return sol_mul(A, sol_mul(A, c, x), sol_inverse(A, c))


def sol_commutator(A: AnosovMatrix, x: SolElement, y: SolElement) -> SolElement:
    return sol_mul(A, sol_mul(A, x, y),
                   sol_mul(A, sol_inverse(A, x), sol_inverse(A, y)))


# ---------------------------------------------------------------------------
# membership and direct certificates

def membership_witness_rational(A: AnosovMatrix, a: Vec
                                ) -> tuple[Fraction, Fraction]:
    """The unique rational u with (A - I) u = a.

    ``A - I`` is invertible over the rationals because its determinant is
    ``2 - trace`` and the trace avoids 2.  The vector a is in the
    commutator subgroup exactly when this solution is integral.
    """
    a0, a1 = int(a[0]), int(a[1])
    p, q, r, s = A.a - 1, A.b, A.c, A.d - 1
    det = p * s - q * r
    return (Fraction(s * a0 - q * a1, det), Fraction(-r * a0 + p * a1, det))


def membership_commutator_subgroup(A: AnosovMatrix, a: Vec) -> Optional[Vec]:
    """Integral u with (A - I) u = a, or None when a is not a member."""
    u0, u1 = membership_witness_rational(A, a)
    if u0.denominator == 1 and u1.denominator == 1:
        return (int(u0), int(u1))
    return None


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
        product = SOL_IDENTITY_T
        for x, y in self.factors:
            product = sol_mul(self.matrix, product,
                              sol_commutator(self.matrix, x, y))
        if product != self.target:
            raise SolCertificateError(
                f"commutator product {product} does not equal {self.target}")

    @property
    def factor_count(self) -> int:
        return len(self.factors)


_G = SolElement((0, 0), 1)


def _fiber_factor(A: AnosovMatrix, piece: Vec) -> tuple[SolElement, SolElement]:
    """The pair (g, (u, 0)) with [g, (u, 0)] = (piece, 0)."""
    u = membership_commutator_subgroup(A, piece)
    if u is None:  # pragma: no cover - callers stay inside the image lattice
        raise SolMembershipError(f"piece {piece} is not in the image lattice")
    return (_G, SolElement(u, 0))


def commutator_certificate(A: AnosovMatrix, a: Vec) -> SolCommutatorExpression:
    """One-commutator certificate ``(a, 0) = [g, (u, 0)]`` for a member.

    ``g`` is the vertical generator; the identity gets the empty product.
    Raises SolMembershipError when the defining solve is not integral.
    """
    a = (int(a[0]), int(a[1]))
    if a == (0, 0):
        return SolCommutatorExpression(A, (), SOL_IDENTITY_T)
    u = membership_commutator_subgroup(A, a)
    if u is None:
        raise SolMembershipError(
            f"{a} is not in the commutator subgroup: "
            f"(A - I)^-1 {a} = {membership_witness_rational(A, a)} "
            f"is not integral")
    return SolCommutatorExpression(
        A, ((_G, SolElement(u, 0)),), SolElement(a, 0))


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
    ``count <= c1 * log(|a| + 2) + c2`` checked at every level.
    """

    constants: dict
    levels: tuple[LevelRecord, ...]
    factor_count: int


class DecompositionOutcome(NamedTuple):
    expression: SolCommutatorExpression
    trace: DecompositionTrace


class _Profile(NamedTuple):
    lam: float                # |expanding eigenvalue| > 1
    comp_plus: tuple          # dual functional coefficients, expanding
    comp_minus: tuple
    box_bound: int
    members_plus: tuple       # orbit-minimal box vectors for A^k pieces
    members_minus: tuple      # orbit-minimal box vectors for A^-k pieces
    h_plus: float
    h_minus: float
    contraction_plus: float
    contraction_minus: float
    base_bound: int
    c1: float
    c2: float


def _component(coeffs, v: Vec) -> float:
    return coeffs[0] * v[0] + coeffs[1] * v[1]


def _max_gap(values, half_range: float) -> float:
    window = sorted(x for x in values if -half_range <= x <= half_range)
    if len(window) < 2:
        return math.inf
    gaps = [b - a for a, b in zip(window, window[1:])]
    # the window edges also need coverage from the nearest value inside
    edge = max(half_range - window[-1], window[0] + half_range)
    return max(max(gaps), 2 * edge)


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
        members = frozenset(
            (x, y)
            for x in range(-box_bound, box_bound + 1)
            for y in range(-box_bound, box_bound + 1)
            if (x, y) != (0, 0)
            and membership_commutator_subgroup(A, (x, y)) is not None)
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
        plus_vals = [_component(comp_plus, b) for b in members_plus]
        minus_vals = [_component(comp_minus, b) for b in members_minus]
        h_plus = 0.999 * max(abs(v) for v in plus_vals)
        h_minus = 0.999 * max(abs(v) for v in minus_vals)
        gap_plus = _max_gap(plus_vals, h_plus)
        gap_minus = _max_gap(minus_vals, h_minus)
        c_plus = lam * gap_plus / (2 * h_plus)
        c_minus = lam * gap_minus / (2 * h_minus)
        if c_plus < 0.98 and c_minus < 0.98:
            contraction = max(c_plus, c_minus, 0.05)
            base_bound = 4 * box_bound
            c1 = 2.0 / math.log(1 / contraction)
            c2 = 8.0
            return _Profile(lam, comp_plus, comp_minus, box_bound,
                            members_plus, members_minus,
                            h_plus, h_minus, c_plus, c_minus, base_bound,
                            c1, c2)
    raise SolProfileError(
        f"could not certify an eigendirection contraction for {A} with "
        f"boxes up to 8")


def _sup(v: Vec) -> int:
    return max(abs(v[0]), abs(v[1]))


#: floats overflow near 2**1024, so a remainder longer than this many bits
#: is steered on its leading bits
_STEER_BITS = 1000


def _least_power(coeffs, r: Vec, lam: float, half_range: float) -> int:
    """Least k with ``|component of r along coeffs| / lam**k <= half_range``.

    Steers in floats on ``r >> s``, for the shift ``s`` that leaves
    ``_STEER_BITS`` bits, and folds the shift back in while the float has
    room; below ``2**_STEER_BITS`` the shift is 0 and the steps are the
    plain float loop's.
    """
    shift = max(0, _sup(r).bit_length() - _STEER_BITS)
    scaled = abs(_component(coeffs, (r[0] >> shift, r[1] >> shift)))
    k = 0
    while shift and scaled:
        step = min(shift, max(0, _STEER_BITS - math.frexp(scaled)[1]))
        scaled = math.ldexp(scaled, step)
        shift -= step
        if shift:
            scaled /= lam
            k += 1
    while scaled > half_range:
        scaled /= lam
        k += 1
    return k


def _best_piece(A: AnosovMatrix, members: tuple, r: Vec, k: int
                ) -> tuple[Optional[Vec], Vec]:
    """Box vector whose k-th matrix image best cancels r, with remainder."""
    best_key = None
    best = (None, r)
    for b in members + ((0, 0),):
        image = A.apply(b, k)
        rem = (r[0] - image[0], r[1] - image[1])
        key = (_sup(rem), rem, b)
        if best_key is None or key < best_key:
            best_key = key
            best = (b if b != (0, 0) else None, rem)
    return best


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
    constants = {
        "eigenvalue": prof.lam,
        "box_bound": prof.box_bound,
        "half_range_expanding": prof.h_plus,
        "half_range_contracting": prof.h_minus,
        "contraction_expanding": prof.contraction_plus,
        "contraction_contracting": prof.contraction_minus,
        "base_bound": prof.base_bound,
        "c1": prof.c1,
        "c2": prof.c2,
    }
    bound = prof.c1 * math.log(_sup(a) + 2) + prof.c2
    factors: list[tuple[SolElement, SolElement]] = []
    levels: list[LevelRecord] = []
    r = a
    while True:
        # a level that adds no factor leaves r as it was and fails the
        # contraction check, and a nonzero remainder ends as one more
        # factor, so this count never exceeds the final one
        count = len(factors) + (r != (0, 0))
        if count > bound:
            raise SclLabError(
                f"factor count {count} exceeds the recorded bound "
                f"{bound:.2f} for {a}; the (c1, c2) constants are wrong")
        if _sup(r) <= prof.base_bound:
            break
        r_in = r
        pieces = []
        k1 = _least_power(prof.comp_plus, r, prof.lam, prof.h_plus)
        b1, r = _best_piece(A, prof.members_plus, r, k1)
        if b1 is not None:
            pieces.append((k1, b1))
            factors.append(_fiber_factor(A, A.apply(b1, k1)))
        k2 = _least_power(prof.comp_minus, r, prof.lam, prof.h_minus)
        b2, r = _best_piece(A, prof.members_minus, r, -k2)
        if b2 is not None:
            pieces.append((-k2, b2))
            factors.append(_fiber_factor(A, A.apply(b2, -k2)))
        if _sup(r) >= _sup(r_in):
            raise SclLabError(
                f"certified contraction failed at {r_in} -> {r} for {A}; "
                f"this is a bug in the profile constants")
        levels.append(LevelRecord(r_in, tuple(pieces), r))
    if r != (0, 0):
        factors.append(_fiber_factor(A, r))
    expression = SolCommutatorExpression(A, tuple(factors), SolElement(a, 0))
    trace = DecompositionTrace(constants, tuple(levels), len(factors))
    return DecompositionOutcome(expression, trace)


# ---------------------------------------------------------------------------
# the report

@dataclass(frozen=True)
class SolSclReport:
    """Membership verdict and scl value for a fiber vector.

    Members get scl 0 with the direct certificate; the identity
    ``(A - I)(n u) = n a`` keeps the commutator length at 1 for every
    power, which is the whole vanishing argument.  Non-members report an
    infinite scl (scl None) with the non-integral solve as witness.
    """

    matrix: AnosovMatrix
    vector: Vec
    member: bool
    scl: Optional[Fraction]
    certificate: Optional[SolCommutatorExpression] = None
    witness_rational: Optional[tuple[Fraction, Fraction]] = None


def sol_scl_report(A: AnosovMatrix, a: Vec) -> SolSclReport:
    a = (int(a[0]), int(a[1]))
    u = membership_commutator_subgroup(A, a)
    if u is None:
        return SolSclReport(
            matrix=A, vector=a, member=False, scl=None,
            witness_rational=membership_witness_rational(A, a))
    return SolSclReport(
        matrix=A, vector=a, member=True, scl=Fraction(0),
        certificate=commutator_certificate(A, a))
