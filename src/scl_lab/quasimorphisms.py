"""Counting quasimorphisms on free groups and circle lifts for SL(2, R).

A quasimorphism is a map ``f`` on a group with uniformly bounded defect
``|f(ab) - f(a) - f(b)|``.  The counting (Brooks) quasimorphisms built here
carry certified defect bounds, which is what turns their values into lower
bounds for stable commutator length through Bavard duality.  The circle-lift
half of the module computes rotation numbers of projective actions with an
explicit error bound; the translation number of a lift is the archetypal
quasimorphism on the lifted matrix group.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence, Union

from .errors import AuditError
from .free_words import (
    CyclicWord,
    ReducedWord,
    WordError,
    _count_up_to,
    _cyclic_copy_rate,
    _cyclic_starts,
    _inv,
    _same_rank,
    _unrank_codes,
    count_disjoint_copies,
    cyclically_reduce,
    enumerate_reduced_words,
)

__all__ = [
    "BROOKS_DEFECT",
    "HOMOGENEOUS_BROOKS_DEFECT",
    "QuasimorphismHandle",
    "brooks",
    "brooks_homogeneous",
    "brooks_homogeneous_exact",
    "DefectScan",
    "defect_observed",
    "DET_TOL",
    "CircleLift",
    "lift_from_matrix",
    "compose",
    "invert_lift",
    "RotationEstimate",
    "rotation_number",
]

Value = Union[int, Fraction]

#: Certified defect bound for a plain counting quasimorphism built on
#: disjoint-copy counts.
BROOKS_DEFECT = 3

#: Certified defect bound for its homogenization (at most twice the plain
#: defect).
HOMOGENEOUS_BROOKS_DEFECT = 6


@dataclass(frozen=True)
class QuasimorphismHandle:
    """A quasimorphism as an evaluator plus a certified defect.

    ``defect_certificate`` is an upper bound on the defect that holds by
    construction, not an observation.
    """

    name: str
    rank: int
    evaluate: Callable[[ReducedWord], Value]
    defect_certificate: int

    def __call__(self, a: ReducedWord) -> Value:
        return self.evaluate(a)


def brooks(w: ReducedWord) -> QuasimorphismHandle:
    """Counting quasimorphism of ``w``: disjoint copies of ``w`` minus
    disjoint copies of ``w^-1``.

    Requires ``len(w) >= 2``; single letters give homomorphisms, not
    interesting quasimorphisms, and break the counting convention.
    """
    if len(w) < 2:
        raise WordError(f"brooks pattern must have length >= 2, got {len(w)}")
    wi = ~w

    def evaluate(a: ReducedWord) -> int:
        return count_disjoint_copies(w, a) - count_disjoint_copies(wi, a)

    return QuasimorphismHandle(
        name=f"brooks[{w}]", rank=w.rank, evaluate=evaluate,
        defect_certificate=BROOKS_DEFECT)


def _homogeneous_value(rate: tuple[int, int], inverse_rate: tuple[int, int]
                       ) -> tuple[int, int]:
    """``rate(w) - rate(w^-1)`` from the ``_cyclic_copy_rate`` pairs of a
    pattern ``w`` and of its inverse on one core, as an unreduced integer
    pair ``(numerator, denominator)`` with a positive denominator."""
    (n1, d1), (n2, d2) = rate, inverse_rate
    return n1 * d2 - n2 * d1, d1 * d2


def brooks_homogeneous_exact(w: ReducedWord,
                             a: Union[ReducedWord, CyclicWord]) -> Fraction:
    """Exact value of the homogenized counting quasimorphism of ``w`` at ``a``.

    Equals ``lim_n brooks(w)(a^n) / n``, computed as a rational via cyclic
    counting on the cyclic core of ``a``, whose subwords of length ``|w|``
    are tabled once for ``w`` and its inverse.  Conjugation-invariant by
    construction.  A ``CyclicWord`` is taken as that core already, so a
    scan over many patterns reduces ``a`` once.
    """
    if len(w) < 2:
        raise WordError(f"brooks pattern must have length >= 2, got {len(w)}")
    core = a if isinstance(a, CyclicWord) else cyclically_reduce(a)[0]
    if not core.codes:
        return Fraction(0)
    _same_rank(w, core)
    k, L = len(w.codes), len(core)
    starts = _cyclic_starts(core.codes, k)
    return Fraction(*_homogeneous_value(
        _cyclic_copy_rate(starts.get(w.codes, ()), k, L),
        _cyclic_copy_rate(starts.get(_inv(w.codes), ()), k, L)))


def brooks_homogeneous(w: ReducedWord) -> QuasimorphismHandle:
    """Handle for the homogenized counting quasimorphism of ``w``."""
    if len(w) < 2:
        raise WordError(f"brooks pattern must have length >= 2, got {len(w)}")

    def evaluate(a: ReducedWord) -> Fraction:
        return brooks_homogeneous_exact(w, a)

    return QuasimorphismHandle(
        name=f"brooks_hom[{w}]", rank=w.rank, evaluate=evaluate,
        defect_certificate=HOMOGENEOUS_BROOKS_DEFECT)


class DefectScan(NamedTuple):
    observed: Value
    mode: str
    pairs_checked: int


#: Largest pair count ``defect_observed`` scans exhaustively.
_EXHAUSTIVE_PAIRS = 10_000_000


def defect_observed(handle: QuasimorphismHandle, max_len: int, *,
                    samples: int = 200_000, seed: int = 0) -> DefectScan:
    """Largest defect ``|f(ab) - f(a) - f(b)|`` seen over words up to
    ``max_len``.

    Scans every pair when the pair count stays within ten million (at rank
    2, words up to length 6), otherwise a seeded random sample.  Raises
    AuditError if an observation beats the handle's certified bound, since
    that means the certificate (or the evaluator) is wrong.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rank = handle.rank
    n = _count_up_to(rank, max_len)
    best: Value = 0
    evaluate = handle.evaluate
    if n * n <= _EXHAUSTIVE_PAIRS:
        mode = "exhaustive"
        pairs = n * n
        words = list(enumerate_reduced_words(rank, max_len))
        values = {u: evaluate(u) for u in words}
        for a in words:
            fa = values[a]
            for b in words:
                d = abs(evaluate(a * b) - fa - values[b])
                if d > best:
                    best = d
    else:
        # draw positions in enumeration order and build only those words
        mode = "sampled"
        pairs = samples
        rng = random.Random(seed)
        for _ in range(samples):
            a = ReducedWord(rank, _unrank_codes(rank, rng.randrange(n)),
                            _trusted=True)
            b = ReducedWord(rank, _unrank_codes(rank, rng.randrange(n)),
                            _trusted=True)
            d = abs(evaluate(a * b) - evaluate(a) - evaluate(b))
            if d > best:
                best = d
    cert = handle.defect_certificate
    if best > cert:
        raise AuditError(
            f"observed defect {best} exceeds certified bound {cert} "
            f"for {handle.name}")
    return DefectScan(best, mode, pairs)


# ---------------------------------------------------------------------------
# circle lifts of projective actions

#: How far a determinant may sit from 1 before a matrix is rejected.
DET_TOL = 1e-9


@dataclass(frozen=True)
class CircleLift:
    """A lift to the real line of the circle map induced by an SL(2, R)
    matrix.

    The circle is R/Z with ``t`` naming the projective direction
    ``(cos pi t, sin pi t)``.  The matrix acts on directions; ``base_value``
    pins the branch by fixing the image of 0.  ``evaluate`` is one closed
    form on [0, 1), extended over all of R through the degree-one rule
    ``f(x + 1) = f(x) + 1``.
    """

    matrix: tuple[float, float, float, float]
    base_value: float

    def evaluate(self, x: float) -> float:
        """Value of the lift at ``x = k + t`` with ``0 <= t < 1``.

        For ``t > 0``, ``M = [[a, b], [c, d]]`` maps direction ``t`` to the
        angle ``theta`` past ``M e0 = (a, c)``, where ``cot theta =
        (a^2 + c^2) cot pi t + (ab + cd)``.  The image vectors' cross product
        is ``det M sin pi t = sin pi t > 0``, so ``theta`` is in ``(0, pi)``:
        the increment ``theta / pi`` needs no unwrapping.  A determinant
        ``1 + e`` moves a value by about ``|e| / (2 pi)`` at most.
        """
        k = math.floor(x)
        t = x - k
        if t == 0.0:
            return self.base_value + k
        a, b, c, d = self.matrix
        s = math.sin(math.pi * t)
        theta = math.atan2(s, (a * a + c * c) * math.cos(math.pi * t)
                           + (a * b + c * d) * s)
        return self.base_value + k + theta / math.pi


def _flatten_matrix(matrix) -> tuple[float, float, float, float]:
    entries: list[float] = []
    for row in matrix:
        if isinstance(row, (int, float)):
            entries.append(float(row))
        else:
            entries.extend(float(v) for v in row)
    if len(entries) != 4:
        raise ValueError(f"expected a 2x2 matrix, got {len(entries)} entries")
    return (entries[0], entries[1], entries[2], entries[3])


def lift_from_matrix(matrix: Sequence, branch: int = 0) -> CircleLift:
    """Lift of the projective action of an SL(2, R) matrix.

    ``branch`` shifts the lift by an integer; branch 0 places the image of 0
    in [0, 1).  Rejects matrices whose determinant is not 1 within DET_TOL.
    """
    m = _flatten_matrix(matrix)
    a, b, c, d = m
    det = a * d - b * c
    if math.isfinite(det):
        # exact: the float products can round a determinant of 1 to 0
        det = float(Fraction(a) * Fraction(d) - Fraction(b) * Fraction(c))
    if not abs(det - 1.0) <= DET_TOL:
        raise ValueError(f"matrix determinant {det!r} is not 1 within {DET_TOL}")
    return CircleLift(m, (math.atan2(c, a) / math.pi) % 1.0 + branch)


def compose(f: CircleLift, g: CircleLift) -> CircleLift:
    """The lift of the composed circle map, ``x -> f(g(x))``."""
    fa, fb, fc, fd = f.matrix
    ga, gb, gc, gd = g.matrix
    m = (fa * ga + fb * gc, fa * gb + fb * gd,
         fc * ga + fd * gc, fc * gb + fd * gd)
    return CircleLift(m, f.evaluate(g.base_value))


def invert_lift(f: CircleLift) -> CircleLift:
    """The inverse lift, satisfying ``f(g(x)) = x``."""
    a, b, c, d = f.matrix
    adj = (d, -b, -c, a)
    y0 = (math.atan2(-c, d) / math.pi) % 1.0
    # the adjugate sends direction 0 to y0 and f sends y0 back to an integer
    branch = round(f.evaluate(y0))
    return CircleLift(adj, y0 - branch)


class RotationEstimate(NamedTuple):
    value: float
    error_bound: float


def rotation_number(f: CircleLift, n: int) -> RotationEstimate:
    """Estimate the translation number of a lift by ``f^n(0) / n``.

    The translation number is within ``1/n`` of the estimate for any lift of
    a degree-one circle map; no further regularity is needed.
    """
    if n < 1:
        raise ValueError(f"iteration count must be >= 1, got {n}")
    x = 0.0
    for _ in range(n):
        x = f.evaluate(x)
    return RotationEstimate(x / n, 1.0 / n)
