"""Acceptance gate: the ten headline checks, one pass/fail line each.

Each test prints CRITERION n PASS/FAIL (visible with -s or in the failure
report; the verbose test ids carry the same information).  Oracles are
independent of the library paths they check: extended-precision closed
forms via mpmath, grid searches via numpy, and exponential brute-force
recursions for the combinatorial scans.
"""

import functools
import json
import math
import random
import time
from fractions import Fraction

import mpmath
import numpy

from scl_lab.cli import main as cli_main
from scl_lab.free_words import (
    ReducedWord,
    count_disjoint_copies,
    enumerate_reduced_words,
    parse_word,
)
from scl_lab.hyperbolic_estimates import (
    CuspShape,
    GapParams,
    SurgeryCoeffs,
    TubeParams,
    hk_min_core_length,
    length_gap_bound,
    nz_core_length,
    optimal_epsilon,
    scl_lower_from_tube,
    surgery_bound_audit,
    tube_qm_value,
)
from scl_lab.quasimorphisms import (
    brooks,
    compose,
    defect_observed,
    lift_from_matrix,
    rotation_number,
)
from scl_lab.scl_engine import cl_upper, scl_upper_from_power
from scl_lab.sol_geometry import (
    AnosovMatrix,
    commutator_certificate,
    membership_commutator_subgroup,
    recursive_log_decomposition,
)

mpmath.mp.dps = 50


def criterion(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                print(f"CRITERION {number:2d} FAIL  {label}: {exc}")
                raise
            print(f"CRITERION {number:2d} PASS  {label}")
        return wrapped
    return decorate


def w(text: str, rank: int = 2) -> ReducedWord:
    return parse_word(text, rank=rank)


def fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


@criterion(1, "scl [a,b] sandwich = [1/12, 1/2] exactly, via the CLI")
def test_criterion_01_scl_sandwich(capsys):
    start = time.perf_counter()
    code = cli_main(["scl", "--word", "[a,b]", "--rank", "2"])
    elapsed = time.perf_counter() - start
    record = json.loads(capsys.readouterr().out.strip())
    assert code == 0
    assert record["result"]["lower"] == "1/12"
    assert record["result"]["upper"] == "1/2"
    lower = Fraction(*map(int, record["result"]["lower"].split("/")))
    upper = Fraction(*map(int, record["result"]["upper"].split("/")))
    assert (lower, upper) == (Fraction(1, 12), Fraction(1, 2))
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


@criterion(2, "genus-2 witness for [a,b]^3 with verified certificate")
def test_criterion_02_genus_two_witness():
    target = w("[a,b]^3")
    start = time.perf_counter()
    cert = cl_upper(target, max_genus=2, max_len=6)
    elapsed = time.perf_counter() - start
    assert cert is not None and cert.genus == 2
    # oracle: re-verify by free reduction, independent of the certificate
    # class's own check
    product = w("")
    for u, v in cert.pairs:
        product = product * u * v * ~u * ~v
    assert product == target
    assert scl_upper_from_power(w("[a,b]"), 3, cert) == Fraction(1, 2)
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


@criterion(3, "Brooks defect <= 3 exhaustively up to length 5")
def test_criterion_03_brooks_defect_exhaustive():
    start = time.perf_counter()
    for text in ("ab", "abAB"):
        scan = defect_observed(brooks(w(text)), 5)
        assert scan.mode == "exhaustive"
        assert scan.pairs_checked == 485 ** 2
        assert scan.observed <= 3
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.2f}s"


def _greedy_on(starts, k):
    count, free = 0, 0
    for s in starts:
        if s >= free:
            count += 1
            free = s + k
    return count


def _brute_on(starts, k):
    def rec(i, free):
        if i == len(starts):
            return 0
        best = rec(i + 1, free)
        if starts[i] >= free:
            best = max(best, 1 + rec(i + 1, starts[i] + k))
        return best
    return rec(0, 0)


def _occurrences(word: ReducedWord, pattern: ReducedWord):
    n, k = len(word.codes), len(pattern.codes)
    return [i for i in range(n - k + 1)
            if word.codes[i:i + k] == pattern.codes]


@criterion(4, "greedy counting equals brute-force maximum, |w|<=4, |a|<=12")
def test_criterion_04_counting_oracle():
    # both sides depend only on the occurrence-position set, so (1) check
    # the greedy rule against the exponential oracle on every position-set
    # configuration realizable at these lengths,
    for k in range(2, 5):
        for n in range(k, 13):
            slots = n - k + 1
            for mask in range(1 << slots):
                starts = [i for i in range(slots) if mask >> i & 1]
                assert _greedy_on(starts, k) == _brute_on(starts, k)
    # (2) check the production scanner against the position-set model,
    # exhaustively for |a| <= 8
    patterns = [p for p in enumerate_reduced_words(2, 4) if len(p) >= 2]
    for a in enumerate_reduced_words(2, 8):
        if len(a) < 2:
            continue
        for p in patterns:
            if len(p) <= len(a):
                assert count_disjoint_copies(p, a) == _greedy_on(
                    _occurrences(a, p), len(p))
    # (3) and on a seeded 50k sample for |a| in 9..12
    rng = random.Random(0)
    alphabet = (1, -1, 2, -2)
    for _ in range(50_000):
        n = rng.randint(9, 12)
        codes = [rng.choice(alphabet)]
        while len(codes) < n:
            c = rng.choice(alphabet)
            if c != -codes[-1]:
                codes.append(c)
        a = ReducedWord(2, tuple(codes), _trusted=True)
        p = patterns[rng.randrange(len(patterns))]
        assert count_disjoint_copies(p, a) == _greedy_on(
            _occurrences(a, p), len(p))


@criterion(5, "surgery proof inequalities hold on [T0, inf), T0 = 2.001")
def test_criterion_05_inequality_audit():
    start = time.perf_counter()
    report = surgery_bound_audit()
    elapsed = time.perf_counter() - start
    assert report.t0 == 2.001
    assert len(report.margins) == 3
    for margin in report.margins.values():
        assert isinstance(margin, Fraction) and margin > 0
    # the proof is one exact evaluation; check it against 50-digit values
    # of the printed inequalities on a 1000-point grid from T0 to 10
    c1, c2, c3 = (mpmath.mpf(c) for c in (1.0376, 0.9816, 1.0206))
    for i in range(1000):
        t = mpmath.mpf(report.t0 + (10 - report.t0) * i / 999)
        length = mpmath.mpf(0.5404) * mpmath.tanh(t) / mpmath.cosh(2 * t)
        assert c1 * mpmath.exp(2 * t) \
            > 2 * mpmath.cosh(2 * t) / mpmath.tanh(t)
        assert 2 * mpmath.sinh(t) > c2 * mpmath.exp(t)
        assert mpmath.exp(t) > c3 / mpmath.sqrt(length)
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@criterion(6, "filled-core length limit within 1% at slope 1000")
def test_criterion_06_filled_core_limit():
    rng = random.Random(20260823)
    start = time.perf_counter()
    for _ in range(10):
        r = rng.uniform(0.7, 1.5)
        theta = rng.uniform(0, 2 * math.pi)
        shear = rng.uniform(-0.5, 0.5)
        meridian = r * complex(math.cos(theta), math.sin(theta))
        longitude = shear * meridian + 1j * meridian / r ** 2
        cusp = CuspShape(meridian, longitude)
        approx = nz_core_length(cusp, SurgeryCoeffs(1000, 1))
        truth = 2 * math.pi / abs(meridian) ** 2
        assert abs(1000 ** 2 * approx - truth) / truth < 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@criterion(7, "tube pipeline values match extended-precision oracles")
def test_criterion_07_tube_pipeline_values():
    # oracles evaluate the closed forms in 50-digit arithmetic
    hk_oracle = float(
        mpmath.mpf("0.5404") * mpmath.tanh(2) / mpmath.cosh(4))
    qm_oracle = float(
        mpmath.mpf("0.1") * mpmath.sinh(2) * 2 / (2 + 1))
    scl_oracle = float(
        mpmath.mpf("0.1") * mpmath.sinh(2) * 2 / 3 / (4 * mpmath.pi))
    params = TubeParams(0.1, 2.0)
    assert abs(hk_min_core_length(2.0) - hk_oracle) < 1e-6
    assert abs(tube_qm_value(params).value - qm_oracle) < 1e-6
    assert abs(scl_lower_from_tube(params) - scl_oracle) < 1e-6
    # the two printed constants consistent with the formulas
    assert abs(hk_min_core_length(2.0) - 0.019077) < 1e-6
    assert abs(tube_qm_value(params).value - 0.241791) < 1e-6


@criterion(8, "Sol certificates round-trip; recursion count grows like log")
def test_criterion_08_sol_certificates():
    matrices = (AnosovMatrix(2, 1, 1, 1), AnosovMatrix(3, 1, 2, 1),
                AnosovMatrix(5, 2, 2, 1))
    rng = random.Random(0)
    start = time.perf_counter()
    for i in range(1000):
        A = matrices[i % 3]
        u = (rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6))
        a = (A.a * u[0] + A.b * u[1] - u[0], A.c * u[0] + A.d * u[1] - u[1])
        assert membership_commutator_subgroup(A, a) == u
        cert = commutator_certificate(A, a)  # construction verifies exactly
        assert cert.factor_count <= 1
        assert cert.target.v == a and cert.target.t == 0
    A = matrices[0]
    sizes, counts = [], []
    for k in range(4, 29):
        u = (fib(k), fib(k - 1))
        a = (A.a * u[0] + A.b * u[1] - u[0], A.c * u[0] + A.d * u[1] - u[1])
        outcome = recursive_log_decomposition(A, a)
        sizes.append(math.log(max(map(abs, a)) + 2))
        counts.append(outcome.trace.factor_count)
    elapsed = time.perf_counter() - start
    xs = numpy.array(sizes)
    ys = numpy.array(counts, dtype=float)
    slope, intercept = numpy.polyfit(xs, ys, 1)
    predicted = slope * xs + intercept
    r_squared = 1 - numpy.sum((ys - predicted) ** 2) / numpy.sum(
        (ys - ys.mean()) ** 2)
    assert slope > 0
    assert r_squared > 0.9, f"R^2 = {r_squared:.3f}"
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


@criterion(9, "rotation numbers: rigid 1/3, hyperbolic 0, conjugacy bound")
def test_criterion_09_rotation_numbers():
    start = time.perf_counter()
    third = lift_from_matrix([math.cos(math.pi / 3), -math.sin(math.pi / 3),
                              math.sin(math.pi / 3), math.cos(math.pi / 3)])
    estimate = rotation_number(third, 300)
    assert abs(estimate.value - Fraction(1, 3)) <= Fraction(1, 300)
    hyperbolic = lift_from_matrix([2.0, 0.0, 0.0, 0.5])
    assert hyperbolic.evaluate(0.0) == 0.0  # fixed axis, so 0 for every n
    for n in range(1, 301):
        assert rotation_number(hyperbolic, n).value == 0.0
    shear = [1.0, 0.7, 0.0, 1.0]
    inverse_shear = [1.0, -0.7, 0.0, 1.0]
    conjugated = compose(compose(lift_from_matrix(shear), third),
                         lift_from_matrix(inverse_shear))
    for n in (30, 100, 300):
        base = rotation_number(third, n).value
        moved = rotation_number(conjugated, n).value
        assert abs(base - moved) <= 2 / n + 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@criterion(10, "gap calculator matches the grid-search oracle")
def test_criterion_10_gap_calculator():
    eps_grid = numpy.linspace(1e-6, 1.0, 1_000_000)
    values = 4 * eps_grid + numpy.pi / (6 * eps_grid)
    best = int(numpy.argmin(values))
    result = optimal_epsilon(1.0)
    assert abs(result.epsilon - eps_grid[best]) < 1e-5
    assert abs(result.min_constant - values[best]) < 1e-5
    assert abs(result.epsilon - 0.361801) < 1e-5
    assert abs(result.min_constant - 2.894405) < 1e-5
    bound = length_gap_bound(GapParams(100, 1, 0.3618), "universal")
    assert abs(bound - 0.197346) < 1e-4
