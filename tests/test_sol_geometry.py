"""Tests for Sol-lattice arithmetic, membership, and scl-zero certificates."""

import math
import random
import time
from fractions import Fraction

import pytest

from scl_lab import sol_geometry
from scl_lab.errors import SclLabError
from scl_lab.sol_geometry import (
    SOL_IDENTITY_T,
    AnosovMatrix,
    SolCertificateError,
    SolCommutatorExpression,
    SolElement,
    SolError,
    SolMembershipError,
    commutator_certificate,
    membership_commutator_subgroup,
    membership_witness_rational,
    recursive_log_decomposition,
    sol_commutator,
    sol_conjugate,
    sol_inverse,
    sol_mul,
    sol_power,
    sol_scl_report,
)

FIB_MATRIX = AnosovMatrix(2, 1, 1, 1)
MATRICES = (FIB_MATRIX, AnosovMatrix(3, 1, 2, 1), AnosovMatrix(5, 2, 2, 1))
G = SolElement((0, 0), 1)


def fib(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def image_vector(A: AnosovMatrix, u) -> tuple:
    """(A - I) u, the general fiber commutator value."""
    return (A.a * u[0] + A.b * u[1] - u[0], A.c * u[0] + A.d * u[1] - u[1])


def random_element(rng: random.Random) -> SolElement:
    return SolElement((rng.randint(-50, 50), rng.randint(-50, 50)),
                      rng.randint(-6, 6))


class TestAnosovMatrix:
    def test_valid_construction(self):
        A = AnosovMatrix(2, 1, 1, 1)
        assert A.trace == 3
        assert A.flat == (2, 1, 1, 1)

    def test_negative_trace_allowed(self):
        A = AnosovMatrix(-2, -1, -1, -1)
        assert A.trace == -3

    def test_rejects_wrong_determinant(self):
        with pytest.raises(SolError, match="determinant"):
            AnosovMatrix(2, 1, 1, 0)
        with pytest.raises(SolError, match="determinant"):
            AnosovMatrix(2, 0, 0, 2)

    def test_rejects_small_trace(self):
        # parabolic and elliptic integer matrices are not Anosov
        with pytest.raises(SolError, match="trace"):
            AnosovMatrix(1, 1, 0, 1)
        with pytest.raises(SolError, match="trace"):
            AnosovMatrix(0, 1, -1, 0)

    def test_apply_powers(self):
        A = FIB_MATRIX
        v = (1, 0)
        assert A.apply(v) == (2, 1)
        assert A.apply(v, 2) == A.apply((2, 1))
        assert A.apply(A.apply(v, 5), -5) == v
        assert A.apply(v, 0) == v


class TestGroupLaw:
    def test_abelian_fiber(self):
        x = SolElement((1, 0), 0)
        y = SolElement((0, 1), 0)
        assert sol_mul(FIB_MATRIX, x, y) == SolElement((1, 1), 0)
        assert sol_mul(FIB_MATRIX, y, x) == SolElement((1, 1), 0)

    def test_vertical_conjugation_applies_matrix(self):
        u = SolElement((1, 0), 0)
        assert sol_conjugate(FIB_MATRIX, u, G) == SolElement((2, 1), 0)
        rng = random.Random(7)
        for A in MATRICES:
            for _ in range(50):
                v = (rng.randint(-40, 40), rng.randint(-40, 40))
                got = sol_conjugate(A, SolElement(v, 0), G)
                assert got == SolElement(A.apply(v), 0)

    def test_inverse_law(self):
        rng = random.Random(1)
        for _ in range(100):
            x = random_element(rng)
            assert sol_mul(FIB_MATRIX, x, sol_inverse(FIB_MATRIX, x)) == SOL_IDENTITY_T
            assert sol_mul(FIB_MATRIX, sol_inverse(FIB_MATRIX, x), x) == SOL_IDENTITY_T

    def test_associativity(self):
        rng = random.Random(2)
        for i in range(1000):
            A = MATRICES[i % 3]
            x, y, z = (random_element(rng) for _ in range(3))
            left = sol_mul(A, sol_mul(A, x, y), z)
            right = sol_mul(A, x, sol_mul(A, y, z))
            assert left == right

    def test_identity_element(self):
        x = SolElement((3, -4), 2)
        assert sol_mul(FIB_MATRIX, x, SOL_IDENTITY_T) == x
        assert sol_mul(FIB_MATRIX, SOL_IDENTITY_T, x) == x

    def test_power_matches_iterated_product(self):
        rng = random.Random(3)
        for _ in range(40):
            A = MATRICES[rng.randrange(3)]
            x = random_element(rng)
            acc = SOL_IDENTITY_T
            for n in range(5):
                assert sol_power(A, x, n) == acc
                acc = sol_mul(A, acc, x)
            assert sol_power(A, x, -3) == sol_inverse(A, sol_power(A, x, 3))

    def test_power_adds_exponents_at_large_n(self):
        # repeated squaring: x^(m+n) = x^m x^n with m, n near 10^5
        x = SolElement((1, 0), 1)
        m, n = 100_003, 99_998
        start = time.perf_counter()
        assert sol_power(FIB_MATRIX, x, m + n) == sol_mul(
            FIB_MATRIX, sol_power(FIB_MATRIX, x, m),
            sol_power(FIB_MATRIX, x, n))
        assert time.perf_counter() - start < 1.0

    def test_fiber_power_closed_form(self):
        x = SolElement((2, -5), 0)
        assert sol_power(FIB_MATRIX, x, 7) == SolElement((14, -35), 0)

    def test_commutator_with_vertical_generator(self):
        # [g, (u, 0)] has fiber value (A - I) u, the membership equation
        rng = random.Random(4)
        for A in MATRICES:
            for _ in range(30):
                u = (rng.randint(-30, 30), rng.randint(-30, 30))
                got = sol_commutator(A, G, SolElement(u, 0))
                assert got == SolElement(image_vector(A, u), 0)

    def test_element_validation(self):
        with pytest.raises(SolError, match="2 entries"):
            SolElement((1, 2, 3), 0)


class TestMembership:
    def test_documented_solves(self):
        assert membership_commutator_subgroup(FIB_MATRIX, (1, 1)) == (1, 0)
        A = AnosovMatrix(3, 1, 2, 1)
        assert membership_commutator_subgroup(A, (1, 0)) == (0, 1)
        assert membership_commutator_subgroup(A, (0, 1)) is None

    def test_rational_witness_solves_exactly(self):
        rng = random.Random(5)
        for A in MATRICES:
            for _ in range(50):
                a = (rng.randint(-99, 99), rng.randint(-99, 99))
                u0, u1 = membership_witness_rational(A, a)
                assert (A.a - 1) * u0 + A.b * u1 == Fraction(a[0])
                assert A.c * u0 + (A.d - 1) * u1 == Fraction(a[1])

    def test_image_round_trip(self):
        rng = random.Random(6)
        for A in MATRICES:
            for _ in range(50):
                u = (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
                assert membership_commutator_subgroup(A, image_vector(A, u)) == u

    def test_against_brute_force(self):
        # every member with |a| <= 20 arises from some |u| <= 60
        for A in MATRICES:
            image = {image_vector(A, (x, y))
                     for x in range(-60, 61) for y in range(-60, 61)}
            for a0 in range(-20, 21):
                for a1 in range(-20, 21):
                    got = membership_commutator_subgroup(A, (a0, a1))
                    if (a0, a1) in image:
                        assert got is not None
                        assert image_vector(A, got) == (a0, a1)
                    else:
                        assert got is None


class TestDirectCertificate:
    def test_documented_example(self):
        cert = commutator_certificate(FIB_MATRIX, (1, 1))
        assert cert.factor_count == 1
        x, y = cert.factors[0]
        assert x == G
        assert y == SolElement((1, 0), 0)
        assert cert.target == SolElement((1, 1), 0)

    def test_identity_gets_empty_expression(self):
        cert = commutator_certificate(FIB_MATRIX, (0, 0))
        assert cert.factor_count == 0
        assert cert.target == SOL_IDENTITY_T

    def test_powers_stay_single_commutators(self):
        u = membership_commutator_subgroup(FIB_MATRIX, (1, 1))
        for n in range(1, 11):
            cert = commutator_certificate(FIB_MATRIX, (n, n))
            assert cert.factor_count == 1
            assert cert.factors[0][1] == SolElement((n * u[0], n * u[1]), 0)

    def test_non_member_raises(self):
        A = AnosovMatrix(3, 1, 2, 1)
        with pytest.raises(SolMembershipError, match="not integral"):
            commutator_certificate(A, (0, 1))

    def test_expression_verifies_itself(self):
        # wrong target must be rejected at construction
        with pytest.raises(SolCertificateError, match="does not equal"):
            SolCommutatorExpression(
                FIB_MATRIX, ((G, SolElement((1, 0), 0)),), SolElement((5, 5), 0))

    def test_random_round_trips(self):
        rng = random.Random(8)
        for A in MATRICES:
            for _ in range(150):
                u = (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
                a = image_vector(A, u)
                cert = commutator_certificate(A, a)
                assert cert.factor_count <= 1
                assert cert.target == SolElement(a, 0)


class TestRecursiveDecomposition:
    def test_small_input_matches_direct(self):
        out = recursive_log_decomposition(FIB_MATRIX, (1, 1))
        assert out.expression.factor_count == 1
        assert out.expression.target == SolElement((1, 1), 0)
        assert out.trace.levels == ()

    def test_identity_empty(self):
        out = recursive_log_decomposition(FIB_MATRIX, (0, 0))
        assert out.expression.factor_count == 0
        assert out.trace.factor_count == 0

    def test_factor_structure(self):
        a = image_vector(FIB_MATRIX, (fib(18), fib(17)))
        out = recursive_log_decomposition(FIB_MATRIX, a)
        assert out.expression.target == SolElement(a, 0)
        assert len(out.trace.levels) >= 2
        for x, y in out.expression.factors:
            assert x == G
            assert y.t == 0
        piece_total = sum(len(lvl.pieces) for lvl in out.trace.levels)
        assert out.trace.factor_count in (piece_total, piece_total + 1)

    def test_remainders_strictly_decrease(self):
        a = image_vector(AnosovMatrix(5, 2, 2, 1), (123456, -98765))
        out = recursive_log_decomposition(AnosovMatrix(5, 2, 2, 1), a)
        sups = [max(map(abs, lvl.remainder_in)) for lvl in out.trace.levels]
        sups.append(max(map(abs, out.trace.levels[-1].remainder_out)))
        assert sups == sorted(sups, reverse=True)
        assert len(set(sups)) == len(sups)

    def test_agrees_with_direct_certificate(self):
        rng = random.Random(9)
        for A in MATRICES:
            for _ in range(25):
                u = (rng.randint(-10**5, 10**5), rng.randint(-10**5, 10**5))
                a = image_vector(A, u)
                direct = commutator_certificate(A, a)
                out = recursive_log_decomposition(A, a)
                assert out.expression.target == direct.target
                assert out.trace.factor_count >= direct.factor_count

    def test_factor_count_within_recorded_bound(self):
        for A in MATRICES:
            for k in range(2, 21):
                a = image_vector(A, (fib(k), fib(k - 1)))
                out = recursive_log_decomposition(A, a)
                c = out.trace.constants
                size = max(map(abs, a))
                assert out.trace.factor_count <= (
                    c["c1"] * math.log(size + 2) + c["c2"])

    def test_fibonacci_counts_grow_like_log(self):
        xs, ys = [], []
        for k in range(4, 29):
            a = image_vector(FIB_MATRIX, (fib(k), fib(k - 1)))
            out = recursive_log_decomposition(FIB_MATRIX, a)
            xs.append(math.log(max(map(abs, a)) + 2))
            ys.append(out.trace.factor_count)
        assert ys == sorted(ys)  # deterministic staircase
        assert ys[-1] >= ys[0] + 6
        n = len(xs)
        mx, my = sum(xs) / n, sum(ys) / n
        sxx = sum((x - mx) ** 2 for x in xs)
        sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        slope = sxy / sxx
        resid = sum((y - my - slope * (x - mx)) ** 2 for x, y in zip(xs, ys))
        total = sum((y - my) ** 2 for y in ys)
        assert 1 - resid / total > 0.9
        assert slope > 0

    def test_trace_constants_recorded(self):
        out = recursive_log_decomposition(FIB_MATRIX, (fib(12), fib(11)))
        keys = {"eigenvalue", "box_bound", "half_range_expanding",
                "half_range_contracting", "contraction_expanding",
                "contraction_contracting", "base_bound", "c1", "c2"}
        assert keys <= set(out.trace.constants)
        assert out.trace.constants["contraction_expanding"] < 1
        assert out.trace.constants["contraction_contracting"] < 1

    def test_factor_count_bound_is_enforced(self, monkeypatch):
        # with c1 = 0 and c2 = 3 the recorded bound is 3 factors, which a
        # member needing more levels exceeds before the loop runs on
        real = sol_geometry._decomposition_profile
        monkeypatch.setattr(sol_geometry, "_decomposition_profile",
                            lambda flat: real(flat)._replace(c1=0.0, c2=3.0))
        a = image_vector(FIB_MATRIX, (fib(40), fib(39)))
        with pytest.raises(SclLabError, match="exceeds the recorded bound"):
            recursive_log_decomposition(FIB_MATRIX, a)
        assert recursive_log_decomposition(FIB_MATRIX, (1, 1)) \
            .trace.factor_count == 1

    def test_non_member_rejected(self):
        A = AnosovMatrix(3, 1, 2, 1)
        with pytest.raises(SolMembershipError):
            recursive_log_decomposition(A, (0, 1))


class TestSclReport:
    def test_member_gets_zero_with_certificate(self):
        report = sol_scl_report(FIB_MATRIX, (1, 1))
        assert report.member
        assert report.scl == Fraction(0)
        assert report.certificate.factor_count == 1
        assert report.witness_rational is None

    def test_non_member_gets_infinity_with_witness(self):
        A = AnosovMatrix(3, 1, 2, 1)
        report = sol_scl_report(A, (0, 1))
        assert not report.member
        assert report.scl is None
        assert report.certificate is None
        u0, u1 = report.witness_rational
        assert u0.denominator > 1 or u1.denominator > 1
        assert (u0, u1) == membership_witness_rational(A, (0, 1))

    def test_identity_trivially_zero(self):
        report = sol_scl_report(FIB_MATRIX, (0, 0))
        assert report.member
        assert report.scl == Fraction(0)
        assert report.certificate.factor_count == 0

