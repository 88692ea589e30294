"""Tests for Sol-lattice arithmetic, membership, and scl-zero certificates."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from scl_lab import sol_geometry
from scl_lab.errors import CertificateError, SclLabError, SolProfileError
from scl_lab.sol_geometry import (
    AnosovMatrix,
    SolCommutatorExpression,
    SolElement,
    SolError,
    SolMembershipError,
    commutator_certificate,
    membership_commutator_subgroup,
    membership_witness_rational,
    recursive_log_decomposition,
    sol_commutator,
    sol_inverse,
    sol_mul,
)

FIB_MATRIX = AnosovMatrix(2, 1, 1, 1)
MATRICES = (FIB_MATRIX, AnosovMatrix(3, 1, 2, 1), AnosovMatrix(5, 2, 2, 1))
G = SolElement((0, 0), 1)
IDENTITY = SolElement((0, 0), 0)


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
        def conjugate(A, x, c):
            return sol_mul(A, sol_mul(A, c, x), sol_inverse(A, c))

        u = SolElement((1, 0), 0)
        assert conjugate(FIB_MATRIX, u, G) == SolElement((2, 1), 0)
        rng = random.Random(7)
        for A in MATRICES:
            for _ in range(50):
                v = (rng.randint(-40, 40), rng.randint(-40, 40))
                got = conjugate(A, SolElement(v, 0), G)
                assert got == SolElement(A.apply(v), 0)

    def test_inverse_law(self):
        rng = random.Random(1)
        for _ in range(100):
            x = random_element(rng)
            assert sol_mul(FIB_MATRIX, x, sol_inverse(FIB_MATRIX, x)) == IDENTITY
            assert sol_mul(FIB_MATRIX, sol_inverse(FIB_MATRIX, x), x) == IDENTITY

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
        assert sol_mul(FIB_MATRIX, x, IDENTITY) == x
        assert sol_mul(FIB_MATRIX, IDENTITY, x) == x

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
        assert cert.target == IDENTITY

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
        with pytest.raises(CertificateError, match="does not equal"):
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

        def lowered(flat):
            prof = real(flat)
            return prof._replace(
                constants={**prof.constants, "c1": 0.0, "c2": 3.0})

        monkeypatch.setattr(sol_geometry, "_decomposition_profile", lowered)
        a = image_vector(FIB_MATRIX, (fib(40), fib(39)))
        with pytest.raises(SclLabError, match="exceeds the recorded bound"):
            recursive_log_decomposition(FIB_MATRIX, a)
        assert recursive_log_decomposition(FIB_MATRIX, (1, 1)) \
            .trace.factor_count == 1

    def test_non_member_rejected(self):
        A = AnosovMatrix(3, 1, 2, 1)
        with pytest.raises(SolMembershipError):
            recursive_log_decomposition(A, (0, 1))

    def test_power_cache_stays_bounded(self):
        # a member near 10^2000 touches more than 4096 distinct powers;
        # the cache evicts instead of growing, and the result still verifies
        cache = sol_geometry._matrix_power
        cache.cache_clear()
        a = image_vector(FIB_MATRIX, (10 ** 2000 + 12345, 3 * 10 ** 1999 + 7))
        expr = recursive_log_decomposition(FIB_MATRIX, a).expression
        info = cache.cache_info()
        assert info.misses > info.maxsize == 4096 >= info.currsize
        assert expr.target == SolElement(a, 0)
        SolCommutatorExpression(expr.matrix, expr.factors, expr.target)


class TestSclReport:
    """The two answers ``sol report`` is built from: a one-commutator
    certificate on every power of a member (scl 0), and the non-integral
    solve of a non-member (scl infinity)."""

    def test_member_gets_zero_with_certificate(self):
        cert = commutator_certificate(FIB_MATRIX, (1, 1))
        assert cert.factor_count == 1
        assert cert.target == SolElement((1, 1), 0)
        # cl(a^n) = 1 for every n, so scl(a) = lim cl(a^n) / n = 0
        for n in (2, 7, 10 ** 30):
            power = commutator_certificate(FIB_MATRIX, (n, n))
            assert power.factor_count == 1
            assert power.target == SolElement((n, n), 0)

    def test_non_member_gets_infinity_with_witness(self):
        A = AnosovMatrix(3, 1, 2, 1)
        with pytest.raises(SolMembershipError, match="not integral"):
            commutator_certificate(A, (0, 1))
        u0, u1 = membership_witness_rational(A, (0, 1))
        assert u0.denominator > 1 or u1.denominator > 1
        assert image_vector(A, (u0, u1)) == (0, 1)

    def test_identity_trivially_zero(self):
        cert = commutator_certificate(FIB_MATRIX, (0, 0))
        assert cert.factor_count == 0
        assert cert.target == IDENTITY
        assert membership_witness_rational(FIB_MATRIX, (0, 0)) == (0, 0)



def _certifies(A: AnosovMatrix) -> bool:
    try:
        sol_geometry._decomposition_profile(A.flat)
    except SolProfileError:
        return False
    return True


#: the benchmark's four matrices, then every Anosov matrix with entries in
#: [-3, 3] whose decomposition profile certifies
REFERENCE_MATRICES = tuple(dict.fromkeys(A for A in (
    [AnosovMatrix(2, 1, 1, 1), AnosovMatrix(5, 3, 3, 2),
     AnosovMatrix(-2, 1, 1, -1), AnosovMatrix(4, 1, 3, 1)]
    + [AnosovMatrix(*m) for m in itertools.product(range(-3, 4), repeat=4)
       if m[0] * m[3] - m[1] * m[2] == 1 and abs(m[0] + m[3]) > 2])
    if _certifies(A)))


def reference_best_piece(A: AnosovMatrix, members: tuple, r, k: int):
    """``_best_piece`` with one ``A.apply(b, k)`` per box vector."""
    best_key = best = None
    for b in members + ((0, 0),):
        image = A.apply(b, k)
        rem = (r[0] - image[0], r[1] - image[1])
        key = (max(abs(rem[0]), abs(rem[1])), rem, b)
        if best_key is None or key < best_key:
            best_key = key
            best = (b if b != (0, 0) else None, image, rem)
    return best


def tied_remainder(image_b, image_c):
    """A remainder r with sup(r - image_b) == sup(r - image_c)."""
    d0, d1 = image_c[0] - image_b[0], image_c[1] - image_b[1]
    m = max(abs(d0), abs(d1))
    p = m if d0 >= 0 else -m
    q = d1 - m if d1 >= 0 else d1 + m
    return (image_b[0] + p, image_b[1] + q)


class TestBestPieceReference:
    """The scan that computes one matrix power per call picks the same
    piece, image and remainder as one ``A.apply`` per box vector."""

    def test_reference_corpus(self):
        assert len(REFERENCE_MATRICES) == 42

    def test_hoisted_scan_matches_per_member_apply(self):
        rng = random.Random(20261018)
        ties = 0
        for A in REFERENCE_MATRICES:
            prof = sol_geometry._decomposition_profile(A.flat)
            for members in (prof.members_plus, prof.members_minus):
                candidates = members + ((0, 0),)
                powers = {0, 1, -1, 60, -60} | {
                    rng.randint(-60, 60) for _ in range(8)}
                for k in sorted(powers):
                    size = 10 ** rng.randint(0, 40)
                    near = A.apply(rng.choice(members), k)
                    b, c = rng.sample(candidates, 2)
                    for r in ((rng.randint(-size, size),
                               rng.randint(-size, size)),
                              (near[0] + rng.randint(-3, 3),
                               near[1] + rng.randint(-3, 3)),
                              tied_remainder(A.apply(b, k), A.apply(c, k)),
                              (0, 0)):
                        expected = reference_best_piece(A, members, r, k)
                        assert sol_geometry._best_piece(A, members, r, k) \
                            == expected
                        sups = sorted(
                            max(abs(r[0] - x), abs(r[1] - y))
                            for x, y in (A.apply(v, k) for v in candidates))
                        ties += sups[0] == sups[1]
        assert ties >= 100

    def test_decomposition_traces_match_reference(self, monkeypatch):
        rng = random.Random(2026)
        corpus = []
        for A in REFERENCE_MATRICES:
            for digits in (1, 4, 12, 30, 80):
                u = (rng.randint(-10 ** digits, 10 ** digits),
                     rng.randint(-10 ** digits, 10 ** digits))
                corpus.append((A, image_vector(A, u)))

        def outcomes():
            out = []
            for A, a in corpus:
                try:
                    o = recursive_log_decomposition(A, a)
                except SclLabError as exc:
                    out.append(str(exc))
                else:
                    out.append((o.trace.levels, o.trace.factor_count,
                                o.expression.factors))
            return out

        hoisted = outcomes()
        monkeypatch.setattr(sol_geometry, "_best_piece", reference_best_piece)
        assert outcomes() == hoisted
        assert sum(isinstance(o, tuple) for o in hoisted) >= len(corpus) // 2


#: the float steering's window: a remainder longer than this many bits was
#: steered on its leading bits
_STEER_BITS = 1000


def reference_least_power(coeffs, r, lam: float, half_range: float) -> int:
    """Least k with ``|component of r along coeffs| / lam**k <= half_range``.

    Steers in floats on ``r >> s``, for the shift ``s`` that leaves
    ``_STEER_BITS`` bits, and folds the shift back in while the float has
    room; below ``2**_STEER_BITS`` the shift is 0 and the steps are the
    plain float loop's.
    """
    shift = max(0, sol_geometry._sup(r).bit_length() - _STEER_BITS)
    scaled = abs(coeffs[0] * (r[0] >> shift) + coeffs[1] * (r[1] >> shift))
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


#: every Anosov matrix with entries in [-8, 8]
ANOSOV_8 = tuple(AnosovMatrix(*m) for m in itertools.product(range(-8, 9),
                                                               repeat=4)
                 if m[0] * m[3] - m[1] * m[2] == 1 and abs(m[0] + m[3]) > 2)


class TestSteeringReference:
    """The closed-form power is the one the float steering found."""

    def test_closed_form_matches_float_steering(self):
        rng = random.Random(20261019)
        profiles = [sol_geometry._decomposition_profile(A.flat)
                    for A in ANOSOV_8 if _certifies(A)]
        assert (len(ANOSOV_8), len(profiles)) == (456, 304)
        powers = set()
        for prof in profiles:
            c = prof.constants
            lam = c["eigenvalue"]
            vectors = [(0, 0)]
            for digits in (1, 2, rng.randint(3, 300), rng.randint(301, 2500)):
                n = 10 ** digits
                vectors.append((rng.randint(-n, n), rng.randint(-n, n)))
            for coeffs, h in (
                    (prof.comp_plus, c["half_range_expanding"]),
                    (prof.comp_minus, c["half_range_contracting"])):
                for r in vectors:
                    k = sol_geometry._least_power(coeffs, r, lam, h)
                    assert k == reference_least_power(coeffs, r, lam, h), \
                        (c, coeffs, r)
                    powers.add(k)
        assert 0 in powers and 1 in powers and max(powers) > 2500


def written_out_power(A: AnosovMatrix, k: int) -> tuple:
    """A^k as |k| products of A, or of its adjugate for k < 0."""
    step = A.flat if k >= 0 else (A.d, -A.b, -A.c, A.a)
    p = (1, 0, 0, 1)
    for _ in range(abs(k)):
        p = (p[0] * step[0] + p[1] * step[2], p[0] * step[1] + p[1] * step[3],
             p[2] * step[0] + p[3] * step[2], p[2] * step[1] + p[3] * step[3])
    return p


def written_out_mul(A: AnosovMatrix, x, y) -> tuple:
    """(u, m)(v, n) = (u + A^m v, m + n) on (v0, v1, t) triples."""
    p = written_out_power(A, x[2])
    return (x[0] + p[0] * y[0] + p[1] * y[1],
            x[1] + p[2] * y[0] + p[3] * y[1], x[2] + y[2])


def written_out_inverse(A: AnosovMatrix, x) -> tuple:
    """(u, m)^-1 = (-A^-m u, -m)."""
    p = written_out_power(A, -x[2])
    return (-(p[0] * x[0] + p[1] * x[1]), -(p[2] * x[0] + p[3] * x[1]), -x[2])


def closed_form_commutator(A: AnosovMatrix, x, y) -> tuple:
    """[(u, m), (v, n)] = ((I - A^n) u + (A^m - I) v, 0)."""
    pn, pm = written_out_power(A, y[2]), written_out_power(A, x[2])
    u, v = x[:2], y[:2]
    return (u[0] - pn[0] * u[0] - pn[1] * u[1] + pm[0] * v[0] + pm[1] * v[1]
            - v[0],
            u[1] - pn[2] * u[0] - pn[3] * u[1] + pm[2] * v[0] + pm[3] * v[1]
            - v[1], 0)


class TestTripleKernel:
    """The exact group law on (v0, v1, t) triples, which the SolElement
    functions and certificate verification share, against the law written
    out here, with t in [-6, 6] on both sides."""

    @staticmethod
    def pairs(rng: random.Random):
        for tx, ty in itertools.product(range(-6, 7), repeat=2):
            size = 10 ** rng.choice((1, 2, 30))
            yield ((rng.randint(-size, size), rng.randint(-size, size), tx),
                   (rng.randint(-size, size), rng.randint(-size, size), ty))

    def test_closed_form_is_the_written_out_product(self):
        rng = random.Random(11)
        for A in REFERENCE_MATRICES[:4]:
            for x, y in self.pairs(rng):
                xy = written_out_mul(A, x, y)
                inverses = written_out_mul(A, written_out_inverse(A, x),
                                           written_out_inverse(A, y))
                assert written_out_mul(A, xy, inverses) \
                    == closed_form_commutator(A, x, y)

    def test_kernel_matches_written_out_law(self):
        rng = random.Random(20261019)
        for A in REFERENCE_MATRICES:
            m = A.flat
            for x, y in self.pairs(rng):
                assert sol_geometry._mul(m, x, y) == written_out_mul(A, x, y)
                assert sol_geometry._inv(m, x) == written_out_inverse(A, x)
                assert sol_geometry._comm(m, x, y) \
                    == closed_form_commutator(A, x, y)

    def test_element_functions_match_written_out_law(self):
        rng = random.Random(12)

        def element(triple):
            return SolElement(triple[:2], triple[2])

        for A in REFERENCE_MATRICES:
            for x, y in self.pairs(rng):
                ex, ey = element(x), element(y)
                assert sol_mul(A, ex, ey) == element(written_out_mul(A, x, y))
                assert sol_inverse(A, ex) == element(written_out_inverse(A, x))
                assert sol_commutator(A, ex, ey) \
                    == element(closed_form_commutator(A, x, y))


class TestIntegerSolve:
    def test_agrees_with_rational_witness(self):
        # det(A - I) = 2 - trace takes both signs over the corpus, and each
        # sign meets members and non-members
        rng = random.Random(13)
        seen = set()
        for A in REFERENCE_MATRICES:
            for digits in (1, 2, 6, 40):
                size = 10 ** digits
                u = (rng.randint(-size, size), rng.randint(-size, size))
                member = image_vector(A, u)
                for a in (member, (member[0] + 1, member[1]),
                          (rng.randint(-size, size), rng.randint(-size, size)),
                          (0, 0)):
                    w0, w1 = membership_witness_rational(A, a)
                    got = membership_commutator_subgroup(A, a)
                    integral = w0.denominator == 1 and w1.denominator == 1
                    assert got == ((w0, w1) if integral else None)
                    seen.add((2 - A.trace > 0, integral))
        assert seen == {(True, True), (True, False),
                        (False, True), (False, False)}


class TestVerificationRejectsTampering:
    """A multi-level decomposition whose factors are altered no longer
    multiplies out to its target."""

    @staticmethod
    def expression() -> SolCommutatorExpression:
        a = image_vector(FIB_MATRIX, (fib(60), -fib(45)))
        out = recursive_log_decomposition(FIB_MATRIX, a)
        assert len(out.trace.levels) >= 3
        return out.expression

    @staticmethod
    def rebuilt(expr, i, factor) -> SolCommutatorExpression:
        factors = expr.factors[:i] + (factor,) + expr.factors[i + 1:]
        return SolCommutatorExpression(expr.matrix, factors, expr.target)

    def test_changed_entry_is_refused(self):
        expr = self.expression()
        i = len(expr.factors) // 2
        x, y = expr.factors[i]
        for factor in ((x, SolElement((y.v[0] + 1, y.v[1]), y.t)),
                       (x, SolElement((y.v[0], y.v[1] - 1), y.t)),
                       (SolElement(x.v, x.t + 1), y)):
            with pytest.raises(CertificateError, match="does not equal"):
                self.rebuilt(expr, i, factor)

    def test_swapped_pair_is_refused(self):
        # [y, x] is the inverse of [x, y], which is not the identity
        expr = self.expression()
        for i in (0, len(expr.factors) // 2, len(expr.factors) - 1):
            x, y = expr.factors[i]
            with pytest.raises(CertificateError, match="does not equal"):
                self.rebuilt(expr, i, (y, x))

    def test_reordered_factors_still_verify(self):
        # every commutator lies in the abelian fiber, so exchanging two
        # factors whose commutators differ keeps the product: verification
        # compares the product, not the factor list
        expr = self.expression()
        factors = list(expr.factors)
        assert sol_commutator(FIB_MATRIX, *factors[0]) \
            != sol_commutator(FIB_MATRIX, *factors[-1])
        factors[0], factors[-1] = factors[-1], factors[0]
        SolCommutatorExpression(expr.matrix, tuple(factors), expr.target)
