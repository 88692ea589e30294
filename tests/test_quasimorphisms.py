import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scl_lab.errors import AuditError
from scl_lab.free_words import (
    RankMismatchError,
    ReducedWord,
    WordError,
    count_disjoint_copies_cyclic,
    cyclically_reduce,
    enumerate_reduced_words,
    parse_word,
    power,
)
from scl_lab.quasimorphisms import (
    BROOKS_DEFECT,
    HOMOGENEOUS_BROOKS_DEFECT,
    CircleLift,
    QuasimorphismHandle,
    brooks,
    brooks_homogeneous,
    brooks_homogeneous_exact,
    compose,
    defect_observed,
    invert_lift,
    lift_from_matrix,
    rotation_number,
)


def w(text, rank=2):
    return parse_word(text, rank)


def words(min_size, max_size):
    return st.builds(lambda letters: ReducedWord(2, letters), st.lists(
        st.sampled_from([1, -1, 2, -2]), min_size=min_size,
        max_size=max_size)).filter(lambda u: len(u) >= min_size)


def random_reduced(rng, rank, length):
    choices = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    letters = []
    last = 0
    for _ in range(length):
        c = rng.choice([x for x in choices if x != -last])
        letters.append(c)
        last = c
    return ReducedWord(rank, letters)


class TestBrooks:
    def test_documented_values(self):
        phi = brooks(w("ab"))
        assert phi(w("abab")) == 2
        assert phi(w("BABA")) == -2
        assert phi(w("abAB")) == 1
        assert phi(w("")) == 0

    def test_antisymmetry(self):
        rng = random.Random(3)
        phi = brooks(w("ab"))
        for _ in range(100):
            a = random_reduced(rng, 2, rng.randrange(0, 10))
            assert phi(~a) == -phi(a)

    def test_rejects_short_patterns(self):
        with pytest.raises(WordError):
            brooks(w("a"))
        with pytest.raises(WordError):
            brooks_homogeneous(w("a"))

    def test_defect_certificate_value(self):
        assert brooks(w("ab")).defect_certificate == BROOKS_DEFECT == 3
        assert brooks_homogeneous(w("ab")).defect_certificate == HOMOGENEOUS_BROOKS_DEFECT == 6


class TestHomogeneous:
    def test_documented_values(self):
        assert brooks_homogeneous_exact(w("ab"), w("abAB")) == 1
        assert brooks_homogeneous_exact(w("ab"), w("ab")) == 1
        assert brooks_homogeneous_exact(w("aa", rank=1), parse_word("aaa", 1)) == Fraction(3, 2)
        assert brooks_homogeneous_exact(w("ab"), w("")) == 0

    def test_homogeneity(self):
        rng = random.Random(5)
        pat = w("ab")
        for _ in range(50):
            a = random_reduced(rng, 2, rng.randrange(1, 7))
            base = brooks_homogeneous_exact(pat, a)
            for n in (2, 3):
                assert brooks_homogeneous_exact(pat, power(a, n)) == n * base

    def test_conjugation_invariance(self):
        rng = random.Random(7)
        pat = w("abA")
        for _ in range(60):
            a = random_reduced(rng, 2, rng.randrange(0, 8))
            c = random_reduced(rng, 2, rng.randrange(0, 5))
            assert brooks_homogeneous_exact(pat, c * a * ~c) == \
                brooks_homogeneous_exact(pat, a)

    @settings(max_examples=150, deadline=None)
    @given(words(2, 4), words(0, 12), words(0, 8))
    def test_conjugation_invariance_property(self, pat, a, c):
        assert brooks_homogeneous_exact(pat, c * a * ~c) == \
            brooks_homogeneous_exact(pat, a)

    def test_homogenization_error_bound(self):
        # |f(a^n)/n - fbar(a)| <= defect / n for the plain counting handle
        rng = random.Random(9)
        pat = w("ab")
        phi = brooks(pat)
        for _ in range(40):
            a = random_reduced(rng, 2, rng.randrange(1, 7))
            exact = brooks_homogeneous_exact(pat, a)
            for n in (5, 17):
                assert abs(Fraction(phi(power(a, n)), n) - exact) \
                    <= Fraction(BROOKS_DEFECT, n)


def two_table_value(pattern, a):
    """The homogeneous value as two cyclic counts, each tabling the core."""
    core = cyclically_reduce(a)[0]
    if len(core) == 0:
        return Fraction(0)
    return (count_disjoint_copies_cyclic(pattern, core)
            - count_disjoint_copies_cyclic(~pattern, core))


class TestOneStartTable:
    """``brooks_homogeneous_exact`` tables the core once for a pattern and
    its inverse, and equals the two separate cyclic counts."""

    def test_matches_two_cyclic_counts(self):
        rng = random.Random(20261019)
        nonzero = absent = longer = 0
        for rank in (1, 2, 3):
            for _ in range(40):
                a = random_reduced(rng, rank, rng.randrange(0, 201))
                core = cyclically_reduce(a)[0]
                patterns = [random_reduced(rng, rank, k) for k in range(2, 7)]
                if len(core):
                    periodic = core.codes * (3 + 4 // len(core))
                    i = rng.randrange(len(core))
                    for k in (2, len(core), len(core) + 1,
                              len(core) + 3):
                        patterns.append(ReducedWord(rank, periodic[i:i + k]))
                for pattern in patterns + [~p for p in patterns]:
                    if len(pattern) < 2:
                        continue
                    value = brooks_homogeneous_exact(pattern, a)
                    assert value == two_table_value(pattern, a)
                    assert brooks_homogeneous_exact(pattern, core) == value
                    nonzero += value != 0
                    longer += len(pattern) > len(core) > 0
                    absent += len(core) > 0 and value == 0 and \
                        count_disjoint_copies_cyclic(pattern, core) == 0
        assert nonzero >= 300 and absent >= 100 and longer >= 200

    def test_same_errors_as_two_cyclic_counts(self):
        short, core3 = w("a"), cyclically_reduce(parse_word("abcab", 3))[0]
        for value in (lambda p, a: brooks_homogeneous_exact(p, a),
                      two_table_value):
            with pytest.raises(WordError):
                value(short, w("ab"))
            with pytest.raises(RankMismatchError):
                value(w("ab"), parse_word("abcab", 3))
            with pytest.raises(RankMismatchError):
                value(w("ab"), core3)
            # an empty core has value 0 at any rank, as before
            assert value(w("ab"), parse_word("cC", 3)) == 0


class TestDefectScan:
    def test_exhaustive_within_certificate(self):
        scan = defect_observed(brooks(w("ab")), 3)
        assert scan.mode == "exhaustive"
        assert scan.pairs_checked == 53 * 53
        assert 0 < scan.observed <= BROOKS_DEFECT

    def test_sampled_mode_is_deterministic(self):
        # rank 2 has 2 * 3^L - 1 words up to length L; at L = 7 that is
        # 4,373 words and 19.1M pairs, above the exhaustive limit
        phi = brooks(w("ab"))
        s1 = defect_observed(phi, 7, samples=500, seed=42)
        s2 = defect_observed(phi, 7, samples=500, seed=42)
        assert s1 == s2
        assert s1.mode == "sampled"
        assert s1.observed <= BROOKS_DEFECT

    @pytest.mark.parametrize("rank,pattern,homogeneous,max_len",
                             [(2, "ab", False, 7), (2, "abAB", False, 8),
                              (2, "abA", True, 7), (1, "aa", False, 1600),
                              (3, "acB", False, 5), (3, "cbC", True, 5)])
    def test_sampled_draws_match_the_listed_words(self, rank, pattern,
                                                  homogeneous, max_len):
        # the scan builds only the drawn words; drawing positions from a
        # list of every word must give the same scan (rank 1 passes the
        # exhaustive pair limit only near 1,600 letters)
        phi = (brooks_homogeneous if homogeneous else brooks)(w(pattern, rank))
        words = list(enumerate_reduced_words(rank, max_len))
        rng = random.Random(11)
        best = 0
        for _ in range(300):
            a = words[rng.randrange(len(words))]
            b = words[rng.randrange(len(words))]
            best = max(best, abs(phi(a * b) - phi(a) - phi(b)))
        scan = defect_observed(phi, max_len, samples=300, seed=11)
        assert scan == (best, "sampled", 300)

    def test_bad_certificate_trips(self):
        bogus = QuasimorphismHandle(
            "bogus", 2, brooks(w("ab")).evaluate, defect_certificate=0)
        with pytest.raises(AuditError):
            defect_observed(bogus, 2)


def shear_product(rng, steps=4):
    """Random SL(2, R) matrix as a product of unit shears (det exactly 1)."""
    m = [[1.0, 0.0], [0.0, 1.0]]
    for _ in range(steps):
        s = rng.uniform(-1.5, 1.5)
        if rng.random() < 0.5:
            e = [[1.0, s], [0.0, 1.0]]
        else:
            e = [[1.0, 0.0], [s, 1.0]]
        m = [[m[0][0] * e[0][0] + m[0][1] * e[1][0],
              m[0][0] * e[0][1] + m[0][1] * e[1][1]],
             [m[1][0] * e[0][0] + m[1][1] * e[1][0],
              m[1][0] * e[0][1] + m[1][1] * e[1][1]]]
    return m


def rotation_matrix(turns):
    th = math.pi * turns
    return [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]


def stretched_rotation(rng, lam):
    """Seeded R(t1) diag(lam, 1/lam) R(t2) with float entries of
    determinant exactly 1.

    The first column is rounded to 26 bits, and the second moves by about
    2^-25 of its size to a point with 52-bit entries on the line
    ``a d - b c = 1``, so each entry moves in about its 8th significant
    digit.
    """
    t1, t2 = rng.uniform(0, math.pi), rng.uniform(0, math.pi)
    c1, s1, c2, s2 = math.cos(t1), math.sin(t1), math.cos(t2), math.sin(t2)
    a0 = lam * c1 * c2 - s1 * s2 / lam
    b0 = -lam * c1 * s2 - s1 * c2 / lam
    c0 = lam * s1 * c2 + c1 * s2 / lam
    d0 = -lam * s1 * s2 + c1 * c2 / lam
    s = 26 - math.frexp(max(abs(a0), abs(c0)))[1]
    t = 51 - math.frexp(max(abs(b0), abs(d0)))[1]
    A, C = round(a0 * 2.0 ** s), round(c0 * 2.0 ** s)
    while math.gcd(A, C) != 1:
        C += 1
    # A D - C B = 2^(s + t), nearest the target (b0, d0) * 2^t
    x = pow(A, -1, abs(C))
    D, B = x << (s + t), ((A * x - 1) // C) << (s + t)
    m = round(((Fraction(b0) * 2 ** t - B) * A + (Fraction(d0) * 2 ** t - D) * C)
              / (A * A + C * C))
    B, D = B + m * A, D + m * C
    u, v = Fraction(2) ** -s, Fraction(2) ** -t
    exact = (A * u, B * v, C * u, D * v)
    entries = [float(e) for e in exact]
    assert tuple(map(Fraction, entries)) == exact
    assert exact[0] * exact[3] - exact[1] * exact[2] == 1
    return entries


def mpmath_lift(matrix, x):
    """The branch-0 lift at ``x`` straight from its definition, at the
    working precision: the image direction of ``pi t`` relative to that of
    0, reduced into [0, 1)."""
    a, b, c, d = map(mpmath.mpf, matrix)
    x = mpmath.mpf(x)
    phi0 = mpmath.atan2(c, a) / mpmath.pi
    k = mpmath.floor(x)
    t = x - k
    value = phi0 - mpmath.floor(phi0) + k
    if t:
        ct, st = mpmath.cospi(t), mpmath.sinpi(t)
        inc = mpmath.atan2(c * ct + d * st, a * ct + b * st) / mpmath.pi - phi0
        value += inc - mpmath.floor(inc)
    return value


class TestCircleLift:
    def test_identity_lift(self):
        f = lift_from_matrix([[1, 0], [0, 1]])
        assert f.base_value == 0.0
        for x in (-1.5, -0.25, 0.0, 0.3, 1.0, 2.75):
            assert abs(f.evaluate(x) - x) < 1e-9

    def test_degree_one_rule(self):
        rng = random.Random(13)
        for _ in range(20):
            f = lift_from_matrix(shear_product(rng))
            x = rng.uniform(-2, 2)
            assert abs(f.evaluate(x + 1) - f.evaluate(x) - 1) < 1e-12

    def test_monotone(self):
        rng = random.Random(15)
        for _ in range(10):
            f = lift_from_matrix(shear_product(rng))
            values = [f.evaluate(i / 40) for i in range(41)]
            assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("matrix", [[[2, 0], [0, 1]],
                                        [math.nan, 0, 0, 1],
                                        [1, 0, math.nan, 1],
                                        [math.inf, 0, 0, 1],
                                        [1e8, 100000001.0, 99999998.0, 1e8],
                                        [1.0, 0.0, 3e-9, 1.0 + 2e-9]])
    def test_rejects_wrong_determinant(self, matrix):
        with pytest.raises(ValueError, match="determinant"):
            lift_from_matrix(matrix)

    def test_branch_shift(self):
        f0 = lift_from_matrix(rotation_matrix(1 / 3), branch=0)
        f1 = lift_from_matrix(rotation_matrix(1 / 3), branch=1)
        assert abs(f1.evaluate(0.2) - f0.evaluate(0.2) - 1) < 1e-12

    def test_rigid_rotation_value(self):
        f = lift_from_matrix(rotation_matrix(1 / 3))
        assert abs(f.base_value - 1 / 3) < 1e-12
        assert abs(f.evaluate(0.5) - (0.5 + 1 / 3)) < 1e-9

    def test_compose_matches_pointwise(self):
        rng = random.Random(17)
        for _ in range(15):
            f = lift_from_matrix(shear_product(rng))
            g = lift_from_matrix(shear_product(rng))
            h = compose(f, g)
            for x in (-1.2, 0.0, 0.4, 1.7):
                assert abs(h.evaluate(x) - f.evaluate(g.evaluate(x))) < 1e-6

    def test_inverse_round_trip(self):
        rng = random.Random(19)
        for _ in range(15):
            f = lift_from_matrix(shear_product(rng))
            g = invert_lift(f)
            for x in (-1.3, -0.1, 0.0, 0.6, 2.2):
                assert abs(g.evaluate(f.evaluate(x)) - x) < 1e-6
                assert abs(f.evaluate(g.evaluate(x)) - x) < 1e-6


STRETCHES = [1, 3, 1e3, 1e6, 1e7, 1e8]


class TestCircleLiftOracle:
    """The lift and its rotation number against ``mpmath_lift`` at 80
    digits on stretched rotations, up to singular values 1e8 and 1e-8."""

    @pytest.mark.parametrize("lam", STRETCHES)
    def test_evaluate_matches_mpmath(self, lam):
        rng = random.Random(int(lam))
        with mpmath.workdps(80):
            for _ in range(6):
                matrix = stretched_rotation(rng, lam)
                f = lift_from_matrix(matrix)
                for _ in range(8):
                    x = rng.uniform(-2, 2)
                    assert abs(f.evaluate(x) - mpmath_lift(matrix, x)) < 1e-12

    @pytest.mark.parametrize("lam", STRETCHES)
    def test_rotation_number_within_bound_of_mpmath(self, lam):
        rng = random.Random(1000 + int(lam))
        with mpmath.workdps(80):
            for _ in range(6):
                matrix = stretched_rotation(rng, lam)
                est = rotation_number(lift_from_matrix(matrix), 300)
                x = mpmath.mpf(0)
                for _ in range(300):
                    x = mpmath_lift(matrix, x)
                assert abs(est.value - x / 300) <= est.error_bound

    def test_exact_determinant_is_accepted(self):
        # a*d - b*c rounds to 0 in floats; the exact determinant is 1
        matrix = [1e8, 100000001.0, 99999999.0, 1e8]
        est = rotation_number(lift_from_matrix(matrix), 300)
        with mpmath.workdps(80):
            x = mpmath.mpf(0)
            for _ in range(300):
                x = mpmath_lift(matrix, x)
            assert abs(est.value - x / 300) < 1e-15


class TestRotationNumber:
    def test_rigid_third(self):
        f = lift_from_matrix(rotation_matrix(1 / 3))
        est = rotation_number(f, 300)
        assert est.error_bound == 1 / 300
        assert abs(est.value - 1 / 3) < 1e-9

    def test_hyperbolic_is_exactly_zero(self):
        f = lift_from_matrix([[2, 0], [0, 0.5]])
        est = rotation_number(f, 10)
        assert est.value == 0.0

    def test_conjugacy_changes_estimate_by_at_most_two_over_n(self):
        rng = random.Random(21)
        f = lift_from_matrix(rotation_matrix(0.29))
        for _ in range(10):
            g = lift_from_matrix(shear_product(rng))
            conj = compose(compose(g, f), invert_lift(g))
            n = 64
            a = rotation_number(f, n).value
            b = rotation_number(conj, n).value
            assert abs(a - b) <= 2 / n + 1e-9

    def test_estimate_brackets_true_value(self):
        # rigid rotation by an irrational-ish angle: truth is the angle itself
        angle = 0.2137
        f = lift_from_matrix(rotation_matrix(angle))
        for n in (7, 50, 211):
            est = rotation_number(f, n)
            assert abs(est.value - angle) <= est.error_bound + 1e-9

    def test_requires_positive_iterations(self):
        with pytest.raises(ValueError):
            rotation_number(lift_from_matrix([[1, 0], [0, 1]]), 0)
