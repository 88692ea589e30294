import math
import random
from fractions import Fraction

import mpmath
import pytest

from scl_lab import hyperbolic_estimates
from scl_lab.errors import AuditError
from scl_lab.hyperbolic_estimates import (
    AUDIT_COEFFICIENTS,
    HK_COEFFICIENT,
    SURGERY_T0,
    CuspShape,
    GapParams,
    SurfaceData,
    SurgeryCoeffs,
    TubeParams,
    genus_bound_from_meridian,
    hk_min_core_length,
    length_gap_bound,
    nz_core_length,
    nz_quadratic_form,
    optimal_epsilon,
    scl_lower_from_tube,
    scl_upper_from_surgery,
    surgery_bound_audit,
    surgery_length_bound,
    tube_area,
    tube_qm_value,
)
from scl_lab.hyperbolic_estimates import _exp_neg_upper, _surgery_margins

mpmath.mp.dps = 50


def random_cusp(rng):
    """Area-normalized cusp with the longitude mostly transverse to the
    meridian, so slope lengths are well conditioned."""
    r = rng.uniform(0.7, 1.5)
    theta = rng.uniform(0, 2 * math.pi)
    m = complex(r * math.cos(theta), r * math.sin(theta))
    s = rng.uniform(-0.5, 0.5)
    l = s * m + 1j * m / (r * r)
    return CuspShape(m, l)


class TestTypes:
    def test_tube_params_validation(self):
        with pytest.raises(ValueError):
            TubeParams(0, 1)
        with pytest.raises(ValueError):
            TubeParams(1, -2)

    def test_cusp_area_normalization(self):
        CuspShape(0.3, 1j / 0.3)
        with pytest.raises(ValueError):
            CuspShape(0.3, 1j)

    @pytest.mark.parametrize("meridian,longitude", [
        (complex(math.nan, 0), 1j), (1, complex(0, math.nan)),
        (complex(0, math.nan), 1j)])
    def test_cusp_area_nan_rejected(self, meridian, longitude):
        with pytest.raises(ValueError, match="cusp area nan"):
            CuspShape(meridian, longitude)

    def test_surgery_coeffs_validation(self):
        SurgeryCoeffs(10, 1)
        with pytest.raises(ValueError):
            SurgeryCoeffs(0, 0)
        with pytest.raises(ValueError):
            SurgeryCoeffs(4, 2)

    def test_surface_data_validation(self):
        assert SurfaceData(-2, 2).chi_q == Fraction(-1)
        assert SurfaceData(-1, 2).chi_q == Fraction(-1, 2)
        with pytest.raises(ValueError):
            SurfaceData(0)
        with pytest.raises(ValueError):
            SurfaceData(-1, 0)

    def test_gap_params_validation(self):
        GapParams(100, 1, 0.3618)
        GapParams(100, 1, 0.05, margulis_n=0.29)
        with pytest.raises(ValueError):
            GapParams(100, 1, 0.1, margulis_n=0.29)
        with pytest.raises(ValueError):
            GapParams(0, 1, 0.3)

    @pytest.mark.parametrize("margulis", [0.0, -0.29, math.nan, -math.inf])
    def test_gap_params_margulis_must_be_positive(self, margulis):
        with pytest.raises(ValueError, match="Margulis constant must be > 0"):
            GapParams(100, 1, 0.05, margulis_n=margulis)


class TestTubeFormulas:
    def test_hk_against_extended_precision(self):
        oracle = float(mpmath.mpf("0.5404") * mpmath.tanh(2) / mpmath.cosh(4))
        assert abs(hk_min_core_length(2) - oracle) < 1e-12
        assert abs(hk_min_core_length(2) - 0.019077) < 1e-6
        oracle1 = float(mpmath.mpf("0.5404") * mpmath.tanh(1) / mpmath.cosh(2))
        assert abs(hk_min_core_length(1) - oracle1) < 1e-12
        assert abs(hk_min_core_length(1) - 0.10940) < 1e-5

    def test_hk_strictly_decreasing_from_one(self):
        ts = [1 + 9 * i / 999 for i in range(1000)]
        vals = [hk_min_core_length(t) for t in ts]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_hk_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hk_min_core_length(0)

    def test_tube_qm_documented(self):
        v = tube_qm_value(TubeParams(0.1, 2))
        oracle = float(mpmath.mpf("0.1") * mpmath.sinh(2) * 2 / 3)
        assert abs(v.value - oracle) < 1e-12
        assert abs(v.value - 0.241791) < 1e-6
        assert v.defect_upper == 2 * math.pi
        v11 = tube_qm_value(TubeParams(1, 1))
        assert abs(v11.value - float(mpmath.sinh(1) / 2)) < 1e-12

    def test_tube_qm_linear_in_length(self):
        base = tube_qm_value(TubeParams(1, 2)).value
        for lam in (1e-6, 0.01, 0.5, 3):
            assert abs(tube_qm_value(TubeParams(lam, 2)).value - lam * base) < 1e-12

    def test_scl_lower_documented(self):
        oracle = float(mpmath.mpf("0.1") * mpmath.sinh(2) * 2 / 3 / (4 * mpmath.pi))
        assert abs(scl_lower_from_tube(TubeParams(0.1, 2)) - oracle) < 1e-12
        oracle11 = float(mpmath.sinh(1) / 2 / (4 * mpmath.pi))
        assert abs(scl_lower_from_tube(TubeParams(1, 1)) - oracle11) < 1e-12

    def test_tube_area_documented(self):
        oracle = float(2 * mpmath.pi * mpmath.mpf("0.1") * mpmath.sinh(2) * mpmath.cosh(2))
        assert abs(tube_area(TubeParams(0.1, 2)) - oracle) < 1e-12

    def test_tube_area_asymptotics(self):
        # area approaches (pi/2) length e^(2T) for fat tubes
        t = TubeParams(0.37, 10)
        ratio = tube_area(t) / (math.pi / 2 * 0.37 * math.exp(20))
        assert abs(ratio - 1) < 1e-3


class TestSurgery:
    def test_exact_upper_bounds(self):
        assert scl_upper_from_surgery(SurfaceData(-1, 1), 50) == Fraction(1, 100)
        assert scl_upper_from_surgery(SurfaceData(-2, 2), 1) == Fraction(1, 2)

    def test_upper_bound_monotone_in_p(self):
        s = SurfaceData(-3, 2)
        values = [scl_upper_from_surgery(s, p) for p in range(1, 30)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_rejects_p_zero(self):
        with pytest.raises(ValueError):
            scl_upper_from_surgery(SurfaceData(-1, 1), 0)

    def test_length_bound_documented(self):
        v = surgery_length_bound(SurfaceData(-1, 1), SURGERY_T0, 50)
        t = mpmath.mpf(SURGERY_T0)
        oracle = float((mpmath.mpf("3.993") * mpmath.pi * (t + 1)
                        / (t * 50)) ** 2)
        assert abs(v - oracle) < 1e-12
        assert abs(v - 0.141578) < 1e-6
        v2 = surgery_length_bound(SurfaceData(-2, 1), 3, 100)
        oracle2 = float((mpmath.mpf("3.993") * mpmath.pi * 2 * 4 / 300) ** 2)
        assert abs(v2 - oracle2) < 1e-12

    def test_length_bound_p_scaling(self):
        s = SurfaceData(-1, 1)
        assert abs(surgery_length_bound(s, 2.5, 40)
                   - 4 * surgery_length_bound(s, 2.5, 80)) < 1e-12

    @pytest.mark.parametrize("radius", [1.9, math.nan, -math.inf])
    def test_length_bound_requires_fat_tube(self, radius):
        with pytest.raises(ValueError, match="radius must be >= 2"):
            surgery_length_bound(SurfaceData(-1, 1), radius, 10)

    @pytest.mark.parametrize("radius", [2, 2.0008, 2.0009999])
    def test_length_bound_domain_starts_at_t0(self, radius):
        # the audited inequalities fail at T = 2, so [2, T0) is refused
        with pytest.raises(ValueError, match=rf"^radius must be >= 2\.001, "
                                             rf"got {radius}$"):
            surgery_length_bound(SurfaceData(-1, 1), radius, 10)
        assert surgery_length_bound(SurfaceData(-1, 1), SURGERY_T0, 10) > 0


def undivided_margins(t):
    """Left minus right side of each printed inequality at T, 50 digits."""
    c1, c2, c3 = map(mpmath.mpf, AUDIT_COEFFICIENTS)
    length = (mpmath.mpf(HK_COEFFICIENT) * mpmath.tanh(t)
              / mpmath.cosh(2 * t))
    return (c1 * mpmath.exp(2 * t) - 2 * mpmath.cosh(2 * t) / mpmath.tanh(t),
            2 * mpmath.sinh(t) - c2 * mpmath.exp(t),
            mpmath.exp(t) - c3 / mpmath.sqrt(length))


def divided_margins(x):
    """The same inequalities divided through, as functions of e^(-2T)."""
    c1, c2, c3 = map(mpmath.mpf, AUDIT_COEFFICIENTS)
    hk = mpmath.mpf(HK_COEFFICIENT)
    return (c1 - (1 + x * x) * (1 + x) / (1 - x),
            1 - x - c2,
            2 * hk * (1 - x) / ((1 + x) * (1 + x * x)) - c3 * c3)


def mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


NAMES = ("exp-dominates-cosh-over-tanh", "sinh-dominates-exp",
         "exp-dominates-inverse-root-length")


class TestSurgeryProof:
    def test_proves_all_three_at_t0(self):
        report = surgery_bound_audit()
        assert report.t0 == SURGERY_T0 == 2.001
        assert tuple(report.margins) == NAMES
        for margin in report.margins.values():
            assert isinstance(margin, Fraction) and margin > 0

    def test_first_inequality_is_tight_at_t0(self):
        # the first inequality fails just below T0, so its margin is small
        margin = surgery_bound_audit().margins[NAMES[0]]
        assert 0 < margin < Fraction(1, 10 ** 4)

    @pytest.mark.parametrize("grid", [
        [2 + 8 * (i + 1) / 1000 for i in range(1000)],
        [2.001 + 0.009 * i / 900 for i in range(901)]],
        ids=["old-grid", "dense-near-t0"])
    def test_undivided_inequalities_hold_at_50_digits(self, grid):
        for t in grid:
            assert all(m > 0 for m in undivided_margins(mpmath.mpf(t))), t

    def test_bound_on_x_encloses_exp(self):
        t0 = Fraction(SURGERY_T0)
        excess = mp(_exp_neg_upper(2 * t0)) - mpmath.exp(-2 * mp(t0))
        assert 0 <= excess < 1e-15

    def test_margins_sit_just_below_divided_values(self):
        t0 = Fraction(SURGERY_T0)
        exact = divided_margins(mpmath.exp(-2 * mp(t0)))
        for margin, value in zip(_surgery_margins(t0).values(), exact):
            assert mp(margin) < value < mp(margin) + 1e-12

    @pytest.mark.parametrize("t0", [Fraction(2), Fraction(2.0008)],
                             ids=["2", "2.0008"])
    def test_proof_fails_below_threshold(self, t0):
        margins = _surgery_margins(t0)
        assert margins[NAMES[0]] <= 0

    def test_audit_raises_when_threshold_is_two(self, monkeypatch):
        monkeypatch.setattr(hyperbolic_estimates, "SURGERY_T0", 2.0)
        with pytest.raises(AuditError, match="exp-dominates-cosh-over-tanh "
                                             "fails at T0 = 2.0"):
            surgery_bound_audit()


class TestConsistencyChain:
    def test_surgery_upper_never_undercuts_tube_lower(self):
        # with the core at the minimum length for radius T and the largest
        # slope p compatible with the pipeline, the exact surgery bound
        # -chi_q/(2p) stays above the tube lower bound value/(4 pi)
        for i in range(1000):
            t = 2 + 8 * (i + 1) / 1000
            length = hk_min_core_length(t)
            lower = scl_lower_from_tube(TubeParams(length, t))
            p = math.floor(1 / (2 * lower))
            assert p >= 1
            upper = scl_upper_from_surgery(SurfaceData(-1, 1), p)
            assert float(upper) >= lower


class TestCuspForm:
    def test_documented_value(self):
        c = CuspShape(0.3, 1j / 0.3)
        q = nz_quadratic_form(c, SurgeryCoeffs(10, 1))
        assert abs(q - abs(3 + 1j / 0.3) ** 2) < 1e-12
        assert abs(q - 20.1111) < 1e-3

    def test_basis_slopes(self):
        c = CuspShape(0.3, 1j / 0.3)
        assert abs(nz_quadratic_form(c, SurgeryCoeffs(0, 1)) - abs(c.longitude) ** 2) < 1e-12
        assert abs(nz_quadratic_form(c, SurgeryCoeffs(1, 0)) - 0.09) < 1e-12

    def test_homogeneity(self):
        # scaling a slope scales the form by k^2; primitive slopes only, so
        # compare against the scaled complex length directly
        c = CuspShape(0.5, 2 + 2j)  # area Im(conj(0.5) * (2+2j)) = 1
        base = nz_quadratic_form(c, SurgeryCoeffs(3, 1))
        for k in (2, 3, 5):
            scaled = abs(k * 3 * c.meridian + k * 1 * c.longitude) ** 2
            assert abs(scaled - k * k * base) < 1e-9

    def test_core_length_documented(self):
        c = CuspShape(0.3, 1j / 0.3)
        v = nz_core_length(c, SurgeryCoeffs(10, 1))
        oracle = float(2 * mpmath.pi / (9 + mpmath.mpf(1) / mpmath.mpf("0.09")))
        assert abs(v - oracle) < 1e-12

    def test_unit_meridian_unfilled(self):
        c = CuspShape(1, 0.4 + 1j)
        assert abs(nz_core_length(c, SurgeryCoeffs(1, 0)) - 2 * math.pi) < 1e-12

    def test_limit_over_random_cusps(self):
        rng = random.Random(0)
        for _ in range(10):
            c = random_cusp(rng)
            truth = 2 * math.pi / abs(c.meridian) ** 2
            approx = 1000 ** 2 * nz_core_length(c, SurgeryCoeffs(1000, 1))
            assert abs(approx - truth) / truth < 0.01


class TestGenusBound:
    def test_documented_values(self):
        assert abs(genus_bound_from_meridian(0.3) - 1 / (2 * math.pi * 0.09)) < 1e-12
        assert abs(genus_bound_from_meridian(0.3, "boroczky") - 1 / 0.54) < 1e-12

    def test_boroczky_always_stronger(self):
        for length in (0.05, 0.3, 1.0, 4.0):
            assert genus_bound_from_meridian(length, "boroczky") > \
                genus_bound_from_meridian(length, "basic")

    def test_jorgensen_guard(self):
        # short meridians force large maximal-cusp area proxies
        for length in (0.1, 0.5, 0.99):
            assert 1 / length ** 2 > 1

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            genus_bound_from_meridian(0.3, "sharpest")


class TestGapCalculators:
    def test_documented_value(self):
        v = length_gap_bound(GapParams(100, 1, 0.3618), "universal")
        num = 4 * 0.3618 + math.pi / (6 * 0.3618)
        assert abs(v - num / (100 / 6 - 2)) < 1e-12
        assert abs(v - 0.197346) < 1e-4

    def test_closed_variant_weaker_denominator(self):
        gp = GapParams(100, 1, 0.3618)
        assert length_gap_bound(gp, "closed") < length_gap_bound(gp, "universal")

    def test_vacuous_parameters_rejected(self):
        with pytest.raises(ValueError):
            length_gap_bound(GapParams(12, 1, 0.3), "universal")

    def test_monotone_in_m(self):
        vals = [length_gap_bound(GapParams(m, 1, 0.3618), "universal")
                for m in range(13, 200)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_optimal_epsilon_closed_form(self):
        eps, const = optimal_epsilon(1)
        assert abs(eps - math.sqrt(math.pi / 24)) < 1e-12
        assert abs(const - 2 * math.sqrt(2 * math.pi / 3)) < 1e-12
        assert abs(eps - 0.361801) < 1e-5
        assert abs(const - 2.894405) < 1e-5

    def test_optimal_epsilon_capped(self):
        eps, const = optimal_epsilon(0.1)
        assert eps == 0.1
        assert abs(const - (0.4 + math.pi / 0.6)) < 1e-12

    def test_min_constant_non_increasing_in_cap(self):
        caps = [0.05 * k for k in range(1, 20)]
        consts = [optimal_epsilon(c).min_constant for c in caps]
        assert all(b <= a + 1e-15 for a, b in zip(consts, consts[1:]))


class TestDeterminism:
    def test_bit_identical_reevaluation(self):
        a = tube_qm_value(TubeParams(0.1, 2)).value
        b = tube_qm_value(TubeParams(0.1, 2)).value
        assert a == b
        assert surgery_bound_audit() == surgery_bound_audit()
