import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from majmeter import (
    DiscreteMeasure,
    Partition,
    QuadratureConfig,
    ThomaParam,
    berry_esseen_bound,
    bochner_check,
    edgeworth_cdf,
    lambda_derivs,
    lambda_omega,
    lambda_prime_limit,
    ld_estimate,
    legendre_star,
    maj_polynomial_sn,
    measure_of,
    mock_fourier,
    mock_fourier_limit,
    phi,
    phi_derivs,
    psi_integrand,
    psi_omega,
    sn_log_laplace,
    thoma_embed,
    varphi,
)
from majmeter.asymptotics import standard_normal_cdf
from majmeter.errors import (
    DegenerateParameter,
    DomainError,
    OutOfRange,
    ZeroAtomUnsupported,
)

from conftest import partition_strategy

DELTA_ZERO = measure_of(ThomaParam((), ()))
DELTA_ONE = measure_of(ThomaParam((1,), ()))
HALF_HALF = measure_of(ThomaParam((Fraction(1, 2), Fraction(1, 2)), ()))

complex_in_half_domain = st.builds(
    complex,
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
).filter(lambda z: not (z.real == 0 and abs(z.imag) >= math.pi))


class TestKernel:
    def test_zero(self):
        assert phi(0) == 0
        assert varphi(0) == 0

    def test_imaginary_axis_real_value(self):
        assert abs(phi(3j) - math.log(math.sin(1.5) / 1.5)) < 1e-15
        assert phi(3j).imag == 0

    def test_real_part_identity(self):
        for h, xi in ((1.1, 2.3), (0.4, 5.0), (3.0, 0.9)):
            lhs = phi(complex(h, xi)).real
            rhs = 0.5 * math.log(2 * math.cosh(h) - 2 * math.cos(xi)) - 0.5 * math.log(
                h * h + xi * xi
            )
            assert abs(lhs - rhs) < 1e-13

    @given(complex_in_half_domain)
    def test_even(self, z):
        assume(abs(z) > 1e-8)
        assert abs(phi(z) - phi(-z)) < 1e-12 * max(1.0, abs(phi(z)))

    def test_varphi_odd_shift(self):
        for z in (0.9 + 0.2j, -1.4, 2.7j):
            assert abs(varphi(z) - varphi(-z) - z) < 1e-13

    def test_varphi_second_taylor_coefficient(self):
        eps = 1e-2
        sym = (varphi(eps) + varphi(-eps)).real / eps**2
        assert abs(sym - Fraction(1, 12)) < 1e-4  # = B_2/2 with the z^2/2! convention

    def test_series_matches_closed_form(self):
        # evaluate the Re z > 0 formula below the series threshold by hand;
        # the closed form loses ~3 digits to cancellation there, the series
        # does not, so compare at the closed form's accuracy
        for z in (9e-4 + 2e-4j, 5e-4):
            z = complex(z)
            direct = 0.5 * z + cmath.log(1 - cmath.exp(-z)) - cmath.log(z)
            assert abs(phi(z) - direct) < 1e-12

    def test_cut_raises(self):
        for z in (2j * math.pi, 7j, -6.3j):
            with pytest.raises(DomainError):
                phi(z)
        # just inside the domain
        phi(6.28j)

    def test_large_real_argument(self):
        z = 500.0
        assert abs(phi(z) - (z / 2 - math.log(z))) < 1e-12


class TestKernelDerivatives:
    def test_at_zero(self):
        d1, d2, d3 = phi_derivs(0)
        assert d1 == 0 and d3 == 0
        assert abs(d2 - Fraction(1, 12)) < 1e-16

    def test_parity(self):
        for z in (1.3, 0.7 + 0.4j, 2.1j * 0.5):
            d1, d2, d3 = phi_derivs(z)
            e1, e2, e3 = phi_derivs(-z)
            assert abs(d1 + e1) < 1e-13
            assert abs(d2 - e2) < 1e-13
            assert abs(d3 + e3) < 1e-13

    @pytest.mark.parametrize("z", [1.0, 2.5, 0.3 + 0.2j, -1.2 + 0.8j])
    def test_finite_differences(self, z):
        eps = 1e-5
        d1, d2, d3 = phi_derivs(z)
        fd1 = (phi(z + eps) - phi(z - eps)) / (2 * eps)
        fd2 = (phi_derivs(z + eps)[0] - phi_derivs(z - eps)[0]) / (2 * eps)
        fd3 = (phi_derivs(z + eps)[1] - phi_derivs(z - eps)[1]) / (2 * eps)
        assert abs(d1 - fd1) < 1e-6
        assert abs(d2 - fd2) < 1e-6
        assert abs(d3 - fd3) < 1e-6

    def test_series_closed_form_seam(self):
        # either side of the |z| = 0.25 switch agree
        lo = phi_derivs(0.2499)
        hi = phi_derivs(0.2501)
        for a, b in zip(lo, hi):
            assert abs(a - b) < 1e-3 * max(1.0, abs(a)) or abs(a - b) < 2e-4


class TestLambda:
    def test_degenerate_parameter_is_zero(self):
        for z in (0.5, 1.5, 2j, 1 + 1j):
            assert abs(lambda_omega(DELTA_ONE, z)) < 1e-15

    def test_zero_argument(self):
        assert lambda_omega(DELTA_ZERO, 0) == 0

    def test_delta_zero_against_trapezoid(self):
        # independent oracle: fine trapezoidal integration of the kernel
        for xi in (1.0, 3.0, 6.0):
            t = np.linspace(1e-9, 1.0, 800_001)
            reference = np.trapezoid(np.log(np.sin(t * xi / 2) / (t * xi / 2)), t)
            assert abs(lambda_omega(DELTA_ZERO, 1j * xi).real - reference) < 1e-9

    def test_even_on_real_line(self):
        for h in (0.3, 1.0, 2.7):
            a = lambda_omega(HALF_HALF, h).real
            b = lambda_omega(HALF_HALF, -h).real
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_doubling_self_consistency(self):
        coarse = QuadratureConfig(nodes=64)
        fine = QuadratureConfig(nodes=128)
        for z in (1.0, 2.5, 1j * 2.0, 0.5 + 0.5j):
            a = lambda_omega(HALF_HALF, z, coarse)
            b = lambda_omega(HALF_HALF, z, fine)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_strict_convexity_grid(self):
        grid = [(-5 + 0.5 * k) for k in range(21)]
        values = [lambda_omega(HALF_HALF, h).real for h in grid]
        second = [values[i - 1] - 2 * values[i] + values[i + 1] for i in range(1, 20)]
        assert all(s > 0 for s in second)


class TestLogLaplaceControl:
    def test_centred_gap_stays_bounded(self):
        # the exact log-Laplace transform minus n times the leading integral
        # stays O(1) along a growing family, at fixed z
        from majmeter import log_laplace_exact, mean_maj
        from majmeter.families import two_row

        for z in (1.0, 0.8 + 0.5j):
            for n in (25, 50, 100, 150, 200):
                lam = two_row(n)
                mu_n = measure_of(thoma_embed(lam))
                gap = abs(
                    log_laplace_exact(lam, z)
                    - z * float(mean_maj(lam)) / n
                    - n * lambda_omega(mu_n, z)
                )
                assert gap < 1.0, (z, n, gap)

    def test_variance_scaling_matches_second_derivative(self):
        # var(maj)/n^3 approaches the curvature at 0 of the leading integral
        from majmeter import var_maj
        from majmeter.families import two_row

        lam = two_row(100)
        mu_n = measure_of(thoma_embed(lam))
        scaled = float(var_maj(lam)) / 100**3
        assert abs(scaled - lambda_derivs(mu_n, 0.0)[1]) < 1e-3


class TestQuadratureConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(nodes=4)
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_doublings=0)  # convergence compares two passes


class TestLambdaDerivatives:
    def test_at_zero(self):
        for mu, p3 in ((DELTA_ZERO, 0.0), (HALF_HALF, 0.25)):
            d1, d2, _ = lambda_derivs(mu, 0.0)
            assert abs(d1) < 1e-15
            assert abs(d2 - (1 - p3) / 36) < 1e-13

    def test_finite_differences(self):
        eps = 1e-5
        for mu in (DELTA_ZERO, HALF_HALF):
            for h in (0.5, 1.5):
                d1, d2, d3 = lambda_derivs(mu, h)
                fd1 = (
                    lambda_omega(mu, h + eps).real - lambda_omega(mu, h - eps).real
                ) / (2 * eps)
                fd2 = (
                    lambda_derivs(mu, h + eps)[0] - lambda_derivs(mu, h - eps)[0]
                ) / (2 * eps)
                fd3 = (
                    lambda_derivs(mu, h + eps)[1] - lambda_derivs(mu, h - eps)[1]
                ) / (2 * eps)
                assert abs(d1 - fd1) < 1e-6
                assert abs(d2 - fd2) < 1e-6
                assert abs(d3 - fd3) < 1e-6

    def test_oddness(self):
        for h in (0.4, 2.0):
            assert abs(lambda_derivs(HALF_HALF, h)[0] + lambda_derivs(HALF_HALF, -h)[0]) < 1e-13

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateParameter):
            lambda_derivs(DELTA_ONE, 1.0)
        with pytest.raises(DegenerateParameter):
            lambda_derivs(DiscreteMeasure([(1, 0.5), (-1, 0.5)]), 1.0)


class TestLambdaPrimeLimit:
    def test_values(self):
        assert lambda_prime_limit(DELTA_ZERO) == 0.25
        assert lambda_prime_limit(DELTA_ONE) == 0.0
        assert abs(lambda_prime_limit(HALF_HALF) - 0.125) < 1e-15

    def test_slope_approaches_limit(self):
        # gap at height h decays like 1/h, so 1e-3 needs h ~ 2000
        big = QuadratureConfig(nodes=256, max_doublings=8)
        slope = lambda_derivs(DELTA_ZERO, 2000.0, big)[0]
        assert abs(slope - 0.25) < 1e-3


class TestPsi:
    def test_origin_case(self):
        for z in (1.0, 0.7 + 0.4j):
            assert abs(psi_integrand(0, 0, z) + z * z / 12) < 1e-15

    def test_axis_branch_formula(self):
        z, y = 1.3, 0.8
        u = 0.5 * z * y
        expected = (1 - u / math.tanh(u)) / (y * y)
        assert abs(psi_integrand(0, y, z) - expected) < 1e-13
        assert abs(psi_integrand(y, 0, z) - expected) < 1e-13

    def test_continuity_across_branch(self):
        for y in (0.3, -0.8, 1.0):
            for z in (1.0, 0.5 + 0.5j):
                gap = abs(psi_integrand(1e-8, y, z) - psi_integrand(0, y, z))
                assert gap < 1e-6

    def test_general_branch_limit(self):
        # approach x -> 0 through the general branch (|xy| just above 1e-6)
        z, y = 0.9, 0.9
        general = psi_integrand(2e-6, y, z)
        limit = psi_integrand(0, y, z)
        assert abs(general - limit) < 1e-5

    def test_delta_zero_closed_form(self):
        for z in (1.0, 0.5 + 0.5j, -1.2 + 0.1j, 2.0):
            expected = 0.5 * (phi(z) - z * z / 12)
            assert abs(psi_omega(DELTA_ZERO, z) - expected) < 1e-12

    def test_zero(self):
        assert psi_omega(HALF_HALF, 0) == 0

    def test_even_for_symmetric_measure(self):
        mu = measure_of(ThomaParam((0.3,), (0.3,)))
        for z in (0.8, 1.7, 0.4 + 0.3j):
            assert abs(psi_omega(mu, z) - psi_omega(mu, -z)) < 1e-12


class TestLegendre:
    def test_root_contract(self):
        for y in (0.01, 0.05, 0.11):
            h, rate = legendre_star(HALF_HALF, y)
            assert h > 0
            assert rate > 0
            assert abs(lambda_derivs(HALF_HALF, h)[0] - y) <= 1e-12

    def test_negative_target(self):
        h, rate = legendre_star(HALF_HALF, -0.05)
        hp, ratep = legendre_star(HALF_HALF, 0.05)
        assert h == -hp
        assert abs(rate - ratep) < 1e-12

    def test_grid_supremum_oracle(self):
        y = 0.05
        h_star, rate = legendre_star(DELTA_ZERO, y)
        grid = np.linspace(h_star - 0.01, h_star + 0.01, 201)
        best = max(h * y - lambda_omega(DELTA_ZERO, h).real for h in grid)
        assert rate >= best - 1e-12
        assert abs(rate - best) < 1e-8

    def test_small_target(self):
        h, rate = legendre_star(DELTA_ZERO, 1e-6)
        assert 0 < h < 1e-3
        assert 0 < rate < 1e-8

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            legendre_star(HALF_HALF, 0.2)  # limit is 1/8
        with pytest.raises(OutOfRange):
            legendre_star(HALF_HALF, 0.0)
        with pytest.raises(DegenerateParameter):
            legendre_star(DELTA_ONE, 0.01)


class TestLDEstimate:
    def test_fields_and_signs(self):
        report = ld_estimate(HALF_HALF, HALF_HALF, 0.02, 40)
        assert report.side == "upper"
        assert report.h > 0 and report.rate > 0
        assert report.lambda2_at_h > 0
        assert 0 < report.estimate < 1

    def test_lower_side(self):
        report = ld_estimate(HALF_HALF, HALF_HALF, 0.02, 40, side="lower")
        assert report.h < 0
        assert report.estimate > 0

    def test_decreasing_in_n(self):
        estimates = [
            ld_estimate(HALF_HALF, HALF_HALF, 0.05, n).estimate for n in (20, 40, 80, 160)
        ]
        assert all(a > b for a, b in zip(estimates, estimates[1:]))

    def test_prefactor_source_flag(self):
        mu_n = measure_of(thoma_embed(Partition((10, 10))))
        a = ld_estimate(mu_n, HALF_HALF, 0.02, 20, use_limit_prefactor=True)
        b = ld_estimate(mu_n, HALF_HALF, 0.02, 20, use_limit_prefactor=False)
        assert a.rate == b.rate
        assert a.h != b.h

    def test_serialisation(self):
        report = ld_estimate(HALF_HALF, HALF_HALF, 0.02, 40)
        data = report.to_dict()
        assert set(data) == {
            "y", "side", "h", "rate", "psi_at_h", "lambda2_at_h", "estimate",
        }


class TestBerryEsseen:
    def test_hypothesis_ok(self):
        bound, ok = berry_esseen_bound(Partition((2, 2, 2, 2)))
        assert ok
        assert abs(bound - 30 / math.sqrt(8)) < 1e-15

    def test_wide_row_rejected(self):
        assert berry_esseen_bound(Partition((7, 1)))[1] is False

    def test_tall_column_rejected(self):
        assert berry_esseen_bound(Partition((1,) * 8))[1] is False

    def test_small_n_rejected(self):
        assert berry_esseen_bound(Partition((1,)))[1] is False


class TestMockFourier:
    def test_zero_frequency(self):
        assert mock_fourier(HALF_HALF, 5.0, 0.0) == 0.0

    def test_even_in_frequency(self):
        for xi in (0.5, 3.0, 40.0):
            assert mock_fourier(HALF_HALF, 5.0, xi) == mock_fourier(HALF_HALF, 5.0, -xi)

    def test_negative_away_from_zero(self):
        for xi in (0.25, 1.0, 7.0, 100.0, 5000.0):
            assert mock_fourier(HALF_HALF, 5.0, xi) < 0

    def test_matches_direct_complex_evaluation(self):
        for xi in (0.5, 2.0, 4.0):
            direct = (
                lambda_omega(HALF_HALF, complex(5.0, xi)) - lambda_omega(HALF_HALF, 5.0)
            ).real
            assert abs(mock_fourier(HALF_HALF, 5.0, xi) - direct) < 1e-10

    def test_zero_tilt_rejected(self):
        with pytest.raises(DegenerateParameter):
            mock_fourier(HALF_HALF, 0.0, 1.0)
        with pytest.raises(DegenerateParameter):
            mock_fourier(DELTA_ONE, 1.0, 1.0)


class TestMockFourierLimit:
    def test_point_mass_at_one(self):
        assert abs(mock_fourier_limit(DELTA_ONE, 3.0)) < 1e-15

    def test_monotone_in_tilt(self):
        values = [mock_fourier_limit(HALF_HALF, h) for h in (1.0, 2.0, 5.0, 10.0)]
        assert all(v < 0 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_zero_atom_rejected(self):
        with pytest.raises(ZeroAtomUnsupported):
            mock_fourier_limit(DELTA_ZERO, 5.0)
        mixed = measure_of(ThomaParam((Fraction(1, 2),), ()))  # gamma = 1/2 at 0
        with pytest.raises(ZeroAtomUnsupported):
            mock_fourier_limit(mixed, 5.0)


class TestBochner:
    def test_single_frequency(self):
        matrix, eig = bochner_check(DELTA_ZERO, (0.0,))
        assert matrix == [[1.0]]
        assert eig == 1.0

    def test_all_ones_for_degenerate(self):
        matrix, eig = bochner_check(DELTA_ONE, (0.0, 3.0, 6.0))
        assert all(abs(v - 1) < 1e-15 for row in matrix for v in row)
        assert abs(eig) < 1e-12

    def test_hermitian_symmetry(self):
        matrix, _ = bochner_check(DELTA_ZERO, (0.0, 1.0, 2.5))
        for i in range(3):
            for j in range(3):
                assert matrix[i][j] == matrix[j][i]


class TestEdgeworth:
    def test_reduces_to_normal_when_skewless(self):
        mu = measure_of(ThomaParam((0.3,), (0.3,)))  # symmetric: lambda''' (0) = 0
        for t in (-1.0, 0.0, 1.5):
            assert abs(edgeworth_cdf(mu, 0.0, 50, t) - standard_normal_cdf(t)) < 1e-12

    def test_limits(self):
        assert abs(edgeworth_cdf(HALF_HALF, 1.0, 30, 9.0) - 1.0) < 1e-12
        assert abs(edgeworth_cdf(HALF_HALF, 1.0, 30, -9.0)) < 1e-12

    def test_converges_to_normal(self):
        gaps = [
            abs(edgeworth_cdf(HALF_HALF, 1.0, n, 0.7) - standard_normal_cdf(0.7))
            for n in (10, 40, 160, 640)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < gaps[0] / 7  # O(1/sqrt(n)) shrinkage over 64x


class TestSnLogLaplace:
    def test_zero(self):
        assert sn_log_laplace(5, 0) == 0

    def test_two_route(self):
        poly = maj_polynomial_sn(3)
        direct = math.log(poly(math.exp(1.0 / 3.0)) / 6.0) - (3.0 / 2.0) * (1.0 / 3.0)
        assert abs(sn_log_laplace(3, 1.0) - direct) < 1e-12

    def test_residual_trend(self):
        target = 0.5 * phi(1.0)
        gaps = [
            abs(sn_log_laplace(n, 1.0) - n * lambda_omega(DELTA_ZERO, 1.0) - target)
            for n in (50, 100, 200, 400)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            sn_log_laplace(4, 7j)


class TestNormalCdf:
    def test_against_scipy(self):
        for s in (-3.0, -1.0, 0.0, 0.5, 2.5):
            assert abs(standard_normal_cdf(s) - norm.cdf(s)) < 1e-14


class TestDomainStability:
    @given(complex_in_half_domain, partition_strategy(max_n=8))
    @settings(deadline=None, max_examples=40)
    def test_no_domain_error_inside_half_domain(self, z, lam):
        assume(abs(z) > 1e-6)
        mu = measure_of(thoma_embed(lam))
        lambda_omega(mu, z)
        psi_omega(mu, z)
