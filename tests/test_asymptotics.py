import cmath
import decimal
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import spence
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
from majmeter import asymptotics
from majmeter.asymptotics import DEFAULT_QUAD, standard_normal_cdf
from majmeter.exact_dist import bernoulli
from majmeter.errors import (
    DegenerateParameter,
    DomainError,
    InvalidSimplexPoint,
    OutOfRange,
    QuadratureError,
    ZeroAtomUnsupported,
)
from majmeter.families import staircase

from conftest import partition_strategy

DELTA_ZERO = measure_of(ThomaParam((), ()))
DELTA_ONE = measure_of(ThomaParam((1,), ()))
HALF_HALF = measure_of(ThomaParam((Fraction(1, 2), Fraction(1, 2)), ()))

complex_in_half_domain = st.builds(
    complex,
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
).filter(lambda z: not (z.real == 0 and abs(z.imag) >= math.pi))


def _log_sinhc_reference(x: float, imaginary: bool) -> float:
    """log(sinh(x/2) / (x/2)), or log(sin(x/2) / (x/2)) for phi(ix), from
    the power series of sinh or sin at 40 digits."""
    with decimal.localcontext(decimal.Context(prec=40)):
        half = Decimal(x) / 2
        term = total = Decimal(1)
        k = 1
        while abs(term) > Decimal(10) ** -45:
            term *= (-1 if imaginary else 1) * half * half / ((2 * k) * (2 * k + 1))
            total += term
            k += 1
        return float(total.ln())


def _kernel_derivs_reference(x: float, imaginary: bool) -> tuple[complex, ...]:
    """phi', phi'' and phi''' at x, or at ix, at 40 digits: from the power
    series S of sinh(x/2) / (x/2) (sin for ix) and its derivatives S', S''
    and S''', through (log S)' = S'/S, (log S)'' = S''/S - (S'/S)^2 and
    (log S)''' = S'''/S - 3 S'S''/S^2 + 2 (S'/S)^3. On the imaginary axis
    g(x) = phi(ix) has g^(k)(x) = i^k phi^(k)(ix)."""
    with decimal.localcontext(decimal.Context(prec=40)):
        u = Decimal(x)
        s = [Decimal(0)] * 4
        coef, k = Decimal(1), 0  # coef = (+-1)^k / (4^k (2k+1)!)
        while abs(coef) * u ** (2 * k) > Decimal(10) ** -45:
            for j in range(min(4, 2 * k + 1)):
                s[j] += coef * math.perm(2 * k, j) * u ** (2 * k - j)
            k += 1
            coef *= Decimal(-1 if imaginary else 1) / (4 * (2 * k) * (2 * k + 1))
        g1 = s[1] / s[0]
        g2 = s[2] / s[0] - g1 * g1
        g3 = s[3] / s[0] - 3 * g1 * s[2] / s[0] + 2 * g1 ** 3
        if not imaginary:
            return complex(g1), complex(g2), complex(g3)
        return -1j * float(g1), complex(-g2), 1j * float(g3)


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

    def test_series_against_a_40_digit_reference(self):
        # below the |z| = 2 switch, where the closed form cancels
        for x in [*np.geomspace(1e-3, 1.9999, 90), 1.0001e-3]:
            for z, imaginary in ((x, False), (1j * x, True)):
                want = _log_sinhc_reference(x, imaginary)
                assert abs(phi(z).real - want) <= 1e-15 * abs(want)

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

    def test_derivative_series_against_a_40_digit_reference(self):
        # below the |z| = 2 switch, on both axes
        for x in np.geomspace(1e-3, 1.9999, 90):
            for z, imaginary in ((x, False), (1j * x, True)):
                for got, want in zip(phi_derivs(z), _kernel_derivs_reference(x, imaginary)):
                    assert abs(got - want) <= 1e-15 * abs(want), (z, got, want)

    def test_closed_forms_against_a_40_digit_reference(self):
        # above the |z| = 2 switch, on both axes; the worst case is order 3
        # just above the switch, where its closed form cancels most
        for x in np.linspace(2.0, 6.0, 80, endpoint=False):
            for z, imaginary in ((x, False), (1j * x, True)):
                want0 = _log_sinhc_reference(x, imaginary)
                for got, want in zip(_kernel_and_derivs(z),
                                     (want0, *_kernel_derivs_reference(x, imaginary))):
                    assert abs(got - want) <= 2e-14 * abs(want), (z, got, want)

    def test_series_table_matches_bernoulli_numbers(self):
        # the k-th derivative's Taylor coefficients perm(r, k) B_r / (r r!) at
        # even r through 48, as a polynomial in z^2 (after a factor z for odd k)
        table = asymptotics._SERIES_DERIVS
        assert [len(c) for c in table] == [25, 24, 24, 23]
        for k, coeffs in enumerate(table):
            for j, c in enumerate(coeffs):
                r = 2 * j + k + k % 2
                exact = bernoulli(r) / (r * math.factorial(r)) if r else 0
                assert c == float(math.perm(r, k) * exact)

    def test_series_closed_form_seam(self):
        # either side of the |z| = 2 switch agree
        lo = phi_derivs(1.9999)
        hi = phi_derivs(2.0001)
        for a, b in zip(lo, hi):
            assert abs(a - b) < 1e-3 * max(1.0, abs(a)) or abs(a - b) < 2e-4


def _point_near(radius, offset, angle):
    return radius * (1 + offset) * cmath.exp(1j * angle)


# points within 1e-6 relative of |z| = 1e-3 and of the |z| = 2 series
# switch, of |Re z| = 700 far out on the closed forms (where e^-z is near the
# bottom of the float range), and of the imaginary-axis cut |Im z| = 2*pi
_offsets = st.floats(min_value=-1e-6, max_value=1e-6)
near_series_switch = st.builds(
    _point_near, st.sampled_from([1e-3, 2.0]), _offsets,
    st.floats(min_value=-math.pi, max_value=math.pi),
)
near_clip = st.builds(
    lambda offset, im, sign: complex(sign * 700 * (1 + offset), im),
    _offsets, st.floats(min_value=-50, max_value=50), st.sampled_from([-1, 1]),
)
near_cut = st.builds(
    lambda offset, sign: complex(0, sign * 2 * math.pi * (1 + offset)),
    _offsets, st.sampled_from([-1, 1]),
)
on_real_seam = st.builds(
    lambda radius, offset, sign: sign * radius * (1 + offset),
    st.sampled_from([1e-3, 2.0, 700.0]), _offsets, st.sampled_from([-1.0, 1.0]),
)


def _kernel_and_derivs(z):
    return (phi(z), *phi_derivs(z))


class TestKernelSeams:
    """The array kernel against its scalar wrappers where its branches meet."""

    @given(st.lists(st.one_of(near_series_switch, near_clip), min_size=1, max_size=16))
    def test_array_matches_scalar_wrappers(self, zs):
        arrays = _kernel_and_derivs(np.array(zs, dtype=complex))
        for i, z in enumerate(zs):
            for got, want in zip((a[i] for a in arrays), _kernel_and_derivs(z)):
                assert abs(got - want) <= 1e-14 * abs(want)

    @given(st.lists(on_real_seam, min_size=1, max_size=16))
    def test_real_array_matches_scalar_wrappers(self, xs):
        arrays = _kernel_and_derivs(np.array(xs))
        assert all(a.dtype == np.float64 for a in arrays)
        for i, x in enumerate(xs):
            for got, want in zip((a[i] for a in arrays), _kernel_and_derivs(x)):
                assert abs(got - want) <= 1e-14 * abs(want)

    @given(st.lists(near_cut, min_size=1, max_size=8))
    def test_cut(self, zs):
        on_cut = [abs(z.imag) >= 2 * math.pi for z in zs]
        for f in (phi, phi_derivs, varphi):
            if any(on_cut):
                with pytest.raises(DomainError):
                    f(np.array(zs))
            for z, bad in zip(zs, on_cut):
                if bad:
                    with pytest.raises(DomainError):
                        f(z)
        if not any(on_cut):
            values = phi(np.array(zs))
            assert np.all(values.imag == 0)
            assert all(values[i] == phi(z) for i, z in enumerate(zs))

    @given(st.lists(on_real_seam, min_size=1, max_size=16))
    def test_real_path_matches_complex_path(self, xs):
        # the closed forms cancel terms as large as |z|^-(k+1) (the k-th
        # derivative) or |z| and |log z| (the kernel), so the two dtypes may
        # differ by a few units in the last place of those terms
        real = _kernel_and_derivs(np.array(xs))
        cplx = _kernel_and_derivs(np.array(xs, dtype=complex))
        for order, (r, c) in enumerate(zip(real, cplx)):
            assert np.all(c.imag == 0)
            a = np.abs(xs)
            scale = np.maximum.reduce([np.ones_like(a), a, np.abs(np.log(a))])
            if order:
                scale = np.maximum(scale, a ** -(order + 1))
            assert np.all(np.abs(r - c.real) <= 1e-14 * scale)


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

    @pytest.mark.parametrize("settings", [
        {"nodes": asymptotics.MAX_QUAD_NODES + 1}, {"rel_tol": math.nan}, {"rel_tol": math.inf},
        {"nodes": asymptotics.MAX_QUAD_NODES // 2 + 1},
    ])
    def test_node_ceiling_and_finite_tolerance(self, settings):
        with pytest.raises(ValueError):
            QuadratureConfig(**settings)

    def test_doubling_stops_at_the_node_ceiling(self, monkeypatch):
        monkeypatch.setattr(asymptotics, "MAX_QUAD_NODES", 128)
        passes = []

        def oscillating(t):
            passes.append(t)
            return np.cos(500.0 * t)

        with pytest.raises(QuadratureError, match="128 nodes"):
            asymptotics._integrate_unit(oscillating, QuadratureConfig(nodes=64, max_doublings=8))
        # one call of 192 nodes: the 64- and 128-node rules, none past the ceiling
        rules = [asymptotics._gauss_nodes(n)[0] for n in (64, 128)]
        assert len(passes) == 1 and np.array_equal(passes[0], np.concatenate(rules))


def _integrate_unit_reference(f, quad):
    """_integrate_unit as one integrand call per rule: the loop that the
    fused first pass must reproduce bit for bit."""
    n = quad.nodes
    prev = None
    for _ in range(quad.max_doublings + 1):
        if n > asymptotics.MAX_QUAD_NODES:
            break
        ts, ws = asymptotics._gauss_nodes(n)
        total = sum((ws * f(ts)).tolist())
        if prev is not None and abs(total - prev) <= quad.rel_tol * max(1.0, abs(total)):
            return total
        prev = total
        n *= 2
    raise QuadratureError(f"integral did not stabilise with {n // 2} nodes")


def _integrate_both_ways(f, quad):
    """(outcome, nodes requested) from _integrate_unit and from the reference
    loop; an outcome is the value, or the QuadratureError raised."""
    results = []
    for integrate in (asymptotics._integrate_unit, _integrate_unit_reference):
        requested = []

        def recorded(t):
            requested.append(t)
            return f(t)

        try:
            outcome = integrate(recorded, quad)
        except QuadratureError as exc:
            outcome = exc
        results.append((outcome, np.concatenate(requested)))
    return results


def _lambda_integrands(monkeypatch, mu, z, order):
    """The integrand and QuadratureConfig that _lambda_deriv integrates, and
    its value."""
    captured = []
    real = asymptotics._integrate_unit

    def capture(f, quad):
        captured.append((f, quad))
        return real(f, quad)

    monkeypatch.setattr(asymptotics, "_integrate_unit", capture)
    value = asymptotics._lambda_deriv(mu, z, order, QuadratureConfig())
    monkeypatch.setattr(asymptotics, "_integrate_unit", real)
    (f, quad), = captured
    return f, quad, value


STAIRCASE_60 = measure_of(thoma_embed(staircase(60)))
ATOM_AT_ZERO = DiscreteMeasure([(0.5, 0.25), (0.25, 0.25), (-0.125, 0.25), (0, 0.25)])


class TestQuadratureFusion:
    """The first two rules in one integrand call, against one call per rule."""

    @pytest.mark.parametrize("order", range(4))
    @pytest.mark.parametrize("z", [0.0, 1.3, 40.0, 0.4 + 0.7j])
    @pytest.mark.parametrize("mu", [HALF_HALF, STAIRCASE_60, ATOM_AT_ZERO],
                             ids=["half-half", "staircase-60", "atom-at-0"])
    def test_lambda_integrands_match_the_per_rule_loop(self, monkeypatch, mu, z, order):
        f, quad, value = _lambda_integrands(monkeypatch, mu, z, order)
        (fused, fused_nodes), (reference, reference_nodes) = _integrate_both_ways(f, quad)
        assert value == fused == reference
        assert type(fused) is type(reference)
        assert np.array_equal(fused_nodes, reference_nodes)

    def test_three_rules_match_the_per_rule_loop(self):
        def f(t):
            return np.cos(300.0 * t)

        (fused, fused_nodes), (reference, reference_nodes) = _integrate_both_ways(f, DEFAULT_QUAD)
        assert fused == reference
        assert np.array_equal(fused_nodes, reference_nodes)
        assert len(fused_nodes) >= 64 + 128 + 256  # a third rule was needed

    @pytest.mark.parametrize("ceiling, quad", [
        (asymptotics.MAX_QUAD_NODES, QuadratureConfig(max_doublings=2)),
        (256, QuadratureConfig(max_doublings=8)),
    ], ids=["doublings", "ceiling"])
    def test_unconverged_raises_as_the_per_rule_loop(self, monkeypatch, ceiling, quad):
        monkeypatch.setattr(asymptotics, "MAX_QUAD_NODES", ceiling)

        def f(t):
            return np.cos(500.0 * t)

        (fused, fused_nodes), (reference, reference_nodes) = _integrate_both_ways(f, quad)
        assert isinstance(fused, QuadratureError) and isinstance(reference, QuadratureError)
        assert str(fused).startswith(str(reference) + " (last change ")
        assert "with 256 nodes" in str(fused)
        assert np.array_equal(fused_nodes, reference_nodes)

    def test_error_names_the_last_change_and_the_tolerance(self):
        def f(t):
            return np.cos(500.0 * t)

        with pytest.raises(QuadratureError) as info:
            asymptotics._integrate_unit(f, QuadratureConfig(max_doublings=1))
        ts, ws = asymptotics._gauss_nodes(64)
        ts2, ws2 = asymptotics._gauss_nodes(128)
        a, b = sum((ws * f(ts)).tolist()), sum((ws2 * f(ts2)).tolist())
        change = abs(b - a) / max(1.0, abs(b))
        assert str(info.value) == (
            f"integral did not stabilise with 128 nodes (last change {change:.1e}, "
            "tolerance 1e-12)")


class TestHorner:
    """The kernel's in-place Horner against numpy's polyval, bit for bit."""

    @pytest.mark.parametrize("order", range(4))
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_matches_polyval(self, order, dtype):
        rng = np.random.default_rng(order)
        below_two = math.nextafter(2.0, 0.0)
        zs = [0.0, -0.0, 1e-300, -1e-300, 0.5, -1.0, below_two, -below_two]
        if dtype is np.complex128:
            zs += [complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0),
                   complex(0.0, below_two), complex(-0.0, -below_two),
                   below_two * cmath.exp(0.7j), 1.2 - 1.5j]
            zs += list(rng.uniform(-2, 2, 200) * np.exp(1j * rng.uniform(-3.2, 3.2, 200)) / 1.5)
        else:
            zs += list(rng.uniform(-2, 2, 200))
        z = np.array(zs, dtype=dtype)
        for x in (z * z, z):  # the kernel's argument z^2, and plain z with signed zeros
            coeffs = asymptotics._SERIES_DERIVS[order]
            got = asymptotics._horner(x, coeffs)
            want = np.polynomial.polynomial.polyval(x, coeffs)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_empty(self, dtype):
        x = np.array([], dtype=dtype)
        for coeffs in asymptotics._SERIES_DERIVS:
            got = asymptotics._horner(x, coeffs)
            want = np.polynomial.polynomial.polyval(x, coeffs)
            assert got.dtype == want.dtype and got.shape == want.shape == (0,)


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

    def test_one_kernel_call_per_quadrature_pass(self, monkeypatch):
        # three charged atoms away from 0 and one at 0
        mu = DiscreteMeasure([(0.5, 0.25), (0.25, 0.25), (-0.125, 0.25), (0, 0.25)])
        kernel, integrate = asymptotics._kernel, asymptotics._integrate_unit
        kernel_calls, passes = [], []

        def counting_kernel(z, order):
            kernel_calls.append(order)
            return kernel(z, order)

        def counting_integrate(f, quad):
            def one_pass(t):
                passes.append(len(t))
                return f(t)
            return integrate(one_pass, quad)

        monkeypatch.setattr(asymptotics, "_kernel", counting_kernel)
        monkeypatch.setattr(asymptotics, "_integrate_unit", counting_integrate)
        nodes = QuadratureConfig().nodes
        for order in range(4):
            for z in (1.3, 0.4 + 0.7j):
                kernel_calls.clear()
                passes.clear()
                asymptotics._lambda_deriv(mu, z, order, QuadratureConfig())
                # the first integrand call covers the first two rules
                assert passes[0] == 3 * nodes and kernel_calls == [order] * len(passes)


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

    @pytest.mark.parametrize(
        "x, y", [(1.5, 0.2), (0.2, -1.5), (-2.0, 3.0), (math.nan, 0.5), (0.5, math.nan)])
    def test_atom_outside_the_unit_interval(self, x, y):
        # the rule and the message of DiscreteMeasure
        with pytest.raises(InvalidSimplexPoint, match=r"outside \[-1, 1\]"):
            psi_integrand(x, y, 1)

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

    def test_tiny_target_meets_the_relative_residual(self):
        # an absolute 1e-12 residual would stop at h = 0 before any step
        y = 1e-20
        h, rate = legendre_star(HALF_HALF, y)
        assert h > 0 and rate >= 0
        assert abs(float(asymptotics._lambda_deriv(HALF_HALF, h, 1, asymptotics.DEFAULT_QUAD)) - y) <= 1e-12 * y

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            legendre_star(HALF_HALF, 0.2)  # limit is 1/8
        with pytest.raises(OutOfRange):
            legendre_star(HALF_HALF, 0.0)
        with pytest.raises(DegenerateParameter):
            legendre_star(DELTA_ONE, 0.01)

    def test_slope_that_never_meets_the_target_raises(self, monkeypatch):
        # a slope that jumps over the target leaves every h with a residual
        # far above 1e-12: the conjugation must fail, not return an h
        real = asymptotics._lambda_deriv

        def stepped(mu, h, order, quad):
            if order == 1:
                return 0.0 if h < 1.3 else 1.0
            return real(mu, h, order, quad)

        monkeypatch.setattr(asymptotics, "_lambda_deriv", stepped)
        with pytest.raises(QuadratureError, match="did not converge"):
            legendre_star(HALF_HALF, 0.05)

    def test_derivative_integrals_per_solve(self, monkeypatch):
        # work guard: Newton needs a handful of one-order integrals (9 here),
        # bisection to the same residual about 35 slope evaluations
        real = asymptotics._lambda_deriv
        orders = []

        def counted(mu, h, order, quad):
            orders.append(order)
            return real(mu, h, order, quad)

        monkeypatch.setattr(asymptotics, "_lambda_deriv", counted)
        legendre_star(measure_of(thoma_embed(staircase(60))), 0.04)
        assert len(orders) <= 12

    def test_one_kernel_call_per_integral(self, monkeypatch):
        # work guard: every integral of the solve settles at its second rule,
        # so each is one kernel call; the signed atoms are built once
        calls = {"kernel": 0, "integrals": 0, "atoms": 0}

        def counting(name, real):
            def wrapped(*args):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(asymptotics, real.__name__, wrapped)

        counting("kernel", asymptotics._kernel)
        counting("integrals", asymptotics._lambda_deriv)
        counting("atoms", asymptotics._signed_atoms)
        legendre_star(STAIRCASE_60, 0.04)
        assert calls["integrals"] > 0
        assert calls["kernel"] == calls["integrals"] and calls["atoms"] == 1


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

    def test_underflow_raises_instead_of_returning_zero(self):
        assert ld_estimate(HALF_HALF, HALF_HALF, 0.02, 50000).estimate > 0
        with pytest.raises(OutOfRange, match=r"n = 100000 .* its log is -9\d\d\."):
            ld_estimate(HALF_HALF, HALF_HALF, 0.02, 100000)

    def test_prefactor_source_flag(self):
        mu_n = measure_of(thoma_embed(Partition((10, 10))))
        a = ld_estimate(mu_n, HALF_HALF, 0.02, 20)
        b = ld_estimate(mu_n, mu_n, 0.02, 20)
        assert a.rate == b.rate
        assert a.h != b.h

    def test_finite_n_prefactor_conjugates_once(self, monkeypatch):
        mu_n = measure_of(thoma_embed(Partition((10, 10))))
        real = asymptotics.legendre_star
        calls = []

        def counted(mu, y, quad=None):
            calls.append(mu)
            return real(mu, y, quad)

        monkeypatch.setattr(asymptotics, "legendre_star", counted)
        ld_estimate(mu_n, mu_n, 0.02, 20)
        assert calls == [mu_n]
        calls.clear()
        ld_estimate(mu_n, HALF_HALF, 0.02, 20)
        assert calls == [mu_n, HALF_HALF]

    def test_serialisation(self):
        report = ld_estimate(HALF_HALF, HALF_HALF, 0.02, 40)
        data = report.to_dict()
        assert set(data) == {
            "y", "side", "h", "rate", "psi_at_h", "lambda2_at_h", "estimate",
        }

    @pytest.mark.parametrize("n", [0, -1])
    def test_size_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            ld_estimate(HALF_HALF, HALF_HALF, 0.02, n)


PI2_OVER_6 = math.pi ** 2 / 6


def _li2_exp_minus(a):
    """Li_2(e^-a) through scipy: Li_2(x) = spence(1 - x)."""
    return spence(-math.expm1(-a))


def _g_and_derivs(a):
    """g(a) = int_0^1 phi(ta) dt = G(a)/a and its first three derivatives at
    a > 0, where G(a) = a^2/4 + Li_2(e^-a) - pi^2/6 - a log a + a is the
    antiderivative of the kernel; g^(k+1) = (phi^(k) - (k+1) g^(k)) / a."""
    g = (a * a / 4 + _li2_exp_minus(a) - PI2_OVER_6 - a * math.log(a) + a) / a
    kernel = (
        a / 2 + math.log(-math.expm1(-a)) - math.log(a),
        0.5 / math.tanh(a / 2) - 1 / a,
        1 / a ** 2 - 0.25 / math.sinh(a / 2) ** 2,
    )
    out = [g]
    for k, value in enumerate(kernel):
        out.append((value - (k + 1) * out[-1]) / a)
    return np.array(out)


def _lambda_oracle(mu, h):
    """lambda and its first three derivatives at h > 0:
    g^(k)(h) - sum w |x|^k g^(k)(|x| h)."""
    total = _g_and_derivs(h)
    for x, w in mu.float_atoms():
        if w > 0 and x != 0:
            total -= w * abs(x) ** np.arange(4) * _g_and_derivs(abs(x) * h)
    return total


def _oracle_tol(h):
    # below h = 1 the closed form cancels against itself (G(h) ~ h^3/72)
    return 1e-12 if h >= 1 else 1e-11


ORACLE_MEASURES = {
    "delta-zero": DELTA_ZERO,
    "half-half": HALF_HALF,
    "alpha-beta": measure_of(ThomaParam((Fraction(3, 5), Fraction(1, 5)), (Fraction(1, 5),))),
    "staircase-60": measure_of(thoma_embed(staircase(60))),
}


class TestClosedFormOracle:
    """The real-axis analytic layer against the dilogarithm closed form,
    which shares no code with majmeter."""

    @pytest.mark.parametrize("quad", [None, QuadratureConfig(nodes=96)], ids=["64", "96"])
    @pytest.mark.parametrize("name", ORACLE_MEASURES)
    def test_lambda_and_derivatives(self, name, quad):
        mu = ORACLE_MEASURES[name]
        for h in (0.3, 0.7, 1.0, 2.0, 5.0, 17.0, 50.0):
            got = (lambda_omega(mu, h, quad).real, *lambda_derivs(mu, h, quad))
            # the third derivative only from h = 2: its closed form divides an
            # O(1) cancellation by h^3 and is 5e-12 off at h = 1
            orders = 4 if h >= 2 else 3
            for value, exact in zip(got[:orders], _lambda_oracle(mu, h)[:orders]):
                assert abs(value - exact) <= _oracle_tol(h) * abs(exact), (h, value, exact)

    @pytest.mark.parametrize("name", ORACLE_MEASURES)
    def test_legendre_rate(self, name):
        mu = ORACLE_MEASURES[name]
        for fraction in (0.1, 0.3, 0.6):
            y = fraction * lambda_prime_limit(mu)
            h = brentq(lambda s: _lambda_oracle(mu, s)[1] - y, 1e-3, 700, xtol=1e-14)
            exact = h * y - _lambda_oracle(mu, h)[0]
            _, rate = legendre_star(mu, y)
            assert abs(rate - exact) <= _oracle_tol(h) * exact, (y, rate, exact)

    @pytest.mark.parametrize("name", ["half-half", "alpha-beta", "staircase-60"])
    def test_mock_fourier_limit(self, name):
        # int_0^1 log(1 - e^{-tb}) dt = (Li_2(e^-b) - pi^2/6) / b
        mu = ORACLE_MEASURES[name]

        def log_integral(b):
            return (_li2_exp_minus(b) - PI2_OVER_6) / b

        for h in (0.3, 1.0, 5.0, 50.0):
            exact = sum(
                w * (log_integral(abs(x) * h) - log_integral(h))
                for x, w in mu.float_atoms() if w > 0
            )
            value = mock_fourier_limit(mu, h)
            assert abs(value - exact) <= _oracle_tol(h) * abs(exact), (h, value, exact)

    def test_slope_expansion_at_large_h(self):
        # criterion 10b's lambda'(h) = 1/4 - 1/h + pi^2/(6h^2) + O(e^-h)
        h = 50.0
        expansion = 0.25 - 1 / h + PI2_OVER_6 / h ** 2
        assert abs(_lambda_oracle(DELTA_ZERO, h)[1] - expansion) <= 1e-15
        assert abs(lambda_derivs(DELTA_ZERO, h)[0] - expansion) <= 1e-12 * expansion


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

    def test_zero_atom_matches_direct_complex_evaluation(self):
        # alpha 1/2, beta 1/4 and gamma 1/4 at x = 0
        mu = measure_of(ThomaParam((Fraction(1, 2),), (Fraction(1, 4),)))
        for xi in (0.5, 2.0, 4.0):
            direct = (lambda_omega(mu, complex(5.0, xi)) - lambda_omega(mu, 5.0)).real
            value = mock_fourier(mu, 5.0, xi)
            assert type(value) is float and abs(value - direct) < 1e-10

    def test_frequency_beyond_the_panel_cap_raises(self):
        # 200000 one-period panels reach xi = 200000 * 2 pi ~ 1.26e6
        with pytest.raises(OutOfRange, match="xi = 2000000.0"):
            mock_fourier(HALF_HALF, 5.0, 2e6)
        # the value it had when the panel count was capped instead
        assert mock_fourier(HALF_HALF, 5.0, 1e6) == pytest.approx(-0.2968030606483909, rel=1e-13)

    def test_zero_tilt_rejected(self):
        with pytest.raises(DegenerateParameter):
            mock_fourier(HALF_HALF, 0.0, 1.0)
        with pytest.raises(DegenerateParameter):
            mock_fourier(DELTA_ONE, 1.0, 1.0)

    @pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequency_rejected_as_in_bochner_check(self, xi):
        with pytest.raises(ValueError, match=f"^frequency {xi} is not finite$"):
            mock_fourier(HALF_HALF, 5.0, xi)
        with pytest.raises(ValueError, match=f"^frequency {xi} is not finite$"):
            bochner_check(HALF_HALF, (0.0, xi))

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
    def test_non_finite_tilt_rejected(self, h):
        with pytest.raises(ValueError, match=f"^tilt {h} is not finite$"):
            mock_fourier(HALF_HALF, h, 1.0)
        with pytest.raises(ValueError, match=f"^tilt {h} is not finite$"):
            mock_fourier(HALF_HALF, h, 0.0)


class TestMockFourierLimit:
    def test_point_mass_at_one(self):
        assert abs(mock_fourier_limit(DELTA_ONE, 3.0)) < 1e-15

    def test_monotone_in_tilt(self):
        values = [mock_fourier_limit(HALF_HALF, h) for h in (1.0, 2.0, 5.0, 10.0)]
        assert all(v < 0 for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf])
    def test_non_finite_tilt_rejected(self, h):
        with pytest.raises(ValueError, match=f"^tilt {h} is not finite$"):
            mock_fourier_limit(HALF_HALF, h)

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

    @pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequency_rejected(self, xi):
        with pytest.raises(ValueError, match=f"frequency {xi}"):
            bochner_check(DELTA_ZERO, (0.0, xi))


class TestEdgeworth:
    def test_reduces_to_normal_when_skewless(self):
        mu = measure_of(ThomaParam((0.3,), (0.3,)))  # symmetric: lambda''' (0) = 0
        for t in (-1.0, 0.0, 1.5):
            assert abs(edgeworth_cdf(mu, 0.0, 50, t) - standard_normal_cdf(t)) < 1e-12

    def test_limits(self):
        assert abs(edgeworth_cdf(HALF_HALF, 1.0, 30, 9.0) - 1.0) < 1e-12
        assert abs(edgeworth_cdf(HALF_HALF, 1.0, 30, -9.0)) < 1e-12

    @pytest.mark.parametrize("n", [0, -1])
    def test_size_below_one_rejected(self, n):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            edgeworth_cdf(HALF_HALF, 1.0, n, 0.7)

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

    def test_array_is_the_scalar_bit_for_bit(self):
        tiny = np.geomspace(1e-300, 1e-3, 301)
        grid = np.concatenate([np.linspace(-40, 40, 8001), tiny, -tiny, [0.0, -0.0]])
        scalar = np.array([standard_normal_cdf(s) for s in grid.tolist()])
        assert np.array_equal(standard_normal_cdf(grid).view(np.uint64), scalar.view(np.uint64))
        square = standard_normal_cdf(grid[:8000].reshape(80, 100))
        assert np.array_equal(square.ravel().view(np.uint64), scalar[:8000].view(np.uint64))


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteArgument:
    """A non-finite argument is refused where it enters, before any
    quadrature runs."""

    @pytest.mark.parametrize("z", [*NON_FINITE, complex(math.nan, 0.5), complex(1.0, math.inf)])
    def test_lambda_omega(self, z):
        with pytest.raises(DomainError, match="is not finite$"):
            lambda_omega(HALF_HALF, z)

    @pytest.mark.parametrize("h", NON_FINITE)
    def test_lambda_derivs(self, h, monkeypatch):
        monkeypatch.setattr(asymptotics, "_integrate_unit", _no_quadrature)
        with pytest.raises(DomainError, match="is not finite$"):
            lambda_derivs(HALF_HALF, h)

    @pytest.mark.parametrize("h", NON_FINITE)
    def test_edgeworth_cdf(self, h, monkeypatch):
        monkeypatch.setattr(asymptotics, "_integrate_unit", _no_quadrature)
        with pytest.raises(DomainError, match="is not finite$"):
            edgeworth_cdf(HALF_HALF, h, 30, 0.5)

    @pytest.mark.parametrize("z", [*NON_FINITE, complex(math.nan, 0.5), complex(1.0, math.inf)])
    def test_psi_omega(self, z):
        with pytest.raises(DomainError, match="is not finite$"):
            psi_omega(HALF_HALF, z)

    def test_the_cut_is_named_before_finiteness(self):
        with pytest.raises(DomainError, match="cut"):
            lambda_omega(HALF_HALF, complex(0.0, math.inf))


def _no_quadrature(f, quad):
    raise AssertionError("a quadrature ran on a non-finite argument")


class TestDomainStability:
    @given(complex_in_half_domain, partition_strategy(max_n=8))
    @settings(deadline=None, max_examples=40)
    def test_no_domain_error_inside_half_domain(self, z, lam):
        assume(abs(z) > 1e-6)
        mu = measure_of(thoma_embed(lam))
        lambda_omega(mu, z)
        psi_omega(mu, z)
