import cmath
import math
from fractions import Fraction
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from majmeter import (
    Partition,
    QPolynomial,
    b_stat,
    bernoulli,
    count_standard_tableaux,
    cumulant_decomposition,
    cumulant_from_polynomial,
    cumulants_from_polynomial,
    exact_cumulant,
    kolmogorov_distance_to_normal,
    log_laplace_exact,
    maj_polynomial,
    maj_polynomial_float,
    maj_polynomial_sn,
    mean_maj,
    partitions_of,
    predicted_cumulant,
    predicted_cumulant_exact,
    range_maj,
    tail_probability,
    var_maj,
)
from majmeter.errors import (
    CapExceeded,
    DegenerateDistribution,
    DomainError,
    OddOrder,
    OutOfRange,
)
from majmeter import asymptotics, exact_dist
from majmeter.exact_dist import _q_ratio
from majmeter.families import staircase, three_row, two_row
from majmeter.partitions import hook_list
from majmeter.tableaux import maj_multiset, perm_descents

from conftest import partition_strategy


class TestBernoulli:
    def test_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(6) == Fraction(1, 42)

    def test_odd_vanish(self):
        assert all(bernoulli(r) == 0 for r in (3, 5, 7, 9, 11))

    def test_one_routine(self):
        assert exact_dist.bernoulli is asymptotics.bernoulli is bernoulli

    def test_von_staudt_clausen(self):
        # for even r, B_r plus 1/p summed over the primes p with (p - 1) | r is
        # an integer, so the denominator of B_r is the product of those p
        for r in range(2, 61, 2):
            primes = [p for p in range(2, r + 2)
                      if r % (p - 1) == 0 and all(p % q for q in range(2, p))]
            assert bernoulli(r).denominator == math.prod(primes)
            assert (bernoulli(r) + sum(Fraction(1, p) for p in primes)).denominator == 1

    def test_generating_series(self):
        # oracle: (1 - e^{-t}) * sum B_r t^r / r!  ==  t, coefficientwise
        order = 12
        minus_expm1 = [Fraction(0)] + [
            -Fraction((-1) ** k, math.factorial(k)) for k in range(1, order + 2)
        ]
        series = [bernoulli(r) / math.factorial(r) for r in range(order + 1)]
        for m in range(order + 1):
            coeff = sum(minus_expm1[j] * series[m - j] for j in range(1, m + 1))
            assert coeff == (1 if m == 1 else 0)


class TestMajPolynomial:
    def test_two_one(self):
        assert maj_polynomial(Partition((2, 1))) == QPolynomial([1, 1], offset=1)

    def test_column(self):
        assert maj_polynomial(Partition((1, 1, 1))) == QPolynomial([1], offset=3)

    def test_known_shape(self):
        poly = maj_polynomial(Partition((4, 2, 2, 1)))
        assert poly.at_one() == 216
        assert poly.support() == (9, 28)

    def test_interior_zero_coefficient(self):
        # (2,2) has tableaux with maj 2 and 4 only
        assert maj_polynomial(Partition((2, 2))) == QPolynomial([1, 0, 1], offset=2)

    def test_matches_enumeration(self):
        for n in range(1, 9):
            for lam in partitions_of(n):
                poly = maj_polynomial(lam)
                histogram = {
                    poly.offset + i: c for i, c in enumerate(poly.coeffs) if c
                }
                assert histogram == maj_multiset(lam)

    def test_conjugate_reverses_coefficients(self):
        from majmeter import conjugate

        for n in range(1, 10):
            for lam in partitions_of(n):
                p = maj_polynomial(lam)
                q = maj_polynomial(conjugate(lam))
                top = n * (n - 1) // 2
                assert q.coeffs == tuple(reversed(p.coeffs))
                assert q.offset == top - p.degree

    def test_cap(self):
        with pytest.raises(CapExceeded, match="extended-precision"):
            maj_polynomial(Partition((301,)))

    def test_json_round_trip(self):
        poly = maj_polynomial(Partition((3, 2)))
        assert QPolynomial.from_json(poly.to_json()) == poly

    @pytest.mark.parametrize("coeffs", [
        [1], [1, 1], [1, 2, 1], [3, 0, 0, 3], [5, -2, 7, -2, 5],  # palindromes, odd and even
        [1, 2], [1, 0, 2, 1], [2**200, 1, 2**200 + 1],  # not palindromes
    ])
    def test_json_strings_are_each_coefficient(self, coeffs):
        poly = QPolynomial(coeffs, offset=4)
        assert poly.to_json() == {"offset": 4, "coeffs": [str(c) for c in coeffs]}
        assert QPolynomial.from_json(poly.to_json()) == poly


class TestMajPolynomialSn:
    def test_small(self):
        assert maj_polynomial_sn(1) == QPolynomial([1])
        # oracle: maj over the 6 permutations of S(3)
        histogram = {}
        for images in permutations((1, 2, 3)):
            m = sum(perm_descents(images))
            histogram[m] = histogram.get(m, 0) + 1
        poly = maj_polynomial_sn(3)
        assert {poly.offset + i: c for i, c in enumerate(poly.coeffs)} == histogram
        assert poly == QPolynomial([1, 2, 2, 1])

    def test_total_mass(self):
        for n in range(1, 7):
            assert maj_polynomial_sn(n).at_one() == math.factorial(n)

    def test_rsk_consistency(self):
        # summing shape polynomials weighted by tableau counts recovers S(n)
        for n in range(1, 7):
            top = n * (n - 1) // 2
            acc = [0] * (top + 1)
            for lam in partitions_of(n):
                poly = maj_polynomial(lam)
                weight = count_standard_tableaux(lam)
                for i, c in enumerate(poly.coeffs):
                    acc[poly.offset + i] += weight * c
            assert QPolynomial(acc) == maj_polynomial_sn(n)


class TestCumulants:
    def test_exact_examples(self):
        lam = Partition((4, 2, 2, 1))
        assert exact_cumulant(lam, 2) == Fraction(175, 12)
        assert exact_cumulant(lam, 3) == 0
        assert exact_cumulant(Partition((6,)), 5) == 0

    def test_variance_against_enumeration(self):
        lam = Partition((4, 2, 2, 1))
        values = []
        for m, c in maj_multiset(lam).items():
            values.extend([m] * c)
        mean = Fraction(sum(values), len(values))
        var = sum((Fraction(v) - mean) ** 2 for v in values) / len(values)
        assert exact_cumulant(lam, 2) == var
        assert mean_maj(lam) == mean

    def test_odd_cumulants_vanish(self):
        for lam in (Partition((3, 2)), Partition((4, 4, 1)), Partition((5, 2, 2))):
            for r in (3, 5, 7):
                assert exact_cumulant(lam, r) == 0

    def test_moment_route_two_point(self):
        poly = QPolynomial([1, 1], offset=1)
        assert cumulant_from_polynomial(poly, 1) == Fraction(3, 2)
        assert cumulant_from_polynomial(poly, 2) == Fraction(1, 4)

    def test_moment_route_uniform_law(self):
        # [n]_q is the law of a uniform point of {0, ..., n - 1}: its cumulants
        # are (n - 1)/2 and B_r (n^r - 1)/r for r >= 2, independent of hooks
        for n in range(1, 13):
            poly = QPolynomial([1] * n)
            assert cumulant_from_polynomial(poly, 1) == Fraction(n - 1, 2)
            for r in range(2, 9):
                assert cumulant_from_polynomial(poly, r) == bernoulli(r) * (n ** r - 1) / r

    def test_route_agreement(self):
        for n in range(1, 9):
            for lam in partitions_of(n):
                poly = maj_polynomial(lam)
                for r in range(2, 7):
                    assert exact_cumulant(lam, r) == cumulant_from_polynomial(poly, r)

    def test_all_orders_in_one_recursion(self):
        for n in range(1, 9):
            for lam in partitions_of(n):
                kappa = cumulants_from_polynomial(maj_polynomial(lam), 7)
                assert kappa == (mean_maj(lam), *(exact_cumulant(lam, r) for r in range(2, 8)))

    def test_low_order_guard(self):
        with pytest.raises(ValueError):
            exact_cumulant(Partition((2, 1)), 1)


def _cumulants_reference(poly, r):
    """The moment-route recursion on Fraction raw moments, one division per
    moment and per product: what the integer-scaled recursion must equal."""
    moments = [Fraction(1)] + [poly.moment(k) for k in range(1, r + 1)]
    kappa = [Fraction(0)] * (r + 1)
    for s in range(1, r + 1):
        kappa[s] = moments[s] - sum(
            math.comb(s - 1, j - 1) * kappa[j] * moments[s - j] for j in range(1, s)
        )
    return tuple(kappa[1:])


class TestIntegerScaledCumulants:
    @settings(deadline=None, max_examples=40)
    @given(partition_strategy(max_n=30), st.integers(min_value=1, max_value=8))
    def test_matches_fraction_recursion_on_maj_laws(self, lam, r):
        poly = maj_polynomial(lam)
        assert cumulants_from_polynomial(poly, r) == _cumulants_reference(poly, r)

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=1, max_value=8),
    )
    def test_matches_fraction_recursion_on_any_law(self, coeffs, offset, r):
        assume(any(coeffs))
        poly = QPolynomial(coeffs, offset)
        assert cumulants_from_polynomial(poly, r) == _cumulants_reference(poly, r)

    def test_one_point_law(self):
        for poly in (QPolynomial([1]), QPolynomial([7], offset=5)):
            kappa = cumulants_from_polynomial(poly, 8)
            assert kappa == _cumulants_reference(poly, 8)
            assert kappa == (poly.offset, *[0] * 7)
            assert all(isinstance(k, Fraction) for k in kappa)


class TestClosedForms:
    def test_mean(self):
        assert mean_maj(Partition((4, 2, 2, 1))) == Fraction(37, 2)
        assert mean_maj(Partition((6,))) == 0

    def test_mean_uniform_group_analogue(self):
        for n in range(2, 7):
            poly = maj_polynomial_sn(n)
            assert cumulant_from_polynomial(poly, 1) == Fraction(n * (n - 1), 4)

    def test_variance(self):
        assert var_maj(Partition((4, 2, 2, 1))) == Fraction(175, 12)
        assert var_maj(Partition((6,))) == 0
        assert var_maj(Partition((2, 1))) == Fraction(1, 4)

    @given(partition_strategy(max_n=10))
    @settings(deadline=None, max_examples=30)
    def test_closed_forms_match_polynomial(self, lam):
        poly = maj_polynomial(lam)
        assert mean_maj(lam) == poly.moment(1)
        assert var_maj(lam) == poly.moment(2) - poly.moment(1) ** 2

    def test_range(self):
        assert range_maj(Partition((4, 2, 2, 1))) == (9, 28)
        assert range_maj(Partition((5,))) == (0, 0)
        assert range_maj(Partition((1,) * 5)) == (10, 10)

    def test_range_matches_support(self):
        for n in range(1, 10):
            for lam in partitions_of(n):
                assert range_maj(lam) == maj_polynomial(lam).support()


class TestDecomposition:
    def test_single_cell(self):
        triple = cumulant_decomposition(Partition((1,)), 2)
        assert triple.alpha_r == 0
        assert triple.beta_r == 1
        # identity pins gamma: (B_2/2)(alpha - beta - gamma) = 0
        assert triple.gamma_r == -1

    def test_two_one(self):
        lam = Partition((2, 1))
        a, b, g = cumulant_decomposition(lam, 2)
        assert bernoulli(2) / 2 * (a - b - g) == Fraction(1, 4) == exact_cumulant(lam, 2)

    def test_identity_sweep(self):
        for n in range(1, 9):
            for lam in partitions_of(n):
                for r in (2, 4, 6):
                    a, b, g = cumulant_decomposition(lam, r)
                    assert bernoulli(r) / r * (a - b - g) == exact_cumulant(lam, r)

    def test_odd_rejected(self):
        with pytest.raises(OddOrder):
            cumulant_decomposition(Partition((2, 1)), 3)


class TestPredictedCumulant:
    def test_r2_tail_is_exactly_p1_over_48(self):
        # the difference between the exact variance and the two leading orders
        # is the linear term p1/48
        for lam in (Partition((4, 2, 2, 1)), Partition((5, 5)), Partition((3, 3, 3))):
            diff = exact_cumulant(lam, 2) - predicted_cumulant_exact(lam, 2)
            assert diff == Fraction(lam.n, 48)

    def test_single_row_remainder_is_linear(self):
        # exact cumulant vanishes for one row, so the prediction is pure remainder
        for n in (6, 12, 24, 48):
            lam = Partition((n,))
            err = abs(float(predicted_cumulant_exact(lam, 2)))
            assert err < 0.1 * n

    def test_odd_orders_predict_zero(self):
        assert predicted_cumulant_exact(Partition((3, 2)), 3) == 0

    def test_beyond_float_range_is_out_of_range(self):
        lam = Partition((3, 2))
        assert math.isfinite(predicted_cumulant(lam, 150))
        with pytest.raises(OutOfRange, match="order 200"):
            predicted_cumulant(lam, 200)


class TestTails:
    def test_two_point(self):
        poly = QPolynomial([1, 1], offset=1)
        assert tail_probability(poly, 2, "upper") == Fraction(1, 2)
        assert tail_probability(poly, 1, "upper") == 1
        assert tail_probability(poly, 0, "upper") == 1

    def test_against_enumeration(self):
        lam = Partition((4, 2, 2, 1))
        poly = maj_polynomial(lam)
        count = sum(c for m, c in maj_multiset(lam).items() if m >= 19)
        assert tail_probability(poly, 19, "upper") == Fraction(count, 216)

    def test_lower(self):
        poly = QPolynomial([1, 1], offset=1)
        assert tail_probability(poly, 1, "lower") == Fraction(1, 2)

    def test_every_threshold_against_a_coefficient_scan(self):
        poly = maj_polynomial(Partition((4, 2, 2, 1)))
        lo, hi = poly.support()
        exponents = range(lo, hi + 1)
        for threshold in range(lo - 3, hi + 4):
            upper = sum(c for m, c in zip(exponents, poly.coeffs) if m >= threshold)
            lower = sum(c for m, c in zip(exponents, poly.coeffs) if m <= threshold)
            assert tail_probability(poly, threshold, "upper") == Fraction(upper, 216)
            assert tail_probability(poly, threshold, "lower") == Fraction(lower, 216)


class TestKolmogorov:
    def test_two_point_value(self):
        poly = QPolynomial([1, 1], offset=1)
        expected = 0.5 - 0.5 * math.erfc(1 / math.sqrt(2))  # 1/2 - Phi(-1)
        assert abs(kolmogorov_distance_to_normal(poly) - expected) < 1e-14

    def test_shift_invariance(self):
        poly = maj_polynomial(Partition((3, 2, 1)))
        assert kolmogorov_distance_to_normal(poly) == kolmogorov_distance_to_normal(
            poly.shifted(17)
        )

    def test_degenerate(self):
        with pytest.raises(DegenerateDistribution):
            kolmogorov_distance_to_normal(QPolynomial([1], offset=3))

    @settings(deadline=None)
    @given(partition_strategy(max_n=30))
    def test_bit_identical_to_the_scalar_loop(self, lam):
        poly = maj_polynomial(lam)
        assume(len(poly.coeffs) > 1)
        value = kolmogorov_distance_to_normal(poly)
        assert type(value) is float and value == _d_kol_reference(poly)

    @pytest.mark.parametrize("offset", [0, 5, 10**6])
    def test_bit_identical_with_interior_zeros(self, offset):
        for coeffs in ([1, 0, 0, 2, 0, 1], [3, 0, 1], [1] + [0] * 40 + [7, 0, 2]):
            poly = QPolynomial(coeffs, offset)
            assert kolmogorov_distance_to_normal(poly) == _d_kol_reference(poly)
        poly = maj_polynomial(Partition((5, 3, 1))).shifted(offset)
        assert kolmogorov_distance_to_normal(poly) == _d_kol_reference(poly)

    @pytest.mark.parametrize(
        "build, n",
        [(two_row, 240), (three_row, 180), (staircase, 153),
         (two_row, 300), (three_row, 120), (staircase, 105)],
    )
    def test_bit_identical_on_workload_shapes(self, build, n):
        poly = maj_polynomial(build(n))
        assert kolmogorov_distance_to_normal(poly) == _d_kol_reference(poly)

    def test_bit_identical_at_an_offset_past_int64(self):
        poly = maj_polynomial(Partition((5, 3, 1))).shifted(10**20)
        assert kolmogorov_distance_to_normal(poly) == _d_kol_reference(poly)

    @pytest.mark.parametrize("lam", [(4, 2, 2, 1), (6, 3, 1), (5, 5, 2, 2)])
    @pytest.mark.parametrize("palindrome", [False, True])
    def test_bit_identical_with_a_mass_past_float_range(self, lam, palindrome):
        base = maj_polynomial(Partition(lam)).coeffs
        tilt = [min(i, len(base) - 1 - i) if palindrome else i for i in range(len(base))]
        poly = QPolynomial([c * 10**400 + t for c, t in zip(base, tilt)], offset=3)
        assert poly.at_one() > 2**1100 and (poly.coeffs == poly.coeffs[::-1]) == palindrome
        assert kolmogorov_distance_to_normal(poly) == _d_kol_reference(poly)

    @pytest.mark.parametrize("coeffs", [
        [3, -1, 2],  # a signed law
        [2**1100, -(2**1101), 2**1100 + 2**200],  # running sums past float range
        [1, 1],  # exact ties at the supremum
        [1, 2, 1],
    ])
    def test_bit_identical_on_signed_laws_and_ties(self, coeffs):
        poly = QPolynomial(coeffs)
        assert kolmogorov_distance_to_normal(poly) == _d_kol_reference(poly)

    def test_a_running_sum_past_float_range_overflows_as_in_the_scalar_loop(self):
        poly = QPolynomial([2**1030, -(2**1031), 2**1030 + 1])
        with pytest.raises(OverflowError):
            _d_kol_reference(poly)
        with pytest.raises(OutOfRange):
            kolmogorov_distance_to_normal(poly)

    # x (1, -3, 3, -1) and x (1, -4, 6, -4, 1), x = 2^1030, move neither the
    # mass nor the first two moments of (0, 1, 1, 0) and (0, 1, 0, 1, 0), so
    # only the running sums (about x / 2 times the mass) leave float range
    @pytest.mark.parametrize("coeffs", [
        [2**1030, -3 * 2**1030 + 1, 3 * 2**1030 + 1, -(2**1030)],
        [2**1030, -4 * 2**1030 + 1, 6 * 2**1030, -4 * 2**1030 + 1, 2**1030],  # a palindrome
    ])
    def test_only_a_running_sum_past_float_range_is_out_of_range(self, coeffs):
        poly = QPolynomial(coeffs)
        assert poly.moment(2) - poly.moment(1) ** 2 < 2
        with pytest.raises(OverflowError):
            _d_kol_reference(poly)
        with pytest.raises(OutOfRange):
            kolmogorov_distance_to_normal(poly)

    # past 2^52 the mean or the abscissae round, unevenly about the mean at
    # 10^20 + 8190 (the tie 10^20 + 8192 rounds down, the rest up)
    @pytest.mark.parametrize(
        "offset", [0, -7, 10**6, 2**52 + 3, 2**53 - 40, 2**53, 10**20, -(10**20), 10**20 + 8190]
    )
    @pytest.mark.parametrize("coeffs", [
        [1, 3, 3, 1], [1, 4, 6, 4, 1], [1] * 9,  # even and odd length
        [2, 0, 0, 5, 0, 0, 2], [1, 0, 3, 3, 0, 1],  # interior zeros
        [4, -1, 3, -1, 4], [2, -1, -1, 2],  # signed palindromes
        [1, 0, 0, 0, 100, 0, 0, 0, 1],  # the supremum at the centre jump
        [1, 1, 0, 0, 0, 60, 60, 0, 0, 0, 1, 1],  # at the jump below the centre
    ])
    def test_bit_identical_on_palindromes(self, coeffs, offset):
        poly = QPolynomial(coeffs, offset)
        assert kolmogorov_distance_to_normal(poly) == _d_kol_reference(poly)

    def test_supremum_at_the_centre_jump(self):
        # the CDF steps from 1/102 to 101/102 where Phi is 1/2
        poly = QPolynomial([1, 0, 0, 0, 100, 0, 0, 0, 1])
        value = kolmogorov_distance_to_normal(poly)
        assert value == _d_kol_reference(poly) and abs(value - 50 / 102) < 1e-15

    @settings(deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=30), st.booleans(),
           st.sampled_from([0, 3, 10**20]))
    def test_bit_identical_on_any_palindrome(self, half, odd, offset):
        poly = QPolynomial(half + half[len(half) - 1 - odd::-1], offset)
        assume(len(poly.coeffs) > 1)
        assert kolmogorov_distance_to_normal(poly) == _d_kol_reference(poly)

    def test_mirrored_phi_is_within_the_margin_of_one_minus_phi(self):
        # A mirrored jump takes its partner's gap; the candidate margin holds
        # while Phi(-s) and 1 - Phi(s) differ by at most (1.5 u + 1) 2^-53
        # with u = 24, i.e. while math.erfc is within 24 ulp on this platform.
        rng = np.random.default_rng(0)
        s = np.concatenate([
            np.linspace(-40, 40, 400_001),
            np.geomspace(1e-300, 40, 20_001),
            rng.standard_normal(100_000) * 8,
        ])
        s = np.concatenate([s, -s])
        phi = asymptotics.standard_normal_cdf
        gap = np.abs(phi(-s) - (1 - phi(s)))
        assert gap.max() <= (1.5 * 24 + 1) * 2**-53

    def test_variance_below_float_range(self):
        with pytest.raises(DegenerateDistribution):
            kolmogorov_distance_to_normal(QPolynomial([1, 10**400]))

    # the running sums of this signed palindrome reach 2^1030, past float
    # range, while every ratio to its mass 2^10 stays in range
    def test_a_signed_palindrome_with_sums_past_float_range_takes_the_loop(self):
        poly = QPolynomial([2**1030, 2**10 - 2**1031, 2**1030])
        value = kolmogorov_distance_to_normal(poly)
        assert value == _d_kol_reference(poly) and value > 2.0**1019

    @pytest.mark.parametrize("coeffs", [[1, 3, 3, 1], [2, 0, 5, 0, 2], [1] * 9])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_bit_identical_at_the_edge_of_exact_abscissae(self, coeffs, sign):
        # |offset| + L = 2^52 - 1 is the last maj law on the streamed passes;
        # one step further out it takes the loop
        for offset in (2**52 - len(coeffs) - 1, 2**52 - len(coeffs)):
            poly = QPolynomial(coeffs, sign * offset)
            assert kolmogorov_distance_to_normal(poly) == _d_kol_reference(poly)


def _loop_forbidden(poly):
    raise AssertionError("a maj law reached the scalar loop")


class TestKolmogorovRouting:
    """The streamed passes take every maj law; every other law takes the
    scalar loop that defines the value."""

    @settings(deadline=None)
    @given(partition_strategy(max_n=30))
    def test_maj_laws_never_reach_the_loop(self, lam):
        poly = maj_polynomial(lam)
        assume(len(poly.coeffs) > 1)
        with mock.patch.object(exact_dist, "_d_kol_loop", _loop_forbidden):
            kolmogorov_distance_to_normal(poly)

    @pytest.mark.parametrize(
        "build, n",
        [(two_row, 240), (three_row, 180), (staircase, 153),
         (two_row, 300), (three_row, 120), (staircase, 105)],
    )
    def test_workload_shapes_never_reach_the_loop(self, build, n, monkeypatch):
        monkeypatch.setattr(exact_dist, "_d_kol_loop", _loop_forbidden)
        kolmogorov_distance_to_normal(maj_polynomial(build(n)))

    @pytest.mark.parametrize("coeffs, offset", [
        ([3, -1, 2], 0),  # signed
        ([4, -1, 3, -1, 4], 5),  # a signed palindrome
        ([1, 0, 0, 2, 0, 1], 0),  # not a palindrome
        ([1] + [0] * 40 + [7, 0, 2], 10**6),
        ([1, 3, 3, 1], 2**52 - 4),  # |offset| + L = 2^52
        ([1, 3, 3, 1], -(2**52)),
        ([1, 4, 6, 4, 1], 10**20),
    ])
    def test_other_laws_always_reach_the_loop(self, coeffs, offset, monkeypatch):
        calls = []

        def loop(poly):
            calls.append(poly)
            return _d_kol_reference(poly)

        monkeypatch.setattr(exact_dist, "_d_kol_loop", loop)
        poly = QPolynomial(coeffs, offset)
        assert kolmogorov_distance_to_normal(poly) == _d_kol_reference(poly)
        assert calls == [poly]


def _d_kol_reference(poly):
    """d_Kol by a scalar loop over the coefficients, one jump at a time."""
    mean = poly.moment(1)
    sd = math.sqrt(float(poly.moment(2) - mean * mean))
    mean_f = float(mean)
    mass = poly.at_one()
    running = 0
    below = worst = 0.0
    for i, c in enumerate(poly.coeffs):
        if c == 0:
            continue
        gauss = asymptotics.standard_normal_cdf((poly.offset + i - mean_f) / sd)
        running += c
        here = running / mass
        worst = max(worst, abs(here - gauss), abs(below - gauss))
        below = here
    return worst


class TestLogLaplaceExact:
    def test_zero(self):
        assert log_laplace_exact(Partition((3, 1)), 0) == 0

    def test_two_route(self):
        lam = Partition((2, 1))
        poly = maj_polynomial(lam)
        direct = cmath.log(poly(math.exp(1.0 / 3.0)) / 2.0)
        assert abs(log_laplace_exact(lam, 1.0) - direct) < 1e-12

    def test_two_route_relative(self):
        lam = Partition((4, 2, 2, 1))
        poly = maj_polynomial(lam)
        for z in (0.5, 1.0, 2.0, -1.5):
            direct = math.log(poly(math.exp(z / 9.0)) / 216.0)
            value = log_laplace_exact(lam, z).real
            assert abs(value - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_single_row_vanishes(self):
        for z in (0.7, 1 + 0.5j, -2.0):
            assert abs(log_laplace_exact(Partition((8,)), z)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            log_laplace_exact(Partition((3, 1)), 3.2j)


    @pytest.mark.parametrize(
        "z", [math.nan, math.inf, -math.inf, complex(math.nan, 0.5), complex(1.0, math.inf)])
    def test_non_finite_argument(self, z):
        with pytest.raises(DomainError, match="is not finite$"):
            log_laplace_exact(Partition((3, 1)), z)

class TestFloatVariant:
    def test_bulk_statistics_match_exact(self):
        lam = Partition((20, 15, 7, 3, 3))
        poly = maj_polynomial(lam)
        offset, coeffs = maj_polynomial_float(lam)
        assert offset == poly.offset and len(coeffs) == len(poly.coeffs)
        exact = np.array([float(c) for c in poly.coeffs])
        assert abs(float(coeffs.sum()) - exact.sum()) <= 1e-12 * exact.sum()
        grid = np.arange(offset, offset + len(coeffs))
        mean = float((coeffs * grid).sum() / coeffs.sum())
        assert abs(mean - float(mean_maj(lam))) <= 1e-10
        cdf_f = np.cumsum(coeffs) / coeffs.sum()
        cdf_e = np.cumsum(exact) / exact.sum()
        assert float(np.max(np.abs(cdf_f.astype(float) - cdf_e))) < 1e-12

    def test_matches_exact_small(self):
        lam = Partition((5, 4, 2))
        poly = maj_polynomial(lam)
        offset, coeffs = maj_polynomial_float(lam)
        assert offset == poly.offset
        assert [int(c) for c in coeffs] == list(poly.coeffs)

    def test_matches_exact_for_every_small_partition(self):
        # vanishing sines (their signs, and chi = 0 at roots of the law) show here
        for n in range(1, 13):
            for lam in partitions_of(n):
                poly = maj_polynomial(lam)
                offset, coeffs = maj_polynomial_float(lam)
                assert offset == poly.offset and [int(c) for c in coeffs] == list(poly.coeffs)

    @pytest.mark.parametrize("build", [two_row, three_row, staircase])
    def test_bulk_statistics_past_the_cap(self, build):
        # closed forms only: the exact n = 400 polynomial is never built
        lam = build(400)
        offset, coeffs = maj_polynomial_float(lam)
        assert offset == range_maj(lam)[0] and offset + len(coeffs) - 1 == range_maj(lam)[1]
        grid = np.arange(offset, offset + len(coeffs), dtype=np.longdouble)
        mass = coeffs.sum()
        mean = (grid * coeffs).sum() / mass
        var = ((grid - mean) ** 2 * coeffs).sum() / mass

        def rel(got, exact):
            return abs(Fraction(*got.as_integer_ratio()) - exact) / exact

        assert rel(mass, count_standard_tableaux(lam)) <= 1e-12
        assert rel(mean, mean_maj(lam)) <= 1e-12
        assert rel(var, var_maj(lam)) <= 1e-12

    def test_zero_degree_past_the_cap(self):
        offset, coeffs = maj_polynomial_float(Partition((301,)))
        assert offset == 0 and list(coeffs) == [1]
        offset, coeffs = maj_polynomial_float(Partition((1,) * 310))
        assert offset == 310 * 309 // 2 and list(coeffs) == [1]

    # each has a d that divides more hooks than numerators, so the up-front
    # count of the cyclotomic factors Phi_d rejects all seven before any
    # arithmetic
    @pytest.mark.parametrize(
        "numerator, denominator",
        [
            ([2], [3]), ([3], [2]), ([1, 1], [2]), ([4], [1, 1, 3]),
            ([2, 3], [6]), ([6], [4]), ([4], [2, 2]),
        ],
    )
    def test_q_ratio_rejects_inexact_division(self, numerator, denominator):
        with pytest.raises(AssertionError, match="inexact division"):
            _q_ratio(numerator, denominator)


def _q_ratio_reference(numerator, denominator):
    """prod(1 - q^k) / prod(1 - q^h) on plain lists: every multiplication,
    then every division."""
    coeffs = [1]
    for k in numerator:
        coeffs += [0] * k
        for i in range(len(coeffs) - 1, k - 1, -1):
            coeffs[i] -= coeffs[i - k]
    for h in denominator:
        for i in range(h, len(coeffs)):
            coeffs[i] += coeffs[i - h]
        assert not any(coeffs[len(coeffs) - h:])
        del coeffs[len(coeffs) - h:]
    return coeffs


class TestQRatio:
    @settings(deadline=None)
    @given(partition_strategy(max_n=30), st.randoms(use_true_random=False))
    def test_matches_multiply_then_divide(self, lam, rng):
        numerator, denominator = exact_dist._ratio_factors(lam)
        expected = _q_ratio_reference(numerator, denominator)
        assert _q_ratio(numerator, denominator) == expected
        rng.shuffle(numerator)
        rng.shuffle(denominator)
        assert _q_ratio(numerator, denominator) == expected

    @pytest.mark.parametrize(
        "numerator, denominator",
        [
            ([1], []), ([1, 2], []), ([2], [1]),  # unequal counts: the mirror's sign
            ([], []), ([1], [1]), ([2, 3], [3, 2]),  # D = 0
            ([5], []), ([2, 9], [1]), ([2, 40], [1, 1]),  # numerators past the half
            ([4], [2]), ([4, 4, 6], [2, 2, 3]), ([3, 8], [4]),  # pairs k = 2h
            ([1] * 80, []), ([2] * 70, [1] * 70),  # binomials past int64
            # 5 m is the hook 5's one multiple below 50, folded for m <= 8;
            # the numerators 50..52 lift half to 77 or more
            *[([5 * m, 50, 51, 52], [5]) for m in range(2, 10)],
            ([15, 1], [5]), ([24], [3]), ([8], [1]),  # m h >= half: truncated folds
            ([24, 40, 41], [8, 6]),  # 8 takes 24 (m = 3), so 6 is divided out
            ([12, 18, 40, 41], [6, 6]),  # the second hook 6 takes 18 (m = 3)
            ([40, 30, 20, 7, 9], [10, 10, 10]),  # one hook on each of m = 2, 3, 4
            ([24, 16, 3, 5, 70], [8, 4, 2, 1]),  # folds, subtractions and divisions
        ],
    )
    def test_matches_reference_off_the_partition_path(self, numerator, denominator):
        expected = _q_ratio_reference(numerator, denominator)
        assert _q_ratio(numerator, denominator) == expected

    def test_odd_count_gap_mirrors_with_a_sign(self):
        assert _q_ratio([1], []) == [1, -1]
        assert _q_ratio([2, 9], [1]) == [1, 1] + [0] * 7 + [-1, -1]

    @pytest.mark.parametrize(
        "build, n", [(two_row, 300), (staircase, 300), (three_row, 180)]
    )
    def test_workload_shapes_at_integer_points(self, build, n):
        # P(q) prod(q^h - 1) = q^b prod_{k<=n}(q^k - 1) in exact integers, a
        # route that shares nothing with the q-ratio's division bookkeeping
        lam = build(n)
        poly = maj_polynomial(lam)
        for q in (2, 3):
            left = poly(q) * math.prod(q**h - 1 for h in hook_list(lam))
            right = q ** b_stat(lam) * math.prod(q**k - 1 for k in range(1, n + 1))
            assert left == right

    @pytest.mark.parametrize("k", [63, 64, 65, 96, 97, 128, 130, 300])
    def test_signed_binomials_across_limb_rows(self, k):
        # (1 - q)^k: alternating signs, so negative limbs are carried and the
        # top row is negative; past 2^62 and 2^94 rows are appended, and past
        # 2^254 the limb array grows by a block of rows
        expected = [(-1) ** i * math.comb(k, i) for i in range(k + 1)]
        assert _q_ratio([1] * k, []) == expected

    @pytest.mark.parametrize("n", [60, 100])
    def test_sn_against_a_product_of_q_integers(self, n):
        # n - 1 divisions by 1 - q, each a cumsum over a class of ~n^2/4 terms
        coeffs = [1]
        for k in range(2, n + 1):
            coeffs = [sum(coeffs[max(i - k + 1, 0):i + 1]) for i in range(len(coeffs) + k - 1)]
        assert maj_polynomial_sn(n) == QPolynomial(coeffs)

    @settings(deadline=None, max_examples=40)
    @given(partition_strategy(max_n=80))
    def test_matches_reference_on_multi_row_laws(self, lam):
        numerator, denominator = exact_dist._ratio_factors(lam)
        expected = _q_ratio_reference(numerator, denominator)
        assert _q_ratio(numerator, denominator) == expected


class TestPositiveMass:
    """Every division by the mass of a law refuses a zero or negative one."""

    @pytest.mark.parametrize("coeffs", [[], [1, -1], [1, -2], [0, -3]])
    @pytest.mark.parametrize("call", [
        lambda poly: poly.moment(1),
        lambda poly: tail_probability(poly, 0, "upper"),
        lambda poly: tail_probability(poly, 0, "lower"),
        kolmogorov_distance_to_normal,
        lambda poly: cumulants_from_polynomial(poly, 4),
        lambda poly: cumulant_from_polynomial(poly, 2),
    ])
    def test_rejected(self, coeffs, call):
        with pytest.raises(ValueError, match="^polynomial must have positive mass$"):
            call(QPolynomial(coeffs))
