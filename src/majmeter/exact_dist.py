"""Exact finite-n layer: the maj generating polynomial through the q-integer
ratio, exact rational cumulants, closed-form mean/variance/range, exact tails
and the Kolmogorov distance to the standard normal law."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .asymptotics import standard_normal_cdf, varphi
from .errors import (
    CapExceeded,
    DegenerateDistribution,
    DomainError,
    EmptyPartition,
    OddOrder,
)
from .partitions import (
    Partition,
    b_stat,
    count_standard_tableaux,
    descent_coordinates,
    frobenius_moment,
    hook_list,
)

BIGINT_CAP = 300


class QPolynomial:
    """Dense polynomial sum_m c_m q^m with arbitrary-precision integer
    coefficients; `offset` is the exponent of the first stored coefficient."""

    __slots__ = ("coeffs", "offset")

    def __init__(self, coeffs: Sequence[int], offset: int = 0):
        coeffs = list(coeffs)
        hi = len(coeffs)
        while hi > 0 and coeffs[hi - 1] == 0:
            hi -= 1
        lo = 0
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        self.coeffs = tuple(coeffs[lo:hi])
        self.offset = offset + lo if self.coeffs else 0

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no degree")
        return self.offset + len(self.coeffs) - 1

    def support(self) -> tuple[int, int]:
        """(lowest, highest) exponent with nonzero coefficient."""
        return self.offset, self.degree

    def at_one(self) -> int:
        return sum(self.coeffs)

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc * x ** self.offset

    def shifted(self, k: int) -> "QPolynomial":
        return QPolynomial(self.coeffs, self.offset + k)

    def moment(self, k: int) -> Fraction:
        """k-th raw moment of the normalised coefficient distribution."""
        total = sum(c * (self.offset + i) ** k for i, c in enumerate(self.coeffs))
        return Fraction(total, self.at_one())

    def to_json(self) -> dict:
        return {"offset": self.offset, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "QPolynomial":
        return cls([int(c) for c in obj["coeffs"]], int(obj["offset"]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QPolynomial)
            and self.coeffs == other.coeffs
            and self.offset == other.offset
        )

    def __repr__(self) -> str:
        return f"QPolynomial({list(self.coeffs)!r}, offset={self.offset})"


def _mul_one_minus_power(coeffs: list[int], k: int) -> list[int]:
    """Multiply by (1 - q^k)."""
    out = coeffs + [0] * k
    for i, c in enumerate(coeffs):
        out[i + k] -= c
    return out


def _div_one_minus_power(coeffs: list[int], k: int) -> list[int]:
    """Divide exactly by (1 - q^k); raises if a nonzero remainder appears."""
    m = len(coeffs) - k
    if m < 1:
        raise AssertionError("quotient degree would be negative")
    out = [0] * m
    for i in range(m):
        out[i] = coeffs[i] + (out[i - k] if i >= k else 0)
    for i in range(m, len(coeffs)):
        if coeffs[i] + out[i - k] != 0:
            raise AssertionError(f"inexact division by 1 - q^{k} (hook bug)")
    return out


def _ratio_factors(lam: Partition) -> tuple[list[int], list[int]]:
    """Numerator exponents 1..n and denominator hook exponents, after
    cancelling the common multiset."""
    hooks = Counter(hook_list(lam))
    numerator = []
    for k in range(1, lam.n + 1):
        if hooks[k] > 0:
            hooks[k] -= 1
        else:
            numerator.append(k)
    denominator = [h for h in sorted(hooks.elements())]
    return numerator, denominator


def maj_polynomial(lam: Partition, exact_cap: int = BIGINT_CAP) -> QPolynomial:
    """Generating polynomial of maj over the standard tableaux of lam.

    Built as q^b(lam) * prod(1 - q^k, k=1..n) / prod(1 - q^h, hooks); every
    intermediate quotient is itself a polynomial, so each division asserts a
    zero remainder.
    """
    n = lam.n
    if n < 1:
        raise EmptyPartition("need a nonempty partition")
    if n > exact_cap:
        raise CapExceeded(
            f"|lambda| = {n} exceeds the exact big-integer cap {exact_cap}; "
            "use maj_polynomial_float for the extended-precision variant"
        )
    numerator, denominator = _ratio_factors(lam)
    coeffs = [1]
    for k in numerator:
        coeffs = _mul_one_minus_power(coeffs, k)
    for h in denominator:
        coeffs = _div_one_minus_power(coeffs, h)
    poly = QPolynomial(coeffs, b_stat(lam))
    if poly.at_one() != count_standard_tableaux(lam):
        raise AssertionError("polynomial mass does not match the hook count")
    if any(c < 0 for c in poly.coeffs):
        raise AssertionError("negative coefficient in a maj polynomial")
    return poly


def maj_polynomial_float(lam: Partition) -> tuple[int, np.ndarray]:
    """Extended-precision (80-bit) variant for partitions past the big-integer
    cap; same recurrences on numpy longdouble coefficients.

    Each operation is accurate to ~1e-19 of the largest intermediate value, so
    bulk statistics (total mass, mean, variance, central CDF values) keep well
    over 12 significant digits.  Individual coefficients deep in the tails can
    lose relative accuracy to cancellation; use the exact construction when
    single far-tail counts matter.
    """
    n = lam.n
    if n < 1:
        raise EmptyPartition("need a nonempty partition")
    numerator, denominator = _ratio_factors(lam)
    coeffs = np.ones(1, dtype=np.longdouble)
    for k in numerator:
        out = np.concatenate([coeffs, np.zeros(k, dtype=np.longdouble)])
        out[k:] -= coeffs
        coeffs = out
    for h in denominator:
        m = len(coeffs) - h
        out = coeffs[:m].copy()
        for r in range(min(h, m)):
            np.cumsum(out[r::h], out=out[r::h])
        coeffs = out
    return b_stat(lam), coeffs


def maj_polynomial_sn(n: int) -> QPolynomial:
    """Generating polynomial of maj over all permutations of 1..n:
    the product of the q-integers [1]_q ... [n]_q."""
    if n < 1:
        raise ValueError("n must be >= 1")
    coeffs = [1]
    for k in range(1, n + 1):
        coeffs = _mul_one_minus_power(coeffs, k)
    for _ in range(n):
        coeffs = _div_one_minus_power(coeffs, 1)
    return QPolynomial(coeffs, 0)


@lru_cache(maxsize=None)
def bernoulli(r: int) -> Fraction:
    """Bernoulli number B_r as an exact Fraction, with the convention
    B_1 = +1/2 (generating series t / (1 - e^{-t}))."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    row = [Fraction(0)] * (r + 1)
    for m in range(r + 1):
        row[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
    return row[0]


def exact_cumulant(lam: Partition, r: int) -> Fraction:
    """r-th cumulant of maj (r >= 2): (B_r / r)(sum i^r - sum hooks^r)."""
    if r < 2:
        raise ValueError("orders below 2 are served by mean_maj")
    n = lam.n
    power_gap = sum(i ** r for i in range(1, n + 1)) - sum(h ** r for h in hook_list(lam))
    return bernoulli(r) / r * power_gap


def cumulant_from_polynomial(poly: QPolynomial, r: int) -> Fraction:
    """Moment-route cumulant through the recursion
    kappa_s = m_s - sum_{j<s} C(s-1, j-1) kappa_j m_{s-j} on the raw moments."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if poly.at_one() <= 0:
        raise ValueError("polynomial must have positive mass")
    moments = [Fraction(1)] + [poly.moment(k) for k in range(1, r + 1)]
    kappa = [Fraction(0)] * (r + 1)
    for s in range(1, r + 1):
        kappa[s] = moments[s] - sum(
            math.comb(s - 1, j - 1) * kappa[j] * moments[s - j] for j in range(1, s)
        )
    return kappa[r]


def mean_maj(lam: Partition) -> Fraction:
    """Closed-form mean n(n-1)/4 - p2/4 with p2 the second signed Frobenius
    power sum."""
    if lam.n < 1:
        raise EmptyPartition("need a nonempty partition")
    n = lam.n
    return Fraction(n * (n - 1), 4) - frobenius_moment(lam, 2) / 4


def var_maj(lam: Partition) -> Fraction:
    """Closed-form variance (p1^3 - p3 - 3/2 p1^2 + 3/4 p1) / 36."""
    if lam.n < 1:
        raise EmptyPartition("need a nonempty partition")
    p1 = Fraction(lam.n)
    p3 = frobenius_moment(lam, 3)
    return (p1 ** 3 - p3 - Fraction(3, 2) * p1 ** 2 + Fraction(3, 4) * p1) / 36


def range_maj(lam: Partition) -> tuple[int, int]:
    """Minimum and maximum of maj: (b(lam), n(n-1)/2 - sum C(row, 2))."""
    if lam.n < 1:
        raise EmptyPartition("need a nonempty partition")
    n = lam.n
    top = n * (n - 1) // 2 - sum(r * (r - 1) // 2 for r in lam.rows)
    return b_stat(lam), top


class DecompositionTriple(NamedTuple):
    """The three power-sum pieces whose combination (B_r/r)(a - b - g) equals
    the r-th cumulant of maj."""

    alpha_r: Fraction
    beta_r: Fraction
    gamma_r: Fraction


def cumulant_decomposition(lam: Partition, r: int) -> DecompositionTriple:
    """Pairwise descent gaps, shifted contents and the triangular weight sums
    entering the even-cumulant rewrite (with n = |lambda|)."""
    if r < 2 or r % 2 == 1:
        raise OddOrder("the decomposition is defined for even r >= 2")
    n = lam.n
    coords = descent_coordinates(lam, n)
    alpha = Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            alpha += (coords[i] - coords[j]) ** r  # even power: half the full double sum
    beta = Fraction(sum((n + (j - i)) ** r for i, j in lam.cells()))
    gamma = Fraction(sum((n - i - 1) * i ** r for i in range(1, n + 1)))
    return DecompositionTriple(alpha, beta, gamma)


def predicted_cumulant_exact(lam: Partition, r: int) -> Fraction:
    """Two leading orders of the r-th cumulant in the signed Frobenius power
    sums p_k = frobenius_moment(lam, k):

    (B_r/(r(r+1)))(p1^(r+1) - p_(r+1))
      + (B_r/(2r))(p1^r + sum_s C(r,s)(-1)^s p_s p_(r-s)).
    """
    if r < 2:
        raise ValueError("prediction applies to orders r >= 2")
    br = bernoulli(r)
    if br == 0:
        return Fraction(0)
    p = [Fraction(0)] + [frobenius_moment(lam, k) for k in range(1, r + 2)]
    leading = br / (r * (r + 1)) * (p[1] ** (r + 1) - p[r + 1])
    cross = p[1] ** r + sum(
        math.comb(r, s) * (-1) ** s * p[s] * p[r - s] for s in range(1, r)
    )
    return leading + br / (2 * r) * cross


def predicted_cumulant(lam: Partition, r: int) -> float:
    return float(predicted_cumulant_exact(lam, r))


def tail_probability(poly: QPolynomial, threshold: int, side: str = "upper") -> Fraction:
    """Exact mass at or beyond the threshold, normalised by the total count."""
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    total = 0
    for i, c in enumerate(poly.coeffs):
        m = poly.offset + i
        if (side == "upper" and m >= threshold) or (side == "lower" and m <= threshold):
            total += c
    return Fraction(total, poly.at_one())


def kolmogorov_distance_to_normal(poly: QPolynomial) -> float:
    """sup-distance between the standardised coefficient CDF and Phi, taken
    over both one-sided limits at every jump."""
    mean = poly.moment(1)
    var = poly.moment(2) - mean * mean
    if var <= 0:
        raise DegenerateDistribution("zero variance; nothing to standardise")
    sd = math.sqrt(float(var))
    mean_f = float(mean)
    mass = poly.at_one()
    running = 0
    worst = 0.0
    for i, c in enumerate(poly.coeffs):
        if c == 0:
            continue
        m = poly.offset + i
        s = (m - mean_f) / sd
        gauss = standard_normal_cdf(s)
        below = running / mass
        running += c
        here = running / mass
        worst = max(worst, abs(here - gauss), abs(below - gauss))
    return worst


def log_laplace_exact(lam: Partition, z: complex) -> complex:
    """Exact log E[e^{z maj / n}] assembled from the kernel:
    b(lam) z / n + sum_k varphi(kz/n) - sum_hooks varphi(hz/n)."""
    if lam.n < 1:
        raise EmptyPartition("need a nonempty partition")
    z = complex(z)
    if z.real == 0.0 and abs(z.imag) >= math.pi:
        raise DomainError(f"2*{z} lies on the imaginary-axis cut")
    n = lam.n
    total = b_stat(lam) * z / n
    for k in range(1, n + 1):
        total += varphi(k * z / n)
    for h in hook_list(lam):
        total -= varphi(h * z / n)
    return total
