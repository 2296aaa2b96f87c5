"""Exact finite-n layer: the maj generating polynomial through the q-integer
ratio, exact rational cumulants, closed-form mean/variance/range, exact tails
and the Kolmogorov distance to the standard normal law."""

from __future__ import annotations

import functools
import math
from collections import Counter, deque
from fractions import Fraction
from itertools import accumulate, compress, count, repeat
from operator import mul, rshift
from typing import NamedTuple, Sequence

import numpy as np

from .asymptotics import _check_domain, bernoulli, standard_normal_cdf, varphi
from .errors import CapExceeded, DegenerateDistribution, OddOrder, OutOfRange
from .partitions import (
    Partition,
    _require_nonempty,
    _require_size,
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

    __slots__ = ("coeffs", "offset", "_mass")

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
        self._mass = sum(self.coeffs)

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no degree")
        return self.offset + len(self.coeffs) - 1

    def support(self) -> tuple[int, int]:
        """(lowest, highest) exponent with nonzero coefficient."""
        return self.offset, self.degree

    def at_one(self) -> int:
        """The mass P(1), summed once when the polynomial is built."""
        return self._mass

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc * x ** self.offset

    def shifted(self, k: int) -> "QPolynomial":
        return QPolynomial(self.coeffs, self.offset + k)

    def moment(self, k: int) -> Fraction:
        """k-th raw moment of the normalised coefficient distribution."""
        exponents = range(self.offset, self.offset + len(self.coeffs))
        return self._normalised(sum(map(mul, self.coeffs, map(pow, exponents, repeat(k)))))

    def _normalised(self, total: int, power: int = 1) -> Fraction:
        """total / P(1)^power: the one division by the mass, which must be
        positive."""
        if self._mass <= 0:
            raise ValueError("polynomial must have positive mass")
        return Fraction(total, self._mass ** power)

    def _palindromic(self) -> bool:
        """Whether the coefficients read the same reversed, as a maj law's do."""
        return self.coeffs == self.coeffs[::-1]

    def to_json(self) -> dict:
        """Offset and decimal coefficient strings; a palindrome converts only
        its lower half and mirrors the strings."""
        coeffs = self.coeffs
        if not self._palindromic():
            return {"offset": self.offset, "coeffs": list(map(str, coeffs))}
        lower = list(map(str, coeffs[:(len(coeffs) + 1) // 2]))
        return {"offset": self.offset, "coeffs": lower + lower[:len(coeffs) // 2][::-1]}

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


# the largest multiple m = k / h folded: caps of 3 to 8 ran alike on the six
# large-shapes laws and at n = 600, 2 and 1 (no folds) slower
_FOLD_MAX = 8
_ROW_BLOCK = 8  # limb rows allocated at a time


def _q_ratio(numerator: Sequence[int], denominator: Sequence[int]) -> list[int]:
    """Coefficients of P = prod(1 - q^k, numerator) / prod(1 - q^h, denominator)
    as a list of Python ints.

    1 - q^h = -prod(Phi_d, d | h) over the cyclotomic Phi_d, so P is a
    polynomial iff, for every d, at least as many k as h are multiples of d;
    otherwise an AssertionError is raised before any arithmetic.  Its degree
    is then D = sum(k) - sum(h), and since 1 - q^-k = -q^-k (1 - q^k),
    q^D P(1/q) = (-1)^(#numerator - #denominator) P: the coefficients are a
    signed palindrome.  Only c_0..c_(D//2) are built, as power series mod
    q^half, half = D//2 + 1; a factor with k or h >= half is 1 there.

    Each hook h, largest first, is folded into an unused numerator k = m h
    with 2 <= m <= _FOLD_MAX, the smallest such m:
    (1 - q^(m h)) / (1 - q^h) = 1 + q^h + ... + q^((m - 1) h), m - 1 shifted
    adds (fewer where j h >= half; with m h >= half the truncated sum is
    1 / (1 - q^h) itself).  The other numerators go in in ascending k, then
    the folds, then the other hooks are divided out largest first, each by
    the recurrence out[i] = c[i] + out[i - h]: a cumulative sum down each
    residue class mod h, several times the cost of a shifted add.  It is
    taken row by row, as a cumsum over blocks of h limbs (one along the
    strided axis of all rows at once ran up to 1.6 times slower at n = 600).
    Every step is a ring operation mod q^half, so the order does not change
    the result, only the size of the partial products.  The upper half is
    the lower one mirrored, with that sign.

    The series is one int64 array of base-2^32 limbs, c_i = sum_j
    limbs[j, i] 2^(32 j).  Every step is linear, so it acts on each row alike.
    `bound` caps max |limb|: a shifted step at most doubles it, a fold of t
    terms multiplies it by t, a cumulative sum by the longest residue class,
    ceil(half / h).  Before a step could take it past 2^62 the limbs are
    carried (_carry) and the bound drops to 2^32 (so half must stay below
    2^30).  While one row suffices it is the law; otherwise the carried rows
    are the little-endian two's-complement bytes of each coefficient, read
    back by int.from_bytes.
    """
    held = Counter(d for k in numerator for d in _divisors(k))
    held.subtract(d for h in denominator for d in _divisors(h))
    if min(held.values(), default=0) < 0:
        raise AssertionError("inexact division by 1 - q^h (hook bug)")
    degree = sum(numerator) - sum(denominator)
    half = degree // 2 + 1  # 1 - q^k is 1 mod q^half once k >= half
    num = Counter(numerator)
    folds, divisions = [], []
    for h in sorted((h for h in denominator if h < half), reverse=True):
        m = next((m for m in range(2, _FOLD_MAX + 1) if num[m * h] > 0), 0)
        if m:
            num[m * h] -= 1
            folds.append((h, min(m, -(-half // h))))  # (hook, terms below half)
        else:
            divisions.append(h)
    # (exponent, bound growth, terms): terms None for a numerator, the fold's
    # terms, or 0 for a division
    steps = [(k, 2, None) for k in sorted(num.elements()) if k < half]
    steps += [(h, terms, terms) for h, terms in folds]
    steps += [(h, -(-half // h), 0) for h in divisions]
    buf = np.zeros((_ROW_BLOCK, half), dtype=np.int64)
    buf[0, 0] = 1
    rows, bound = 1, 1
    for e, growth, terms in steps:
        if bound * growth > 1 << 62:
            buf, rows = _carry(buf, rows)
            bound = 1 << 32
        bound *= growth
        limbs = buf[:rows]
        if terms is None:  # times 1 - q^e
            limbs[:, e:] -= limbs[:, :half - e]
        elif terms:  # times 1 + q^e + ... + q^((terms - 1) e)
            src = limbs[:, :half - e].copy()
            for shift in range(e, terms * e, e):
                limbs[:, shift:] += src[:, :half - shift]
        else:  # divided by 1 - q^e
            whole = half // e * e
            for row in limbs:
                classes = row[:whole].reshape(-1, e)
                np.cumsum(classes, axis=0, out=classes)
            limbs[:, whole:] += limbs[:, whole - e:half - e]
    if rows == 1:
        lower = buf[0].tolist()
    else:
        buf, rows = _carry(buf, rows)
        records = np.ascontiguousarray(buf[:rows].T, dtype="<u4").view(f"V{4 * rows}")
        lower = list(map(_from_le_bytes, records.ravel().tolist()))
    upper = lower[:degree + 1 - half][::-1]
    if (len(numerator) - len(denominator)) % 2:
        upper = [-c for c in upper]
    return lower + upper


_from_le_bytes = functools.partial(int.from_bytes, byteorder="little", signed=True)


def _carry(buf: np.ndarray, rows: int) -> tuple[np.ndarray, int]:
    """The same values in buf[:rows] with every row but the top in [0, 2^32)
    and the top in [-2^31, 2^31), a row added when the top leaves that range
    (buf grows by _ROW_BLOCK rows when it has no spare one).

    The floor shift >> carries negative limbs too.  Entries up to 2^62 in
    magnitude carry at most 2^30 into the next row, so nothing overflows.
    """
    for j in range(rows - 1):
        buf[j + 1] += buf[j] >> 32
        buf[j] &= 0xFFFFFFFF
    if ((buf[rows - 1] + (1 << 31)) >> 32).any():
        if rows == len(buf):
            buf = np.concatenate([buf, np.empty((_ROW_BLOCK, buf.shape[1]), np.int64)])
        np.right_shift(buf[rows - 1], 32, out=buf[rows])
        buf[rows - 1] &= 0xFFFFFFFF
        rows += 1
    return buf, rows


@functools.cache
def _divisors(h: int) -> tuple[int, ...]:
    """The divisors of h in ascending order, so 1 (for Phi_1) comes first."""
    return tuple(d for d in range(1, h + 1) if h % d == 0)


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


def _require_within_cap(n: int, exact_cap: int) -> None:
    """CapExceeded when a shape of n cells is past the exact big-integer cap;
    a caller that builds the shape checks its size first."""
    if n > exact_cap:
        raise CapExceeded(
            f"|lambda| = {n} exceeds the exact big-integer cap {exact_cap}; "
            "use maj_polynomial_float for the extended-precision variant"
        )


def maj_polynomial(lam: Partition, exact_cap: int = BIGINT_CAP) -> QPolynomial:
    """Generating polynomial of maj over the standard tableaux of lam.

    Built as q^b(lam) * prod(1 - q^k, k=1..n) / prod(1 - q^h, hooks) by
    _q_ratio, which proves the division exact before it starts; the mass is
    then checked against the hook-length count.
    """
    _require_nonempty(lam)
    _require_within_cap(lam.n, exact_cap)
    poly = QPolynomial(_q_ratio(*_ratio_factors(lam)), b_stat(lam))
    if poly.at_one() != count_standard_tableaux(lam):
        raise AssertionError("polynomial mass does not match the hook count")
    if min(poly.coeffs) < 0:
        raise AssertionError("negative coefficient in a maj polynomial")
    return poly


def maj_polynomial_float(lam: Partition) -> tuple[int, np.ndarray]:
    """Floating-point variant for partitions past the big-integer cap:
    (b(lam), longdouble counts) by inverting the characteristic function.

    On q = e^{i theta} the ratio over its value at q = 1 is
    chi(theta) e^{i theta D / 2}, D its degree, with the real function
    chi = prod(sin(k theta/2)/k, numerator) / prod(sin(h theta/2)/h, hooks)
    (the lists have equal length, so the sin(theta/2) of the q-integers
    cancel).  chi at N >= D + 1 roots of unity and one inverse real FFT give
    each count to about 1e-15 * f^lam absolute, and bulk statistics (mass,
    mean, variance, central CDF values) to 1e-12 relative.  Far-tail counts
    are noise and may be slightly negative; use the exact route for those.
    """
    _require_nonempty(lam)
    numerator, denominator = _ratio_factors(lam)
    degree = sum(numerator) - sum(denominator)
    size = _smooth_size(degree + 1)
    chi = _characteristic_function(numerator, denominator, size)
    j = np.arange(len(chi))
    phase = np.exp(-1j * np.pi * (j * degree % (2 * size)) / size)
    probabilities = np.fft.irfft(chi * phase, n=size)[: degree + 1]
    return b_stat(lam), np.rint(probabilities * np.longdouble(str(count_standard_tableaux(lam))))


def _smooth_size(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: any FFT length >= degree + 1 recovers the
    coefficients, and these need no Bluestein detour (a prime factor 823 of
    72424 cost 10 MiB and 15 ms)."""
    e = range(n.bit_length() + 1)
    return min(p << ((n - 1) // p).bit_length() for p in (3**b * 5**c for b in e for c in e))


def _characteristic_function(
    numerator: Sequence[int], denominator: Sequence[int], size: int
) -> np.ndarray:
    """chi(2 pi j / size) for j = 0..size // 2, taking the factors in pairs.

    With r = k j mod 2 size in integers, sin(pi r / size) is
    +-(pi s / size) sinc(s / size), s = min(r mod size, size - r mod size),
    negative for r >= size.  pi / size cancels within a pair, whose signed
    s / k ratios are multiplied (exactly 1 until some k j wraps, so chi near
    theta = 0, which fixes the bulk of the law, is accurate to rounding) and
    whose log sinc values are subtracted.  A vanishing sine (r = 0 or size)
    stands in by its slope (k/2) cos(pi r / size), i.e. s = +-k; chi is 0
    where the numerator has more vanishing sines than the denominator.
    """
    j = np.arange(size // 2 + 1)
    signed_s = np.arange(size, dtype=np.int32)  # r mod size, folded to s
    np.minimum(signed_s, size - signed_s, out=signed_s)
    signed_s = np.concatenate([signed_s, -signed_s])
    log_sinc = np.log(np.sinc(j / np.longdouble(size))).astype(float)

    def sines(k: int) -> tuple[np.ndarray, np.ndarray, slice]:
        rk = k * j % (2 * size)
        vanishing = slice(None, None, size // math.gcd(k, size))
        values = signed_s[rk]
        logs = log_sinc[np.abs(values)]
        values[vanishing] = np.where(rk[vanishing] == 0, k, -k)
        return values, logs, vanishing

    chi = np.ones(len(j))
    exponent = np.zeros(len(j), dtype=np.int64)
    log_sinc_sum = np.zeros(len(j))
    zeros = np.zeros(len(j), dtype=np.int64)
    for k, h in zip(numerator, denominator):
        (sk, lk, vk), (sh, lh, vh) = sines(k), sines(h)
        chi, e = np.frexp(chi * ((sk * float(h)) / (sh * float(k))))  # keeps chi in range
        exponent += e
        log_sinc_sum += lk - lh
        zeros[vk] += 1
        zeros[vh] -= 1
    chi = np.ldexp(chi, exponent) * np.exp(log_sinc_sum)
    chi[zeros > 0] = 0.0
    return chi


def maj_polynomial_sn(n: int) -> QPolynomial:
    """Generating polynomial of maj over all permutations of 1..n:
    the product of the q-integers [1]_q ... [n]_q."""
    _require_size(n)
    return QPolynomial(_q_ratio(range(1, n + 1), [1] * n), 0)


def exact_cumulant(lam: Partition, r: int) -> Fraction:
    """r-th cumulant of maj (r >= 2): (B_r / r)(sum i^r - sum hooks^r)."""
    if r < 2:
        raise ValueError("orders below 2 are served by mean_maj")
    n = lam.n
    power_gap = sum(i ** r for i in range(1, n + 1)) - sum(h ** r for h in hook_list(lam))
    return bernoulli(r) / r * power_gap


def cumulants_from_polynomial(poly: QPolynomial, r: int) -> tuple[Fraction, ...]:
    """Moment-route cumulants (kappa_1, ..., kappa_r) through the recursion
    kappa_s = m_s - sum_{j<s} C(s-1, j-1) kappa_j m_{s-j} on the raw moments,
    run on integers: with the power sums S_k = sum c_m m^k and the mass M,
    K_s = M^s kappa_s = S_s M^(s-1) - sum_{j<s} C(s-1, j-1) K_j S_{s-j} M^(s-j-1),
    so each order divides once."""
    if r < 1:
        raise ValueError("r must be >= 1")
    mass = poly.at_one()
    terms = poly.coeffs
    exponents = range(poly.offset, poly.offset + len(terms))
    sums = [mass]
    for _ in range(r):
        terms = list(map(mul, terms, exponents))
        sums.append(sum(terms))
    powers = [mass ** e for e in range(r)]
    scaled = [0] * (r + 1)
    for s in range(1, r + 1):
        scaled[s] = sums[s] * powers[s - 1] - sum(
            math.comb(s - 1, j - 1) * scaled[j] * sums[s - j] * powers[s - j - 1]
            for j in range(1, s)
        )
    return tuple(poly._normalised(k, s) for s, k in enumerate(scaled[1:], start=1))


def cumulant_from_polynomial(poly: QPolynomial, r: int) -> Fraction:
    """The r-th moment-route cumulant: the last of cumulants_from_polynomial."""
    return cumulants_from_polynomial(poly, r)[-1]


def mean_maj(lam: Partition) -> Fraction:
    """Closed-form mean n(n-1)/4 - p2/4 with p2 the second signed Frobenius
    power sum."""
    _require_nonempty(lam)
    n = lam.n
    return Fraction(n * (n - 1), 4) - frobenius_moment(lam, 2) / 4


def var_maj(lam: Partition) -> Fraction:
    """Closed-form variance (p1^3 - p3 - 3/2 p1^2 + 3/4 p1) / 36."""
    _require_nonempty(lam)
    p1 = Fraction(lam.n)
    p3 = frobenius_moment(lam, 3)
    return (p1 ** 3 - p3 - Fraction(3, 2) * p1 ** 2 + Fraction(3, 4) * p1) / 36


def range_maj(lam: Partition) -> tuple[int, int]:
    """Minimum and maximum of maj: (b(lam), n(n-1)/2 - sum C(row, 2))."""
    _require_nonempty(lam)
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
    """predicted_cumulant_exact as a float; OutOfRange beyond float range."""
    try:
        return float(predicted_cumulant_exact(lam, r))
    except OverflowError:
        raise OutOfRange(f"the predicted cumulant of order {r} exceeds float range") from None


def tail_probability(poly: QPolynomial, threshold: int, side: str = "upper") -> Fraction:
    """Exact mass at or beyond the threshold, normalised by the total count."""
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    at = threshold - poly.offset  # index of the threshold exponent
    tail = poly.coeffs[max(at, 0):] if side == "upper" else poly.coeffs[:max(at + 1, 0)]
    return poly._normalised(sum(tail))


def kolmogorov_distance_to_normal(poly: QPolynomial) -> float:
    """sup-distance between the standardised coefficient CDF and Phi, taken
    over both one-sided limits at every jump (every nonzero coefficient).

    The value is _d_kol_loop's, bit for bit, and every law but a maj law
    takes that loop.  A maj law here has L nonnegative coefficients that read
    the same reversed and |offset| + L < 2^52.  It takes three streamed
    passes over its first ceil(L / 2) coefficients.  The jump at L - 1 - i
    mirrors the one at i: its running sums at and below are M - P_(i-1) and
    M - P_i (M the mass, P_k = c_0 + ... + c_k), and its standardised
    abscissa is -s for s at i, since below 2^52 the mean offset + (L - 1) / 2
    and every abscissa are exact floats.

    The first pass gives the variance in exact integers: with K coefficients
    scanned, M_K = P_(K-1), T1 = sum_(k<K) P_k and T2 = sum_(k<K) (P_0 + ...
    + P_k), sum_(i<K) i c_i = K M_K - T1 and sum_(i<K) i^2 c_i = K^2 M_K -
    (2K + 1) T1 + 2 T2, by summation by parts; M times the variance is twice
    the scan's sum of (i - mean)^2 c_i (an odd L's centre adds 0).

    The second pass approximates each P_k / M in [0, 1] by (P_k >> cut) /
    (M >> cut) in floats, the cut taking M to 1000 bits: within 3.01 * 2^-53,
    so each gap max(|here - Phi|, |below - Phi|) is within 8.02 * 2^-53 of
    the loop's, and a mirrored jump, which takes its partner's gap, within
    (1.5 u + 1) 2^-53 more when erfc is within u ulp.  The jumps within
    1e-14 = 90 * 2^-53 of the largest gap are candidates, so while u <= 24
    (a few ulp is usual) the loop's maximum is a candidate or the mirror of
    one.  The third pass, up to the last candidate, takes the exact sums at
    and below each candidate, and the correctly rounded gaps there and at
    the mirrors give the value.
    """
    coeffs = poly.coeffs
    size = len(coeffs)
    scan = coeffs[:(size + 1) // 2]  # a palindrome's least coefficient is in it
    if abs(poly.offset) + size >= 1 << 52 or not poly._palindromic() or min(scan, default=0) < 0:
        return _d_kol_loop(poly)
    mass = poly.at_one()
    width = len(scan)
    # the scan's mass: half of M, with the centre of an odd L counted once more
    part = (mass + (coeffs[size // 2] if size % 2 else 0)) // 2
    # running sums of Q_k = P_0 + ... + P_k after two zeros: the last two
    # are T2 - T1 and T2
    before, t2 = deque(accumulate(accumulate(accumulate(scan), initial=0), initial=0), maxlen=2)
    t1 = t2 - before
    s1 = width * part - t1
    s2 = width * width * part - (2 * width + 1) * t1 + 2 * t2
    # the sum of (2i - (L - 1))^2 c_i over the scan, divided by 2 M
    var = float(poly._normalised(4 * s2 - 4 * (size - 1) * s1 + (size - 1) ** 2 * part) / 2)
    if var == 0:  # also a positive variance below float range
        raise DegenerateDistribution("zero variance; nothing to standardise")
    index = np.flatnonzero(np.fromiter(map(bool, scan), bool, width))
    s = (index - (size - 1) / 2) / math.sqrt(var)
    gauss = standard_normal_cdf(s)
    cut = max(0, mass.bit_length() - 1000)
    sums = accumulate(compress(scan, scan))  # the running sum at each jump
    tops = map(rshift, sums, repeat(cut)) if cut else sums  # a shift by 0 copies
    cdf = np.fromiter(map(float, tops), float, len(index)) / float(mass >> cut)
    below = np.concatenate([[0.0], cdf[:-1]])  # the CDF just below each jump
    gap = np.maximum(np.abs(cdf - gauss), np.abs(below - gauss))
    near = np.flatnonzero(gap + 1e-14 >= gap.max())
    # exact[j] is the running sum below jump j, exact[j + 1] the one at it
    wanted = np.zeros(near[-1] + 2, bool)
    wanted[near] = wanted[near + 1] = True
    exact = dict(zip(
        np.flatnonzero(wanted).tolist(),
        compress(accumulate(compress(scan, scan), initial=0), wanted.tolist()),
    ))
    # (sum at, sum below, Phi) at each candidate, then at each mirror
    refine = [(exact[j + 1], exact[j], g) for j, g in zip(near.tolist(), gauss[near].tolist())]
    refine += [
        (mass - exact[j], mass - exact[j + 1], g)
        for j, g in zip(near.tolist(), standard_normal_cdf(-s[near]).tolist())
    ]
    return max(max(abs(here / mass - g), abs(under / mass - g)) for here, under, g in refine)


def _d_kol_loop(poly: QPolynomial) -> float:
    """d_Kol by its definition, one jump at a time: each exact running sum
    P_k = c_0 + ... + c_k divided by the mass once (correctly rounded) and
    compared, with the sum before it, with Phi at the standardised exponent."""
    mean = poly.moment(1)
    var = poly.moment(2) - mean * mean
    mass, running, below, worst = poly.at_one(), 0, 0.0, 0.0
    try:
        mean_f, var_f = float(mean), (float(var) if var > 0 else 0.0)
        if var_f == 0:  # also a positive variance below float range
            raise DegenerateDistribution("zero variance; nothing to standardise")
        sd = math.sqrt(var_f)
        for m, c in zip(count(poly.offset), poly.coeffs):
            if c:
                gauss = standard_normal_cdf((m - mean_f) / sd)
                running += c
                here = running / mass
                worst = max(worst, abs(here - gauss), abs(below - gauss))
                below = here
    except OverflowError:
        raise OutOfRange("the mean, the variance or a running sum over the mass "
                         "of the law exceeds float range") from None
    return worst


def log_laplace_exact(lam: Partition, z: complex) -> complex:
    """Exact log E[e^{z maj / n}] assembled from the kernel:
    b(lam) z / n + sum_k varphi(kz/n) - sum_hooks varphi(hz/n)."""
    _require_nonempty(lam)
    z = complex(z)
    _check_domain(z, half=True)
    n = lam.n
    terms = varphi(np.array([*range(1, n + 1), *hook_list(lam)]) * z / n)
    return b_stat(lam) * z / n + complex(terms[:n].sum() - terms[n:].sum())
