"""Analytic layer: the even log-sinhc kernel and its derivatives, scaled
cumulant integrals over a Thoma measure, Legendre-Fenchel conjugation, strong
large-deviation estimates, Berry-Esseen bounds and Edgeworth corrections.

Domain convention: the kernel is analytic on the doubly cut plane
C minus (i[2*pi, inf) union i(-inf, -2*pi]).  Scaling the argument by t*x with
t in [0, 1] and x in [-1, 1] never leaves that domain, which is what keeps all
the integrals below well defined; integrands over pairs of atoms additionally
need the halved domain (|Im z| < pi on the imaginary axis).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateParameter,
    DomainError,
    OutOfRange,
    QuadratureError,
    ZeroAtomUnsupported,
)
from .partitions import DiscreteMeasure, Partition, _require_atom, _require_nonempty, _require_size

TWO_PI = 2.0 * math.pi

# Most Gauss-Legendre nodes in one rule: leggauss(n) solves a dense n x n
# eigenproblem, 1 s and 94 MiB at n = 2048, 6.7 s and 287 MiB at n = 4096
MAX_QUAD_NODES = 4096
# mock_fourier: Gauss nodes per oscillation period, and the most periods resolved
PANEL_NODES = 16
MAX_PANELS = 200_000


@lru_cache(maxsize=None)
def bernoulli(r: int) -> Fraction:
    """Exact B_r with B_1 = +1/2, from sum_{k<=r} C(r+1, k) B_k = r + 1; each
    B_k is computed once and kept, so B_0..B_r cost one pass."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r > 1 and r % 2:
        return Fraction(0)
    return 1 - Fraction(sum(math.comb(r + 1, k) * bernoulli(k) for k in range(r)), r + 1)


# The kernel's Taylor series at 0, sum over even r of B_r / (r * r!) z^r, through
# z^48 (on |z| < 2 the first omitted term is below 1e-20 of every order on both
# axes); _SERIES_DERIVS[k] is its k-th derivative in z^2, after a factor z for
# odd k, in Python floats: numpy arithmetic at import raises peak RSS ~0.2 MiB
_SERIES_DERIVS = tuple(
    tuple(float(math.perm(r, k) * bernoulli(r) / (r * math.factorial(r))) if r else 0.0
          for r in range(k + k % 2, 49, 2))
    for k in range(4))


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre settings for the t-integrals on [0, 1]."""

    nodes: int = 64
    max_doublings: int = 4
    rel_tol: float = 1e-12

    def __post_init__(self):
        # a start must leave room for the doubling that convergence needs
        if not 8 <= self.nodes <= MAX_QUAD_NODES // 2:
            raise ValueError(f"need 8 to {MAX_QUAD_NODES // 2} quadrature nodes, got {self.nodes}")
        if not 0 < self.rel_tol < math.inf:  # false for NaN too
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol}")
        if self.max_doublings < 1:
            # _integrate_unit judges convergence by comparing two passes
            raise ValueError("max_doublings must be >= 1")


DEFAULT_QUAD = QuadratureConfig()


@lru_cache(maxsize=64)
def _gauss_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped to [0, 1] (read-only)."""
    x, w = np.polynomial.legendre.leggauss(n)
    ts, ws = (x + 1.0) / 2.0, w / 2.0
    ts.flags.writeable = ws.flags.writeable = False
    return ts, ws


def _integrate_unit(f, quad: QuadratureConfig):
    """Integrate f over [0, 1], doubling the node count until two successive
    values agree to rel_tol (|delta| <= rel_tol * max(1, |value|)), and
    giving up rather than doubling past MAX_QUAD_NODES; the QuadratureError
    names the node count, the last change |delta| / max(1, |value|) and
    rel_tol.

    f maps a node vector to its values in one call, element by element. The
    first pass is one call on the n-node and 2n-node rules concatenated
    (QuadratureConfig keeps 2n within MAX_QUAD_NODES); each later doubling is
    one call on its own rule.
    """
    n = quad.nodes
    (ts, ws), (ts2, ws2) = _gauss_nodes(n), _gauss_nodes(2 * n)
    values = f(np.concatenate((ts, ts2)))
    # each rule summed left to right: BLAS dot products and numpy's pairwise
    # sums order their additions by build and array length, and printed
    # results must not depend on either
    prev, total = sum((ws * values[:n]).tolist()), sum((ws2 * values[n:]).tolist())
    n *= 2
    for doubling in range(1, quad.max_doublings + 1):
        if abs(total - prev) <= quad.rel_tol * max(1.0, abs(total)):
            return total
        if doubling == quad.max_doublings or 2 * n > MAX_QUAD_NODES:
            break
        n *= 2
        ts, ws = _gauss_nodes(n)
        prev, total = total, sum((ws * f(ts)).tolist())
    change = abs(total - prev) / max(1.0, abs(total))
    raise QuadratureError(
        f"integral did not stabilise with {n} nodes "
        f"(last change {change:.1e}, tolerance {quad.rel_tol:g})")


def _cut_point(z, cut: float):
    """First element of z on the imaginary axis with |Im z| >= cut, or None."""
    z = np.asarray(z)
    if z.dtype.kind != "c":
        return None
    bad = np.flatnonzero((z.real == 0.0) & (np.abs(z.imag) >= cut))
    return complex(z.flat[bad[0]]) if bad.size else None


def _check_domain(z, half: bool = False):
    """DomainError for z on the cut |Im z| >= 2*pi (half: |Im 2z|, for pairs
    of atoms) or, where a scalar enters, not finite; the kernel's arrays are
    checked for the cut only, in one pass."""
    bad = _cut_point(z, math.pi if half else TWO_PI)
    if bad is not None:
        scale = "2*" if half else ""
        raise DomainError(f"{scale}{bad} lies on the imaginary-axis cut |Im z| >= 2*pi")
    if not isinstance(z, np.ndarray) and not cmath.isfinite(z):
        raise DomainError(f"argument {z} is not finite")


def _require_finite(value: float, what: str):
    """ValueError naming what the value is unless it is finite."""
    if not math.isfinite(value):
        raise ValueError(f"{what} {value} is not finite")


def _horner(x: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """sum_i coeffs[i] x^i by Horner's rule, in place on one array: per
    element the same multiply-then-add steps as
    numpy.polynomial.polynomial.polyval, so bit for bit its value, without
    its two temporaries per coefficient."""
    value = x * 0
    value += coeffs[-1]
    for c in reversed(coeffs[:-1]):
        value *= x
        value += c
    return value


def _kernel(z, order: int) -> np.ndarray:
    """The order-th derivative of the kernel (order 0: the kernel itself),
    element by element on an array.

    Real input is computed in float64 and complex input in complex128, with
    the same formulas. Evenness maps every argument to Re z > 0 or to the
    upper imaginary axis, odd orders changing sign. There, with e = e^-z and
    d = 1 - e^-z (neither can overflow), phi(z) = z/2 + Log d - Log z (the
    principal branches stay continuous because |e^-z| < 1), and on the
    imaginary axis log(sin(xi/2) / (xi/2)), real for 0 < xi < 2*pi;
    phi'(z) = (1 + e)/(2d) - 1/z, phi''(z) = 1/z^2 - e/d^2 and
    phi'''(z) = -2/z^3 + e(1 + e)/d^3. Below |z| = 2, where these cancel,
    every order is its Taylor series through z^48 (_SERIES_DERIVS, Horner's
    rule in z^2, run in place by _horner). Against 50-digit values on both
    axes every order is within 2.7e-16 relative below |z| = 2, 7.8e-15 on
    [2, 4) and 7e-16 on [4, 6.2).
    """
    z = np.asarray(z)
    z = z.astype(np.complex128 if z.dtype.kind == "c" else np.float64, copy=False)
    _check_domain(z)
    shape = z.shape
    z = z.ravel()
    out = np.empty_like(z)
    small = np.abs(z) < 2.0
    zs = z[small]
    value = _horner(zs * zs, _SERIES_DERIVS[order])
    out[small] = value * zs if order % 2 else value
    big = ~small
    if not big.any():
        return out.reshape(shape)
    a = z[big]
    flip = (a.real < 0) | ((a.real == 0.0) & (a.imag < 0))
    a = np.where(flip, -a, a)
    if order == 0:
        value = np.empty_like(a)
        axis = a.real == 0.0
        if axis.any():
            half = 0.5 * a[axis].imag
            value[axis] = np.log(np.sin(half) / half)
        rest = ~axis
        ar = a[rest]
        value[rest] = 0.5 * ar + np.log(-np.expm1(-ar)) - np.log(ar)
    else:
        e, d = np.exp(-a), -np.expm1(-a)
        if order == 1:
            value = (1.0 + e) / (2.0 * d) - 1.0 / a
        elif order == 2:
            value = 1.0 / (a * a) - e / (d * d)
        else:
            value = -2.0 / (a * a * a) + e * (1.0 + e) / (d * d * d)
        if order % 2:
            value = np.where(flip, -value, value)
    out[big] = value
    return out.reshape(shape)


def phi(z):
    """Even kernel log(sinh(z/2) / (z/2)) on the doubly cut plane.

    An ndarray gives an ndarray (float64 for real input, complex128 for
    complex input); a scalar gives a complex.
    """
    if isinstance(z, np.ndarray):
        return _kernel(z, 0)
    return complex(_kernel(z, 0))


def varphi(z):
    """Odd-shifted kernel log((e^z - 1) / z) = phi(z) + z/2; arrays as phi."""
    return phi(z) + 0.5 * z


def phi_derivs(z):
    """First three derivatives of the kernel; arrays as phi, so an ndarray
    gives a 3-tuple of ndarrays and a scalar a 3-tuple of complex."""
    if isinstance(z, np.ndarray):
        return tuple(_kernel(z, k) for k in (1, 2, 3))
    return tuple(complex(_kernel(z, k)) for k in (1, 2, 3))


def _signed_atoms(mu: DiscreteMeasure) -> np.ndarray:
    """Locations (row 0) and weights (row 1) of the charged atoms away from
    x = 0, behind a leading (x, w) = (1, -1) that stands for the term free of x.

    The integrands over the measure have the form sum_atoms w (f(1) - f(x)),
    as in phi(tz) - phi(txz); since the weights sum to 1, that is minus the
    sum of w f(x) over these signed atoms. A caller whose f(0) is not 0 adds
    the atom at x = 0 itself.
    """
    return np.array([(1.0, -1.0)] + [(x, w) for x, w in mu.float_atoms() if w > 0 and x != 0]).T


def _lambda_deriv(mu: DiscreteMeasure | np.ndarray, z, order: int, quad: QuadratureConfig):
    """The order-th z-derivative of lambda_omega (order 0: lambda_omega):
    int_0^1 t^k (phi^(k)(tz) - sum_atoms w x^k phi^(k)(txz)) dt.

    mu is the measure or its _signed_atoms array, which a caller integrating
    many times over one measure builds once. Real z stays on the float64
    path. The integrand is one kernel call over all quadrature nodes and
    signed atoms at once; atoms at x = 0 contribute nothing.
    """
    xs, ws = mu if isinstance(mu, np.ndarray) else _signed_atoms(mu)
    weights = -ws * xs ** order

    def integrand(t: np.ndarray) -> np.ndarray:
        values = _kernel(np.multiply.outer(t * z, xs), order) @ weights
        return values if order == 0 else t ** order * values

    return _integrate_unit(integrand, quad)


def lambda_omega(mu: DiscreteMeasure, z: complex, quad: QuadratureConfig | None = None) -> complex:
    """Leading-order integral: int_0^1 sum_atoms w (phi(tz) - phi(t x z)) dt.

    Even in z; identically zero when the measure sits entirely at |x| = 1.
    """
    z = complex(z)
    _check_domain(z)
    if z == 0:
        return 0j
    return complex(_lambda_deriv(mu, z.real if z.imag == 0 else z, 0, quad or DEFAULT_QUAD))


def _require_nondegenerate(mu: DiscreteMeasure):
    if mu.concentrated_on_pm1():
        raise DegenerateParameter("measure concentrated on {-1, 1}")


def lambda_derivs(
    mu: DiscreteMeasure, h: float, quad: QuadratureConfig | None = None
) -> tuple[float, float, float]:
    """First three h-derivatives of lambda_omega along the real line.

    The k-th integrand is t^k phi^(k)(th) - (tx)^k phi^(k)(txh); the first
    derivative is strictly increasing in h (strict convexity away from the
    degenerate corners of the simplex).
    """
    _require_nondegenerate(mu)
    h = float(h)
    _check_domain(h)
    quad = quad or DEFAULT_QUAD
    return tuple(float(_lambda_deriv(mu, h, k, quad)) for k in (1, 2, 3))


def lambda_prime_limit(mu: DiscreteMeasure) -> float:
    """Slope of lambda_omega at infinity: (1 - int x mu(dx)) / 4."""
    return 0.25 * (1.0 - float(mu.moment(1)))


def _psi_pairs(x: np.ndarray, y: np.ndarray, z: complex) -> np.ndarray:
    """The two-atom integrand on equal-shape arrays of atom coordinates, for
    z in the halved domain.

    Where |xy| >= 1e-6 it is (phi((y-x)z) - phi(yz) - phi(-xz)) / (xy), from
    one order-0 kernel call over all such pairs. Where |x| and |y| are both
    below 1e-3 it is -z^2/12. In between it is the limit across the nearer
    axis, (1 - u coth u)/c^2 with u = cz/2 and c the coordinate of larger
    modulus, evaluated as -z phi'(cz)/c (since 1 - u coth u = -2u phi'(2u))
    from one order-1 kernel call.
    """
    xy = x * y
    out = np.empty(x.shape, dtype=complex)
    general = np.abs(xy) >= 1e-6
    origin = np.maximum(np.abs(x), np.abs(y)) < 1e-3
    axis = ~general & ~origin
    if general.any():
        xg, yg = x[general], y[general]
        k = _kernel(np.concatenate(((yg - xg) * z, yg * z, -xg * z)), 0).reshape(3, -1)
        out[general] = (k[0] - k[1] - k[2]) / xy[general]
    if axis.any():
        c = np.where(np.abs(x) <= np.abs(y), y, x)[axis]
        out[axis] = -z * _kernel(c * z, 1) / c
    out[origin] = -z * z / 12.0
    return out


def psi_integrand(x: float, y: float, z: complex) -> complex:
    """Continuous two-atom integrand with its limits across x = 0 and y = 0.

    Away from the axes this is (phi((y-x)z) - phi(yz) - phi(-xz)) / (xy); the
    limit branches fire when |xy| < 1e-6 and give (1 - (zy/2) coth(zy/2))/y^2,
    its mirror image, or -z^2/12 at the origin.  z must lie in the halved
    domain (DomainError) and x, y in [-1, 1], as atom locations of a measure
    (InvalidSimplexPoint).
    """
    z = complex(z)
    _check_domain(z, half=True)
    _require_atom(x)
    _require_atom(y)
    return complex(_psi_pairs(np.array([x], dtype=float), np.array([y], dtype=float), z)[0])


def psi_omega(mu: DiscreteMeasure, z: complex) -> complex:
    """Constant-order term: phi(z)/2 plus half the double atom sum of the
    two-atom integrand, evaluated over all pairs of charged atoms at once."""
    z = complex(z)
    _check_domain(z, half=True)
    if z == 0:
        return 0j
    # atoms at x = 0 stay: their pairs with other atoms are not zero here
    xs, ws = np.array([(x, w) for x, w in mu.float_atoms() if w != 0]).T
    x, y = np.meshgrid(xs, xs, indexing="ij")
    terms = np.multiply.outer(ws, ws) * _psi_pairs(x, y, z)
    # summed row-major, left to right, so the total does not depend on numpy's
    # pairwise summation order
    return 0.5 * (phi(z) + sum(terms.ravel().tolist(), 0j))


def legendre_star(
    mu: DiscreteMeasure, y: float, quad: QuadratureConfig | None = None
) -> tuple[float, float]:
    """Solve lambda'(h) = y and return (h, h*y - lambda(h)).

    The derivative is strictly increasing with range (-limit, limit), since
    lambda'' > 0. The root is bracketed by doubling and then found by
    safeguarded Newton steps on lambda'(h) = y, started from the lower end
    of the bracket; a step that would leave the bracket is replaced by
    bisection. Stops once the relative residual |lambda'(h) - y| / |y| is
    below 1e-12, and raises QuadratureError when it is not after 200 steps
    or when the bracket can shrink no further. The signed atoms are built
    once per solve, and every integral (slope, curvature and lambda at the
    root) is one _lambda_deriv call over them.
    """
    _require_nondegenerate(mu)
    y = float(y)
    limit = lambda_prime_limit(mu)
    if not 0.0 < abs(y) < limit:
        raise OutOfRange(f"need 0 < |y| < {limit}, got {y}")
    quad = quad or DEFAULT_QUAD
    target = abs(y)
    atoms = _signed_atoms(mu)

    def slope(h: float) -> float:
        return float(_lambda_deriv(atoms, h, 1, quad))

    lo, v, hi = 0.0, 0.0, 1.0  # lambda' is odd, so lambda'(0) = 0
    while (v_hi := slope(hi)) < target:
        lo, v = hi, v_hi
        hi *= 2.0
        if hi > 700.0:
            raise OutOfRange(f"deviation {y} is too close to the slope limit {limit}")
    h, steps = lo, 0
    while abs(v - target) > 1e-12 * target:
        if steps == 200:
            raise QuadratureError(
                f"Legendre conjugation at y = {y} did not converge in {steps} steps "
                f"(residual {abs(v - target):.3g})")
        steps += 1
        curvature = float(_lambda_deriv(atoms, h, 2, quad))
        newton = h + (target - v) / curvature if curvature > 0 else hi
        h = newton if lo < newton < hi else 0.5 * (lo + hi)
        if not lo < h < hi:
            raise QuadratureError(
                f"Legendre conjugation at y = {y} did not converge: the bracket "
                f"closed at h = {h!r} with residual {abs(v - target):.3g}")
        v = slope(h)
        if v < target:
            lo = h
        else:
            hi = h
    if y < 0:
        h = -h
    # lambda_omega(mu, h).real, with h != 0 real: the same order-0 integral
    rate = h * y - _lambda_deriv(atoms, h, 0, quad)
    return h, rate


@dataclass(frozen=True)
class LDReport:
    """Assembled strong large-deviation estimate for one (y, n) pair."""

    y: float
    side: str
    h: float
    rate: float
    psi_at_h: float
    lambda2_at_h: float
    estimate: float

    def to_dict(self) -> dict:
        return asdict(self)


def ld_estimate(
    mu_n: DiscreteMeasure,
    mu_limit: DiscreteMeasure,
    y: float,
    n: int,
    side: str = "upper",
    quad: QuadratureConfig | None = None,
) -> LDReport:
    """Tail estimate exp(-n*rate + psi(h)) / (|h| sqrt(2 pi n lambda''(h))).

    The decay rate is conjugated at the finite-n parameter mu_n, while the
    tilt h and the prefactor come from mu_limit; passing mu_n as mu_limit
    takes all of them from the finite-n parameter, conjugating once.
    An estimate below float range raises OutOfRange naming its log.
    """
    _require_size(n)
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    if y <= 0:
        raise OutOfRange("the deviation y must be positive")
    signed_y = y if side == "upper" else -y
    h, rate = legendre_star(mu_n, signed_y, quad)
    if mu_limit != mu_n:
        h, _ = legendre_star(mu_limit, signed_y, quad)
    psi_h = psi_omega(mu_limit, h).real
    lam2 = float(_lambda_deriv(mu_limit, h, 2, quad or DEFAULT_QUAD))
    denominator = abs(h) * math.sqrt(2.0 * math.pi * n * lam2)
    estimate = math.exp(-n * rate + psi_h) / denominator
    if estimate == 0.0:
        log_estimate = -n * rate + psi_h - math.log(denominator)
        raise OutOfRange(
            f"the estimate at n = {n} underflows float range: its log is {log_estimate:.6g}")
    return LDReport(
        y=y, side=side, h=h, rate=rate, psi_at_h=psi_h, lambda2_at_h=lam2,
        estimate=estimate,
    )


def berry_esseen_bound(lam: Partition) -> tuple[float, bool]:
    """Kolmogorov-distance bound 30/sqrt(n) and whether it applies.

    The bound needs n >= 4 and neither the first row nor the first column to
    hold more than half of the cells.
    """
    _require_nonempty(lam)
    n = lam.n
    widest = max(lam.rows[0], len(lam.rows))  # first row vs first column
    return 30.0 / math.sqrt(n), n >= 4 and 2 * widest <= n


def _oscillatory_log_integral(scale: float, h: float, xi: float) -> float:
    """int_0^1 log(1 + sin^2(t s xi / 2) / sinh^2(t s h / 2)) dt.

    The integrand oscillates with t-period 2*pi/(s*xi), so one Gauss panel of
    PANEL_NODES nodes is used per period; past MAX_PANELS periods it raises
    OutOfRange rather than under-resolve. 1/sinh^2(u) is taken as
    4 e^-2u / expm1(-2u)^2, which cannot overflow.
    """
    panels = max(1, math.ceil(abs(scale * xi) / TWO_PI))
    if panels > MAX_PANELS:
        raise OutOfRange(
            f"frequency xi = {xi} needs {panels} oscillation panels, more than {MAX_PANELS}")
    ts, ws = _gauss_nodes(PANEL_NODES)
    offsets = np.arange(panels, dtype=float)[:, None] / panels
    t = (offsets + np.asarray(ts)[None, :] / panels).ravel()
    w = np.tile(np.asarray(ws) / panels, panels)
    v = t * (scale * h)
    ratio = 4.0 * np.sin(t * (scale * xi / 2.0)) ** 2 * np.exp(-v) / np.expm1(-v) ** 2
    return float(w @ np.log1p(ratio))


def _require_tilt(h: float) -> float:
    """|h| for a tilt that is nonzero (else DegenerateParameter) and finite."""
    if h == 0:
        raise DegenerateParameter("tilt h must be nonzero")
    _require_finite(h, "tilt")
    return abs(float(h))


def mock_fourier(mu: DiscreteMeasure, h: float, xi: float) -> float:
    """Re(lambda(h + i*xi) - lambda(h)), negative for xi != 0.

    Evaluated through the real-part identity
    Re phi(a + ib) - phi(a) = log(1 + sin^2(b/2)/sinh^2(a/2)) / 2, with one
    oscillation-resolving panel per period up to |xi| = 200000 * 2*pi, about
    1.26e6; a larger |xi| raises OutOfRange. An atom at x = 0 contributes
    its t-free limit log(1 + xi^2/h^2) / 2.
    Nothing checks the 16-node panel rule for convergence: the x = 1 integral
    is off by 4.3e-4 relative at h = 0.05, xi = 50 and 9e-6 at h = 0.5.
    """
    h = _require_tilt(h)
    _require_nondegenerate(mu)
    _require_finite(xi, "frequency")
    if xi == 0:
        return 0.0
    xi = abs(float(xi))
    atoms = _signed_atoms(mu).T.tolist()
    total = sum(w * _oscillatory_log_integral(abs(x), h, xi) for x, w in atoms)
    return -0.5 * (total + float(mu.mass_at_zero()) * math.log1p(xi * xi / (h * h)))


def mock_fourier_limit(
    mu: DiscreteMeasure, h: float, quad: QuadratureConfig | None = None
) -> float:
    """Limit of the previous quantity as xi -> infinity:
    int_0^1 int log((1 - e^{-t|x|h}) / (1 - e^{-th})) mu(dx) dt.

    Diverges to -infinity when the measure charges {0}; such measures are
    rejected rather than regularised.
    """
    h = _require_tilt(h)
    if mu.mass_at_zero() > 0:
        raise ZeroAtomUnsupported("the limit integrand is -inf on an atom at 0")
    xs, ws = _signed_atoms(mu)

    def integrand(t: np.ndarray) -> np.ndarray:
        return np.log(-np.expm1(-np.multiply.outer(t * h, np.abs(xs)))) @ ws

    return float(_integrate_unit(integrand, quad or DEFAULT_QUAD))


def bochner_check(
    mu: DiscreteMeasure, xis, quad: QuadratureConfig | None = None
) -> tuple[list[list[float]], float]:
    """Matrix exp(lambda(i(xi_i - xi_j))) and its smallest eigenvalue.

    For a log-Laplace transform of an actual probability law this matrix
    would be nonnegative definite; a negative eigenvalue certifies that the
    leading-order integral transform is not one.
    """
    xis = [float(v) for v in xis]
    if not xis:
        raise ValueError("xis must be nonempty")
    for xi in xis:
        _require_finite(xi, "frequency")
    cache: dict[float, float] = {0.0: 0.0}

    def lam_imag(delta: float) -> float:
        key = abs(delta)  # evenness
        if key not in cache:
            # not 1j * key, which is nan + inf j when key is inf
            cache[key] = lambda_omega(mu, complex(0.0, key), quad).real
        return cache[key]

    matrix = [
        [math.exp(lam_imag(xi - xj)) for xj in xis]
        for xi in xis
    ]
    return matrix, float(np.linalg.eigvalsh(matrix).min())


def standard_normal_cdf(s: float | np.ndarray) -> float | np.ndarray:
    """Phi(s) through erfc; absolute error well below 1e-15.  An array takes
    one math.erfc per entry, so each entry is bit for bit the scalar value."""
    x = -s / math.sqrt(2.0)
    if isinstance(x, np.ndarray):
        return 0.5 * np.fromiter(map(math.erfc, x.ravel().tolist()), float).reshape(x.shape)
    return 0.5 * math.erfc(x)


def edgeworth_cdf(
    mu: DiscreteMeasure, h: float, n: int, t: float,
    quad: QuadratureConfig | None = None,
) -> float:
    """Third-order corrected normal CDF for the tilted, rescaled statistic.

    G(t) = Phi(t) - lambda'''(h) (t^2 - 1) e^{-t^2/2} / (6 sqrt(2 pi n lambda''(h)^3));
    the correction integrates to zero, so G(-inf) = 0 and G(+inf) = 1.
    """
    _require_size(n)
    _require_nondegenerate(mu)
    h = float(h)
    _check_domain(h)
    lam2, lam3 = (float(_lambda_deriv(mu, h, k, quad or DEFAULT_QUAD)) for k in (2, 3))
    if lam2 <= 0:
        raise DegenerateParameter("second derivative must be positive")
    coef = lam3 / (6.0 * math.sqrt(float(n) * lam2 ** 3))
    density = math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    return standard_normal_cdf(t) - coef * (t * t - 1.0) * density


def sn_log_laplace(n: int, z: complex) -> complex:
    """Centred log-Laplace transform of maj/n for a uniform permutation:
    sum_{k=1..n} varphi(kz/n) - n varphi(z/n) - (n-1) z / 4."""
    _require_size(n)
    z = complex(z)
    _check_domain(z)
    terms = varphi(np.arange(1, n + 1) * z / n)
    return complex(terms.sum()) - n * terms[0] - (n - 1) * z / 4.0
