"""Reference values and output checks, computed apart from majmeter.

Nothing here imports majmeter: every reference comes from a closed formula
or an independent construction (hook-length formula, q-binomial law,
partition-count recurrence, numpy eigenvalues), so a fault in the program
cannot hide behind an identical fault in its own reference.

Each `check_*` function takes one call's output and returns a list of
failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction

import numpy as np

# Criterion 01 window for the smallest Bochner eigenvalue at omega = 0.
BOCHNER_WINDOW = (-0.0155, -0.0115)
SAMPLE_SIGMAS = 5.0
FLOAT_REL_TOL = 1e-12
DKOL_ABS_TOL = 1e-12
TAIL_REL_TOL = 1e-14


# ---------------------------------------------------------------- shapes


def family_rows(name: str, n: int) -> tuple[int, ...]:
    """Rows of the built-in families: floors of n times the row frequencies
    with the remainder on the first row; the staircase is the largest
    (k, ..., 1) fitting in n cells, remainder on the first row."""
    if name == "staircase":
        k = 1
        while (k + 1) * (k + 2) // 2 <= n:
            k += 1
        rows = list(range(k, 0, -1))
        rows[0] += n - k * (k + 1) // 2
        return tuple(rows)
    freqs = {
        "two-row": (Fraction(1, 2), Fraction(1, 2)),
        "three-row": (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
    }[name]
    rows = [math.floor(n * f) for f in freqs]
    rows[0] += n - sum(rows)
    return tuple(r for r in rows if r > 0)


def hooks(rows) -> list[int]:
    cols = [sum(1 for r in rows if r > j) for j in range(rows[0])]
    return [rows[i] - j + cols[j] - i - 1 for i in range(len(rows)) for j in range(rows[i])]


def support(rows) -> tuple[int, int]:
    """(b(lambda), C(n,2) - sum C(lambda_i, 2)): the least and largest maj."""
    n = sum(rows)
    return (sum(i * r for i, r in enumerate(rows)),
            n * (n - 1) // 2 - sum(r * (r - 1) // 2 for r in rows))


def tableau_count(rows) -> int:
    """f^lambda by the hook-length formula."""
    return math.factorial(sum(rows)) // math.prod(hooks(rows))


def maj_variance(rows) -> Fraction:
    """Variance of maj: (sum_{i<=n} i^2 - sum hooks^2) / 12."""
    n = sum(rows)
    return Fraction(sum(i * i for i in range(1, n + 1)) - sum(h * h for h in hooks(rows)), 12)


def partition_counts(upto: int) -> list[int]:
    """p(0..upto) by the coin-change recurrence over part sizes."""
    p = [1] + [0] * upto
    for part in range(1, upto + 1):
        for s in range(part, upto + 1):
            p[s] += p[s - part]
    return p


def measure_moment(rows, k: int) -> float:
    """k-th moment (k >= 1) of the finite-n Thoma measure: atoms a_i/n with
    weight a_i/n and -b_i/n with weight b_i/n, from the modified Frobenius
    coordinates a_i = lambda_i - i + 1/2, b_i = lambda'_i - i + 1/2."""
    n = sum(rows)
    cols = [sum(1 for r in rows if r > j) for j in range(rows[0])]
    d = sum(1 for i, r in enumerate(rows) if r > i)
    a = [Fraction(2 * (rows[i] - i) - 1, 2 * n) for i in range(d)]
    b = [Fraction(2 * (cols[i] - i) - 1, 2 * n) for i in range(d)]
    return float(sum(x ** (k + 1) for x in a) + (-1) ** k * sum(x ** (k + 1) for x in b))


# ------------------------------------------------------ reference laws


def _times_one_minus_power(c: np.ndarray, m: int) -> np.ndarray:
    out = np.concatenate([c, np.zeros(m, dtype=object)])
    out[m:] -= c
    return out


def _over_one_minus_power(c: np.ndarray, m: int) -> np.ndarray:
    """Exact quotient by (1 - q^m); a nonzero remainder is a fault."""
    q = c[: len(c) - m].copy()
    for r in range(min(m, len(q))):
        q[r::m] = np.cumsum(q[r::m])
    rem = c[len(q):].copy()
    rem[m - min(m, len(q)):] += q[max(0, len(q) - m):]
    if any(rem):
        raise ArithmeticError(f"(1 - q^{m}) does not divide the product")
    return q


def _ratio(numerator, denominator) -> list[int]:
    c = np.ones(1, dtype=object)
    for m in numerator:
        c = _times_one_minus_power(c, m)
    for m in denominator:
        c = _over_one_minus_power(c, m)
    return [int(v) for v in c]


def q_binomial(n: int, k: int) -> list[int]:
    """Coefficients of [n choose k]_q = prod_{i<=k} (1-q^(n-k+i)) / (1-q^i)."""
    if k < 0 or k > n:
        return []
    return _ratio([n - k + i for i in range(1, k + 1)], range(1, k + 1))


def reference_law(rows) -> tuple[int, list[int]]:
    """(offset, coefficients) of the maj law of the standard tableaux of rows.

    Two-row shapes (n-k, k) use [n,k]_q - [n,k-1]_q, a difference whose
    lowest term is already q^k = q^b(lambda); other shapes use the q-hook
    formula q^b [n]_q! / prod [h]_q with common factors cancelled.
    """
    rows = tuple(rows)
    n = sum(rows)
    if len(rows) <= 2:
        k = rows[1] if len(rows) == 2 else 0
        upper, lower = q_binomial(n, k), q_binomial(n, k - 1)
        coeffs = [u - (lower[i] if i < len(lower) else 0) for i, u in enumerate(upper)]
        offset = next(i for i, c in enumerate(coeffs) if c)
        while coeffs[-1] == 0:
            coeffs.pop()
        return offset, coeffs[offset:]
    pending = Counter(hooks(rows))
    numerator = []
    for m in range(1, n + 1):
        if pending[m]:
            pending[m] -= 1
        else:
            numerator.append(m)
    return support(rows)[0], _ratio(numerator, sorted(pending.elements()))


def kolmogorov_distance(offset: int, coeffs) -> float:
    """sup |F - Phi| of the standardised law over both one-sided limits at
    every jump, from exact moments."""
    mass = sum(coeffs)
    mean = Fraction(sum((offset + i) * c for i, c in enumerate(coeffs)), mass)
    second = Fraction(sum((offset + i) ** 2 * c for i, c in enumerate(coeffs)), mass)
    sd = math.sqrt(float(second - mean * mean))
    centre = float(mean)
    running = 0
    worst = 0.0
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        gauss = 0.5 * math.erfc(-((offset + i - centre) / sd) / math.sqrt(2.0))
        below = running / mass
        running += c
        worst = max(worst, abs(running / mass - gauss), abs(below - gauss))
    return worst


def upper_tail(offset: int, coeffs, threshold: int) -> Fraction:
    start = max(0, threshold - offset)
    return Fraction(sum(coeffs[start:]), sum(coeffs))


def berry_esseen_applies(rows) -> bool:
    n = sum(rows)
    return n >= 4 and 2 * max(rows[0], len(rows)) <= n


# ------------------------------------------------------------- helpers


class References:
    """Reference laws computed once per shape and reused by every check."""

    def __init__(self):
        self._laws: dict[tuple[int, ...], tuple[int, list[int]]] = {}

    def law(self, rows) -> tuple[int, list[int]]:
        rows = tuple(rows)
        if rows not in self._laws:
            self._laws[rows] = reference_law(rows)
        return self._laws[rows]


def _flag(argv, name: str) -> str:
    return argv[argv.index(name) + 1]


def _rows_arg(argv) -> tuple[int, ...]:
    return tuple(int(v) for v in _flag(argv, "-p").split(","))


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()[1:]]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------- checks


def check_dist(argv, text: str, refs: References) -> list[str]:
    rows = _rows_arg(argv)
    where = f"dist {rows[:3]}{'...' if len(rows) > 3 else ''} n={sum(rows)}"
    payload = json.loads(text)
    lo, hi = support(rows)
    coeffs = [int(c) for c in payload["coeffs"]]
    offset = payload["offset"]
    errors = []
    if tuple(payload["partition"]) != rows:
        errors.append(f"{where}: partition echoed as {payload['partition']}")
    if (offset, coeffs) != refs.law(rows):
        errors.append(f"{where}: coefficients differ from the reference law")
    if sum(coeffs) != tableau_count(rows) or int(payload["count"]) != tableau_count(rows):
        errors.append(f"{where}: coefficient sum or count is not f^lambda")
    if coeffs != coeffs[::-1]:
        errors.append(f"{where}: law is not palindromic")
    if (offset, offset + len(coeffs) - 1) != (lo, hi) or payload["range"] != [lo, hi]:
        errors.append(f"{where}: support is not [{lo}, {hi}]")
    if Fraction(payload["mean"]) != Fraction(lo + hi, 2):
        errors.append(f"{where}: mean {payload['mean']} is not (min+max)/2")
    if Fraction(payload["variance"]) != maj_variance(rows):
        errors.append(f"{where}: variance {payload['variance']} is wrong")
    errors += _check_dkol(where, rows, payload["d_kol"], coeffs, offset)
    return errors


def _check_dkol(where, rows, d_kol: float, coeffs, offset) -> list[str]:
    expected = kolmogorov_distance(offset, coeffs)
    errors = []
    if abs(d_kol - expected) > DKOL_ABS_TOL:
        errors.append(f"{where}: d_Kol {d_kol!r} differs from recomputed {expected!r}")
    if berry_esseen_applies(rows) and d_kol > 30.0 / math.sqrt(sum(rows)):
        errors.append(f"{where}: d_Kol {d_kol!r} exceeds 30/sqrt(n)")
    return errors


def check_bkol(argv, text: str, refs: References) -> list[str]:
    family = _flag(argv, "--family")
    errors = []
    lines = _csv_rows(text)
    wanted = [int(v) for v in _flag(argv, "--n").split(",")]
    if [int(line[0]) for line in lines] != wanted:
        return [f"bkol {family}: rows for n = {[line[0] for line in lines]}, wanted {wanted}"]
    for n_text, d_text, bound_text, ok_text in lines:
        n = int(n_text)
        rows = family_rows(family, n)
        where = f"bkol {family} n={n}"
        offset, coeffs = refs.law(rows)
        errors += _check_dkol(where, rows, float(d_text), coeffs, offset)
        if _rel(float(bound_text), 30.0 / math.sqrt(n)) > 1e-15:
            errors.append(f"{where}: bound {bound_text} is not 30/sqrt(n)")
        if ok_text != str(berry_esseen_applies(rows)).lower():
            errors.append(f"{where}: hypothesis flag {ok_text} is wrong")
    return errors


def check_validate(argv, text: str, refs: References) -> list[str]:
    max_n = int(_flag(argv, "--max-n"))
    lines = text.strip().splitlines()
    verdicts = [line for line in lines if line.endswith(": PASS") or ": FAIL" in line]
    errors = [f"validate: {line}" for line in verdicts if not line.endswith(": PASS")]
    if not verdicts:
        errors.append("validate: no identity verdicts printed")
    expected = sum(partition_counts(max_n)[1:])
    if f"partitions checked: {expected}" not in lines:
        errors.append(f"validate: partition count is not sum p(k) = {expected}")
    if "failures: 0" not in lines:
        errors.append("validate: failure count is not 0")
    return errors


def check_sample(argv, text: str, refs: References) -> list[str]:
    rows = _rows_arg(argv)
    trials = int(_flag(argv, "--trials"))
    where = f"sample n={sum(rows)} seed={_flag(argv, '--seed')}"
    lines = text.strip().splitlines()
    errors = []
    for key in ("trials", "seed"):
        if f"# {key}={_flag(argv, '--' + key)}" not in lines:
            errors.append(f"{where}: header does not record the {key}")
    counts = {int(m): int(c) for m, c in (line.split(",") for line in lines[lines.index("maj,count") + 1:])}
    lo, hi = support(rows)
    if sum(counts.values()) != trials:
        errors.append(f"{where}: histogram totals {sum(counts.values())}, not {trials}")
    if min(counts) < lo or max(counts) > hi:
        errors.append(f"{where}: values leave the support [{lo}, {hi}]")
    mean = Fraction(sum(m * c for m, c in counts.items()), trials)
    sigma = math.sqrt(float(maj_variance(rows)) / trials)
    if abs(float(mean - Fraction(lo + hi, 2))) > SAMPLE_SIGMAS * sigma:
        errors.append(f"{where}: mean {float(mean):.4f} is more than {SAMPLE_SIGMAS} sigma "
                      f"from {(lo + hi) / 2}")
    return errors


def check_ld(argv, text: str, refs: References, smallest_y: Fraction) -> list[str]:
    family = _flag(argv, "--family")
    y = Fraction(_flag(argv, "--y"))
    errors = []
    for n_text, tail_text, est_text, rate_text, ratio_text in _csv_rows(text):
        n = int(n_text)
        rows = family_rows(family, n)
        where = f"ld {family} y={float(y)} n={n}"
        offset, coeffs = refs.law(rows)
        lo, hi = support(rows)
        tail = float(upper_tail(offset, coeffs, math.ceil(Fraction(lo + hi, 2) + y * n * n)))
        estimate = float(est_text)
        if _rel(float(tail_text), tail) > TAIL_REL_TOL:
            errors.append(f"{where}: exact tail {tail_text} differs from {tail!r}")
        if not 0.0 < estimate < 1.0:
            errors.append(f"{where}: estimate {estimate!r} is not in (0, 1)")
        elif _rel(float(ratio_text), tail / estimate) > 1e-12:
            errors.append(f"{where}: ratio {ratio_text} is not tail / estimate")
        if y == smallest_y:
            # I(y) = 18 y^2 / (1 - m2) * (1 + c1 + O(y^4)), with first correction
            # c1 = 6.48 (1 - m4) y^2 / (1 - m2)^3 from the z^4 kernel term
            m2, m4 = measure_moment(rows, 2), measure_moment(rows, 4)
            limit = 18.0 * float(y) ** 2 / (1.0 - m2)
            c1 = 6.48 * (1.0 - m4) * float(y) ** 2 / (1.0 - m2) ** 3
            if _rel(float(rate_text), limit) > 2.0 * c1:
                errors.append(f"{where}: rate {rate_text} is not within {2 * c1:.2g} "
                              f"of its small-y limit {limit!r}")
    return errors


def check_bochner(argv, text: str, refs: References) -> list[str]:
    payload = json.loads(text)
    matrix = np.array(payload["matrix"], dtype=float)
    smallest = payload["min_eigenvalue"]
    errors = []
    if not BOCHNER_WINDOW[0] <= smallest <= BOCHNER_WINDOW[1]:
        errors.append(f"bochner: min eigenvalue {smallest!r} outside {BOCHNER_WINDOW}")
    if not (np.allclose(matrix, matrix.T, rtol=0, atol=1e-15)
            and np.allclose(np.diag(matrix), 1.0, rtol=0, atol=1e-15)):
        errors.append("bochner: matrix is not symmetric with unit diagonal")
    reference = float(np.linalg.eigvalsh(matrix).min())
    if abs(smallest - reference) > 1e-10:
        errors.append(f"bochner: min eigenvalue {smallest!r} differs from eigvalsh {reference!r}")
    return errors


def check_float_law(rows, result) -> list[str]:
    offset, coeffs = result
    lo, hi = support(rows)
    where = f"maj_polynomial_float n={sum(rows)}"
    if (offset, offset + len(coeffs) - 1) != (lo, hi):
        return [f"{where}: support is not [{lo}, {hi}]"]
    if not np.isfinite(coeffs).all():
        return [f"{where}: {np.count_nonzero(~np.isfinite(coeffs))} coefficients are not finite"]
    mass = coeffs.sum()
    if not mass > 0:
        return [f"{where}: total mass {mass} is not positive"]
    mean = (np.arange(len(coeffs), dtype=np.longdouble) * coeffs).sum() / mass + offset
    errors = []
    for what, got, exact in (("total mass", mass, tableau_count(rows)),
                             ("mean", mean, Fraction(lo + hi, 2))):
        error = abs(Fraction(*got.as_integer_ratio()) - exact) / exact
        if error > FLOAT_REL_TOL:
            errors.append(f"{where}: {what} is off its exact value by {float(error):.3g} "
                          f"relative, more than {FLOAT_REL_TOL}")
    return errors


CLI_CHECKS = {
    "dist": check_dist,
    "bkol": check_bkol,
    "validate": check_validate,
    "sample": check_sample,
    "bochner": check_bochner,
}


def check_cli(argv, text: str, refs: References, smallest_y: Fraction | None = None) -> list[str]:
    if argv[0] == "ld":
        return check_ld(argv, text, refs, smallest_y)
    return CLI_CHECKS[argv[0]](argv, text, refs)
