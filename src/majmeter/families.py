"""Built-in growing partition families with prescribed row frequencies.

Each family maps a size n to a partition of exactly n cells: rows are the
floors of n times the target frequencies, with the remainder pushed onto the
first row (which keeps the rows weakly decreasing).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Callable

from .partitions import SIMPLEX_TOL, Partition, ThomaParam


def parse_fraction(text: str, what: str) -> Fraction:
    """text ("p/q" or a decimal) as a Fraction, else a ValueError naming it."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what} {text!r} is not a fraction or a decimal") from None


def rows_from_frequencies(n: int, freqs) -> Partition:
    """Rows floor(n f) for the nonnegative, nonincreasing frequencies f, the
    remainder on the first row; ValueError unless the frequencies sum to 1
    within SIMPLEX_TOL."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if any(not f >= 0 for f in freqs) or any(  # NaN fails too
        freqs[i] < freqs[i + 1] for i in range(len(freqs) - 1)
    ):
        raise ValueError("frequencies must be nonnegative and nonincreasing")
    # the remainder lands on the first row, so it must be O(1): frequencies
    # that sum below 1 would silently distort the limit shape
    if not abs(sum(freqs) - 1) <= SIMPLEX_TOL:
        raise ValueError("row frequencies must sum to 1")
    rows = [int(n * f) for f in freqs]
    rows[0] += n - sum(rows)
    return Partition([r for r in rows if r > 0])


def two_row(n: int) -> Partition:
    """(ceil(n/2), floor(n/2)); converges to alpha = (1/2, 1/2)."""
    return rows_from_frequencies(n, (Fraction(1, 2), Fraction(1, 2)))


def three_row(n: int, freqs=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))) -> Partition:
    if len(freqs) != 3:
        raise ValueError("three-row family needs exactly three frequencies")
    return rows_from_frequencies(n, freqs)


def staircase(n: int) -> Partition:
    """Largest staircase (k, k-1, ..., 1) fitting in n cells, remainder on the
    first row; all scaled row frequencies vanish in the limit."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = (isqrt(8 * n + 1) - 1) // 2  # the largest k with k(k+1)/2 <= n
    rows = list(range(k, 0, -1))
    rows[0] += n - k * (k + 1) // 2
    return Partition(rows)


def family(spec: str) -> tuple[Callable[[int], Partition], ThomaParam]:
    """Resolve a family spec string to (builder, limiting Thoma parameter).

    Specs: "two-row", "three-row" or "three-row:f1,f2,f3" (fractions or
    decimals), "staircase".
    """
    name, _, args = spec.partition(":")
    name = name.strip().lower()
    if name == "two-row":
        return two_row, ThomaParam((Fraction(1, 2), Fraction(1, 2)), ())
    if name == "three-row":
        if args:
            freqs = tuple(parse_fraction(tok, "three-row frequency") for tok in args.split(","))
        else:
            freqs = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
        limit = ThomaParam(freqs, ())
        return (lambda n: three_row(n, freqs)), limit
    if name == "staircase":
        return staircase, ThomaParam((), ())
    raise ValueError(f"unknown family {spec!r}")
