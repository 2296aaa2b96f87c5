"""Integer partition combinatorics: hooks, contents, Frobenius coordinates and
the embedding of partitions into the Thoma simplex.

Half-integer quantities (Frobenius and descent coordinates) are kept as exact
`Fraction` values so that moment identities hold exactly; floats only enter
once a measure is handed to the numerical layer.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import neg
from typing import Iterable, Iterator, Sequence, Union

from .errors import EmptyPartition, InvalidRow, InvalidSimplexPoint, TooShort

Scalar = Union[int, float, Fraction]

# the one tolerance of the simplex rules: Thoma parameters, measures, row
# frequencies and mass on {-1, 1}
SIMPLEX_TOL = 1e-12


class Partition:
    """Weakly decreasing tuple of positive integer rows."""

    __slots__ = ("rows", "_n")

    def __init__(self, rows: Iterable[int] = ()):
        rows = tuple(int(r) for r in rows)
        for r in rows:
            if r < 1:
                raise InvalidRow(f"partition rows must be positive integers, got {r}")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise InvalidRow(f"partition rows must be weakly decreasing, got {rows}")
        self.rows = rows
        self._n = sum(rows)

    @property
    def n(self) -> int:
        """Total number of cells."""
        return self._n

    def row(self, i: int) -> int:
        """Row length for 1-based index i; zero beyond the last row."""
        return self.rows[i - 1] if 1 <= i <= len(self.rows) else 0

    def cells(self) -> Iterator[tuple[int, int]]:
        """All cells as 1-based (row, column) pairs, row-major."""
        for i, r in enumerate(self.rows, start=1):
            for j in range(1, r + 1):
                yield i, j

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Partition{self.rows}"


def _require_nonempty(lam: Partition) -> None:
    """EmptyPartition unless lam has at least one cell."""
    if lam.n < 1:
        raise EmptyPartition("need a nonempty partition")


def parse_partition(text: str, strict: bool = False) -> Partition:
    """Parse comma-separated rows such as "4,2,2,1".

    Rows are sorted into weakly decreasing order unless `strict` is set, in
    which case out-of-order input is rejected.
    """
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise EmptyPartition("empty partition input")
    rows = []
    for tok in tokens:
        try:
            value = int(tok)
        except ValueError:
            raise InvalidRow(f"row {tok!r} is not a positive integer") from None
        if value < 1:
            raise InvalidRow(f"row {tok!r} is not a positive integer")
        rows.append(value)
    if strict and any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
        raise InvalidRow(f"rows {rows} are not weakly decreasing (strict mode)")
    return Partition(sorted(rows, reverse=True))


def conjugate(lam: Partition) -> Partition:
    """Transposed diagram: column lengths become rows. Column j holds the
    rows of length >= j, a prefix of the decreasing rows found by bisection."""
    return Partition(bisect_right(lam.rows, -j, key=neg) for j in range(1, lam.row(1) + 1))


def hook_lengths(lam: Partition) -> list[list[int]]:
    """Hook length of each cell: arm + leg + 1, as a row-major table."""
    conj = conjugate(lam).rows
    return [
        [lam.rows[i] - (j + 1) + conj[j] - (i + 1) + 1 for j in range(lam.rows[i])]
        for i in range(len(lam.rows))
    ]


def hook_list(lam: Partition) -> list[int]:
    """All hook lengths flattened, row-major."""
    return [h for row in hook_lengths(lam) for h in row]


def contents(lam: Partition) -> list[list[int]]:
    """Content j - i of each cell (1-based indices), as a row-major table."""
    return [[j - i for j in range(1, r + 1)] for i, r in enumerate(lam.rows, start=1)]


def count_standard_tableaux(lam: Partition) -> int:
    """Number of standard fillings, n! divided by the product of hooks."""
    prod = 1
    for h in hook_list(lam):
        prod *= h
    num = factorial(lam.n)
    count, rem = divmod(num, prod)
    if rem:
        raise AssertionError(f"hook product {prod} does not divide {lam.n}! exactly")
    return count


def count_semistandard(lam: Partition, m: int) -> int:
    """Number of weakly increasing fillings with entries in 1..m."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    total = Fraction(1)
    hooks = hook_lengths(lam)
    for i, r in enumerate(lam.rows, start=1):
        for j in range(1, r + 1):
            total *= Fraction(m + (j - i), hooks[i - 1][j - 1])
    if total.denominator != 1:
        raise AssertionError("semistandard product is not an integer")
    return int(total)


def b_stat(lam: Partition) -> int:
    """Row-weighted statistic sum of (i-1) * lambda_i; the minimum of maj."""
    return sum(i * r for i, r in enumerate(lam.rows))


@dataclass(frozen=True)
class FrobeniusCoords:
    """Half-integer arm and leg lengths measured from the diagonal."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]


def frobenius(lam: Partition) -> FrobeniusCoords:
    """Frobenius coordinates (a_1..a_d | b_1..b_d) with a_i = lambda_i - i + 1/2
    and b_i = lambda'_i - i + 1/2. Only the d column lengths lambda'_i needed
    are found, as in `conjugate`, so the cost does not grow with the rows."""
    rows = lam.rows
    d = 0
    while d < len(rows) and rows[d] >= d + 1:
        d += 1
    a = tuple(Fraction(2 * (rows[i - 1] - i) + 1, 2) for i in range(1, d + 1))
    b = tuple(Fraction(2 * (bisect_right(rows, -i, key=neg) - i) + 1, 2) for i in range(1, d + 1))
    coords = FrobeniusCoords(a, b)
    if sum(a) + sum(b) != lam.n:
        raise AssertionError("Frobenius coordinates do not sum to |lambda|")
    return coords


def descent_coordinates(lam: Partition, n: int) -> tuple[Fraction, ...]:
    """First n values of lambda_i - i + 1/2 (rows past the last count as 0)."""
    if n < len(lam.rows):
        raise TooShort(f"need n >= {len(lam.rows)} rows, got {n}")
    return tuple(Fraction(2 * (lam.row(i) - i) + 1, 2) for i in range(1, n + 1))


def frobenius_moment(lam: Partition, k: int) -> Fraction:
    """Signed power sum of the Frobenius coordinates; equals |lambda| at k=1."""
    if k < 1:
        raise ValueError("moment order must be >= 1")
    fc = frobenius(lam)
    sign = 1 if k % 2 == 1 else -1
    return sum((x ** k for x in fc.a), Fraction(0)) + sign * sum(
        (x ** k for x in fc.b), Fraction(0)
    )


@dataclass(frozen=True)
class ThomaParam:
    """Point of the Thoma simplex: two nonincreasing nonnegative sequences."""

    alpha: tuple[Scalar, ...]
    beta: tuple[Scalar, ...]

    def __post_init__(self):
        for name, seq in (("alpha", self.alpha), ("beta", self.beta)):
            for v in seq:
                if not 0 <= v <= 1:  # NaN fails too
                    raise InvalidSimplexPoint(f"{name} entries must lie in [0, 1]")
            if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
                raise InvalidSimplexPoint(f"{name} must be nonincreasing")
        if sum(self.alpha) + sum(self.beta) > 1 + SIMPLEX_TOL:
            raise InvalidSimplexPoint("alpha and beta must sum to at most 1")

    @property
    def gamma(self) -> Scalar:
        """Residual mass 1 - sum(alpha) - sum(beta), clamped at 0."""
        g = 1 - sum(self.alpha) - sum(self.beta)
        return max(g, 0)

    @classmethod
    def from_json(cls, obj) -> "ThomaParam":
        """Build from a JSON object {"alpha": [...], "beta": [...]}, either key
        optional and no other; entries are numbers or "p/q" strings. Any
        other shape raises InvalidSimplexPoint."""
        if not isinstance(obj, dict) or not set(obj) <= {"alpha", "beta"}:
            raise InvalidSimplexPoint(
                f'expected an object with only the keys "alpha" and "beta", got {obj!r}')

        def entries(name):
            seq = obj.get(name, [])
            if not isinstance(seq, list):
                raise InvalidSimplexPoint(f"{name} must be a list, got {seq!r}")
            return tuple(entry(name, v) for v in seq)

        def entry(name, v):
            if isinstance(v, str):
                try:
                    return Fraction(v)
                except (ValueError, ZeroDivisionError):
                    pass
            elif isinstance(v, (int, float)) and not isinstance(v, bool):
                return v
            raise InvalidSimplexPoint(f"{name} entries must be numbers or \"p/q\", got {v!r}")

        return cls(entries("alpha"), entries("beta"))

    def to_json(self) -> dict:
        return {
            "alpha": [float(v) for v in self.alpha],
            "beta": [float(v) for v in self.beta],
        }


def thoma_embed(lam: Partition) -> ThomaParam:
    """Thoma parameter of a partition: Frobenius coordinates divided by n."""
    _require_nonempty(lam)
    fc = frobenius(lam)
    n = lam.n
    return ThomaParam(
        tuple(x / n for x in fc.a),
        tuple(x / n for x in fc.b),
    )


class DiscreteMeasure:
    """Finitely supported probability measure on [-1, 1].

    Atoms with equal locations are merged; a (possibly zero-weight) atom at 0
    is always present so that the residual simplex mass has a carrier.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: Sequence[tuple[Scalar, Scalar]]):
        merged: dict = {}
        for x, w in atoms:
            _require_atom(x)
            if not w >= 0:  # NaN fails too
                raise InvalidSimplexPoint(f"atom weight {w} is not nonnegative")
            merged[x] = merged.get(x, 0) + w
        merged.setdefault(0, 0)
        total = sum(merged.values())
        if not abs(total - 1) <= SIMPLEX_TOL:
            raise InvalidSimplexPoint(f"atom weights sum to {total}, expected 1")
        # drop zero-weight atoms except the distinguished one at 0
        self.atoms = tuple(
            sorted(((x, w) for x, w in merged.items() if w > 0 or x == 0),
                   key=lambda xw: -xw[0])
        )

    def moment(self, k: int):
        """Integral of x^k; exact when the atoms are exact."""
        return sum(w * x ** k for x, w in self.atoms)

    def float_atoms(self) -> list[tuple[float, float]]:
        return [(float(x), float(w)) for x, w in self.atoms]

    def mass_at_zero(self) -> Scalar:
        for x, w in self.atoms:
            if x == 0:
                return w
        return 0

    def concentrated_on_pm1(self) -> bool:
        """True when all but SIMPLEX_TOL of the mass lies within SIMPLEX_TOL of +-1."""
        return sum(w for x, w in self.atoms if abs(abs(x) - 1) <= SIMPLEX_TOL) >= 1 - SIMPLEX_TOL

    def __eq__(self, other) -> bool:
        return isinstance(other, DiscreteMeasure) and self.atoms == other.atoms

    def __repr__(self) -> str:
        return f"DiscreteMeasure({list(self.atoms)!r})"


def _require_atom(x: Scalar) -> None:
    """InvalidSimplexPoint unless the atom location x lies in [-1, 1]."""
    if not -1 <= x <= 1:  # NaN fails too
        raise InvalidSimplexPoint(f"atom location {x} outside [-1, 1]")


def measure_of(omega: ThomaParam) -> DiscreteMeasure:
    """Measure with atoms alpha_i at +alpha_i, beta_i at -beta_i and gamma at 0."""
    atoms = [(a, a) for a in omega.alpha]
    atoms += [(-b, b) for b in omega.beta]
    atoms.append((0, omega.gamma))
    return DiscreteMeasure(atoms)


def hook_multiset_identity(lam: Partition, n: int) -> tuple[list[int], list[int]]:
    """Both sides of the hook/content multiset identity, sorted.

    Left: hooks of lambda together with the pairwise gaps
    lambda_i - lambda_j + j - i over 1 <= i < j <= n.  Right: shifted contents
    n + c(cell) together with k repeated (n - k) times for k = 1..n-1.
    The two sorted lists are equal for every partition with at most n rows.
    """
    if n < len(lam.rows):
        raise TooShort(f"need n >= {len(lam.rows)} rows, got {n}")
    left = hook_list(lam)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            left.append(lam.row(i) - lam.row(j) + j - i)
    right = [n + (j - i) for i, j in lam.cells()]
    for k in range(1, n):
        right.extend([k] * (n - k))
    return sorted(left), sorted(right)


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n in reverse lexicographic order, (n) first."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    for rows in gen(n, n):
        yield Partition(rows)
