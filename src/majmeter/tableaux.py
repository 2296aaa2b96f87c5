"""Brute-force layer for standard tableaux: exhaustive enumeration, descent
statistics, Robinson-Schensted row insertion and a hook-walk uniform sampler.

Row 1 is the longest row throughout; an entry i is a descent when i + 1 sits
in a row with strictly larger index.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapExceeded
from .partitions import Partition, _require_nonempty, conjugate

RNG_NAME = "PCG64"
ENUM_CAP = 14  # most cells the exhaustive routines take (at most 69 498 tableaux)
_BLOCK_CELLS = 1 << 19  # values placed per lockstep block of hook walks


class StandardTableau:
    """Bijective filling of a Young diagram by 1..n, strictly increasing along
    rows and columns."""

    __slots__ = ("shape", "entries")

    def __init__(self, entries: Iterable[Sequence[int]]):
        entries = tuple(tuple(int(v) for v in row) for row in entries)
        shape = Partition(len(row) for row in entries)
        n = shape.n
        flat = sorted(v for row in entries for v in row)
        if flat != list(range(1, n + 1)):
            raise ValueError("entries are not a bijection onto 1..n")
        for row in entries:
            if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
                raise ValueError(f"row {row} is not strictly increasing")
        for i in range(len(entries) - 1):
            below = entries[i + 1]
            if any(entries[i][j] >= below[j] for j in range(len(below))):
                raise ValueError("columns are not strictly increasing")
        self.shape = shape
        self.entries = entries

    def row_of(self, value: int) -> int:
        """1-based index of the row containing `value`."""
        for i, row in enumerate(self.entries, start=1):
            if value in row:
                return i
        raise ValueError(f"{value} is not in the tableau")

    def to_text(self) -> str:
        """Space-separated rows, one per line, longest (bottom) row first."""
        return "\n".join(" ".join(str(v) for v in row) for row in self.entries)

    @classmethod
    def from_text(cls, text: str) -> "StandardTableau":
        rows = [line.split() for line in text.splitlines() if line.strip()]
        return cls([[int(v) for v in row] for row in rows])

    def __eq__(self, other) -> bool:
        return isinstance(other, StandardTableau) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"StandardTableau({list(map(list, self.entries))!r})"


def descent_set(tableau: StandardTableau) -> set[int]:
    """Entries i such that i + 1 lies in a strictly higher row."""
    row_of = {}
    for i, row in enumerate(tableau.entries, start=1):
        for v in row:
            row_of[v] = i
    n = tableau.shape.n
    return {i for i in range(1, n) if row_of[i + 1] > row_of[i]}


def maj(tableau: StandardTableau) -> int:
    """Major index: the sum of the descents."""
    return sum(descent_set(tableau))


def _row_words(lam: Partition) -> Iterator[tuple[list[int], int]]:
    """Backtracking over the values 1..n, each tried in the rows from the top
    down, so the row words come in lexicographic order.  Yields (word, maj)
    per tableau: word[v - 1] is the 0-based row of value v (one list,
    overwritten after the yield) and maj is kept as the values are placed.
    At most ENUM_CAP cells (CapExceeded)."""
    n = lam.n
    if n > ENUM_CAP:
        raise CapExceeded(f"|lambda| = {n} exceeds the enumeration cap {ENUM_CAP}")
    rows = lam.rows
    fill = [0] * len(rows)
    word = [0] * n
    majs = [0] * (n + 1)  # majs[k]: the descents among 1..k summed
    k = i = 0  # value k + 1 is tried in row i, then in the rows below it
    while True:
        if k < n and i < len(rows):
            if fill[i] < rows[i] and (i == 0 or fill[i - 1] > fill[i]):
                word[k] = i
                fill[i] += 1
                majs[k + 1] = majs[k] + k if k and i > word[k - 1] else majs[k]
                k, i = k + 1, 0
            else:
                i += 1
            continue
        if k == n:
            yield word, majs[n]
        if k == 0:
            return
        k -= 1  # take value k + 1 out again and try it one row further down
        fill[word[k]] -= 1
        i = word[k] + 1


def _tableau(lam: Partition, word: Iterable[int]) -> StandardTableau:
    """The tableau of shape lam with value v in the 0-based row word[v - 1]."""
    grid: list[list[int]] = [[] for _ in lam.rows]
    for v, i in enumerate(word, start=1):
        grid[i].append(v)
    return StandardTableau(grid)


def enumerate_standard(lam: Partition) -> Iterator[StandardTableau]:
    """Every standard tableau of lam once, lazily, in lexicographic order of
    the row word.  At most ENUM_CAP cells (CapExceeded)."""
    for word, _ in _row_words(lam):
        yield _tableau(lam, word)


def maj_multiset(lam: Partition) -> dict[int, int]:
    """Histogram of maj over all standard tableaux (exhaustive oracle), keyed
    in order of first occurrence.  At most ENUM_CAP cells (CapExceeded)."""
    return dict(Counter(m for _, m in _row_words(lam)))


def perm_descents(images: Sequence[int]) -> set[int]:
    """Descent set of a permutation given as the list of images."""
    return {i for i in range(1, len(images)) if images[i - 1] > images[i]}


def rsk(images: Sequence[int]) -> tuple[StandardTableau, StandardTableau]:
    """Row insertion; returns the insertion and recording tableaux (P, Q)."""
    images = [int(v) for v in images]
    if sorted(images) != list(range(1, len(images) + 1)):
        raise ValueError("input is not a permutation of 1..n")
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for pos, value in enumerate(images, start=1):
        x = value
        i = 0
        while True:
            if i == len(p_rows):
                p_rows.append([x])
                q_rows.append([pos])
                break
            row = p_rows[i]
            k = bisect_right(row, x)
            if k == len(row):
                row.append(x)
                q_rows[i].append(pos)
                break
            row[k], x = x, row[k]
            i += 1
    return StandardTableau(p_rows), StandardTableau(q_rows)


def _hook_walk_block(lam: Partition, trials: int, gen: np.random.Generator) -> np.ndarray:
    """`trials` independent uniform samples drawn in lockstep; returns an array
    of shape (n, trials) whose row v - 1 holds the 0-based row of value v.

    Values n, n-1, ... are placed by starting each trial at a uniform
    remaining cell and jumping to a uniform cell of its hook until every
    trial sits at a corner (Greene-Nijenhuis-Wilf).  The state is laid out
    (rows, trials): each trial's cumulative row ends, decremented below the
    row of each placed value, locate the uniform cell with one compare down
    the rows, and row lengths and column heights minus one are flat arrays,
    so arm and leg are one gather each.
    """
    n = lam.n
    every = np.arange(trials)
    rows = np.asarray(lam.rows, dtype=np.int64)
    below = np.arange(len(rows))[:, None]
    ends = np.repeat(np.cumsum(rows)[:, None], trials, axis=1)
    arm_max = np.repeat(rows - 1, trials)
    leg_max = np.repeat(np.asarray(conjugate(lam).rows, dtype=np.int64) - 1, trials)
    out = np.empty((n, trials), dtype=np.min_scalar_type(len(rows)))
    for m in range(n, 0, -1):
        t = gen.integers(0, m, size=trials)
        i = (ends <= t).sum(axis=0)
        at = i * trials + every
        j = t - ends.ravel()[at] + arm_max[at] + 1
        live, li, lj = every, i, j
        while True:
            arm = arm_max[li * trials + live] - lj
            hook = leg_max[lj * trials + live] - li + arm
            moving = np.flatnonzero(hook)
            if not moving.size:
                break
            live, arm, hook = live[moving], arm[moving], hook[moving]
            step = gen.integers(0, hook)
            li = li[moving] + np.maximum(step - arm + 1, 0)  # down past the arm
            lj = lj[moving] + (step + 1) * (step < arm)  # right along it
            i[live] = li
            j[live] = lj
        out[m - 1] = i
        ends -= below >= i
        arm_max[i * trials + every] -= 1
        leg_max[j * trials + every] -= 1
    return out


def _row_blocks(lam: Partition, trials: int, seed: int) -> Iterator[np.ndarray]:
    """All `trials` samples as consecutive lockstep blocks from one PCG64
    stream; a block holds at most _BLOCK_CELLS values, which bounds memory,
    so a shape of more cells is refused (CapExceeded) before any is built,
    as is an empty one (EmptyPartition)."""
    _require_nonempty(lam)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if lam.n > _BLOCK_CELLS:
        raise CapExceeded(
            f"|lambda| = {lam.n} exceeds the sampler's block of {_BLOCK_CELLS} cells"
        )
    gen = np.random.Generator(np.random.PCG64(seed))
    size = _BLOCK_CELLS // lam.n
    return (
        _hook_walk_block(lam, min(size, trials - start), gen)
        for start in range(0, trials, size)
    )


def sample_uniform(lam: Partition, seed: int) -> StandardTableau:
    """Deterministic-for-seed uniform sample from the standard tableaux of lam."""
    (block,) = _row_blocks(lam, 1, seed)
    return _tableau(lam, block[:, 0].tolist())


def sample_row_sequences(
    lam: Partition, trials: int, seed: int
) -> Iterator[tuple[int, ...]]:
    """Stream of `trials` hook-walk samples keyed by the row of each value.

    The row sequence determines the tableau uniquely (each row is filled in
    increasing order), so it is a cheap identity for frequency tests.
    """
    for block in _row_blocks(lam, trials, seed):
        yield from map(tuple, block.T.tolist())


def maj_histogram_mc(lam: Partition, trials: int, seed: int) -> dict[int, int]:
    """Empirical maj histogram over `trials` hook-walk samples."""
    blocks = _row_blocks(lam, trials, seed)
    weights = np.arange(1, lam.n, dtype=np.int64)
    counts: dict[int, int] = {}
    for block in blocks:
        # i is a descent when value i + 1 sits in a higher-index row than i
        majs = weights @ (block[1:] > block[:-1])
        values, freq = np.unique(majs, return_counts=True)
        for v, c in zip(values.tolist(), freq.tolist()):
            counts[v] = counts.get(v, 0) + c
    return counts
