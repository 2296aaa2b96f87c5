import math
from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from majmeter import (
    Partition,
    StandardTableau,
    count_standard_tableaux,
    descent_set,
    enumerate_standard,
    maj,
    maj_histogram_mc,
    mean_maj,
    partitions_of,
    rsk,
    sample_uniform,
    var_maj,
)
from majmeter import tableaux
from majmeter.errors import CapExceeded, EmptyPartition
from majmeter.exact_dist import b_stat, maj_polynomial, range_maj
from majmeter.families import staircase
from majmeter.partitions import conjugate
from majmeter.tableaux import (
    _BLOCK_CELLS,
    ENUM_CAP,
    _hook_walk_block,
    maj_multiset,
    perm_descents,
    sample_row_sequences,
)

from conftest import partition_strategy

WORKED_TABLEAU = StandardTableau([[1, 2, 6, 9], [3, 5], [4, 7], [8]])


class TestStandardTableau:
    def test_validation(self):
        with pytest.raises(ValueError):
            StandardTableau([[1, 3], [2, 2]])
        with pytest.raises(ValueError):
            StandardTableau([[2, 1], [3]])
        with pytest.raises(ValueError):
            StandardTableau([[1, 2], [4]])  # not a bijection onto 1..3
        with pytest.raises(ValueError):
            StandardTableau([[2, 3], [1]])  # column decreasing

    def test_text_round_trip(self):
        text = WORKED_TABLEAU.to_text()
        assert text.splitlines()[0] == "1 2 6 9"  # longest row first
        assert StandardTableau.from_text(text) == WORKED_TABLEAU


def _grid_search(lam):
    """Standard tableaux of lam by a recursive backtracking that writes 1..n
    into a grid, each value tried in the rows from the top down."""
    rows = lam.rows
    fill = [0] * len(rows)
    grid = [[0] * r for r in rows]

    def place(k):
        if k > lam.n:
            yield StandardTableau([row[:] for row in grid])
            return
        for i in range(len(rows)):
            if fill[i] < rows[i] and (i == 0 or fill[i - 1] > fill[i]):
                grid[i][fill[i]] = k
                fill[i] += 1
                yield from place(k + 1)
                fill[i] -= 1

    yield from place(1)


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_standard(Partition((2, 1)))) == 2
        assert sum(1 for _ in enumerate_standard(Partition((6,)))) == 1
        assert sum(1 for _ in enumerate_standard(Partition((4, 2, 2, 1)))) == 216

    def test_distinct(self):
        tableaux = list(enumerate_standard(Partition((3, 2, 1))))
        assert len(tableaux) == len(set(tableaux)) == 16

    def test_cap(self):
        with pytest.raises(CapExceeded):
            next(iter(enumerate_standard(Partition((15,)))))

    def test_one_cap_for_both_exhaustive_routines(self):
        at_cap = Partition((ENUM_CAP,))
        assert maj_multiset(at_cap) == {0: 1}
        assert len(list(enumerate_standard(at_cap))) == 1
        past = Partition((ENUM_CAP, 1))
        message = f"exceeds the enumeration cap {ENUM_CAP}"
        with pytest.raises(CapExceeded, match=message):
            maj_multiset(past)
        with pytest.raises(CapExceeded, match=message):
            next(iter(enumerate_standard(past)))

    def test_order_is_that_of_a_recursive_grid_search(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                assert list(enumerate_standard(lam)) == list(_grid_search(lam))

    def test_counts_match_hook_formula(self):
        for n in range(1, 9):
            for lam in partitions_of(n):
                assert (
                    sum(1 for _ in enumerate_standard(lam))
                    == count_standard_tableaux(lam)
                )


class TestDescentsAndMaj:
    def test_worked_example(self):
        assert descent_set(WORKED_TABLEAU) == {2, 3, 6, 7}
        assert maj(WORKED_TABLEAU) == 18

    def test_single_row(self):
        t = StandardTableau([[1, 2, 3, 4]])
        assert descent_set(t) == set()
        assert maj(t) == 0

    def test_single_column(self):
        t = StandardTableau([[1], [2], [3]])
        assert descent_set(t) == {1, 2}
        assert maj(t) == 3

    @given(partition_strategy(max_n=9))
    @settings(deadline=None, max_examples=25)
    def test_range_bounds(self, lam):
        lo, hi = range_maj(lam)
        values = [maj(t) for t in enumerate_standard(lam)]
        assert min(values) == lo == b_stat(lam)
        assert max(values) == hi

    @pytest.mark.parametrize("lam", [lam for n in range(1, 9) for lam in partitions_of(n)],
                             ids=str)
    def test_maj_multiset_matches_objects(self, lam):
        expected = Counter(maj(t) for t in enumerate_standard(lam))
        assert maj_multiset(lam) == dict(expected)


class TestRSK:
    def test_worked_example(self):
        p, q = rsk([5, 9, 2, 1, 3, 8, 6, 4, 7])
        assert p.entries == ((1, 3, 4, 7), (2, 6), (5, 8), (9,))
        assert q.entries == ((1, 2, 6, 9), (3, 5), (4, 7), (8,))
        assert q == WORKED_TABLEAU
        assert descent_set(q) == {2, 3, 6, 7}
        assert q.shape == Partition((4, 2, 2, 1))

    def test_identity_permutation(self):
        p, q = rsk([1, 2, 3, 4, 5])
        assert p.entries == q.entries == ((1, 2, 3, 4, 5),)

    def test_descent_preservation_exhaustive(self):
        for n in range(1, 7):
            for images in permutations(range(1, n + 1)):
                p, q = rsk(images)
                assert p.shape == q.shape
                assert perm_descents(images) == descent_set(q)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            rsk([1, 1, 2])


class TestSampler:
    def test_deterministic(self):
        lam = Partition((4, 2, 2, 1))
        assert sample_uniform(lam, 123) == sample_uniform(lam, 123)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_trials_below_one(self, trials):
        lam = Partition((2, 1))
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            maj_histogram_mc(lam, trials, 0)
        with pytest.raises(ValueError, match="^trials must be >= 1$"):
            list(sample_row_sequences(lam, trials, 0))

    def test_empty_partition(self):
        empty = Partition(())
        with pytest.raises(EmptyPartition):
            maj_histogram_mc(empty, 3, 1)
        with pytest.raises(EmptyPartition):
            list(sample_row_sequences(empty, 3, 1))
        with pytest.raises(EmptyPartition):
            sample_uniform(empty, 1)

    def test_valid_tableau(self):
        for seed in range(20):
            t = sample_uniform(Partition((5, 3, 1)), seed)
            assert t.shape == Partition((5, 3, 1))

    @pytest.mark.parametrize("rows", [(4, 2, 2, 1), (5, 3, 1), (1,), (1, 1, 1)])
    def test_single_sample_is_a_batch_of_one(self, rows):
        lam = Partition(rows)
        for seed in range(5):
            tableau = sample_uniform(lam, seed)
            (sequence,) = sample_row_sequences(lam, 1, seed)
            assert tuple(tableau.row_of(v) - 1 for v in range(1, lam.n + 1)) == sequence

    def test_two_tableaux_balance(self):
        # exact law: each of the 2 tableaux of (2,1) has probability 1/2
        trials = 100_000
        counts = Counter(sample_row_sequences(Partition((2, 1)), trials, 2024))
        assert set(counts) == {(0, 0, 1), (0, 1, 0)}
        for c in counts.values():
            assert abs(c / trials - 0.5) < 0.01

    @pytest.mark.parametrize("rows", [(3, 2, 1), (2, 2, 2), (4, 2, 1, 1)])
    def test_frequencies_within_five_sd(self, rows):
        lam = Partition(rows)
        total = count_standard_tableaux(lam)
        trials = 100_000
        counts = Counter(sample_row_sequences(lam, trials, 7))
        assert len(counts) == total
        p = 1.0 / total
        sd = math.sqrt(trials * p * (1 - p))
        for c in counts.values():
            assert abs(c - trials * p) < 5 * sd


def _hook_walk_block_reference(lam, trials, gen):
    """The lockstep hook walk with per-trial state laid out (trials, rows) and
    a cumsum of the row lengths per placed value; returns (trials, n).  The
    sampler must draw exactly what this draws from the same PCG64 stream."""
    n = lam.n
    every = np.arange(trials)
    row_len = np.tile(np.asarray(lam.rows, dtype=np.int64), (trials, 1))
    col_len = np.tile(np.asarray(conjugate(lam).rows, dtype=np.int64), (trials, 1))
    out = np.empty((trials, n), dtype=np.min_scalar_type(len(lam.rows)))
    for m in range(n, 0, -1):
        t = gen.integers(0, m, size=trials)
        ends = np.cumsum(row_len, axis=1)
        i = (ends <= t[:, None]).sum(axis=1)
        j = t - ends[every, i] + row_len[every, i]
        live = every
        while True:
            li, lj = i[live], j[live]
            arm = row_len[live, li] - 1 - lj
            leg = col_len[live, lj] - 1 - li
            moving = arm + leg > 0
            live, arm, leg = live[moving], arm[moving], leg[moving]
            if not live.size:
                break
            step = gen.integers(0, arm + leg)
            right = step < arm
            j[live] += np.where(right, step + 1, 0)
            i[live] += np.where(right, 0, step - arm + 1)
        out[:, m - 1] = i
        row_len[every, i] -= 1
        col_len[every, j] -= 1
    return out


def _pcg64(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _assert_same_draws(lam, trials, seed):
    expected = _hook_walk_block_reference(lam, trials, _pcg64(seed))
    got = _hook_walk_block(lam, trials, _pcg64(seed))
    assert got.shape == (lam.n, trials)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected.T)


class TestHookWalkDraws:
    """The walk keeps each trial's row ends instead of a cumsum per value;
    the samples for a seed are the reference loop's, value for value."""

    @settings(deadline=None, max_examples=40)
    @given(
        partition_strategy(max_n=30),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([1, 2, 7, 300]),
    )
    def test_matches_reference(self, lam, seed, trials):
        _assert_same_draws(lam, trials, seed)

    @pytest.mark.parametrize("lam, trials", [
        (Partition((4, 2, 2, 1)), 20000),
        (staircase(200), 100),
        (Partition((50,)), 3),
        (Partition((1,) * 50), 3),
    ])
    def test_matches_reference_on_fixed_shapes(self, lam, trials):
        _assert_same_draws(lam, trials, 2024)

    def test_multi_block_row_sequences(self):
        lam = Partition((3, 2, 1))
        size = _BLOCK_CELLS // lam.n
        trials = 2 * size + 7
        gen = _pcg64(5)
        expected = np.concatenate([
            _hook_walk_block_reference(lam, min(size, trials - start), gen)
            for start in range(0, trials, size)
        ])
        got = np.array(list(sample_row_sequences(lam, trials, 5)), dtype=expected.dtype)
        assert np.array_equal(got, expected)


class TestBlockCap:
    """A lockstep block holds at most _BLOCK_CELLS values, so a shape of more
    cells is refused before any block is built."""

    def test_boundary(self, monkeypatch):
        monkeypatch.setattr(tableaux, "_BLOCK_CELLS", 9)
        at = Partition((4, 2, 2, 1))
        assert sum(maj_histogram_mc(at, 3, 1).values()) == 3
        assert len(list(sample_row_sequences(at, 3, 1))) == 3
        assert sample_uniform(at, 1).shape == at
        past = Partition((4, 2, 2, 2))
        message = "^[|]lambda[|] = 10 exceeds the sampler's block of 9 cells$"
        with pytest.raises(CapExceeded, match=message):
            maj_histogram_mc(past, 1, 1)
        with pytest.raises(CapExceeded, match=message):
            list(sample_row_sequences(past, 1, 1))
        with pytest.raises(CapExceeded, match=message):
            sample_uniform(past, 1)

    def test_nothing_is_built_past_the_cap(self, monkeypatch):
        def no_walk(*args):
            raise AssertionError("a block was built past the cap")

        monkeypatch.setattr(tableaux, "_hook_walk_block", no_walk)
        monkeypatch.setattr(tableaux, "conjugate", no_walk)
        with pytest.raises(CapExceeded):
            maj_histogram_mc(Partition((_BLOCK_CELLS + 1,)), 1, 0)


class TestMajHistogramMC:
    def test_support(self):
        hist = maj_histogram_mc(Partition((2, 1)), 4, 99)
        assert set(hist) <= {1, 2}
        assert sum(hist.values()) == 4

    def test_single_row_degenerate(self):
        hist = maj_histogram_mc(Partition((6,)), 50, 1)
        assert hist == {0: 50}

    def test_empirical_mean(self):
        lam = Partition((3, 2))
        trials = 20_000
        hist = maj_histogram_mc(lam, trials, 31415)
        mean = sum(v * c for v, c in hist.items()) / trials
        sd = math.sqrt(float(var_maj(lam)))
        assert abs(mean - float(mean_maj(lam))) < 4 * sd / math.sqrt(trials)

    def test_matches_row_sequences(self):
        lam = Partition((4, 2, 2, 1))
        expected = Counter(
            sum(i for i in range(1, lam.n) if rows[i] > rows[i - 1])
            for rows in sample_row_sequences(lam, 3000, 11)
        )
        assert maj_histogram_mc(lam, 3000, 11) == dict(expected)

    def test_partial_last_block(self):
        lam = Partition((3, 2, 1))
        trials = 2 * (_BLOCK_CELLS // lam.n) + 7
        hist = maj_histogram_mc(lam, trials, 5)
        assert sum(hist.values()) == trials
        lo, hi = range_maj(lam)
        assert lo <= min(hist) and max(hist) <= hi
        assert maj_histogram_mc(lam, trials, 5) == hist

    @pytest.mark.parametrize("rows", [(4, 2, 2, 1), (3, 3, 2)])
    def test_chi_square_against_exact_law(self, rows):
        lam = Partition(rows)
        poly = maj_polynomial(lam)
        trials = 200_000
        hist = maj_histogram_mc(lam, trials, 8128)
        mass = poly.at_one()
        statistic = 0.0
        for i, c in enumerate(poly.coeffs):
            expected = trials * c / mass
            statistic += (hist.get(poly.offset + i, 0) - expected) ** 2 / expected
        assert set(hist) <= set(range(poly.offset, poly.degree + 1))
        assert statistic < chi2.ppf(1 - 1e-3, len(poly.coeffs) - 1)

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            maj_histogram_mc(Partition((2, 1)), 0, 1)
