import math
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
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
from majmeter.errors import CapExceeded
from majmeter.exact_dist import b_stat, maj_polynomial, range_maj
from majmeter.tableaux import (
    _BLOCK_CELLS,
    ENUM_CAP,
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

    def test_maj_multiset_matches_objects(self):
        lam = Partition((3, 2, 1))
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
