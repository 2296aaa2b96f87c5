from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings

import majmeter
from majmeter import (
    DiscreteMeasure,
    Partition,
    ThomaParam,
    b_stat,
    conjugate,
    contents,
    count_semistandard,
    count_standard_tableaux,
    descent_coordinates,
    frobenius,
    frobenius_moment,
    hook_lengths,
    hook_multiset_identity,
    measure_of,
    parse_partition,
    partitions_of,
    thoma_embed,
)
from majmeter.errors import (
    EmptyPartition,
    InvalidRow,
    InvalidSimplexPoint,
    TooShort,
)
from majmeter.families import rows_from_frequencies, three_row, two_row
from majmeter.tableaux import enumerate_standard

from conftest import partition_strategy


class TestParse:
    def test_basic(self):
        lam = parse_partition("4,2,2,1")
        assert lam.rows == (4, 2, 2, 1)
        assert lam.n == 9

    def test_singleton(self):
        assert parse_partition("1").rows == (1,)

    def test_strict_rejects_unsorted(self):
        with pytest.raises(InvalidRow):
            parse_partition("2,3", strict=True)

    def test_nonstrict_sorts(self):
        assert parse_partition("1,3,2").rows == (3, 2, 1)

    def test_empty(self):
        with pytest.raises(EmptyPartition):
            parse_partition("  ")

    def test_bad_tokens(self):
        with pytest.raises(InvalidRow):
            parse_partition("2,x")
        with pytest.raises(InvalidRow):
            parse_partition("0,1")

    def test_constructor_validates(self):
        with pytest.raises(InvalidRow):
            Partition((1, 2))
        with pytest.raises(InvalidRow):
            Partition((2, -1))


class TestConjugate:
    def test_examples(self):
        assert conjugate(Partition((4, 2, 2, 1))).rows == (4, 3, 1, 1)
        # column counts of (5,4,2): j=1,2 -> 3 rows; j=3,4 -> 2; j=5 -> 1
        assert conjugate(Partition((5, 4, 2))).rows == (3, 3, 2, 2, 1)
        assert conjugate(Partition((5,))).rows == (1, 1, 1, 1, 1)
        assert conjugate(Partition(())).rows == ()

    @given(partition_strategy())
    def test_involution(self, lam):
        assert conjugate(conjugate(lam)) == lam


class TestHooksAndContents:
    def test_hook_table(self):
        assert hook_lengths(Partition((4, 2, 2, 1))) == [
            [7, 5, 2, 1],
            [4, 2],
            [3, 1],
            [1],
        ]

    def test_hook_trivial(self):
        assert hook_lengths(Partition((1,))) == [[1]]
        assert hook_lengths(Partition((2, 1))) == [[3, 1], [1]]

    def test_contents_table(self):
        assert contents(Partition((4, 2, 2, 1))) == [
            [0, 1, 2, 3],
            [-1, 0],
            [-2, -1],
            [-3],
        ]
        assert contents(Partition((1,))) == [[0]]

    @given(partition_strategy())
    def test_diagonal_contents_vanish(self, lam):
        table = contents(lam)
        for i, row in enumerate(table):
            if i < len(row):
                assert row[i] == 0


class TestCounting:
    def test_hook_formula_values(self):
        assert count_standard_tableaux(Partition((4, 2, 2, 1))) == 216
        assert count_standard_tableaux(Partition((7,))) == 1
        assert count_standard_tableaux(Partition((2, 1))) == 2

    def test_matches_enumeration(self):
        for n in range(1, 8):
            for lam in partitions_of(n):
                assert count_standard_tableaux(lam) == sum(
                    1 for _ in enumerate_standard(lam)
                )

    def test_semistandard_one_cell(self):
        assert count_semistandard(Partition((1,)), 3) == 3

    def test_semistandard_tall_column(self):
        assert count_semistandard(Partition((1, 1)), 1) == 0

    def test_semistandard_row_of_two(self):
        # oracle: weakly increasing pairs from {1, 2}
        fillings = [
            (a, b) for a, b in combinations_with_replacement((1, 2), 2)
        ]
        assert count_semistandard(Partition((2,)), 2) == len(fillings) == 3


class TestBStat:
    def test_values(self):
        assert b_stat(Partition((4, 2, 2, 1))) == 9
        assert b_stat(Partition((6,))) == 0
        assert b_stat(Partition((1, 1, 1))) == 3


class TestFrobenius:
    def test_size_eleven_example(self):
        fc = frobenius(Partition((5, 4, 2)))
        assert fc.a == (Fraction(9, 2), Fraction(5, 2))
        assert fc.b == (Fraction(5, 2), Fraction(3, 2))

    def test_other_examples(self):
        fc = frobenius(Partition((4, 2, 2, 1)))
        assert fc.a == (Fraction(7, 2), Fraction(1, 2))
        assert fc.b == (Fraction(7, 2), Fraction(3, 2))
        fc1 = frobenius(Partition((1,)))
        assert fc1.a == (Fraction(1, 2),) and fc1.b == (Fraction(1, 2),)

    @given(partition_strategy())
    def test_sum_and_conjugation(self, lam):
        fc = frobenius(lam)
        assert sum(fc.a) + sum(fc.b) == lam.n
        swapped = frobenius(conjugate(lam))
        assert swapped.a == fc.b and swapped.b == fc.a

    def test_against_counted_columns(self):
        for n in range(1, 13):
            for lam in partitions_of(n):
                d = sum(1 for i, r in enumerate(lam.rows, 1) if r >= i)
                cols = [sum(1 for r in lam.rows if r >= j) for j in range(1, d + 1)]
                half = Fraction(1, 2)
                fc = frobenius(lam)
                assert fc.a == tuple(r - i + half for i, r in enumerate(lam.rows[:d], 1))
                assert fc.b == tuple(c - i + half for i, c in enumerate(cols, 1))

    def test_rows_beyond_the_index_range(self):
        # two-row(10^20): its conjugate would have 5e19 rows
        n = 10 ** 20
        fc = frobenius(two_row(n))
        assert fc.a == (Fraction(n, 2) - Fraction(1, 2), Fraction(n, 2) - Fraction(3, 2))
        assert fc.b == (Fraction(3, 2), Fraction(1, 2))

    def test_strictly_decreasing(self):
        fc = frobenius(Partition((6, 5, 5, 3, 2)))
        assert all(x > y for x, y in zip(fc.a, fc.a[1:]))
        assert all(x > y for x, y in zip(fc.b, fc.b[1:]))


class TestDescentCoordinates:
    def test_example(self):
        coords = descent_coordinates(Partition((5, 4, 2)), 5)
        assert coords == (
            Fraction(9, 2),
            Fraction(5, 2),
            Fraction(-1, 2),
            Fraction(-7, 2),
            Fraction(-9, 2),
        )

    def test_empty(self):
        assert descent_coordinates(Partition(()), 3) == (
            Fraction(-1, 2),
            Fraction(-3, 2),
            Fraction(-5, 2),
        )

    def test_too_short(self):
        with pytest.raises(TooShort):
            descent_coordinates(Partition((2, 1, 1)), 2)

    @given(partition_strategy())
    def test_strictly_decreasing(self, lam):
        coords = descent_coordinates(lam, lam.n + 2)
        assert all(x > y for x, y in zip(coords, coords[1:]))


class TestFrobeniusMoments:
    def test_examples(self):
        lam = Partition((4, 2, 2, 1))
        assert frobenius_moment(lam, 1) == 9
        assert frobenius_moment(lam, 2) == -2
        assert frobenius_moment(lam, 3) == Fraction(357, 4)

    @given(partition_strategy())
    def test_first_moment_is_size(self, lam):
        assert frobenius_moment(lam, 1) == lam.n

    @given(partition_strategy(max_n=10))
    @settings(deadline=None)
    def test_descent_coordinate_identity(self, lam):
        n = lam.n
        coords = descent_coordinates(lam, n)
        for k in (1, 2, 3, 4):
            direct = sum(
                coords[i] ** k - Fraction(-(2 * (i + 1)) + 1, 2) ** k
                for i in range(n)
            )
            assert frobenius_moment(lam, k) == direct


class TestThomaEmbedding:
    def test_example(self):
        omega = thoma_embed(Partition((5, 4, 2)))
        assert omega.alpha == (Fraction(9, 22), Fraction(5, 22))
        assert omega.beta == (Fraction(5, 22), Fraction(3, 22))

    def test_single_cell(self):
        omega = thoma_embed(Partition((1,)))
        assert omega.alpha == (Fraction(1, 2),)
        assert omega.beta == (Fraction(1, 2),)

    @given(partition_strategy())
    def test_total_mass_one(self, lam):
        omega = thoma_embed(lam)
        assert sum(omega.alpha) + sum(omega.beta) == 1

    def test_empty_rejected(self):
        with pytest.raises(EmptyPartition):
            thoma_embed(Partition(()))

    def test_validation(self):
        with pytest.raises(InvalidSimplexPoint):
            ThomaParam((0.7, 0.8), ())
        with pytest.raises(InvalidSimplexPoint):
            ThomaParam((0.1, 0.2), ())
        with pytest.raises(InvalidSimplexPoint):
            ThomaParam((-0.1,), ())

    def test_json_round_trip(self):
        omega = ThomaParam.from_json({"alpha": ["1/2", "1/4"], "beta": [0.25]})
        assert omega.alpha == (Fraction(1, 2), Fraction(1, 4))
        assert omega.to_json() == {"alpha": [0.5, 0.25], "beta": [0.25]}

    @pytest.mark.parametrize("obj", [
        [], 5, None, {"alpha": 5}, {"alpha": [None]}, {"alpha": [[0.5]]},
        {"alpha": ["1/0"]}, {"alpha": ["half"]}, {"alpha": [True]},
        {"alpha": [float("nan")]}, {"alpha": [0.5], "gamma": 1},
    ])
    def test_json_shape_is_checked(self, obj):
        with pytest.raises(InvalidSimplexPoint):
            ThomaParam.from_json(obj)

    def test_json_keys_are_optional(self):
        assert ThomaParam.from_json({}) == ThomaParam((), ())
        assert ThomaParam.from_json({"beta": [1]}).beta == (1,)


class TestDiscreteMeasure:
    def test_delta_zero(self):
        mu = measure_of(ThomaParam((), ()))
        assert mu.atoms == ((0, 1),)

    def test_delta_one(self):
        mu = measure_of(ThomaParam((1,), ()))
        assert mu.atoms == ((1, 1), (0, 0))

    def test_merging(self):
        mu = measure_of(ThomaParam((Fraction(1, 2), Fraction(1, 2)), ()))
        assert mu.atoms == ((Fraction(1, 2), 1), (0, 0))

    def test_constructor_merges_coincident_atoms(self):
        split = DiscreteMeasure([(0.5, 0.5), (0.5, 0.3), (0.5, 0.2)])
        assert split.atoms == ((0.5, 1.0), (0, 0))

    def test_weight_validation(self):
        with pytest.raises(InvalidSimplexPoint):
            DiscreteMeasure([(0.5, 0.5), (0.2, 0.4)])

    @pytest.mark.parametrize("w", [-0.5, float("nan")])
    def test_weight_neither_negative_nor_nan(self, w):
        # a NaN weight would drop out of the atoms with the total left at 0.5
        with pytest.raises(InvalidSimplexPoint, match="is not nonnegative"):
            DiscreteMeasure([(0.5, 0.5), (0.2, w)])

    @given(partition_strategy())
    def test_moments_match_frobenius(self, lam):
        mu = measure_of(thoma_embed(lam))
        n = lam.n
        for k in (1, 2, 3):
            assert mu.moment(k) == frobenius_moment(lam, k + 1) / Fraction(n) ** (k + 1)

    def test_concentration_flag(self):
        assert measure_of(ThomaParam((1,), ())).concentrated_on_pm1()
        assert measure_of(ThomaParam((), (1,))).concentrated_on_pm1()
        assert DiscreteMeasure([(1, 0.5), (-1, 0.5)]).concentrated_on_pm1()
        assert not measure_of(ThomaParam((0.5,), ())).concentrated_on_pm1()


class TestHookMultisetIdentity:
    def test_single_cell(self):
        left, right = hook_multiset_identity(Partition((1,)), 1)
        assert left == right == [1]

    def test_direct_expansion(self):
        # hooks of (2,1) are {3,1,1}; gaps for n=3: (2-1+1, 2-0+2, 1-0+1) = (2,4,2)
        left, right = hook_multiset_identity(Partition((2, 1)), 3)
        assert left == sorted([3, 1, 1, 2, 4, 2])
        assert left == right

    def test_exhaustive_small(self):
        for n in range(1, 13):
            for lam in partitions_of(n):
                left, right = hook_multiset_identity(lam, n)
                assert left == right

    def test_too_short(self):
        with pytest.raises(TooShort):
            hook_multiset_identity(Partition((1, 1, 1)), 2)


def test_partitions_of_counts():
    known = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22, 9: 30}
    for n, expected in known.items():
        assert sum(1 for _ in partitions_of(n)) == expected


class TestInputRules:
    """Each input rule raises one exception type with one message, and every
    simplex rule uses one tolerance."""

    @pytest.mark.parametrize("call, extra", [
        (majmeter.maj_polynomial, ()),
        (majmeter.maj_polynomial_float, ()),
        (majmeter.mean_maj, ()),
        (majmeter.var_maj, ()),
        (majmeter.range_maj, ()),
        (majmeter.log_laplace_exact, (0.5,)),
        (majmeter.berry_esseen_bound, ()),
        (thoma_embed, ()),
        (majmeter.sample_uniform, (0,)),
    ], ids=lambda v: getattr(v, "__name__", ""))
    def test_every_entry_point_rejects_the_empty_partition(self, call, extra):
        with pytest.raises(EmptyPartition, match="^need a nonempty partition$"):
            call(Partition(()), *extra)

    def test_thoma_parameter_above_the_simplex(self):
        with pytest.raises(InvalidSimplexPoint, match="sum to at most 1"):
            ThomaParam((0.7, 0.5), ())
        with pytest.raises(InvalidSimplexPoint, match="sum to at most 1"):
            ThomaParam((Fraction(1, 2),), (Fraction(1, 2), Fraction(1, 100)))
        assert ThomaParam((0.5,), (0.5,)).gamma == 0

    @pytest.mark.parametrize("excess, accepted", [(5e-13, True), (1e-10, False)])
    def test_row_frequencies_and_thoma_parameters_share_one_tolerance(self, excess, accepted):
        freqs = (0.5 + excess, 0.3, 0.2)
        if accepted:
            assert three_row(12, freqs).n == 12
            assert ThomaParam(freqs, ()).gamma == 0
        else:
            with pytest.raises(ValueError, match="sum to 1"):
                three_row(12, freqs)
            with pytest.raises(InvalidSimplexPoint):
                ThomaParam(freqs, ())

    @pytest.mark.parametrize("freqs", [(float("nan"), 0.5), (0.5, float("nan")), (1.5, -0.5)])
    def test_row_frequencies_neither_negative_nor_nan(self, freqs):
        with pytest.raises(ValueError, match="nonnegative and nonincreasing"):
            rows_from_frequencies(10, freqs)

    def test_concentration_uses_the_simplex_tolerance(self):
        assert DiscreteMeasure([(1, 1 - 5e-13), (0.5, 5e-13)]).concentrated_on_pm1()
        assert DiscreteMeasure([(1 - 5e-13, 0.5), (-1, 0.5)]).concentrated_on_pm1()
        assert not DiscreteMeasure([(1, 1 - 1e-11), (0.5, 1e-11)]).concentrated_on_pm1()
        assert not DiscreteMeasure([(1 - 1e-11, 0.5), (-1, 0.5)]).concentrated_on_pm1()

    @pytest.mark.parametrize("x", [1.5, -1.0000001, Fraction(3, 2), float("nan")])
    def test_atom_outside_the_unit_interval(self, x):
        with pytest.raises(InvalidSimplexPoint, match=r"outside \[-1, 1\]"):
            DiscreteMeasure([(x, 1)])

    def test_partitions_of_in_reverse_lexicographic_order(self):
        assert [lam.rows for lam in partitions_of(4)] == [
            (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert [lam.rows for lam in partitions_of(0)] == [()]
