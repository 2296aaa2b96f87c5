import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from majmeter import asymptotics, exact_dist, families, tableaux
from majmeter.cli import _json_default, build_parser, main, parse_args
from majmeter.errors import DegenerateDistribution
from majmeter.exact_dist import maj_polynomial
from majmeter.families import family, staircase, three_row, two_row
from majmeter.partitions import Partition

from conftest import partition_strategy


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# valid JSON of the wrong shape, unknown keys, entries that are not numbers
# or "p/q", and text that is not JSON
MALFORMED_OMEGAS = [
    "[]", "5", "null", '{"alpha":5}', '{"alpha":[null]}', '{"alpha":[[0.5]]}',
    '{"alpha":["1/0"]}', '{"alpha":[0.5],"gamma":1}', '{"alpha":[true]}',
    '{"alpha":[NaN]}', "", "{not json",
]


LD = ["ld", "--family", "two-row", "--y", "0.02", "--n", "20"]
BOCHNER = ["bochner", "--omega", '{"alpha":[],"beta":[]}', "--xis", "0,3"]
SAMPLE = ["sample", "-p", "2,1", "--trials", "10"]
BASE_ARGV = {
    "dist": ["dist", "-p", "2,1"],
    "cumulants": ["cumulants", "-p", "2,1"],
    "sample": SAMPLE,
    "ld": LD,
    "bkol": ["bkol", "--family", "two-row", "--n", "8"],
    "bochner": BOCHNER,
    "validate": ["validate", "--max-n", "3"],
}
QUAD = ("--quad-nodes", "--quad-tol", "--quad-max-doublings")
# the shared flags each subcommand reads, and nothing else
SHARED_FLAGS = {
    "dist": ("--output", "--format", "--exact-cap", "--strict"),
    "cumulants": ("--output", "--strict"),
    "sample": ("--output", "--strict", "--seed"),
    "ld": ("--output", *QUAD, "--exact-cap"),
    "bkol": ("--output", "--exact-cap"),
    "bochner": ("--output", *QUAD),
    "validate": ("--output",),
}
# flag -> (argv tail, parsed attribute, parsed value)
FLAG_VALUES = {
    "--output": (["--output", "out.txt"], "output", "out.txt"),
    "--format": (["--format", "json"], "format", "json"),
    "--quad-nodes": (["--quad-nodes", "96"], "quad_nodes", 96),
    "--quad-tol": (["--quad-tol", "1e-10"], "quad_tol", 1e-10),
    "--quad-max-doublings": (["--quad-max-doublings", "5"], "quad_max_doublings", 5),
    "--seed": (["--seed", "5"], "seed", 5),
    "--exact-cap": (["--exact-cap", "100"], "exact_cap", 100),
    "--strict": (["--strict"], "strict", True),
}
KEPT = [(cmd, flag) for cmd, flags in SHARED_FLAGS.items() for flag in flags]
REMOVED = [(cmd, flag) for cmd in SHARED_FLAGS for flag in FLAG_VALUES
           if flag not in SHARED_FLAGS[cmd]]


class TestFamilies:
    def test_two_row(self):
        assert two_row(9) == Partition((5, 4))
        assert two_row(20) == Partition((10, 10))

    def test_two_row_limit(self):
        build, limit = family("two-row")
        assert build(9) == Partition((5, 4))
        assert sum(limit.alpha) == 1

    def test_three_row(self):
        lam = three_row(12)
        assert lam.n == 12 and len(lam.rows) == 3

    def test_three_row_custom(self):
        build, limit = family("three-row:1/2,3/10,1/5")
        assert build(20) == Partition((10, 6, 4))
        assert float(sum(limit.alpha)) == 1.0

    def test_three_row_must_sum_to_one(self):
        with pytest.raises(ValueError):
            family("three-row:1/2,1/4,1/8")[0](16)

    def test_staircase(self):
        assert staircase(10) == Partition((4, 3, 2, 1))
        assert staircase(11) == Partition((5, 3, 2, 1))
        assert staircase(1) == Partition((1,))
        for n in (5, 17, 100):
            assert staircase(n).n == n
        for n in range(1, 300):
            k = len(staircase(n))  # the largest staircase that fits
            assert k * (k + 1) // 2 <= n < (k + 1) * (k + 2) // 2

    def test_unknown(self):
        with pytest.raises(ValueError):
            family("squares")


class TestDist:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "dist", "-p", "2,1")
        assert code == 0
        lines = out.splitlines()
        assert "# mean=3/2" in lines
        assert "# variance=1/4" in lines
        assert lines[-2:] == ["1,1", "2,1"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "dist", "-p", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["coeffs"] == ["1"]
        assert payload["offset"] == 0
        assert payload["range"] == [0, 0]

    @pytest.mark.parametrize("lam", [Partition([1]), Partition([3, 1]), Partition([5, 3, 1]), two_row(60)])
    def test_json_bytes_match_the_indented_encoder(self, capsys, lam):
        # the payload built as cmd_dist builds it, encoded by json itself
        poly = exact_dist.maj_polynomial(lam)
        try:
            d_kol = exact_dist.kolmogorov_distance_to_normal(poly)
        except DegenerateDistribution:
            d_kol = None
        payload = {
            "partition": list(lam.rows),
            **poly.to_json(),
            "count": str(poly.at_one()),
            "mean": exact_dist.mean_maj(lam),
            "variance": exact_dist.var_maj(lam),
            "range": list(exact_dist.range_maj(lam)),
            "d_kol": d_kol,
        }
        code, out, _ = run(capsys, "dist", "-p", ",".join(map(str, lam.rows)), "--format", "json")
        assert code == 0
        assert out == json.dumps(payload, default=_json_default, indent=2) + "\n"

    def test_parse_failure(self, capsys):
        code, _, err = run(capsys, "dist", "-p", "2,x")
        assert code == 2
        assert "error" in err

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "dist", "-p", "400", "--exact-cap", "300")
        assert code == 3

    def test_deterministic_output_files(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["dist", "-p", "6,4,2,1", "--output", str(a)]) == 0
        assert main(["dist", "-p", "6,4,2,1", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCumulants:
    def test_prediction_beyond_float_range_exits_4(self, capsys):
        code, out, err = run(capsys, "cumulants", "-p", "3,2", "--max-order", "200")
        assert code == 4 and out == ""
        assert "order 180" in err and "Traceback" not in err

    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_max_order_below_one_is_a_usage_error(self, capsys, order):
        code, out, err = run(capsys, "cumulants", "-p", "3,2", "--max-order", order)
        assert code == 2 and out == ""
        assert "--max-order" in err and "Traceback" not in err

    def test_exact_column_is_the_moment_route(self, capsys):
        code, out, err = run(capsys, "cumulants", "-p", "4,2,2,1", "--max-order", "6")
        assert code == 0 and err == ""
        header, *rows = [line.split(",") for line in out.splitlines()]
        assert header == ["order", "exact", "predicted"]
        assert rows[0] == ["1", "37/2", ""]
        kappa = exact_dist.cumulants_from_polynomial(maj_polynomial(Partition((4, 2, 2, 1))), 6)
        assert [row[0] for row in rows] == ["1", "2", "3", "4", "5", "6"]
        assert [Fraction(row[1]) for row in rows] == list(kappa)


class TestSample:
    def test_metadata_and_determinism(self, capsys):
        code, out1, _ = run(capsys, "sample", "-p", "2,1", "--trials", "1000", "--seed", "7")
        assert code == 0
        assert "# seed=7" in out1 and "# rng=PCG64" in out1
        _, out2, _ = run(capsys, "sample", "-p", "2,1", "--trials", "1000", "--seed", "7")
        assert out1 == out2

    def test_zero_trials(self, capsys):
        code, _, err = run(capsys, "sample", "-p", "2,1", "--trials", "0")
        assert code == 2

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_names_the_rule(self, capsys, trials):
        code, out, err = run(capsys, "sample", "-p", "2,1", "--trials", trials)
        assert code == 2 and out == ""
        assert err == "error: trials must be >= 1\n"

    def test_shape_past_the_block_cap_exits_3_at_once(self, capsys, monkeypatch):
        # 600 000 cells do not fit one lockstep block: refused before a walk starts
        def no_walk(*args):
            raise AssertionError("a hook walk started past the cap")

        monkeypatch.setattr(tableaux, "_hook_walk_block", no_walk)
        code, out, err = run(capsys, "sample", "-p", "600000", "--trials", "1")
        assert code == 3 and out == ""
        assert err == (
            f"error: |lambda| = 600000 exceeds the sampler's block of "
            f"{tableaux._BLOCK_CELLS} cells\n"
        )


class TestLd:
    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "ld", "--family", "two-row", "--y", "0.02", "--n", "20")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,exact_tail,estimate,rate,ratio"
        assert len(lines) == 2
        assert lines[1].startswith("20,")

    def test_empty_n_list(self, capsys):
        for sizes in ("", ","):
            code, out, err = run(capsys, "ld", "--family", "two-row", "--y", "0.02", "--n", sizes)
            assert code == 2 and out == ""
            assert "--n" in err and "Traceback" not in err

    @pytest.mark.parametrize("family", ["two-row", "three-row", "staircase"])
    def test_a_size_below_one_fails_after_the_rows_before_it(self, capsys, family):
        code, out, err = run(capsys, "ld", "--family", family, "--y", "0.02", "--n", "20,0,40")
        assert code == 2 and err == "error: n must be >= 1\n"
        assert [line.split(",")[0] for line in out.splitlines()] == ["n", "20"]

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "ld", "--family", "two-row", "--y", "0.2", "--n", "20")
        assert code == 4

    def test_estimate_below_float_range_exits_4(self, capsys):
        code, out, err = run(
            capsys, "ld", "--family", "two-row", "--y", "0.02", "--n", "100000",
            "--exact-cap", "0",
        )
        assert code == 4 and out == ""
        assert "n = 100000" in err and "its log is -970.291" in err
        assert "Traceback" not in err
        code, out, _ = run(
            capsys, "ld", "--family", "two-row", "--y", "0.02", "--n", "50000",
            "--exact-cap", "0",
        )
        assert code == 0
        assert out.splitlines()[1] == "50000,,2.725541964340618e-212,0.0096555816186308357,"

    def test_rows_before_a_failing_n_are_kept(self, capsys, tmp_path):
        argv = ["ld", "--family", "two-row", "--y", "0.02", "--n", "50000,100000",
                "--exact-cap", "0"]
        expected = (
            "n,exact_tail,estimate,rate,ratio\n"
            "50000,,2.725541964340618e-212,0.0096555816186308357,\n"
        )
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == expected
        assert "n = 100000" in err and "Traceback" not in err
        path = tmp_path / "ld.csv"
        code, out, err = run(capsys, *argv, "--output", str(path))
        assert code == 4 and out == "" and path.read_text() == expected
        assert "Traceback" not in err

    def test_zero_doublings_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "ld", "--family", "two-row", "--y", "0.02", "--n", "20",
            "--quad-max-doublings", "0",
        )
        assert code == 2
        assert "--quad-max-doublings" in err and "slope limit" not in err

    def test_unconverged_quadrature_is_not_a_slope_limit(self, capsys):
        code, _, err = run(
            capsys, "ld", "--family", "two-row", "--y", "0.02", "--n", "20",
            "--quad-tol", "1e-30",
        )
        assert code == 4
        assert "did not stabilise" in err and "slope limit" not in err

    def test_unconverged_conjugation_exits_4(self, capsys, monkeypatch):
        real = asymptotics._lambda_deriv

        def stepped(mu, h, order, quad):
            if order == 1:  # jumps over every target in (0, 1)
                return 0.0 if h < 1.3 else 1.0
            return real(mu, h, order, quad)

        monkeypatch.setattr(asymptotics, "_lambda_deriv", stepped)
        code, out, err = run(capsys, "ld", "--family", "two-row", "--y", "0.02", "--n", "20")
        assert code == 4 and out == ""
        assert err.startswith("error:") and "did not converge" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("y", ["1e-20", "1e-300"])
    def test_tiny_deviation(self, capsys, y):
        code, out, err = run(capsys, "ld", "--family", "two-row", "--y", y, "--n", "20")
        assert code == 0 and err == ""
        assert float(out.splitlines()[1].split(",")[2]) > 0

    @pytest.mark.parametrize("omega", MALFORMED_OMEGAS)
    def test_malformed_omega_is_a_usage_error(self, capsys, omega):
        code, out, err = run(
            capsys, "ld", "--family", "two-row", "--y", "0.02", "--n", "20", "--omega", omega
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv, needle", [
        (["--family", "two-row", "--y", "1/0"], "--y '1/0'"),
        (["--family", "three-row:1/0,1/2,1/2", "--y", "0.05"], "frequency '1/0'"),
    ])
    def test_zero_denominator_is_a_usage_error(self, capsys, argv, needle):
        code, out, err = run(capsys, "ld", *argv, "--n", "20")
        assert code == 2 and out == ""
        assert err.startswith("error:") and needle in err and "Traceback" not in err

    def test_size_beyond_the_index_range(self, capsys):
        # two-row(10^20) has rows longer than any list can be; at y = 0.02
        # its estimate is below float range, at y = 1e-10 it is not
        code, out, err = run(
            capsys, "ld", "--family", "two-row", "--y", "1e-10", "--n", "99999999999999999999"
        )
        assert code == 0 and err == ""
        row = out.splitlines()[1].split(",")
        assert row[0] == "99999999999999999999" and row[1] == "" and row[4] == ""
        assert 0 < float(row[2]) < 1
        code, out, err = run(
            capsys, "ld", "--family", "two-row", "--y", "0.02", "--n", "99999999999999999999"
        )
        assert code == 4 and out == ""
        assert "n = 99999999999999999999" in err and "Traceback" not in err

    def test_beyond_exact_cap_leaves_blanks(self, capsys):
        code, out, _ = run(
            capsys, "ld", "--family", "two-row", "--y", "0.02", "--n", "20",
            "--exact-cap", "10",
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[1] == "" and row[4] == ""

    @pytest.mark.parametrize("family, y, n", [
        ("two-row", "0.02", "20,40"), ("three-row", "0.03", "24"), ("staircase", "0.04", "28"),
    ])
    def test_lower_side_equals_upper_side(self, capsys, family, y, n):
        # the law of maj is palindromic and Lambda is even, so both tails agree
        argv = ["ld", "--family", family, "--y", y, "--n", n]
        code, upper, err = run(capsys, *argv, "--side", "upper")
        assert code == 0 and err == ""
        code, lower, err = run(capsys, *argv, "--side", "lower")
        assert code == 0 and err == ""
        assert lower == upper

    @pytest.mark.parametrize("y, needle", [
        ("1e400", "got inf"), ("1e300", "got 1e+300"), ("-1e400", "must be positive"),
    ])
    def test_deviation_past_float_range_is_out_of_range(self, capsys, y, needle):
        code, out, err = run(capsys, "ld", "--family", "two-row", f"--y={y}", "--n", "20")
        assert code == 4 and out == ""
        assert err.startswith("error:") and needle in err and "Traceback" not in err

    def test_omega_above_the_simplex_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "ld", "--family", "two-row", "--y", "0.02", "--n", "20",
            "--omega", '{"alpha":[0.7,0.5]}',
        )
        assert code == 2 and out == ""
        assert err == "error: alpha and beta must sum to at most 1\n"


class TestBkol:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "bkol", "--family", "two-row", "--n", "8,16")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,d_kol,bound,hypothesis_ok"
        for line in lines[1:]:
            n, d, bound, ok = line.split(",")
            assert ok == "true"
            assert float(d) <= float(bound)

    def test_empty_n_list(self, capsys):
        for sizes in ("", ","):
            code, out, err = run(capsys, "bkol", "--family", "two-row", "--n", sizes)
            assert code == 2 and out == ""
            assert "--n" in err and "Traceback" not in err

    def test_zero_denominator_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "bkol", "--family", "three-row:1/0,1/2,1/2", "--n", "20")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "frequency '1/0'" in err and "Traceback" not in err

    def test_out_of_memory_exits_3(self, capsys, monkeypatch):
        # staircase(10^20) asks for a list of 1.4e10 rows; the MemoryError is
        # raised here without the allocation, which not every OS refuses
        def no_memory(n):
            raise MemoryError

        monkeypatch.setattr(families, "staircase", no_memory)
        code, out, err = run(capsys, "bkol", "--family", "staircase", "--n", "20")
        assert code == 3 and out == ""
        assert err == "error: out of memory\n"

    @pytest.mark.parametrize("command", [["bkol"], ["ld", "--y", "0.03"]])
    def test_three_row_needs_three_frequencies(self, capsys, command):
        code, out, err = run(capsys, *command, "--family", "three-row:1/2,1/2", "--n", "20")
        assert code == 2 and out == ""
        assert err == "error: three-row family needs exactly three frequencies\n"

    def test_flagged_family(self, capsys):
        code, out, _ = run(capsys, "bkol", "--family", "staircase", "--n", "3")
        assert code == 0
        assert out.splitlines()[1].endswith("false")  # (2,1) fails n >= 4

    @pytest.mark.parametrize("family, n", [("two-row", "1"), ("staircase", "2")])
    def test_one_point_law_leaves_d_kol_blank(self, capsys, family, n):
        code, out, err = run(capsys, "bkol", "--family", family, "--n", f"{n},8")
        assert code == 0 and err == ""
        single, other = (line.split(",") for line in out.splitlines()[1:])
        assert single[0] == n and single[1] == "" and single[3] == "false"
        assert float(other[1]) > 0


class TestBochner:
    def test_delta_zero_probe(self, capsys):
        code, out, _ = run(
            capsys, "bochner", "--omega", '{"alpha":[],"beta":[]}', "--xis", "0,3,6"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["min_eigenvalue"] + 0.0135) < 0.002

    def test_single_frequency(self, capsys):
        code, out, _ = run(capsys, "bochner", "--omega", '{"alpha":[],"beta":[]}', "--xis", "0")
        assert json.loads(out)["min_eigenvalue"] == 1.0

    def test_zero_doublings_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "bochner", "--omega", '{"alpha":[],"beta":[]}', "--xis", "0,3,6",
            "--quad-max-doublings", "0",
        )
        assert code == 2
        assert err.startswith("error:") and "--quad-max-doublings" in err

    def test_unconverged_quadrature(self, capsys):
        code, _, err = run(
            capsys, "bochner", "--omega", '{"alpha":[],"beta":[]}', "--xis", "0,3",
            "--quad-tol", "1e-30",
        )
        assert code == 4
        assert err.startswith("error:") and "did not stabilise" in err

    def test_overflowing_frequency_difference_hits_the_cut(self, capsys, recwarn):
        # 1e308 - (-1e308) overflows to inf, which lies on the cut
        code, out, err = run(capsys, "bochner", "--omega", "{}", "--xis", "1e308,-1e308")
        assert code == 4 and out == ""
        assert err.startswith("error:") and "cut" in err and "Traceback" not in err
        assert not recwarn.list

    def test_simplex_edge_point(self, capsys):
        # alpha sums to 1 + 5e-13, inside the simplex tolerance
        code, out, _ = run(
            capsys, "bochner", "--omega", '{"alpha":[0.6000000000005,0.4]}', "--xis", "0,3,6"
        )
        assert code == 0
        assert "min_eigenvalue" in json.loads(out)

    def test_degenerate_parameter(self, capsys):
        code, out, _ = run(
            capsys, "bochner", "--omega", '{"alpha":[1],"beta":[]}', "--xis", "0,3,6"
        )
        assert code == 0
        assert abs(json.loads(out)["min_eigenvalue"]) < 1e-12

    @pytest.mark.parametrize("omega", MALFORMED_OMEGAS)
    def test_malformed_omega_is_a_usage_error(self, capsys, omega):
        code, out, err = run(capsys, "bochner", "--xis", "0,3", "--omega", omega)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("tail, needle", [
        (["--xis", "0,nan"], "frequency nan"),
        (["--xis", "0,inf"], "frequency inf"),
        (["--xis", "0,-inf"], "frequency -inf"),
        (["--xis", "0,3", "--quad-tol", "nan"], "got nan"),
        (["--xis", "0,3", "--quad-tol", "inf"], "got inf"),
        (["--xis", "0,3", "--quad-nodes", "100000"], "got 100000"),
        (["--xis", "0,3", "--quad-nodes", "2100"], "got 2100"),
    ])
    def test_non_finite_or_oversized_input_is_a_usage_error(self, capsys, recwarn, tail, needle):
        code, out, err = run(capsys, "bochner", "--omega", '{"alpha":[],"beta":[]}', *tail)
        assert code == 2 and out == ""
        assert err.startswith("error:") and needle in err and "Traceback" not in err
        assert not recwarn.list


class TestValidate:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "validate", "--max-n", "5")
        assert code == 0
        assert "failures: 0" in out
        assert "partitions checked: 18" in out  # p(1)+...+p(5) = 1+2+3+5+7

    def test_counts_for_default_depth(self, capsys):
        code, out, _ = run(capsys, "validate", "--max-n", "8")
        assert code == 0
        assert "partitions checked: 66" in out  # sum of p(1..8)

    def test_fault_injection(self, capsys, monkeypatch):
        enumerate_maj = tableaux.maj_multiset

        def faulty(lam, *rest):
            counts = enumerate_maj(lam, *rest)
            if lam.rows == (2, 1):
                counts[min(counts)] += 1
            return counts

        monkeypatch.setattr(tableaux, "maj_multiset", faulty)
        code, out, _ = run(capsys, "validate", "--max-n", "4")
        assert code != 0
        assert "polynomial-vs-enumeration: FAIL" in out
        assert "Partition(2, 1)" in out

    @pytest.mark.parametrize("max_n", ["0", "-1", "13"])
    def test_max_n_out_of_range(self, capsys, max_n):
        code, out, err = run(capsys, "validate", "--max-n", max_n)
        assert code == 2 and out == ""
        assert "max_n" in err and "Traceback" not in err

    def test_no_fault_injection_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--max-n", "4", "--inject-fault"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --inject-fault" in capsys.readouterr().err


class TestConfig:
    def test_env_overrides_defaults(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quad.nodes": 96, "quad.rel_tol": 1e-10, "seed": 5}))
        monkeypatch.setenv("MAJMETER_CONFIG", str(cfg))
        for argv in (LD, BOCHNER):
            args = parse_args(argv)
            assert args.quad_nodes == 96
            assert args.quad_tol == 1e-10
            assert args.quad_max_doublings == 4
        assert parse_args(SAMPLE).seed == 5

    def test_flag_beats_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quad.nodes": 96, "seed": 5}))
        monkeypatch.setenv("MAJMETER_CONFIG", str(cfg))
        assert parse_args([*LD, "--quad-nodes", "32"]).quad_nodes == 32
        assert parse_args([*BOCHNER, "--quad-nodes", "32"]).quad_nodes == 32
        assert parse_args([*SAMPLE, "--seed", "9"]).seed == 9

    def test_builtin_defaults_without_config(self, monkeypatch):
        monkeypatch.delenv("MAJMETER_CONFIG", raising=False)
        args = parse_args(LD)
        assert (args.quad_nodes, args.quad_tol, args.quad_max_doublings) == (64, 1e-12, 4)
        assert args.exact_cap == 300
        assert parse_args(SAMPLE).seed == 0

    def test_keys_for_absent_flags_are_ignored(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("MAJMETER_CONFIG", raising=False)
        _, plain, _ = run(capsys, "dist", "-p", "3,1")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quad.nodes": 96, "seed": 5}))
        monkeypatch.setenv("MAJMETER_CONFIG", str(cfg))
        code, out, err = run(capsys, "dist", "-p", "3,1")
        assert code == 0 and out == plain and err == ""
        assert not hasattr(parse_args(["dist", "-p", "3,1"]), "seed")

    def test_each_call_reads_the_current_file(self, capsys, tmp_path, monkeypatch):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(json.dumps({"seed": 5}))
        second.write_text(json.dumps({"seed": 9}))
        monkeypatch.setenv("MAJMETER_CONFIG", str(first))
        _, out, _ = run(capsys, *SAMPLE)
        assert "# seed=5" in out.splitlines()
        monkeypatch.setenv("MAJMETER_CONFIG", str(second))
        _, out, _ = run(capsys, *SAMPLE)
        assert "# seed=9" in out.splitlines()
        monkeypatch.delenv("MAJMETER_CONFIG")
        _, out, _ = run(capsys, *SAMPLE)
        assert "# seed=0" in out.splitlines()

    @pytest.mark.parametrize(
        "text, needle",
        [
            ('{"quad.nodes": 96, "quad.nodez": 32}', "quad.nodez"),
            ("{not json", "cfg.json"),
            ("[1, 2]", "cfg.json"),
        ],
    )
    def test_bad_file_is_a_usage_error(self, capsys, tmp_path, monkeypatch, text, needle):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        monkeypatch.setenv("MAJMETER_CONFIG", str(cfg))
        code, out, err = run(capsys, "dist", "-p", "2,1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and needle in err

    def test_string_values_parse_as_flags(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quad.nodes": "96", "quad.rel_tol": "1e-10"}))
        monkeypatch.setenv("MAJMETER_CONFIG", str(cfg))
        args = parse_args(LD)
        assert args.quad_nodes == 96 and args.quad_tol == 1e-10

    @pytest.mark.parametrize(
        "text", ['{"quad.nodes": "abc"}', '{"quad.nodes": [1]}', '{"quad.nodes": 96.5}',
                 '{"seed": null}', '{"exact_cap": true}'],
    )
    def test_bad_value_is_a_usage_error(self, capsys, tmp_path, monkeypatch, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        monkeypatch.setenv("MAJMETER_CONFIG", str(cfg))
        code, out, err = run(capsys, *LD)
        assert code == 2 and out == ""
        assert err.startswith("error:") and next(iter(json.loads(text))) in err

    def test_missing_file_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        missing = tmp_path / "absent.json"
        monkeypatch.setenv("MAJMETER_CONFIG", str(missing))
        code, _, err = run(capsys, "dist", "-p", "2,1")
        assert code == 2
        assert err.startswith("error:") and str(missing) in err


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_reads_no_environment(self, tmp_path, monkeypatch):
        # a fresh build succeeds with a config path that does not exist, and
        # leaves the settable flags unset until parse_args fills them
        monkeypatch.setenv("MAJMETER_CONFIG", str(tmp_path / "absent.json"))
        args = build_parser.__wrapped__().parse_args(LD)
        assert args.quad_nodes is None and args.exact_cap is None

    def test_shared_flag_slots(self):
        assert len(KEPT) == 21 and len(REMOVED) == 35

    @pytest.mark.parametrize("command, flag", KEPT)
    def test_kept_flag_is_accepted(self, command, flag):
        tail, attr, value = FLAG_VALUES[flag]
        assert getattr(parse_args([*BASE_ARGV[command], *tail]), attr) == value

    @pytest.mark.parametrize("command, flag", REMOVED)
    def test_removed_flag_is_a_usage_error(self, capsys, command, flag):
        tail, _, _ = FLAG_VALUES[flag]
        with pytest.raises(SystemExit) as exc:
            main([*BASE_ARGV[command], *tail])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(tail)}" in err
        assert "Traceback" not in err

    def test_removed_flag_exits_2_from_the_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "majmeter.cli", *LD, "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "unrecognized arguments: --format json" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "majmeter.cli", "dist", "-p", "3,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "maj,count" in proc.stdout


# --- fuzz of the entry point -------------------------------------------------
# argv drawn past the hand-picked cases above: odd partitions, size lists,
# deviations, Thoma parameters, quadrature settings and frequencies. Half the
# examples draw only valid values, so that they reach the computations; the
# other half mix in invalid ones and leave flags out. Every size is bounded
# so that one example stays cheap: at most 30 cells where a shape is built
# (10^20 only for the two- and three-row families, which keep three rows), at
# most 2000 trials, at most 128 starting quadrature nodes and 2 doublings.
# staircase(10^20) would ask for 1.4e10 rows, which fails at once only where
# the OS refuses to overcommit; its exit code is tested apart.

def _csv(values):
    return st.lists(values, min_size=1, max_size=4).map(",".join)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


@st.composite
def _thoma_json(draw):
    """A point of the Thoma simplex as "p/q" strings, its mass on {-1, 1} included."""
    weights = draw(st.lists(st.integers(0, 6), max_size=5))
    denominator = sum(weights) + draw(st.integers(0 if sum(weights) else 1, 6))
    split = draw(st.integers(0, len(weights)))
    alpha, beta = sorted(weights[:split], reverse=True), sorted(weights[split:], reverse=True)
    return json.dumps({"alpha": [f"{w}/{denominator}" for w in alpha],
                       "beta": [f"{w}/{denominator}" for w in beta]})


FUZZ_ENTRY = st.one_of(
    st.floats(-0.2, 1.2), st.integers(-1, 2), st.sampled_from(["1/3", "2/5", "1/0", "x", None]),
)
# flag -> (valid values, invalid values); None for a switch
FUZZ_VALUES = {
    "--partition": (
        partition_strategy(max_n=30).map(lambda lam: ",".join(map(str, lam.rows))),
        st.one_of(_csv(_ints(-2, 7)),  # unsorted, zero or negative rows
                  st.sampled_from(["", " ", ",", "2,x", "1.5", "3,,1", "+2", "-0"])),
    ),
    "--strict": None,
    "--format": (st.sampled_from(["csv", "json"]), st.just("xml")),
    "--exact-cap": (_ints(0, 300), _ints(-3, -1)),
    "--max-order": (_ints(1, 40), _ints(-2, 0)),
    "--trials": (_ints(1, 2000), _ints(-2, 0)),
    "--seed": (_ints(0, 2**70), _ints(-3, -1)),
    "--family": (
        st.sampled_from(["two-row", "three-row", "staircase", " Two-Row ",
                         "three-row:1/3,1/3,1/3", "three-row:0.5,0.3,0.2", "three-row:1,0,0"]),
        st.one_of(
            st.sampled_from(["squares", "three-row:1/2,1/2", "three-row:1/4,1/2,1/4"]),
            _csv(st.sampled_from(["1/2", "1/3", "1/6", "0.5", "0.3", "1/0", "-1/2", "x"]))
            .map(lambda freqs: "three-row:" + freqs),
        ),
    ),
    "--y": (
        st.one_of(st.floats(1e-4, 0.3).map(repr), st.sampled_from(["1/40", "1e-20", "1e-400"])),
        st.sampled_from(["0", "-1", "1/0", "nan", "1e400", "x"]),
    ),
    "--n": "sizes",
    "--side": (st.sampled_from(["upper", "lower"]), st.just("both")),
    "--omega": (_thoma_json(), st.one_of(
        st.fixed_dictionaries({}, optional={"alpha": st.lists(FUZZ_ENTRY, max_size=4),
                                            "beta": st.lists(FUZZ_ENTRY, max_size=4)})
        .map(json.dumps),
        st.sampled_from(MALFORMED_OMEGAS))),
    "--quad-nodes": (_ints(8, 128), _ints(-2, 7)),
    "--quad-tol": (st.sampled_from(["1e-12", "1e-10", "1e-8", "1e-6"]),
                   st.sampled_from(["1e-30", "0", "-1", "nan", "inf"])),
    "--quad-max-doublings": (_ints(1, 2), _ints(-1, 0)),
    "--xis": (_csv(st.floats(-3, 3).map(repr)),
              _csv(st.one_of(st.floats(-3, 3).map(repr), st.sampled_from(
                  ["8", "nan", "inf", "1e308", "-1e308", "x", ""])))),
    "--max-n": (_ints(1, 5), st.sampled_from(["-1", "0", "13", "x"])),
}
QUAD_FUZZ = ("--quad-nodes", "--quad-tol", "--quad-max-doublings")
# subcommand -> (required flags, optional flags)
FUZZ_COMMANDS = {
    "dist": (("--partition",), ("--format", "--exact-cap", "--strict")),
    "cumulants": (("--partition",), ("--max-order", "--strict")),
    "sample": (("--partition", "--trials"), ("--seed", "--strict")),
    "ld": (("--family", "--y", "--n"), ("--side", "--omega", *QUAD_FUZZ, "--exact-cap")),
    "bkol": (("--family", "--n"), ("--exact-cap",)),
    "bochner": (("--omega", "--xis"), QUAD_FUZZ),
    "validate": ((), ("--max-n",)),
}


def _sizes(family: str):
    """--n lists, valid and mixed; 10^20 only where the family keeps three rows."""
    valid = _ints(1, 30)
    if "staircase" not in family.lower():
        valid = st.one_of(valid, st.just("99999999999999999999"))
    return _csv(valid), _csv(st.one_of(valid, st.sampled_from(["-1", "0", "", "x"])))


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    clean = draw(st.booleans())  # only valid values and every required flag
    required, optional = FUZZ_COMMANDS[command]
    argv = [command]
    for flag in (*required, *optional):
        # a required flag is left out one time in twenty, any other one in two
        if flag in required:
            keep = st.just(True) if clean else st.sampled_from([True] * 19 + [False])
        else:
            keep = st.booleans()
        if not draw(keep):
            continue
        values = FUZZ_VALUES[flag]
        if values is None:
            argv.append(flag)
            continue
        if values == "sizes":
            values = _sizes("".join(a for a in argv if a.startswith("--family=")))
        valid, invalid = values
        value = draw(valid if clean else st.one_of(valid, invalid))
        # flag=value, so that a value starting with "-" stays a value
        argv.append(f"{flag}={value}")
    if not clean and draw(st.sampled_from([False] * 19 + [True])):
        argv.append("--bogus")
    return argv


@given(fuzz_argv())
@settings(deadline=None, max_examples=300)
def test_fuzzed_argv_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), redirect_stdout(out), redirect_stderr(err):
        os.environ.pop("MAJMETER_CONFIG", None)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error
            assert exc.code == 2, argv
            return
    allowed = {0, 1, 2, 3, 4} if argv[0] == "validate" else {0, 2, 3, 4}
    assert code in allowed, argv
    if code:
        assert err.getvalue().startswith("error:"), argv
    assert "Traceback" not in err.getvalue()
