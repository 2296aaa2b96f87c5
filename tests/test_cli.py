import json
import subprocess
import sys

import pytest

from majmeter import asymptotics
from majmeter.cli import build_parser, main
from majmeter.families import family, staircase, three_row, two_row
from majmeter.partitions import Partition


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


class TestLd:
    def test_single_row(self, capsys):
        code, out, _ = run(capsys, "ld", "--family", "two-row", "--y", "0.02", "--n", "20")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,exact_tail,estimate,rate,ratio"
        assert len(lines) == 2
        assert lines[1].startswith("20,")

    def test_empty_n_list(self, capsys):
        code, out, _ = run(capsys, "ld", "--family", "two-row", "--y", "0.02", "--n", "")
        assert code == 0
        assert out.splitlines() == ["n,exact_tail,estimate,rate,ratio"]

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "ld", "--family", "two-row", "--y", "0.2", "--n", "20")
        assert code == 4

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

    def test_beyond_exact_cap_leaves_blanks(self, capsys):
        code, out, _ = run(
            capsys, "ld", "--family", "two-row", "--y", "0.02", "--n", "20",
            "--exact-cap", "10",
        )
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[1] == "" and row[4] == ""


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

    def test_flagged_family(self, capsys):
        code, out, _ = run(capsys, "bkol", "--family", "staircase", "--n", "3")
        assert code == 0
        assert out.splitlines()[1].endswith("false")  # (2,1) fails n >= 4


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

    def test_fault_injection(self, capsys):
        code, out, _ = run(capsys, "validate", "--max-n", "4", "--inject-fault")
        assert code != 0
        assert "polynomial-vs-enumeration: FAIL" in out
        assert "Partition(2, 1)" in out


class TestConfig:
    def test_env_overrides_defaults(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quad.nodes": 96, "quad.rel_tol": 1e-10, "seed": 5}))
        monkeypatch.setenv("MAJMETER_CONFIG", str(cfg))
        args = build_parser().parse_args(["dist", "-p", "2,1"])
        assert args.quad_nodes == 96
        assert args.quad_tol == 1e-10
        assert args.seed == 5

    def test_flag_beats_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quad.nodes": 96}))
        monkeypatch.setenv("MAJMETER_CONFIG", str(cfg))
        args = build_parser().parse_args(["dist", "-p", "2,1", "--quad-nodes", "32"])
        assert args.quad_nodes == 32

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

    def test_missing_file_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        missing = tmp_path / "absent.json"
        monkeypatch.setenv("MAJMETER_CONFIG", str(missing))
        code, _, err = run(capsys, "dist", "-p", "2,1")
        assert code == 2
        assert err.startswith("error:") and str(missing) in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "majmeter.cli", "dist", "-p", "3,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "maj,count" in proc.stdout
