"""The benchmark runs every workload and check at smoke size, and its checks
reject perturbed program output."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
from majmeter import cli, exact_dist  # noqa: E402
from majmeter.partitions import Partition  # noqa: E402


def _results(*argv):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke", *argv],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def test_smoke_runs_every_workload_with_its_checks():
    results = _results()
    assert len(results) == 3
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {"ops_per_s", "op_p50_ms", "setup_s", "peak_rss_mb"} == set(result["metrics"])


@pytest.mark.parametrize("workload", ["small-shapes", "large-shapes"])
def test_traced_smoke_reports_every_layer_metric(workload):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    (result,) = _results("--workload", workload, "--trace", "1")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def _cli(*argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def _bump_middle_coefficient(text):
    payload = json.loads(text)
    mid = len(payload["coeffs"]) // 2
    payload["coeffs"][mid] = str(int(payload["coeffs"][mid]) + 1)
    return json.dumps(payload)


def _replace_field(column):
    def perturb(text):
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[column] = repr(float(cells[column]) * (1 + 1e-9))
        return "\n".join([lines[0], ",".join(cells)] + lines[2:])
    return perturb


def _shift_histogram(text):
    lines = text.splitlines()
    start = lines.index("maj,count") + 1
    shifted = [f"{int(m) + 1},{c}" for m, c in (line.split(",") for line in lines[start:])]
    return "\n".join(lines[:start] + shifted)


def _nudge_eigenvalue(text):
    payload = json.loads(text)
    payload["min_eigenvalue"] += 1e-6
    return json.dumps(payload)


CASES = {
    "dist law": (("dist", "--format", "json", "-p", "6,3,2"), _bump_middle_coefficient),
    "dist d_kol": (("dist", "--format", "json", "-p", "5,5"),
                   lambda t: t.replace('"d_kol": 0.', '"d_kol": 0.0')),
    "bkol": (("bkol", "--family", "staircase", "--n", "15"), _replace_field(1)),
    "validate verdict": (("validate", "--max-n", "4"),
                         lambda t: t.replace("rsk-descent-preservation: PASS",
                                             "rsk-descent-preservation: FAIL at (2, 1)")),
    "validate count": (("validate", "--max-n", "4"),
                       lambda t: t.replace("partitions checked: 11", "partitions checked: 12")),
    "sample": (("sample", "-p", "4,2,2,1", "--trials", "2000", "--seed", "3"), _shift_histogram),
    "ld tail": (("ld", "--family", "two-row", "--y", "0.02", "--n", "40"), _replace_field(1)),
    "ld estimate": (("ld", "--family", "two-row", "--y", "0.02", "--n", "40"), _replace_field(2)),
    "bochner": (("bochner", "--omega", '{"alpha":[],"beta":[]}', "--xis", "0,3,6"),
                _nudge_eigenvalue),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_rejects_perturbed_output(case):
    argv, perturb = CASES[case]
    text = _cli(*argv)
    perturbed = perturb(text)
    assert perturbed != text
    refs = checks.References()
    y = Fraction("0.02")
    assert checks.check_cli(list(argv), text, refs, y) == []
    assert checks.check_cli(list(argv), perturbed, refs, y) != []


def test_float_route_check_rejects_perturbed_mass():
    rows = (9, 6, 3)
    offset, coeffs = exact_dist.maj_polynomial_float(Partition(rows))
    assert checks.check_float_law(rows, (offset, coeffs)) == []
    coeffs = coeffs.copy()
    coeffs[len(coeffs) // 2] *= 1 + 1e-9
    assert checks.check_float_law(rows, (offset, coeffs)) != []
