"""Command-line interface: exit codes, formats, determinism, output routing."""

import json
import subprocess
import sys

import pytest

from poincare_hardy import Bump, cli
from poincare_hardy.cli import main
from poincare_hardy.reports import MarginReport


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_constants_text_k1(capsys):
    code, out, _ = run(["constants", "--k", "1", "--l", "0", "--N", "3"], capsys)
    assert code == 0
    assert "poincare  1 " in out
    assert "hardy     1/4" in out


def test_constants_text_k2(capsys):
    code, out, _ = run(["constants", "--k", "2", "--l", "0", "--N", "5"], capsys)
    assert code == 0
    assert "c1" in out and "2" in out
    assert "9/16" in out


def test_constants_json_payload(capsys):
    code, out, _ = run(["constants", "--k", "2", "--l", "1", "--N", "5", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == {"k": 2, "l": 1, "N": 5}
    assert payload["poincare"] == {"num": "4", "den": "1", "decimal": 4.0}
    assert payload["chain"]["c1"]["num"] == "1"
    assert payload["chain"]["c2"]["num"] == "9"


def test_constants_hypothesis_violation_exits_64(capsys):
    code, _, err = run(["constants", "--k", "2", "--l", "1", "--N", "4"], capsys)
    assert code == 64
    assert "requires N > 4" in err


def test_usage_error_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--k", "2"])  # missing --N
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--case", "unknown_case", "--N", "5"])
    assert exc.value.code == 64


def test_rmax_is_rejected(capsys):
    # truncating the domain below a support end would certify a different integral
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--case", "poincare", "--N", "5", "--rmax", "1.5"])
    assert exc.value.code == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--case", "poincare", "--N", "5", "--doublings", "0"],  # noise is inf
        ["halfspace", "--which", "pf1", "--alpha", "1e308"],  # a residual is nan
    ],
)
def test_nonfinite_json_exits_2(argv, capsys):
    code, out, err = run(argv + ["--format", "json"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure:") and "Traceback" not in err


@pytest.mark.parametrize("which", ["pf1", "pf2"])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_nonfinite_identity_side_exits_2(which, fmt, capsys):
    # y^alpha overflows, so the sides are inf or nan; a nan residual must not PASS
    code, out, err = run(["halfspace", "--which", which, "--alpha", "1e308", "--format", fmt], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure:") and "not finite" in err and "Traceback" not in err


def test_measure_overflow_exits_2(capsys):
    # sinh^159 overflows past r = 690/159 = 4.34; the suite's bump_c3.5_w1.0
    # reaches 4.5, and only nodes inside a support are evaluated
    code, out, err = run(["verify", "--case", "poincare", "--N", "160"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure:") and "overflows" in err


def test_zero_function_exits_64(capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_suite", lambda name: (Bump(1.0, 1e-13),))
    for argv in (
        ["verify", "--case", "poincare", "--N", "5"],
        ["verify", "--case", "hardy1d"],
        ["identity", "--which", "estimate1", "--N", "5", "--n", "0"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 64
        assert out == ""
        assert err.startswith("error:") and "vanishes" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["halfspace", "--which", "rellich1", "--panels", "0"],
        ["halfspace", "--which", "rellich1", "--doublings", "-1"],
        ["verify", "--case", "poincare", "--N", "5", "--doublings", "-1"],
    ],
)
def test_bad_quadrature_spec_exits_2(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("numerical failure:")


def test_verify_passes_and_counts(capsys):
    code, out, _ = run(["verify", "--case", "poincare", "--N", "5"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 21  # 20 members + summary
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "PASS: 20/20 checks passed"


def test_verify_requires_dimension(capsys):
    code, _, err = run(["verify", "--case", "poincare"], capsys)
    assert code == 64
    assert "requires --N" in err


def test_verify_general_requires_orders(capsys):
    code, _, err = run(["verify", "--case", "general", "--N", "7"], capsys)
    assert code == 64
    assert "--k and --l" in err


def test_verify_hardy1d_ignores_dimension(capsys):
    code, out, _ = run(["verify", "--case", "hardy1d"], capsys)
    assert code == 0
    assert "PASS: 60/60 checks passed" in out


def test_verify_absurd_tolerance_exits_1(capsys):
    code, out, _ = run(["verify", "--case", "thm21", "--N", "5", "--tol", "1e-30"], capsys)
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("tol", ["inf", "1", "nan", "0"])
def test_out_of_range_tolerance_exits_64(tol, capsys):
    # at tol >= 1 any margin passes the gate; tol <= 0 or nan fails every one
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--case", "hardy1d", "--tol", tol])
    assert exc.value.code == 64
    assert "argument --tol: must satisfy 0 < tol < 1" in capsys.readouterr().err


def test_sharpness_has_no_tolerance(capsys):
    # a sharpness table has no verdict for a tolerance to gate
    with pytest.raises(SystemExit) as exc:
        main(["sharpness", "--case", "thm21_r2", "--tol", "1e-3"])
    assert exc.value.code == 64


def test_sharpness_empty_bump_exits_64(capsys):
    for params in ("--params=2,-1", "--params=-5"):
        code, out, err = run(["sharpness", "--case", "thm21_r2", params], capsys)
        assert code == 64
        assert out == ""
        assert err.startswith("error: bump needs width > 0")


def test_verify_json_deterministic_and_round_trips(capsys):
    argv = ["verify", "--case", "poincare", "--N", "5", "--format", "json"]
    code1, out1, _ = run(argv, capsys)
    code2, out2, _ = run(argv, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["suite"] == {"name": "standard", "version": 1}
    assert payload["all_pass"] is True
    assert len(payload["reports"]) == 20
    report = MarginReport.from_dict(payload["reports"][0])
    assert report.verdict is True
    assert report.margin == payload["reports"][0]["margin"]


def test_verify_csv_long_format(capsys):
    code, out, _ = run(["verify", "--case", "poincare", "--N", "5", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "case,N,function_id,term,value"
    first = lines[1].split(",")
    assert first[0] == "poincare" and first[1] == "5"


def test_out_file_and_outdir_env(tmp_path, capsys, monkeypatch):
    target = tmp_path / "direct.json"
    code, out, _ = run(
        ["verify", "--case", "poincare", "--N", "5", "--format", "json", "--out", str(target)],
        capsys,
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["all_pass"] is True

    monkeypatch.setenv("POINCARE_HARDY_OUTDIR", str(tmp_path / "auto"))
    code, out, _ = run(["verify", "--case", "poincare", "--N", "5", "--format", "json"], capsys)
    assert code == 0 and out == ""
    auto = tmp_path / "auto" / "verify_poincare_N5.json"
    assert auto.exists()


def test_unwritable_output_exits_2(capsys):
    code, _, err = run(
        ["constants", "--k", "1", "--l", "0", "--N", "3", "--out", "/dev/null/nope/x.txt"],
        capsys,
    )
    assert code == 2
    assert "output failure" in err


def test_identity_subcommand(capsys):
    code, out, _ = run(["identity", "--which", "ph1", "--N", "5"], capsys)
    assert code == 0
    assert "PASS: 20/20 checks passed" in out


def test_identity_estimate_with_mode(capsys):
    code, out, _ = run(
        ["identity", "--which", "estimate2", "--N", "7", "--n", "2", "--suite", "origin"], capsys
    )
    assert code == 0
    assert "n=2" in out


def test_sharpness_params_parsing(capsys):
    code, out, _ = run(["sharpness", "--case", "poincare_k1", "--N", "5", "--params", "2.5,2.1"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3  # header + 2 rows
    assert "quotient" in lines[0]


def test_sharpness_bad_rate_exits_64(capsys):
    code, _, err = run(["sharpness", "--case", "poincare_k1", "--N", "5", "--params", "1.5"], capsys)
    assert code == 64
    assert "not above" in err


@pytest.mark.parametrize("rate", ["inf", "1e300", "nan"])
def test_sharpness_nonfinite_or_underflowing_rate_exits_64(rate, capsys):
    # inf and nan are not rates; at 1e300 the weight exp(-2 a r) is 0 on every node
    code, out, err = run(["sharpness", "--case", "poincare_k1", "--N", "5", f"--params={rate}"], capsys)
    assert code == 64
    assert out == ""
    assert err.startswith("error: decay rate") and "Traceback" not in err


def test_halfspace_subcommand_margin(capsys):
    code, out, _ = run(["halfspace", "--which", "hardy_mazya", "--N", "5"], capsys)
    assert code == 0
    assert "PASS: 6/6 checks passed" in out


def test_halfspace_subcommand_pf(capsys):
    code, out, _ = run(["halfspace", "--which", "pf1", "--N", "5", "--alpha", "1.5"], capsys)
    assert code == 0
    assert "PASS: 6/6 checks passed" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "poincare_hardy", "constants", "--k", "1", "--l", "0", "--N", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "hardy" in proc.stdout
