"""Command-line interface: exit codes, formats, determinism, output routing."""

import json
import os
import subprocess
import sys

import pytest

from poincare_hardy import Bump, QuadratureSpec, cli, halfspace, load_suite, quadrature
from poincare_hardy.cli import main
from poincare_hardy.quadrature import build_grid
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


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_nonfinite_margin_term_exits_2(fmt, capsys):
    # rho^{N-2} overflows, so a term integral is nan; a nan margin must not print as a certificate
    code, out, err = run(["halfspace", "--which", "rellich1", "--N", "1000", "--format", fmt], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "numerical failure: halfspace_rellich1 on bump_c2.0_w1.0_p1|bump_c0.8_w0.3_p0: a term integral is not finite\n"
    )


def test_memoised_fields_keep_the_overflow_and_the_size_refusal(capsys, monkeypatch):
    # N = 5 memoises every member's jets and field; N = 1000 reads them and still overflows rho^{N-2},
    # and an oversized field is still refused before its grid is built
    assert run(["halfspace", "--which", "rellich1", "--N", "5"], capsys)[0] == 0
    assert run(["halfspace", "--which", "rellich1", "--N", "1000"], capsys) == (
        2,
        "",
        "numerical failure: halfspace_rellich1 on bump_c2.0_w1.0_p1|bump_c0.8_w0.3_p0: a term integral is not finite\n",
    )
    built = []
    build = halfspace.build_plane_grid
    monkeypatch.setattr(halfspace, "build_plane_grid", lambda *args: built.append(args) or build(*args))
    code, out, err = run(["halfspace", "--which", "rellich1", "--N", "5", "--panels", "100000"], capsys)
    assert (built, code, out) == ([], 2, "")
    assert err.startswith("numerical failure: the distance field on 3200000 x 3200000 nodes")


def _measure_overflow(p: int) -> str:
    """The measure's refusal, as ``quadrature.weight_values`` words it for sinh^p: at the largest refine-0
    node of the first `standard` member whose grid reaches past 690/p."""
    grids = (build_grid(QuadratureSpec(), u.support) for u in load_suite("standard"))
    r = next(float(grid.nodes.max()) for grid in grids if p * grid.nodes.max() > 690.0)
    return f"numerical failure: sinh^{p} overflows double precision at r = {r:g}; use a smaller support or dimension\n"


@pytest.mark.parametrize("which", ["ph1", "trans1", "estimate1", "estimate2"])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_identity_overflow_exits_2_quietly(which, fmt, capsys):
    # at N = 1000 the pointwise checks' sinh^{(N-1)/2} overflows, so a side is inf or nan; the estimates
    # integrate under the measure sinh^{N-1} r, which refuses to overflow: one message, no numpy warnings
    code, out, err = run(["identity", "--which", which, "--N", "1000", "--format", fmt], capsys)
    assert code == 2
    assert out == ""
    if which in ("ph1", "trans1"):
        assert err == f"numerical failure: {which} on bump_c1.0_w0.9_p0: a side of the identity is not finite\n"
    else:
        assert err == _measure_overflow(999)


@pytest.mark.parametrize(
    "argv",
    [
        ["identity", "--which", "estimate1", "--N", "160"],
        ["identity", "--which", "estimate2", "--N", "160"],
        ["verify", "--case", "thm21", "--N", "160"],
    ],
    ids=["estimate1", "estimate2", "thm21"],
)
def test_estimates_and_margins_refuse_one_overflowing_measure_alike(argv, capsys):
    # the estimates integrate under sinh^{N-1} r as the margins do: bump_c3.5_w1.0 reaches
    # r = 4.5, past 690/159 = 4.34, so every command stops at its grid with the same line
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err == _measure_overflow(159)


@pytest.mark.parametrize(
    "argv",
    [["verify", "--case", "thm21", "--N", "160"], ["identity", "--which", "estimate1", "--N", "160"]],
    ids=["thm21", "estimate1"],
)
def test_a_refused_measure_leaves_every_grid_memo_empty(argv, capsys, monkeypatch):
    # the CLI evaluates the members of a grid together, and stores their terms in one update:
    # on the grids where sinh^159 overflows (past r = 690/159) nothing may be stored
    grids = []
    build = quadrature.build_grid
    monkeypatch.setattr(quadrature, "build_grid", lambda *args: grids.append(build(*args)) or grids[-1])
    assert run(argv, capsys) == (2, "", _measure_overflow(159))
    refused = [grid for grid in grids if 159 * grid.nodes.max() > 690.0]
    assert refused and all(grid._terms == {} for grid in refused)
    assert any(grid._terms for grid in grids)  # the members before it finished their grids


@pytest.mark.parametrize("which", ["pf1", "pf2"])
@pytest.mark.parametrize(
    "alpha, message",
    [("nan", "must be finite, got 'nan'"), ("inf", "must be finite, got 'inf'"), ("abc", "invalid float value: 'abc'")],
)
def test_bad_alpha_exits_64(which, alpha, message, capsys):
    # the power comes from the command line: a usage error, as --tol nan is
    with pytest.raises(SystemExit) as exc:
        main(["halfspace", "--which", which, "--alpha", alpha])
    assert exc.value.code == 64
    assert f"argument --alpha: {message}" in capsys.readouterr().err


_NO_MEMORY = "Unable to allocate 74.5 TiB for an array with shape (3200000, 3200000) and data type float64"


def _out_of_memory(*args, **kwargs):
    raise MemoryError(_NO_MEMORY)


@pytest.mark.parametrize(
    "argv, module, attr",
    [
        (["halfspace", "--which", "rellich1"], "poincare_hardy.halfspace", "_field_integrals"),
        (["verify", "--case", "thm21", "--N", "5"], "poincare_hardy.quadrature.Grid", "integrate"),
    ],
    ids=["halfspace", "verify"],
)
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_allocation_failure_exits_2_quietly(argv, module, attr, fmt, capsys, monkeypatch):
    # an allocation too large for the machine is an infrastructure failure, not a failed verdict
    monkeypatch.setattr(f"{module}.{attr}", _out_of_memory)
    code, out, err = run([*argv, "--format", fmt], capsys)
    assert code == 2
    assert out == ""
    assert err == f"memory failure: {_NO_MEMORY}\n"


def test_oversized_field_is_refused_at_once(capsys, monkeypatch):
    # 100000 panels of 32 nodes a side is a 3200000^2 distance field, far over
    # the 2^28-point limit: refused before its grid is built, not run for hours
    built = []
    build = halfspace.build_plane_grid
    monkeypatch.setattr(halfspace, "build_plane_grid", lambda *args: built.append(args) or build(*args))
    code, out, err = run(["halfspace", "--which", "rellich1", "--N", "5", "--panels", "100000"], capsys)
    assert built == []
    assert code == 2
    assert out == ""
    assert err == (
        "numerical failure: the distance field on 3200000 x 3200000 nodes has 10240000000000 points, "
        "over the limit of 268435456; use fewer panels or nodes per panel\n"
    )


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
        ["verify", "--case", "thm21", "--panels", "0"],  # the spec is checked before the missing --N
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


def test_verify_unknown_suite_is_reported_before_missing_orders(capsys):
    code, out, err = run(["verify", "--case", "general", "--N", "5", "--suite", "nope"], capsys)
    assert (code, out) == (64, "")
    assert err.startswith("error: unknown suite 'nope'")


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
    for params in ("--params=2,-1", "--params=-5", "--params=inf", "--params=1e300", "--params=1e17"):
        code, out, err = run(["sharpness", "--case", "thm21_r2", params], capsys)
        assert code == 64
        assert out == ""
        assert err.startswith("error: bump needs width > 0")


def test_sharpness_bump_missing_every_node_exits_64(capsys):
    # the support (1e15 - 1, 1e15 + 1) is valid but holds no quadrature node, so the quotient is 0/0
    for fmt in ("text", "json", "csv"):
        code, out, err = run(["sharpness", "--case", "thm21_r2", "--params=1e15", "--format", fmt], capsys)
        assert (code, out) == (64, "")
        assert err == "error: thm21_r2: bump_c1000000000000000.0_w1.0_p0 vanishes on the quadrature grid\n"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_sharpness_bump_past_measure_overflow_exits_2_quietly(capsys, fmt):
    # nodes near r = 1000 overflow cosh and sinh; only the measure's refusal may speak
    code, out, err = run(["sharpness", "--case", "thm21_r2", "--params=1000", "--format", fmt], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("numerical failure: sinh^4 overflows") and err.count("\n") == 1


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


# pairs of commands that compute different reports; coarse grids keep them fast
_COARSE = ["--panels", "4", "--nodes", "16", "--doublings", "1", "--format", "json"]


@pytest.mark.parametrize(
    "first, second",
    [
        (
            ["verify", "--case", "general", "--k", "2", "--l", "1", "--N", "9"],
            ["verify", "--case", "general", "--k", "3", "--l", "2", "--N", "9"],
        ),
        (
            ["identity", "--which", "estimate1", "--N", "5", "--n", "0"],
            ["identity", "--which", "estimate1", "--N", "5", "--n", "2"],
        ),
        (["verify", "--case", "yang", "--N", "7"], ["verify", "--case", "yang", "--N", "7", "--beta", "2"]),
        (["verify", "--case", "poincare", "--N", "5"], ["verify", "--case", "poincare", "--N", "5", "--suite", "origin"]),
    ],
    ids=["general_k_l", "estimate1_n", "yang_beta", "suite"],
)
def test_auto_named_outputs_of_different_reports_are_distinct(first, second, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("POINCARE_HARDY_OUTDIR", str(tmp_path))
    written = {}
    for argv in (first, second):
        code, out, _ = run([*argv, *_COARSE], capsys)
        assert code in (0, 1) and out == ""
        written.update({path.name: path.read_text() for path in tmp_path.iterdir() if path.name not in written})
    # two files, and the second command left the first one's file as it was
    assert len(written) == 2
    assert {path.name: path.read_text() for path in tmp_path.iterdir()} == written


@pytest.mark.parametrize(
    "first, second, names",
    [
        (
            ["halfspace", "--which", "pf1", "--N", "5", "--alpha", "1.0"],
            ["halfspace", "--which", "pf1", "--N", "5", "--alpha", "2.0"],
            {"halfspace_pf1_alpha1.0_N5.json", "halfspace_pf1_alpha2.0_N5.json"},
        ),
        (
            ["sharpness", "--case", "thm21_r2", "--N", "5", "--params", "4.0"],
            ["sharpness", "--case", "thm21_r2", "--N", "5", "--params", "6.0"],
            {"sharpness_thm21_r2_params4.0_N5.json", "sharpness_thm21_r2_params6.0_N5.json"},
        ),
        (
            ["verify", "--case", "thm21", "--N", "5", "--doublings", "1"],
            ["verify", "--case", "thm21", "--N", "5"],
            {"verify_thm21_doublings1_N5.json", "verify_thm21_N5.json"},
        ),
    ],
    ids=["alpha", "params", "doublings"],
)
def test_auto_names_carry_the_numeric_flags_given(first, second, names, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("POINCARE_HARDY_OUTDIR", str(tmp_path))
    for argv in (first, second):
        code, out, _ = run([*argv, "--format", "json"], capsys)
        assert code in (0, 1) and out == ""
    assert {path.name for path in tmp_path.iterdir()} == names


def test_auto_names_of_each_numeric_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("POINCARE_HARDY_OUTDIR", str(tmp_path))
    base = ["verify", "--case", "poincare", "--N", "5", "--panels", "4", "--nodes", "16", "--doublings", "0"]
    # 0 doublings is a budget given, and named (a loop of one grid measures no noise, so it fails);
    # --alpha takes several, and --params= runs, and names, the default centers
    assert run([*base, "--tol", "1e-6", "--format", "csv"], capsys)[0] == 1
    assert run(["sharpness", "--case", "thm21_r2", "--params=4,6", "--doublings", "0"], capsys)[0] == 0
    assert run(["sharpness", "--case", "thm21_r2", "--params="], capsys)[0] == 0
    assert run(["halfspace", "--which", "pf2", "--alpha", "1", "--alpha", "-0.5"], capsys)[0] == 0
    assert {path.name for path in tmp_path.iterdir()} == {
        "verify_poincare_tol1e-06_panels4_nodes16_doublings0_N5.csv",
        "sharpness_thm21_r2_params4,6_doublings0_N5.txt",
        "sharpness_thm21_r2_N5.txt",
        "halfspace_pf2_alpha1.0,-0.5_N5.txt",
    }


def test_successive_calls_share_no_state(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; every call parses into a fresh namespace
    assert cli._build_parser() is cli._build_parser()

    def alphas(*given):
        argv = ["halfspace", "--which", "pf2", "--N", "5", "--format", "json"]
        code, out, _ = run([*argv, *(arg for alpha in given for arg in ("--alpha", alpha))], capsys)
        assert code == 0
        return json.loads(out)["alphas"]

    # a repeated --alpha appends only its own values, and no call's leak into the default
    assert alphas("1", "-0.5") == [1.0, -0.5]
    assert alphas("2") == [2.0]
    assert alphas() == [1.5, 0.5]

    poincare = ["verify", "--case", "poincare", "--N", "5", "--format", "json"]
    before = run(poincare, capsys)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--case", "nope", "--N", "5"])
    assert exc.value.code == 64
    assert "invalid choice" in capsys.readouterr().err
    assert run(poincare, capsys) == before

    monkeypatch.setenv("POINCARE_HARDY_OUTDIR", str(tmp_path))
    for _ in range(2):
        for argv in (poincare, ["halfspace", "--which", "pf2", "--alpha", "1", "--format", "csv"]):
            assert run(argv, capsys) == (0, "", "")
    assert {path.name for path in tmp_path.iterdir()} == {"verify_poincare_N5.json", "halfspace_pf2_alpha1.0_N5.csv"}


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


@pytest.mark.parametrize(
    "argv",
    [
        ["identity", "--which", "ph1", "--N", "-3"],
        ["identity", "--which", "trans1", "--N", "0"],
        ["identity", "--which", "estimate1", "--N", "0"],
        ["identity", "--which", "estimate2", "--N", "-1"],
        ["halfspace", "--which", "pf1", "--N", "-2"],
        ["halfspace", "--which", "pf1", "--N", "1"],
        ["halfspace", "--which", "pf2", "--N", "1"],
        ["halfspace", "--which", "hardy_mazya", "--N", "1"],
        ["halfspace", "--which", "hardy_mazya", "--N", "0"],
    ],
)
def test_dimension_without_a_space_exits_64(argv, capsys):
    # these used to print PASS (or FAIL 3/6 for hardy_mazya) for a space that does not exist
    code, out, err = run(argv, capsys)
    assert (code, out) == (64, "")
    assert err.startswith("error: requires N >= ")


def test_identity_at_n1_still_runs(capsys):
    for argv in (["--which", "ph1"], ["--which", "trans1"], ["--which", "estimate1", "--n", "2"]):
        code, out, _ = run(["identity", *argv, "--N", "1"], capsys)
        assert code == 0
        assert "PASS: 20/20 checks passed" in out


def _refused_as_vacuous(which, n, capsys):
    code, out, err = run(["identity", "--which", which, "--N", "1", "--n", n], capsys)
    assert (code, out) == (64, "")
    assert err == f"error: {which}: both sides are the same integrals at N = 1, n = {n}; it certifies nothing\n"


@pytest.mark.parametrize("n", ["0", "2"])
def test_estimate2_at_n1_is_refused_as_vacuous(n, capsys):
    # every coefficient of estimate2 carries a factor N - 1, so both sides are 0 whatever the function
    _refused_as_vacuous("estimate2", n, capsys)


@pytest.mark.parametrize("n", ["0", "1"])
def test_estimate1_at_n1_and_lambda_0_is_refused_as_vacuous(n, capsys):
    # lambda_0 = lambda_1 = 0 at N = 1, and then both sides of estimate1 are int v''^2
    _refused_as_vacuous("estimate1", n, capsys)


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


def test_halfspace_json_does_not_depend_on_blas_threads():
    # the distance field's blocks are BLAS products; one thread or two must print the same bytes
    argv = [sys.executable, "-m", "poincare_hardy", "halfspace", "--which", "rellich1", "--suite", "pole", "--format", "json"]
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])
