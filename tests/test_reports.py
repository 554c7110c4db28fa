"""Report records: dict payloads follow the declared fields and parse back field for field; text and CSV keep their format."""

import json
from dataclasses import fields

import pytest

from poincare_hardy import Bump, margin_thm21
from poincare_hardy.reports import IdentityResidualReport, MarginReport, dumps_csv, dumps_json

REPORTS = [
    MarginReport("thm21", "bump_c2.0_w1.0_p0", 5, {"lap2": 2.5, "grad": -1.0, "r2": -0.25}, 1e-15, 1e-8),
    MarginReport("hardy1d_a", "bump_c2.0_w1.0_p0", None, {"lhs": 1.0, "rhs": -0.25}, 0.0, 1e-8),
    IdentityResidualReport("pf1", "bump|bump", 5, None, 1e-14, 1e-15, 1e-8, {"rhs": 2.0, "alpha": 0.5, "lhs": 2.0}),
    IdentityResidualReport("estimate1", "bump_c2.0_w1.0_p0", 5, 0, 1e-14, 1e-15, 1e-8),
]


@pytest.mark.parametrize("report", [*REPORTS, margin_thm21(Bump(2.0, 1.0, 1), 5)], ids=lambda r: type(r).__name__)
def test_report_round_trips_field_for_field(report):
    d = report.to_dict()
    back = type(report).from_dict(d)
    assert back == report
    # and serializes to the same bytes in every format
    assert dumps_json(back.to_dict()) == dumps_json(d)
    assert dumps_csv(back.csv_rows()) == dumps_csv(report.csv_rows())
    assert back.line() == report.line()
    for f in fields(report):
        value = getattr(back, f.name)
        assert value == getattr(report, f.name)
        if isinstance(value, dict):
            # copies both ways: editing a payload never edits a report
            assert value is not d[f.name] and d[f.name] is not getattr(report, f.name)
    assert type(report).from_dict(json.loads(dumps_json(d))) == report


def test_report_keys_follow_the_declared_fields():
    margin, identity = REPORTS[0].to_dict(), REPORTS[2].to_dict()
    assert list(margin) == [
        "kind", "case", "function_id", "N", "terms", "noise", "tol", "margin", "lhs", "rhs", "scale", "verdict"
    ]
    assert list(margin["terms"]) == ["grad", "lap2", "r2"]
    assert list(identity) == [
        "kind", "identity", "function_id", "N", "n", "max_abs_residual", "max_rel_residual", "tol", "details", "verdict"
    ]
    assert list(identity["details"]) == ["alpha", "lhs", "rhs"]


def test_text_lines_and_csv_rows_keep_their_format():
    assert [r.line() for r in REPORTS] == [
        "PASS thm21 bump_c2.0_w1.0_p0 N=5 margin=1.250000e+00 scale=3.750000e+00 noise=1.000e-15",
        "PASS hardy1d_a bump_c2.0_w1.0_p0 margin=7.500000e-01 scale=1.250000e+00 noise=0.000e+00",
        "PASS pf1 bump|bump N=5 max_rel=1.000e-15 max_abs=1.000e-14",
        "PASS estimate1 bump_c2.0_w1.0_p0 N=5 n=0 max_rel=1.000e-15 max_abs=1.000e-14",
    ]
    head = ("thm21", "5", "bump_c2.0_w1.0_p0")
    assert REPORTS[0].csv_rows() == [
        (*head, "grad", "-1.0"),
        (*head, "lap2", "2.5"),
        (*head, "r2", "-0.25"),
        (*head, "lhs", "2.5"),
        (*head, "rhs", "1.25"),
        (*head, "margin", "1.25"),
        (*head, "scale", "3.75"),
        (*head, "noise", "1e-15"),
        (*head, "verdict", "1.0"),
    ]
    head = ("pf1", "5", "bump|bump")
    assert REPORTS[2].csv_rows() == [
        (*head, "alpha", "0.5"),
        (*head, "lhs", "2.0"),
        (*head, "rhs", "2.0"),
        (*head, "max_abs_residual", "1e-14"),
        (*head, "max_rel_residual", "1e-15"),
        (*head, "verdict", "1.0"),
    ]
    # no N prints as an empty field; the mode n joins the label
    assert dumps_csv(REPORTS[1].csv_rows()[:1] + REPORTS[3].csv_rows()[:1]) == (
        "case,N,function_id,term,value\n"
        "hardy1d_a,,bump_c2.0_w1.0_p0,lhs,1.0\n"
        "estimate1_n0,5,bump_c2.0_w1.0_p0,max_abs_residual,1e-14\n"
    )


def test_margin_summaries_are_computed_once_per_report():
    report = REPORTS[0]
    summaries = ("margin", "lhs", "rhs", "scale", "verdict")
    report.to_dict()
    assert {name: vars(report)[name] for name in summaries} == {
        "margin": 1.25, "lhs": 2.5, "rhs": 1.25, "scale": 3.75, "verdict": True
    }
    # the cached summaries are not fields: equality and parsing see only the stored ones
    assert MarginReport.from_dict(report.to_dict()) == report
