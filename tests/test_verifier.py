"""Margin certificates: verdicts, homogeneity, guards, sharpness probes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincare_hardy import (
    Bump,
    CaseSpec,
    HypothesisError,
    QuadratureSpec,
    Scaled,
    load_suite,
    margin_general,
    margin_poincare_hardy,
    margin_rellich,
    margin_thm21,
    margin_yang,
    sharpness_probe,
)

from poincare_hardy import verify
from poincare_hardy.quadrature import converge_terms
from poincare_hardy.reports import MarginReport, ordered_sum

from _oracles import SHARPNESS_A21_N5


def test_margin_report_contents():
    r = margin_thm21(Bump(2.0, 1.0, 0), 5)
    assert r.case == "thm21"
    assert set(r.terms) == {"lap2", "grad", "r2", "r4", "sinh2", "sinh4"}
    assert r.terms["lap2"] > 0 > r.terms["grad"]
    assert r.margin == pytest.approx(sum(r.terms.values()))
    assert r.verdict and r.margin > 0.0
    assert r.noise < 1e-8 * r.scale


def test_report_sums_run_left_to_right():
    # a compensated sum (math.fsum, or builtin sum from Python 3.12 on) gives 1.0
    r = MarginReport("c", "f", 5, {"a": 1e16, "b": 1.0, "c": -1e16}, 0.0, 1e-8)
    assert r.margin == 0.0
    assert r.lhs == 1e16 and r.rhs == 1e16
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0 != math.fsum([1e16, 1.0, -1e16])


def test_zero_function_is_rejected():
    # the support falls between two nodes, so every integral is exactly 0
    with pytest.raises(ValueError, match="vanishes"):
        margin_poincare_hardy(Bump(1.0, 1e-13), 5)


def test_margins_positive_across_cases():
    u = Bump(1.5, 0.5, 1)
    for N in (5, 8):
        assert margin_poincare_hardy(u, N).verdict
        assert margin_rellich(u, N).verdict
        assert margin_thm21(u, N).verdict
        assert margin_yang(u, N, beta=0).verdict
        if N > 6:
            assert margin_yang(u, N, beta=2).verdict
        for k, l in [(1, 0), (2, 0), (2, 1), (3, 1)]:
            if N <= 2 * k:
                continue
            report = margin_general(CaseSpec(k, l, N), u)
            assert report.verdict, (k, l, N, report.noise, report.scale)


def _assert_same_report(named, general, keys):
    # keys maps each named term to its general name; the terms sum in this order
    assert list(named.terms) == list(keys)
    assert [named.terms[k] for k in keys] == [general.terms[g] for g in keys.values()]
    assert named.margin == general.margin
    assert named.noise == general.noise


def test_margin_general_agrees_with_named_cases():
    u, N = Bump(2.0, 1.0, 0), 7
    _assert_same_report(
        margin_poincare_hardy(u, N),
        margin_general(CaseSpec(1, 0, N), u),
        {"grad": "gradk", "poincare": "gradl", "r2": "r2"},
    )
    _assert_same_report(
        margin_rellich(u, N),
        margin_general(CaseSpec(2, 0, N), u),
        {"lap2": "gradk", "poincare": "gradl", "r2": "r2", "r4": "r4"},
    )


def test_margin_thm21_is_general_21_plus_sinh_terms():
    u, N = Bump(2.0, 1.0, 0), 7
    thm = margin_thm21(u, N)
    gen = margin_general(CaseSpec(2, 1, N), u)
    keys = {"lap2": "gradk", "grad": "gradl", "r2": "r2", "r4": "r4"}
    assert list(thm.terms) == [*keys, "sinh2", "sinh4"]
    assert [thm.terms[k] for k in keys] == [gen.terms[g] for g in keys.values()]
    assert thm.terms["sinh2"] < 0.0 and thm.terms["sinh4"] < 0.0
    assert thm.margin == sum([*gen.terms.values(), thm.terms["sinh2"], thm.terms["sinh4"]])


def test_margin_homogeneity():
    u, N = Bump(2.0, 1.0, 0), 5
    base = margin_thm21(u, N).margin
    for c in (0.5, 3.0):
        scaled = margin_thm21(Scaled(u, c), N).margin
        assert abs(scaled - c * c * base) / abs(scaled) < 1e-10


def test_hypothesis_guards():
    u = Bump(2.0, 1.0, 0)
    with pytest.raises(HypothesisError):
        margin_poincare_hardy(u, 2)
    with pytest.raises(HypothesisError):
        margin_rellich(u, 4)
    with pytest.raises(HypothesisError):
        margin_thm21(u, 4)
    with pytest.raises(ValueError, match="k <= 4"):
        margin_general(CaseSpec(5, 0, 11), u)


def test_unbounded_profile_rejected():
    from poincare_hardy import ExpDecay

    with pytest.raises(ValueError, match="compactly supported"):
        margin_poincare_hardy(ExpDecay(3.0), 5)


def test_tiny_tolerance_fails_on_noise():
    # the noise floor is >= one ulp, so an absurd tolerance must flip the verdict
    r = margin_thm21(Bump(2.0, 1.0, 0), 5, tol=1e-30)
    assert r.margin > 0.0
    assert not r.verdict


def test_sharpness_poincare_k1_monotone_approach():
    rows = sharpness_probe("poincare_k1", 5)
    quotients = [row["quotient"] for row in rows]
    assert all(a > b for a, b in zip(quotients, quotients[1:]))
    assert all(q > 4.0 for q in quotients)
    assert quotients[-1] < 4.0 * 1.01


def test_sharpness_frozen_oracle_row():
    rows = sharpness_probe("poincare_k1", 5, params=[2.1])
    assert rows[0]["param"] == 2.1
    assert abs(rows[0]["quotient"] - SHARPNESS_A21_N5) / SHARPNESS_A21_N5 < 1e-9


def test_sharpness_thm21_r2_lower_bound():
    rows = sharpness_probe("thm21_r2", 5)
    assert all(row["quotient"] >= 1.0 - 1e-6 for row in rows)


def test_sharpness_guards():
    with pytest.raises(HypothesisError, match="not above"):
        sharpness_probe("poincare_k1", 5, params=[1.9])
    with pytest.raises(HypothesisError):
        sharpness_probe("thm21_r2", 4)
    with pytest.raises(ValueError, match="unknown sharpness case"):
        sharpness_probe("rellich_r4", 5)


def test_noise_tracks_doubling_budget():
    u, N = Bump(1.0, 0.9, 3), 7
    # 8 nodes a panel leave the loose budget unresolved on graded and on uniform panel breaks alike;
    # at 64 nodes, uniform breaks resolve u at both budgets, whose noise then reads the same 1.49e-8
    loose = margin_general(CaseSpec(3, 1, N), u, QuadratureSpec(nodes_per_panel=8, max_doublings=1))
    tight = margin_general(CaseSpec(3, 1, N), u, QuadratureSpec(nodes_per_panel=8, max_doublings=4))
    assert tight.noise < loose.noise
    assert abs(tight.margin - loose.margin) <= loose.noise * 4.0


def _origin_margins(u, spec):
    """thm21, rellich and every general (k, l) with k <= 4 on u, for N 5..12 where N > 2k."""
    for N in range(5, 13):
        yield margin_thm21(u, N, spec)
        yield margin_rellich(u, N, spec)
        for k in range(1, 5):
            for l in range(k):
                if N > 2 * k:
                    yield margin_general(CaseSpec(k, l, N), u, spec)


@pytest.mark.parametrize("u", load_suite("origin"), ids=lambda u: u.id)
def test_origin_supports_converge_after_one_doubling(u, monkeypatch):
    # equal panels on [0, hi] resolve a support that reaches r = 0: every integral
    # loop meets rel_tol * scale at the first doubling, so none exhausts a budget of 1
    spec = QuadratureSpec(max_doublings=1)
    loops = []

    def recorded(fn, spec, support):
        values, errors = converge_terms(fn, spec, support)
        loops.append((values, errors))
        return values, errors

    monkeypatch.setattr(verify, "converge_terms", recorded)
    reports = list(_origin_margins(u, spec))
    # thm21 and rellich at 8 N each, general (k, l) k times at the N > 2k: 16 + 8 + 16 + 18 + 16
    assert len(loops) == len(reports) == 74
    for values, errors in loops:
        scale = max(abs(v) for v in values.values())
        assert all(e <= spec.rel_tol * scale + spec.abs_tol for e in errors.values()), errors


@settings(max_examples=25, deadline=None)
@given(
    st.floats(0.5, 4.0),
    st.floats(0.3, 1.8),
    st.integers(0, 3),
)
def test_poincare_margin_holds_for_arbitrary_bumps(center, width, power):
    report = margin_poincare_hardy(Bump(center, width, power), 5)
    assert report.margin >= -1e-8 * report.scale
    assert report.verdict
