"""The per-grid cache of weights and measures and the per-grid term memo: same floats as the formulas, safe to share."""

import gc

import numpy as np
import pytest

from poincare_hardy import (
    Bump,
    CaseSpec,
    QuadratureError,
    QuadratureSpec,
    load_suite,
    margin_general,
    margin_poincare_hardy,
    margin_rellich,
    margin_thm21,
)
from poincare_hardy import quadrature, verify
from poincare_hardy.operators import gradk_sq_values, radial_table
from poincare_hardy.quadrature import _grid_weight, build_grid, weight_values

# every weight the verifier and the lemmas integrate against, at jet orders 0..2
_INTEGRANDS = {
    "lap2": (2, "one"),
    "grad": (1, "one"),
    "u2": (0, "one"),
    "r2": (0, "inv_r2"),
    "r4": (0, "inv_r4"),
    "sinh2": (0, "inv_sinh2"),
    "sinh4": (0, "inv_sinh4"),
    "grad_sinh2": (1, "inv_sinh2"),
}


@pytest.mark.parametrize("suite", ["origin", "standard"])
@pytest.mark.parametrize("N", [1, 5, 9])
def test_cached_terms_equal_the_formulas_bit_for_bit(monkeypatch, suite, N):
    u = load_suite(suite)[0]
    spec = QuadratureSpec()
    seen = []
    converge = verify.converge_terms
    monkeypatch.setattr(verify, "converge_terms", lambda fn, *args: seen.append(fn) or converge(fn, *args))
    verify._integrals(u, N, spec, _INTEGRANDS)
    (fn,) = seen
    for refine in range(spec.max_doublings + 1):
        grid = build_grid(spec, u.support, refine)
        table = radial_table(u, N, grid, 1)
        r = grid.nodes
        expected = {
            key: grid.integrate(gradk_sq_values(table, k) * weight_values(weight, r) * weight_values(f"sinh{N - 1}", r))
            for key, (k, weight) in _INTEGRANDS.items()
        }
        assert fn(grid) == expected


def _refuse_measures(name, r):
    """``weight_values`` for a test at N = 1, which must read no measure."""
    if name.startswith("sinh"):
        raise AssertionError(f"measure {name!r} read at N = 1")
    return weight_values(name, r)


def test_lemmas_at_n1_read_no_measure(monkeypatch):
    # sinh^0 r = 1 changes no product, so N = 1 skips the measure and its sinh pass
    monkeypatch.setattr(quadrature, "weight_values", _refuse_measures)
    vals, _ = verify._integrals(Bump(2.0, 1.0, 1), 1, QuadratureSpec(), _INTEGRANDS)
    assert vals["grad"] > 0.0


@pytest.mark.parametrize("N", [1, 5, 9])
@pytest.mark.parametrize("weight", ["one", "inv_r2", "inv_sinh4"])
def test_grid_integrate_applies_weight_then_measure_bit_for_bit(monkeypatch, weight, N):
    grid = build_grid(QuadratureSpec(), (0.5, 3.0))
    r = grid.nodes
    values = np.exp(-r) * np.cos(3.0 * r)
    expected = float(np.dot((values * weight_values(weight, r)) * weight_values(f"sinh{N - 1}", r), grid.weights))
    if N == 1:
        monkeypatch.setattr(quadrature, "weight_values", _refuse_measures)
    assert grid.integrate(values, weight, N) == expected


def test_grid_integrate_refuses_an_overflowing_measure_before_any_weight():
    grid = build_grid(QuadratureSpec(), (690.0, 710.0))
    for _ in range(2):
        with pytest.raises(QuadratureError, match="overflows"):
            grid.integrate(np.ones_like(grid.nodes), "inv_r2", 5)
    assert _grid_weight.cache_info().currsize == 0


def test_cached_arrays_are_read_only_and_bounded():
    grid = build_grid(QuadratureSpec(), (1.0, 3.0))
    for arr in (_grid_weight(grid, "inv_r2"), _grid_weight(grid, "sinh4")):
        assert arr.size and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert 0 < _grid_weight.cache_info().maxsize < 1000


def test_margins_do_not_depend_on_cache_order(clear_caches):
    u = load_suite("origin")[0]
    first = {N: margin_thm21(u, N).to_dict() for N in (5, 7)}
    clear_caches()
    second = {N: margin_thm21(u, N).to_dict() for N in (7, 5)}
    assert first == second


def test_measure_overflow_is_refused_on_every_call():
    u = Bump(700.0, 10.0)
    for _ in range(2):
        with pytest.raises(QuadratureError, match="overflows"):
            margin_thm21(u, 5)
    # the measure is looked up before any weight, so no weight was built, and the refusal stored no term
    assert _grid_weight.cache_info().currsize == 0
    grid = build_grid(QuadratureSpec(), u.support)
    assert quadrature._cached_grid.cache_info().currsize == 1
    assert grid._terms == {}
    # read directly, the measure refuses on every call too and is never stored
    for _ in range(2):
        with pytest.raises(QuadratureError, match="overflows"):
            _grid_weight(grid, "sinh4")
    assert _grid_weight.cache_info().currsize == 0


# four families whose tables share terms: rellich and general (2, 0) are one table under two names
_FAMILIES = {
    "thm21": margin_thm21,
    "rellich": margin_rellich,
    "poincare": margin_poincare_hardy,
    "general20": lambda u, N: margin_general(CaseSpec(2, 0, N), u),
}


@pytest.mark.parametrize("suite", ["origin", "standard"])
@pytest.mark.parametrize("N", [5, 9])
def test_memoised_margins_equal_cold_ones_bit_for_bit(clear_caches, suite, N):
    u = load_suite(suite)[0]
    cold = {}
    for name, margin in _FAMILIES.items():
        clear_caches()
        cold[name] = margin(u, N).to_dict()
    for order in (list(_FAMILIES), list(reversed(_FAMILIES))):
        clear_caches()
        assert {name: _FAMILIES[name](u, N).to_dict() for name in order} == cold


def test_a_table_of_memoised_terms_asks_for_no_tower(monkeypatch):
    u = load_suite("origin")[0]
    margin_rellich(u, 7)
    asked = []
    table = verify.radial_table
    monkeypatch.setattr(verify, "radial_table", lambda *args: asked.append(args) or table(*args))
    assert margin_general(CaseSpec(2, 0, 7), u).verdict
    assert asked == []


def test_the_memo_keeps_no_grid_alive(clear_caches):
    u = Bump(2.345, 1.0, 1)  # integrated by no other test, so only this test's grids hold its terms

    def grids_holding_u():
        return sum(isinstance(obj, quadrature.Grid) and any(key[0] == u for key in obj._terms) for obj in gc.get_objects())

    for N in (5, 9):
        margin_thm21(u, N)
    assert grids_holding_u() > 0
    clear_caches()
    gc.collect()
    assert grids_holding_u() == 0
