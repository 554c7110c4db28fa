"""Profile jets shared across suite members: the same floats as fresh jets, read-only, one per profile and grid.

coth's jet depends only on the grid, and a Bump r^p * core takes its jet by p
shifts of its core's, so ``operators._grid_jet`` keeps one jet of each on every
grid (``Grid._jets``), built at the highest order asked so far, and serves a
lower order as a view of its first coefficients.  That is exact because
coefficient j of every jet is the same float whatever the jet's order, which
these tests check for every profile kind.  The CLI's members on one grid also
share one stacked tower.  These tests hold the shared jets to the fresh ones
bit for bit, count the builds, and check that no CLI command's output depends
on what ran before it in the same process.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincare_hardy import QuadratureSpec, load_suite, operators, profiles, quadrature, verify
from poincare_hardy.cli import main
from poincare_hardy.jets import coth_jet
from poincare_hardy.operators import _COTH, _grid_jet, _profile_jets
from poincare_hardy.profiles import Bump, Cutoff, ExpDecay, Product, Scaled
from poincare_hardy.quadrature import build_grid

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("suite", ["standard", "origin"])
def test_shared_jets_equal_fresh_jets_and_are_read_only(suite):
    # members run in suite order, so every power but the first reads a core another member built
    spec = QuadratureSpec()
    for order in (1, 2, 3, 5):
        for refine in range(3):
            for u in load_suite(suite):
                grid = build_grid(spec, u.support, refine)
                ujet, cj = _profile_jets(u, grid, order)
                assert np.array_equal(ujet.coef, u.jet(grid.nodes, order).coef), (u.id, refine, order)
                assert np.array_equal(cj.coef, coth_jet(grid.nodes, order).coef), (u.id, refine, order)
                for jet in (ujet, cj):
                    with pytest.raises(ValueError, match="read-only"):
                        jet.coef[-1, 0] = 1.0


# a descriptor of every kind ``profile_from_descriptor`` reads, drawn over its valid parameters
_DESCRIPTORS = {
    "bump": st.fixed_dictionaries(
        {"center": st.floats(0.0, 4.0), "width": st.floats(0.3, 2.0), "power": st.integers(0, 3)}
    ),
    "window": st.tuples(st.floats(0.0, 3.0), st.floats(0.05, 1.0), st.floats(0.01, 3.0)).map(
        lambda t: {"lo": t[0], "hi": t[0] + 2.0 * t[1] + t[2], "ramp": t[1]}
    ),
}


def _profiles_of(kind):
    return _DESCRIPTORS[kind].map(lambda d: profiles.profile_from_descriptor({"kind": kind, **d}))


_FROM_DESCRIPTOR = st.sampled_from(sorted(_DESCRIPTORS)).flatmap(_profiles_of)
# coth, every descriptor kind, and the profile classes that no descriptor names
_JETS = {
    "coth": st.just(_COTH),
    **{kind: _profiles_of(kind) for kind in _DESCRIPTORS},
    "cutoff": st.tuples(st.floats(0.5, 3.0), st.floats(0.1, 2.0)).map(lambda t: Cutoff(t[0], t[0] + t[1])),
    "exp_decay": st.floats(0.1, 3.0).map(ExpDecay),
    "scaled": st.tuples(_FROM_DESCRIPTOR, st.floats(-3.0, 3.0)).map(lambda t: Scaled(*t)),
    "product": st.tuples(_FROM_DESCRIPTOR, st.floats(0.1, 3.0)).map(lambda t: Product((t[0], ExpDecay(t[1])))),
}


def test_every_profile_kind_is_drawn():
    assert _DESCRIPTORS.keys() == profiles._KINDS.keys()


def _same_floats(a, b):
    """Equal bit for bit up to nan payloads: nan matches nan, and +0.0 does not match -0.0."""
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("kind", sorted(_JETS))
@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    orders=st.integers(1, 11).flatmap(lambda Q: st.tuples(st.integers(0, Q - 1), st.just(Q))),
)
def test_a_jet_of_higher_order_begins_with_the_lower_order_jet(kind, data, fractions, orders):
    # ``_grid_jet`` serves order q as a view of the order-Q jet, exact only while this holds
    f = data.draw(_JETS[kind])
    q, Q = orders
    lo, hi = (None if f == _COTH else f.support) or (0.0, 12.0)
    nodes = np.maximum(lo + (hi - lo) * np.array(fractions), 1e-6)  # in the support, where jets are not 0; r > 0

    def jet(order):
        return coth_jet(nodes, order) if f == _COTH else f.jet(nodes, order)

    assert _same_floats(jet(Q).coef[: q + 1], jet(q).coef)


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that appends to the returned list on every call."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def _spy_builds(monkeypatch) -> tuple[list, list]:
    """The argument lists of every Bump core and every coth jet built from here on."""
    return _counting(monkeypatch, profiles, "_bump_core"), _counting(monkeypatch, operators, "coth_jet")


def _bump_and_grid():
    u = Bump(1.5, 1.0)
    return u, build_grid(QuadratureSpec(), u.support)


def test_a_lower_order_reads_the_stored_jet_and_builds_nothing(monkeypatch):
    u, grid = _bump_and_grid()
    fresh = {u: u.jet(grid.nodes, 3), _COTH: coth_jet(grid.nodes, 3)}
    cores, coths = _spy_builds(monkeypatch)
    for f in fresh:
        _grid_jet(f, grid, 9)
    for f in fresh:
        jet = _grid_jet(f, grid, 3)
        assert jet.order == 3 and grid._jets[f].order == 9
        assert _same_floats(jet.coef, fresh[f].coef)
        with pytest.raises(ValueError, match="read-only"):
            jet.coef[0, 0] = 1.0
    # the order-9 builds alone
    assert [args[-1] for args in cores] == [args[-1] for args in coths] == [9]


def test_a_higher_order_builds_once_and_replaces_the_stored_jet(monkeypatch):
    u, grid = _bump_and_grid()
    cores, coths = _spy_builds(monkeypatch)
    for f in (u, _COTH):
        low = _grid_jet(f, grid, 3)
        high = _grid_jet(f, grid, 9)
        assert grid._jets[f].order == 9 and _grid_jet(f, grid, 9).order == 9
        assert _same_floats(high.coef[:4], low.coef)
    # the order-3 build, then one order-9 build that the second order-9 ask reads
    assert [args[-1] for args in cores] == [args[-1] for args in coths] == [3, 9]


def test_a_failed_build_stores_nothing(monkeypatch):
    u, grid = _bump_and_grid()
    _grid_jet(_COTH, grid, 3)

    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(profiles, "_bump_core", no_memory)
    monkeypatch.setattr(operators, "coth_jet", no_memory)
    for f in (u, _COTH):
        with pytest.raises(MemoryError):
            _grid_jet(f, grid, 9)
    # u has no jet, and coth keeps the order-3 jet built before the failed one
    assert u not in grid._jets
    assert grid._jets[_COTH].order == 3


def test_a_grid_built_after_the_cache_is_cleared_starts_without_jets():
    u, grid = _bump_and_grid()
    _grid_jet(u, grid, 5)
    assert u in grid._jets
    quadrature._cached_grid.cache_clear()
    fresh = _bump_and_grid()[1]
    assert fresh is not grid and fresh._jets == {}


def test_verify_builds_each_core_and_coth_jet_once_per_grid(monkeypatch, capsys):
    cores, coths = _spy_builds(monkeypatch)
    stacked = _counting(monkeypatch, verify, "RadialTable")
    single = _counting(monkeypatch, operators, "RadialTable")  # the cached radial_table's builds
    assert main(["verify", "--case", "thm21", "--N", "5", "--format", "json"]) in (0, 1)
    capsys.readouterr()
    # the 20 members of `standard` sit on 5 supports; thm21 builds one jet order on each
    # grid, and the members that miss on a grid share one tower
    grids = quadrature._cached_grid.cache_info().misses
    towers = stacked + single
    assert len(cores) == len(coths) == len(towers) == grids >= 5
    assert len({grid for _, _, grid, _ in towers}) == grids


def _cli_standard_commands() -> list[list[str]]:
    """The argv of every command of the benchmark's ``cli-standard`` workload, in its default order."""
    spec = importlib.util.spec_from_file_location("bench_workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [op["argv"] for op in workloads.make_ops("cli-standard", workloads.DEFAULT_SEED)]


def test_cli_outputs_do_not_depend_on_the_commands_before_them(clear_caches, capsys):
    commands = _cli_standard_commands()
    assert len(commands) == 13

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    alone = []
    for argv in commands:
        clear_caches()
        alone.append(run(argv))
    clear_caches()
    # in the second round every command runs after the other 12
    for _ in range(2):
        for argv, want in zip(commands, alone):
            assert run(argv) == want, argv


def test_one_cli_standard_pass_builds_at_most_42_coth_jets_and_82_cores(monkeypatch, capsys):
    # the 13 commands reuse 23 grids; one jet per (profile, grid) at its highest order asked
    # builds 42 coth jets and 82 Bump cores, where a 16-entry LRU on (profile, grid, order)
    # built 196 and 236
    cores, coths = _spy_builds(monkeypatch)
    for argv in _cli_standard_commands():
        main(argv)
    capsys.readouterr()
    assert len(coths) <= 42 and len(cores) <= 82
