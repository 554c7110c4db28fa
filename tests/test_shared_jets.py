"""Profile jets shared across suite members: the same floats as fresh jets, read-only, built once per grid.

coth's jet depends only on the grid, and a Bump r^p * core takes its jet by p
shifts of its core's, so ``operators._grid_jet`` builds each once per grid and
order for every member on that support; the CLI's members on one grid also
share one stacked tower.  These tests hold the shared jets to the fresh ones
bit for bit, count the builds, and check that no CLI command's output depends
on what ran before it in the same process.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from poincare_hardy import QuadratureSpec, load_suite, operators, profiles, quadrature, verify
from poincare_hardy.cli import main
from poincare_hardy.jets import coth_jet
from poincare_hardy.operators import _profile_jets
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


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that appends to the returned list on every call."""
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or fn(*args))
    return calls


def test_verify_builds_each_core_and_coth_jet_once_per_grid(monkeypatch, capsys):
    cores = _counting(monkeypatch, profiles, "_bump_core")
    coths = _counting(monkeypatch, operators, "coth_jet")
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
