"""Suite members on one grid share one stacked pipeline, and every float is the one a lone member gets.

A ``RadialTable`` of a tuple stacks its members' jets on an axis before the
nodes, and ``Grid.integrate`` sums a (members, nodes) stack row by row.  The
CLI passes its suite to the radial integral checks as ``suite=``.  These tests
hold the stacked tables and sums to the single ones bit for bit, and the CLI's
reports to the library's per-member reports float for float.
"""

import json
from itertools import groupby

import numpy as np
import pytest

from poincare_hardy import (
    CaseSpec,
    IdentityResidualReport,
    MarginReport,
    QuadratureSpec,
    check_1d_lemmas,
    check_estimate1,
    check_estimate2,
    load_suite,
    margin_general,
    margin_poincare_hardy,
    margin_rellich,
    margin_thm21,
    margin_yang,
)
from poincare_hardy.cli import main
from poincare_hardy.operators import RadialTable, gradk_sq_values
from poincare_hardy.quadrature import build_grid


def _groups(suite: str) -> list[tuple]:
    """The suite's members grouped by support, in suite order."""
    return [tuple(group) for _, group in groupby(load_suite(suite), key=lambda u: u.support)]


@pytest.mark.parametrize("suite", ["standard", "origin"])
@pytest.mark.parametrize("N", [1, 5, 9])
def test_stacked_tables_equal_single_tables_bit_for_bit(suite, N):
    spec = QuadratureSpec()
    for group in _groups(suite):
        assert len(group) > 1
        for refine in (0, 1):
            grid = build_grid(spec, group[0].support, refine)
            for levels in range(3):
                stacked = RadialTable(group, N, grid, levels)
                singles = [RadialTable(u, N, grid, levels) for u in group]
                for level in range(levels + 1):
                    for i, single in enumerate(singles):
                        assert np.array_equal(stacked.values(level)[i], single.values(level)), (group[i].id, level)
                        assert np.array_equal(stacked.deriv(level)[i], single.deriv(level)), (group[i].id, level)
                for k in range(2 * levels + 2):
                    rows = gradk_sq_values(stacked, k)
                    assert rows.shape == (len(group), grid.nodes.size)
                    for weight in ("one", "inv_r2", "inv_sinh4"):
                        sums = grid.integrate(rows, weight, N)
                        assert sums == [grid.integrate(gradk_sq_values(s, k), weight, N) for s in singles]


# the verify and estimate commands of the benchmark's `cli-standard` workload, each
# with the library call that makes one member's reports
_COMMANDS = {
    "thm21": (["verify", "--case", "thm21", "--N", "5"], lambda u: [margin_thm21(u, 5)]),
    "rellich": (["verify", "--case", "rellich", "--N", "6"], lambda u: [margin_rellich(u, 6)]),
    "poincare": (["verify", "--case", "poincare", "--N", "5"], lambda u: [margin_poincare_hardy(u, 5)]),
    "yang": (["verify", "--case", "yang", "--beta", "2", "--N", "7"], lambda u: [margin_yang(u, 7, 2)]),
    "general_k1_l0": (
        ["verify", "--case", "general", "--k", "1", "--l", "0", "--N", "8"],
        lambda u: [margin_general(CaseSpec(1, 0, 8), u)],
    ),
    "general_k2_l0": (
        ["verify", "--case", "general", "--k", "2", "--l", "0", "--N", "5"],
        lambda u: [margin_general(CaseSpec(2, 0, 5), u)],
    ),
    "general_k3_l2": (
        ["verify", "--case", "general", "--k", "3", "--l", "2", "--N", "10"],
        lambda u: [margin_general(CaseSpec(3, 2, 10), u)],
    ),
    "general_k4_l1": (
        ["verify", "--case", "general", "--k", "4", "--l", "1", "--N", "9"],
        lambda u: [margin_general(CaseSpec(4, 1, 9), u)],
    ),
    "hardy1d": (["verify", "--case", "hardy1d"], check_1d_lemmas),
    "estimate1": (["identity", "--which", "estimate1", "--N", "5", "--n", "0"], lambda u: [check_estimate1(u, 0, 5)]),
    "estimate2": (["identity", "--which", "estimate2", "--N", "7", "--n", "1"], lambda u: [check_estimate2(u, 1, 7)]),
}


@pytest.mark.parametrize("suite", ["standard", "origin"])
@pytest.mark.parametrize("name", list(_COMMANDS))
def test_cli_reports_equal_the_per_member_library_reports(name, suite, clear_caches, capsys):
    argv, library = _COMMANDS[name]
    code = main([*argv, "--suite", suite, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == (0 if payload["all_pass"] else 1)
    got = [(MarginReport if d["kind"] == "margin" else IdentityResidualReport).from_dict(d) for d in payload["reports"]]
    clear_caches()  # the library calls take every integral afresh, one member at a time
    want = [r for u in load_suite(suite) for r in library(u)]
    assert got == want
