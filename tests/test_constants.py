"""Exact rational constants: frozen hand-computed values and structure.

The frozen tables below were computed by hand from the closed forms (each
entry's arithmetic is a one-liner) and act as golden seeds; the chain-replay
versus closed-form cross-check in test_acceptance covers the full (k, l, N)
range.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poincare_hardy import (
    CaseSpec,
    HypothesisError,
    InternalConsistencyError,
    a_gamma,
    anbn,
    b_gamma_beta,
    case_leading_constants,
    chain_replay,
    constant_table,
    dk_ek,
    halfspace_constants,
    lambda_n,
    poincare_constant,
    thm21_constants,
    yang_constants,
    yang_extended,
)
from poincare_hardy import constants

from _oracles import CHAIN_REPLAY

def test_poincare_constant_frozen():
    # ((N-1)/2)^{2(k-l)}
    assert poincare_constant(CaseSpec(1, 0, 3)) == 1
    assert poincare_constant(CaseSpec(2, 0, 5)) == 16
    assert poincare_constant(CaseSpec(2, 1, 5)) == 4
    assert poincare_constant(CaseSpec(3, 1, 7)) == 81


def test_dk_ek_frozen():
    assert dk_ek(1, 3) == (F(1, 4), F(1, 4))
    # d_2 = (N-1)^2/8 = 2 at N=5, e_2 = 9/16
    assert dk_ek(2, 5) == (F(2), F(9, 16))


def test_thm21_constants_frozen_n5():
    # at N=5: (N-1)^2/16 = 1; (N-1)(N-3)(N^2-2N-7)/16 = 4*2*8/16 = 4;
    # (N-1)(N-3)(N^2-4N-3)/16 = 4*2*2/16 = 1
    c = thm21_constants(5)
    assert c == {"c_r2": F(1), "c_r4": F(9, 16), "c_sinh2": F(4), "c_sinh4": F(1)}
    # the (2, 1) chain and A_0, B_0 against the closed forms of the statement
    for N in range(5, 21):
        c = thm21_constants(N)
        assert list(c) == ["c_r2", "c_r4", "c_sinh2", "c_sinh4"]
        assert c == {
            "c_r2": F((N - 1) ** 2, 16),
            "c_r4": F(9, 16),
            "c_sinh2": F((N - 1) * (N - 3) * (N * N - 2 * N - 7), 16),
            "c_sinh4": F((N - 1) * (N - 3) * (N * N - 4 * N - 3), 16),
        }


@pytest.mark.parametrize("N", range(5, 12))
def test_thm21_joint_sharpness_identity(N):
    # the r^-4 and sinh^-4 constants sum to the flat-case sharp value
    c = thm21_constants(N)
    assert c["c_r4"] + c["c_sinh4"] == F(N * N * (N - 4) ** 2, 16)


def test_yang_constants_frozen():
    assert yang_constants(2, 9) == {"w4": F(1089, 16), "w2": F(45), "w0": F(4)}
    assert yang_constants(4, 9) == {"w4": F(169, 16), "w2": F(33), "w0": F(4)}


@pytest.mark.parametrize("N", range(5, 12))
def test_yang_beta0_matches_rellich_shape(N):
    # beta = 0 weights: N^2(N-4)^2/16, (N-2)^2(N-1)/8, (N-1)^2/16
    w = yang_constants(0, N)
    assert w["w4"] == F(N * N * (N - 4) ** 2, 16)
    assert w["w2"] == F((N - 2) ** 2 * (N - 1), 8)
    assert w["w0"] == F((N - 1) ** 2, 16)


def test_yang_extended_gamma1_is_one_yang_step():
    w = yang_constants(2, 9)
    assert yang_extended(1, 2, 9) == (w["w0"], w["w2"], w["w4"])


def test_a_gamma_b_gamma_beta_frozen():
    assert a_gamma(1, 5) == F(1)
    assert a_gamma(2, 9) == F(4096, 256)
    # b_{1,0} = N^2(N-4)^2/16
    assert b_gamma_beta(1, 0, 5) == F(25, 16)
    # b_{1,2}: (N+2)^2(N-2-4)^2/16 at N=9 -> 121*9/16
    assert b_gamma_beta(1, 2, 9) == F(121 * 9, 16)


def test_b_gamma_beta_requires_room():
    # N > beta + 4*gamma or a factor goes nonpositive
    with pytest.raises(HypothesisError):
        b_gamma_beta(1, 2, 6)


def test_case_spec_hypothesis_guard():
    with pytest.raises(HypothesisError, match=r"requires N > 4, got N=4"):
        CaseSpec(2, 1, 4)
    with pytest.raises(HypothesisError):
        CaseSpec(2, 2, 9)  # l must be < k
    with pytest.raises(HypothesisError):
        CaseSpec(0, 0, 5)


def test_chain_replay_hardy_seed():
    assert chain_replay(CaseSpec(1, 0, 3)) == (F(1, 4),)
    assert chain_replay(CaseSpec(2, 0, 5)) == (F(2), F(9, 16))


def test_chain_replay_matches_closed_forms_spot():
    for k, l, N in [(3, 1, 7), (4, 2, 9), (4, 1, 9), (3, 2, 7), (5, 3, 11), (6, 3, 13)]:
        case = CaseSpec(k, l, N)
        chain = chain_replay(case)
        first, last = case_leading_constants(case)
        assert chain[0] == first
        assert chain[-1] == last
        assert len(chain) == k
        assert all(c > 0 for c in chain)


def test_chain_replay_middle_constants_frozen():
    # margin_general weights every chain entry, not only the endpoints
    for (k, l, N), want in CHAIN_REPLAY.items():
        assert chain_replay(CaseSpec(k, l, N)) == tuple(F(c) for c in want)


def test_chain_replay_is_memoised_on_the_case():
    assert chain_replay(CaseSpec(4, 1, 9)) is chain_replay(CaseSpec(4, 1, 9))
    for N in range(5, 13):
        for k in range(1, min(6, (N - 1) // 2) + 1):
            for l in range(k):
                case = CaseSpec(k, l, N)
                assert chain_replay(case) == chain_replay.__wrapped__(case), case


def test_chain_replay_refusal_is_not_memoised(monkeypatch):
    case = CaseSpec(3, 1, 7)
    monkeypatch.setattr(constants, "yang_extended", lambda gamma, beta, N: (F(0),) * (2 * gamma + 1))
    for _ in range(2):
        with pytest.raises(InternalConsistencyError, match="invalid chain"):
            chain_replay(case)
    monkeypatch.undo()
    assert chain_replay(case) == chain_replay.__wrapped__(case)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(0, 5), st.integers(0, 12))
def test_chain_replay_structure(k, l, extra):
    if l >= k:
        l = k - 1
    case = CaseSpec(k, l, 2 * k + 1 + extra)
    chain = chain_replay(case)
    assert len(chain) == case.k
    assert all(c > 0 for c in chain)
    first, last = case_leading_constants(case)
    assert chain[0] == first and chain[-1] == last


def test_poincare_constant_telescopes():
    for N in (11, 13):
        for k, l, j in [(4, 2, 0), (3, 1, 0), (5, 3, 1)]:
            assert poincare_constant(CaseSpec(k, l, N)) * poincare_constant(
                CaseSpec(l, j, N)
            ) == poincare_constant(CaseSpec(k, j, N))


def test_constant_table_aux_entries():
    table = constant_table(CaseSpec(2, 0, 5))
    assert table.poincare == 16
    assert table.chain == (F(2), F(9, 16))
    assert table.aux["a_1"] == F(1)
    assert table.aux["d_2"] == F(2)
    assert table.aux["e_2"] == F(9, 16)
    assert table.aux["A_0"] == F(1)
    assert table.aux["B_0"] == F(4)


def test_lambda_n():
    assert [lambda_n(n, 5) for n in range(4)] == [0, 4, 10, 18]
    with pytest.raises(HypothesisError):
        lambda_n(-1, 5)


def test_anbn_frozen():
    assert anbn(0, 5) == (F(1), F(4))
    # lambda_1 = 4 at N=5: A = 16 + 10 + 4 - 3, B = 10 + 8 + 0 - 4
    assert anbn(1, 5) == (F(27), F(14))


def test_anbn_minimum_shape():
    # both coefficients of lambda are positive for N >= 5, so n = 0 minimizes
    for N in (5, 11, 30):
        a_prev, b_prev = anbn(0, N)
        for n in range(1, 8):
            a, b = anbn(n, N)
            assert a > a_prev and b > b_prev
            a_prev, b_prev = a, b


def test_halfspace_constants_frozen_n5():
    assert halfspace_constants("rellich1", 5) == {
        "grad": F(7, 2),
        "y2": F(15, 16),
        "d2": F(1),
        "d4": F(9, 16),
    }
    assert halfspace_constants("rellich2", 5) == {
        "grad": F(3, 2),
        "y4": F(63, 16),
        "d2": F(1),
        "d4": F(9, 16),
    }
    for N in range(5, 21):
        d = {"d2": F((N - 1) ** 2, 16), "d4": F(9, 16)}
        assert list(halfspace_constants("rellich1", N).items()) == [
            ("grad", F(N * N - 2 * N - 1, 4)),
            ("y2", F(N * (N - 2), 16)),
            *d.items(),
        ]
        assert list(halfspace_constants("rellich2", N).items()) == [
            ("grad", F(N * N - 2 * N - 9, 4)),
            ("y4", F(9 * (N + 2) * (N - 4), 16)),
            *d.items(),
        ]
    with pytest.raises(HypothesisError):
        halfspace_constants("rellich1", 4)
    with pytest.raises(ValueError):
        halfspace_constants("rellich3", 5)
