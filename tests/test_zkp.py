"""Protocol simulation, z-test verification, and transcript handling."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from qew.qmat import uniforms
from qew.states import BlindChannel, ChannelTerm, StateSpec
from qew.zkp import (
    CELLS,
    DEFAULT_Z,
    MIN_CELL_ROUNDS,
    FixedOutcomesStrategy,
    HonestStrategy,
    SeparableDiagStrategy,
    Transcript,
    _prob_table,
    format_transcript,
    leakage_view,
    parse_transcript,
    read_transcript,
    run_protocol,
    strategy_state,
    verify_transcript,
    write_transcript,
)

EPR = StateSpec(kind="epr", theta=np.pi / 4)


def _flat_transcript(n, k=None, s=None, a=None, b=None):
    ones = np.ones(n, dtype=np.int8)
    bits = np.zeros(n, dtype=np.uint8)
    return Transcript(
        seed=0,
        n_rounds=n,
        k=bits.copy() if k is None else k,
        a=ones.copy() if a is None else a,
        s=bits.copy() if s is None else s,
        b=ones.copy() if b is None else b,
    )


# ---------------------------------------------------------------------------
# counter RNG
# ---------------------------------------------------------------------------


def test_uniforms_deterministic_and_stream_separated():
    idx = np.arange(1000, dtype=np.uint64)
    u0 = uniforms(42, idx, 0)
    assert np.array_equal(u0, uniforms(42, idx, 0))
    assert not np.array_equal(u0, uniforms(42, idx, 1))
    assert not np.array_equal(u0, uniforms(43, idx, 0))
    assert np.all((u0 >= 0.0) & (u0 < 1.0))
    assert abs(u0.mean() - 0.5) < 0.05


def test_transcript_stream_is_pinned():
    """A fixed honest proof hashes to pinned bytes, so any move of the
    protocol's random stream (or of the transcript format) shows here."""
    t = run_protocol(HonestStrategy(EPR, visibility=0.9), 2000, seed=2024)
    digest = hashlib.sha256(format_transcript(t).encode("ascii")).hexdigest()
    assert digest == "aad8c8199ff11cd90b6f029924a0113c7e9c5916a5739d6170b38f19745df973"


# ---------------------------------------------------------------------------
# strategies and their probability tables
# ---------------------------------------------------------------------------


def test_strategy_state_honest():
    rho = strategy_state(HonestStrategy(EPR))
    assert rho.mat[0, 3] == pytest.approx(0.5)
    noisy = strategy_state(HonestStrategy(EPR, visibility=0.6))
    assert noisy.mat[0, 3] == pytest.approx(0.3)
    assert noisy.mat[1, 1] == pytest.approx(0.1)


def test_strategy_state_validation():
    with pytest.raises(ValueError, match="bipartite"):
        strategy_state(HonestStrategy(StateSpec(kind="ghz", n=3, theta=0.5)))
    with pytest.raises(ValueError, match="visibility"):
        strategy_state(HonestStrategy(EPR, visibility=1.5))
    with pytest.raises(ValueError, match="p0"):
        strategy_state(SeparableDiagStrategy(p0=-0.1))
    assert strategy_state(FixedOutcomesStrategy()) is None


def test_prob_table_honest_epr():
    table = _prob_table(HonestStrategy(EPR))
    zz = table[CELLS["zz"][0], CELLS["zz"][1]]
    xx = table[CELLS["xx"][0], CELLS["xx"][1]]
    zx = table[CELLS["zx"][0], CELLS["zx"][1]]
    assert np.allclose(zz, [0.5, 0.0, 0.0, 0.5])
    assert np.allclose(xx, [0.5, 0.0, 0.0, 0.5])
    assert np.allclose(zx, [0.25, 0.25, 0.25, 0.25])


def test_prob_table_separable_diag():
    table = _prob_table(SeparableDiagStrategy(p0=0.3))
    zz = table[1, 1]
    assert np.allclose(zz, [0.3, 0.0, 0.0, 0.7])
    assert np.allclose(table[0, 0], [0.25, 0.25, 0.25, 0.25])


def test_prob_table_fixed_outcomes():
    table = _prob_table(FixedOutcomesStrategy(outcomes=(1, -1)))
    # challenge k=1 always answers a=-1; verifier bit is fair
    assert np.allclose(table[1, 1], [0.0, 0.0, 0.5, 0.5])
    assert np.allclose(table[0, 0], [0.5, 0.5, 0.0, 0.0])
    biased = _prob_table(
        FixedOutcomesStrategy(outcomes=(1, 1), verifier_qubit=((1.0, 0.0), (0.0, 0.0)))
    )
    # verifier holds |0><0|: its z outcome is always +1
    assert np.allclose(biased[1, 1], [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"\+/-1"):
        _prob_table(FixedOutcomesStrategy(outcomes=(1, 0)))


# ---------------------------------------------------------------------------
# protocol runs and verdicts
# ---------------------------------------------------------------------------


def test_honest_run_accepts():
    t = run_protocol(HonestStrategy(EPR), 4000, seed=7)
    v = verify_transcript(t)
    assert v.accepted
    assert v.z_threshold == DEFAULT_Z
    # perfect correlations in this family: the sampled cells are exact
    assert v.cells["zz"].estimate == 1.0
    assert v.cells["xx"].estimate == 1.0
    assert sum(c.count for c in v.cells.values()) == 4000


def test_separable_prover_rejected():
    t = run_protocol(SeparableDiagStrategy(), 4000, seed=3)
    v = verify_transcript(t)
    assert not v.accepted
    assert v.cells["zz"].estimate == 1.0  # the diagonal mimics zz fine
    assert abs(v.cells["xx"].estimate) <= 5 * v.cells["xx"].std_error


def test_fixed_outcome_prover_rejected():
    t = run_protocol(FixedOutcomesStrategy(), 4000, seed=5)
    assert not verify_transcript(t).accepted


def test_white_noise_rejected():
    t = run_protocol(HonestStrategy(EPR, visibility=0.0), 4000, seed=9)
    assert not verify_transcript(t).accepted


def test_run_protocol_validation():
    with pytest.raises(ValueError, match="round"):
        run_protocol(HonestStrategy(EPR), 0, seed=1)
    with pytest.raises(ValueError, match="workers"):
        run_protocol(HonestStrategy(EPR), 10, seed=1, workers=0)
    with pytest.raises(ValueError, match="positive"):
        verify_transcript(run_protocol(HonestStrategy(EPR), 200, seed=1), z=0.0)


def test_undersampled_cell_raises():
    t = _flat_transcript(200)  # every round lands in the xx cell
    with pytest.raises(ValueError, match="undersampled cell zz"):
        verify_transcript(t)


def test_runs_are_deterministic_and_worker_independent():
    t1 = run_protocol(HonestStrategy(EPR, visibility=0.8), 3001, seed=12)
    t2 = run_protocol(HonestStrategy(EPR, visibility=0.8), 3001, seed=12)
    t4 = run_protocol(HonestStrategy(EPR, visibility=0.8), 3001, seed=12, workers=4)
    for x, y in ((t1, t2), (t1, t4)):
        for name in ("k", "a", "s", "b"):
            assert np.array_equal(getattr(x, name), getattr(y, name))
    t_other = run_protocol(HonestStrategy(EPR, visibility=0.8), 3001, seed=13)
    assert not np.array_equal(t1.b, t_other.b)


def test_outcomes_are_the_per_round_inverse_cdf():
    """Each round's (a, b) is the cumulative-table entry its uniform falls in,
    as a per-round ``searchsorted`` reads it."""
    fixed = FixedOutcomesStrategy((1, -1), ((0.7, 0.2 + 0.1j), (0.2 - 0.1j, 0.3)))
    for strategy in (HonestStrategy(EPR, visibility=0.7), SeparableDiagStrategy(0.3), fixed):
        t = run_protocol(strategy, 2000, seed=11)
        cum = np.cumsum(_prob_table(strategy), axis=-1)
        cum[..., -1] = 1.0
        u = uniforms(11, np.arange(2000), 2)
        o = np.array([np.searchsorted(cum[k, s], x, side="right") for k, s, x in zip(t.k, t.s, u)])
        assert np.array_equal(t.a, 1 - 2 * (o >> 1))
        assert np.array_equal(t.b, 1 - 2 * (o & 1))


def test_transcript_depends_only_on_the_state():
    # two different mixtures realizing the same (fully dephased) state
    flip = BlindChannel(
        (
            ChannelTerm(0.5, ((0.0, 0.0), (0.0, 0.0))),
            ChannelTerm(0.5, ((0.0, np.pi), (0.0, 0.0))),
        )
    )
    thirds = BlindChannel(
        tuple(
            ChannelTerm(1.0 / 3.0, ((0.0, ph), (0.0, 0.0)))
            for ph in (0.0, 2 * np.pi / 3, -2 * np.pi / 3)
        )
    )
    ra = strategy_state(HonestStrategy(EPR, channel=flip))
    rb = strategy_state(HonestStrategy(EPR, channel=thirds))
    assert np.allclose(ra.mat, rb.mat, atol=1e-15)
    ta = run_protocol(HonestStrategy(EPR, channel=flip), 2000, seed=21)
    tb = run_protocol(HonestStrategy(EPR, channel=thirds), 2000, seed=21)
    for name in ("k", "a", "s", "b"):
        assert np.array_equal(getattr(ta, name), getattr(tb, name))
    va, vb = leakage_view(ta), leakage_view(tb)
    assert va.re_offdiag == vb.re_offdiag
    assert va.populations == vb.populations


# ---------------------------------------------------------------------------
# leakage summary
# ---------------------------------------------------------------------------


def test_leakage_view_recovers_rotated_coherence():
    alpha = 0.9
    ch = BlindChannel((ChannelTerm(1.0, ((0.0, alpha), (0.0, 0.0))),))
    t = run_protocol(HonestStrategy(EPR, channel=ch), 40000, seed=2)
    view = leakage_view(t)
    assert view.re_offdiag == pytest.approx(0.5 * np.cos(alpha), abs=0.03)
    assert view.im_offdiag_bound == pytest.approx(0.5 * abs(np.sin(alpha)), abs=0.03)
    assert view.populations[0] == pytest.approx(0.5, abs=0.03)
    assert view.populations[0] + view.populations[1] == pytest.approx(1.0)


def test_leakage_view_without_z_settings():
    view = leakage_view(_flat_transcript(100))
    assert math.isnan(view.populations[0])
    assert math.isnan(view.im_offdiag_bound)
    assert view.cells["zz"].count == 0
    assert math.isnan(view.cells["zz"].estimate)


# ---------------------------------------------------------------------------
# transcript data and serialization
# ---------------------------------------------------------------------------


def test_transcript_validation():
    n = 10
    good = _flat_transcript(n)
    with pytest.raises(ValueError, match="shape"):
        Transcript(0, n, good.k[:5], good.a, good.s, good.b)
    with pytest.raises(ValueError, match="bits"):
        Transcript(0, n, good.k + 2, good.a, good.s, good.b)
    with pytest.raises(ValueError, match=r"\+/-1"):
        Transcript(0, n, good.k, good.a * 0, good.s, good.b)


def test_transcript_round_trip(tmp_path):
    t = run_protocol(HonestStrategy(EPR), 500, seed=77)
    back = parse_transcript(format_transcript(t))
    assert back.seed == t.seed and back.n_rounds == t.n_rounds
    for name in ("k", "a", "s", "b"):
        assert np.array_equal(getattr(back, name), getattr(t, name))
    path = tmp_path / "t.txt"
    write_transcript(t, path)
    again = read_transcript(path)
    assert np.array_equal(again.b, t.b)
    first = format_transcript(t).splitlines()
    assert first[0] == "# seed=77 N=500"
    assert first[1] == "round,k,a,s,b"


def test_parse_transcript_errors():
    t = run_protocol(HonestStrategy(EPR), 40, seed=1)
    text = format_transcript(t)
    lines = text.splitlines()
    with pytest.raises(ValueError, match="header"):
        parse_transcript("\n".join(lines[1:]))
    with pytest.raises(ValueError, match="bad transcript header"):
        parse_transcript("# sid=1 N=40\n" + "\n".join(lines[1:]))
    with pytest.raises(ValueError, match="column header"):
        parse_transcript(lines[0] + "\nk,a,s,b\n" + "\n".join(lines[2:]))
    with pytest.raises(ValueError, match="data rows"):
        parse_transcript("\n".join(lines[:-1]))
    swapped = lines[:2] + [lines[3], lines[2]] + lines[4:]
    with pytest.raises(ValueError, match="in order"):
        parse_transcript("\n".join(swapped))


def test_min_cell_rounds_constant():
    assert MIN_CELL_ROUNDS == 30
