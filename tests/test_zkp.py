"""Protocol simulation, z-test verification, and transcript handling."""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import re
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qew.qmat import uniforms
from qew.states import BlindChannel, ChannelTerm, StateSpec
from qew.zkp import (
    CELLS,
    DEFAULT_Z,
    MAX_WORKERS,
    MIN_CELL_ROUNDS,
    ROUND_BLOCK,
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


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_multi_block_transcript_is_pinned(workers):
    """Two full round blocks and a partial one hash to pinned bytes on any
    worker count, so a move at a block edge shows here."""
    t = run_protocol(HonestStrategy(EPR, visibility=0.9), 25_007, seed=2025, workers=workers)
    digest = hashlib.sha256(format_transcript(t).encode("ascii")).hexdigest()
    assert digest == "b4982ee71adfd70130d76bddd958e1d6c36a75bc5f8c3be2e7b00b6fc79b88e3"


def test_round_block_is_a_power_of_ten():
    """The writer sets a block's index digits above its low ones as
    constants, which holds only when no block straddles a power of ten."""
    assert ROUND_BLOCK > 1 and str(ROUND_BLOCK) == "1" + "0" * (len(str(ROUND_BLOCK)) - 1)


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
    # ragged rows are refused by the field's name, which numpy's refusal lacks
    ragged = FixedOutcomesStrategy(outcomes=(1, 1), verifier_qubit=((1.0, 0.0), (0.0,)))
    with pytest.raises(ValueError, match=r"^field 'verifier_qubit' must be a 2x2 matrix, got \(\(1\.0, 0\.0\), \(0\.0,\)\)$"):
        _prob_table(ragged)


@pytest.mark.parametrize("outcomes", [(), (1,), (1, 1, 1)])
def test_fixed_outcomes_need_exactly_two_entries(outcomes):
    # one answer per challenge: a short table would fail mid-run, a long one be cut
    with pytest.raises(ValueError, match=r"two entries of \+/-1 \(a for k=0, a for k=1\)"):
        run_protocol(FixedOutcomesStrategy(outcomes=outcomes), 10, seed=0)


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


def test_verdict_names_the_failed_cells():
    honest = verify_transcript(run_protocol(HonestStrategy(EPR), 4000, seed=7))
    assert honest.failed == ()
    assert verify_transcript(run_protocol(SeparableDiagStrategy(), 4000, seed=3)).failed == ("xx",)
    fixed = verify_transcript(run_protocol(FixedOutcomesStrategy(), 4000, seed=5))
    assert fixed.failed == ("zz", "xx")
    assert fixed.cells["zz"].z < -DEFAULT_Z
    noisy = verify_transcript(run_protocol(HonestStrategy(EPR, visibility=0.9), 4000, seed=7))
    assert noisy.failed == ("zz",) and not noisy.accepted


def test_cell_z_scores():
    """z is the deviation from the cell's target in standard errors: 0 for
    no deviation, +/-inf for a deviation over a zero standard error."""
    v = verify_transcript(run_protocol(HonestStrategy(EPR, visibility=0.8), 4000, seed=7))
    for name, target in (("zz", 1.0), ("zx", 0.0), ("xz", 0.0), ("xx", 0.0)):
        c = v.cells[name]
        assert c.z == (c.estimate - target) / c.std_error
    exact = verify_transcript(run_protocol(HonestStrategy(EPR), 4000, seed=7)).cells
    assert exact["zz"].z == 0.0 and exact["xx"].z == math.inf  # both exact, se = 0
    flipped = _flat_transcript(4, k=np.array([1, 1, 0, 0], np.uint8), s=np.array([1, 1, 0, 0], np.uint8),
                               b=np.array([-1, -1, -1, -1], np.int8))
    cells = leakage_view(flipped).cells
    assert cells["zz"].z == -math.inf and cells["xx"].z == -math.inf
    assert math.isnan(cells["zx"].z)  # an empty cell


def test_white_noise_rejected():
    t = run_protocol(HonestStrategy(EPR, visibility=0.0), 4000, seed=9)
    assert not verify_transcript(t).accepted


def test_run_protocol_validation():
    with pytest.raises(ValueError, match="round"):
        run_protocol(HonestStrategy(EPR), 0, seed=1)
    with pytest.raises(ValueError, match="workers"):
        run_protocol(HonestStrategy(EPR), 10, seed=1, workers=0)
    # refused before a thread is started
    with pytest.raises(ValueError, match=f"budget exceeded: {MAX_WORKERS + 1} workers"):
        run_protocol(HonestStrategy(EPR), 10, seed=1, workers=MAX_WORKERS + 1)
    t = run_protocol(HonestStrategy(EPR), 200, seed=1)
    for z in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="z must be a finite positive"):
            verify_transcript(t, z=z)


def test_run_protocol_reads_integer_arguments():
    for args, key in (((100.5, 1), "n_rounds"), ((True, 1), "n_rounds"), ((10, 1.5), "seed"),
                      ((10, "1"), "seed")):
        with pytest.raises(ValueError, match=f"'{key}' must be an integer"):
            run_protocol(HonestStrategy(EPR), *args)
    for workers in (1.5, True):
        with pytest.raises(ValueError, match="'workers' must be an integer"):
            run_protocol(HonestStrategy(EPR), 10, 1, workers=workers)
    t = run_protocol(HonestStrategy(EPR), 100.0, 7.0, workers=2.0)
    u = run_protocol(HonestStrategy(EPR), 100, 7)
    assert (t.n_rounds, t.seed) == (100, 7) and np.array_equal(t.b, u.b)
    # a seed outside the 64-bit stream range would alias one inside it
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=f"seed must be an integer in 0..{2**64 - 1}"):
            run_protocol(HonestStrategy(EPR), 50, seed)


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
    as a per-round ``searchsorted`` reads it, in one round block and across
    three."""
    fixed = FixedOutcomesStrategy((1, -1), ((0.7, 0.2 + 0.1j), (0.2 - 0.1j, 0.3)))
    cases = ((HonestStrategy(EPR, visibility=0.7), SeparableDiagStrategy(0.3), fixed), (2000, 2 * ROUND_BLOCK + 7))
    for strategy, n in itertools.product(*cases):
        t = run_protocol(strategy, n, seed=11, workers=2)
        cum = np.cumsum(_prob_table(strategy), axis=-1)
        cum[..., -1] = 1.0
        assert np.array_equal(t.k, uniforms(11, np.arange(n), 0) >= 0.5)
        assert np.array_equal(t.s, uniforms(11, np.arange(n), 1) >= 0.5)
        u = uniforms(11, np.arange(n), 2)
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
    for seed in (-1, 2**64, 1.5):
        with pytest.raises(ValueError, match="seed.* must be an integer"):
            Transcript(seed, n, good.k, good.a, good.s, good.b)


@st.composite
def _transcripts(draw):
    n = draw(st.integers(0, 60))
    bits = st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n)
    signs = st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n)
    k, s = (np.array(draw(bits), dtype=np.uint8) for _ in range(2))
    a, b = (np.array(draw(signs), dtype=np.int8) for _ in range(2))
    return Transcript(draw(st.integers(0, 2**64 - 1)), n, k, a, s, b)


@given(_transcripts())
def test_transcript_text_roundtrip(t):
    back = parse_transcript(format_transcript(t))
    assert (back.seed, back.n_rounds) == (t.seed, t.n_rounds)
    for name in ("k", "a", "s", "b"):
        want, got = getattr(t, name), getattr(back, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@given(_transcripts())
def test_cell_stats_are_the_per_cell_means(t):
    cells = leakage_view(t).cells
    prod = (t.a.astype(np.int64) * t.b.astype(np.int64)).astype(float)
    for name, (k, s) in CELLS.items():
        m = (t.k == k) & (t.s == s)
        assert cells[name].count == m.sum()
        if m.any():
            assert cells[name].estimate == float(prod[m].mean())


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


def _bad_line(i, got, n=None):
    """The refusal of line i, whose text is ``got``, in a transcript whose
    header reads N=n."""
    if i == 1:
        want = r"'# seed=<int> N=<int>\n'"
    elif i == 2:
        want = r"'round,k,a,s,b\n'"
    elif i - 3 < n:
        want = rf"'{i - 3},<0|1>,<1|-1>,<0|1>,<1|-1>\n' (row {i - 3} of {n})"
    else:
        want = f"the end of the file after {n} rows"
    return f"line {i}: want {want}, got {got!r}"


def test_read_transcript_refuses_a_seed_outside_the_stream_range(tmp_path):
    # an edited header: run_protocol never writes such a seed, and each one
    # would alias the stream of a seed inside 0..2^64-1
    text = format_transcript(run_protocol(HonestStrategy(EPR), 20, seed=2**64 - 1))
    assert parse_transcript(text).seed == 2**64 - 1
    path = tmp_path / "t.txt"
    path.write_text(text.replace(f"# seed={2**64 - 1} ", f"# seed={2**64} ", 1), encoding="ascii")
    with pytest.raises(ValueError, match=rf"seed must be an integer in 0\.\.{2**64 - 1} .*got {2**64}$"):
        read_transcript(path)
    # the writer writes no sign
    sign = "# seed=-1 N=20\n"
    path.write_text(text.replace(f"# seed={2**64 - 1} N=20\n", sign, 1), encoding="ascii")
    with pytest.raises(ValueError, match=f"^{re.escape(_bad_line(1, sign))}$"):
        read_transcript(path)


def test_read_transcript_names_a_non_ascii_row(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"# seed=1 N=1\nround,k,a,s,b\n0,1,\xa01,0,1\n")
    message = _bad_line(3, "0,1,\udca01,0,1\n", 1)  # the byte 0xa0 decodes to U+DCA0
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_transcript(path)


def test_parse_transcript_errors():
    t = run_protocol(HonestStrategy(EPR), 40, seed=1)
    lines = format_transcript(t).splitlines()

    def refused(lines, i, got):
        with pytest.raises(ValueError, match=f"^{re.escape(_bad_line(i, got, 40))}$"):
            parse_transcript("".join(ln + "\n" for ln in lines))

    refused(lines[1:], 1, "round,k,a,s,b\n")
    # a key other than seed and N, a repeated one, or a key without a value
    for header in ("# sid=1 N=40", "# seed=1 N=40 seed=9", "# seed=1 N=40 foo=bar", "# seed=1 seed=1",
                   "# seed=1 N"):
        refused([header] + lines[1:], 1, header + "\n")
    refused(lines[:1] + ["k,a,s,b"] + lines[2:], 2, "k,a,s,b\n")
    refused(lines[:-1], 42, "")  # the file ends early
    refused(lines + ["40,0,1,0,1"], 43, "40,0,1,0,1\n")  # it runs long
    refused(lines[:2] + [lines[3], lines[2]] + lines[4:], 3, lines[3] + "\n")  # rows out of order
    for bad in ("1,0,1", "1,0,1,1,1,1", "1,0,x,1,1", "1,0,2,1,1", "1,0,0,1,1"):
        refused(lines[:3] + [bad] + lines[4:], 4, bad + "\n")


@pytest.mark.parametrize("field", [str(2**63), str(-(2**63) - 1), "9" * 30])
def test_out_of_range_fields_never_reach_loadtxt(field):
    """A field outside 64 bits is refused by name, and never read through
    np.loadtxt, which older numpy reads through a float instead."""
    row = f"1,1,{field},0,1"
    text = f"# seed=1 N=2\nround,k,a,s,b\n0,1,1,0,1\n{row}\n"
    with mock.patch.object(np, "loadtxt", side_effect=AssertionError("loadtxt called")):
        with pytest.raises(ValueError, match=f"^{re.escape(_bad_line(4, row + chr(10), 2))}$"):
            parse_transcript(text)


@pytest.mark.parametrize(
    "text, n, i, got",
    [
        pytest.param("# seed=1 N=2\nround,k,a,s,b\n0,1,1,0,1\n\n1,0,-1,1,-1\n", 2, 4, "\n", id="empty-line"),
        pytest.param("# seed=1 N=2\nround,k,a,s,b\n0,1,1,0,1\n \t\n1,0,-1,1,-1\n", 2, 4, " \t\n", id="blank-line"),
        pytest.param("# seed=1 N=1\r\nround,k,a,s,b\r\n0,1,1,0,1\r\n", 1, 1, "# seed=1 N=1\r\n", id="crlf"),
        pytest.param("# seed=1 N=1\nround,k,a,s,b\n0,1,1,0,1\r\n", 1, 3, "0,1,1,0,1\r\n", id="crlf-row"),
        pytest.param("# seed=1 N=1\rround,k,a,s,b\r0,1,1,0,1\r", 1, 1,
                     "# seed=1 N=1\rround,k,a,s,b\r0,1,1,0,1\r", id="cr"),
        pytest.param("# seed=+1 N=1\nround,k,a,s,b\n0,1,1,0,1\n", 1, 1, "# seed=+1 N=1\n", id="sign-seed"),
        pytest.param("# seed=1 N=1\nround,k,a,s,b\n0,1,+1,0,1\n", 1, 3, "0,1,+1,0,1\n", id="sign-outcome"),
        pytest.param("# seed=1 N=1\nround,k,a,s,b\n0, 1,1,0,1\n", 1, 3, "0, 1,1,0,1\n", id="padded"),
        pytest.param("# seed=1 N=1\nround,k,a,s,b\n0,1,1,0,1 \n", 1, 3, "0,1,1,0,1 \n", id="padded-end"),
        pytest.param("# seed=1 N=01\nround,k,a,s,b\n0,1,1,0,1\n", 1, 1, "# seed=1 N=01\n", id="zero-n"),
        pytest.param("# seed=1 N=1\nround,k,a,s,b\n00,1,1,0,1\n", 1, 3, "00,1,1,0,1\n", id="zero-round"),
        pytest.param("# seed=1 N=1\nround,k,a,s,b\n0,1,-01,0,1\n", 1, 3, "0,1,-01,0,1\n", id="zero-outcome"),
        pytest.param("# seed=1 N=1\nround,k,a,s,b\n0,1,1,0,1", 1, 3, "0,1,1,0,1", id="no-final-newline"),
        pytest.param("# seed=1 N=0\nround,k,a,s,b", 0, 2, "round,k,a,s,b", id="no-newline-n0"),
    ],
)
def test_lenient_forms_are_refused_by_line(text, n, i, got):
    """Forms an earlier reader took and the writer never writes: blank
    lines, \\r\\n and \\r endings, signs, padding, leading zeros and a
    missing final newline."""
    with pytest.raises(ValueError, match=f"^{re.escape(_bad_line(i, got, n))}$"):
        parse_transcript(text)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("row", ["0,1,1,0", "0,1,1,0,1,1"])
def test_parse_transcript_refuses_rows_of_4_or_6_fields(n, row):
    message = _bad_line(3, row + "\n", n)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_transcript(f"# seed=1 N={n}\nround,k,a,s,b\n{row}\n")


def test_min_cell_rounds_constant():
    assert MIN_CELL_ROUNDS == 30


# ---------------------------------------------------------------------------
# the transcript writer and the one grammar its reader takes
# ---------------------------------------------------------------------------


def _reference_format(t):
    lines = [f"# seed={t.seed} N={t.n_rounds}", "round,k,a,s,b"]
    for i in range(t.n_rounds):
        lines.append(f"{i},{t.k[i]},{t.a[i]},{t.s[i]},{t.b[i]}")
    return "\n".join(lines) + "\n"


_FIELDS = ("+1", " 1", "1 ", "\t-1 ", "+0", "-0", "007", "", " ", "x", "1.0", "1e3", "--1", "+", "- 1",
           str(2**63), str(2**63 - 1), str(-(2**63)), str(-(2**63) - 1), "0" * 25 + "1", "-" + "0" * 30 + "1",
           "1" + "0" * 19, "9" * 20, "257", "-255", "2")
_BLANKS = ("", " ", "\t", " \t ", "\x1f", "\xa0", "\u3000 ")


@st.composite
def _edited_transcripts(draw):
    """A canonical transcript with a few random edits, most of which the
    reader must refuse."""
    t = draw(_transcripts())
    lines = format_transcript(t).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        row = lines[i].split(",")
        edit = draw(st.sampled_from(("blank", "field", "drop", "extra", "swap", "n", "seed")))
        if edit == "blank":
            lines.insert(i, draw(st.sampled_from(_BLANKS)))
        elif edit == "field" and i >= 2 and len(row) > 1:
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_FIELDS))
            lines[i] = ",".join(row)
        elif edit == "drop" and len(row) > 1:
            lines[i] = ",".join(row[:-1])
        elif edit == "extra" and i >= 2:
            lines[i] = lines[i] + "," + draw(st.sampled_from(("1", "0", "")))
        elif edit == "swap" and i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        elif edit == "n":
            lines[0] = f"# seed={t.seed} N={t.n_rounds + draw(st.sampled_from((-1, 1)))}"
        elif edit == "seed":
            lines[0] = lines[0].replace("seed=", draw(st.sampled_from(("seed=+", "seed= ", "sed="))))
    ending = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return ending.join(lines) + draw(st.sampled_from(("", ending, ending + " " + ending)))


def _near_canonical(seed, body):
    """Any rows behind a header that counts their newlines."""
    return f"# seed={seed} N={body.count(chr(10))}\nround,k,a,s,b\n{body}"


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        _edited_transcripts(),
        st.builds(_near_canonical, st.integers(0, 2**64 - 1), st.text("0123456789,-+ \n", max_size=60)),
    )
)
@example(_near_canonical(1, "\n"))
@example(_near_canonical(1, ",\n"))
@example(_near_canonical(1, "0,1,1,0,1\n"))
@example(_near_canonical(1, "0,1,-1,0,-1\n1,0,1,1,1\n"))
def test_accepted_text_is_the_writers_text(text):
    """Whatever the reader accepts, the writer writes back byte for byte."""
    try:
        t = parse_transcript(text)
    except ValueError:
        return
    assert format_transcript(t) == text


# The grammar, written out apart from the reader's own patterns.
_HEADER_LINE = re.compile(r"# seed=(?:0|[1-9][0-9]*) N=(0|[1-9][0-9]*)\n")


def _line_is_the_writers(i, line, n):
    if i == 1:
        return _HEADER_LINE.fullmatch(line) is not None
    if i == 2:
        return line == "round,k,a,s,b\n"
    return i - 3 < n and re.fullmatch(f"{i - 3},[01],(?:1|-1),[01],(?:1|-1)\n", line) is not None


@settings(max_examples=300, deadline=None)
@given(_edited_transcripts())
@example("# seed=1 N=2\nround,k,a,s,b\n0,1,1,0,1\n\n  \n1,0,-1,1,+1\n")
@example("# seed=1 N=1\r\nround,k,a,s,b\r\n 0 ,\t1,-1,0,1\r\n")
@example("# seed=1 N=1\nround,k,a,s,b\n0,1,1,0\n0,1,1,0,1,1\n")
@example("# seed=1 N=1\nround,k,a,s,b\n0,1,1,0,1,\n")
@example("# seed=1 N=1\nround,k,a,s,b\n0,1,1 1,0,1\n")
@example("# seed=1 N=1\nround,k,a,s,b\n0,1,1,0, ")
@example("# seed=1 N=1\nround,k,a,s,b\n1" + "0" * 19 + ",1,1,0,1\n")
@example("# seed=1 N=3\nround,k,a,s,b\n0,1,1,0,1\n1,0,1\n2,0,1,1,1,1,1\n")
@example(f"# seed=1 N=1\nround,k,a,s,b\n0,1,-{2**63},0,1\n")
@example("# seed=1 N=2\r\nround,k,a,s,b\r\n0,1,1,0,1\r\n1,0,-1,1,-1\r\n")
@example("# seed=1 N=2\nround,k,a,s,b\n0,1,1,0,1\n1,0,-1,1,-1\n\n")
@example("# seed=+1 N=2\nround,k,a,s,b\n0,1,1,0,1\n1,0,-1,1,-1\n")
@example("# seed=1 N=2\nround,k,a,s,b\n0,1,+1,0,1\n1,0,-1,1,-1\n")
@example("# seed=1 N=007\nround,k,a,s,b\n" + "".join(f"{i},1,1,0,-1\n" for i in range(7)))
@example("# seed=1 N=2\nround,k,a,s,b\n0,1,-01,0,1\n1,0,-1,1,-1\n")
def test_refusals_name_the_first_line_off_the_grammar(text):
    """A refusal names a line i and quotes it (its first 80 characters), and
    every line before it is the writer's; the text the reader accepts is all
    the writer's."""
    lines = re.findall(r"[^\n]*\n|[^\n]+", text) + [""]  # each with its newline, then the end
    head = _HEADER_LINE.fullmatch(lines[0])
    n = int(head[1]) if head else 0
    try:
        parse_transcript(text)
    except ValueError as exc:
        m = re.fullmatch(r"line ([0-9]+): want .*, got (.*)", str(exc), flags=re.DOTALL)
        assert m is not None, str(exc)
        i = int(m[1])
        line = lines[i - 1]
        assert m[2] == (repr(line) if len(line) <= 80 else f"{line[:80]!r}...")
        assert all(_line_is_the_writers(j, lines[j - 1], n) for j in range(1, i))
        assert not _line_is_the_writers(i, line, n)
    else:
        assert all(_line_is_the_writers(j, ln, n) for j, ln in enumerate(lines[:-1], 1))


@given(_transcripts())
def test_columnar_writer_matches_the_row_writer(t):
    assert format_transcript(t) == _reference_format(t)


@pytest.mark.parametrize("n", [ROUND_BLOCK - 1, ROUND_BLOCK, ROUND_BLOCK + 1, 2 * ROUND_BLOCK + 7])
def test_block_writer_matches_the_row_writer_across_blocks(n):
    t = run_protocol(HonestStrategy(EPR, visibility=0.5), n, seed=n)
    # compared line by line, so that a failure names the first line that differs
    assert format_transcript(t).split("\n") == _reference_format(t).split("\n")


@pytest.mark.parametrize("field", ["0_1", "\u0661", "\xa01", "1\u3000"])
def test_parser_takes_only_ascii_decimal_fields(field):
    """int() also reads underscores, non-ASCII digits and non-ASCII spaces;
    a data row field is ASCII digits behind at most a minus sign."""
    row = f"0,1,{field},0,1\n"
    with pytest.raises(ValueError, match=f"^{re.escape(_bad_line(3, row, 1))}$"):
        parse_transcript(f"# seed=1 N=1\nround,k,a,s,b\n{row}")


@pytest.mark.parametrize("n", [0, 1, 10, 100, 1001, 10**5])
def test_writer_transcripts_never_reach_the_row_parser(n, tmp_path):
    """The reader recognizes every transcript the writer writes, at each
    width of the round index, so a canonical file is never walked row by
    row by the refusal."""
    t = _flat_transcript(0) if n == 0 else run_protocol(HonestStrategy(EPR, visibility=0.9), n, seed=n)
    path = tmp_path / "t.txt"
    write_transcript(t, path)
    with mock.patch("qew.zkp._refuse", side_effect=AssertionError("row walk")):
        for back in (read_transcript(path), parse_transcript(format_transcript(t))):
            assert (back.seed, back.n_rounds) == (t.seed, t.n_rounds)
            for name in ("k", "a", "s", "b"):
                want, got = getattr(t, name), getattr(back, name)
                assert got.dtype == want.dtype and np.array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=200), st.binary(max_size=60).map(lambda b: b"# seed=1 N=1\nround,k,a,s,b\n" + b)))
@example(b"# seed=1 N=1\nround,k,a,s,b\n0,1,1,0,1\n")
@example(b"# seed=1 N=1\nround,k,a,s,b\n0,1,\xff1,0,1\n")
@example(b"\xef\xbb\xbf# seed=1 N=0\nround,k,a,s,b\n")
@example(b"# seed=1 N=0\x00\nround,k,a,s,b\n")
def test_read_transcript_reads_any_bytes_or_refuses_them(data):
    """A file of any bytes reads back as the transcript the writer writes
    as those bytes, or raises ValueError naming a line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            t = read_transcript(path)
        except ValueError as exc:
            assert re.match(r"line [0-9]+: ", str(exc)), str(exc)
        else:
            assert format_transcript(t).encode("ascii") == data


def _peak_traced(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_transcript_io_memory_budget():
    """Writing, reading or refusing 10^5 rounds peaks at no more than 10
    times the text's length in traced allocations, and simulating them at
    no more than 24 bytes a round on one worker or two: the four one-byte
    fields and a round block's draw per worker."""
    n = 10**5
    strategy = HonestStrategy(EPR)
    for workers in (1, 2):
        peak = _peak_traced(run_protocol, strategy, n, seed=3, workers=workers)
        assert peak <= 24 * n, ("run_protocol", workers, peak)
    t = run_protocol(strategy, n, seed=3)
    text = format_transcript(t)
    bad = text[:-2] + "2\n"  # the last row's outcome b is 2

    def refuse(text):
        with pytest.raises(ValueError, match=f"^line {n + 2}: "):
            parse_transcript(text)

    for fn, arg in ((format_transcript, t), (parse_transcript, text), (refuse, bad)):
        peak = _peak_traced(fn, arg)
        assert peak <= 10 * len(text), (fn.__name__, peak, len(text))
