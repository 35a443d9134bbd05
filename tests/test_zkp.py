"""Protocol simulation, z-test verification, and transcript handling."""

from __future__ import annotations

import hashlib
import math
import re
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


@st.composite
def _transcripts(draw):
    n = draw(st.integers(0, 60))
    bits = st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n)
    signs = st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n)
    k, s = (np.array(draw(bits), dtype=np.uint8) for _ in range(2))
    a, b = (np.array(draw(signs), dtype=np.int8) for _ in range(2))
    return Transcript(draw(st.integers(-(2**70), 2**70)), n, k, a, s, b)


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


def test_read_transcript_names_a_non_ascii_row(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"# seed=1 N=1\nround,k,a,s,b\n0,1,\xa01,0,1\n")
    with pytest.raises(ValueError, match="line 3: data row fields must be 64-bit integers"):
        read_transcript(path)


def test_parse_transcript_errors():
    t = run_protocol(HonestStrategy(EPR), 40, seed=1)
    text = format_transcript(t)
    lines = text.splitlines()
    with pytest.raises(ValueError, match="header"):
        parse_transcript("\n".join(lines[1:]))
    # a key other than seed and N, or a repeated one, names the header
    for header in ("# sid=1 N=40", "# seed=1 N=40 seed=9", "# seed=1 N=40 foo=bar", "# seed=1 seed=1"):
        with pytest.raises(ValueError, match=f"bad transcript header: '{header}'"):
            parse_transcript(header + "\n" + "\n".join(lines[1:]))
    with pytest.raises(ValueError, match="column header"):
        parse_transcript(lines[0] + "\nk,a,s,b\n" + "\n".join(lines[2:]))
    with pytest.raises(ValueError, match="data rows"):
        parse_transcript("\n".join(lines[:-1]))
    swapped = lines[:2] + [lines[3], lines[2]] + lines[4:]
    with pytest.raises(ValueError, match="in order"):
        parse_transcript("\n".join(swapped))
    # a malformed row or header token is named, with blank lines counted
    with pytest.raises(ValueError, match=r"bad transcript header: '# seed=1 N'"):
        parse_transcript("# seed=1 N\n" + "\n".join(lines[1:]))
    for bad, why in (
        ("1,0,1", "needs 5 fields"),
        ("1,0,1,1,1,1", "needs 5 fields"),
        ("1,0,x,1,1", "fields must be 64-bit integers"),
        (f"1,0,{2**63},1,1", "fields must be 64-bit integers"),
    ):
        text = "\n".join(lines[:3] + ["", bad] + lines[4:])
        with pytest.raises(ValueError, match=f"line 5: data row {why}, got '{re.escape(bad)}'"):
            parse_transcript(text)


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("row", ["0,1,1,0", "0,1,1,0,1,1"])
def test_parse_transcript_refuses_rows_of_4_or_6_fields(n, row):
    with pytest.raises(ValueError, match="data rows"):
        parse_transcript(f"# seed=1 N={n}\nround,k,a,s,b\n{row}\n")


def test_min_cell_rounds_constant():
    assert MIN_CELL_ROUNDS == 30


# ---------------------------------------------------------------------------
# columnar transcript I/O against the row-by-row reference
# ---------------------------------------------------------------------------


def _reference_format(t):
    lines = [f"# seed={t.seed} N={t.n_rounds}", "round,k,a,s,b"]
    for i in range(t.n_rounds):
        lines.append(f"{i},{t.k[i]},{t.a[i]},{t.s[i]},{t.b[i]}")
    return "\n".join(lines) + "\n"


def _reference_parse(text):
    """The row-by-row parser the columnar one replaced, one int() per field."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("#"):
        raise ValueError("transcript must start with a '# seed=... N=...' header")
    try:
        pairs = [part.split("=") for part in lines[0].lstrip("# ").split()]
        header = dict(pairs)
        if len(pairs) != 2:
            raise ValueError
        seed, n = int(header["seed"]), int(header["N"])
    except (KeyError, ValueError):
        raise ValueError(f"bad transcript header: {lines[0]!r}, want '# seed=<int> N=<int>'") from None
    if lines[1] != "round,k,a,s,b":
        raise ValueError(f"bad column header: {lines[1]!r}")
    try:
        fields = [[int(x) for x in ln.split(",")] for ln in lines[2:]]
        rows = np.array(fields or np.empty((0, 5)), dtype=np.int64)
    except (ValueError, OverflowError):
        raise ValueError(_reference_bad_row(text)) from None
    if rows.shape != (n, 5):
        raise ValueError(f"expected {n} data rows of 5 fields, got shape {rows.shape}")
    if not np.array_equal(rows[:, 0], np.arange(n)):
        raise ValueError("round indices must be 0..N-1 in order")
    return Transcript(
        seed=seed, n_rounds=n, k=rows[:, 1].astype(np.uint8), a=rows[:, 2].astype(np.int8),
        s=rows[:, 3].astype(np.uint8), b=rows[:, 4].astype(np.int8),
    )


def _reference_bad_row(text):
    for i, ln in [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()][2:]:
        try:
            if np.array([int(x) for x in ln.split(",")], dtype=np.int64).shape == (5,):
                continue
        except (ValueError, OverflowError):
            return f"line {i}: data row fields must be 64-bit integers, got {ln!r}"
        return f"line {i}: data row needs 5 fields, got {ln!r}"
    return "malformed data rows"


def _outcome(parse, text):
    try:
        t = parse(text)
    except ValueError as exc:
        return ("error", str(exc))
    return ("ok", t.seed, t.n_rounds) + tuple((getattr(t, f).dtype, getattr(t, f).tolist()) for f in "kasb")


_FIELDS = ("+1", " 1", "1 ", "\t-1 ", "+0", "-0", "007", "", " ", "x", "1.0", "1e3", "--1", "+", "- 1",
           str(2**63), str(2**63 - 1), str(-(2**63)), str(-(2**63) - 1), "0" * 25 + "1", "-" + "0" * 30 + "1",
           "1" + "0" * 19, "9" * 20, "257", "-255", "2")
_BLANKS = ("", " ", "\t", " \t ", "\x1f", "\xa0", "\u3000 ")


@st.composite
def _edited_transcripts(draw):
    """A canonical transcript with a few random edits, most of which the
    parsers must refuse in the same words."""
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
def test_columnar_parser_matches_the_row_parser(text):
    """Every text gives the same transcript (values and dtypes) or the same
    error as the row-by-row parser, line numbers included."""
    assert _outcome(parse_transcript, text) == _outcome(_reference_parse, text)


@given(_transcripts())
def test_columnar_writer_matches_the_row_writer(t):
    assert format_transcript(t) == _reference_format(t)


@pytest.mark.parametrize("field", ["0_1", "\u0661", "\xa01", "1\u3000"])
def test_parser_takes_only_ascii_decimal_fields(field):
    """int() also reads underscores, non-ASCII digits and non-ASCII spaces;
    a data row field is narrower: spaces or tabs, a sign, ASCII digits."""
    row = f"0,1,{field},0,1"
    assert _reference_parse(f"# seed=1 N=1\nround,k,a,s,b\n{row}\n").n_rounds == 1
    want = f"line 3: data row fields must be 64-bit integers, got {row!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        parse_transcript(f"# seed=1 N=1\nround,k,a,s,b\n{row}\n")


@pytest.mark.parametrize("field", [str(2**63), str(-(2**63) - 1), "9" * 30])
def test_out_of_range_fields_never_reach_loadtxt(field):
    """Older numpy reads such a field through a float instead of refusing it."""
    text = f"# seed=1 N=2\nround,k,a,s,b\n0,1,1,0,1\n1,1,{field},0,1\n"
    with mock.patch.object(np, "loadtxt", side_effect=AssertionError("loadtxt called")):
        with pytest.raises(ValueError, match="^line 4: data row fields must be 64-bit integers"):
            parse_transcript(text)


def test_transcript_io_memory_budget():
    """Writing or reading 10^5 rounds peaks at no more than 10 times the
    text's length in traced allocations."""
    t = run_protocol(HonestStrategy(EPR), 10**5, seed=3)
    text = format_transcript(t)
    for fn, arg in ((format_transcript, t), (parse_transcript, text)):
        tracemalloc.start()
        try:
            fn(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * len(text), (fn.__name__, peak, len(text))
