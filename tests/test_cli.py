"""End-to-end command tests driving main() with temp files."""

from __future__ import annotations

import argparse
import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qew import cli, networks, oracle, qmat, states, witnesses, zkp
from qew.cli import MAX_SCAN_ROWS, build_parser, main
from qew.oracle import SamplerConfig, sample_biseparable, sample_separable
from qew.witnesses import critical_visibility, witness_family
from qew.states import MAX_DIM, parse_state_spec
from qew.zkp import MAX_ROUNDS, MAX_WORKERS, read_transcript

SCI12 = re.compile(r"^-?\d\.\d{11}e[+-]\d{2,3}$")


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _epr_file(tmp_path, theta=np.pi / 4):
    return _write(tmp_path, "epr.json", {"kind": "epr", "theta": theta})


def _flip_channel(tmp_path, sites=2, site=0):
    phases = [[0.0, 0.0] for _ in range(sites)]
    flipped = [list(p) for p in phases]
    flipped[site][1] = np.pi
    return _write(
        tmp_path,
        "flip.json",
        {"terms": [{"p": 0.5, "site_phases": phases}, {"p": 0.5, "site_phases": flipped}]},
    )


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def test_witness_epr_report(tmp_path, capsys):
    code, out, _ = _run(capsys, "witness", _epr_file(tmp_path))
    assert code == 0
    rep = json.loads(out)
    assert rep["family"] == "epr"
    assert rep["witness"]["verdict"] == "entangled"
    assert rep["witness"]["lhs"] == pytest.approx(1.0)
    assert rep["witness"]["bound"] == 0.0
    assert rep["battery"]["passed"] is True
    coh = rep["witness"]["elements"]["coherences"]
    assert coh["0,3"] == pytest.approx([0.5, 0.0])
    assert rep["witness"]["elements"]["basis"] == [0, 3]


def test_witness_dephased_not_witnessed(tmp_path, capsys):
    code, out, _ = _run(
        capsys, "witness", _epr_file(tmp_path), "--channel", _flip_channel(tmp_path)
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["witness"]["verdict"] == "not-witnessed"
    assert rep["battery"]["passed"] is False
    failed = [i for i in rep["battery"]["items"] if not i["passed"]]
    assert [i["label"] for i in failed] == ["X@1 X@2"]
    assert failed[0]["contract"] == "NonZero"
    # no leakage: the not-witnessed reading stands
    assert rep["witness"]["leakage"] == 0.0 and "inconclusive" not in rep["witness"]


def test_witness_leaky_not_witnessed_is_inconclusive(tmp_path, capsys):
    code, out, _ = _run(capsys, "witness", _epr_file(tmp_path, 0.6), "--noise", "0.3")
    assert code == 0
    rep = json.loads(out)["witness"]
    assert rep["verdict"] == "not-witnessed"
    assert rep["leakage"] == pytest.approx(0.35)
    assert rep["inconclusive"].startswith("leakage 3.500e-01 exceeds 1.0e-08: ")
    assert "not-witnessed does not mean separable" in rep["inconclusive"]


def test_witness_noisy_ghz_stays_entangled(tmp_path, capsys):
    state = _write(tmp_path, "ghz.json", {"kind": "ghz", "n": 3, "theta": np.pi / 4})
    code, out, _ = _run(capsys, "witness", state, "--noise", "0.9")
    assert code == 0
    rep = json.loads(out)
    assert rep["family"] == "ghz"
    assert rep["witness"]["verdict"] == "entangled"
    assert rep["witness"]["leakage"] == pytest.approx(0.075)
    assert rep["witness"]["lhs"] == pytest.approx(0.825)
    # a violation is conclusive whatever the leakage
    assert "inconclusive" not in rep["witness"]


def test_witness_w_family_inferred(tmp_path, capsys):
    a = 1 / np.sqrt(3)
    state = _write(tmp_path, "w.json", {"kind": "w", "a": [a, a, a, 0.0]})
    code, out, _ = _run(capsys, "witness", state)
    assert code == 0
    rep = json.loads(out)
    assert rep["family"] == "w"
    assert rep["witness"]["lhs"] == pytest.approx(2.0 / 3.0)
    assert rep["witness"]["bound"] == 0.5
    assert rep["witness"]["alt_bound"] == 0.25
    assert rep["witness"]["verdict"] == "entangled"


def test_witness_spec_kind_picks_the_family_on_shared_support(tmp_path, capsys):
    # |111> sits in both three-qubit subspaces; the spec's kind still names
    # one family, and qew witness reads that one
    state = _write(tmp_path, "top.json", {"kind": "ghz", "n": 3, "theta": np.pi / 2})
    code, out, _ = _run(capsys, "witness", state)
    assert code == 0
    rep = json.loads(out)
    assert rep["family"] == "ghz"
    assert rep["witness"]["verdict"] == "not-witnessed"


def test_witness_qudit(tmp_path, capsys):
    a = 1 / np.sqrt(3)
    state = _write(
        tmp_path, "qd.json", {"kind": "qudit_ghz", "n": 2, "d": 3, "alpha": [a, a, a]}
    )
    code, out, _ = _run(capsys, "witness", state)
    assert code == 0
    rep = json.loads(out)
    assert rep["family"] == "qudit"
    assert rep["witness"]["lhs"] == pytest.approx(2.0)
    assert rep["witness"]["verdict"] == "entangled"


# Specs where the state's support once picked another family than its kind
# (the first seven), then one spec of each kind where the two agreed.
_ONE_FAMILY_SPECS = [
    {"kind": "ghz", "n": 2, "theta": 0.4},
    {"kind": "ghz", "n": 3, "theta": np.pi / 2},
    {"kind": "w", "a": [0.0, 0.0, 0.0, 1.0]},
    {"kind": "qudit_ghz", "n": 2, "d": 2, "alpha": [0.6, 0.8]},
    {"kind": "qudit_ghz", "n": 3, "d": 2, "alpha": [0.6, 0.8]},
    {"kind": "qudit_ghz", "n": 4, "d": 2, "alpha": [0.6, 0.8]},
    {"kind": "qudit_ghz", "n": 3, "d": 2, "alpha": [0.0, 1.0]},
    {"kind": "epr", "theta": np.pi / 4},
    {"kind": "ghz", "n": 3, "theta": 0.5},
    {"kind": "w", "a": [0.5, 0.5, 0.5, 0.5]},
    {"kind": "qudit_ghz", "n": 2, "d": 3, "alpha": [0.6, 0.8, 0.0]},
]


@pytest.mark.parametrize("spec", _ONE_FAMILY_SPECS, ids=json.dumps)
def test_witness_and_network_read_one_family(tmp_path, capsys, spec):
    code, out, err = _run(capsys, "witness", _write(tmp_path, "state.json", spec))
    assert code == 0, err
    rep = json.loads(out)
    assert rep["family"] == parse_state_spec(spec).family()
    parties = [f"P{i}" for i in range(len(parse_state_spec(spec).site_dims()))]
    network = {"parties": parties, "sources": [{"state": spec, "owners": parties}]}
    code, out, err = _run(capsys, "network", _write(tmp_path, "net.json", network))
    assert code == 0, err
    (source,) = json.loads(out)["sources"]
    labels = [i["label"] for i in rep["battery"]["items"]]
    assert labels == [i["label"] for i in source["battery"]["items"]]


def test_witness_out_file_and_out_dir(tmp_path, capsys, monkeypatch):
    state = _epr_file(tmp_path)
    out_abs = tmp_path / "report.json"
    code, out, _ = _run(capsys, "witness", state, "--out", str(out_abs))
    assert code == 0 and out == ""
    rep = json.loads(out_abs.read_text())
    assert rep["family"] == "epr"
    monkeypatch.setenv("QEW_OUT_DIR", str(tmp_path / "sub"))
    code, _, _ = _run(capsys, "witness", state, "--out", "nested/report.json")
    assert code == 0
    assert (tmp_path / "sub" / "nested" / "report.json").exists()


def test_witness_input_errors(tmp_path, capsys):
    assert _run(capsys, "witness", str(tmp_path / "missing.json"))[0] == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert _run(capsys, "witness", str(bad))[0] == 2
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    code, _, err = _run(capsys, "witness", str(arr))
    assert code == 2 and "object" in err
    # core-layer validation also lands on exit 2
    code, _, err = _run(capsys, "witness", _epr_file(tmp_path), "--noise", "-0.5")
    assert code == 2 and "error:" in err
    nan_channel = _write(
        tmp_path, "nan.json", {"terms": [{"p": float("nan"), "site_phases": [[0, 0], [0, 0]]}]}
    )
    code, _, err = _run(capsys, "witness", _epr_file(tmp_path), "--channel", nan_channel)
    assert code == 2 and "finite" in err
    infinite_n = _write(tmp_path, "inf.json", {"kind": "ghz", "n": float("inf"), "theta": 0.7})
    code, out, err = _run(capsys, "witness", infinite_n)
    assert code == 2 and out == "" and "'n'" in err
    # a local dimension below 2 is named as such, not as over budget
    for d in (-100, 0, 1):
        qudit = _write(tmp_path, "qd.json", {"kind": "qudit_ghz", "n": 2, "d": d, "alpha": [1]})
        code, out, err = _run(capsys, "witness", qudit)
        assert code == 2 and out == "" and f"dimension must be at least 2, got d={d}" in err
        assert "budget" not in err
    # wrongly typed channel fields name the field instead of raising TypeError
    zero = [0.0, 0.0]
    for field, channel in (
        ("terms", {"terms": 5}),
        ("terms", {"terms": [5]}),
        ("site_phases", {"terms": [{"p": 1.0, "site_phases": [[[1], 0], zero]}]}),
        ("site_phases", {"terms": [{"p": 1.0, "site_phases": 5}]}),
        ("p", {"terms": [{"p": [1], "site_phases": [zero, zero]}]}),
    ):
        path = _write(tmp_path, "typed.json", channel)
        code, out, err = _run(capsys, "witness", _epr_file(tmp_path), "--channel", path)
        assert code == 2 and out == "" and f"'{field}'" in err, (channel, err)
        assert "Traceback" not in err


def test_witness_state_over_budget(tmp_path, capsys):
    # 16 qubits would be a 2^32-entry matrix; the spec is refused before that
    state = _write(tmp_path, "big.json", {"kind": "ghz", "n": 16, "theta": 0.7})
    code, out, err = _run(capsys, "witness", state)
    assert code == 2 and out == ""
    assert "budget" in err


# ---------------------------------------------------------------------------
# scan-visibility
# ---------------------------------------------------------------------------


def test_scan_default_grid(capsys):
    code, out, _ = _run(capsys, "scan-visibility")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "offdiag,v_witness,v_chsh,v_svetlichny3"
    assert len(lines) == 12
    for ln in lines[1:]:
        fields = ln.split(",")
        assert len(fields) == 4
        assert all(SCI12.match(f) for f in fields)
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    assert rows[0][0] == 0.0 and rows[-1][0] == pytest.approx(0.5)
    for j, kind in ((1, "witness"), (2, "chsh"), (3, "svetlichny_3")):
        for row in rows:
            assert row[j] == pytest.approx(critical_visibility(row[0], kind), abs=1e-11)
        col = [r[j] for r in rows]
        assert all(x >= y - 1e-12 for x, y in zip(col, col[1:]))


def test_scan_range_validation(tmp_path, capsys):
    assert _run(capsys, "scan-visibility", "--step", "0")[0] == 2
    assert _run(capsys, "scan-visibility", "--stop", "0.7")[0] == 2
    assert _run(capsys, "scan-visibility", "--start", "0.4", "--stop", "0.2")[0] == 2


def test_scan_out_file(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, stdout, _ = _run(
        capsys, "scan-visibility", "--start", "0.1", "--stop", "0.2", "--step", "0.05",
        "--out", str(out),
    )
    assert code == 0 and stdout == ""
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4  # header + 0.1, 0.15, 0.2


# ---------------------------------------------------------------------------
# zkp
# ---------------------------------------------------------------------------


def test_zkp_honest_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QEW_OUT_DIR", str(tmp_path))
    strategy = _write(
        tmp_path, "honest.json",
        {"kind": "honest", "state": {"kind": "epr", "theta": np.pi / 4}},
    )
    code, out, _ = _run(capsys, "zkp", strategy, "--n", "2000", "--seed", "5")
    assert code == 0
    rep = json.loads(out)
    assert rep["accepted"] is True
    assert rep["n_rounds"] == 2000 and rep["seed"] == 5
    assert sum(c["count"] for c in rep["cells"].values()) == 2000
    t = read_transcript(rep["transcript"])
    assert t.n_rounds == 2000
    assert rep["leakage_view"]["re_offdiag"] == pytest.approx(0.5, abs=0.1)


def test_zkp_cheating_strategies_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QEW_OUT_DIR", str(tmp_path))
    sep = _write(tmp_path, "sep.json", {"kind": "separable_diag", "p0": 0.5})
    code, out, _ = _run(capsys, "zkp", sep, "--n", "2000", "--seed", "1")
    assert code == 0 and json.loads(out)["accepted"] is False
    fixed = _write(tmp_path, "fx.json", {"kind": "fixed_outcomes", "outcomes": [1, 1]})
    code, out, _ = _run(capsys, "zkp", fixed, "--n", "2000", "--seed", "2")
    assert code == 0 and json.loads(out)["accepted"] is False
    # "noise" means visibility of the honest state
    noisy = _write(
        tmp_path, "nz.json",
        {"kind": "honest", "state": {"kind": "epr", "theta": np.pi / 4}, "noise": 0.0},
    )
    code, out, _ = _run(capsys, "zkp", noisy, "--n", "2000", "--seed", "3")
    assert code == 0 and json.loads(out)["accepted"] is False


def test_zkp_report_names_failed_cells_and_z_scores(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QEW_OUT_DIR", str(tmp_path))
    honest = _write(tmp_path, "h.json", {"kind": "honest", "state": {"kind": "epr", "theta": np.pi / 4}})
    code, out, _ = _run(capsys, "zkp", honest, "--n", "2000", "--seed", "5")
    rep = json.loads(out)
    assert code == 0 and rep["failed"] == []
    # the sampled zz and xx cells are exact: zero deviation, and a deviation over se = 0
    assert rep["cells"]["zz"]["z"] == 0.0 and rep["cells"]["xx"]["z"] is None
    sep = _write(tmp_path, "sep.json", {"kind": "separable_diag", "p0": 0.5})
    rep = json.loads(_run(capsys, "zkp", sep, "--n", "4000", "--seed", "3")[1])
    assert rep["accepted"] is False and rep["failed"] == ["xx"]
    c = rep["cells"]["xx"]
    assert c["z"] == c["estimate"] / c["std_error"]
    fixed = _write(tmp_path, "fx.json", {"kind": "fixed_outcomes", "outcomes": [1, 1]})
    rep = json.loads(_run(capsys, "zkp", fixed, "--n", "4000", "--seed", "5")[1])
    assert rep["failed"] == ["zz", "xx"] and rep["cells"]["zz"]["z"] < -5


def test_zkp_computes_the_cell_statistics_once_per_proof(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QEW_OUT_DIR", str(tmp_path))
    calls = []
    stats = zkp._cell_stats
    monkeypatch.setattr(zkp, "_cell_stats", lambda t: calls.append(t) or stats(t))
    for strategy, z in (({"kind": "separable_diag", "p0": 0.5}, "5"), ({"kind": "fixed_outcomes", "outcomes": [1, 1]}, "2.5")):
        code, out, _ = _run(capsys, "zkp", _write(tmp_path, "s.json", strategy), "--n", "3000", "--seed", "7", "--z", z)
        assert code == 0 and len(calls) == 1
        # the report is the one the two public calls give on the transcript
        rep, t = json.loads(out), read_transcript(json.loads(out)["transcript"])
        verdict, leak = zkp.verify_transcript(t, z=float(z)), zkp.leakage_view(t)
        assert rep["failed"] == list(verdict.failed) and rep["accepted"] is verdict.accepted
        assert rep["cells"] == cli._cells_dict(verdict.cells)
        assert rep["leakage_view"] == {
            "populations": list(leak.populations),
            "re_offdiag": leak.re_offdiag,
            "im_offdiag_bound": leak.im_offdiag_bound,
        }
        calls.clear()


def test_zkp_seed_required(tmp_path, capsys):
    strategy = _write(tmp_path, "s.json", {"kind": "separable_diag"})
    with pytest.raises(SystemExit):
        main(["zkp", strategy, "--n", "200"])


def test_seeds_outside_64_bits_exit_2(tmp_path, capsys, monkeypatch):
    # the random source folds a seed mod 2^64, so -1 and 2^64 - 1 would draw
    # the same rounds under different headers
    monkeypatch.setenv("QEW_OUT_DIR", str(tmp_path))
    strategy = _write(tmp_path, "s.json", {"kind": "separable_diag"})
    for command in (["oracle", "--witness", "epr", "--samples", "2", "--iters", "1"],
                    ["zkp", strategy, "--n", "400"]):
        for seed in ("-1", str(2**64), "1.5", "x"):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--seed", seed])
            err = capsys.readouterr().err
            assert exc.value.code == 2 and f"0..{2**64 - 1}" in err and "Traceback" not in err, err
        assert not list(tmp_path.glob("*.txt"))  # no transcript was started
        code, out, _ = _run(capsys, *command, "--seed", str(2**64 - 1))
        assert code == 0 and json.loads(out)["seed"] == 2**64 - 1


def test_zkp_strategy_errors(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QEW_OUT_DIR", str(tmp_path))
    bad = _write(tmp_path, "bad.json", {"kind": "teleport"})
    code, _, err = _run(capsys, "zkp", bad, "--seed", "1")
    assert code == 2 and "teleport" in err
    incomplete = _write(tmp_path, "inc.json", {"kind": "fixed_outcomes"})
    code, _, err = _run(capsys, "zkp", incomplete, "--seed", "1")
    assert code == 2 and "strategy spec needs a 'outcomes' entry" in err
    epr = {"kind": "epr", "theta": 0.7}
    for field, strategy in (
        ("noise", {"kind": "honest", "state": epr, "noise": [1]}),
        ("state", {"kind": "honest", "state": 5}),
        ("channel", {"kind": "honest", "state": epr, "channel": [1]}),
        ("outcomes", {"kind": "fixed_outcomes", "outcomes": 5}),
        ("p0", {"kind": "separable_diag", "p0": "half"}),
        ("verifier_qubit", {"kind": "fixed_outcomes", "outcomes": [1, 1], "verifier_qubit": 5}),
    ):
        path = _write(tmp_path, "typed.json", strategy)
        code, out, err = _run(capsys, "zkp", path, "--seed", "1")
        assert code == 2 and out == "" and f"'{field}'" in err, (strategy, err)
        assert "Traceback" not in err


def test_zkp_fixed_outcomes_are_checked_by_the_library(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QEW_OUT_DIR", str(tmp_path))
    for outcomes in ([1], [1, 1, 1]):
        path = _write(tmp_path, "fx.json", {"kind": "fixed_outcomes", "outcomes": outcomes})
        code, out, err = _run(capsys, "zkp", path, "--seed", "1")
        assert code == 2 and out == ""
        assert "fixed outcomes must be two entries of +/-1 (a for k=0, a for k=1)" in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------


def _chain_network(tmp_path):
    return _write(
        tmp_path, "net.json",
        {
            "parties": ["A", "B", "C"],
            "sources": [
                {"state": {"kind": "epr", "theta": np.pi / 4}, "owners": ["A", "B"]},
                {"state": {"kind": "epr", "theta": np.pi / 4}, "owners": ["B", "C"]},
            ],
        },
    )


def test_network_report(tmp_path, capsys):
    code, out, _ = _run(capsys, "network", _chain_network(tmp_path))
    assert code == 0
    rep = json.loads(out)
    assert rep["connected"] is True
    assert rep["components"] == [["A", "B", "C"]]
    assert rep["all_passed"] is True
    assert [s["kind"] for s in rep["sources"]] == ["epr", "epr"]
    labels = [i["label"] for i in rep["sources"][1]["battery"]["items"]]
    assert labels[0] == "Z@3 Z@4"


def test_network_dephased_source_fails(tmp_path, capsys):
    channel = _flip_channel(tmp_path, sites=4, site=2)
    code, out, _ = _run(
        capsys, "network", _chain_network(tmp_path), "--channel", channel
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["all_passed"] is False
    assert rep["sources"][0]["battery"]["passed"] is True
    assert rep["sources"][1]["battery"]["passed"] is False


def test_network_spec_error(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json", {"parties": ["A"]})
    code, _, err = _run(capsys, "network", bad)
    assert code == 2 and "network spec needs a 'sources' entry" in err
    good = json.loads(Path(_chain_network(tmp_path)).read_text(encoding="utf-8"))
    gate = {"party": "B", "theta": 1.0, "qubits": [2, 3]}
    for field, change in (
        ("theta", {"cp_gates": [{**gate, "theta": [1]}]}),
        ("qubits", {"cp_gates": [{**gate, "qubits": [1]}]}),
        ("owners", {"sources": [{**good["sources"][0], "owners": 5}]}),
        ("parties", {"parties": 5}),
        ("sources", {"sources": [5]}),
    ):
        path = _write(tmp_path, "typed.json", {**good, **change})
        code, out, err = _run(capsys, "network", path)
        assert code == 2 and out == "" and f"'{field}'" in err, (change, err)
        assert "Traceback" not in err


def test_network_over_budget_past_64_bits(tmp_path, capsys, monkeypatch):
    # 32 EPR sources are 64 qubits, a total dimension an int64 product wraps to 0
    def no_kron(*mats):
        raise AssertionError("the budget check let the spec through")

    monkeypatch.setattr(networks, "tensor_product", no_kron)
    source = {"state": {"kind": "epr", "theta": 0.7}, "owners": ["A", "A"]}
    spec = _write(tmp_path, "huge.json", {"parties": ["A"], "sources": [source] * 32})
    code, out, err = _run(capsys, "network", spec)
    assert code == 2 and out == "" and "budget" in err


# Every option string of every subcommand, help aside: a new or removed flag
# is a deliberate edit here, as tests/test_signatures.py is for keywords.
CLI_OPTIONS = {
    "witness": {"--channel", "--noise", "--tol-eq", "--tol-nz", "--out"},
    "scan-visibility": {"--start", "--stop", "--step", "--out"},
    "zkp": {"--n", "--seed", "--z", "--workers", "--transcript", "--out"},
    "network": {"--channel", "--tol-eq", "--tol-nz", "--out"},
    "oracle": {"--witness", "--samples", "--seed", "--n", "--d", "--terms", "--iters", "--out"},
}


def test_network_has_no_leakage_flag():
    # Neither report reads a support tolerance: a network report reads no
    # subspace support, and qew witness takes its family from the state's
    # kind.  The allowlist pins that along with every other option.
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert options == CLI_OPTIONS


def _masked(out):
    rep = json.loads(out)
    rep.pop("runtime_s", None)
    return rep


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process, and no option of one call
    # carries over to the next: the first oracle run sets --n and --d, the
    # last sets neither
    runs = [
        ["oracle", "--witness", "qudit", "--n", "2", "--d", "3", "--samples", "20", "--iters", "2",
         "--seed", "5"],
        ["network", _chain_network(tmp_path)],
        ["oracle", "--witness", "epr", "--samples", "20", "--iters", "2", "--seed", "5"],
    ]
    builds = []
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    cli._parser.cache_clear()
    shared = [_run(capsys, *argv) for argv in runs]
    assert len(builds) == 1
    fresh = []
    for argv in runs:
        cli._parser.cache_clear()
        fresh.append(_run(capsys, *argv))
    assert len(builds) == 1 + len(runs)
    for (code, out, err), (code_f, out_f, err_f) in zip(shared, fresh):
        assert (code, err) == (code_f, err_f) == (0, "")
        assert _masked(out) == _masked(out_f)


# Reports at two set tolerance pairs.  Each pair moves a different set of
# battery verdicts away from the defaults, so the digests pin where the
# tolerances reach as well as the report bytes.  The network's NonZero lines
# read 0.394 (GHZ X@3 X@4 X@5), 0.932 (EPR X@1 X@2), 0.960 (W X@6 X@8) and
# 0.984 (W X@6 X@7), and its Exact and Zero lines are exact: (0.25, 0.5) fails
# the GHZ line alone, and (1e-3, 0.97) fails the first three.
_PINNED_REPORTS = {
    ("witness", "0.25", "0.5"): "8908e76fb9ec1cc9de2a19d3abe5c9c3e3602ab2a03f1e187d96c35e722683f2",
    ("witness", "1e-3", "0.9"): "3ca80c5ffd93db44bd1bf532c455c7879dfae5662fc599ee7e2458ffe7cde600",
    ("network", "0.25", "0.5"): "cb603353f34652426304e9798a6076fb72e6cd737a10d35aeb6386fe76e132a3",
    ("network", "1e-3", "0.97"): "f7695ea4d7dd0cdbbbf25657c11533d596936201cfda58d4b97851a07d5c430e",
}


def test_reports_at_set_tolerances_are_pinned(tmp_path, capsys):
    ghz = _write(tmp_path, "ghz.json", {"kind": "ghz", "n": 3, "theta": 0.7})
    net = _write(
        tmp_path, "net.json",
        {
            "parties": ["A", "B", "C"],
            "sources": [
                {"state": {"kind": "epr", "theta": 0.6}, "owners": ["A", "B"]},
                {"state": {"kind": "ghz", "n": 3, "theta": 0.7}, "owners": ["A", "B", "C"]},
                {"state": {"kind": "w", "a": [0.4, 0.5, 0.6, 0.4795831523312719]},
                 "owners": ["A", "B", "C"]},
            ],
            "cp_gates": [{"party": "A", "theta": 1.2, "qubits": [1, 3]}],
        },
    )
    still = [[0.0, 0.0]] * 8
    flip = [[0.0, 0.0]] * 3 + [[0.0, np.pi]] + [[0.0, 0.0]] * 4
    channel = _write(
        tmp_path, "ch.json",
        {"terms": [{"p": 0.7, "site_phases": still}, {"p": 0.3, "site_phases": flip}]},
    )
    argv = {
        "witness": ["witness", ghz, "--noise", "0.8"],
        "network": ["network", net, "--channel", channel],
    }
    for (command, eq, nz), digest in _PINNED_REPORTS.items():
        code, out, _ = _run(capsys, *argv[command], "--tol-eq", eq, "--tol-nz", nz)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (command, eq, nz)


def _refusal(flag, value):
    return f"error: {flag} must be a finite positive number, got {float(value)}\n"


def test_non_positive_tolerances_refused(tmp_path, capsys):
    for command, path in (("witness", _epr_file(tmp_path)), ("network", _chain_network(tmp_path))):
        for flag in ("--tol-eq", "--tol-nz"):
            for value in ("0", "-1", "nan", "inf"):
                code, out, err = _run(capsys, command, path, flag, value)
                assert (code, out, err) == (2, "", _refusal(flag, value))


def test_non_finite_thresholds_refused(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QEW_OUT_DIR", str(tmp_path))
    honest = _write(tmp_path, "h.json", {"kind": "honest", "state": {"kind": "epr", "theta": np.pi / 4}})
    for *argv, flag in (["zkp", honest, "--seed", "1", "--z"], ["scan-visibility", "--step"]):
        for value in ("nan", "inf", "0"):
            code, out, err = _run(capsys, *argv, flag, value)
            assert (code, out, err) == (2, "", _refusal(flag, value))
    assert not list(tmp_path.glob("*.txt"))  # --z is checked before the transcript is written


# ---------------------------------------------------------------------------
# size budgets
# ---------------------------------------------------------------------------


def test_size_arguments_over_budget_exit_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QEW_OUT_DIR", str(tmp_path))
    strategy = _write(
        tmp_path, "honest.json",
        {"kind": "honest", "state": {"kind": "epr", "theta": np.pi / 4}},
    )
    for argv, budget in (
        (["oracle", "--witness", "ghz", "--n", "40", "--seed", "1"], MAX_DIM),
        (["oracle", "--witness", "ghz", "--n", "13", "--seed", "1"], MAX_DIM),
        (["oracle", "--witness", "qudit", "--n", "2", "--d", "100000", "--seed", "1"], MAX_DIM),
        (["zkp", strategy, "--n", str(10**12), "--seed", "1"], MAX_ROUNDS),
        (["zkp", strategy, "--workers", "1000000000", "--seed", "1"], MAX_WORKERS),
        (["scan-visibility", "--step", "1e-12"], MAX_SCAN_ROWS),
        (["scan-visibility", "--step", "1e-320"], MAX_SCAN_ROWS),
    ):
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert "budget" in err and str(budget) in err and "Traceback" not in err, (argv, err)
    assert not list(tmp_path.glob("*.txt"))  # no transcript was started


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_epr_clean_run(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    code, stdout, _ = _run(
        capsys, "oracle", "--witness", "epr", "--samples", "50", "--seed", "3",
        "--iters", "5", "--out", str(out),
    )
    assert code == 0 and stdout == ""
    rep = json.loads(out.read_text())
    assert rep["witness"] == "epr" and rep["sites"] == [2, 2]
    assert rep["violations"] == 0
    assert rep["max_lhs"] <= 1e-9
    assert rep["search_max"] <= 1e-9
    assert rep["samples"] == 50 and rep["runtime_s"] > 0


def test_oracle_w_uses_half_bound(capsys):
    code, out, _ = _run(
        capsys, "oracle", "--witness", "w", "--samples", "30", "--seed", "2",
        "--iters", "5",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["bound"] == 0.5 and rep["sites"] == [2, 2, 2]
    assert rep["max_lhs"] <= 0.5 + 1e-9


def test_oracle_violation_exit_code(capsys, monkeypatch):
    monkeypatch.setattr("qew.cli.maximize_witness", lambda *a, **k: (0.3, None))
    code, out, _ = _run(
        capsys, "oracle", "--witness", "epr", "--samples", "5", "--seed", "1",
        "--iters", "1",
    )
    assert code == 1
    assert json.loads(out)["violations"] == 1


def _replay(witness, sites, terms, seed, index):
    """The witness value of one sample, drawn alone from ``(seed, index)``."""
    fam = witness_family(witness)
    sampler = sample_separable if oracle._WITNESS_SET[witness] == "separable" else sample_biseparable
    return fam.witness(sampler(SamplerConfig(sites=tuple(sites), terms=terms, seed=seed), index)).lhs


@pytest.mark.parametrize("argv", [["--witness", "epr"], ["--witness", "w"],
                                  ["--witness", "ghz", "--n", "4"], ["--witness", "qudit", "--d", "3"]])
def test_oracle_argmax_replays_to_max_lhs(capsys, monkeypatch, argv):
    code, out, _ = _run(capsys, "oracle", *argv, "--samples", "300", "--seed", "11", "--iters", "1")
    rep = json.loads(out)
    assert code == 0 and rep["first_violation"] is None
    replay = _replay(rep["witness"], rep["sites"], rep["terms"], rep["seed"], rep["argmax_index"])
    assert replay == rep["max_lhs"]
    # blocks of 7 samples give the same report, the lowest index on ties included
    monkeypatch.setattr(cli, "block_length", lambda cfg: 7)
    code, again, _ = _run(capsys, "oracle", *argv, "--samples", "300", "--seed", "11", "--iters", "1")
    rep.pop("runtime_s")
    assert {k: v for k, v in json.loads(again).items() if k != "runtime_s"} == rep


def test_oracle_reports_its_first_violation(capsys, monkeypatch):
    values = [_replay("epr", (2, 2), 4, 5, i) for i in range(40)]
    bound = sorted(values)[-6]  # five samples cross it
    crossing = [i for i, v in enumerate(values) if v > bound + 1e-9]
    assert len(crossing) == 5
    fam = dataclasses.replace(witness_family("epr"), bound=bound)
    monkeypatch.setattr(cli, "witness_family", lambda name: fam)
    monkeypatch.setattr(cli, "block_length", lambda cfg: 4)
    code, out, _ = _run(capsys, "oracle", "--witness", "epr", "--samples", "40", "--seed", "5", "--iters", "1")
    rep = json.loads(out)
    assert code == 1
    assert rep["first_violation"] == crossing[0]
    assert rep["violations"] == 5 + (rep["search_max"] > bound + 1e-9)
    assert rep["argmax_index"] == values.index(max(values))


def test_oracle_campaign_draws_its_samples_in_blocks(capsys, monkeypatch):
    """A 500-sample campaign makes no per-sample call: falling back to one
    sampler, density constructor or witness call per sample fails here."""
    counts = {}
    originals = {
        "as_density": qmat.as_density,
        "_derived": qmat._derived,
        "sample_separable": oracle.sample_separable,
        "sample_biseparable": oracle.sample_biseparable,
        **{f"witness_{w}": getattr(witnesses, f"witness_{w}") for w in ("epr", "ghz", "w", "qudit")},
    }
    for name, fn in originals.items():
        def counted(*args, _name=name, _fn=fn, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        for module in (qmat, states, witnesses, oracle, networks, zkp, cli):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    for argv in (["--witness", "epr"], ["--witness", "ghz", "--n", "4"], ["--witness", "w"]):
        counts.clear()
        code, _, _ = _run(capsys, "oracle", *argv, "--samples", "500", "--seed", "2", "--iters", "1")
        assert code == 0
        # maximize_witness returns its best state, a pure product, through
        # pure_density and so the unchecked-PSD constructor, once
        assert counts == {"_derived": 1}, argv


@pytest.mark.parametrize(
    "witness, flags, named",
    [
        ("epr", ["--n", "40", "--d", "7"], "--n"),
        ("epr", ["--n", "2"], "--n"),
        ("epr", ["--d", "2"], "--d"),
        ("w", ["--n", "3"], "--n"),
        ("w", ["--d", "3"], "--d"),
        ("ghz", ["--n", "4", "--d", "3"], "--d"),
    ],
)
def test_oracle_refuses_flags_the_family_fixes(capsys, witness, flags, named):
    code, out, err = _run(
        capsys, "oracle", "--witness", witness, *flags, "--samples", "1", "--iters", "1",
        "--seed", "1",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and named in err and "Traceback" not in err


def test_oracle_sample_count_validated(capsys):
    code, _, err = _run(
        capsys, "oracle", "--witness", "epr", "--samples", "0", "--seed", "1"
    )
    assert code == 2 and "sample" in err
    code, _, err = _run(capsys, "oracle", "--witness", "qudit", "--n", "0", "--seed", "1")
    assert code == 2 and "sites" in err and "Traceback" not in err


def test_oracle_iters_refused_before_sampling(capsys, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("the campaign ran before --iters was checked")

    monkeypatch.setattr(cli, "_sample_block", no_sampling)
    code, out, err = _run(capsys, "oracle", "--witness", "epr", "--iters", "0", "--seed", "1")
    assert (code, out, err) == (2, "", "error: iters must be >= 1\n")


@pytest.mark.parametrize("witness", ["qudit", "ghz"])
def test_oracle_refuses_the_family_sites_before_sampling(capsys, monkeypatch, witness):
    def no_sampling(*args):
        raise AssertionError("the campaign ran before the sites were checked")

    monkeypatch.setattr(cli, "_sample_block", no_sampling)
    code, out, err = _run(capsys, "oracle", "--witness", witness, "--n", "1", "--seed", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "2 or more sites" in err and "Traceback" not in err


def test_oracle_iters_over_budget_refused_before_sampling(capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("the campaign ran before --iters was checked")

    monkeypatch.setattr(cli, "_sample_block", no_work)
    monkeypatch.setattr(oracle, "_pure_lhs", no_work)
    code, out, err = _run(
        capsys, "oracle", "--witness", "epr", "--iters", str(oracle.MAX_ITERS + 1), "--seed", "1"
    )
    assert (code, out) == (2, "")
    assert "budget" in err and "--iters" in err and str(oracle.MAX_ITERS) in err


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "qew", "--help"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0
    assert "usage: qew" in done.stdout


def _qew(*argv, **kwargs):
    """``python -m qew`` in a child process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "qew", *argv], env=env, text=True, **kwargs)


def test_closed_stdout_exits_3(tmp_path):
    """A report written into a pipe whose read end is closed is not bad input."""
    state = _write(tmp_path, "ghz3.json", {"kind": "ghz", "n": 3, "theta": 0.7853981634})
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _qew("witness", state, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert done.returncode == 3
    assert done.stderr.startswith("error: cannot write the report to stdout: ")
    assert done.stderr.count("\n") == 1  # no "Exception ignored" at shutdown


def test_unwritable_output_path_exits_2_naming_it(tmp_path):
    state = _write(tmp_path, "ghz3.json", {"kind": "ghz", "n": 3, "theta": 0.7853981634})
    strategy = _write(tmp_path, "honest.json", {"kind": "honest", "state": {"kind": "epr", "theta": 0.7}})
    for argv in (["witness", state, "--out", str(tmp_path)],
                 ["zkp", strategy, "--seed", "1", "--n", "200", "--transcript", str(tmp_path)]):
        done = _qew(*argv, capture_output=True)
        assert (done.returncode, done.stdout) == (2, ""), argv
        assert done.stderr.startswith(f"error: cannot write {tmp_path}: "), done.stderr
        assert done.stderr.count("\n") == 1


# ---------------------------------------------------------------------------
# malformed input files
# ---------------------------------------------------------------------------

_CHANNEL = {
    "terms": [
        {"p": 0.5, "site_phases": [[0.0, 0.0], [0.0, 0.0]]},
        {"p": 0.5, "site_phases": [[0.0, 3.0], [0.0, 0.0]]},
    ]
}
# One valid file of each kind, with the subcommand that reads it
# ("channel" is read by `qew witness --channel`).
_VALID_INPUTS = (
    ("witness", {"kind": "epr", "theta": 0.7}),
    ("witness", {"kind": "ghz", "n": 3, "theta": 0.7}),
    ("witness", {"kind": "w", "a": [0.5, 0.5, 0.5, 0.5]}),
    ("witness", {"kind": "qudit_ghz", "n": 2, "d": 3, "alpha": [0.6, 0.64, 0.48]}),
    ("channel", _CHANNEL),
    ("network", {
        "parties": ["A", "B", "C"],
        "sources": [
            {"state": {"kind": "epr", "theta": 0.7}, "owners": ["A", "B"]},
            {"state": {"kind": "ghz", "n": 3, "theta": 0.7}, "owners": ["B", "C", "C"]},
        ],
        "cp_gates": [{"party": "B", "theta": 1.0, "qubits": [2, 3]}],
    }),
    ("zkp", {"kind": "honest", "state": {"kind": "epr", "theta": 0.7}, "channel": _CHANNEL,
             "noise": 0.9}),
    ("zkp", {"kind": "separable_diag", "p0": 0.4}),
    ("zkp", {"kind": "fixed_outcomes", "outcomes": [1, -1],
             "verifier_qubit": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], 0.5]]}),
)
# Keys that may be left out, or set to null where that means "left out".
_OPTIONAL_KEYS = {"cp_gates", "channel", "noise", "p0", "verifier_qubit"}


def _fields(node, at=()):
    """(path, value) of every entry below a JSON document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield at + (key,), value
        yield from _fields(value, at + (key,))


@st.composite
def _malformed_inputs(draw):
    """A valid input with one entry broken: a wrong type, a non-finite number,
    a huge integer in place of an integer, or a required key deleted."""
    command, doc = draw(st.sampled_from(_VALID_INPUTS))
    doc = copy.deepcopy(doc)
    path, value = draw(st.sampled_from(list(_fields(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    wrong = [
        st.booleans(),
        st.integers() if isinstance(value, str) else st.text(max_size=4),
        st.just([]) if isinstance(value, dict) else st.just({}),
    ]
    if key not in _OPTIONAL_KEYS:
        wrong.append(st.none())
    if isinstance(value, (int, float)):
        wrong.append(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
    if isinstance(value, int):
        wrong.append(st.integers(2**63, 10**40) | st.integers(-(10**40), -(2**63)))
    if isinstance(key, str) and key not in _OPTIONAL_KEYS and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(st.one_of(wrong))
    return command, doc


@settings(max_examples=200, deadline=None)
@given(_malformed_inputs())
def test_malformed_input_files_exit_2_with_one_error_line(case):
    command, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        if command == "channel":
            argv = ["witness", _write(Path(tmp), "epr.json", {"kind": "epr", "theta": 0.7}),
                    "--channel", path]
        elif command == "zkp":
            argv = ["zkp", path, "--n", "400", "--seed", "1",
                    "--transcript", os.path.join(tmp, "t.txt")]
        else:
            argv = [command, path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_valid_inputs_behind_the_malformed_ones_run(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QEW_OUT_DIR", str(tmp_path))
    epr = _epr_file(tmp_path)
    for command, doc in _VALID_INPUTS:
        path = _write(tmp_path, "input.json", doc)
        argv = {"channel": ["witness", epr, "--channel", path],
                "zkp": ["zkp", path, "--n", "400", "--seed", "1"]}.get(command, [command, path])
        code, out, err = _run(capsys, *argv)
        assert code == 0 and err == "", (command, doc, err)


# Every required key of every valid input, at every depth
_REQUIRED = [
    (command, doc, path)
    for command, doc in _VALID_INPUTS
    for path, _value in _fields(doc)
    if isinstance(path[-1], str) and path[-1] not in _OPTIONAL_KEYS
]


@pytest.mark.parametrize(
    "command, doc, path",
    _REQUIRED,
    ids=[f"{c}-{d['kind'] if 'kind' in d else 'spec'}-{'.'.join(map(str, p))}" for c, d, p in _REQUIRED],
)
def test_missing_entry_exits_2_naming_it(tmp_path, capsys, monkeypatch, command, doc, path):
    monkeypatch.setenv("QEW_OUT_DIR", str(tmp_path))
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    del parent[path[-1]]
    file = _write(tmp_path, "input.json", doc)
    argv = {"channel": ["witness", _epr_file(tmp_path), "--channel", file],
            "zkp": ["zkp", file, "--seed", "1"]}.get(command, [command, file])
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert re.fullmatch(rf"error: [a-z ]+ needs a '{path[-1]}' entry\n", err), err
