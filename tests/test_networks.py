"""Network assembly, LOCC reductions, and per-source verification."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qew import networks
from qew.networks import (
    CpGate,
    NetworkSpec,
    ReductionResult,
    SourceSpec,
    connectivity_check,
    generate_cluster,
    network_to_dict,
    parse_network_spec,
    qubit_owners,
    reduce_ghz_to_epr,
    source_batteries,
    source_reports,
    swap_branches,
)
from qew.qmat import pure_density
from qew.states import (
    BlindChannel,
    ChannelTerm,
    StateSpec,
    apply_blind_channel,
    epr_state,
    ghz_state,
    subspace_elements,
    w_state,
    werner_mix,
)
from qew.witnesses import EPS_EQ, EPS_NZ, LEAKAGE_TOL, evaluate_battery


def _epr_spec(theta=np.pi / 4):
    return StateSpec(kind="epr", theta=theta)


def _ghz_spec(n, theta=np.pi / 4):
    return StateSpec(kind="ghz", theta=theta, n=n)


def _two_pair_network():
    return NetworkSpec(
        parties=("A", "B", "C"),
        sources=(
            SourceSpec(_epr_spec(), ("A", "B")),
            SourceSpec(_epr_spec(), ("B", "C")),
        ),
    )


# ---------------------------------------------------------------------------
# network description and parsing
# ---------------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError, match="duplicate"):
        NetworkSpec(("A", "A"), (SourceSpec(_epr_spec(), ("A", "A")),))
    with pytest.raises(ValueError, match="at least one source"):
        NetworkSpec(("A",), ())
    with pytest.raises(ValueError, match="undeclared"):
        NetworkSpec(("A",), (SourceSpec(_epr_spec(), ("A", "Z")),))
    with pytest.raises(ValueError, match="owners"):
        NetworkSpec(("A",), (SourceSpec(_epr_spec(), ("A",)),))


def test_gate_validation():
    src = SourceSpec(_ghz_spec(3), ("A", "A", "B"))
    with pytest.raises(ValueError, match="distinct"):
        NetworkSpec(("A", "B"), (src,), (CpGate("A", 0.5, (1, 1)),))
    with pytest.raises(ValueError, match="out of range"):
        NetworkSpec(("A", "B"), (src,), (CpGate("A", 0.5, (1, 4)),))
    with pytest.raises(ValueError, match="owned by"):
        NetworkSpec(("A", "B"), (src,), (CpGate("A", 0.5, (1, 3)),))
    with pytest.raises(ValueError, match="finite"):
        NetworkSpec(("A", "B"), (src,), (CpGate("A", np.nan, (1, 2)),))
    qudit = SourceSpec(StateSpec(kind="qudit_ghz", n=2, d=3), ("A", "A"))
    with pytest.raises(ValueError, match="not a qubit"):
        NetworkSpec(("A",), (qudit,), (CpGate("A", 0.5, (1, 2)),))


def test_qubit_owners_order():
    spec = NetworkSpec(
        parties=("A", "B", "C"),
        sources=(
            SourceSpec(_ghz_spec(3), ("A", "B", "C")),
            SourceSpec(StateSpec(kind="qudit_ghz", n=2, d=3), ("C", "A")),
        ),
    )
    assert qubit_owners(spec) == [
        ("A", 2),
        ("B", 2),
        ("C", 2),
        ("C", 3),
        ("A", 3),
    ]


def test_parse_and_round_trip():
    data = {
        "parties": ["A", "B"],
        "sources": [
            {"state": {"kind": "epr", "theta": 0.5}, "owners": ["A", "B"]},
            {"state": {"kind": "ghz", "n": 3, "theta": 0.7}, "owners": ["A", "A", "B"]},
        ],
        "cp_gates": [{"party": "A", "theta": 1.1, "qubits": [3, 4]}],
    }
    spec = parse_network_spec(data)
    assert spec.parties == ("A", "B")
    assert spec.sources[1].owners == ("A", "A", "B")
    assert spec.cp_gates[0].qubits == (3, 4)
    assert network_to_dict(spec) == data


@st.composite
def _network_dicts(draw):
    parties = [f"P{j}" for j in range(draw(st.integers(1, 3)))]
    angle = st.floats(-4.0, 4.0)

    def unit(size):
        raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=size, max_size=size)))
        return [float(x) for x in np.sqrt(raw / raw.sum())]

    sources, owners = [], []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("epr", "ghz", "w", "qudit_ghz")))
        if kind == "epr":
            state, dims = {"kind": "epr", "theta": draw(angle)}, [2, 2]
        elif kind == "ghz":
            n = draw(st.integers(2, 3))
            state, dims = {"kind": "ghz", "n": n, "theta": draw(angle)}, [2] * n
        elif kind == "w":
            state, dims = {"kind": "w", "a": unit(4)}, [2, 2, 2]
        else:
            d = draw(st.integers(2, 3))
            state, dims = {"kind": "qudit_ghz", "n": 2, "d": d, "alpha": unit(d)}, [d, d]
        held = [draw(st.sampled_from(parties)) for _ in dims]
        sources.append({"state": state, "owners": held})
        owners += zip(held, dims)
    gates = []
    for party in parties:
        qubits = [q for q, (o, d) in enumerate(owners, start=1) if o == party and d == 2]
        if len(qubits) >= 2 and draw(st.booleans()):
            pair = draw(st.lists(st.sampled_from(qubits), min_size=2, max_size=2, unique=True))
            gates.append({"party": party, "theta": draw(angle), "qubits": pair})
    return {"parties": parties, "sources": sources, "cp_gates": gates}


@given(_network_dicts())
def test_network_dict_roundtrip(data):
    spec = parse_network_spec(json.loads(json.dumps(data)))
    assert network_to_dict(spec) == data
    assert parse_network_spec(network_to_dict(spec)) == spec


def test_parse_missing_key():
    with pytest.raises(ValueError, match="network spec needs a 'parties' entry"):
        parse_network_spec({"sources": []})


@pytest.mark.parametrize("data", [[], "abc", None, 3])
def test_parse_network_spec_refuses_a_non_object(data):
    with pytest.raises(ValueError, match="'network' must be an object"):
        parse_network_spec(data)


# ---------------------------------------------------------------------------
# state assembly and gates
# ---------------------------------------------------------------------------


def test_build_network_state_is_kron_of_sources():
    spec = _two_pair_network()
    rho = generate_cluster(NetworkSpec(spec.parties, spec.sources))
    want = np.kron(epr_state(np.pi / 4).mat, epr_state(np.pi / 4).mat)
    assert rho.sites == (2, 2, 2, 2)
    assert np.allclose(rho.mat, want)


def test_qubit_budget():
    with pytest.raises(ValueError, match="budget"):
        NetworkSpec(("A",), (SourceSpec(_ghz_spec(13), ("A",) * 13),))


@pytest.mark.parametrize("qubits", [63, 64])
def test_qubit_budget_past_64_bits(qubits, monkeypatch):
    # an int64 product of the dimensions wraps to -2^63 at 63 qubits and to 0 at 64
    def no_kron(*mats):
        raise AssertionError("the budget check let the spec through")

    monkeypatch.setattr(networks, "tensor_product", no_kron)
    sources = [SourceSpec(_epr_spec(), ("A", "A"))] * (qubits // 2)
    if qubits % 2:
        sources[0] = SourceSpec(_ghz_spec(3), ("A",) * 3)
    with pytest.raises(ValueError, match="budget"):
        generate_cluster(NetworkSpec(("A",), tuple(sources)))


def test_generate_cluster_matches_explicit_unitary():
    spec = NetworkSpec(
        parties=("A", "B"),
        sources=(
            SourceSpec(_epr_spec(0.6), ("A", "B")),
            SourceSpec(_epr_spec(0.9), ("B", "A")),
        ),
        cp_gates=(CpGate("B", 1.3, (2, 3)),),
    )
    rho = generate_cluster(NetworkSpec(spec.parties, spec.sources))
    cp = np.diag([1.0, 1.0, 1.0, np.exp(1.3j)])
    u = np.kron(np.kron(np.eye(2), cp), np.eye(2))
    want = u @ rho.mat @ u.conj().T
    assert np.allclose(generate_cluster(spec).mat, want, atol=1e-12)


def test_generate_cluster_nonadjacent_gate():
    spec = NetworkSpec(
        parties=("A",),
        sources=(SourceSpec(_ghz_spec(3, 0.5), ("A", "A", "A")),),
        cp_gates=(CpGate("A", 0.8, (1, 3)),),
    )
    rho = generate_cluster(NetworkSpec(spec.parties, spec.sources))
    diag = np.ones(8, dtype=complex)
    for idx in range(8):
        if (idx >> 2) & 1 and idx & 1:
            diag[idx] = np.exp(0.8j)
    want = np.outer(diag, diag.conj()) * rho.mat
    assert np.allclose(generate_cluster(spec).mat, want, atol=1e-12)


def test_generate_cluster_applies_channel_last():
    spec = _two_pair_network()
    ch = BlindChannel(
        (
            ChannelTerm(0.5, (((0.0, 0.0),) * 4)),
            ChannelTerm(0.5, ((0.0, np.pi), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0))),
        )
    )
    gated = NetworkSpec(spec.parties, spec.sources, (CpGate("B", 1.3, (2, 3)),))
    for net in (spec, gated):
        want = apply_blind_channel(generate_cluster(net), ch)
        assert np.allclose(generate_cluster(net, ch).mat, want.mat)


# ---------------------------------------------------------------------------
# GHZ -> pair reduction
# ---------------------------------------------------------------------------


def test_reduce_all_branches_preserve_coherence():
    th = 0.7
    rho = ghz_state(4, th)
    branches = reduce_ghz_to_epr(rho, (1, 4))
    assert [br.outcome for br in branches] == ["++", "+-", "-+", "--"]
    coh = np.cos(th) * np.sin(th)
    for br in branches:
        assert br.pair == (1, 4)
        assert br.probability == pytest.approx(0.25)
        assert br.state.mat[0, 3] == pytest.approx(coh, abs=1e-12)
        assert br.state.mat[0, 0] == pytest.approx(np.cos(th) ** 2, abs=1e-12)
    assert sum(br.probability for br in branches) == pytest.approx(1.0)


def _reduce_branch(rho, keep, outcome):
    """The one branch of :func:`reduce_ghz_to_epr` with the given +/- label."""
    (branch,) = [br for br in reduce_ghz_to_epr(rho, keep) if br.outcome == outcome]
    return branch


def test_reduce_single_branch_corrections():
    rho = ghz_state(3, np.pi / 4)
    plus, minus = reduce_ghz_to_epr(rho, (1, 3))
    assert minus.outcome == "-"
    assert minus.corrections == (("Z", 1),)
    assert plus.outcome == "+"
    assert plus.corrections == ()
    assert np.allclose(minus.state.mat, plus.state.mat, atol=1e-12)


def test_reduce_keep_order_normalized():
    rho = ghz_state(3, 0.5)
    assert [br.pair for br in reduce_ghz_to_epr(rho, (3, 1))] == [(1, 3), (1, 3)]


def test_reduce_validation():
    rho = ghz_state(3, 0.5)
    with pytest.raises(ValueError, match="distinct"):
        reduce_ghz_to_epr(rho, (2, 2))
    with pytest.raises(ValueError, match="out of range"):
        reduce_ghz_to_epr(rho, (1, 5))
    with pytest.raises(ValueError, match="nothing to measure"):
        reduce_ghz_to_epr(epr_state(0.5), (1, 2))
    with pytest.raises(ValueError, match="'keep' must be an integer"):
        reduce_ghz_to_epr(rho, (1.5, 2))
    assert _reduce_branch(rho, (1.0, 3), "+").pair == (1, 3)
    with pytest.raises(ValueError, match="'keep' must list two qubits"):
        reduce_ghz_to_epr(rho, (1, 2, 3))
    with pytest.raises(ValueError, match="'keep' must list two qubits"):
        reduce_ghz_to_epr(rho, (1,))
    with pytest.raises(ValueError, match="'keep' must be a list"):
        reduce_ghz_to_epr(rho, 5)
    with pytest.raises(ValueError, match="edge subspace"):
        reduce_ghz_to_epr(w_state([1 / np.sqrt(3)] * 3 + [0.0]), (1, 2))


def test_reduce_leakage_tolerance_kwarg():
    # white noise puts 3/4 of its weight outside the GHZ edge subspace
    rho = werner_mix(ghz_state(3, 0.8), 1.0 - 1e-9)
    assert all(isinstance(br, ReductionResult) for br in reduce_ghz_to_epr(rho, (1, 2)))
    leaky = werner_mix(ghz_state(3, 0.8), 1.0 - 1e-7)
    assert subspace_elements(leaky, "ghz").leakage > LEAKAGE_TOL
    with pytest.raises(ValueError, match="leakage"):
        reduce_ghz_to_epr(leaky, (1, 2))


# ---------------------------------------------------------------------------
# entanglement swap
# ---------------------------------------------------------------------------


def test_bases_are_orthonormal():
    bell = np.array([vec for _label, vec, _corrections in networks._BELL_ROWS])
    for b in (networks._PLUSMINUS, bell):
        assert np.allclose(b @ b.conj().T, np.eye(b.shape[0]))
    assert [label for label, _vec, _corrections in networks._BELL_ROWS] == [
        "phi+",
        "phi-",
        "psi+",
        "psi-",
    ]


def _swap_branch(rho_ab, rho_cd, outcome):
    """The one branch of :func:`swap_branches` with the given Bell label."""
    (branch,) = [br for br in swap_branches(rho_ab, rho_cd) if br.outcome == outcome]
    return branch


def test_swap_symmetric_pairs_reproduce_input():
    rho = epr_state(np.pi / 4)
    branches = swap_branches(rho, rho)
    assert {br.outcome for br in branches} == {"phi+", "phi-", "psi+", "psi-"}
    for br in branches:
        assert br.probability == pytest.approx(0.25)
        assert np.allclose(br.state.mat, rho.mat, atol=1e-12)


def test_swap_branch_algebra():
    t1, t2 = 0.3, 0.8
    a, b = np.cos(t1), np.sin(t1)
    c, d = np.cos(t2), np.sin(t2)
    br = _swap_branch(epr_state(t1), epr_state(t2), "phi+")
    norm = a * a * c * c + b * b * d * d
    assert br.probability == pytest.approx(norm / 2.0)
    assert br.state.mat[0, 3] == pytest.approx(a * b * c * d / norm)
    assert br.state.mat[0, 0] == pytest.approx(a * a * c * c / norm)


def test_swap_corrections_table():
    rho = epr_state(np.pi / 4)
    by_outcome = {br.outcome: br for br in swap_branches(rho, rho)}
    assert by_outcome["phi+"].corrections == ()
    assert by_outcome["phi-"].corrections == (("Z", 1),)
    assert by_outcome["psi+"].corrections == (("X", 2),)
    assert by_outcome["psi-"].corrections == (("X", 2), ("Z", 1))
    assert all(br.pair == (1, 4) for br in by_outcome.values())


def test_swap_psi_branch_conjugates_second_coherence():
    alpha = 0.7
    ch = BlindChannel((ChannelTerm(1.0, ((0.0, alpha), (0.0, 0.0))),))
    rho_ab = epr_state(np.pi / 4)
    rho_cd = apply_blind_channel(rho_ab, ch)
    assert rho_cd.mat[0, 3] == pytest.approx(0.5 * np.exp(-1j * alpha))
    phi = _swap_branch(rho_ab, rho_cd, "phi+")
    psi = _swap_branch(rho_ab, rho_cd, "psi+")
    assert phi.state.mat[0, 3] == pytest.approx(0.5 * np.exp(-1j * alpha))
    assert psi.state.mat[0, 3] == pytest.approx(0.5 * np.exp(1j * alpha))


def test_swap_zero_branches_dropped():
    rho = epr_state(0.0)  # |00><00|
    branches = swap_branches(rho, rho)
    assert {br.outcome for br in branches} == {"phi+", "phi-"}


def test_swap_validation():
    rho = epr_state(0.4)
    with pytest.raises(ValueError, match="two-qubit"):
        swap_branches(ghz_state(3, 0.4), rho)
    leaky = pure_density(np.array([0, 1, 1, 0]) / np.sqrt(2), (2, 2))
    with pytest.raises(ValueError, match="edge subspace"):
        swap_branches(rho, leaky)


def _channel_image(rho, phase, weight):
    """``rho`` through a two-term blind channel that dephases its second qubit."""
    ch = BlindChannel(
        (
            ChannelTerm(weight, ((0.0, 0.0),) * rho.n_sites),
            ChannelTerm(
                1.0 - weight,
                ((0.0, 0.0), (0.0, phase)) + ((0.0, 0.0),) * (rho.n_sites - 2),
            ),
        )
    )
    return apply_blind_channel(rho, ch)


def _reduction_cases():
    for n in (3, 4, 5):
        for th in (0.3, np.pi / 4, 1.2):
            rho = _channel_image(ghz_state(n, th), 0.9, 0.7)
            yield from reduce_ghz_to_epr(rho, (1, n))
            yield _reduce_branch(rho, (n, 2), "-" * (n - 2))
    pairs = [epr_state(0.0), epr_state(0.5), _channel_image(epr_state(0.9), 1.1, 0.6)]
    for a in pairs:
        for b in pairs:
            yield from swap_branches(a, b)


def test_reductions_are_pinned():
    """Every field and the state bytes of fixed GHZ reductions and swaps,
    hashed, so any change to the projection or the corrections shows here."""
    h = hashlib.sha256()
    for r in _reduction_cases():
        fields = (r.pair, r.corrections, r.probability.hex(), r.outcome, r.state.sites)
        h.update(repr(fields + ([],)).encode())  # the constant [] keeps the pinned byte layout
        h.update(r.state.mat.tobytes())
    assert h.hexdigest() == "bf0df86e184847881fed269cdf9750a0e185c1e21bc5216e6dfd1a5e53fb8876"


def test_reduction_result_probability_range():
    state = epr_state(0.5)
    with pytest.raises(ValueError, match="probability"):
        ReductionResult((1, 2), state, (), 0.0, "+")
    ReductionResult((1, 2), state, (), 1.0, "+")


# ---------------------------------------------------------------------------
# per-source batteries and connectivity
# ---------------------------------------------------------------------------


def test_source_batteries_offsets():
    spec = NetworkSpec(
        parties=("A", "B", "C"),
        sources=(
            SourceSpec(_epr_spec(), ("A", "B")),
            SourceSpec(_ghz_spec(3), ("A", "B", "C")),
        ),
    )
    first, second = source_batteries(spec)
    assert first.items[0].observable.label() == "Z@1 Z@2"
    assert second.items[0].observable.label() == "Z@3 Z@5"
    assert second.items[-1].observable.label() == "X@3 X@4 X@5"
    assert second.items[-1].companion.label() == "X@3 X@4 Y@5"


def test_source_batteries_detect_one_dephased_source():
    spec = _two_pair_network()
    rho = generate_cluster(spec)
    batteries = source_batteries(spec)
    assert all(evaluate_battery(rho, b).passed for b in batteries)
    # fully dephase the second source's first qubit (global qubit 3)
    ch = BlindChannel(
        (
            ChannelTerm(0.5, ((0.0, 0.0),) * 4),
            ChannelTerm(0.5, ((0.0, 0.0), (0.0, 0.0), (0.0, np.pi), (0.0, 0.0))),
        )
    )
    broken = generate_cluster(spec, ch)
    reports = [evaluate_battery(broken, b) for b in batteries]
    assert reports[0].passed
    assert not reports[1].passed
    assert [r.label for r in reports[1].items if not r.passed] == ["X@3 X@4"]


def _verdicts(spec):
    return [r.passed for r in source_reports(spec, None, eps_eq=EPS_EQ, eps_nz=EPS_NZ)]


def test_source_reports_read_each_source_through_cp_gates():
    # Read on the gated network state, these healthy sources failed: a CZ at
    # pi turns X@1 into X@1 Z@3, so <X@1 X@2> there is <Z@3> <X@1 X@2> = 0.
    pair = SourceSpec(_epr_spec(), ("A", "B"))
    spec = NetworkSpec(("A", "B"), (pair, pair), (CpGate("A", np.pi, (1, 3)),))
    assert _verdicts(spec) == [True, True]
    ghz = SourceSpec(_ghz_spec(4), ("A", "B", "C", "D"))
    gates = (CpGate("A", np.pi, (1, 5)), CpGate("B", np.pi, (6, 10)))
    assert _verdicts(NetworkSpec(("A", "B", "C", "D"), (ghz,) * 3, gates)) == [True, True, True]


def test_source_reports_keep_global_labels_and_find_one_dephased_source():
    spec = _two_pair_network()
    ch = BlindChannel(
        (
            ChannelTerm(0.5, ((0.0, 0.0),) * 4),
            ChannelTerm(0.5, ((0.0, 0.0), (0.0, 0.0), (0.0, np.pi), (0.0, 0.0))),
        )
    )
    first, second = source_reports(spec, ch, eps_eq=EPS_EQ, eps_nz=EPS_NZ)
    assert [r.label for r in second.items] == ["Z@3 Z@4", "Z@3 X@4", "X@3 Z@4", "X@3 X@4"]
    assert first.passed and not second.passed
    assert [r.label for r in second.items if not r.passed] == ["X@3 X@4"]


def test_source_report_labels_are_the_source_battery_labels():
    ghz = SourceSpec(_ghz_spec(4), ("A", "B", "C", "D"))
    w = SourceSpec(StateSpec(kind="w", amplitudes=(0.5, 0.5, 0.5, 0.5)), ("B", "C", "D"))
    qudit = SourceSpec(StateSpec(kind="qudit_ghz", n=2, d=3, amplitudes=(0.6, 0.64, 0.48)), ("A", "D"))
    pair = SourceSpec(_epr_spec(), ("A", "B"))
    parties = ("A", "B", "C", "D")
    for sources, last in (((pair, qudit, w, pair), "Z@8 Z@9"), ((ghz, w, pair), "Z@8 Z@9")):
        spec = NetworkSpec(parties, sources)
        reports = source_reports(spec, None, eps_eq=EPS_EQ, eps_nz=EPS_NZ)
        for rep, battery in zip(reports, source_batteries(spec), strict=True):
            assert [r.label for r in rep.items] == [i.observable.label() for i in battery.items]
        # the pair at its own offset reads its own global labels
        assert reports[-1].items[0].label == last


def test_source_reports_refuse_before_building(monkeypatch):
    def no_build(spec):
        raise AssertionError("a source was built before the refusal")

    monkeypatch.setattr(networks, "build_state", no_build)
    spec = _two_pair_network()
    short = BlindChannel((ChannelTerm(1.0, ((0.0, 0.0),) * 3),))
    with pytest.raises(ValueError, match=r"^channel sites \(2, 2, 2\) do not match state sites \(2, 2, 2, 2\)$"):
        source_reports(spec, short, eps_eq=EPS_EQ, eps_nz=EPS_NZ)
    huge = NetworkSpec(("A",), (SourceSpec(_epr_spec(), ("A", "A")),) * 7)
    with pytest.raises(ValueError, match=r"^qubit budget exceeded: total dimension 16384 > 4096$"):
        source_reports(huge, short, eps_eq=EPS_EQ, eps_nz=EPS_NZ)


def test_connectivity_chain_and_split():
    assert connectivity_check(_two_pair_network()) == (True, [["A", "B", "C"]])
    split = NetworkSpec(
        parties=("A", "B", "C", "D"),
        sources=(
            SourceSpec(_epr_spec(), ("A", "B")),
            SourceSpec(_epr_spec(), ("C", "D")),
        ),
    )
    ok, comps = connectivity_check(split)
    assert not ok
    assert comps == [["A", "B"], ["C", "D"]]
    # a later source joins two groups; owners listed out of declaration order
    merged = NetworkSpec(
        parties=("A", "B", "C", "D", "E"),
        sources=(
            SourceSpec(_epr_spec(), ("C", "A")),
            SourceSpec(_epr_spec(), ("D", "B")),
            SourceSpec(_epr_spec(), ("D", "C")),
        ),
    )
    assert connectivity_check(merged) == (False, [["A", "B", "C", "D"], ["E"]])


def test_connectivity_multipartite_source_and_isolated_party():
    spec = NetworkSpec(
        parties=("A", "B", "C", "D"),
        sources=(SourceSpec(_ghz_spec(3), ("A", "B", "C")),),
    )
    ok, comps = connectivity_check(spec)
    assert not ok
    assert comps == [["A", "B", "C"], ["D"]]
