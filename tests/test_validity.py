"""Results that are density matrices by construction.

Pure states, white-noise mixtures, unitary conjugations, blind channels,
network states and the oracle's sample stacks skip the ``eigvalsh`` PSD
check, because a theorem keeps each of them PSD (see ``qew.qmat``).  These
tests re-run the full ``as_density`` check on what those paths build, with
inputs drawn at the family boundaries, and show that running the full check
on every one of them changes no output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from qew import cli, networks, oracle, qmat, states, witnesses, zkp
from qew.networks import CpGate, NetworkSpec, SourceSpec, generate_cluster, swap_branches
from qew.oracle import SamplerConfig, all_bipartitions
from qew.qmat import as_density, obs, pure_density
from qew.states import (
    BlindChannel,
    ChannelTerm,
    StateSpec,
    apply_blind_channel,
    build_state,
    epr_state,
    werner_mix,
)


@contextlib.contextmanager
def _full_checks():
    """Route every construction that skips the PSD check through the one
    that runs it: ``_derived`` becomes ``as_density`` in every module, and
    the oracle checks its sample stacks with ``_density_fault``."""
    swaps = ((qmat._derived, qmat.as_density), (qmat._form_fault, qmat._density_fault))
    undo = []
    for module in (qmat, states, witnesses, oracle, networks, zkp, cli):
        for attr, value in list(vars(module).items()):
            for old, new in swaps:
                # qmat's own _form_fault stays: _density_fault is built on it
                if value is old and not (module is qmat and old is qmat._form_fault):
                    undo.append((module, attr, value))
                    setattr(module, attr, new)
    try:
        yield
    finally:
        for module, attr, value in undo:
            setattr(module, attr, value)


def _revalidated(rho):
    """``rho`` passes every check of ``as_density``, ``eigvalsh`` included."""
    return as_density(rho.mat, rho.sites)


# ---------------------------------------------------------------------------
# inputs at the family boundaries
# ---------------------------------------------------------------------------

# theta -> 0 and theta -> pi/2 give product states
_angles = st.one_of(
    st.floats(-1e-9, 1e-9),
    st.floats(np.pi / 2 - 1e-9, np.pi / 2 + 1e-9),
    st.floats(-10.0, 10.0),
)
_phases = st.floats(-10.0, 10.0)


@st.composite
def _unit_amplitudes(draw, k):
    """k real amplitudes of unit norm, often with all but one zero or tiny."""
    raw = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-1.0, 1.0)), min_size=k, max_size=k,
    )))
    norm = np.linalg.norm(raw)
    if norm < 1e-3:
        raw, norm = np.eye(k)[draw(st.integers(0, k - 1))], 1.0
    return tuple((raw / norm).tolist())


@st.composite
def _state_specs(draw):
    kind = draw(st.sampled_from(["epr", "ghz", "w", "qudit_ghz"]))
    if kind == "epr":
        return StateSpec(kind, theta=draw(_angles))
    if kind == "ghz":
        return StateSpec(kind, theta=draw(_angles), n=draw(st.integers(2, 3)))
    if kind == "w":
        return StateSpec(kind, amplitudes=draw(_unit_amplitudes(4)))
    return StateSpec(kind, n=2, d=3, amplitudes=draw(_unit_amplitudes(3)))


@st.composite
def _channels(draw, sites):
    """A blind channel on ``sites``: 1..5 terms, some weights exactly 0."""
    raw = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=5))
    if not sum(raw):
        raw[0] = 1.0
    probs = np.asarray(raw) / sum(raw)
    return BlindChannel(tuple(
        ChannelTerm(float(p), tuple(tuple(draw(_phases) for _ in range(d)) for d in sites))
        for p in probs
    ))


@st.composite
def _networks(draw):
    """One party holding 1..3 sources (D <= 128), arbitrary CP gate angles
    on its qubits, and a random blind channel or none."""
    sources, dim = [], 1
    for spec in draw(st.lists(_state_specs(), min_size=1, max_size=3)):
        if dim * math.prod(spec.site_dims()) <= 128:
            sources.append(SourceSpec(spec, ("A",) * len(spec.site_dims())))
            dim *= math.prod(spec.site_dims())
    sites = [d for src in sources for d in src.state.site_dims()]
    qubits = [q for q, d in enumerate(sites, start=1) if d == 2]
    gates = []
    if len(qubits) >= 2:
        for _ in range(draw(st.integers(0, 3))):
            pair = draw(st.lists(st.sampled_from(qubits), min_size=2, max_size=2, unique=True))
            angle = draw(st.one_of(st.sampled_from([0.0, np.pi, -np.pi, 2 * np.pi]), st.floats(-20.0, 20.0)))
            gates.append(CpGate("A", angle, tuple(pair)))
    spec = NetworkSpec(("A",), tuple(sources), tuple(gates))
    return spec, draw(st.none() | _channels(sites))


# ---------------------------------------------------------------------------
# every theorem-backed path passes the full check
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(_networks())
def test_network_states_pass_the_full_check(case):
    spec, ch = case
    _revalidated(generate_cluster(spec, ch))


@settings(max_examples=40, deadline=None)
@given(_networks())
def test_per_source_reads_equal_the_gated_network_state(case):
    # <P> on ch|_s(rho_s) is <G P G^dag> on the network state rho, which is
    # <P> on G^dag rho G for the diagonal gate layer G
    spec, ch = case
    rho = generate_cluster(spec, ch)
    g = networks._gates_diagonal(spec, rho.sites)
    ungated = qmat._derived(g.conj()[:, None] * rho.mat * g, rho.sites)
    tolerances = {"eps_eq": witnesses.EPS_EQ, "eps_nz": witnesses.EPS_NZ}
    reports = networks.source_reports(spec, ch, **tolerances)
    for rep, battery in zip(reports, networks.source_batteries(spec), strict=True):
        want = witnesses.evaluate_battery(ungated, battery, **tolerances)
        assert rep.passed == want.passed
        for got, ref in zip(rep.items, want.items, strict=True):
            assert (got.label, got.passed) == (ref.label, ref.passed)
            assert abs(got.value - ref.value) <= 1e-12
            if ref.companion_value is not None:
                assert abs(got.companion_value - ref.companion_value) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(_state_specs(), st.data(), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
def test_states_channels_and_noise_pass_the_full_check(spec, data, v):
    rho = build_state(spec)  # pure_density
    _revalidated(rho)
    out = apply_blind_channel(rho, data.draw(_channels(rho.sites)))
    _revalidated(out)
    _revalidated(werner_mix(out, v))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(2, 4), min_size=1, max_size=3),
    st.data(),
    st.integers(0, 2**32 - 1),
)
def test_pure_states_and_local_unitaries_pass_the_full_check(sites, data, seed):
    rng = np.random.default_rng(seed)
    dim = int(np.prod(sites))
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vec[rng.random(dim) < 0.5] = 0.0  # low support: most eigenvalues sit at 0
    if not vec.any():
        vec[0] = 1.0
    rho = pure_density(vec / np.linalg.norm(vec), sites)
    _revalidated(rho)
    factors = []
    for site in sorted(data.draw(st.sets(st.integers(1, len(sites)), max_size=3))):
        names = ["shift", "clock"] + (["X", "Y", "Z"] if sites[site - 1] == 2 else [])
        factors.append((site, data.draw(st.sampled_from(names)), data.draw(st.integers(0, 6))))
    _revalidated(qmat._conjugate(rho, obs(*factors)))


@settings(max_examples=30, deadline=None)
@given(_angles, _angles, st.data())
def test_swap_product_passes_the_full_check(a, b, data):
    rho_ab = apply_blind_channel(epr_state(a), data.draw(_channels((2, 2))))
    rho_cd = epr_state(b)
    plain = swap_branches(rho_ab, rho_cd)
    with _full_checks():  # the Kronecker product of the two pairs runs eigvalsh here
        checked = swap_branches(rho_ab, rho_cd)
    assert [br.state.mat.tobytes() for br in plain] == [br.state.mat.tobytes() for br in checked]
    for br in plain:
        _revalidated(br.state)


@st.composite
def _sampler_cases(draw):
    """A sampler shape, its sites (D <= 64) and config, and a block of indices."""
    sites = tuple(draw(st.lists(st.integers(2, 4), min_size=1, max_size=4)))
    while math.prod(sites) > 64:
        sites = sites[:-1]
    shape = "separable" if len(sites) < 2 else draw(st.sampled_from(["separable", "biseparable"]))
    partition = None
    if len(sites) >= 2:
        partition = draw(st.none() | st.sampled_from(all_bipartitions(len(sites))))
    cfg = SamplerConfig(
        sites=sites,
        terms=draw(st.integers(1, oracle.MAX_TERMS)),
        seed=draw(st.integers(0, 2**64 - 1)),
        partition=partition,
    )
    start = draw(st.integers(0, 2**64 - 9))
    return shape, cfg, np.arange(start, start + draw(st.integers(1, 8)), dtype=np.uint64)


@settings(max_examples=60, deadline=None)
@given(_sampler_cases())
def test_oracle_blocks_pass_the_full_check(case):
    shape, cfg, indices = case
    stack = oracle._sample_block(shape, cfg, indices)
    assert qmat._density_fault(stack) is None


# ---------------------------------------------------------------------------
# the full check changes no output
# ---------------------------------------------------------------------------


def _cli_text(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) in (0, 1)
    report = json.loads(buf.getvalue())
    report.pop("runtime_s", None)  # the oracle's wall time
    return json.dumps(report)


def _outputs(tmp_path):
    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)

    zero, flip = [[0.0, 0.0]] * 9, [[0.0, 0.0]] * 4 + [[0.0, np.pi]] + [[0.0, 0.0]] * 4
    net = write("net.json", {
        "parties": ["A", "B", "C"],
        "sources": [
            {"state": {"kind": "epr", "theta": 0.6}, "owners": ["A", "B"]},
            {"state": {"kind": "ghz", "n": 4, "theta": 0.7}, "owners": ["A", "B", "C", "A"]},
            {"state": {"kind": "w", "a": [0.4, 0.5, 0.6, 0.4795831523312719]}, "owners": ["A", "B", "C"]},
        ],
        "cp_gates": [{"party": "A", "theta": 1.2, "qubits": [1, 6]},
                     {"party": "B", "theta": np.pi, "qubits": [2, 8]}],
    })
    net_ch = write("net_ch.json", {"terms": [{"p": 0.3, "site_phases": zero},
                                             {"p": 0.7, "site_phases": flip}]})
    ghz = write("ghz.json", {"kind": "ghz", "n": 3, "theta": 0.7})
    ghz_ch = write("ghz_ch.json", {"terms": [
        {"p": 0.6, "site_phases": [[0.0, 0.3], [0.1, 0.0], [0.0, 0.0]]},
        {"p": 0.4, "site_phases": [[0.0, 2.0], [0.0, 0.5], [1.0, 0.0]]},
    ]})
    texts = [
        _cli_text(["network", net, "--channel", net_ch]),
        _cli_text(["witness", ghz, "--channel", ghz_ch, "--noise", "0.8"]),
    ]
    for witness, extra in (("epr", []), ("qudit", ["--d", "3"]), ("ghz", ["--n", "4"])):
        texts.append(_cli_text(["oracle", "--witness", witness, *extra,
                                "--samples", "300", "--seed", "4", "--iters", "2"]))
    pair = apply_blind_channel(epr_state(0.7), oracle.random_blind_channel((2, 2), 3, 5))
    branches = swap_branches(pair, epr_state(0.4))
    return texts, [(br.state.mat.tobytes(), br.probability, br.outcome) for br in branches]


def test_full_checks_change_no_output(tmp_path):
    plain = _outputs(tmp_path)
    with _full_checks():
        assert states._derived is as_density and oracle._form_fault is qmat._density_fault
        checked = _outputs(tmp_path)
    assert checked == plain
