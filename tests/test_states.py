"""State families, blind channels, noise mixing, subspace views."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qew.qmat import basis_index, expectation, obs
from qew.states import (
    BlindChannel,
    ChannelTerm,
    StateSpec,
    apply_blind_channel,
    build_state,
    channel_from_dict,
    epr_state,
    family_basis,
    ghz_state,
    parse_state_spec,
    qudit_ghz_state,
    spec_to_dict,
    subspace_elements,
    uniform_sites,
    w_state,
    werner_mix,
)

W3 = 1.0 / np.sqrt(3.0)


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------


def test_epr_matrix_elements():
    rho = epr_state(np.pi / 4)
    assert rho.mat[0, 0] == pytest.approx(0.5)
    assert rho.mat[3, 3] == pytest.approx(0.5)
    assert rho.mat[0, 3] == pytest.approx(0.5)
    assert not rho.flags


def test_epr_general_angle():
    th = np.pi / 3
    rho = epr_state(th)
    assert rho.mat[0, 3] == pytest.approx(np.cos(th) * np.sin(th))


def test_ghz_boundary_flagged():
    assert "boundary" in ghz_state(3, np.pi / 2).flags
    assert "boundary" in ghz_state(3, 0.0).flags
    assert not ghz_state(3, 0.3).flags
    # theta = pi/2 collapses onto |111>
    assert ghz_state(3, np.pi / 2).mat[7, 7] == pytest.approx(1.0)


def test_w_state_elements_and_validation():
    rho = w_state([W3, W3, W3, 0.0])
    assert rho.mat[1, 2] == pytest.approx(1.0 / 3.0)
    assert rho.mat[1, 7] == pytest.approx(0.0)
    with pytest.raises(ValueError, match="normalized"):
        w_state([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        w_state([1.0, 0.0, 0.0])
    assert "boundary" not in rho.flags  # flagged only with one nonzero amplitude


def test_qudit_ghz_needs_normalized_amplitudes():
    rho = qudit_ghz_state(2, 3, [W3, W3, W3])
    for j in range(3):
        for k in range(3):
            idx_j = basis_index((j, j), (3, 3))
            idx_k = basis_index((k, k), (3, 3))
            assert rho.mat[idx_j, idx_k] == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError):
        qudit_ghz_state(2, 3, [1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        qudit_ghz_state(1, 3, [1.0, 0.0, 0.0])
    # a single nonzero amplitude is a product state: flagged
    assert "boundary" in qudit_ghz_state(2, 3, [1.0, 0.0, 0.0]).flags


def test_build_state_is_pure():
    for spec in (
        StateSpec(kind="epr", theta=0.3),
        StateSpec(kind="ghz", n=4, theta=1.0),
        StateSpec(kind="w", amplitudes=(0.5, 0.5, 0.5, 0.5)),
        StateSpec(kind="qudit_ghz", n=2, d=4, amplitudes=(0.5, 0.5, 0.5, 0.5)),
    ):
        rho = build_state(spec)
        purity = float(np.real(np.trace(rho.mat @ rho.mat)))
        assert purity == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------


def state_spec_dicts() -> st.SearchStrategy[dict]:
    angles = st.floats(0.05, 1.5)
    epr = st.builds(lambda t: {"kind": "epr", "theta": t}, angles)
    ghz = st.builds(lambda n, t: {"kind": "ghz", "n": n, "theta": t},
                    st.integers(2, 5), angles)

    def _w(raw):
        a = np.sqrt(np.asarray(raw) / sum(raw))
        return {"kind": "w", "a": [float(x) for x in a]}

    w = st.builds(_w, st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))

    def _qd(n, raw):
        a = np.sqrt(np.asarray(raw) / sum(raw))
        return {"kind": "qudit_ghz", "n": n, "d": len(raw), "alpha": [float(x) for x in a]}

    qd = st.builds(_qd, st.integers(2, 3), st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4))
    return st.one_of(epr, ghz, w, qd)


@given(state_spec_dicts())
def test_spec_dict_roundtrip(data):
    spec = parse_state_spec(data)
    again = parse_state_spec(spec_to_dict(spec))
    assert again == spec
    build_state(spec)  # must construct without error


def test_parse_state_spec_errors():
    with pytest.raises(ValueError, match="kind"):
        parse_state_spec({"theta": 0.4})
    with pytest.raises(ValueError):
        parse_state_spec({"kind": "bell"})
    with pytest.raises(ValueError, match="kind"):
        parse_state_spec({"kind": ["epr"]})
    # a local dimension below 2 is refused by name, before the budget check
    for d in (-100, 0, 1):
        with pytest.raises(ValueError, match=f"dimension must be at least 2, got d={d}"):
            parse_state_spec({"kind": "qudit_ghz", "n": 2, "d": d, "alpha": [1.0]})
    for n, d in ((2, -5), (3, 0), (0, 1)):
        with pytest.raises(ValueError, match="dimension must be at least 2"):
            uniform_sites(n, d)
    with pytest.raises(ValueError, match="4 amplitudes"):
        parse_state_spec({"kind": "w", "a": [0.6, 0.8, 0.0]})
    # wrong types and non-finite or non-integral numbers name the field
    with pytest.raises(ValueError, match="'n'"):
        parse_state_spec({"kind": "ghz", "n": float("inf"), "theta": 0.7})
    with pytest.raises(ValueError, match="'theta'"):
        parse_state_spec({"kind": "epr", "theta": [1]})
    with pytest.raises(ValueError, match="'theta'"):
        parse_state_spec({"kind": "epr", "theta": float("inf")})


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "ghz", "n": 13, "theta": 0.7},
        {"kind": "ghz", "n": 16, "theta": 0.7},
        {"kind": "ghz", "n": 10**9, "theta": 0.7},
        {"kind": "qudit_ghz", "n": 2, "d": 65, "alpha": [1.0] + [0.0] * 64},
        {"kind": "qudit_ghz", "n": 4, "d": 9, "alpha": [1.0] + [0.0] * 8},
    ],
)
def test_parse_state_spec_dimension_budget(data):
    # rejected from the spec alone: nothing of dimension d**n is built
    with pytest.raises(ValueError, match="budget"):
        parse_state_spec(data)


def test_parse_state_spec_at_the_budget():
    assert parse_state_spec({"kind": "ghz", "n": 12, "theta": 0.7}).site_dims() == (2,) * 12
    spec = parse_state_spec({"kind": "qudit_ghz", "n": 3, "d": 16, "alpha": [1.0] + [0.0] * 15})
    assert spec.site_dims() == (16, 16, 16)


# ---------------------------------------------------------------------------
# blind channels
# ---------------------------------------------------------------------------


def test_channel_validation():
    with pytest.raises(ValueError, match="sum"):
        BlindChannel((ChannelTerm(0.7, ((0.0, 0.0), (0.0, 0.0))),))
    with pytest.raises(ValueError):
        BlindChannel(
            (
                ChannelTerm(0.5, ((0.0, 0.0), (0.0, 0.0))),
                ChannelTerm(0.5, ((0.0, 0.0),)),
            )
        )
    with pytest.raises(ValueError):
        BlindChannel((ChannelTerm(1.0, ((0.0, np.inf), (0.0, 0.0))),))
    for p in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            BlindChannel((ChannelTerm(p, ((0.0, 0.0), (0.0, 0.0))),))
    with pytest.raises(ValueError, match="finite"):
        BlindChannel(
            (
                ChannelTerm(np.nan, ((0.0, 0.0), (0.0, 0.0))),
                ChannelTerm(1.0, ((0.0, np.pi), (0.0, 0.0))),
            )
        )
    # the channel must act on the state's site layout
    for sites in ((2, 2, 2), (3, 3)):
        with pytest.raises(ValueError, match="do not match state sites"):
            apply_blind_channel(epr_state(0.7), _identity_channel(sites))


def _identity_channel(sites):
    """The one-term channel with every phase 0."""
    return BlindChannel((ChannelTerm(1.0, tuple((0.0,) * d for d in sites)),))


def test_identity_channel_is_identity():
    rho = epr_state(0.7)
    out = apply_blind_channel(rho, _identity_channel((2, 2)))
    assert np.allclose(out.mat, rho.mat)


def test_single_phase_term_rotates_coherence():
    alpha = 0.9
    ch = BlindChannel((ChannelTerm(1.0, ((0.0, alpha), (0.0, 0.0))),))
    out = apply_blind_channel(epr_state(np.pi / 4), ch)
    assert out.mat[0, 3] == pytest.approx(0.5 * np.exp(-1j * alpha))


def test_balanced_sign_flip_dephases():
    ch = BlindChannel(
        (
            ChannelTerm(0.5, ((0.0, 0.0), (0.0, 0.0))),
            ChannelTerm(0.5, ((0.0, np.pi), (0.0, 0.0))),
        )
    )
    th = 0.6
    out = apply_blind_channel(epr_state(th), ch)
    want = np.diag([np.cos(th) ** 2, 0.0, 0.0, np.sin(th) ** 2])
    assert np.allclose(out.mat, want, atol=1e-12)


def _assert_unit_diagonal_psd(m):
    assert np.allclose(m, m.conj().T, atol=1e-12)
    assert np.allclose(np.diag(m), 1.0, atol=1e-12)
    assert np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0] >= -1e-12


@st.composite
def _blind_channels(draw):
    raw_p = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4))
    probs = np.asarray(raw_p) / sum(raw_p)
    phase = st.floats(-np.pi, np.pi)
    terms = tuple(
        ChannelTerm(float(p), tuple(tuple(draw(phase) for _ in range(2)) for _ in range(2)))
        for p in probs
    )
    return epr_state(1.1), BlindChannel(terms)


@settings(max_examples=40)
@given(_blind_channels())
def test_blind_channel_preserves_diagonal_and_shrinks_coherence(case):
    rho, ch = case
    out = apply_blind_channel(rho, ch)
    assert np.allclose(np.diag(out.mat), np.diag(rho.mat))
    assert np.all(np.abs(out.mat) <= np.abs(rho.mat) + 1e-12)
    _assert_unit_diagonal_psd(ch.multiplier(rho.sites))


def test_compose_matches_sequential_application():
    a = BlindChannel(
        (
            ChannelTerm(0.3, ((0.0, 0.4), (0.0, 0.0))),
            ChannelTerm(0.7, ((0.0, -0.2), (0.0, 1.0))),
        )
    )
    b = BlindChannel(
        (
            ChannelTerm(0.5, ((0.0, 0.9), (0.0, 0.1))),
            ChannelTerm(0.5, ((0.0, 0.0), (0.0, -0.6))),
        )
    )
    rho = epr_state(0.8)
    seq = apply_blind_channel(apply_blind_channel(rho, a), b)
    # two Schur multipliers compose to their elementwise product
    product = a.multiplier(rho.sites) * b.multiplier(rho.sites)
    assert np.allclose(seq.mat, product * rho.mat)


@st.composite
def _channel_dicts(draw):
    sites = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    raw_p = draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4))
    phase = st.floats(-10.0, 10.0)
    return {
        "terms": [
            {"p": float(p), "site_phases": [[draw(phase) for _ in range(d)] for d in sites]}
            for p in np.asarray(raw_p) / sum(raw_p)
        ]
    }


@given(_channel_dicts())
def test_channel_dict_roundtrip(data):
    ch = channel_from_dict(json.loads(json.dumps(data)))
    back = {
        "terms": [
            {"p": t.p, "site_phases": [list(phases) for phases in t.site_phases]}
            for t in ch.terms
        ]
    }
    assert back == data
    assert ch.site_dims() == tuple(len(p) for p in data["terms"][0]["site_phases"])


def test_channel_from_dict_qudit_sites():
    ch = channel_from_dict(
        {"terms": [{"p": 1.0, "site_phases": [[0.0, 0.1, 0.2], [0.0, 0.0, 0.0]]}]}
    )
    assert ch.site_dims() == (3, 3)


# ---------------------------------------------------------------------------
# white noise
# ---------------------------------------------------------------------------


def test_werner_mix_endpoints_and_elements():
    rho = epr_state(np.pi / 4)
    assert np.allclose(werner_mix(rho, 1.0).mat, rho.mat)
    assert np.allclose(werner_mix(rho, 0.0).mat, np.eye(4) / 4)
    half = werner_mix(rho, 0.5)
    assert half.mat[0, 3] == pytest.approx(0.25)
    assert half.mat[1, 1] == pytest.approx(0.125)
    with pytest.raises(ValueError):
        werner_mix(rho, 1.2)


@given(st.floats(0.0, 1.0))
def test_werner_expectation_linearity(v):
    rho = epr_state(0.9)
    o = obs((1, "X"), (2, "X"))
    mixed = werner_mix(rho, v)
    # traceless observable: expectation scales exactly with v
    assert expectation(mixed, o) == pytest.approx(v * expectation(rho, o))


# ---------------------------------------------------------------------------
# subspace views
# ---------------------------------------------------------------------------


def test_epr_view():
    view = subspace_elements(epr_state(np.pi / 4), "epr")
    assert view.basis == (0, 3)
    assert view.coherence(0, 3) == pytest.approx(0.5)
    assert view.coherence(3, 0) == pytest.approx(0.5)  # conjugated lookup
    assert view.leakage == pytest.approx(0.0)


def test_maximally_mixed_leakage():
    rho = werner_mix(epr_state(np.pi / 4), 0.0)
    view = subspace_elements(rho, "epr")
    assert view.leakage == pytest.approx(0.5)
    assert view.coherences[(0, 3)] == pytest.approx(0.0)


def test_ghz_view_off_diagonal():
    th = np.pi / 3
    view = subspace_elements(ghz_state(3, th), "ghz")
    assert view.coherences[(0, 7)] == pytest.approx(np.cos(th) * np.sin(th))
    assert view.coherences[(0, 7)] == pytest.approx(np.sqrt(3) / 4)


def test_w_view_has_six_coherences():
    view = subspace_elements(w_state([W3, W3, W3, 0.0]), "w")
    assert view.basis == (1, 2, 4, 7)
    assert len(view.coherences) == 6
    assert view.coherences[(1, 2)] == pytest.approx(1.0 / 3.0)
    assert view.coherences[(4, 7)] == pytest.approx(0.0)


def test_family_basis_validation():
    with pytest.raises(ValueError):
        family_basis("epr", (2, 2, 2))
    with pytest.raises(ValueError):
        family_basis("w", (2, 2))
    with pytest.raises(ValueError):
        family_basis("qudit", (2, 3))
    with pytest.raises(ValueError):
        family_basis("bell", (2, 2))
    # one site (or none) is no family member
    for family, sites in (("epr", (2,)), ("ghz", (2,)), ("qudit", (3,)), ("ghz", ())):
        with pytest.raises(ValueError, match="2 or more sites"):
            family_basis(family, sites)
    assert family_basis("qudit", (3, 3, 3)) == (0, 13, 26)
