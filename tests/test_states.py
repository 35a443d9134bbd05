"""State families, blind channels, noise mixing, subspace views."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qew import states
from qew.qmat import expectation, obs, tensor_product
from qew.states import (
    MAX_DIM,
    BlindChannel,
    ChannelTerm,
    StateSpec,
    apply_blind_channel,
    build_state,
    channel_from_dict,
    epr_state,
    family_basis,
    family_sites,
    ghz_state,
    parse_state_spec,
    qudit_ghz_state,
    spec_to_dict,
    subspace_elements,
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


def test_epr_general_angle():
    th = np.pi / 3
    rho = epr_state(th)
    assert rho.mat[0, 3] == pytest.approx(np.cos(th) * np.sin(th))


def test_ghz_boundary_is_a_product():
    # theta = 0 and pi/2 collapse onto |000> and |111>: no coherence is left
    assert ghz_state(3, 0.0).mat[0, 0] == pytest.approx(1.0)
    assert ghz_state(3, np.pi / 2).mat[7, 7] == pytest.approx(1.0)
    assert ghz_state(3, np.pi / 2).mat[0, 7] == pytest.approx(0.0)


def test_w_state_elements_and_validation():
    rho = w_state([W3, W3, W3, 0.0])
    assert rho.mat[1, 2] == pytest.approx(1.0 / 3.0)
    assert rho.mat[1, 7] == pytest.approx(0.0)
    for bad in ([1.0, 1.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="normalized"):
            w_state(bad)
    with pytest.raises(ValueError):
        w_state([1.0, 0.0, 0.0])


def test_qudit_ghz_needs_normalized_amplitudes():
    rho = qudit_ghz_state(2, 3, [W3, W3, W3])
    for j in range(3):
        for k in range(3):
            idx_j = np.ravel_multi_index((j, j), (3, 3))
            idx_k = np.ravel_multi_index((k, k), (3, 3))
            assert rho.mat[idx_j, idx_k] == pytest.approx(1.0 / 3.0)
    with pytest.raises(ValueError, match="normalized"):
        qudit_ghz_state(2, 3, [1.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="expected 3 amplitudes"):
        qudit_ghz_state(2, 3, [1.0, 0.0])
    with pytest.raises(ValueError, match="2 or more sites"):
        qudit_ghz_state(1, 3, [1.0, 0.0, 0.0])


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
            family_sites("qudit", n, d)
    # a non-integral n or d names its field, for the library builders too
    with pytest.raises(ValueError, match="'d' must be an integer, got 2.5"):
        family_sites("qudit", 2, 2.5)
    with pytest.raises(ValueError, match="'n' must be an integer, got 2.5"):
        ghz_state(2.5, 0.3)
    assert family_sites("qudit", 2.0, 3) == (3, 3)
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


@pytest.mark.parametrize(
    "build",
    [
        lambda: ghz_state(13, 0.3),
        lambda: ghz_state(20, 0.3),
        lambda: qudit_ghz_state(7, 4, [1.0, 0.0, 0.0, 0.0]),
    ],
)
def test_builders_refuse_sites_over_the_budget(monkeypatch, build):
    def no_density(*args):
        raise AssertionError("a state vector was built over the budget")

    monkeypatch.setattr(states, "pure_density", no_density)
    with pytest.raises(ValueError, match="dimension budget exceeded"):
        build()


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
    # any negative weight makes the multiplier indefinite, however small,
    # even when the weights still sum to 1 within PROB_TOL
    with pytest.raises(ValueError, match="negative term probability: -1e-13"):
        BlindChannel(
            (
                ChannelTerm(1.0, ((0.0, 0.0), (0.0, 0.0))),
                ChannelTerm(-1e-13, ((0.0, np.pi), (0.0, 0.0))),
            )
        )
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


def test_channel_refusals_keep_their_messages_and_order():
    ok = ((0.0, 0.0), (0.0, 0.0, 0.0))
    for bad in (np.nan, np.inf, -np.inf):
        for term in range(3):
            for site in range(2):
                phases = [list(p) for p in ok]
                phases[site][1] = bad
                terms = [ChannelTerm(1 / 3, ok)] * 3
                terms[term] = ChannelTerm(1 / 3, tuple(tuple(p) for p in phases))
                with pytest.raises(ValueError, match=r"^phases must be finite reals$"):
                    BlindChannel(tuple(terms))
    # widths are checked before finiteness, and probabilities before both
    short = ChannelTerm(0.5, ((0.0, np.nan),))
    with pytest.raises(ValueError, match=r"^all terms must carry phases for the same sites$"):
        BlindChannel((ChannelTerm(0.5, ok), short))
    with pytest.raises(ValueError, match=r"^all terms must carry phases for the same sites$"):
        BlindChannel((ChannelTerm(0.5, ok), ChannelTerm(0.5, ((0.0, 0.0), (0.0, 0.0)))))
    with pytest.raises(ValueError, match=r"^term probabilities sum to 0.9"):
        BlindChannel((ChannelTerm(0.4, ok), ChannelTerm(0.5, ((0.0, np.nan),))))


def _per_term_multiplier(ch, sites):
    """sum_j p_j u_j u_j^dag, one term at a time with tensor_product: the
    form the batched multiplier replaced."""
    out = np.zeros((int(np.prod(sites)),) * 2, dtype=complex)
    for t in ch.terms:
        u = tensor_product(*(np.exp(1j * np.asarray(p, dtype=float)) for p in t.site_phases))
        out += t.p * np.outer(u, u.conj())
    return out


_PHASES = st.one_of(
    st.sampled_from([0.0, -0.0, np.pi, -np.pi, 1e300, -1e300, 5e-324]),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _sited_channels(draw):
    sites = draw(st.sampled_from([(2,), (5,), (2, 2), (3, 3), (2, 3), (2, 2, 2), (2, 2, 2, 2)]))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16).filter(lambda w: sum(w) > 0))
    probs = [w / sum(raw) for w in raw]
    probs[-1] = 1.0 - sum(probs[:-1])  # within PROB_TOL, and never below 0 by more
    probs[-1] = max(probs[-1], 0.0)
    terms = tuple(
        ChannelTerm(p, tuple(tuple(draw(_PHASES) for _ in range(d)) for d in sites)) for p in probs
    )
    return sites, BlindChannel(terms)


@settings(max_examples=150, deadline=None)
@given(_sited_channels())
def test_multiplier_has_the_per_term_bits(case):
    sites, ch = case
    m = ch.multiplier(sites)
    assert m.tobytes() == _per_term_multiplier(ch, sites).tobytes()  # signed zeros too


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
    assert view.coherences[(0, 3)] == pytest.approx(0.5)
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


def _fits(family, sites):
    """The sites each family lives on, written out as a reference."""
    n = len(sites)
    uniform = n >= 2 and len(set(sites)) == 1
    if family == "epr":
        return sites == (2, 2)
    if family == "ghz":
        return uniform and sites[0] == 2
    if family == "w":
        return sites == (2, 2, 2)
    # (5,) * 6 is over the dimension budget
    return uniform and sites[0] ** n <= MAX_DIM


def test_family_basis_accepts_exactly_the_family_sites():
    cases = [(d,) * n for n in range(7) for d in range(2, 6)]
    cases += [(2, 3), (3, 2), (2, 2, 3), (3, 3, 2), (4, 2, 4)]
    for family in ("epr", "ghz", "w", "qudit"):
        for sites in cases:
            if _fits(family, sites):
                family_basis(family, sites)
            else:
                with pytest.raises(ValueError):
                    family_basis(family, sites)


def test_family_sites_defaults_and_refusals():
    assert family_sites("epr", None, None) == (2, 2)
    assert family_sites("ghz", None, None) == (2, 2, 2)
    assert family_sites("ghz", 5, None) == (2,) * 5
    assert family_sites("w", None, None) == (2, 2, 2)
    assert family_sites("qudit", None, None) == (3, 3)
    assert family_sites("qudit", 3, 4) == (4, 4, 4)
    with pytest.raises(ValueError, match="the family fixes n = 2; --n 3 does not apply"):
        family_sites("epr", 3, None)
    with pytest.raises(ValueError, match="the family fixes d = 2; --d 3 does not apply"):
        family_sites("ghz", None, 3)
    with pytest.raises(ValueError, match="the family fixes n = 3; --n 3 does not apply"):
        family_sites("w", 3, None)
    with pytest.raises(ValueError, match=r"family 'qudit' needs 2 or more sites .* got \(3,\)"):
        family_sites("qudit", 1, None)
    with pytest.raises(ValueError, match="budget"):
        family_sites("ghz", 13, None)
    with pytest.raises(ValueError, match="unknown family 'bell'"):
        family_sites("bell", None, None)


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "ghz", "n": 1, "theta": 0.7},
        {"kind": "ghz", "n": 0, "theta": 0.7},
        {"kind": "qudit_ghz", "n": 1, "d": 3, "alpha": [1.0, 0.0, 0.0]},
    ],
)
def test_parse_state_spec_refuses_fewer_than_two_sites(data):
    with pytest.raises(ValueError, match="needs 2 or more sites of one dimension"):
        parse_state_spec(data)


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "epr", "theta": 0.3},
        {"kind": "ghz", "n": 2, "theta": 0.3},
        {"kind": "ghz", "n": 5, "theta": 0.3},
        {"kind": "w", "a": [0.5, 0.5, 0.5, 0.5]},
        {"kind": "qudit_ghz", "n": 2, "d": 2, "alpha": [0.6, 0.8]},
        {"kind": "qudit_ghz", "n": 3, "d": 4, "alpha": [0.5, 0.5, 0.5, 0.5]},
    ],
)
def test_site_dims_are_the_built_sites(data):
    spec = parse_state_spec(data)
    assert spec.site_dims() == build_state(spec).sites
