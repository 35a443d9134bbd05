"""Witness inequalities, batteries, noise thresholds, Svetlichny, search."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qew.oracle import SamplerConfig, sample_separable
from qew.qmat import as_density, expectation, obs, pure_density
from qew.states import (
    BlindChannel,
    ChannelTerm,
    apply_blind_channel,
    build_state,
    epr_state,
    ghz_state,
    parse_state_spec,
    qudit_ghz_state,
    spec_to_dict,
    w_state,
    werner_mix,
)
from qew.witnesses import (
    ENTANGLED,
    EPS_EQ,
    NOT_WITNESSED,
    BatteryItem,
    Exact,
    NonZero,
    ParadoxBattery,
    ValueAssignment,
    Zero,
    battery_epr,
    battery_ghz,
    battery_qudit_2,
    battery_qudit_n,
    battery_w,
    classical_assignment_search,
    critical_visibility,
    evaluate_battery,
    noise_witness,
    reindex_battery,
    svetlichny_optimal_angles,
    svetlichny_value,
    witness_epr,
    witness_family,
    witness_ghz,
    witness_qudit,
    witness_w,
)

W3 = 1.0 / np.sqrt(3.0)


# ---------------------------------------------------------------------------
# pairwise coherence witnesses
# ---------------------------------------------------------------------------


def test_epr_witness_maximal():
    rep = witness_epr(epr_state(np.pi / 4))
    assert rep.lhs == pytest.approx(1.0)
    assert rep.bound == 0.0
    assert rep.verdict == ENTANGLED
    assert rep.margin == pytest.approx(1.0)
    assert rep.leakage == pytest.approx(0.0)


@given(st.floats(0.01, np.pi / 2 - 0.01))
def test_epr_witness_is_sin_two_theta(theta):
    assert witness_epr(epr_state(theta)).lhs == pytest.approx(np.sin(2 * theta))


def test_epr_witness_on_dephased_mixture():
    th = 0.7
    rho = as_density(
        np.diag([np.cos(th) ** 2, 0.0, 0.0, np.sin(th) ** 2]), (2, 2)
    )
    rep = witness_epr(rho)
    assert rep.lhs == pytest.approx(0.0)
    assert rep.verdict == NOT_WITNESSED


def test_epr_witness_outside_subspace():
    rho = pure_density(np.array([0.0, 1.0, 0.0, 0.0]), (2, 2))
    rep = witness_epr(rho)
    assert rep.lhs == pytest.approx(-1.0)
    assert rep.leakage == pytest.approx(1.0)
    assert rep.verdict == NOT_WITNESSED


def test_epr_witness_shape_check():
    with pytest.raises(ValueError):
        witness_epr(ghz_state(3, 0.4))
    # the qubit ladder of one site is no GHZ state
    with pytest.raises(ValueError, match="2 or more sites"):
        witness_ghz(pure_density(np.array([1.0, 0.0]), (2,)))


def test_ghz_witness_values():
    assert witness_ghz(ghz_state(3, np.pi / 4)).lhs == pytest.approx(1.0)
    mix = as_density(np.diag([0.3, 0, 0, 0, 0, 0, 0, 0.7]), (2, 2, 2))
    assert witness_ghz(mix).lhs == pytest.approx(0.0)


def test_ghz_witness_reduces_to_epr_at_two_sites():
    rho = epr_state(0.9)
    assert witness_ghz(rho).lhs == pytest.approx(witness_epr(rho).lhs)


def test_noisy_ghz_still_witnessed():
    # white noise pushes population off the edge pair, but the bound holds
    # for every biseparable state, so the verdict must survive the mixing
    rep = witness_ghz(werner_mix(ghz_state(3, np.pi / 4), 0.9))
    assert rep.lhs == pytest.approx(2 * 0.45 + 0.925 - 1.0)
    assert rep.leakage == pytest.approx(0.075)
    assert rep.verdict == ENTANGLED


@given(st.floats(0.0, 1.0))
def test_werner_epr_detection_threshold(v):
    rep = witness_epr(werner_mix(epr_state(np.pi / 4), v))
    assert (rep.verdict == ENTANGLED) == (v > 1.0 / 3.0 + 1e-9)


# ---------------------------------------------------------------------------
# W-type witness
# ---------------------------------------------------------------------------


def test_w_witness_value_and_bounds():
    rep = witness_w(w_state([W3, W3, W3, 0.0]))
    assert rep.lhs == pytest.approx(2.0 / 3.0)
    assert rep.bound == 0.5
    assert rep.alt_bound == 0.25
    assert rep.verdict == ENTANGLED


def test_w_witness_zero_cases():
    assert witness_w(pure_density(np.eye(8)[1], (2, 2, 2))).lhs == pytest.approx(0.0)
    assert witness_w(w_state([1.0, 0.0, 0.0, 0.0])).lhs == pytest.approx(0.0)


def test_w_witness_bound_saturated_by_biseparable():
    # Bell pair on sites {1, 2} with |0> on site 3 reaches exactly 1/2
    v = np.zeros(8)
    v[[2, 4]] = 1.0 / np.sqrt(2.0)  # |010> + |100>
    rep = witness_w(pure_density(v, (2, 2, 2)))
    assert rep.lhs == pytest.approx(0.5)
    assert rep.verdict == NOT_WITNESSED


# ---------------------------------------------------------------------------
# qudit witness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,n", [(3, 2), (4, 2), (3, 3)])
def test_qudit_witness_maximally_entangled(d, n):
    rho = qudit_ghz_state(n, d, np.full(d, 1.0 / np.sqrt(d)))
    rep = witness_qudit(rho)
    assert rep.lhs == pytest.approx(d - 1.0, abs=1e-12)
    assert rep.verdict == ENTANGLED


def test_qudit_witness_diagonal_mixture():
    mat = np.zeros((9, 9))
    mat[0, 0] = mat[4, 4] = mat[8, 8] = 1.0 / 3.0
    assert witness_qudit(as_density(mat, (3, 3))).lhs == pytest.approx(0.0)


def test_qudit_witness_matches_epr_at_d_two():
    rho = epr_state(0.8)
    assert witness_qudit(rho).lhs == pytest.approx(witness_epr(rho).lhs)


def test_qudit_witness_argument_checks():
    with pytest.raises(ValueError):
        witness_qudit(pure_density(np.kron([1, 0], [1.0, 0, 0]), (2, 3)))
    with pytest.raises(ValueError, match="2 or more sites"):
        witness_qudit(pure_density(np.array([1.0, 0.0, 0.0]), (3,)))


# ---------------------------------------------------------------------------
# batteries
# ---------------------------------------------------------------------------


def test_battery_epr_items():
    b = battery_epr()
    labels = [i.observable.label() for i in b.items]
    assert labels == ["Z@1 Z@2", "Z@1 X@2", "X@1 Z@2", "X@1 X@2"]
    assert isinstance(b.items[0].contract, Exact)
    assert b.items[0].contract.value == 1.0
    assert isinstance(b.items[-1].contract, NonZero)
    assert b.items[-1].companion.label() == "X@1 Y@2"


def test_battery_ghz_two_sites_deduplicates_to_epr():
    assert battery_ghz(2).items == battery_epr().items


def test_battery_ghz_item_count():
    # ring pairs (1,n),(1,2),...,(n-1,n): n equalities + 2n zeros + 1 nonzero
    for n in (3, 4, 5):
        b = battery_ghz(n)
        assert len(b.items) == 3 * n + 1
        kinds = [type(i.contract).__name__ for i in b.items]
        assert kinds.count("Exact") == n
        assert kinds.count("Zero") == 2 * n
        assert kinds.count("NonZero") == 1


def test_battery_w_structure():
    b = battery_w()
    assert len(b.items) == 6
    assert b.items[0].contract == Exact(-1.0)
    nz = [i for i in b.items if isinstance(i.contract, NonZero)]
    assert [i.observable.label() for i in nz] == ["X@1 X@2", "X@1 X@3"]


def test_battery_qudit_two_site_counts():
    b3 = battery_qudit_2(3)
    assert [i.observable.label() for i in b3.items] == [
        "clock@1 clock^2@2",
        "clock@1 shift@2",
        "shift@1 clock@2",
        "shift@1 shift@2",
    ]
    # the n-site list keeps the k = d-1 equality, so at n=2 it is longer
    bn = battery_qudit_n(2, 3)
    assert len(bn.items) == len(b3.items) + 1


@pytest.mark.parametrize("d", [3, 4, 5])
def test_battery_qudit_2_lines(d):
    # clock^k (x) clock^(d-k) for k = 1..d-2, then the clock/shift lines
    items = [
        BatteryItem(obs((1, "clock", k), (2, "clock", d - k)), Exact(1.0))
        for k in range(1, d - 1)
    ]
    items += [
        BatteryItem(obs((1, "clock"), (2, "shift")), Zero()),
        BatteryItem(obs((1, "shift"), (2, "clock")), Zero()),
        BatteryItem(obs((1, "shift"), (2, "shift")), NonZero()),
    ]
    assert battery_qudit_2(d).items == tuple(items)


def test_battery_qudit_2_rejects_plus_plus():
    # |++> has <shift shift> = 1 and no clock/shift correlation; only the
    # clock (x) clock line tells it from the family
    rho = pure_density(np.full(4, 0.5), (2, 2))
    rep = evaluate_battery(rho, battery_qudit_2(2))
    assert not rep.passed
    assert [r.label for r in rep.failures()] == ["clock@1 clock@2"]
    assert not evaluate_battery(rho, battery_epr()).passed
    assert not evaluate_battery(rho, battery_qudit_n(2, 2)).passed


def test_battery_qudit_n_item_count():
    b = battery_qudit_n(3, 3)
    assert len(b.items) == 3 * 2 + 3 * 2 + 1


def test_battery_validation():
    with pytest.raises(ValueError, match="NonZero"):
        ParadoxBattery((BatteryItem(obs((1, "Z"), (2, "Z")), Exact(1.0)),))
    with pytest.raises(ValueError, match="positive"):
        evaluate_battery(epr_state(np.pi / 4), battery_epr(), eps_eq=0.0)
    for bad in (np.nan, np.inf):
        for key in ("eps_eq", "eps_nz"):
            with pytest.raises(ValueError, match=f"{key} must be a finite positive"):
                evaluate_battery(epr_state(np.pi / 4), battery_epr(), **{key: bad})
        with pytest.raises(ValueError, match="eps_eq must be a finite positive"):
            witness_epr(epr_state(np.pi / 4), eps_eq=bad)
    with pytest.raises(ValueError, match="companion"):
        BatteryItem(obs((1, "Z")), Exact(1.0), companion=obs((1, "X")))


def test_tolerances_are_arguments_of_the_evaluation():
    # the battery is its lines only; one battery, three verdicts
    assert [f.name for f in dataclasses.fields(ParadoxBattery)] == ["items"]
    rho = werner_mix(epr_state(np.pi / 4), 0.8)  # ZZ = XX = 0.8
    battery = battery_epr()
    assert not evaluate_battery(rho, battery).passed
    assert evaluate_battery(rho, battery, eps_eq=0.25).passed
    rep = evaluate_battery(rho, battery, eps_eq=0.25, eps_nz=0.9)
    assert [r.label for r in rep.failures()] == ["X@1 X@2"]


def test_contract_rule_is_one_for_scalars_and_arrays():
    # binary tolerances, so the values at the boundaries are exact
    eps_eq, eps_nz = 2.0**-20, 2.0**-10
    vals = np.array([1.0, 1.0 + 2.0**-20, 1.0 + 2.0**-19, 0.0, 2.0**-20 * 1j, 2.0**-10, -2.0**-9])
    rules = {
        Exact(1.0): [True, True, False, False, False, False, False],
        Zero(): [False, False, False, True, True, False, False],
        NonZero(): [True, True, True, False, False, False, True],
    }
    for contract, expected in rules.items():
        mags, passed = contract.check(vals, eps_eq, eps_nz)
        assert passed.tolist() == expected
        for v, m, p in zip(vals, mags, passed):
            # numpy's and Python's complex moduli may differ in the last bit
            assert contract.check(complex(v), eps_eq, eps_nz) == (pytest.approx(m, rel=1e-15), p)


def test_reindex_battery_shifts_sites():
    b = reindex_battery(battery_epr(), 3)
    assert b.items[0].observable.label() == "Z@4 Z@5"
    assert b.items[-1].companion.label() == "X@4 Y@5"


def test_evaluate_battery_on_epr():
    rep = evaluate_battery(epr_state(np.pi / 4), battery_epr())
    assert rep.passed
    vals = [round(abs(r.value), 12) for r in rep.items]
    assert vals == [1.0, 0.0, 0.0, 1.0]


def test_evaluate_battery_fails_fourth_line_on_mixture():
    rho = as_density(np.diag([0.5, 0.0, 0.0, 0.5]), (2, 2))
    rep = evaluate_battery(rho, battery_epr())
    assert not rep.passed
    bad = rep.failures()
    assert len(bad) == 1
    assert bad[0].label == "X@1 X@2"
    assert isinstance(bad[0].contract, NonZero)


def test_battery_survives_phase_rotation_via_companion():
    # a pure phase channel moves the coherence off the real axis; the
    # X...XY companion keeps the magnitude visible
    ch = BlindChannel((ChannelTerm(1.0, ((0.0, np.pi / 2), (0.0, 0.0))),))
    rho = apply_blind_channel(epr_state(np.pi / 4), ch)
    assert evaluate_battery(rho, battery_epr()).passed
    # without the companion the real part alone vanishes
    bare = ParadoxBattery(tuple(BatteryItem(i.observable, i.contract) for i in battery_epr().items))
    rep = evaluate_battery(rho, bare)
    assert not rep.passed


def test_evaluate_battery_on_ghz_and_w():
    assert evaluate_battery(ghz_state(4, np.pi / 4), battery_ghz(4)).passed
    repw = evaluate_battery(w_state([W3, W3, W3, 0.0]), battery_w())
    assert repw.passed
    nz = [r for r in repw.items if isinstance(r.contract, NonZero)]
    for r in nz:
        assert r.value == pytest.approx(2.0 / 3.0)
    zzz = repw.items[0]
    assert zzz.value == pytest.approx(-1.0)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_evaluate_battery_qudit(d):
    rho = qudit_ghz_state(2, d, np.full(d, 1.0 / np.sqrt(d)))
    assert evaluate_battery(rho, battery_qudit_2(d)).passed
    assert evaluate_battery(rho, battery_qudit_n(2, d)).passed


def test_evaluate_battery_qudit_three_sites():
    rho = qudit_ghz_state(3, 3, [W3, W3, W3])
    assert evaluate_battery(rho, battery_qudit_n(3, 3)).passed


def test_battery_rejects_qudit_product_state():
    rho = qudit_ghz_state(2, 3, [1.0, 0.0, 0.0])
    rep = evaluate_battery(rho, battery_qudit_2(3))
    assert not rep.passed
    assert rep.failures()[-1].label == "shift@1 shift@2"


# ---------------------------------------------------------------------------
# noise witness and critical visibility
# ---------------------------------------------------------------------------


def test_noise_witness_values():
    rho = epr_state(np.pi / 4)
    rep = noise_witness(werner_mix(rho, 0.8))
    assert rep.s == pytest.approx(2.4)
    assert rep.verdict == ENTANGLED
    assert rep.zero_lines_ok
    assert noise_witness(werner_mix(rho, 1.0 / 3.0)).verdict == NOT_WITNESSED
    assert noise_witness(werner_mix(rho, 0.0)).s == pytest.approx(0.0)


def test_noise_witness_leaves_product_states_unwitnessed():
    """|++><++| has <XX> = 1 and <YY> = <ZZ> = 0: s = 1, on the bound."""
    plus = np.full(4, 0.5)
    rep = noise_witness(pure_density(plus, (2, 2)))
    assert (rep.xx, rep.yy, rep.zz) == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)
    assert rep.s == pytest.approx(1.0, abs=1e-12)
    assert rep.verdict == NOT_WITNESSED


def test_noise_witness_bound_holds_on_separable_samples():
    # one mixture term: pure products, the separable states nearest the bound
    cfg = SamplerConfig((2, 2), terms=1, seed=11)
    values = [noise_witness(sample_separable(cfg, i)).s for i in range(200)]
    assert max(values) <= 1.0 + EPS_EQ


def test_critical_visibility_golden_values():
    assert critical_visibility(0.5, "witness") == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert critical_visibility(0.5, "chsh") == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert critical_visibility(0.5, "svetlichny_3") == pytest.approx(1 / np.sqrt(2))
    assert critical_visibility(0.25, "witness") == pytest.approx(0.5)
    assert critical_visibility(0.0, "witness") == 1.0
    assert critical_visibility(0.0, "svetlichny_3") == 1.0  # capped
    assert critical_visibility(0.1, "svetlichny_3") == 1.0  # formula > 1


def test_critical_visibility_validation():
    with pytest.raises(ValueError):
        critical_visibility(0.6, "witness")
    with pytest.raises(ValueError):
        critical_visibility(-0.1, "witness")
    with pytest.raises(ValueError):
        critical_visibility(0.3, "ghz")


@given(st.floats(0.0, 0.5), st.floats(0.0, 0.5))
def test_critical_visibility_monotone(a, b):
    lo, hi = sorted((a, b))
    for kind in ("witness", "chsh", "svetlichny_3"):
        assert critical_visibility(hi, kind) <= critical_visibility(lo, kind) + 1e-12


def test_witness_route_agrees_with_simulation():
    """The closed-form threshold matches a direct bisection on the witness."""
    th = 0.55
    c = np.cos(th) * np.sin(th)
    rho = epr_state(th)

    def detected(v: float) -> bool:
        return witness_epr(werner_mix(rho, v)).verdict == ENTANGLED

    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = (lo + hi) / 2
        if detected(mid):
            hi = mid
        else:
            lo = mid
    assert hi == pytest.approx(critical_visibility(c, "witness"), abs=1e-9)


# ---------------------------------------------------------------------------
# Svetlichny
# ---------------------------------------------------------------------------


def test_svetlichny_optimum_on_ghz():
    val = svetlichny_value(ghz_state(3, np.pi / 4), svetlichny_optimal_angles())
    assert val == pytest.approx(4 * np.sqrt(2), abs=1e-9)


@given(st.floats(0.0, 1.0))
def test_svetlichny_linear_in_visibility(v):
    rho = werner_mix(ghz_state(3, np.pi / 4), v)
    val = svetlichny_value(rho, svetlichny_optimal_angles())
    assert val == pytest.approx(v * 4 * np.sqrt(2), abs=1e-9)


@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_svetlichny_angle_dependence(p1, p2, p3):
    # on a GHZ edge state the eight-term sum collapses to a single sinusoid
    s = p1 + p2 + p3
    want = abs(4 * np.cos(s) - 4 * np.sin(s))
    got = svetlichny_value(ghz_state(3, np.pi / 4), (p1, p2, p3))
    assert got == pytest.approx(want, abs=1e-9)


def test_svetlichny_zero_on_white_noise():
    rho = werner_mix(ghz_state(3, 0.4), 0.0)
    assert svetlichny_value(rho, (0.3, 0.1, 1.0)) == pytest.approx(0.0)


def test_svetlichny_input_checks():
    with pytest.raises(ValueError):
        svetlichny_value(epr_state(0.4), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        svetlichny_value(ghz_state(3, 0.4), (0.0, 0.0))


# ---------------------------------------------------------------------------
# classical assignments
# ---------------------------------------------------------------------------


def test_no_classical_assignment_for_epr_battery():
    assert classical_assignment_search(battery_epr(), 0.25, 1e-6) == []


def test_no_classical_assignment_for_ghz_battery():
    assert classical_assignment_search(battery_ghz(3), 0.25, 1e-6) == []


def test_assignments_exist_without_the_nonzero_line():
    items = tuple(
        i for i in battery_epr().items if not isinstance(i.contract, NonZero)
    )
    hits = classical_assignment_search(items, 0.25, 1e-6)
    assert hits
    assert ValueAssignment(((1.0, 0.0), (1.0, 0.0))) in hits
    # every surviving assignment satisfies the equality lines on its own
    for h in hits:
        (z1, x1), (z2, x2) = h.values
        assert z1 * z2 == pytest.approx(1.0, abs=1e-6)
        assert abs(z1 * x2) <= 1e-6 and abs(x1 * z2) <= 1e-6


def test_assignment_search_validation():
    with pytest.raises(ValueError):
        classical_assignment_search(battery_epr(), 0.0, 1e-6)
    with pytest.raises(ValueError):
        classical_assignment_search(battery_epr(), 0.25, -1.0)
    # a NaN tolerance would fail every line and certify a contradiction
    with pytest.raises(ValueError, match="tol must be a finite positive"):
        classical_assignment_search(battery_epr(), 0.25, np.nan)
    with pytest.raises(ValueError, match="eps_nz must be a finite positive"):
        classical_assignment_search(battery_epr(), 0.25, 1e-6, eps_nz=np.nan)
    with pytest.raises(ValueError, match="only X and Z"):
        classical_assignment_search(
            (BatteryItem(obs((1, "Y"), (2, "Y")), NonZero()),), 0.5, 1e-6
        )


def test_assignment_search_cell_budget():
    # four parties at step 0.1 would be 21^8 ~ 3.8e10 cells; refused, not allocated
    with pytest.raises(ValueError, match="budget"):
        classical_assignment_search(battery_ghz(4), 0.1, 1e-6)


def test_value_assignment_range():
    with pytest.raises(ValueError):
        ValueAssignment(((1.5, 0.0),))


# ---------------------------------------------------------------------------
# coherence reconstruction
# ---------------------------------------------------------------------------


def test_offdiag_from_pauli_recovers_rotated_coherence():
    # in the |00>/|11> span <XX> = 2 Re rho_00;11 and <XY> = -2 Im rho_00;11,
    # which is why a battery's XX line carries its XY companion
    alpha = 1.234
    ch = BlindChannel((ChannelTerm(1.0, ((0.0, alpha), (0.0, 0.0))),))
    rho = apply_blind_channel(epr_state(np.pi / 4), ch)
    exx = float(np.real(expectation(rho, obs((1, "X"), (2, "X")))))
    exy = float(np.real(expectation(rho, obs((1, "X"), (2, "Y")))))
    assert complex(exx, -exy) / 2.0 == pytest.approx(rho.mat[0, 3])


# ---------------------------------------------------------------------------
# the family tables
# ---------------------------------------------------------------------------


# (entangled member, product member) of every state kind
FAMILY_MEMBERS = [
    ({"kind": "epr", "theta": 0.6}, {"kind": "epr", "theta": 0.0}),
    ({"kind": "ghz", "n": 3, "theta": 0.7}, {"kind": "ghz", "n": 3, "theta": np.pi / 2}),
    ({"kind": "ghz", "n": 4, "theta": 0.9}, {"kind": "ghz", "n": 4, "theta": 0.0}),
    ({"kind": "w", "a": [W3, W3, W3, 0.0]}, {"kind": "w", "a": [1.0, 0.0, 0.0, 0.0]}),
    (
        {"kind": "qudit_ghz", "n": 2, "d": 2, "alpha": [0.6, 0.8]},
        {"kind": "qudit_ghz", "n": 2, "d": 2, "alpha": [0.0, 1.0]},
    ),
    (
        {"kind": "qudit_ghz", "n": 2, "d": 3, "alpha": [W3, W3, W3]},
        {"kind": "qudit_ghz", "n": 2, "d": 3, "alpha": [0.0, 1.0, 0.0]},
    ),
    (
        {"kind": "qudit_ghz", "n": 3, "d": 3, "alpha": [0.6, 0.0, 0.8]},
        {"kind": "qudit_ghz", "n": 3, "d": 3, "alpha": [1.0, 0.0, 0.0]},
    ),
]


@pytest.mark.parametrize(
    "entangled,product",
    FAMILY_MEMBERS,
    ids=[f"{e['kind']}-{e.get('n', '')}-{e.get('d', '')}" for e, _ in FAMILY_MEMBERS],
)
def test_family_tables(entangled, product):
    for data in (entangled, product):
        spec = parse_state_spec(data)
        assert parse_state_spec(spec_to_dict(spec)) == spec
    spec = parse_state_spec(entangled)
    fam = witness_family(spec.family())
    rho = build_state(spec)
    assert rho.sites == spec.site_dims()
    assert fam.witness(rho).verdict == ENTANGLED
    assert evaluate_battery(rho, fam.battery(rho.sites)).passed
    flat = build_state(parse_state_spec(product))
    assert "boundary" in flat.flags
    assert fam.witness(flat).verdict == NOT_WITNESSED
    assert not evaluate_battery(flat, fam.battery(flat.sites)).passed
