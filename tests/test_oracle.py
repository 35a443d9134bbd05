"""Sampler soundness, witness maximization, PPT checks, bisection."""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qew import oracle
from qew.networks import sample_branch, swap_branches
from qew.oracle import (
    SamplerConfig,
    all_bipartitions,
    bisect_threshold,
    maximize_witness,
    partial_transpose,
    ppt_check,
    random_blind_channel,
    sample_biseparable,
    sample_separable,
)
from qew.qmat import partial_trace, uniforms
from qew.states import epr_state, ghz_state, werner_mix
from qew.witnesses import witness_epr, witness_family, witness_ghz, witness_qudit, witness_w


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(sites=(2, 1))
    with pytest.raises(ValueError, match="one or more sites"):
        SamplerConfig(sites=())
    with pytest.raises(ValueError):
        SamplerConfig(sites=(2, 2), terms=0)
    with pytest.raises(ValueError):
        SamplerConfig(sites=(2, 2), terms=99)
    with pytest.raises(ValueError):
        SamplerConfig(sites=(2, 2), partition=(1, 2))  # not a proper subset
    SamplerConfig(sites=(2, 2, 2), partition=(1, 3))


def test_all_bipartitions_three_sites():
    assert all_bipartitions(3) == [(1,), (1, 2), (1, 3)]
    assert len(all_bipartitions(4)) == 7


def test_samples_are_reproducible_and_distinct():
    cfg = SamplerConfig(sites=(2, 2), terms=3, seed=11)
    a = sample_separable(cfg, 5)
    b = sample_separable(cfg, 5)
    c = sample_separable(cfg, 6)
    assert np.array_equal(a.mat, b.mat)
    assert not np.allclose(a.mat, c.mat)


def test_separable_samples_respect_pair_witness():
    cfg = SamplerConfig(sites=(2, 2), terms=4, seed=3)
    worst = max(witness_epr(sample_separable(cfg, i)).lhs for i in range(500))
    assert worst <= 1e-9


def test_separable_samples_are_ppt():
    cfg = SamplerConfig(sites=(2, 2), terms=2, seed=19)
    for i in range(50):
        assert not ppt_check(sample_separable(cfg, i)).npt


def test_biseparable_samples_respect_ghz_witness():
    cfg = SamplerConfig(sites=(2, 2, 2), terms=3, seed=7)
    worst = max(witness_ghz(sample_biseparable(cfg, i)).lhs for i in range(300))
    assert worst <= 1e-9


def test_biseparable_fixed_partition_is_product_across_cut():
    cfg = SamplerConfig(sites=(2, 2, 2), terms=1, seed=2, partition=(1,))
    rho = sample_biseparable(cfg, 0)
    # pure product across 1|23: partial transpose on site 1 stays PSD
    assert not ppt_check(rho, subset=(1,)).npt


def test_qudit_separable_samples_respect_witness():
    cfg = SamplerConfig(sites=(3, 3), terms=3, seed=23)
    worst = max(witness_qudit(sample_separable(cfg, i)).lhs for i in range(200))
    assert worst <= 1e-9


def test_biseparable_samples_respect_w_bound():
    cfg = SamplerConfig(sites=(2, 2, 2), terms=4, seed=31)
    worst = max(witness_w(sample_biseparable(cfg, i)).lhs for i in range(300))
    assert worst <= 0.5 + 1e-9


def test_draws_have_haar_and_dirichlet_moments():
    n = 3000
    for d in (2, 3):
        # one site, one term: the sample is |v><v| with v Haar-random
        cfg = SamplerConfig(sites=(d,), terms=1, seed=17)
        mats = np.array([sample_separable(cfg, i).mat for i in range(n)])
        # |v_0|^2 ~ Beta(1, d - 1); the phases of v_0 and v_1 are independent
        # and uniform, so E[(v_0 v_1*)^2] = 0 (a real vector would give 1/(d (d + 2)))
        assert abs(mats[:, 0, 0].real.mean() - 1.0 / d) < 0.02
        assert abs((mats[:, 0, 1] ** 2).mean()) < 0.02
    for terms in (2, 4):
        w = np.array([[t.p for t in random_blind_channel((2,), terms, 18, i).terms] for i in range(n)])
        assert np.allclose(w.sum(axis=1), 1.0) and np.all(w >= 0.0)
        # Dirichlet(1, ..., 1): E[w_i] = 1/k, E[w_i^2] = 2/(k (k + 1))
        assert abs(w[:, 0].mean() - 1.0 / terms) < 0.02
        assert abs((w[:, 0] ** 2).mean() - 2.0 / (terms * (terms + 1))) < 0.02


def test_biseparable_terms_draw_every_bipartition():
    # one term: a pure state, product exactly across the bipartition it drew
    cfg = SamplerConfig(sites=(2, 2, 2, 2), terms=1, seed=29)
    seen = set()
    for i in range(200):
        rho = sample_biseparable(cfg, i)
        for block in all_bipartitions(4):
            red = partial_trace(rho, block).mat
            if np.trace(red @ red).real > 1.0 - 1e-9:
                seen.add(block)
    assert seen == set(all_bipartitions(4))


def test_draws_raise_no_runtime_warning():
    # the premise: numpy scalar uint64 arithmetic warns when it wraps
    with pytest.warns(RuntimeWarning, match="overflow"):
        np.uint64(2**63) * np.uint64(2)
    branches = swap_branches(epr_state(0.6), epr_state(0.9))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        uniforms(2**63 + 5, 2**40, 3)
        sample_separable(SamplerConfig(sites=(2, 3), terms=3, seed=2**63 + 5), 7)
        sample_biseparable(SamplerConfig(sites=(2, 2, 2), terms=3, seed=-4), 2**40)
        random_blind_channel((2, 3), 3, seed=2**64 - 1, index=9)
        maximize_witness("w", SamplerConfig(sites=(2, 2, 2), seed=5), 4)
        sample_branch(branches, seed=2**63, index=3)


# ---------------------------------------------------------------------------
# random blind channels
# ---------------------------------------------------------------------------


def test_random_blind_channel_reproducible():
    a = random_blind_channel((2, 2), 3, seed=5)
    b = random_blind_channel((2, 2), 3, seed=5)
    assert a == b
    assert len(a.terms) == 3
    assert sum(t.p for t in a.terms) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# witness maximization
# ---------------------------------------------------------------------------


def test_maximize_epr_stays_at_zero():
    cfg = SamplerConfig(sites=(2, 2), seed=1)
    val, state = maximize_witness("epr", cfg, 100)
    assert val <= 1e-9
    assert state.sites == (2, 2)
    # the returned state must actually achieve the reported value
    assert witness_epr(state).lhs == pytest.approx(val, abs=1e-12)


def test_maximize_w_approaches_the_bound():
    cfg = SamplerConfig(sites=(2, 2, 2), seed=4)
    val, state = maximize_witness("w", cfg, 300)
    assert val <= 0.5 + 1e-9
    assert val >= 0.5 - 1e-3
    assert witness_w(state).lhs == pytest.approx(val, abs=1e-12)


def test_maximize_ghz_biseparable_bound():
    cfg = SamplerConfig(sites=(2, 2, 2), seed=8)
    val, _ = maximize_witness("ghz", cfg, 100)
    assert abs(val) <= 1e-9


def test_maximize_qudit_bound():
    cfg = SamplerConfig(sites=(3, 3), seed=12)
    val, _ = maximize_witness("qudit", cfg, 80)
    assert val <= 1e-9


def test_maximize_unknown_kind():
    with pytest.raises(ValueError):
        maximize_witness("chsh", SamplerConfig(sites=(2, 2)), 10)


def test_maximize_scores_each_probe_once(monkeypatch):
    calls = []
    pure_lhs = oracle._pure_lhs

    def counted(*args):
        calls.append(args[0])
        return pure_lhs(*args)

    monkeypatch.setattr(oracle, "_pure_lhs", counted)
    # epr on (2, 2): two qubit factors, one angle and one phase each, so P = 4
    # coordinates; a golden-section search makes 2 + 48 = 50 probes
    iters = 3
    maximize_witness("epr", SamplerConfig(sites=(2, 2), seed=1), iters)
    assert len(calls) == iters + min(oracle.REFINE_TOP, iters) * oracle.SWEEPS * 4 * 50 == 1803


@pytest.mark.parametrize(
    "witness, cfg, iters, value, digest",
    [
        ("epr", SamplerConfig(sites=(2, 2), seed=1), 5, "0x1.0000000000000p-51",
         "0f40f96f64258034ea3840ae98f81a38b53973753d8971cb0c9ece218d349486"),
        ("qudit", SamplerConfig(sites=(3, 3), seed=7), 5, "0x1.0000000000000p-51",
         "d9af5b7a74f4021ec974de3d60b5e393881d0ba4f3abd83f8065068be7d0dd15"),
        ("ghz", SamplerConfig(sites=(2, 2, 2, 2), seed=3), 4, "0x1.0000000000000p-52",
         "0f30203fd1edcbbc30f6a8269916cecddd29d3626673990d8e91053a71a87c9c"),
        ("w", SamplerConfig(sites=(2, 2, 2), seed=7, partition=(1, 3)), 6, "0x1.fffffb333d158p-2",
         "7d344a337cb033656ce2c75c0ffbc66790aa027bbf279fab0cd00de634e5f396"),
    ],
    ids=["epr", "qudit", "ghz4", "w-partition"],
)
def test_maximize_result_is_pinned(witness, cfg, iters, value, digest):
    """Fixed searches give pinned values and state bytes, so any move of the
    starts, the sweep order or the acceptance rule shows here."""
    val, state = maximize_witness(witness, cfg, iters)
    assert val.hex() == value
    assert hashlib.sha256(state.mat.tobytes()).hexdigest() == digest


def test_structure_table_is_built_once():
    table = oracle._blocks_for("biseparable", (2, 3, 2), None)
    assert oracle._blocks_for("biseparable", (2, 3, 2), None) is table
    assert table[1] == (((1, 2), 6), ((3,), 2))
    assert oracle._blocks_for("separable", (2, 3), (1,)) == ((((1,), 2), ((2,), 3)),)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([("epr", None, None), ("ghz", 3, None), ("ghz", 4, None), ("w", None, None),
                     ("qudit", 2, 3), ("qudit", 3, 3), ("qudit", 2, 4)]),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
)
def test_separable_sets_never_cross_the_bound(family, terms, seed, iters):
    name, n, d = family
    fam = witness_family(name)
    cfg = SamplerConfig(sites=fam.sites(n, d), terms=terms, seed=seed)
    sampler = sample_separable if fam.sampler == "separable" else sample_biseparable
    for i in range(5):
        assert fam.witness(sampler(cfg, i)).lhs <= fam.bound + 1e-9
    val, state = maximize_witness(name, cfg, iters)
    assert val <= fam.bound + 1e-9
    assert fam.witness(state).lhs <= fam.bound + 1e-9


# ---------------------------------------------------------------------------
# PPT
# ---------------------------------------------------------------------------


def test_partial_transpose_involution():
    rho = werner_mix(epr_state(0.8), 0.7)
    pt = partial_transpose(rho, (2,))
    # transposing the site-2 indices a second time restores the original
    again = pt.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    assert np.array_equal(again, rho.mat)
    assert np.allclose(
        partial_transpose(rho, (2,)).conj(), partial_transpose(rho, (1,))
    )
    assert np.allclose(pt, pt.conj().T)


def test_ppt_check_detects_bell_pair():
    rep = ppt_check(epr_state(np.pi / 4))
    assert rep.npt and rep.verdict == "NPT"
    assert rep.exact
    assert rep.min_eigenvalue == pytest.approx(-0.5)


def test_ppt_check_werner_threshold():
    rho = epr_state(np.pi / 4)
    assert not ppt_check(werner_mix(rho, 1.0 / 3.0)).npt
    assert ppt_check(werner_mix(rho, 0.34)).npt


def test_ppt_exact_flag_by_dimension():
    assert ppt_check(epr_state(0.4)).exact
    assert not ppt_check(ghz_state(3, 0.4), subset=(3,)).exact


def test_ppt_werner_bisection():
    rho = epr_state(np.pi / 4)
    thr = bisect_threshold(
        lambda v: ppt_check(werner_mix(rho, v)).npt, 0.0, 1.0, tol=1e-10
    )
    assert thr == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_bisect_threshold_validates_bracket():
    with pytest.raises(ValueError):
        bisect_threshold(lambda v: True, 0.0, 1.0)
    with pytest.raises(ValueError):
        bisect_threshold(lambda v: False, 0.0, 1.0)
