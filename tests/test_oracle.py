"""Sampler soundness, witness maximization, PPT checks, bisection."""

from __future__ import annotations

import hashlib
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qew import oracle, witnesses, zkp
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
from qew.qmat import uniforms
from qew.states import (
    MAX_DIM, StateSpec, epr_state, family_basis, family_sites, ghz_state, werner_mix,
)
from qew.witnesses import (
    witness_epr,
    witness_family,
    witness_ghz,
    witness_qudit,
    witness_w,
)
from qew.zkp import HonestStrategy, run_protocol


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


def test_sampler_config_refuses_oversized_sites_and_repeated_partition_sites():
    # refused at construction, before any draw is sized from the dimension
    with pytest.raises(ValueError, match=f"dimension budget exceeded: .* exceed {MAX_DIM}"):
        SamplerConfig(sites=(2,) * 30)
    SamplerConfig(sites=(2,) * 12)  # 4096, at the budget
    with pytest.raises(ValueError, match="partition must be a nonempty proper subset of sites"):
        SamplerConfig(sites=(2, 2, 2), partition=(1, 1))


def test_sampler_config_refuses_non_integer_sites_and_terms():
    with pytest.raises(ValueError, match="sites must be a tuple"):
        SamplerConfig(sites=[2, 2])
    with pytest.raises(ValueError, match="'sites' must be an integer, got 2.5"):
        SamplerConfig(sites=(2.5, 2))
    with pytest.raises(ValueError, match="'terms' must be an integer, got 2.5"):
        SamplerConfig(sites=(2, 2), terms=2.5)
    with pytest.raises(ValueError, match="'terms' must be an integer, got True"):
        SamplerConfig(sites=(2, 2), terms=True)
    assert SamplerConfig(sites=(2.0, np.int64(3)), terms=2.0) == SamplerConfig(sites=(2, 3), terms=2)


def test_sampler_refuses_non_integer_seeds_and_indices(monkeypatch):
    with pytest.raises(ValueError, match="'seed' must be an integer, got 1.5"):
        SamplerConfig(sites=(2, 2), seed=1.5)
    cfg = SamplerConfig(sites=(2, 2), terms=2, seed=3.0)
    assert cfg == SamplerConfig(sites=(2, 2), terms=2, seed=3)
    for sample in (sample_separable, sample_biseparable):
        with pytest.raises(ValueError, match="'index' must be an integer, got 0.5"):
            sample(cfg, 0.5)
        assert np.array_equal(sample(cfg, 2.0).mat, sample(cfg, np.int64(2)).mat)
    monkeypatch.setattr(oracle, "uniforms", _no_draws)
    with pytest.raises(ValueError, match="'index' must be an integer, got 0.5"):
        random_blind_channel((2, 2), 2, 1, index=0.5)
    with pytest.raises(ValueError, match="'seed' must be an integer, got 1.5"):
        random_blind_channel((2, 2), 2, 1.5)


def _no_draws(*args):
    raise AssertionError("a draw was made")


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_library_seeds_outside_64_bits_are_refused(monkeypatch, seed):
    # the random source reads a seed mod 2^64, so -1 would draw the stream of
    # 2^64 - 1 and 2^64 that of 0; each reader refuses both before any draw
    monkeypatch.setattr(oracle, "uniforms", _no_draws)
    monkeypatch.setattr(zkp, "uniforms", _no_draws)
    for call in (lambda: SamplerConfig(sites=(2, 2), seed=seed),
                 lambda: random_blind_channel((2, 2), 2, seed),
                 lambda: run_protocol(HonestStrategy(StateSpec("epr", theta=0.7)), 50, seed)):
        with pytest.raises(ValueError, match=rf"seed must be an integer in 0\.\.{2**64 - 1}"):
            call()
    assert SamplerConfig(sites=(2, 2), seed=2**64 - 1).seed == 2**64 - 1


def test_sampler_config_reads_partition_as_integer_tuple():
    with pytest.raises(ValueError, match=r"partition must be a tuple, got \[1\]"):
        SamplerConfig(sites=(2, 2), partition=[1])
    with pytest.raises(ValueError, match="'partition' must be an integer, got 1.5"):
        SamplerConfig(sites=(2, 2), partition=(1.5,))
    cfg = SamplerConfig(sites=(2, 2), terms=2, seed=4, partition=(1.0,))
    assert cfg.partition == (1,) and type(cfg.partition[0]) is int
    want = sample_biseparable(SamplerConfig(sites=(2, 2), terms=2, seed=4, partition=(1,)), 3)
    assert np.array_equal(sample_biseparable(cfg, 3).mat, want.mat)


@pytest.mark.parametrize(
    "sites, terms, match",
    [((2.5, 2), 2, "'sites' must be an integer"), ((1, 2), 2, "dimension >= 2"),
     ((), 2, "one or more sites"), ((2,) * 13, 1, "budget"),
     ((2, 2), 0, "terms must be in"), ((2, 2), 10**12, "terms must be in"),
     ((2, 2), 2.5, "'terms' must be an integer")],
)
def test_random_blind_channel_refuses_sizes_before_drawing(monkeypatch, sites, terms, match):
    monkeypatch.setattr(oracle, "uniforms", _no_draws)
    with pytest.raises(ValueError, match=match):
        random_blind_channel(sites, terms, 1)


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


def _partial_trace(rho, keep):
    """The reduced matrix of ``rho`` on the 1-based sites in ``keep``."""
    n = rho.n_sites
    t = rho.mat.reshape(rho.sites * 2)
    # highest site first, so the axis numbers of the lower sites stay valid
    for p in sorted(set(range(1, n + 1)) - set(keep), reverse=True):
        t = np.trace(t, axis1=p - 1, axis2=t.ndim // 2 + p - 1)
    dim = int(np.prod([rho.sites[k - 1] for k in keep]))
    return t.reshape(dim, dim)


def test_biseparable_terms_draw_every_bipartition():
    # one term: a pure state, product exactly across the bipartition it drew
    cfg = SamplerConfig(sites=(2, 2, 2, 2), terms=1, seed=29)
    seen = set()
    for i in range(200):
        rho = sample_biseparable(cfg, i)
        for block in all_bipartitions(4):
            red = _partial_trace(rho, block)
            if np.trace(red @ red).real > 1.0 - 1e-9:
                seen.add(block)
    assert seen == set(all_bipartitions(4))


def test_draws_raise_no_runtime_warning():
    # the premise: numpy scalar uint64 arithmetic warns when it wraps
    with pytest.warns(RuntimeWarning, match="overflow"):
        np.uint64(2**63) * np.uint64(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        uniforms(2**63 + 5, 2**40, 3)
        sample_separable(SamplerConfig(sites=(2, 3), terms=3, seed=2**63 + 5), 7)
        sample_biseparable(SamplerConfig(sites=(2, 2, 2), terms=3, seed=2**64 - 4), 2**40)
        random_blind_channel((2, 3), 3, seed=2**64 - 1, index=9)
        maximize_witness("w", SamplerConfig(sites=(2, 2, 2), seed=5), 4)


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


@pytest.mark.parametrize(
    "witness, sites, seed, value, digest",
    [
        ("epr", (2, 2), 1, "0x1.0000000000000p-52",
         "e18f7abc4c1e279fd6882457bcd8f9b7f235a0a088c15e8c3eeaf6f396c7bed5"),
        ("epr", (2, 2), 1_000_003, "0x1.0000000000000p-51",
         "8d8f5124a5d99cecb5b4434d259c8aa40e5f8319f67e160362a01d05aabdf9c7"),
        ("epr", (2, 2), 2**63 + 5, "0x1.8000000000000p-51",
         "45d97bad072637ca61ef10d3d1a24401d66dd43d5cca1b2f93d793796805bb42"),
        ("qudit", (3, 3), 1, "0x0.0p+0",
         "81fb788adafe23b14dab6e1da4bad1961d53cbab6b727f1ef5a686a79716cbb6"),
        ("qudit", (3, 3), 1_000_003, "0x0.0p+0",
         "c959d52f50bd0459f7f9fce1e4900423a28072dbe0277d91c4b490a76eaa1060"),
        ("qudit", (3, 3), 2**63 + 5, "0x0.0p+0",
         "ff85da5c9cf48216a8f4358d97fb71c235bb7d919878ee4a4815d41b75703ccb"),
        ("ghz", (2, 2, 2, 2), 1, "0x0.0p+0",
         "b5d939badc8ef0f65c7dbc8a8f1aeeb82cdc02270e47e96f4fdec3fc4cf9073c"),
        ("ghz", (2, 2, 2, 2), 1_000_003, "-0x1.0000000000000p-53",
         "51bf3d0c349636b8694e1fd40e8eb5dd4b956069c378a1d187578e6d7b7416c1"),
        ("ghz", (2, 2, 2, 2), 2**63 + 5, "-0x1.0000000000000p-52",
         "c61bd1e4a0680d95ddd82f36c7265025eccbd5ca75cb3c19a3e50b055a3fdc61"),
    ],
)
def test_one_start_searches_are_pinned(witness, sites, seed, value, digest):
    """The one-start searches ``qew oracle --iters 1`` runs for the
    oracle-samples benchmark classes, pinned like the searches above."""
    val, state = maximize_witness(witness, SamplerConfig(sites=sites, terms=4, seed=seed), 1)
    assert val.hex() == value
    assert hashlib.sha256(state.mat.tobytes()).hexdigest() == digest


def test_search_sets_are_the_families():
    # cmd_oracle indexes the set table by family, and the search takes no other name
    assert set(oracle._WITNESS_SET) == set(witnesses.FAMILY_NAMES)


def _no_scoring(*args):
    raise AssertionError("a start was scored")


@pytest.mark.parametrize(
    "witness, family, sites",
    [("epr", "epr", (2, 2, 2)), ("ghz", "ghz", (3, 3, 3)), ("qudit", "qudit", (2, 3)),
     ("w", "w", (2, 2))],
)
def test_search_refuses_the_sites_its_family_refuses(monkeypatch, witness, family, sites):
    """The search reads its family's basis, so it refuses the sites that basis
    refuses, with its error, before it scores a start."""
    with pytest.raises(ValueError) as refusal:
        family_basis(family, sites)
    monkeypatch.setattr(oracle, "_pure_lhs", _no_scoring)
    with pytest.raises(ValueError, match=re.escape(str(refusal.value))):
        maximize_witness(witness, SamplerConfig(sites=sites), 1)


def test_search_reads_iters_as_an_integer(monkeypatch):
    cfg = SamplerConfig(sites=(2, 2), seed=3)
    assert maximize_witness("epr", cfg, 2.0)[0] == maximize_witness("epr", cfg, 2)[0]
    monkeypatch.setattr(oracle, "_pure_lhs", _no_scoring)
    for iters in (2.5, True, "2"):
        with pytest.raises(ValueError, match="'iters' must be an integer"):
            maximize_witness("epr", cfg, iters)


def test_search_budget_is_checked_before_scoring(monkeypatch):
    monkeypatch.setattr(oracle, "_pure_lhs", _no_scoring)
    with pytest.raises(ValueError, match=f"search budget exceeded: .* exceed {oracle.MAX_ITERS}"):
        maximize_witness("epr", SamplerConfig(sites=(2, 2)), oracle.MAX_ITERS + 1)


def _scalar_angles_to_vector(thetas, phases):
    """Reference block vector: one angle at a time, with scalar sines and
    cosines and a running product."""
    dim = thetas.size + 1
    v = np.empty(dim, dtype=complex)
    run = 1.0
    for k in range(dim - 1):
        v[k] = run * np.cos(thetas[k])
        run *= np.sin(thetas[k])
    v[dim - 1] = run
    v[1:] *= np.exp(1j * phases)
    return v


def _full_vector(structure, x, sites):
    """The whole D-vector of the product state at search point ``x``."""
    vecs, at = [], 0
    for blk, d in structure:
        vecs.append((blk, _scalar_angles_to_vector(x[at : at + d - 1], x[at + d - 1 : at + 2 * d - 2])))
        at += 2 * d - 2
    return oracle._assemble_product(vecs, sites)


def _full_lhs(kind, vec, sites):
    """Each witness read straight from the full D-vector."""
    if kind in ("epr", "ghz"):
        a, b = vec[0], vec[-1]
        return 2.0 * abs(a * b) + abs(a) ** 2 + abs(b) ** 2 - 1.0
    if kind == "w":
        p = vec
        return float(abs(p[1] * p[7]) + abs(p[2] * p[4]) + abs(p[1] * p[2]) + abs(p[4] * p[7]))
    d = sites[0]
    amps = np.array([vec[np.ravel_multi_index((j,) * len(sites), sites)] for j in range(d)])
    mods = np.abs(amps)
    off = (mods.sum() ** 2 - (mods**2).sum()) / 2.0
    return float(2.0 * off + (mods**2).sum() - 1.0)


# ghz on five qubits has a 16-dimensional block, a long run of sines; qudit
# on (8, 8) sums 8 moduli, where numpy's sum is no longer left to right.
_SEARCHES = [("epr", (2, 2)), ("ghz", (2, 2, 2)), ("ghz", (2, 2, 2, 2)), ("ghz", (2, 2, 2, 2, 2)),
             ("w", (2, 2, 2)), ("qudit", (2, 2)), ("qudit", (3, 3)), ("qudit", (3, 3, 3)),
             ("qudit", (4, 4)), ("qudit", (8, 8))]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_SEARCHES), st.data())
def test_probe_is_bit_exact(search, data):
    """A probe rebuilds one block and reads a few amplitudes; its value must
    equal, bit for bit, the value read from the whole product vector."""
    witness, sites = search
    structures = oracle._blocks_for(oracle._WITNESS_SET[witness], sites, None)
    structure = data.draw(st.sampled_from(structures))
    his = np.concatenate([np.repeat((np.pi / 2.0, 2.0 * np.pi), d - 1) for _, d in structure])
    # a seeded point in the range, a few coordinates moved to an end of theirs
    fracs = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).random(his.size + 1)
    ends = data.draw(st.dictionaries(st.integers(0, his.size - 1), st.sampled_from([0.0, 1.0]), max_size=3))
    x = his * [ends.get(i, f) for i, f in enumerate(fracs[:-1])]
    table, slices = oracle._read_table(witness, structure, sites), oracle._block_slices(structure)
    parts = [oracle._angles_to_vector(x[sl])[t] for sl, t in zip(slices, table)]
    start = oracle._pure_lhs(witness, oracle._multiply_out(parts))
    assert _bits(start) == _bits(_full_lhs(witness, _full_vector(structure, x, sites), sites))
    # every coordinate, moved to one point of its range
    v = data.draw(st.sampled_from([fracs[-1], 0.0, 1.0]))
    for b, sl in enumerate(slices):
        for k in range(sl.stop - sl.start):
            y = x.copy()
            y[sl.start + k] = v * his[sl.start + k]
            got = oracle._probe(witness, table, parts, b, x[sl], k)(y[sl.start + k])
            assert _bits(got) == _bits(_full_lhs(witness, _full_vector(structure, y, sites), sites))
    # the returned state is built from the whole vector, bit for bit as before
    assert oracle._product_vector(structure, x, sites).tobytes() == _full_vector(structure, x, sites).tobytes()


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def test_probe_rebuilds_only_its_block(monkeypatch):
    counts = {"assemble": 0, "blocks": 0, "probes": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(oracle, "_assemble_product", counted("assemble", oracle._assemble_product))
    monkeypatch.setattr(oracle, "_angles_to_vector", counted("blocks", oracle._angles_to_vector))
    monkeypatch.setattr(oracle, "_pure_lhs", counted("probes", oracle._pure_lhs))
    # qudit on (3, 3, 3): three blocks of dimension 3, four coordinates each
    iters, blocks, coords = 2, 3, 12
    refined = min(oracle.REFINE_TOP, iters)
    maximize_witness("qudit", SamplerConfig(sites=(3, 3, 3), seed=2), iters)
    # the whole vector is assembled once, for the returned state
    assert counts["assemble"] == 1
    line_probes = refined * oracle.SWEEPS * coords * 50
    assert counts["probes"] == iters + line_probes
    # no line probe builds a block: blocks are built for each start, each
    # refined start and the returned state, and once per accepted move (at
    # most one per line search)
    overhead = (iters + refined + 1) * blocks + refined * oracle.SWEEPS * coords
    assert counts["blocks"] <= overhead


def test_structure_table_is_built_once():
    table = oracle._blocks_for("biseparable", (2, 3, 2), None)
    assert oracle._blocks_for("biseparable", (2, 3, 2), None) is table
    assert table[1] == (((1, 2), 6), ((3,), 2))
    assert oracle._blocks_for("separable", (2, 3), (1,)) == ((((1,), 2), ((2,), 3)),)


# The seven families and shapes the bound properties run over.
_FAMILIES = [("epr", None, None), ("ghz", 3, None), ("ghz", 4, None), ("w", None, None),
             ("qudit", 2, 3), ("qudit", 3, 3), ("qudit", 2, 4)]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(_FAMILIES),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
)
def test_separable_sets_never_cross_the_bound(family, terms, seed, iters):
    name, n, d = family
    fam = witness_family(name)
    cfg = SamplerConfig(sites=family_sites(name, n, d), terms=terms, seed=seed)
    sampler = sample_separable if oracle._WITNESS_SET[name] == "separable" else sample_biseparable
    for i in range(5):
        assert fam.witness(sampler(cfg, i)).lhs <= fam.bound + 1e-9
    val, state = maximize_witness(name, cfg, iters)
    assert val <= fam.bound + 1e-9
    assert fam.witness(state).lhs <= fam.bound + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_FAMILIES),
    st.integers(1, oracle.MAX_TERMS),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**64 - 41),
    st.integers(1, 40),
)
# numpy sums 8 or more terms in an unrolled order, so those must be covered
@example(("qudit", 2, 3), 8, 1, 0, 12)
@example(("ghz", 4, None), 16, 2**64 - 1, 2**64 - 41, 40)
def test_block_path_equals_per_index_path(family, terms, seed, start, length):
    name, n, d = family
    fam = witness_family(name)
    cfg = SamplerConfig(sites=family_sites(name, n, d), terms=terms, seed=seed)
    sampler = sample_separable if oracle._WITNESS_SET[name] == "separable" else sample_biseparable
    indices = np.arange(start, start + length, dtype=np.uint64)
    stack = oracle._sample_block(oracle._WITNESS_SET[name], cfg, indices)
    lhs = fam.lhs(stack, cfg.sites)
    assert stack.shape == (length, *(2 * (np.prod(cfg.sites),)))
    for j, i in enumerate(indices.tolist()):
        rho = sampler(cfg, i)
        assert np.array_equal(stack[j], rho.mat)
        assert lhs[j] == fam.witness(rho).lhs


@pytest.mark.parametrize(
    "name, sites, terms, seed, mats, lhs",
    [
        ("epr", (2, 2), 4, 1,
         "c57394c3bd7d2084f49df068a0c4acae714e195e8e448db62b5527565ebdba69",
         "522f3e8af333abe0f5b4972363eac3419c676fa8fbe9eaa4bdc9373562e67fc6"),
        ("qudit", (3, 3), 16, 2**64 - 1,
         "da89551abcfd47c53faacf52fdf51d21a9f8e5177bcdc12c0bb223e45980cc2c",
         "007f096997db344c1db8875494b53c5dfbb6627e52c7fcebc6a979cd48b941e8"),
        ("ghz", (2, 2, 2, 2), 9, 7,
         "aaae6f3ca3cdd85b9ea3ff27ff75700d1712659676bf5a5428c76d2b500e4d6b",
         "c9eddadf0037d983350a349a7641465eecd077d47807ab9f9e88408ce657a994"),
        ("w", (2, 2, 2), 8, 3,
         "a28138a25ab1c69972f72ed9247f12a15fb715a7c333eb68abde7d312d1f8ecf",
         "13f1db4cf6d033bd6f0fcc4fae3cfa750d3f119ad038e0b6b8ff64fa3f058046"),
    ],
    ids=["epr", "qudit", "ghz4", "w"],
)
def test_sample_stream_is_pinned(name, sites, terms, seed, mats, lhs):
    """Samples 0..19 and their witness values, pinned to the bit: a change to
    the draws, their order, the mixing or a witness's rounding shows here."""
    fam = witness_family(name)
    cfg = SamplerConfig(sites=sites, terms=terms, seed=seed)
    sampler = sample_separable if oracle._WITNESS_SET[name] == "separable" else sample_biseparable
    rhos = [sampler(cfg, i) for i in range(20)]
    assert hashlib.sha256(b"".join(r.mat.tobytes() for r in rhos)).hexdigest() == mats
    values = np.array([fam.witness(r).lhs for r in rhos])
    assert hashlib.sha256(values.tobytes()).hexdigest() == lhs
    assert np.array_equal(fam.lhs(oracle._sample_block(oracle._WITNESS_SET[name], cfg, np.arange(20, dtype=np.uint64)), sites), values)


def test_block_rule_bounds_every_dimension():
    # a block exceeds the budget only when one sample does
    for dim in range(2, MAX_DIM + 1):
        for terms in (1, oracle.MAX_TERMS):
            b = oracle.block_length(SamplerConfig(sites=(dim,), terms=terms))
            assert b >= 1
            assert b == 1 or b * dim * max(dim, 2 * terms) <= oracle.BLOCK_ENTRIES
            assert b * dim * dim <= max(oracle.BLOCK_ENTRIES, dim * dim)


def test_block_names_the_failing_sample(monkeypatch):
    dirichlet = oracle._dirichlet

    def heavy_third(u):
        w = dirichlet(u)
        w[2] *= 1.5  # the third sample of the block no longer has unit trace
        return w

    monkeypatch.setattr(oracle, "_dirichlet", heavy_third)
    cfg = SamplerConfig(sites=(2, 2), terms=3, seed=4)
    with pytest.raises(ValueError, match=r"^sample 12: trace is \(1\.5"):
        oracle._sample_block("separable", cfg, np.arange(10, 15, dtype=np.uint64))


def test_negative_sample_index_is_refused():
    cfg = SamplerConfig(sites=(2, 2), terms=2)
    with pytest.raises(OverflowError):
        sample_separable(cfg, -1)
    with pytest.raises(OverflowError):
        sample_separable(cfg, 2**64)


def _alone(shape, cfg, i):
    """Sample ``i`` drawn as a block of one."""
    return oracle._sample_block(shape, cfg, np.array([i], dtype=np.uint64))[0]


@pytest.mark.parametrize("block", [oracle.SAMPLE_BLOCK, 7, 1])
def test_per_index_samples_are_read_from_their_block(monkeypatch, block):
    monkeypatch.setattr(oracle, "SAMPLE_BLOCK", block)
    oracle._block.cache_clear()
    sep = SamplerConfig(sites=(2, 3), terms=3, seed=424242 + block)
    bis = SamplerConfig(sites=(2, 2, 2), terms=2, seed=424242 + block)
    # across block edges, backwards, and interleaving two live blocks
    indices = [0, 1, block - 1, block, block + 1, 3 * block + 2, block - 1, 2**64 - 1, 2**64 - 2, 5]
    for i in indices:
        for shape, cfg, sampler in (("separable", sep, sample_separable), ("biseparable", bis, sample_biseparable)):
            rho = sampler(cfg, i)
            assert rho.mat.tobytes() == _alone(shape, cfg, i).tobytes()
            assert rho.sites == cfg.sites
            assert not rho.mat.flags.writeable  # a caller cannot write into the block
    kept = oracle._block.cache_info()
    if block == 1:
        # no block of one is kept: LIVE_BLOCKS samples of D = 4096 would pin 1 GB
        assert kept.currsize == kept.hits == kept.misses == 0
    else:
        assert kept.currsize == oracle.LIVE_BLOCKS
        sample_separable(sep, 5)  # index 5 is back in the first block, which is kept
        assert oracle._block.cache_info()[:2] == (kept.hits + 1, kept.misses)


def test_per_index_sampler_draws_one_block_per_block(monkeypatch):
    calls = []

    def counted(shape, cfg, indices):
        calls.append((int(indices[0]), len(indices)))
        return block(shape, cfg, indices)

    block = oracle._sample_block
    monkeypatch.setattr(oracle, "_sample_block", counted)
    cfg = SamplerConfig(sites=(2, 2), terms=4, seed=515151)
    b = oracle.SAMPLE_BLOCK
    for i in range(2 * b + 1):
        sample_separable(cfg, i)
    assert calls == [(0, b), (b, b), (2 * b, b)]
    # the block rule's own cap: (3, 3, 3, 3, 3) holds 35 samples a block
    big = SamplerConfig(sites=(3,) * 5, terms=1, seed=515151)
    assert oracle.block_length(big) == 35
    sample_separable(big, 36)
    assert calls[-1] == (35, 35)


def test_threads_sharing_live_blocks_read_the_right_samples(monkeypatch):
    # one slot per (shape, cfg) is shared, and each thread walks the indices
    # from its own point in blocks of 3, so the threads keep replacing each
    # other's block; every row a thread hands out must still be its index's
    monkeypatch.setattr(oracle, "SAMPLE_BLOCK", 3)
    cfg = SamplerConfig(sites=(2, 2), terms=2, seed=717171)
    keys = list(range(600))
    want = {i: _alone("separable", cfg, i).tobytes() for i in keys}
    bad = []

    def worker(w):
        at = w * len(keys) // 6
        for i in keys[at:] + keys[:at]:
            if sample_separable(cfg, i).mat.tobytes() != want[i]:
                bad.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_a_faulty_neighbour_does_not_refuse_a_sample(monkeypatch):
    draw = oracle.uniforms

    def nan_at_12(seed, index, stream):
        # NaN amplitude draws for sample 12: each term of a (2, 2) sample
        # reads 10 draws, its weight and pick first
        u = draw(seed, index, stream)
        u[(np.asarray(index) == 12) & (np.asarray(stream) % 10 >= 2)] = np.nan
        return u

    cfg = SamplerConfig(sites=(2, 2), terms=3, seed=616161)
    want = _alone("separable", cfg, 10)
    monkeypatch.setattr(oracle, "uniforms", nan_at_12)
    with np.errstate(invalid="ignore"):  # 0/0 normalizing sample 12's NaN vectors
        assert sample_separable(cfg, 10).mat.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match=r"^sample 12: "):
            sample_separable(cfg, 12)


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


@pytest.mark.parametrize("subset", [(1, 2), (), (3,), (2, 2)])
def test_ppt_check_refuses_a_subset_that_is_not_a_cut(subset):
    """Transposing every site or none keeps the spectrum, so a PPT reading
    there certifies nothing: a Bell pair is refused, not called PPT."""
    with pytest.raises(ValueError, match="subset must be a nonempty proper subset of sites"):
        ppt_check(epr_state(np.pi / 4), subset)


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
    # a reversed, empty or NaN bracket is refused before the predicate runs;
    # reversed, this predicate is False at lo and True at hi but switches at 0.3
    calls = []

    def detected(v):
        calls.append(v)
        return v < 0.3

    for lo, hi in ((1.0, 0.0), (0.5, 0.5), (np.nan, 1.0), (0.0, np.nan)):
        with pytest.raises(ValueError, match="need lo < hi"):
            bisect_threshold(detected, lo, hi)
    assert not calls


def test_bisect_threshold_tolerance():
    calls = []

    def detected(v):
        calls.append(v)
        assert len(calls) < 2000, "bisection does not terminate"
        return v > 0.3

    for tol in (np.nan, 0.0, -1e-9, np.inf):
        with pytest.raises(ValueError, match="tol must be a finite positive number"):
            bisect_threshold(detected, 0.0, 1.0, tol=tol)
    assert not calls  # refused before the predicate runs
    # a tolerance below one ulp ends where lo and hi are adjacent floats
    thr = bisect_threshold(detected, 0.0, 1.0, tol=1e-30)
    assert abs(thr - 0.3) <= np.spacing(0.3)
    assert len(calls) < 100
