"""Kernel tests: operators, density validation, measurement, index maps."""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qew.qmat as qmat
from qew.qmat import (
    BELL_LABELS,
    DensityMatrix,
    all_outcome_bits,
    apply_local_unitaries,
    as_density,
    basis_index,
    bell_basis,
    clock_op,
    expectation,
    joint_measure_two_sites,
    obs,
    pauli,
    plusminus_basis,
    pure_density,
    realize_observable,
    shift_op,
    site_operator,
    tensor_product,
    uniforms,
)


def bell_phi_plus() -> DensityMatrix:
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    return pure_density(v, (2, 2))


# ---------------------------------------------------------------------------
# local operators
# ---------------------------------------------------------------------------


def test_pauli_algebra():
    x, y, z = pauli("X"), pauli("Y"), pauli("Z")
    assert np.allclose(x @ x, np.eye(2))
    assert np.allclose(x @ y - y @ x, 2j * z)
    with pytest.raises(ValueError):
        pauli("Q")


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_shift_clock_weyl_relations(d):
    s, c = shift_op(d), clock_op(d)
    assert np.allclose(np.linalg.matrix_power(s, d), np.eye(d))
    assert np.allclose(np.linalg.matrix_power(c, d), np.eye(d))
    # clock . shift = w * shift . clock
    w = np.exp(2j * np.pi / d)
    assert np.allclose(c @ s, w * s @ c)


def test_qubit_limits_of_shift_clock():
    assert np.allclose(shift_op(2), pauli("X"))
    assert np.allclose(clock_op(2), pauli("Z"))


def test_site_operator_powers_wrap():
    assert np.allclose(site_operator("clock", 3, power=3), np.eye(3))
    assert np.allclose(site_operator("shift", 3, power=4), shift_op(3))
    with pytest.raises(ValueError):
        site_operator("X", 3)


def test_tensor_product_order():
    # left factor most significant: Z (x) I acts on the first site
    zi = tensor_product(pauli("Z"), np.eye(2))
    assert zi[3, 3] == -1  # |11> picks up the first site's -1
    assert zi[1, 1] == 1


# ---------------------------------------------------------------------------
# density construction
# ---------------------------------------------------------------------------


def test_as_density_validates():
    ok = as_density(np.diag([0.5, 0.5, 0.0, 0.0]), (2, 2))
    assert ok.dim == 4 and ok.n_sites == 2

    with pytest.raises(ValueError, match="[Hh]ermitian"):
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        m[0, 1] = 0.3
        as_density(m, (2, 2))
    with pytest.raises(ValueError, match="trace"):
        as_density(np.diag([0.5, 0.4, 0.0, 0.0]), (2, 2))
    with pytest.raises(ValueError):
        as_density(np.diag([1.5, -0.5, 0.0, 0.0]), (2, 2))
    with pytest.raises(ValueError):
        as_density(np.eye(4) / 4.0, (2, 3))
    # any NaN or inf entry, on or off the diagonal, is refused by name
    for value in (np.nan, np.inf, -np.inf, complex(np.inf, np.inf), complex(0.0, np.nan)):
        for pos in ((0, 0), (0, 1), (3, 2)):
            m = np.eye(4, dtype=complex) / 4.0
            m[pos] = value
            # the refusal is the only signal: no RuntimeWarning from inf - inf
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="finite"):
                    as_density(m, (2, 2))


def test_a_stack_is_checked_as_its_matrices_one_by_one():
    def refusal(m):
        try:
            as_density(m, (2, 2))
        except ValueError as exc:
            return str(exc)
        return None

    good = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    herm = good.copy()
    herm[0, 1] = 0.3
    bad = {
        "finite": good + np.diag([np.nan, 0, 0, 0]),
        "herm": herm,
        "trace": np.diag([0.5, 0.4, 0.0, 0.0]).astype(complex),
        "psd": np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex),
    }
    # one matrix: the messages as_density always gave
    assert refusal(herm) == "matrix is not Hermitian (max deviation 3.000e-01)"
    assert refusal(bad["trace"]) == "trace is (0.9+0j), expected 1"
    assert refusal(bad["psd"]) == "matrix is not PSD (min eigenvalue -5.000e-01)"
    assert refusal(bad["finite"]) == "matrix entries must be finite"
    # a stack names the matrix, and the reason, a one-by-one check stops at
    # first, whichever kinds of fault sit behind it
    for first, later in itertools.permutations(bad, 2):
        for at in range(4):
            stack = np.array([good] * 6)
            stack[at], stack[at + 2] = bad[first], bad[later]
            assert qmat._density_fault(stack) == (at, refusal(bad[first]))
    assert qmat._density_fault(np.array([good] * 3)) is None


def test_pure_density_norm_check():
    with pytest.raises(ValueError, match="norm"):
        pure_density(np.array([1.0, 1.0]), (2,))
    for bad in ([np.nan, 0.0, 0.0, 1.0], [np.inf, 0.0, 0.0, 1.0]):
        with pytest.raises(ValueError, match="norm"):
            pure_density(np.array(bad), (2, 2))


def test_flags_carried():
    r = as_density(np.eye(2) / 2, (2,), flags=("boundary",))
    assert "boundary" in r.flags
    r2 = r.with_flags("extra")
    assert set(r2.flags) == {"boundary", "extra"}


# ---------------------------------------------------------------------------
# observables and expectations
# ---------------------------------------------------------------------------


def test_obs_labels_and_duplicates():
    o = obs((1, "Z"), (2, "X"))
    assert o.label() == "Z@1 X@2"
    with pytest.raises(ValueError):
        obs((1, "Z"), (1, "X"))
    with pytest.raises(ValueError):
        obs((0, "Z"))


def test_expectations_on_bell_pair():
    rho = bell_phi_plus()
    assert expectation(rho, obs((1, "Z"), (2, "Z"))) == pytest.approx(1.0)
    assert expectation(rho, obs((1, "X"), (2, "X"))) == pytest.approx(1.0)
    assert expectation(rho, obs((1, "Z"), (2, "X"))) == pytest.approx(0.0)
    assert expectation(rho, obs((1, "Y"), (2, "Y"))) == pytest.approx(-1.0)


def test_complex_expectation_of_nonhermitian_operator():
    """clock (x) clock on a 1-qudit-pair superposition has a complex value."""
    d = 3
    v = np.zeros(9, dtype=complex)
    v[basis_index((0, 0), (3, 3))] = np.sqrt(0.5)
    v[basis_index((1, 2), (3, 3))] = np.sqrt(0.5)
    rho = pure_density(v, (3, 3))
    val = expectation(rho, obs((1, "clock"), (2, "clock", 2)))
    # populations contribute w^0 * 1/2 + w^(1+4) * 1/2 = (1 + w^2)/2
    w = np.exp(2j * np.pi / d)
    assert val == pytest.approx((1 + w**2) / 2)


def test_realize_observable_range_error():
    with pytest.raises(ValueError, match="sites"):
        realize_observable(obs((3, "Z")), (2, 2))
    with pytest.raises(ValueError, match="sites"):
        expectation(bell_phi_plus(), obs((3, "Z")))


# site dimensions 2..5, at most 6 sites, D kept small enough for a dense check
@st.composite
def site_dims(draw, max_dim=256):
    dims = []
    for _ in range(draw(st.integers(1, 6))):
        top = min(5, max_dim // int(np.prod(dims, dtype=int)))
        if top < 2:
            break
        dims.append(draw(st.integers(2, top)))
    return tuple(dims)


def random_density(sites, seed) -> DensityMatrix:
    rng = np.random.default_rng(seed)
    dim = int(np.prod(sites))
    g = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    m = g @ g.conj().T
    return as_density(m / np.trace(m), sites)


def random_unitary(d, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def factors_on(draw, sites):
    factors = []
    for pos, d in enumerate(sites, start=1):
        names = ["shift", "clock"] + (["I", "X", "Y", "Z"] if d == 2 else [])
        name = draw(st.sampled_from([None] + names))
        if name is not None:
            factors.append((pos, name, draw(st.integers(0, 6))))
    return factors


@settings(max_examples=60, deadline=None)
@given(site_dims(), st.data(), st.integers(0, 2**32 - 1))
def test_expectation_matches_dense_reference(sites, data, seed):
    o = obs(*data.draw(factors_on(sites)))
    rho = random_density(sites, seed)
    dense = complex(np.trace(rho.mat @ realize_observable(o, sites)))
    assert abs(expectation(rho, o) - dense) <= 1e-12


def test_expectation_refuses_non_monomial_factor(monkeypatch):
    rho = bell_phi_plus()
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    projector = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    for local in (hadamard, projector):
        monkeypatch.setattr(qmat, "site_operator", lambda name, d, power=1, m=local: m)
        with pytest.raises(ValueError, match="monomial"):
            expectation(rho, obs((2, "X")))


@settings(max_examples=40, deadline=None)
@given(site_dims(), st.data(), st.integers(0, 2**32 - 1))
def test_apply_local_unitaries_matches_dense(sites, data, seed):
    rng = np.random.default_rng(seed)
    rho = random_density(sites, seed)
    picks = data.draw(st.lists(st.integers(1, len(sites)), max_size=4))
    us = [(site, random_unitary(sites[site - 1], rng)) for site in picks]
    full = np.eye(rho.dim, dtype=complex)
    for site, u in us:
        mats = [np.eye(d, dtype=complex) for d in sites]
        mats[site - 1] = u
        full = tensor_product(*mats) @ full
    out = apply_local_unitaries(rho, us)
    assert np.max(np.abs(out.mat - full @ rho.mat @ full.conj().T)) <= 1e-12


def test_apply_local_unitaries_flip():
    rho = pure_density(np.array([1.0, 0.0, 0.0, 0.0]), (2, 2))
    out = apply_local_unitaries(rho, [(1, pauli("X"))])
    assert out.mat[2, 2] == pytest.approx(1.0)  # |10><10|
    with pytest.raises(ValueError, match="unitary"):
        apply_local_unitaries(rho, [(1, np.array([[1.0, 0.0], [0.0, 2.0]]))])


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def test_joint_measure_bell_identifies_bell_state():
    # Phi+ (x) |0>: measuring sites (1, 2) jointly in the Bell basis is certain
    v = np.kron(np.array([1, 0, 0, 1]) / np.sqrt(2), np.array([1.0, 0.0]))
    rho = pure_density(v, (2, 2, 2))
    branches = joint_measure_two_sites(rho, (1, 2), bell_basis())
    assert [b.outcome for b in branches] == [0, 1, 2, 3]
    assert branches[0].probability == pytest.approx(1.0)
    assert branches[0].state.mat[0, 0] == pytest.approx(1.0)
    assert all(b.flagged_zero for b in branches[1:])
    assert len(BELL_LABELS) == 4


def test_joint_measure_splits_across_entangled_cut():
    # Phi+ on (1, 2), |+> on 3; measuring (2, 3) mixes the four outcomes
    v = np.kron(np.array([1, 0, 0, 1]) / np.sqrt(2), np.array([1.0, 1.0]) / np.sqrt(2))
    rho = pure_density(v, (2, 2, 2))
    branches = joint_measure_two_sites(rho, (2, 3), bell_basis())
    assert sum(b.probability for b in branches) == pytest.approx(1.0)
    for b in branches:
        assert b.probability == pytest.approx(0.25)
        assert b.state.sites == (2,)


def test_joint_measure_needs_three_sites():
    with pytest.raises(ValueError):
        joint_measure_two_sites(bell_phi_plus(), (1, 2), bell_basis())


def test_measure_basis_validation():
    rho = pure_density(np.kron(np.array([1, 0, 0, 1]) / np.sqrt(2), [1.0, 0.0]), (2, 2, 2))
    with pytest.raises(ValueError, match="orthonormal"):
        joint_measure_two_sites(rho, (1, 2), np.array([[1.0, 0.0, 0.0, 0.0]] * 4))


# ---------------------------------------------------------------------------
# index maps
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=4), st.data())
def test_index_digit_roundtrip(sites, data):
    digits = tuple(data.draw(st.integers(0, d - 1)) for d in sites)
    idx = basis_index(digits, sites)
    # numpy's C-order unravelling also takes the first site as most significant
    assert tuple(int(j) for j in np.unravel_index(idx, sites)) == digits


def test_basis_index_site_one_most_significant():
    assert basis_index((1, 0), (2, 2)) == 2
    assert basis_index((0, 1), (2, 2)) == 1
    assert basis_index((1, 2), (3, 3)) == 5


def test_bases_are_orthonormal():
    for b in (plusminus_basis(), bell_basis()):
        assert np.allclose(b @ b.conj().T, np.eye(b.shape[0]))


def test_all_outcome_bits_order():
    got = list(all_outcome_bits(2))
    assert got == [(0, 0), (0, 1), (1, 0), (1, 1)]


# ---------------------------------------------------------------------------
# counter-based random source
# ---------------------------------------------------------------------------


def test_uniforms_broadcast_matches_per_cell_calls():
    idx = np.arange(50)
    block = uniforms(7, idx[:, None], np.arange(6))
    assert block.shape == (50, 6)
    for i in (0, 13, 49):
        assert np.array_equal(block[i], uniforms(7, i, np.arange(6)))
        for stream in range(6):
            assert block[i, stream] == uniforms(7, i, stream)
    assert np.array_equal(block[:, 2], uniforms(7, idx, 2))
    assert uniforms(7, 3, 2).shape == ()
    # negative and 64-bit seeds reduce mod 2**64
    assert uniforms(-1, 3, 2) == uniforms(2**64 - 1, 3, 2)
