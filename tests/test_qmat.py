"""Kernel tests: operators, density validation, index maps."""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qew.qmat as qmat
from qew.qmat import (
    DensityMatrix,
    as_density,
    clock_op,
    expectation,
    obs,
    pauli,
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
    # a Pauli power wraps mod 2 like any other: Z^2 = Y^0 = I and X^3 = X
    assert np.allclose(site_operator("Z", 2, power=2), np.eye(2))
    assert np.allclose(site_operator("X", 2, power=3), pauli("X"))
    assert np.allclose(site_operator("Y", 2, power=0), np.eye(2))
    rho = pure_density(np.array([0.6, 0.0, 0.0, 0.8]), (2, 2))
    assert expectation(rho, obs((1, "Z", 2))) == pytest.approx(1.0)
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


def test_hermiticity_check_reads_every_tile():
    """The check reads large matrices in tiles; a fault anywhere, above or
    below the diagonal and in the ragged last tiles, is found with the
    deviation the whole-matrix formula gives."""
    sites, dim = (3, 100), 300  # not a multiple of the tile side
    base = np.eye(dim, dtype=complex) / dim
    for pos in ((0, 299), (299, 0), (130, 5), (5, 130), (260, 270), (299, 299)):
        m = base.copy()
        m[pos] += 3e-12j
        dev = np.abs(m - m.conj().T).max()
        with pytest.raises(ValueError) as exc:
            as_density(m, sites)
        assert str(exc.value) == f"matrix is not Hermitian (max deviation {dev:.3e})"
        m[pos] = np.nan
        with pytest.raises(ValueError, match="finite"):
            as_density(m, sites)
    as_density(base, sites)


def test_pure_density_norm_check():
    with pytest.raises(ValueError, match="norm"):
        pure_density(np.array([1.0, 1.0]), (2,))
    for bad in ([np.nan, 0.0, 0.0, 1.0], [np.inf, 0.0, 0.0, 1.0]):
        with pytest.raises(ValueError, match="norm"):
            pure_density(np.array(bad), (2, 2))


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


def test_obs_refuses_non_integer_sites_and_powers():
    for factor, key in (((1.5, "Z"), "site"), ((1, "X", 2.5), "power"), ((True, "Z"), "site"),
                        ((1, "clock", False), "power"), (("1", "Z"), "site")):
        with pytest.raises(ValueError, match=f"needs an integer {key}"):
            obs(factor)
    o = obs((np.int64(1), "clock", np.int64(2)))
    assert o.label() == "clock^2@1"


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
    v[np.ravel_multi_index((0, 0), (3, 3))] = np.sqrt(0.5)
    v[np.ravel_multi_index((1, 2), (3, 3))] = np.sqrt(0.5)
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
    qmat._monomial.cache_clear()  # a cached X monomial would skip the check
    for local in (hadamard, projector):
        monkeypatch.setattr(qmat, "site_operator", lambda name, d, power=1, m=local: m)
        with pytest.raises(ValueError, match="monomial"):
            expectation(rho, obs((2, "X")))
    qmat._monomial.cache_clear()  # keep no entry built under the patch


def test_monomial_is_built_once_and_read_only():
    o, sites = obs((1, "Y"), (3, "clock", 2)), (2, 2, 3)
    perm, phase = qmat._monomial(o, sites)
    again = qmat._monomial(o, sites)
    assert again[0] is perm and again[1] is phase
    for arr in (perm, phase):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[1]


@settings(max_examples=60, deadline=None)
@given(site_dims(), st.data(), st.integers(0, 2**32 - 1))
def test_conjugate_matches_dense(sites, data, seed):
    o = obs(*data.draw(factors_on(sites)))
    rho = random_density(sites, seed)
    u = realize_observable(o, sites)
    out = qmat._conjugate(rho, o)
    assert out.sites == rho.sites
    assert np.max(np.abs(out.mat - u @ rho.mat @ u.conj().T)) <= 1e-12


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
