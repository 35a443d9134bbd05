"""Dense complex-matrix kernel for small multi-site quantum systems.

Everything in this module is a pure function of its inputs.  The one
memo, the monomial of each (observable, sites), holds read-only arrays
built on first use, so values can be shared freely across threads.

Conventions
-----------
- Sites are numbered from 1 and the computational index is built with site 1
  as the *most significant* digit: for site dimensions ``(d1, ..., dn)`` the
  basis state ``|j1 j2 ... jn>`` has flat index
  ``j1*(d2*...*dn) + j2*(d3*...*dn) + ... + jn``.  This is exactly the order
  produced by chained Kronecker products with site 1 on the left.
- Density matrices are checked on construction: finite, Hermitian to
  1e-12 (entrywise) and of unit trace to 1e-12, always.  Positive
  semidefiniteness, down to an eigenvalue floor of -1e-10 (the floor absorbs
  accumulation from channel mixing), is checked by one ``eigvalsh`` in
  :func:`as_density`, the entry for matrices from users or from
  computations no theorem covers, such as a renormalized projection branch
  (dividing by its probability p scales the floor by 1/p).  Results that are
  PSD by a theorem skip that O(D^3) step (the private ``_derived``): pure
  states, white-noise mixtures, monomial conjugations (each local factor
  is unitary, so the spectrum is kept), blind channels and
  network gate layers (Schur products with a PSD unit-diagonal multiplier),
  Kronecker products of states, and the oracle's mixtures of pure products.
- Expectation values are returned as ``complex``; the imaginary part is
  reported, never discarded.  For Hermitian observables it is numerically
  tiny, and callers that need a real number should assert that themselves.
- A projection branch (the private ``_branch``) with probability at most
  1e-12 gets no state, to avoid manufacturing one out of 0/0.
- :func:`uniforms` is the package's only random source: every draw is a pure
  function of ``(seed, index, stream)``.

Storage is dense only.  The systems in scope are a handful of qubits or
qudits (d <= 5), so sparsity buys nothing here.  Every observable is a
monomial matrix (one nonzero per column: a permutation times phases), so an
expectation reads only the D entries of the density matrix that the
monomial picks.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

Array = np.ndarray

__all__ = [
    "Array",
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "DensityMatrix",
    "Factor",
    "Observable",
    "as_density",
    "clock_op",
    "expectation",
    "obs",
    "pauli",
    "pure_density",
    "realize_observable",
    "shift_op",
    "site_operator",
    "tensor_product",
    "uniforms",
]

HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_FLOOR = -1e-10
# Side of the square tiles the Hermiticity check reads a matrix in
_HERM_TILE = 128
ZERO_PROB = 1e-12

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MIX_C = 0x94D049BB133111EB
_KEY_A = 0xA0761D6478BD642F
_KEY_B = 0xE7037ED1A0B428DB


def pauli(name: str) -> Array:
    """Return a copy of the named single-qubit Pauli matrix (I, X, Y or Z)."""
    try:
        return _PAULIS[name].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli name {name!r}") from None


def shift_op(d: int) -> Array:
    """Cyclic shift on a d-level site: |j> -> |j+1 mod d>.

    Satisfies ``shift_op(d) ** d == identity``; for d = 2 it equals sigma_x.
    """
    if d < 2:
        raise ValueError(f"site dimension must be >= 2, got {d}")
    m = np.zeros((d, d), dtype=complex)
    for j in range(d):
        m[(j + 1) % d, j] = 1.0
    return m


def clock_op(d: int) -> Array:
    """Diagonal clock operator diag(w^j) with w = exp(2*pi*i/d).

    For d = 2 it equals sigma_z.  Non-Hermitian for d > 2, so its
    expectation values are genuinely complex.
    """
    if d < 2:
        raise ValueError(f"site dimension must be >= 2, got {d}")
    w = np.exp(2.0j * np.pi / d)
    return np.diag(w ** np.arange(d))


def tensor_product(*mats: Array) -> Array:
    """Kronecker product of the given matrices (or vectors), left factor most
    significant.

    Each step is ``np.kron(out, m)`` without its generic set-up: the
    broadcast outer product of ``out`` and ``m``, each with its axes
    interleaved with unit ones, then reshaped; the same products, so the
    same bits.
    """
    out = np.ones(1, dtype=complex)
    for m in mats:
        m = np.asarray(m, dtype=complex)
        nd = max(out.ndim, m.ndim)
        sa = (1,) * (nd - out.ndim) + out.shape
        sb = (1,) * (nd - m.ndim) + m.shape
        prod = out.reshape([x for a in sa for x in (a, 1)]) * m.reshape([x for b in sb for x in (1, b)])
        out = prod.reshape([a * b for a, b in zip(sa, sb)])
    return out


# ---------------------------------------------------------------------------
# counter-based random source
# ---------------------------------------------------------------------------


def uniforms(seed: int, index, stream) -> Array:
    """Uniform [0, 1) doubles, a pure function of (seed, index, stream); ``index``
    and ``stream`` are non-negative integers or integer arrays that broadcast."""
    with np.errstate(over="ignore"):  # uint64 arithmetic wraps mod 2**64 on purpose
        key = np.asarray(stream, dtype=np.uint64) * np.uint64(_KEY_B)
        key = key + np.uint64(((seed & _MASK64) * _KEY_A + _GAMMA) & _MASK64)
        x = (np.asarray(index, dtype=np.uint64) + np.uint64(1)) * np.uint64(_GAMMA) + key
        # splitmix64 finalizer
        x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX_B)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX_C)
        x = x ^ (x >> np.uint64(31))
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


# ---------------------------------------------------------------------------
# density matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated density matrix over an ordered list of sites.

    ``sites`` holds the local dimension of each site; ``mat`` is the dense
    D x D matrix with D = prod(sites).  The two are the whole state: a
    verdict comes from the matrix elements a witness reads, never from a
    label.  Construct through :func:`as_density` or :func:`pure_density` so
    the invariants are actually checked.  Every constructor checks
    finiteness, Hermiticity and unit trace; :func:`as_density` alone also
    runs the ``eigvalsh`` PSD check, and the constructions that are PSD by a
    theorem (see the module docstring) skip it.  The oracle's samplers wrap
    a matrix of a stack they checked as a whole.
    """

    sites: tuple[int, ...]
    mat: Array

    @property
    def dim(self) -> int:
        return math.prod(self.sites)

    @property
    def n_sites(self) -> int:
        return len(self.sites)


def _herm_err(s: Array) -> Array:
    """max |s_ij - conj(s_ji)| of each matrix of the stack ``s``.

    Read in square tiles on and above the diagonal, each against its mirror
    tile: a tile pair stays in cache where a whole transposed read does not,
    and no D x D temporary is made.  The mirrored entry has the same modulus
    to the bit.  A NaN or inf entry makes the error NaN or inf.
    """
    d, err = s.shape[-1], np.zeros(len(s))
    with np.errstate(invalid="ignore"):  # inf - inf; the caller refuses it
        for i in range(0, d, _HERM_TILE):
            for j in range(i, d, _HERM_TILE):
                tile = s[:, i : i + _HERM_TILE, j : j + _HERM_TILE]
                mirror = s[:, j : j + _HERM_TILE, i : i + _HERM_TILE].conj().swapaxes(1, 2)
                err = np.maximum(err, np.abs(tile - mirror).max(axis=(1, 2)))
    return err


def _form_fault(m: Array) -> tuple[int, str] | None:
    """The first matrix of ``m``, one D x D matrix or a stack of them along
    axis 0, that is not finite, Hermitian and of unit trace within the module
    tolerances: its position in the stack and why, or None when every one is.
    O(D^2) per matrix."""
    s = m.reshape(-1, *m.shape[-2:])
    herm_err = _herm_err(s)
    tr = s.trace(axis1=1, axis2=2)
    # np.hypot of the parts is Python's abs(complex) to the bit
    tr_err = np.hypot(tr.real - 1.0, tr.imag)
    # a NaN or inf entry makes herm_err NaN or inf, so finiteness needs no extra pass
    if herm_err.max() <= HERM_TOL and tr_err.max() <= TRACE_TOL:
        return None
    k = int(np.argmin((herm_err <= HERM_TOL) & (tr_err <= TRACE_TOL)))
    if not math.isfinite(herm_err[k]):
        return k, "matrix entries must be finite"
    if herm_err[k] > HERM_TOL:
        return k, f"matrix is not Hermitian (max deviation {herm_err[k]:.3e})"
    return k, f"trace is {complex(tr[k])}, expected 1"


def _psd_fault(s: Array) -> tuple[int, str] | None:
    """The first matrix of the stack ``s`` whose symmetrized form has an
    eigenvalue below the PSD floor, which absorbs fp noise: its position and
    why, or None.  One O(D^3) ``eigvalsh`` per matrix."""
    if not len(s):
        return None
    low = np.linalg.eigvalsh((s + s.conj().swapaxes(1, 2)) / 2.0)[:, 0]
    if low.min() >= PSD_FLOOR:
        return None
    i = int(np.argmax(low < PSD_FLOOR))
    return i, f"matrix is not PSD (min eigenvalue {low[i]:.3e})"


def _density_fault(m: Array) -> tuple[int, str] | None:
    """The first matrix of ``m``, one D x D matrix or a stack of them along
    axis 0, that is not a density matrix within the module tolerances: its
    position in the stack and why, or None when every one is.

    The matrices before the first one :func:`_form_fault` names are checked
    for the PSD floor, so the matrix named, and its reason, are the ones that
    checking the stack one matrix at a time would stop at first.
    """
    s = m.reshape(-1, *m.shape[-2:])
    form = _form_fault(s)
    return _psd_fault(s if form is None else s[: form[0]]) or form


def _shaped(mat: Array, sites: Sequence[int]) -> tuple[tuple[int, ...], Array]:
    """``sites`` as ints and ``mat`` as a complex array, refused unless every
    site dimension is at least 2 and ``mat`` is D x D for D = prod(sites)."""
    sites = tuple(map(int, sites))
    if sites and min(sites) < 2:
        raise ValueError(f"every site dimension must be >= 2, got {sites}")
    dim = math.prod(sites)
    m = np.asarray(mat, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"matrix shape {m.shape} does not match sites {sites}")
    return sites, m


def as_density(mat: Array, sites: Sequence[int]) -> DensityMatrix:
    """Validate ``mat`` as a density matrix over ``sites`` and wrap it.

    Raises ``ValueError`` when the matrix is not finite, Hermitian, of unit
    trace and PSD within the module tolerances, or when dimensions do not
    line up.  The entry for every matrix from a user or from a computation
    no theorem covers; the PSD check is one ``eigvalsh``.
    """
    sites, m = _shaped(mat, sites)
    fault = _density_fault(m)
    if fault is not None:
        raise ValueError(fault[1])
    return DensityMatrix(sites, m)


def _derived(mat: Array, sites: Sequence[int]) -> DensityMatrix:
    """Wrap ``mat``, a result that is PSD by a theorem its caller names, as a
    density matrix over ``sites``.

    Runs every O(D^2) check of :func:`as_density` (sites, shape, finiteness,
    Hermiticity, unit trace) and skips its ``eigvalsh``.  Only a caller whose
    inputs are density matrices and whose operation provably keeps them PSD
    may use it: the PSD floor then holds up to the rounding of the operation.
    """
    sites, m = _shaped(mat, sites)
    fault = _form_fault(m)
    if fault is not None:
        raise ValueError(fault[1])
    return DensityMatrix(sites, m)


def pure_density(vec: Array, sites: Sequence[int]) -> DensityMatrix:
    """Outer product |v><v| of a normalized state vector as a DensityMatrix;
    rank one with eigenvalue |v|^2 = 1, so PSD by construction."""
    v = np.asarray(vec, dtype=complex).ravel()
    nrm = np.linalg.norm(v)
    if not abs(nrm - 1.0) <= 1e-10:  # written so that a NaN norm fails
        raise ValueError(f"state vector norm is {nrm}, expected 1")
    v = v / nrm
    return _derived(np.outer(v, v.conj()), sites)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Factor:
    """One local operator inside a tensor-product observable.

    ``name`` is one of ``I, X, Y, Z`` (qubit sites) or ``shift, clock``
    (arbitrary d, taken from the state the observable is applied to).
    ``power`` is a matrix power, taken mod d (each of these operators has
    d-th power I), and is mostly used with ``clock``.
    """

    site: int
    name: str
    power: int = 1


@dataclass(frozen=True)
class Observable:
    """Tensor product of named single-site operators; identity elsewhere."""

    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
        for f in self.factors:
            for key, value in (("site", f.site), ("power", f.power)):
                # type() first: the ABC check costs more than the rest of this method
                integral = type(value) is int or isinstance(value, numbers.Integral)
                if not integral or isinstance(value, bool):
                    raise ValueError(f"factor {f.name!r} needs an integer {key}, got {value!r}")
        seen = [f.site for f in self.factors]
        if len(set(seen)) != len(seen):
            raise ValueError(f"duplicate site indices in observable: {seen}")
        if any(f.site < 1 for f in self.factors):
            raise ValueError("site indices are 1-based and must be >= 1")

    def label(self) -> str:
        parts = []
        for f in sorted(self.factors, key=lambda f: f.site):
            p = f"^{f.power}" if f.power != 1 else ""
            parts.append(f"{f.name}{p}@{f.site}")
        return " ".join(parts) if parts else "identity"


def obs(*factors: tuple[int, str] | tuple[int, str, int]) -> Observable:
    """Shorthand: ``obs((1, "Z"), (2, "X"))`` or ``obs((1, "clock", 2))``."""
    return Observable(tuple(Factor(*f) for f in factors))


_QUBIT_ONLY = {"X", "Y", "Z"}


def site_operator(name: str, d: int, power: int = 1) -> Array:
    """Dense matrix for a named local operator on a d-level site."""
    if name == "I":
        return np.eye(d, dtype=complex)
    if name in _QUBIT_ONLY:
        if d != 2:
            raise ValueError(f"operator {name} requires a qubit site, got d={d}")
        base = pauli(name)
    elif name == "shift":
        base = shift_op(d)
    elif name == "clock":
        base = clock_op(d)
    else:
        raise ValueError(f"unknown operator name {name!r}")
    return np.linalg.matrix_power(base, power % d) if power != 1 else base


def _site_matrices(o: Observable, sites: tuple[int, ...]) -> list[Array]:
    """The d x d local operator of ``o`` on every site, identity where it has none."""
    n = len(sites)
    by_site = {f.site: f for f in o.factors}
    bad = [s for s in by_site if s > n]
    if bad:
        raise ValueError(f"observable references sites {bad} but the state has {n}")
    mats = []
    for pos in range(1, n + 1):
        f = by_site.get(pos)
        if f is None:
            mats.append(np.eye(sites[pos - 1], dtype=complex))
        else:
            mats.append(site_operator(f.name, sites[pos - 1], f.power))
    return mats


def realize_observable(o: Observable, sites: Sequence[int]) -> Array:
    """Dense tensor-product realization of ``o`` on a system with ``sites``."""
    return tensor_product(*_site_matrices(o, tuple(sites)))


@functools.cache
def _monomial(o: Observable, sites: tuple[int, ...]) -> tuple[Array, Array]:
    """``(perm, phase)`` with ``O[perm[i], i] = phase[i]`` and every other entry 0.

    Built site by site, site 1 most significant, once per (o, sites); a local
    factor with a column that does not hold exactly one nonzero raises
    ``ValueError``, and a refused key is checked again on its next call.
    """
    perm = np.zeros(1, dtype=np.intp)
    phases = []
    for pos, m in enumerate(_site_matrices(o, sites), start=1):
        nonzero = m != 0
        if np.any(np.count_nonzero(nonzero, axis=0) != 1):
            raise ValueError(f"local operator on site {pos} is not a monomial matrix")
        rows = np.argmax(nonzero, axis=0)
        perm = (perm[:, None] * len(m) + rows).ravel()
        phases.append(m[rows, np.arange(len(m))])
    phase = tensor_product(*phases)
    perm.flags.writeable = phase.flags.writeable = False  # shared by every caller of the cache
    return perm, phase


def expectation(rho: DensityMatrix, o: Observable) -> complex:
    """Tr(rho * O) = sum_i rho[i, perm[i]] * phase[i].  Complex on purpose."""
    perm, phase = _monomial(o, rho.sites)
    return complex(np.sum(rho.mat[np.arange(rho.dim), perm] * phase))


def _conjugate(rho: DensityMatrix, o: Observable) -> DensityMatrix:
    """O rho O^dag for the monomial ``o``: row and column i of rho move to
    perm[i], scaled by phase[i] and its conjugate.  Every local factor is
    unitary, so the conjugation keeps the spectrum and the result is PSD."""
    perm, phase = _monomial(o, rho.sites)
    out = np.empty_like(rho.mat)
    out[np.ix_(perm, perm)] = phase[:, None] * rho.mat * phase.conj()
    return _derived(out, rho.sites)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def _sandwich(rho: DensityMatrix, positions: Sequence[int], vec: Array) -> Array:
    """<v| rho |v> over the given (1-based) site positions.

    Returns the unnormalized matrix on the remaining sites, ordered as in the
    original state.
    """
    n = rho.n_sites
    t = rho.mat.reshape(*rho.sites, *rho.sites)
    row_axes = [p - 1 for p in positions]
    col_axes = [n + p - 1 for p in positions]
    # Bring measured axes to the front of the row block and col block.
    order = (
        row_axes
        + [i for i in range(n) if i not in row_axes]
        + col_axes
        + [i for i in range(n, 2 * n) if i not in col_axes]
    )
    t = np.transpose(t, order)
    dm = int(np.prod([rho.sites[p - 1] for p in positions]))
    dr = rho.dim // dm
    t = t.reshape(dm, dr, dm, dr)
    v = np.asarray(vec, dtype=complex).ravel()
    return np.einsum("m,mrns,n->rs", v.conj(), t, v)


def _branch(
    rho: DensityMatrix, positions: Sequence[int], vec: Array
) -> tuple[float, DensityMatrix | None]:
    """Probability p of projecting the sites at ``positions`` onto the unit
    vector ``vec``, and the renormalized state on the other sites, or None
    when p is at most 1e-12.  Checked by ``as_density``: 1/p scales the PSD floor."""
    sub = _sandwich(rho, positions, vec)
    p = float(np.real(np.trace(sub)))
    if p <= ZERO_PROB:
        return p, None
    rest = tuple(d for i, d in enumerate(rho.sites, start=1) if i not in positions)
    return p, as_density(sub / p, rest)
