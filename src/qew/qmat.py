"""Dense complex-matrix kernel for small multi-site quantum systems.

Everything in this module is a pure function of its inputs; nothing holds
shared mutable state, so values can be shared freely across threads.

Conventions
-----------
- Sites are numbered from 1 and the computational index is built with site 1
  as the *most significant* digit: for site dimensions ``(d1, ..., dn)`` the
  basis state ``|j1 j2 ... jn>`` has flat index
  ``j1*(d2*...*dn) + j2*(d3*...*dn) + ... + jn``.  This is exactly the order
  produced by chained Kronecker products with site 1 on the left.
- Density matrices are validated on construction: Hermitian to 1e-12
  (entrywise), unit trace to 1e-12, and positive semidefinite down to an
  eigenvalue floor of -1e-10 (the floor absorbs accumulation from channel
  mixing).
- Expectation values are returned as ``complex``; the imaginary part is
  reported, never discarded.  For Hermitian observables it is numerically
  tiny, and callers that need a real number should assert that themselves.
- Measurement branches with probability below 1e-12 are flagged rather than
  normalized, to avoid manufacturing a state out of 0/0.
- :func:`uniforms` is the package's only random source: every draw is a pure
  function of ``(seed, index, stream)``.

Storage is dense only.  The systems in scope are a handful of qubits or
qudits (d <= 5), so sparsity buys nothing here.  Every observable is a
monomial matrix (one nonzero per column: a permutation times phases), so an
expectation reads only the D entries of the density matrix that the
monomial picks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

Array = np.ndarray

__all__ = [
    "Array",
    "BELL_LABELS",
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "DensityMatrix",
    "Factor",
    "Observable",
    "MeasureBranch",
    "all_outcome_bits",
    "as_density",
    "basis_index",
    "bell_basis",
    "clock_op",
    "expectation",
    "apply_local_unitaries",
    "joint_measure_two_sites",
    "obs",
    "pauli",
    "plusminus_basis",
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
ZERO_PROB = 1e-12
UNITARY_TOL = 1e-12
ORTHO_TOL = 1e-12

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
    significant."""
    out = np.ones(1, dtype=complex)
    for m in mats:
        out = np.kron(out, np.asarray(m, dtype=complex))
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
    D x D matrix with D = prod(sites).  ``flags`` carries advisory markers
    such as ``"boundary"`` (the state sits on the separable edge of its
    family).  Construct through :func:`as_density` or :func:`pure_density`
    so the invariants are actually checked (the oracle's samplers wrap a
    matrix of a stack they checked as a whole).
    """

    sites: tuple[int, ...]
    mat: Array
    flags: frozenset[str] = field(default_factory=frozenset)

    @property
    def dim(self) -> int:
        return int(np.prod(self.sites))

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def with_flags(self, *names: str) -> "DensityMatrix":
        return DensityMatrix(self.sites, self.mat, self.flags | frozenset(names))


def _density_fault(m: Array) -> tuple[int, str] | None:
    """The first matrix of ``m``, one D x D matrix or a stack of them along
    axis 0, that is not a density matrix within the module tolerances: its
    position in the stack and why, or None when every one is.

    Each matrix is checked for finiteness, Hermiticity and unit trace, then
    for the PSD floor; the matrix named, and its reason, are the ones that
    checking the stack one matrix at a time would stop at first.
    """
    s = m.reshape(-1, *m.shape[-2:])
    sh = s.conj().swapaxes(1, 2)
    with np.errstate(invalid="ignore"):  # inf - inf; refused just below
        herm_err = np.abs(s - sh)
    tr = s.trace(axis1=1, axis2=2)
    # np.hypot of the parts is Python's abs(complex) to the bit
    tr_err = np.hypot(tr.real - 1.0, tr.imag)
    k = len(s)
    # a NaN or inf entry makes herm_err NaN or inf, so finiteness needs no extra pass
    if not (herm_err.max() <= HERM_TOL and tr_err.max() <= TRACE_TOL):
        herm_err = herm_err.max(axis=(1, 2))
        k = int(np.argmin((herm_err <= HERM_TOL) & (tr_err <= TRACE_TOL)))
        s, sh = s[:k], sh[:k]
    # Lowest eigenvalue of each symmetrized matrix before k; the floor absorbs fp noise.
    low = np.linalg.eigvalsh((s + sh) / 2.0)[:, 0]
    if k and low.min() < PSD_FLOOR:
        i = int(np.argmax(low < PSD_FLOOR))
        return i, f"matrix is not PSD (min eigenvalue {low[i]:.3e})"
    if k == len(tr):
        return None
    if not math.isfinite(herm_err[k]):
        return k, "matrix entries must be finite"
    if herm_err[k] > HERM_TOL:
        return k, f"matrix is not Hermitian (max deviation {herm_err[k]:.3e})"
    return k, f"trace is {complex(tr[k])}, expected 1"


def as_density(
    mat: Array,
    sites: Sequence[int],
    flags: Iterable[str] = (),
) -> DensityMatrix:
    """Validate ``mat`` as a density matrix over ``sites`` and wrap it.

    Raises ``ValueError`` when the matrix is not finite, Hermitian, of unit
    trace and PSD within the module tolerances, or when dimensions do not
    line up.
    """
    sites = tuple(map(int, sites))
    if sites and min(sites) < 2:
        raise ValueError(f"every site dimension must be >= 2, got {sites}")
    dim = math.prod(sites)
    m = np.asarray(mat, dtype=complex)
    if m.shape != (dim, dim):
        raise ValueError(f"matrix shape {m.shape} does not match sites {sites}")
    fault = _density_fault(m)
    if fault is not None:
        raise ValueError(fault[1])
    return DensityMatrix(sites, m, frozenset(flags))


def pure_density(
    vec: Array,
    sites: Sequence[int],
    flags: Iterable[str] = (),
) -> DensityMatrix:
    """Outer product |v><v| of a normalized state vector as a DensityMatrix."""
    v = np.asarray(vec, dtype=complex).ravel()
    nrm = np.linalg.norm(v)
    if not abs(nrm - 1.0) <= 1e-10:  # written so that a NaN norm fails
        raise ValueError(f"state vector norm is {nrm}, expected 1")
    v = v / nrm
    return as_density(np.outer(v, v.conj()), sites, flags)


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Factor:
    """One local operator inside a tensor-product observable.

    ``name`` is one of ``I, X, Y, Z`` (qubit sites) or ``shift, clock``
    (arbitrary d, taken from the state the observable is applied to).
    ``power`` is a literal matrix power and is mostly used with ``clock``.
    """

    site: int
    name: str
    power: int = 1


@dataclass(frozen=True)
class Observable:
    """Tensor product of named single-site operators; identity elsewhere."""

    factors: tuple[Factor, ...]

    def __post_init__(self) -> None:
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
        return pauli(name)
    if name == "shift":
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


def _monomial(o: Observable, sites: tuple[int, ...]) -> tuple[Array, Array]:
    """``(perm, phase)`` with ``O[perm[i], i] = phase[i]`` and every other entry 0.

    Built site by site, site 1 most significant; a local factor with a column
    that does not hold exactly one nonzero raises ``ValueError``.
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
    return perm, tensor_product(*phases)


def expectation(rho: DensityMatrix, o: Observable) -> complex:
    """Tr(rho * O) = sum_i rho[i, perm[i]] * phase[i].  Complex on purpose."""
    perm, phase = _monomial(o, rho.sites)
    return complex(np.sum(rho.mat[np.arange(rho.dim), perm] * phase))


# ---------------------------------------------------------------------------
# local unitaries
# ---------------------------------------------------------------------------


def apply_local_unitaries(
    rho: DensityMatrix,
    us: Sequence[tuple[int, Array]],
) -> DensityMatrix:
    """Conjugate ``rho`` by a product of single-site unitaries.

    Each entry of ``us`` is ``(site, U)``, contracted with the row and the
    column axis of its site in turn.  Every U is checked for unitarity
    to 1e-12; trace/Hermiticity/PSD of the output are re-validated.
    """
    n = rho.n_sites
    t = _as_row_col_tensor(rho)
    for site, u in us:
        if not 1 <= site <= n:
            raise ValueError(f"site {site} out of range for {n} sites")
        d = rho.sites[site - 1]
        u = np.asarray(u, dtype=complex)
        if u.shape != (d, d):
            raise ValueError(f"unitary on site {site} must be {d}x{d}, got {u.shape}")
        dev = float(np.max(np.abs(u.conj().T @ u - np.eye(d))))
        if dev > UNITARY_TOL * max(1.0, d):
            raise ValueError(f"matrix on site {site} is not unitary (dev {dev:.3e})")
        row, col = site - 1, n + site - 1
        t = np.moveaxis(np.tensordot(u, t, axes=(1, row)), 0, row)
        t = np.moveaxis(np.tensordot(t, u.conj(), axes=(col, 1)), -1, col)
    return as_density(t.reshape(rho.dim, rho.dim), rho.sites, rho.flags)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasureBranch:
    """One outcome of a projective measurement.

    ``state`` is the normalized post-measurement state on the *remaining*
    sites, or ``None`` when the branch probability is below 1e-12
    (``flagged_zero`` is then True).
    """

    outcome: int
    probability: float
    state: DensityMatrix | None
    flagged_zero: bool = False


def _check_orthonormal(basis: Array, d: int) -> Array:
    b = np.asarray(basis, dtype=complex)
    if b.shape != (d, d):
        raise ValueError(f"basis must contain {d} vectors of length {d}, got {b.shape}")
    gram = b.conj() @ b.T
    if float(np.max(np.abs(gram - np.eye(d)))) > ORTHO_TOL * max(1.0, d):
        raise ValueError("measurement basis is not orthonormal")
    return b


def _as_row_col_tensor(rho: DensityMatrix) -> Array:
    dims = rho.sites
    return rho.mat.reshape(*dims, *dims)


def _sandwich(rho: DensityMatrix, positions: Sequence[int], vec: Array) -> Array:
    """<v| rho |v> over the given (1-based) site positions.

    Returns the unnormalized matrix on the remaining sites, ordered as in the
    original state.
    """
    n = rho.n_sites
    t = _as_row_col_tensor(rho)
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


def _measure_branches(
    rho: DensityMatrix, positions: Sequence[int], b: Array
) -> list[MeasureBranch]:
    """One branch per row of the checked basis ``b``, measured jointly on ``positions``."""
    rest = tuple(d for i, d in enumerate(rho.sites, start=1) if i not in positions)
    branches: list[MeasureBranch] = []
    total = 0.0
    for k in range(len(b)):
        sub = _sandwich(rho, positions, b[k])
        p = float(np.real(np.trace(sub)))
        total += p
        if p <= ZERO_PROB:
            branches.append(MeasureBranch(k, max(p, 0.0), None, flagged_zero=True))
        else:
            branches.append(MeasureBranch(k, p, as_density(sub / p, rest)))
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"branch probabilities sum to {total}, expected 1")
    return branches


def joint_measure_two_sites(
    rho: DensityMatrix,
    sites: tuple[int, int],
    basis: Array,
) -> list[MeasureBranch]:
    """Joint projective measurement of two qubit sites in a 4-vector basis."""
    i, j = sites
    if i == j:
        raise ValueError("joint measurement needs two distinct sites")
    for s in (i, j):
        if not 1 <= s <= rho.n_sites:
            raise ValueError(f"site {s} out of range")
        if rho.sites[s - 1] != 2:
            raise ValueError(f"joint measurement requires qubit sites, site {s} has d={rho.sites[s - 1]}")
    if rho.n_sites < 3:
        raise ValueError("need at least one unmeasured site")
    return _measure_branches(rho, [i, j], _check_orthonormal(basis, 4))


def plusminus_basis() -> Array:
    """Rows are |+> and |-> for a qubit site."""
    s = 1.0 / np.sqrt(2.0)
    return np.array([[s, s], [s, -s]], dtype=complex)


def bell_basis() -> Array:
    """Rows are phi+, phi-, psi+, psi- for two qubit sites."""
    s = 1.0 / np.sqrt(2.0)
    return np.array(
        [
            [s, 0.0, 0.0, s],
            [s, 0.0, 0.0, -s],
            [0.0, s, s, 0.0],
            [0.0, s, -s, 0.0],
        ],
        dtype=complex,
    )


BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")


def basis_index(digits: Sequence[int], sites: Sequence[int]) -> int:
    """Flat computational index of |j1 j2 ... jn> (site 1 most significant)."""
    if len(digits) != len(sites):
        raise ValueError("digit count must match site count")
    idx = 0
    for j, d in zip(digits, sites):
        if not 0 <= j < d:
            raise ValueError(f"digit {j} out of range for dimension {d}")
        idx = idx * d + j
    return idx


def all_outcome_bits(n: int) -> Iterable[tuple[int, ...]]:
    """All length-n 0/1 outcome tuples in lexicographic order."""
    return itertools.product((0, 1), repeat=n)
