"""State families, blind phase channels and noise mixing.

The state families here share one structural idea: a pure state with all of
its weight on a small "diagonal" subspace (|00>/|11>, |0...0>/|1...1>, the
three-excitation W block, or |jj...j> for qudits), pushed through a *blind
channel* — an unknown probabilistic mixture of local diagonal phase
unitaries.  Such channels leave computational-basis populations untouched
and can only shrink the modulus of off-diagonal elements, so everything a
verifier can rely on lives in the populations and the surviving coherences.
:func:`subspace_elements` extracts exactly those numbers, plus a leakage
scalar measuring how much population sits outside the family's subspace.

A blind channel is the Schur multiplier rho -> M o rho (elementwise
product) with M = sum_j p_j u_j u_j^dag, u_j = exp(i phi_j) the term's
phase vector.  M is PSD with unit diagonal, which is the whole reason
populations stay fixed and coherences only shrink.  The channel hands out
M through ``multiplier(sites)``, and :func:`apply_blind_channel` applies it.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .qmat import Array, DensityMatrix, as_density, basis_index, pure_density, tensor_product

__all__ = [
    "BlindChannel",
    "ChannelTerm",
    "StateSpec",
    "SubspaceView",
    "apply_blind_channel",
    "build_state",
    "channel_from_dict",
    "epr_state",
    "family_basis",
    "ghz_state",
    "parse_state_spec",
    "qudit_ghz_state",
    "spec_to_dict",
    "subspace_elements",
    "uniform_sites",
    "w_state",
    "werner_mix",
]

PROB_TOL = 1e-12
BOUNDARY_TOL = 1e-12
MAX_DIM = 4096  # 12 qubits


# ---------------------------------------------------------------------------
# state descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateSpec:
    """Parsed description of a state family member.

    ``kind`` is one of ``epr``, ``ghz``, ``w``, ``qudit_ghz``; the raw
    parameters are kept as given so a spec can be serialized back bit-for-bit.
    """

    kind: str
    theta: float | None = None
    n: int | None = None
    d: int | None = None
    amplitudes: tuple[float, ...] | None = None

    def site_dims(self) -> tuple[int, ...]:
        n, d = _kind(self.kind).shape(self)
        return (d,) * n

    def family(self) -> str:
        """Name of the witness family that reads this kind of state."""
        return _kind(self.kind).family


def parse_state_spec(data: Mapping) -> StateSpec:
    """Build a :class:`StateSpec` from its JSON dictionary form.

    Specs whose total dimension exceeds ``MAX_DIM`` are rejected here,
    before any matrix is allocated.
    """
    try:
        kind = _record("state", data)["kind"]
    except KeyError:
        raise ValueError("state spec needs a 'kind' entry") from None
    entry = _kind(kind)
    values = {}
    for key in entry.fields:
        attr, parse = _FIELDS[key]
        values[attr] = parse(key, data[key])
    spec = StateSpec(kind=kind, **values)
    uniform_sites(*entry.shape(spec))
    return spec


def uniform_sites(n: int, d: int) -> tuple[int, ...]:
    """The sites ``(d,) * n`` of n d-level sites, refused before the tuple is
    built when n is negative, d is below 2 or their total dimension exceeds
    ``MAX_DIM``."""
    if n < 0:
        raise ValueError(f"site count must be non-negative, got n={n}")
    if d < 2:
        raise ValueError(f"local dimension must be at least 2, got d={d}")
    # d ** n is never formed for many sites: 2 ** 13 already exceeds MAX_DIM
    if n >= MAX_DIM.bit_length() or d**n > MAX_DIM:
        raise ValueError(
            f"dimension budget exceeded: {n} sites of dimension {d} exceed {MAX_DIM}"
        )
    return (d,) * n


def spec_to_dict(spec: StateSpec) -> dict:
    """Inverse of :func:`parse_state_spec` (round-trips exactly)."""
    out = {"kind": spec.kind}
    for key in _kind(spec.kind).fields:
        value = getattr(spec, _FIELDS[key][0])
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def epr_state(theta: float) -> DensityMatrix:
    """cos(theta)|00> + sin(theta)|11> as a density matrix.

    Angles where cos or sin vanishes give a product state; the output is
    still returned but carries a ``boundary`` flag.
    """
    return ghz_state(2, theta)


def ghz_state(n: int, theta: float) -> DensityMatrix:
    """cos(theta)|0...0> + sin(theta)|1...1> on n qubits."""
    if n < 2:
        raise ValueError(f"need at least 2 sites, got n={n}")
    c, s = np.cos(theta), np.sin(theta)
    vec = np.zeros(2**n, dtype=complex)
    vec[0] = c
    vec[-1] = s
    flags = ("boundary",) if abs(c * s) <= BOUNDARY_TOL else ()
    return pure_density(vec, (2,) * n, flags)


def w_state(a: Sequence[float]) -> DensityMatrix:
    """a0|001> + a1|010> + a2|100> + a3|111> with real amplitudes."""
    a = np.asarray(a, dtype=float)
    if a.shape != (4,):
        raise ValueError(f"expected 4 real amplitudes, got shape {a.shape}")
    if abs(float(a @ a) - 1.0) > PROB_TOL:
        raise ValueError(f"amplitudes must be normalized, got sum of squares {float(a @ a)}")
    vec = np.zeros(8, dtype=complex)
    vec[[1, 2, 4, 7]] = a
    flags = ("boundary",) if np.count_nonzero(np.abs(a) > BOUNDARY_TOL) <= 1 else ()
    return pure_density(vec, (2, 2, 2), flags)


def qudit_ghz_state(n: int, d: int, alpha: Sequence[float]) -> DensityMatrix:
    """sum_j alpha_j |j...j> on n d-level sites with real amplitudes."""
    if n < 2:
        raise ValueError(f"need at least 2 sites, got n={n}")
    if d < 2:
        raise ValueError(f"need local dimension >= 2, got d={d}")
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (d,):
        raise ValueError(f"expected {d} amplitudes, got shape {alpha.shape}")
    if abs(float(alpha @ alpha) - 1.0) > PROB_TOL:
        raise ValueError("amplitudes must be normalized")
    sites = (d,) * n
    vec = np.zeros(d**n, dtype=complex)
    for j in range(d):
        vec[basis_index((j,) * n, sites)] = alpha[j]
    flags = ("boundary",) if np.count_nonzero(np.abs(alpha) > BOUNDARY_TOL) <= 1 else ()
    return pure_density(vec, sites, flags)


# JSON field parsers for states, channels, networks and prover strategies:
# a wrongly typed value is a ValueError naming the field, never a TypeError.


def _real(key: str, value) -> float:
    """A finite JSON number for field ``key``; anything else is a ValueError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = float("inf")
        if math.isfinite(x):
            return x
    raise ValueError(f"field {key!r} must be a finite number, got {value!r}")


def _positive(key: str, value: float) -> float:
    """``value`` when it is a finite positive number, for the tolerance or
    threshold ``key``; written so that NaN fails."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{key} must be a finite positive number, got {value}")
    return value


def _integer(key: str, value) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"field {key!r} must be an integer, got {value!r}")


def _list(key: str, value) -> list:
    if isinstance(value, (list, tuple)):
        return list(value)
    raise ValueError(f"field {key!r} must be a list, got {value!r}")


def _record(key: str, value) -> Mapping:
    if isinstance(value, Mapping):
        return value
    raise ValueError(f"field {key!r} must be an object, got {value!r}")


def _amplitudes(key: str, values) -> tuple[float, ...]:
    return tuple(_real(key, x) for x in _list(key, values))


def _w_amplitudes(key: str, values) -> tuple[float, ...]:
    a = _amplitudes(key, values)
    if len(a) != 4:
        raise ValueError(f"W-type state takes 4 amplitudes, got {len(a)}")
    return a


# JSON field -> (StateSpec attribute, parser taking the field name and value)
_FIELDS: dict[str, tuple[str, Callable]] = {
    "theta": ("theta", _real),
    "n": ("n", _integer),
    "d": ("d", _integer),
    "a": ("amplitudes", _w_amplitudes),
    "alpha": ("amplitudes", _amplitudes),
}


@dataclass(frozen=True)
class _Kind:
    """One state kind: its JSON fields in order, its builder, its shape as
    (site count, local dimension) and the witness family that reads it."""

    fields: tuple[str, ...]
    build: Callable[[StateSpec], DensityMatrix]
    shape: Callable[[StateSpec], tuple[int, int]]
    family: str


_KINDS = {
    "epr": _Kind(("theta",), lambda s: epr_state(s.theta), lambda s: (2, 2), "epr"),
    "ghz": _Kind(
        ("n", "theta"), lambda s: ghz_state(s.n, s.theta), lambda s: (int(s.n), 2), "ghz"
    ),
    "w": _Kind(("a",), lambda s: w_state(s.amplitudes), lambda s: (3, 2), "w"),
    "qudit_ghz": _Kind(
        ("n", "d", "alpha"),
        lambda s: qudit_ghz_state(s.n, s.d, s.amplitudes),
        lambda s: (int(s.n), int(s.d)),
        "qudit",
    ),
}


def _kind(name: str) -> _Kind:
    entry = _KINDS.get(name) if isinstance(name, str) else None
    if entry is None:
        raise ValueError(f"unknown state kind {name!r}")
    return entry


def build_state(spec: StateSpec) -> DensityMatrix:
    """Construct the pure density matrix described by ``spec``."""
    return _kind(spec.kind).build(spec)


# ---------------------------------------------------------------------------
# blind phase channels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelTerm:
    """One mixture term: probability plus one phase vector per site.

    A qubit site carries two phases (theta, vartheta) defining
    diag(e^{i theta}, e^{i vartheta}); a d-level site carries d phases.
    """

    p: float
    site_phases: tuple[tuple[float, ...], ...]


@dataclass(frozen=True)
class BlindChannel:
    """Probabilistic mixture of local diagonal phase unitaries.

    Applying the channel leaves every computational-basis population exactly
    invariant and cannot increase the modulus of any off-diagonal element
    (each term multiplies it by a unit-modulus phase; mixing averages them).
    """

    terms: tuple[ChannelTerm, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("channel needs at least one term")
        probs = np.array([t.p for t in self.terms], dtype=float)
        if not np.isfinite(probs).all():
            raise ValueError(f"term probabilities p must be finite, got {probs.tolist()}")
        if np.any(probs < -PROB_TOL):
            raise ValueError(f"negative term probability: {probs.min()}")
        if abs(float(probs.sum()) - 1.0) > PROB_TOL:
            raise ValueError(f"term probabilities sum to {float(probs.sum())}, expected 1")
        widths = {tuple(len(p) for p in t.site_phases) for t in self.terms}
        if len(widths) != 1:
            raise ValueError("all terms must carry phases for the same sites")
        for t in self.terms:
            for phases in t.site_phases:
                if not all(np.isfinite(phases)):
                    raise ValueError("phases must be finite reals")

    def site_dims(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.terms[0].site_phases)

    def multiplier(self, sites: Sequence[int]) -> Array:
        """M = sum_j p_j u_j u_j^dag with u_j = exp(i phi_j); see the module."""
        sites = tuple(sites)
        if self.site_dims() != sites:
            raise ValueError(f"channel sites {self.site_dims()} do not match state sites {sites}")
        out = np.zeros((math.prod(sites),) * 2, dtype=complex)
        for t in self.terms:
            u = tensor_product(*(np.exp(1j * np.asarray(p, dtype=float)) for p in t.site_phases))
            out += t.p * np.outer(u, u.conj())
        return out


def channel_from_dict(data: Mapping) -> BlindChannel:
    """Parse the JSON form ``{"terms": [{"p": ..., "site_phases": [[...], ...]}]}``."""
    try:
        raw_terms = _record("channel", data)["terms"]
    except KeyError:
        raise ValueError("channel spec needs a 'terms' entry") from None
    terms = []
    for t in _list("terms", raw_terms):
        t = _record("terms", t)
        phases = tuple(
            _amplitudes("site_phases", site) for site in _list("site_phases", t["site_phases"])
        )
        terms.append(ChannelTerm(_real("p", t["p"]), phases))
    return BlindChannel(tuple(terms))


def apply_blind_channel(rho: DensityMatrix, ch: BlindChannel) -> DensityMatrix:
    """M o rho with M = ``ch.multiplier(rho.sites)``, which is
    sum_j p_j U_j rho U_j^dag."""
    return as_density(ch.multiplier(rho.sites) * rho.mat, rho.sites, rho.flags)


# ---------------------------------------------------------------------------
# white noise
# ---------------------------------------------------------------------------


def werner_mix(rho: DensityMatrix, v: float) -> DensityMatrix:
    """v * rho + (1 - v)/D * I — white-noise mixing at visibility v."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {v}")
    d = rho.dim
    mat = v * rho.mat + (1.0 - v) / d * np.eye(d)
    return as_density(mat, rho.sites, rho.flags)


# ---------------------------------------------------------------------------
# subspace matrix elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubspaceView:
    """Named matrix elements of a state relative to a family subspace.

    ``basis`` lists the flat computational indices spanning the subspace;
    ``populations`` maps each of them to its diagonal element, and
    ``coherences`` maps index pairs (a, b) with a < b to rho[a, b].
    ``leakage`` is the total population outside the subspace — it is always
    reported, never raised as an error.
    """

    basis: tuple[int, ...]
    populations: dict[int, float]
    coherences: dict[tuple[int, int], complex]
    leakage: float

    def coherence(self, a: int, b: int) -> complex:
        if a == b:
            raise ValueError("coherence needs two distinct indices")
        if a < b:
            return self.coherences[(a, b)]
        return np.conj(self.coherences[(b, a)])


def family_basis(family: str, sites: Sequence[int]) -> tuple[int, ...]:
    """Flat indices of the subspace basis for a family on the given sites,
    and the one check that the sites fit the family."""
    sites = tuple(sites)
    if family == "w":
        if sites != (2, 2, 2):
            raise ValueError(f"family 'w' is a three-qubit family, got sites {sites}")
        # the odd-excitation block: |001>, |010>, |100>, |111>
        return (1, 2, 4, 7)
    if family not in ("epr", "ghz", "qudit"):
        raise ValueError(f"unknown family {family!r}")
    n = len(sites)
    if n < 2 or len(set(sites)) != 1:
        raise ValueError(f"family {family!r} needs 2 or more sites of one dimension, got {sites}")
    if family == "epr" and n != 2:
        raise ValueError(f"family 'epr' is a two-qubit family, got sites {sites}")
    if family != "qudit" and sites[0] != 2:
        raise ValueError(f"family {family!r} is a qubit family, got sites {sites}")
    # the ladder |j...j>, j < d, at flat index j (1 + d + ... + d^(n-1))
    step = sum(sites[0] ** k for k in range(n))
    return tuple(j * step for j in range(sites[0]))


@functools.cache
def _subspace_index(family: str, sites: tuple[int, ...]) -> tuple[
    tuple[int, ...], tuple[tuple[int, int], ...], Array
]:
    """The family basis, its index pairs (a, b) with a < b in basis order,
    and the flat matrix positions of the populations, then of the
    coherences, in those orders.  Built once per key."""
    basis = family_basis(family, sites)
    pairs = tuple(itertools.combinations(basis, 2))
    dim = math.prod(sites)
    flat = np.array([a * dim + a for a in basis] + [a * dim + b for a, b in pairs])
    flat.flags.writeable = False  # one copy serves every caller
    return basis, pairs, flat


def _subspace_entries(mats: Array, family: str, sites: tuple[int, ...]) -> Array:
    """The populations, then the coherences, of a matrix, or of a stack over
    leading axes, along a last axis; see :func:`_subspace_index`."""
    return mats.reshape(*mats.shape[:-2], -1).take(_subspace_index(family, sites)[2], axis=-1)


def subspace_elements(rho: DensityMatrix, family: str) -> SubspaceView:
    """Extract the family's populations and coherences plus the leakage."""
    basis, pairs, _flat = _subspace_index(family, rho.sites)
    entries = _subspace_entries(rho.mat, family, rho.sites).tolist()
    pops = {b: z.real for b, z in zip(basis, entries)}
    leakage = float(max(0.0, 1.0 - sum(pops.values())))
    return SubspaceView(basis, pops, dict(zip(pairs, entries[len(basis) :])), leakage)
