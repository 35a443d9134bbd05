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
That subspace is :func:`family_basis`, on the sites :func:`family_sites`
gives a member, and every family builder is its real amplitudes placed on it.

A blind channel is the Schur multiplier rho -> M o rho (elementwise
product) with M = sum_j p_j u_j u_j^dag, u_j = exp(i phi_j) the term's
phase vector.  M is PSD with unit diagonal, which is the whole reason
populations stay fixed and coherences only shrink.  The channel hands out
M through ``multiplier(sites)``, and :func:`apply_blind_channel` applies it.
``multiplier`` builds every u_j in one pass over a (terms, D) array and
adds the terms in order, with the bits of one ``tensor_product`` and one
outer product per term.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .qmat import Array, DensityMatrix, _derived, pure_density

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
    "family_sites",
    "ghz_state",
    "parse_state_spec",
    "qudit_ghz_state",
    "spec_to_dict",
    "subspace_elements",
    "w_state",
    "werner_mix",
]

PROB_TOL = 1e-12
MAX_DIM = 4096  # 12 qubits
# Seeds are unsigned 64-bit: qmat.uniforms folds any other integer into the range.
MAX_SEED = 2**64 - 1


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
        return family_sites(self.family(), self.n, self.d)

    def family(self) -> str:
        """Name of the witness family that reads this kind of state."""
        return _kind(self.kind).family


def parse_state_spec(data: Mapping) -> StateSpec:
    """Build a :class:`StateSpec` from its JSON dictionary form.

    Specs whose total dimension exceeds ``MAX_DIM`` are rejected here,
    before any matrix is allocated.
    """
    data = _record("state", data)
    kind = _entry("state spec", data, "kind")
    values = {}
    for key in _kind(kind).fields:
        attr, parse = _FIELDS[key]
        values[attr] = parse(key, _entry("state spec", data, key))
    spec = StateSpec(kind=kind, **values)
    spec.site_dims()
    return spec


# Each family's default site count n and local dimension d.  A member may set
# n or d where its state kind's JSON record has that field.
_SHAPES = {"epr": (2, 2), "ghz": (3, 2), "w": (3, 2), "qudit": (2, 3)}


def family_sites(family: str, n: int | None, d: int | None) -> tuple[int, ...]:
    """The sites ``(d,) * n`` of a member of ``family``, with None for the
    family's default n or d.  Refused before the tuple is built: a value the
    family fixes, an n or d that is not an integer, d below 2, n below 2,
    and a total dimension over ``MAX_DIM``."""
    fields = _fields(family)
    shape = _SHAPES[family]
    for key, arg, default in (("n", n, shape[0]), ("d", d, shape[1])):
        if arg is not None and key not in fields:
            raise ValueError(f"the family fixes {key} = {default}; --{key} {arg} does not apply")
    n = _integer("n", shape[0] if n is None else n)
    d = _integer("d", shape[1] if d is None else d)
    if d < 2:
        raise ValueError(f"local dimension must be at least 2, got d={d}")
    if n < 2:
        sites = (d,) * max(n, 0)
        raise ValueError(f"family {family!r} needs 2 or more sites of one dimension, got {sites}")
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

    Angles where cos or sin vanishes give a product state.  It is returned
    like any other member; its EPR witness reads a left-hand side of 0.
    """
    return ghz_state(2, theta)


def ghz_state(n: int, theta: float) -> DensityMatrix:
    """cos(theta)|0...0> + sin(theta)|1...1> on n qubits."""
    return _member("ghz", family_sites("ghz", n, None), (np.cos(theta), np.sin(theta)))


def w_state(a: Sequence[float]) -> DensityMatrix:
    """a0|001> + a1|010> + a2|100> + a3|111> with real amplitudes."""
    return _member("w", (2, 2, 2), a)


def qudit_ghz_state(n: int, d: int, alpha: Sequence[float]) -> DensityMatrix:
    """sum_j alpha_j |j...j> on n d-level sites with real amplitudes."""
    return _member("qudit", family_sites("qudit", n, d), alpha)


def _member(family: str, sites: tuple[int, ...], amplitudes: Sequence[float]) -> DensityMatrix:
    """The pure member sum_k a_k |b_k> of ``family`` on ``sites``: the real
    amplitudes a_k, one per state b_k of :func:`family_basis` in basis
    order, placed at the cached basis; refused unless their squares sum to
    1 within ``PROB_TOL`` (written so that NaN fails)."""
    basis = _subspace_index(family, sites)[0]
    a = np.asarray(amplitudes, dtype=float)
    if a.shape != (len(basis),):
        raise ValueError(f"expected {len(basis)} amplitudes, got shape {a.shape}")
    total = float(a @ a)
    if not abs(total - 1.0) <= PROB_TOL:
        raise ValueError(f"amplitudes must be normalized, got sum of squares {total}")
    vec = np.zeros(math.prod(sites), dtype=complex)
    vec.put(basis, a)
    return pure_density(vec, sites)


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
    if type(value) is int:  # the common case, without the ABC check below
        return value
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"field {key!r} must be an integer, got {value!r}")


def _seed(key: str, value) -> int:
    """An integer seed in 0..``MAX_SEED`` for field ``key``."""
    seed = _integer(key, value)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"{key} must be an integer in 0..{MAX_SEED} (2^64 - 1), got {seed}")
    return seed


def _list(key: str, value) -> list:
    if isinstance(value, (list, tuple)):
        return list(value)
    raise ValueError(f"field {key!r} must be a list, got {value!r}")


def _record(key: str, value) -> Mapping:
    if isinstance(value, Mapping):
        return value
    raise ValueError(f"field {key!r} must be an object, got {value!r}")


def _entry(what: str, record: Mapping, key: str):
    """``record[key]``; a missing entry is a ValueError naming the key and the
    record, ``what``."""
    try:
        return record[key]
    except KeyError:
        raise ValueError(f"{what} needs a {key!r} entry") from None


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
    """One state kind: its JSON fields in order, its builder and its witness family."""

    fields: tuple[str, ...]
    build: Callable[[StateSpec], DensityMatrix]
    family: str


_KINDS = {
    "epr": _Kind(("theta",), lambda s: epr_state(s.theta), "epr"),
    "ghz": _Kind(("n", "theta"), lambda s: ghz_state(s.n, s.theta), "ghz"),
    "w": _Kind(("a",), lambda s: w_state(s.amplitudes), "w"),
    "qudit_ghz": _Kind(
        ("n", "d", "alpha"), lambda s: qudit_ghz_state(s.n, s.d, s.amplitudes), "qudit"
    ),
}


def _kind(name: str) -> _Kind:
    entry = _KINDS.get(name) if isinstance(name, str) else None
    if entry is None:
        raise ValueError(f"unknown state kind {name!r}")
    return entry


def _fields(family: str) -> tuple[str, ...]:
    """The JSON fields of the state kind that ``family`` reads."""
    for entry in _KINDS.values():
        if entry.family == family:
            return entry.fields
    raise ValueError(f"unknown family {family!r}")


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
        # a negative weight, however small, can make M indefinite, and the
        # Schur bound apply_blind_channel relies on fails with it
        if np.any(probs < 0.0):
            raise ValueError(f"negative term probability: {probs.min()}")
        if abs(float(probs.sum()) - 1.0) > PROB_TOL:
            raise ValueError(f"term probabilities sum to {float(probs.sum())}, expected 1")
        widths = {tuple(len(p) for p in t.site_phases) for t in self.terms}
        if len(widths) != 1:
            raise ValueError("all terms must carry phases for the same sites")
        if not np.isfinite(_phase_table(self.terms)).all():
            raise ValueError("phases must be finite reals")

    def site_dims(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.terms[0].site_phases)

    def multiplier(self, sites: Sequence[int]) -> Array:
        """M = sum_j p_j u_j u_j^dag with u_j = exp(i phi_j); see the module."""
        sites = tuple(sites)
        if self.site_dims() != sites:
            raise ValueError(f"channel sites {self.site_dims()} do not match state sites {sites}")
        e = np.exp(1j * _phase_table(self.terms, dtype=float))
        # row j is u_j, built site by site with tensor_product's products
        u = np.ones((len(e), 1), dtype=complex)
        for a, b in itertools.pairwise(itertools.accumulate(sites, initial=0)):
            u = (u[:, :, None] * e[:, None, a:b]).reshape(len(e), -1)
        # np.outer's products, added into zeros one term at a time, in order
        out = np.zeros((u.shape[1],) * 2, dtype=complex)
        for t, col, row in zip(self.terms, u[:, :, None], u.conj()[:, None, :]):
            out += t.p * (col * row)
        return out


def _phase_table(terms: Sequence[ChannelTerm], dtype=None) -> Array:
    """Every term's phases, site after site, as one (terms, phases) array."""
    return np.array([[x for p in t.site_phases for x in p] for t in terms], dtype=dtype)


def channel_from_dict(data: Mapping) -> BlindChannel:
    """Parse the JSON form ``{"terms": [{"p": ..., "site_phases": [[...], ...]}]}``."""
    terms = []
    for t in _list("terms", _entry("channel spec", _record("channel", data), "terms")):
        t = _record("terms", t)
        raw_phases = _list("site_phases", _entry("channel term", t, "site_phases"))
        phases = tuple(_amplitudes("site_phases", site) for site in raw_phases)
        terms.append(ChannelTerm(_real("p", _entry("channel term", t, "p")), phases))
    return BlindChannel(tuple(terms))


def apply_blind_channel(rho: DensityMatrix, ch: BlindChannel) -> DensityMatrix:
    """M o rho with M = ``ch.multiplier(rho.sites)``, which is
    sum_j p_j U_j rho U_j^dag.

    PSD by the Schur product theorem: M is PSD (every p_j >= 0) with unit
    diagonal, so lambda_min(M o rho) >= lambda_min(rho) max_i M_ii =
    lambda_min(rho) (Schur's bound).  No eigen-decomposition is run.
    """
    return _derived(ch.multiplier(rho.sites) * rho.mat, rho.sites)


# ---------------------------------------------------------------------------
# white noise
# ---------------------------------------------------------------------------


def werner_mix(rho: DensityMatrix, v: float) -> DensityMatrix:
    """v * rho + (1 - v)/D * I — white-noise mixing at visibility v; a convex
    mixture of two density matrices, so PSD by construction."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {v}")
    d = rho.dim
    mat = v * rho.mat + (1.0 - v) / d * np.eye(d)
    return _derived(mat, rho.sites)


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


def family_basis(family: str, sites: Sequence[int]) -> tuple[int, ...]:
    """Flat indices of the subspace basis for a family on the given sites;
    sites that are not the :func:`family_sites` of a member are refused."""
    sites = tuple(sites)
    fields = _fields(family)
    n = len(sites)
    if n < 2 or len(set(sites)) != 1:
        raise ValueError(f"family {family!r} needs 2 or more sites of one dimension, got {sites}")
    fit = family_sites(family, n if "n" in fields else None, sites[0] if "d" in fields else None)
    if fit != sites:
        raise ValueError(f"family {family!r} needs sites {fit}, got {sites}")
    if family == "w":
        # the odd-excitation block: |001>, |010>, |100>, |111>
        return (1, 2, 4, 7)
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
