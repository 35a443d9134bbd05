"""Quantum-network model: sources, local controlled-phase gates, reductions.

A network is a list of named parties, a list of entangled sources whose
qubits are handed to parties in declared order, and a set of local
controlled-phase gates (each acting on two qubits held by *one* party).
Qubits are numbered globally, 1-based, in source declaration order.

Two LOCC reductions connect the multipartite families back to shared pairs:

* :func:`reduce_ghz_to_epr` — measure all but two qubits of a GHZ-type
  state in the +/- basis; an outcome-conditioned sign flip on one kept
  qubit restores the original coherence exactly, on every branch.
* :func:`swap_branches` — Bell-measure the inner qubits of two
  |00>/|11>-supported pairs; conditional Z/X corrections turn every branch
  into a pair whose coherence is the (normalized) product of the input
  coherences.

Each reduction is a list of (outcome label, projection vector, corrections)
rows run through one project-and-correct loop; a zero branch is dropped.

The one memo, ``_global_labels``, holds the global line labels of a family's
battery on given sites at a qubit offset, built on first use from the
memoized batteries of :mod:`qew.witnesses`, so :func:`source_reports` builds
no shifted battery per report.  It is keyed on those small tuples, never on
a battery: a frozen battery hashes every line on each lookup.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .qmat import Array, DensityMatrix, _branch, _conjugate, _derived, obs, tensor_product
from .states import (
    MAX_DIM,
    BlindChannel,
    ChannelTerm,
    StateSpec,
    _entry,
    _integer,
    _list,
    _real,
    _record,
    apply_blind_channel,
    build_state,
    parse_state_spec,
    spec_to_dict,
    subspace_elements,
)
from .witnesses import (
    LEAKAGE_TOL,
    BatteryReport,
    ParadoxBattery,
    evaluate_battery,
    reindex_battery,
    witness_family,
)

__all__ = [
    "CpGate",
    "NetworkSpec",
    "ReductionResult",
    "SourceSpec",
    "connectivity_check",
    "generate_cluster",
    "network_to_dict",
    "parse_network_spec",
    "qubit_owners",
    "reduce_ghz_to_epr",
    "source_batteries",
    "source_reports",
    "swap_branches",
]

# ---------------------------------------------------------------------------
# network description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceSpec:
    """One entangled source and the party receiving each of its qubits."""

    state: StateSpec
    owners: tuple[str, ...]


@dataclass(frozen=True)
class CpGate:
    """A controlled-phase gate applied by ``party`` to two of its qubits.

    ``qubits`` are global 1-based indices into the concatenated source
    order.  The gate is symmetric, so the pair order is irrelevant.
    """

    party: str
    theta: float
    qubits: tuple[int, int]


@dataclass(frozen=True)
class NetworkSpec:
    parties: tuple[str, ...]
    sources: tuple[SourceSpec, ...]
    cp_gates: tuple[CpGate, ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.parties)) != len(self.parties):
            raise ValueError("duplicate party names")
        if not self.sources:
            raise ValueError("network needs at least one source")
        owners = qubit_owners(self)
        known = set(self.parties)
        for q, (owner, _dim) in enumerate(owners, start=1):
            if owner not in known:
                raise ValueError(f"qubit {q} owned by undeclared party {owner!r}")
        for g in self.cp_gates:
            a, b = g.qubits
            if a == b:
                raise ValueError("controlled-phase gate needs two distinct qubits")
            for q in (a, b):
                if not 1 <= q <= len(owners):
                    raise ValueError(f"gate qubit {q} out of range")
                if owners[q - 1][1] != 2:
                    raise ValueError(f"gate qubit {q} is not a qubit site")
                if owners[q - 1][0] != g.party:
                    raise ValueError(
                        f"gate by {g.party!r} touches qubit {q} owned by {owners[q - 1][0]!r}"
                    )
            if not np.isfinite(g.theta):
                raise ValueError("gate angle must be finite")


def qubit_owners(spec: NetworkSpec) -> list[tuple[str, int]]:
    """Per global qubit: (owning party, local dimension), in source order."""
    out: list[tuple[str, int]] = []
    for src in spec.sources:
        dims = src.state.site_dims()
        if len(src.owners) != len(dims):
            raise ValueError(
                f"source with {len(dims)} sites assigned to {len(src.owners)} owners"
            )
        out.extend((owner, d) for owner, d in zip(src.owners, dims))
    return out


def parse_network_spec(data: Mapping) -> NetworkSpec:
    """Parse the JSON network form (parties / sources / cp_gates)."""
    data = _record("network", data)
    parties = tuple(str(p) for p in _list("parties", _entry("network spec", data, "parties")))
    sources = []
    for s in _list("sources", _entry("network spec", data, "sources")):
        s = _record("sources", s)
        owners = tuple(str(o) for o in _list("owners", _entry("network source", s, "owners")))
        sources.append(SourceSpec(parse_state_spec(_entry("network source", s, "state")), owners))
    gates = []
    for g in _list("cp_gates", data.get("cp_gates", [])):
        g = _record("cp_gates", g)
        raw_qubits = _list("qubits", _entry("cp gate", g, "qubits"))
        qubits = tuple(_integer("qubits", q) for q in raw_qubits)
        if len(qubits) != 2:
            raise ValueError(f"field 'qubits' must list two qubits, got {raw_qubits!r}")
        party = str(_entry("cp gate", g, "party"))
        gates.append(CpGate(party, _real("theta", _entry("cp gate", g, "theta")), qubits))
    return NetworkSpec(parties, tuple(sources), tuple(gates))


def network_to_dict(spec: NetworkSpec) -> dict:
    """Inverse of :func:`parse_network_spec` (round-trips exactly)."""
    return {
        "parties": list(spec.parties),
        "sources": [
            {"state": spec_to_dict(s.state), "owners": list(s.owners)}
            for s in spec.sources
        ],
        "cp_gates": [
            {"party": g.party, "theta": g.theta, "qubits": list(g.qubits)}
            for g in spec.cp_gates
        ],
    }


# ---------------------------------------------------------------------------
# state assembly
# ---------------------------------------------------------------------------


def _gates_diagonal(spec: NetworkSpec, dims: tuple[int, ...]) -> Array:
    """Flattened diagonal of the product of all gate unitaries.

    Every gate is diagonal, so the whole gate layer is one phase vector:
    entry I picks up e^{i theta} for each gate whose two qubits are both 1
    in I's digit expansion.
    """
    diag = np.ones(math.prod(dims), dtype=complex)
    for g in spec.cp_gates:
        # 1 exactly where both gate qubits are 1: a product of per-site indicators
        both = tensor_product(
            *((0, 1) if q in g.qubits else np.ones(d) for q, d in enumerate(dims, start=1))
        )
        diag[both.real == 1] *= np.exp(1j * g.theta)
    return diag


def _network_sites(spec: NetworkSpec) -> tuple[int, ...]:
    """Every site's local dimension in global order, refused over ``MAX_DIM``."""
    dims = tuple(d for _owner, d in qubit_owners(spec))
    dim = math.prod(dims)  # exact: an int64 product wraps to -2^63 at 63 qubits, 0 at 64
    if dim > MAX_DIM:
        raise ValueError(f"qubit budget exceeded: total dimension {dim} > {MAX_DIM}")
    return dims


def generate_cluster(spec: NetworkSpec, ch: BlindChannel | None = None) -> DensityMatrix:
    """Tensor the source states, apply all controlled-phase gates, then the
    blind channel.

    The gate layer is the rank-1 Schur multiplier g g^dag of its phase
    vector g, and the channel is a Schur multiplier too (see
    :mod:`qew.states`), so the two commute and their product is applied to
    the product of the sources in one elementwise step, in place.  The
    result g g^dag o M o (rho_1 x ... x rho_s) is PSD by construction: a
    Kronecker product of density matrices is PSD, and so is its Schur
    product with the PSD unit-diagonal g g^dag o M (Schur product theorem),
    so it gets the O(D^2) checks and no eigen-decomposition.  A gate may
    take any finite angle; the standard CZ is the angle pi.  The dense
    reference for :func:`source_reports`.
    """
    dims = _network_sites(spec)
    states = [build_state(src.state) for src in spec.sources]
    phases = _gates_diagonal(spec, dims)
    m = np.outer(phases, phases.conj())
    if ch is not None:
        m *= ch.multiplier(dims)
    m *= tensor_product(*(rho.mat for rho in states))
    return _derived(m, dims)


# ---------------------------------------------------------------------------
# LOCC reductions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionResult:
    """A corrected two-qubit state distilled from one measurement branch.

    ``corrections`` lists the conditional Paulis applied, as (name, output
    qubit) pairs; ``outcome`` is the measurement record ("+-+" style for
    +/- reductions, a Bell label for swaps).
    """

    pair: tuple[int, int]
    state: DensityMatrix
    corrections: tuple[tuple[str, int], ...]
    probability: float
    outcome: str

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0 + 1e-12:
            raise ValueError(f"branch probability {self.probability} outside (0, 1]")


def _require_edge_support(rho: DensityMatrix, what: str) -> None:
    # the ghz subspace of two qubits is the EPR pair's |00>/|11>
    leak = subspace_elements(rho, "ghz").leakage
    if leak > LEAKAGE_TOL:
        raise ValueError(
            f"{what} requires support on the edge subspace; leakage {leak:.3e} "
            f"exceeds {LEAKAGE_TOL:.1e}"
        )


def _reduce(
    rho: DensityMatrix,
    positions: Sequence[int],
    rows: Sequence[tuple[str, Array, tuple[tuple[str, int], ...]]],
    pair: tuple[int, int],
) -> list[ReductionResult]:
    """Project the sites at ``positions`` of ``rho`` onto the vector of each
    ``(label, vector, corrections)`` row and apply the row's corrections to
    the branch; a zero branch is dropped."""
    out = []
    for label, vec, corrections in rows:
        p, state = _branch(rho, positions, vec)
        if state is not None:
            state = _conjugate(state, obs(*((q, x) for x, q in corrections)))
            out.append(ReductionResult(pair, state, corrections, p, label))
    return out


def reduce_ghz_to_epr(rho: DensityMatrix, keep: tuple[int, int]) -> list[ReductionResult]:
    """Measure all qubits except ``keep`` in the +/- basis and correct.

    Returns every branch, its outcomes in ``itertools.product`` order of
    ``+`` before ``-`` over the measured qubits in site order.  An odd
    number of ``-`` outcomes flips the sign of the surviving coherence, so
    those branches get a Z on the first kept qubit; afterwards every branch
    carries the input's |0..0>/|1..1> coherence unchanged.
    """
    _require_edge_support(rho, "reduction")
    n = rho.n_sites
    pair = tuple(_integer("keep", q) for q in _list("keep", keep))
    if len(pair) != 2:
        raise ValueError(f"field 'keep' must list two qubits, got {keep!r}")
    i, j = pair
    if i == j:
        raise ValueError("keep indices must be distinct")
    for q in (i, j):
        if not 1 <= q <= n:
            raise ValueError(f"keep index {q} out of range")
    if n < 3:
        raise ValueError("nothing to measure: state already has 2 qubits")
    i, j = min(i, j), max(i, j)
    others = [q for q in range(1, n + 1) if q not in (i, j)]
    rows = [
        (
            "".join("+-"[b] for b in bits),
            tensor_product(*(_PLUSMINUS[b] for b in bits)),
            (("Z", 1),) if sum(bits) % 2 else (),
        )
        for bits in itertools.product((0, 1), repeat=len(others))
    ]
    return _reduce(rho, others, rows, (i, j))


# Rows |+> and |-> of a qubit site
_PLUSMINUS = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
# (label, vector, corrections) of each Bell outcome on two qubit sites; the
# first kept qubit is the left input's remaining one, the second the right's
_BELL_ROWS = [
    (label, np.array(vec, dtype=complex) / np.sqrt(2.0), corrections)
    for label, vec, corrections in (
        ("phi+", [1, 0, 0, 1], ()),
        ("phi-", [1, 0, 0, -1], (("Z", 1),)),
        ("psi+", [0, 1, 1, 0], (("X", 2),)),
        ("psi-", [0, 1, -1, 0], (("X", 2), ("Z", 1))),
    )
]


def swap_branches(rho_ab: DensityMatrix, rho_cd: DensityMatrix) -> list[ReductionResult]:
    """All nonzero Bell branches of an entanglement swap, corrected.

    The two pair states (on qubits A,B and C,D) must live in the
    |00>/|11> span up to ``LEAKAGE_TOL``.  B and C are jointly measured in
    the Bell basis; ``_BELL_ROWS`` maps each outcome to its correction.  On
    every returned branch the output coherence is rho_00;11 * rho'_00;11 /
    norm (the psi branches see the conjugate of the second factor, which
    coincides for real coherences).
    """
    for rho, name in ((rho_ab, "first"), (rho_cd, "second")):
        if rho.sites != (2, 2):
            raise ValueError(f"{name} input must be a two-qubit state, got {rho.sites}")
        _require_edge_support(rho, "entanglement swap")
    # a Kronecker product of density matrices is PSD by construction
    joint = _derived(tensor_product(rho_ab.mat, rho_cd.mat), (2, 2, 2, 2))
    out = _reduce(joint, (2, 3), _BELL_ROWS, (1, 4))
    total = sum(br.probability for br in out)
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"branch probabilities sum to {total}, expected 1")
    return out


# ---------------------------------------------------------------------------
# per-source verification batteries and connectivity
# ---------------------------------------------------------------------------


def source_batteries(spec: NetworkSpec) -> list[ParadoxBattery]:
    """One paradox battery per source, re-indexed to global qubit numbers.

    Each source contributes its family's battery (pairwise ZZ equalities,
    ZX/XZ zeros, and the source-wide X-string NonZero line), shifted onto
    the source's qubits.
    """
    out, offset = [], 0
    for src in spec.sources:
        dims = src.state.site_dims()
        battery = witness_family(src.state.family()).battery(dims)
        out.append(reindex_battery(battery, offset))
        offset += len(dims)
    return out


@functools.cache
def _global_labels(family: str, sites: tuple[int, ...], offset: int) -> tuple[str, ...]:
    """The label of each line of ``family``'s battery on ``sites`` with every
    site index shifted by ``offset``, in line order.  Built once per key."""
    battery = reindex_battery(witness_family(family).battery(sites), offset)
    return tuple(item.observable.label() for item in battery.items)


def source_reports(
    spec: NetworkSpec, ch: BlindChannel | None, *, eps_eq: float, eps_nz: float
) -> list[BatteryReport]:
    """Each source's battery read on ch|_s(rho_s), the channel with each term's
    phases kept on source s's sites, and labelled with global qubit numbers.

    A line P reads there what G P G^dag reads on :func:`generate_cluster`'s
    state for any gate layer G: G^dag rho G = M o (rho_1 x ... x rho_s), and
    each term's phase vector has unit modulus, so the other sources trace
    out to 1.  No network matrix is built.
    """
    dims = _network_sites(spec)
    if ch is not None and ch.site_dims() != dims:
        raise ValueError(f"channel sites {ch.site_dims()} do not match state sites {dims}")
    out, offset = [], 0
    for src in spec.sources:
        rho = build_state(src.state)
        k = rho.n_sites
        if ch is not None:
            terms = (ChannelTerm(t.p, t.site_phases[offset : offset + k]) for t in ch.terms)
            rho = apply_blind_channel(rho, BlindChannel(tuple(terms)))
        family = src.state.family()
        battery = witness_family(family).battery(rho.sites)
        rep = evaluate_battery(rho, battery, eps_eq=eps_eq, eps_nz=eps_nz)
        labels = _global_labels(family, rho.sites, offset)
        items = (replace(r, label=label) for r, label in zip(rep.items, labels))
        out.append(BatteryReport(tuple(items), rep.passed))
        offset += k
    return out


def connectivity_check(spec: NetworkSpec) -> tuple[bool, list[list[str]]]:
    """Whether shared sources connect all parties; also the components.

    Every party starts alone and every source merges the groups its owners
    are in.  Returns (single component?, components in first-appearance
    order, each listing its parties in declaration order).
    """
    groups: list[set[str]] = [{p} for p in spec.parties]
    for src in spec.sources:
        owners = set(src.owners)
        hit = [g for g in groups if g & owners]
        groups = [g for g in groups if not g & owners] + [owners.union(*hit)]
    rank = spec.parties.index
    components = sorted((sorted(g, key=rank) for g in groups), key=lambda c: rank(c[0]))
    return len(components) == 1, components
