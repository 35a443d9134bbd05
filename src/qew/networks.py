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

Correction table used for the Bell outcomes (first kept qubit = left input's
remaining qubit, second = right input's):

    phi+ : none            phi- : Z on first kept
    psi+ : X on second     psi- : X on second, then Z on first
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .qmat import (
    BELL_LABELS,
    PAULI_X,
    PAULI_Z,
    ZERO_PROB,
    Array,
    DensityMatrix,
    _sandwich,
    all_outcome_bits,
    as_density,
    apply_local_unitaries,
    bell_basis,
    joint_measure_two_sites,
    plusminus_basis,
    tensor_product,
)
from .states import (
    MAX_DIM,
    BlindChannel,
    StateSpec,
    _integer,
    _list,
    _real,
    _record,
    build_state,
    parse_state_spec,
    spec_to_dict,
    subspace_elements,
)
from .witnesses import LEAKAGE_TOL, ParadoxBattery, reindex_battery, witness_family

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
    try:
        parties = tuple(str(p) for p in _list("parties", data["parties"]))
        raw_sources = _list("sources", data["sources"])
    except KeyError as exc:
        raise ValueError(f"network spec missing entry: {exc}") from None
    sources = []
    for s in raw_sources:
        s = _record("sources", s)
        owners = tuple(str(o) for o in _list("owners", s["owners"]))
        sources.append(SourceSpec(parse_state_spec(s["state"]), owners))
    gates = []
    for g in _list("cp_gates", data.get("cp_gates", [])):
        g = _record("cp_gates", g)
        qubits = tuple(_integer("qubits", q) for q in _list("qubits", g["qubits"]))
        if len(qubits) != 2:
            raise ValueError(f"field 'qubits' must list two qubits, got {g['qubits']!r}")
        gates.append(CpGate(str(g["party"]), _real("theta", g["theta"]), qubits))
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
    diag = np.ones(int(np.prod(dims)), dtype=complex)
    for g in spec.cp_gates:
        # 1 exactly where both gate qubits are 1: a product of per-site indicators
        both = tensor_product(
            *((0, 1) if q in g.qubits else np.ones(d) for q, d in enumerate(dims, start=1))
        )
        diag[both.real == 1] *= np.exp(1j * g.theta)
    return diag


def generate_cluster(spec: NetworkSpec, ch: BlindChannel | None = None) -> DensityMatrix:
    """Tensor the source states, apply all controlled-phase gates, then the
    blind channel.

    The gate layer is the rank-1 Schur multiplier g g^dag of its phase
    vector g, and the channel is a Schur multiplier too (see
    :mod:`qew.states`), so the two commute and their product is applied to
    the product of the sources in one elementwise step; only the result is
    validated.  Gates with angles outside (0, pi) are allowed but flag the
    output.
    """
    dims = tuple(d for _owner, d in qubit_owners(spec))
    if int(np.prod(dims)) > MAX_DIM:
        raise ValueError(
            f"qubit budget exceeded: total dimension {int(np.prod(dims))} > {MAX_DIM}"
        )
    states = [build_state(src.state) for src in spec.sources]
    flags = set().union(*(rho.flags for rho in states))
    if any(not 0.0 < g.theta < np.pi for g in spec.cp_gates):
        flags.add("gate-angle-boundary")
    phases = _gates_diagonal(spec, dims)
    m = np.outer(phases, phases.conj())
    if ch is not None:
        m = m * ch.multiplier(dims)
    return as_density(m * tensor_product(*(rho.mat for rho in states)), dims, flags)


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


def reduce_ghz_to_epr(
    rho: DensityMatrix,
    keep: tuple[int, int],
    outcomes: Sequence[int] | None = None,
) -> ReductionResult | list[ReductionResult]:
    """Measure all qubits except ``keep`` in the +/- basis and correct.

    ``outcomes`` (one 0/+ or 1/- entry per measured qubit, in site order)
    selects a single branch; ``None`` returns every branch.  An odd number
    of ``-`` outcomes flips the sign of the surviving coherence, so those
    branches get a Z on the first kept qubit; afterwards every branch
    carries the input's |0..0>/|1..1> coherence unchanged.
    """
    _require_edge_support(rho, "reduction")
    n = rho.n_sites
    i, j = keep
    if i == j:
        raise ValueError("keep indices must be distinct")
    for q in (i, j):
        if not 1 <= q <= n:
            raise ValueError(f"keep index {q} out of range")
    if n < 3:
        raise ValueError("nothing to measure: state already has 2 qubits")
    i, j = min(i, j), max(i, j)
    others = [q for q in range(1, n + 1) if q not in (i, j)]

    def one_branch(bits: tuple[int, ...]) -> ReductionResult:
        pm = plusminus_basis()
        vec = tensor_product(*(pm[b] for b in bits))
        # <v| rho |v> over all measured sites at once (a joint projection).
        sub = _sandwich(rho, others, vec)
        p = float(np.real(np.trace(sub)))
        if p <= ZERO_PROB:
            raise ValueError(f"branch {bits} has zero probability")
        state = as_density(sub / p, (2, 2))
        corrections: tuple[tuple[str, int], ...] = ()
        if sum(bits) % 2 == 1:
            state = apply_local_unitaries(state, [(1, PAULI_Z)])
            corrections = (("Z", 1),)
        label = "".join("+" if b == 0 else "-" for b in bits)
        return ReductionResult((i, j), state, corrections, p, label)

    if outcomes is not None:
        bits = tuple(int(b) for b in outcomes)
        if len(bits) != len(others) or any(b not in (0, 1) for b in bits):
            raise ValueError(
                f"outcomes must be {len(others)} entries of 0 (+) or 1 (-), got {outcomes}"
            )
        return one_branch(bits)
    return [one_branch(bits) for bits in all_outcome_bits(len(others))]


_SWAP_CORRECTIONS: dict[str, tuple[tuple[str, int], ...]] = {
    "phi+": (),
    "phi-": (("Z", 1),),
    "psi+": (("X", 2),),
    "psi-": (("X", 2), ("Z", 1)),
}
_PAULI_BY_NAME = {"Z": PAULI_Z, "X": PAULI_X}


def swap_branches(rho_ab: DensityMatrix, rho_cd: DensityMatrix) -> list[ReductionResult]:
    """All nonzero Bell branches of an entanglement swap, corrected.

    The two pair states (on qubits A,B and C,D) must live in the
    |00>/|11> span up to ``LEAKAGE_TOL``.  B and C are jointly measured in
    the Bell basis; the table at the top of this module maps each outcome
    to its correction.  On every returned branch the output coherence is
    rho_00;11 * rho'_00;11 / norm (the psi branches see the conjugate of
    the second factor, which coincides for real coherences).
    """
    for rho, name in ((rho_ab, "first"), (rho_cd, "second")):
        if rho.sites != (2, 2):
            raise ValueError(f"{name} input must be a two-qubit state, got {rho.sites}")
        _require_edge_support(rho, "entanglement swap")
    joint = as_density(tensor_product(rho_ab.mat, rho_cd.mat), (2, 2, 2, 2))
    branches = joint_measure_two_sites(joint, (2, 3), bell_basis())
    out = []
    for k, br in enumerate(branches):
        if br.flagged_zero:
            continue
        label = BELL_LABELS[k]
        state = br.state
        corrections = _SWAP_CORRECTIONS[label]
        for name, q in corrections:
            state = apply_local_unitaries(state, [(q, _PAULI_BY_NAME[name])])
        out.append(ReductionResult((1, 4), state, corrections, br.probability, label))
    return out


# ---------------------------------------------------------------------------
# per-source verification batteries and connectivity
# ---------------------------------------------------------------------------


def source_batteries(spec: NetworkSpec) -> list[ParadoxBattery]:
    """One paradox battery per source, re-indexed to global qubit numbers.

    Each source contributes its family's battery (pairwise ZZ equalities,
    ZX/XZ zeros, and the source-wide X-string NonZero line), shifted onto
    the source's qubits.  Evaluating them against the network state checks
    every source independently.
    """
    out = []
    offset = 0
    for src in spec.sources:
        dims = src.state.site_dims()
        battery = witness_family(src.state.family()).battery(dims)
        out.append(reindex_battery(battery, offset))
        offset += len(dims)
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
