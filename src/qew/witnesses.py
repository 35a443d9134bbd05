"""Nonlinear entanglement witnesses and correlation paradox batteries.

Two complementary verification devices live here:

* **Witness inequalities** — closed-form expressions in the populations and
  coherences of a family subspace (see :func:`qew.states.subspace_elements`)
  that are bounded for every (bi)separable state and exceeded by the
  entangled members of the family.  They come with reports carrying the
  left-hand side, the bound and the leakage so a caller can audit the
  verdict.

* **Paradox batteries** — ordered lists of product observables with
  per-item contracts (``Exact``/``Zero``/``NonZero``).  No classical
  assignment of per-party measurement values can satisfy all items at once,
  while the target entangled family passes them all; a separable state must
  fail at least one.  :func:`classical_assignment_search` makes the
  classical contradiction checkable by exhaustive grid scan.

The noise-threshold helpers (:func:`noise_witness`,
:func:`critical_visibility`, :func:`svetlichny_value`) quantify how much
white noise each verification route tolerates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .qmat import (
    PAULI_X,
    PAULI_Y,
    Array,
    DensityMatrix,
    Factor,
    Observable,
    expectation,
    obs,
    tensor_product,
)
from .states import SubspaceView, subspace_elements

__all__ = [
    "EPS_EQ",
    "EPS_NZ",
    "LEAKAGE_TOL",
    "MAX_ASSIGNMENT_CELLS",
    "BatteryItem",
    "BatteryReport",
    "Contract",
    "Exact",
    "ItemResult",
    "NonZero",
    "NoiseWitnessReport",
    "ParadoxBattery",
    "ValueAssignment",
    "WitnessFamily",
    "WitnessReport",
    "Zero",
    "battery_epr",
    "battery_ghz",
    "battery_qudit_2",
    "battery_qudit_n",
    "battery_w",
    "build_witness_operator",
    "classical_assignment_search",
    "critical_visibility",
    "evaluate_battery",
    "noise_witness",
    "offdiag_from_pauli",
    "reindex_battery",
    "svetlichny_optimal_angles",
    "svetlichny_value",
    "witness_epr",
    "witness_family",
    "witness_ghz",
    "witness_qudit",
    "witness_w",
]

EPS_EQ = 1e-9
EPS_NZ = 1e-6
LEAKAGE_TOL = 1e-8
# Grid cells one classical_assignment_search may scan; its mask holds one
# byte per cell.  At least 9^6, the three-party scan at step 0.25.
MAX_ASSIGNMENT_CELLS = 2**24

ENTANGLED = "entangled"
NOT_WITNESSED = "not-witnessed"


# ---------------------------------------------------------------------------
# battery contracts
# ---------------------------------------------------------------------------


# Each contract's ``check(v, eps_eq, eps_nz)`` returns the tested magnitude and
# whether it passes, elementwise when ``v`` is a numpy array of values.
_Checked = tuple[float | Array, bool | Array]


@dataclass(frozen=True)
class Exact:
    """The expectation must equal ``value`` (complex distance <= eps_eq)."""

    value: complex

    def check(self, v: complex | Array, eps_eq: float, eps_nz: float) -> _Checked:
        m = abs(v - self.value)
        return m, m <= eps_eq


@dataclass(frozen=True)
class Zero:
    """The expectation must vanish (modulus <= eps_eq)."""

    def check(self, v: complex | Array, eps_eq: float, eps_nz: float) -> _Checked:
        m = abs(v)
        return m, m <= eps_eq


@dataclass(frozen=True)
class NonZero:
    """The expectation must be bounded away from zero (modulus > eps_nz)."""

    def check(self, v: complex | Array, eps_eq: float, eps_nz: float) -> _Checked:
        m = abs(v)
        return m, m > eps_nz


Contract = Union[Exact, Zero, NonZero]


@dataclass(frozen=True)
class BatteryItem:
    """One battery line: an observable, its contract, optional companion.

    The companion is a quadrature partner (same string with one X replaced
    by Y) evaluated only for NonZero items; the tested magnitude is then
    sqrt(value^2 + companion^2), so a coherence that drifted to a purely
    imaginary phase still registers.  Exact/Zero items never carry one.
    """

    observable: Observable
    contract: Contract
    companion: Observable | None = None

    def __post_init__(self) -> None:
        if self.companion is not None and not isinstance(self.contract, NonZero):
            raise ValueError("companion observables are only meaningful on NonZero items")


@dataclass(frozen=True)
class ParadoxBattery:
    """Ordered battery of contracted observables with its tolerances.

    ``eps_eq`` applies to Exact/Zero items, ``eps_nz`` to NonZero items.
    A battery must contain at least one NonZero item — that line is what
    separable states cannot reproduce once they satisfy the rest.
    """

    items: tuple[BatteryItem, ...]
    eps_eq: float = EPS_EQ
    eps_nz: float = EPS_NZ

    def __post_init__(self) -> None:
        if self.eps_eq <= 0 or self.eps_nz <= 0:
            raise ValueError("tolerances must be positive")
        if not any(isinstance(i.contract, NonZero) for i in self.items):
            raise ValueError("a battery needs at least one NonZero item")


def reindex_battery(battery: ParadoxBattery, offset: int) -> ParadoxBattery:
    """Shift every observable's site indices by ``offset`` (for embedding a
    battery into a larger system, e.g. one source inside a network)."""

    def shift(o: Observable | None) -> Observable | None:
        if o is None:
            return None
        return Observable(
            tuple(Factor(f.site + offset, f.name, f.power) for f in o.factors)
        )

    return ParadoxBattery(
        tuple(
            BatteryItem(shift(i.observable), i.contract, shift(i.companion))
            for i in battery.items
        ),
        eps_eq=battery.eps_eq,
        eps_nz=battery.eps_nz,
    )


def _ring_battery(
    n: int, d: int, z: str, x: str, y: str | None, eps_eq: float, eps_nz: float
) -> ParadoxBattery:
    """z^k (x) z^(d-k) = 1 for k = 1..d-1 and z/x, x/z zeros on the ring pairs
    (1,n), (1,2), ..., (n-1,n), closed by the all-x NonZero line; with ``y``
    given, that line's companion has y on site n in place of x."""
    if n < 2:
        raise ValueError(f"need at least 2 sites, got n={n}")
    if d < 2:
        raise ValueError(f"need local dimension >= 2, got d={d}")
    pairs = [(1, n)] + [(j, j + 1) for j in range(1, n)]
    items = [
        BatteryItem(obs((a, z, k), (b, z, d - k)), Exact(1.0))
        for a, b in pairs
        for k in range(1, d)
    ]
    items += [BatteryItem(obs((a, z), (b, x)), Zero()) for a, b in pairs]
    items += [BatteryItem(obs((a, x), (b, z)), Zero()) for a, b in pairs]
    comp = obs(*[(j, x) for j in range(1, n)], (n, y)) if y else None
    items.append(BatteryItem(obs(*[(j, x) for j in range(1, n + 1)]), NonZero(), companion=comp))
    # at n = 2 the ring pairs coincide; keep the first of each repeated line
    return ParadoxBattery(tuple(dict.fromkeys(items)), eps_eq=eps_eq, eps_nz=eps_nz)


def battery_epr(
    *, eps_eq: float = EPS_EQ, eps_nz: float = EPS_NZ, imag_companion: bool = True
) -> ParadoxBattery:
    """The four-line two-qubit battery: ZZ=1, ZX=0, XZ=0, XX!=0."""
    return battery_ghz(2, eps_eq=eps_eq, eps_nz=eps_nz, imag_companion=imag_companion)


def battery_ghz(
    n: int,
    *,
    eps_eq: float = EPS_EQ,
    eps_nz: float = EPS_NZ,
    imag_companion: bool = True,
) -> ParadoxBattery:
    """Ring battery for n-qubit GHZ-type states.

    ZZ equalities and ZX/XZ zeros on the ring pairs (1,n), (1,2), ...,
    (n-1,n), closed by the all-X NonZero line.  At n = 2 the ring pairs
    coincide and the list deduplicates to :func:`battery_epr`.
    """
    return _ring_battery(n, 2, "Z", "X", "Y" if imag_companion else None, eps_eq, eps_nz)


def battery_w(
    *, eps_eq: float = EPS_EQ, eps_nz: float = EPS_NZ, imag_companion: bool = True
) -> ParadoxBattery:
    """Six-line battery for the three-qubit W-type family.

    ZZZ = -1 pins the odd-excitation subspace, three single-X zeros kill
    the cross-subspace elements, and two two-site XX lines are the
    entanglement witnesses (nonzero on the family, jointly unreachable
    classically).
    """
    items = [
        BatteryItem(obs((1, "Z"), (2, "Z"), (3, "Z")), Exact(-1.0)),
        BatteryItem(obs((1, "X"), (2, "Z"), (3, "Z")), Zero()),
        BatteryItem(obs((1, "Z"), (2, "X"), (3, "Z")), Zero()),
        BatteryItem(obs((1, "Z"), (2, "Z"), (3, "X")), Zero()),
        BatteryItem(
            obs((1, "X"), (2, "X")),
            NonZero(),
            companion=obs((1, "X"), (2, "Y")) if imag_companion else None,
        ),
        BatteryItem(
            obs((1, "X"), (3, "X")),
            NonZero(),
            companion=obs((1, "X"), (3, "Y")) if imag_companion else None,
        ),
    ]
    return ParadoxBattery(tuple(items), eps_eq=eps_eq, eps_nz=eps_nz)


def battery_qudit_2(
    d: int, *, eps_eq: float = EPS_EQ, eps_nz: float = EPS_NZ
) -> ParadoxBattery:
    """Two-qudit battery: :func:`battery_qudit_n` at n = 2 with one line fewer.

    For d > 2 the k = d-1 clock line clock^(d-1) (x) clock is the adjoint
    of the k = 1 line, so an Exact(1) contract on one holds exactly when it
    holds on the other, and the line is dropped.  At d = 2 the two lines are
    one and it stays: without it the product state |++> would pass.
    """
    full = battery_qudit_n(2, d, eps_eq=eps_eq, eps_nz=eps_nz)
    if d == 2:
        return full
    adjoint = BatteryItem(obs((1, "clock", d - 1), (2, "clock", 1)), Exact(1.0))
    return ParadoxBattery(
        tuple(i for i in full.items if i != adjoint), eps_eq=eps_eq, eps_nz=eps_nz
    )


def battery_qudit_n(
    n: int, d: int, *, eps_eq: float = EPS_EQ, eps_nz: float = EPS_NZ
) -> ParadoxBattery:
    """Ring battery for n qudits: clock-power equalities plus shift lines.

    Clock-power pairs run over k = 1..d-1 on every ring pair; the mixed
    clock/shift zeros mirror :func:`battery_ghz`; the all-shift line is
    NonZero.  Duplicate lines collapse at n = 2 (the two ring pairs
    coincide); note the two-qudit list then keeps the k = d-1 equality that
    :func:`battery_qudit_2` omits.
    """
    return _ring_battery(n, d, "clock", "shift", None, eps_eq, eps_nz)


# ---------------------------------------------------------------------------
# battery evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ItemResult:
    label: str
    contract: Contract
    value: complex
    companion_value: complex | None
    magnitude: float
    passed: bool


@dataclass(frozen=True)
class BatteryReport:
    items: tuple[ItemResult, ...]
    passed: bool

    def failures(self) -> tuple[ItemResult, ...]:
        return tuple(r for r in self.items if not r.passed)


def evaluate_battery(rho: DensityMatrix, battery: ParadoxBattery) -> BatteryReport:
    """Evaluate every battery item on ``rho`` and apply its contract's
    ``check``; a NonZero item with a companion tests the combined magnitude.
    The overall report passes only if every item does.
    """
    results = []
    for item in battery.items:
        value = tested = expectation(rho, item.observable)
        companion_value = None
        if item.companion is not None:
            companion_value = expectation(rho, item.companion)
            tested = np.hypot(abs(value), abs(companion_value))
        magnitude, passed = item.contract.check(tested, battery.eps_eq, battery.eps_nz)
        results.append(
            ItemResult(
                label=item.observable.label(),
                contract=item.contract,
                value=value,
                companion_value=companion_value,
                magnitude=float(magnitude),
                passed=bool(passed),
            )
        )
    return BatteryReport(tuple(results), passed=all(r.passed for r in results))


# ---------------------------------------------------------------------------
# witness inequalities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of a nonlinear witness evaluation.

    ``verdict`` is "entangled" when the left-hand side beats the bound by
    more than ``eps_eq``.  The bound holds for *every* (bi)separable state,
    with or without support outside the family subspace, so a violation is
    always conclusive.  The converse reading — "not-witnessed" implying no
    family-style entanglement — is only valid when ``leakage`` is small,
    which is why the leakage is part of the report.  ``alt_bound`` carries
    a secondary threshold where one exists (the W-type witness reports
    both 1/2 and 1/4).
    """

    lhs: float
    bound: float
    verdict: str
    elements: SubspaceView
    leakage: float
    margin: float
    alt_bound: float | None = None


def _report(
    lhs: float,
    bound: float,
    view: SubspaceView,
    eps_eq: float,
    alt_bound: float | None = None,
) -> WitnessReport:
    witnessed = lhs > bound + eps_eq
    return WitnessReport(
        lhs=float(lhs),
        bound=float(bound),
        verdict=ENTANGLED if witnessed else NOT_WITNESSED,
        elements=view,
        leakage=view.leakage,
        margin=float(lhs - bound),
        alt_bound=alt_bound,
    )


def _ladder_witness(rho: DensityMatrix, family: str, eps_eq: float) -> WitnessReport:
    """2 sum_{a<b} |rho_ab| + sum_a rho_aa - 1 <= 0 on the family's ladder basis.

    The populations are added one at a time in basis order after the
    coherence term, which fixes the rounding of every family's value.
    """
    view = subspace_elements(rho, family)
    lhs = 2.0 * sum(abs(c) for c in view.coherences.values())
    for p in view.populations.values():
        lhs += p
    return _report(lhs - 1.0, 0.0, view, eps_eq)


def witness_epr(
    rho: DensityMatrix,
    *,
    eps_eq: float = EPS_EQ,
) -> WitnessReport:
    """Two-qubit coherence witness: 2|rho_00;11| + rho_00 + rho_11 - 1 <= 0.

    Every separable two-qubit state obeys the bound; any state of the
    EPR-type family with surviving |00>/|11> coherence exceeds it.
    """
    if rho.sites != (2, 2):
        raise ValueError(f"two-qubit state required, got sites {rho.sites}")
    return _ladder_witness(rho, "epr", eps_eq)


def witness_ghz(
    rho: DensityMatrix,
    *,
    eps_eq: float = EPS_EQ,
) -> WitnessReport:
    """n-qubit biseparability witness on the |0..0>/|1..1> pair.

    Same functional form as :func:`witness_epr`; the bound 0 holds for
    every biseparable n-qubit state (any bipartition), so a violation
    certifies genuine multipartite entanglement.  n = 2 coincides with
    :func:`witness_epr`.
    """
    if any(d != 2 for d in rho.sites):
        raise ValueError(f"qubit sites required, got {rho.sites}")
    if rho.n_sites < 2:
        raise ValueError("need at least 2 sites")
    return _ladder_witness(rho, "ghz", eps_eq)


def witness_w(
    rho: DensityMatrix,
    *,
    eps_eq: float = EPS_EQ,
) -> WitnessReport:
    """W-type witness: four coherence moduli of the odd-excitation block.

    lhs = |rho_001;111| + |rho_010;100| + |rho_001;010| + |rho_100;111|.
    Biseparable three-qubit states stay at or below 1/2 (the verdict
    bound); ``alt_bound`` reports the stricter 1/4 threshold that the
    family's generic members clear.
    """
    if rho.sites != (2, 2, 2):
        raise ValueError(f"three-qubit state required, got sites {rho.sites}")
    view = subspace_elements(rho, "w")
    lhs = (
        abs(view.coherences[(1, 7)])
        + abs(view.coherences[(2, 4)])
        + abs(view.coherences[(1, 2)])
        + abs(view.coherences[(4, 7)])
    )
    return _report(lhs, 0.5, view, eps_eq, alt_bound=0.25)


def witness_qudit(
    rho: DensityMatrix,
    n: int | None = None,
    d: int | None = None,
    *,
    eps_eq: float = EPS_EQ,
) -> WitnessReport:
    """Qudit witness on the |j..j> ladder: 2 sum |coh| + sum pops - 1 <= 0.

    The bound holds for every biseparable state of n uniform d-level
    sites; at d = 2 the expression reduces to :func:`witness_ghz`.  ``n``
    and ``d``, when given, are cross-checked against the state.
    """
    dims = set(rho.sites)
    if len(dims) != 1:
        raise ValueError(f"uniform local dimensions required, got {rho.sites}")
    if rho.n_sites < 2:
        raise ValueError("need at least 2 sites")
    if n is not None and n != rho.n_sites:
        raise ValueError(f"state has {rho.n_sites} sites, expected n={n}")
    if d is not None and d != rho.sites[0]:
        raise ValueError(f"state has local dimension {rho.sites[0]}, expected d={d}")
    return _ladder_witness(rho, "qudit", eps_eq)


# ---------------------------------------------------------------------------
# the witness-family table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WitnessFamily:
    """What the CLI and the network checks need to know about one family.

    ``witness(rho, eps_eq=...)`` stays at or below ``bound`` on the
    ``sampler`` set ("separable" or "biseparable").  ``battery(sites, **tol)``
    builds the paradox battery for a member on ``sites``; ``sites(n, d)``
    gives the sites of a member, with None for the family's default n or d.
    """

    witness: Callable[..., WitnessReport]
    bound: float
    battery: Callable[..., ParadoxBattery]
    sampler: str
    sites: Callable[[int | None, int | None], tuple[int, ...]]


def _qudit_battery(sites: Sequence[int], *, imag_companion: bool = True, **tol) -> ParadoxBattery:
    # clock/shift expectations are complex: the modulus needs no companion
    if len(sites) == 2:
        return battery_qudit_2(sites[0], **tol)
    return battery_qudit_n(len(sites), sites[0], **tol)


def witness_family(name: str) -> WitnessFamily:
    """The table entry of a witness family: ``epr``, ``ghz``, ``w`` or ``qudit``.

    Entries are made at lookup from the module-level functions, so a
    rebinding of one of them (to trace its calls, say) is seen here too.
    """
    table = {
        "epr": WitnessFamily(witness_epr, 0.0, lambda sites, **kw: battery_epr(**kw),
                             "separable", lambda n, d: (2, 2)),
        "ghz": WitnessFamily(witness_ghz, 0.0, lambda sites, **kw: battery_ghz(len(sites), **kw),
                             "biseparable", lambda n, d: (2,) * (3 if n is None else n)),
        "w": WitnessFamily(witness_w, 0.5, lambda sites, **kw: battery_w(**kw),
                           "biseparable", lambda n, d: (2, 2, 2)),
        "qudit": WitnessFamily(witness_qudit, 0.0, _qudit_battery, "separable",
                               lambda n, d: (3 if d is None else d,) * (2 if n is None else n)),
    }
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown witness family {name!r}") from None


# ---------------------------------------------------------------------------
# noise thresholds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseWitnessReport:
    s: float
    zz: float
    xx: float
    zx: float
    xz: float
    zero_lines_ok: bool
    verdict: str


def noise_witness(
    rho: DensityMatrix,
    *,
    xx_coefficient: float = 2.0,
    eps_eq: float = EPS_EQ,
) -> NoiseWitnessReport:
    """Correlation-only witness s = 2<XX> + <ZZ> > 1 for noisy two-qubit states.

    On white-noise mixtures of the EPR-type family, s = v(1 + 4 rho_00;11),
    so the verdict line s > 1 reproduces the critical visibility
    1/(1 + 4 rho_00;11).  The <ZX> and <XZ> values are reported with a
    ``zero_lines_ok`` check but do not enter the verdict.  The coefficient
    on <XX> is exposed because a factor-4 variant of the same witness is in
    circulation; only 2 matches the visibility threshold above.
    """
    if rho.sites != (2, 2):
        raise ValueError(f"two-qubit state required, got sites {rho.sites}")
    zz = float(np.real(expectation(rho, obs((1, "Z"), (2, "Z")))))
    xx = float(np.real(expectation(rho, obs((1, "X"), (2, "X")))))
    zx = float(np.real(expectation(rho, obs((1, "Z"), (2, "X")))))
    xz = float(np.real(expectation(rho, obs((1, "X"), (2, "Z")))))
    s = xx_coefficient * xx + zz
    return NoiseWitnessReport(
        s=s,
        zz=zz,
        xx=xx,
        zx=zx,
        xz=xz,
        zero_lines_ok=max(abs(zx), abs(xz)) <= eps_eq,
        verdict=ENTANGLED if s > 1.0 + eps_eq else NOT_WITNESSED,
    )


_CRITICAL_KINDS = ("witness", "chsh", "svetlichny_3")


def critical_visibility(offdiag: float, kind: str) -> float:
    """White-noise visibility at which each verification route starts working.

    ``offdiag`` is the modulus of the family coherence (|rho_00;11| or
    |rho_000;111|), at most 1/2.  Routes: ``witness`` -> 1/(1+4c);
    ``chsh`` -> 1/sqrt(1+4c^2); ``svetlichny_3`` -> 1/(2 sqrt(2) c),
    capped at 1 where the closed form exceeds the physical range.
    """
    if not 0.0 <= offdiag <= 0.5:
        raise ValueError(f"offdiag must be in [0, 1/2], got {offdiag}")
    if kind == "witness":
        return 1.0 / (1.0 + 4.0 * offdiag)
    if kind == "chsh":
        return 1.0 / float(np.sqrt(1.0 + 4.0 * offdiag**2))
    if kind == "svetlichny_3":
        if offdiag == 0.0:
            return 1.0
        return min(1.0, 1.0 / (2.0 * float(np.sqrt(2.0)) * offdiag))
    raise ValueError(f"kind must be one of {_CRITICAL_KINDS}, got {kind!r}")


def _equatorial(phi: float) -> Array:
    return np.cos(phi) * PAULI_X + np.sin(phi) * PAULI_Y


def svetlichny_value(
    rho: DensityMatrix,
    phis: Sequence[float],
    primed_shift: float = np.pi / 2.0,
) -> float:
    """Svetlichny combination with equatorial settings cos(phi) X + sin(phi) Y.

    Each party measures A(phi_j) or the primed A(phi_j + primed_shift); the
    eight triple correlations are summed with + on the settings with at
    most one prime and - on the rest, and the magnitude is returned.  On
    white-noise GHZ mixtures the optimum sits at phi_1+phi_2+phi_3 = 3 pi/4
    with the pi/2 prime shift and equals 8 sqrt(2) v |rho_000;111|.
    """
    if rho.sites != (2, 2, 2):
        raise ValueError(f"three-qubit state required, got sites {rho.sites}")
    phis = tuple(float(p) for p in phis)
    if len(phis) != 3:
        raise ValueError(f"need 3 angles, got {len(phis)}")
    total = 0.0
    for primes in itertools.product((0, 1), repeat=3):
        mats = [_equatorial(phis[i] + primes[i] * primed_shift) for i in range(3)]
        corr = float(np.real(np.trace(rho.mat @ tensor_product(*mats))))
        total += corr if sum(primes) <= 1 else -corr
    return abs(total)


def svetlichny_optimal_angles() -> tuple[float, float, float]:
    """Equatorial angles summing to 3 pi/4 (the optimum for real coherence)."""
    return (np.pi / 4.0, np.pi / 4.0, np.pi / 4.0)


# ---------------------------------------------------------------------------
# witness operator construction
# ---------------------------------------------------------------------------


def build_witness_operator(
    target: DensityMatrix,
    weights: Sequence[float],
    sign: int = 1,
) -> Array:
    """Dense Hermitian operator sign*|psi><psi| + sum_j q_j |phi_j><phi_j|.

    ``target`` must be pure; the |phi_j> complete it to an orthonormal
    basis, obtained by Gram-Schmidt of the computational basis against the
    target vector (deterministic, order-preserving).  ``weights`` supplies
    one q_j per complement vector.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    evals, evecs = np.linalg.eigh(target.mat)
    if evals[-1] < 1.0 - 1e-10:
        raise ValueError(f"target must be pure, largest eigenvalue is {evals[-1]}")
    psi = evecs[:, -1]
    dim = target.dim
    q = np.asarray(weights, dtype=float)
    if q.shape != (dim - 1,):
        raise ValueError(f"expected {dim - 1} complement weights, got shape {q.shape}")
    basis = [psi]
    for k in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[k] = 1.0
        for b in basis:
            v = v - b * (b.conj() @ v)
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-8:
            basis.append(v / nrm)
        if len(basis) == dim:
            break
    w = float(sign) * np.outer(psi, psi.conj())
    for qj, phi in zip(q, basis[1:]):
        w = w + qj * np.outer(phi, phi.conj())
    return w


# ---------------------------------------------------------------------------
# classical value assignments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValueAssignment:
    """Definite per-party values (v_z, v_x), each in [-1, 1]."""

    values: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        for vz, vx in self.values:
            if not (-1.0 <= vz <= 1.0 and -1.0 <= vx <= 1.0):
                raise ValueError("assigned values must lie in [-1, 1]")


def classical_assignment_search(
    battery: ParadoxBattery | Sequence[BatteryItem],
    grid_step: float,
    tol: float,
    *,
    eps_nz: float = EPS_NZ,
) -> list[ValueAssignment]:
    """Exhaustive grid scan for classical value assignments satisfying a battery.

    Each party j gets definite values v_{j,z}, v_{j,x} from the grid
    [-1, 1] at ``grid_step`` resolution; an item's classical value is the
    product of the assigned values of its factors.  Returns every
    assignment meeting all Exact/Zero items within ``tol`` and all NonZero
    items above ``eps_nz``, in grid (lexicographic) order.  An empty result
    certifies the battery's classical contradiction at this resolution.

    Only X/Z factors are value-assignable here; companion observables are
    ignored (they exist for the quantum NonZero check only).  A scan of
    more than ``MAX_ASSIGNMENT_CELLS`` grid cells is refused before any
    of them is allocated.
    """
    items = tuple(battery.items) if isinstance(battery, ParadoxBattery) else tuple(battery)
    if not items:
        raise ValueError("empty battery")
    if not 0.0 < grid_step <= 1.0:
        raise ValueError(f"grid_step must be in (0, 1], got {grid_step}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = 0
    for item in items:
        for f in item.observable.factors:
            if f.name not in ("X", "Z"):
                raise ValueError(
                    f"factor {f.name!r} is not value-assignable; only X and Z are"
                )
            n = max(n, f.site)
    grid = np.arange(-1.0, 1.0 + grid_step / 2.0, grid_step)
    n_axes = 2 * n  # per party: axis 2(j-1) is v_z, axis 2(j-1)+1 is v_x
    cells = grid.size**n_axes
    if cells > MAX_ASSIGNMENT_CELLS:
        raise ValueError(
            f"assignment budget exceeded: {grid.size}^{n_axes} = {cells} grid cells "
            f"exceed {MAX_ASSIGNMENT_CELLS}"
        )
    mask = np.ones((grid.size,) * n_axes, dtype=bool)
    for item in items:
        term: Array | float = 1.0
        for f in item.observable.factors:
            s = [1] * n_axes
            s[2 * (f.site - 1) + (0 if f.name == "Z" else 1)] = grid.size
            term = term * grid.reshape(s)
        mask &= item.contract.check(term, tol, eps_nz)[1]
    out = []
    for row in np.argwhere(mask):
        vals = tuple(
            (float(grid[row[2 * j]]), float(grid[row[2 * j + 1]])) for j in range(n)
        )
        out.append(ValueAssignment(vals))
    return out


def offdiag_from_pauli(e_xx: float, e_xy: float) -> complex:
    """Reconstruct rho_00;11 from <XX> and <XY> for states in the |00>/|11> span.

    There <XX> = 2 Re rho_00;11 and <XY> = -2 Im rho_00;11, so the estimate
    is (e_xx - i e_xy) / 2.
    """
    return complex(e_xx, -e_xy) / 2.0
