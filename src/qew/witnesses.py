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

The noise-threshold helpers (:func:`critical_visibility`,
:func:`svetlichny_value`) quantify how much white noise each verification
route tolerates.

A battery is a pure function of its shape, and a frozen one, so each is
built once and shared: the ring batteries of :func:`battery_epr`,
:func:`battery_ghz` and :func:`battery_qudit` through the memo
``_ring_battery``, keyed on (n, d) and the operator names (the 64 latest
shapes), and :func:`battery_w` through its own.  Every caller of
``battery_ghz(4)`` gets the same object.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .qmat import Array, DensityMatrix, Factor, Observable, expectation, obs
from .states import (
    SubspaceView,
    _positive,
    _subspace_entries,
    _subspace_index,
    subspace_elements,
)

__all__ = [
    "EPS_EQ",
    "EPS_NZ",
    "FAMILY_NAMES",
    "LEAKAGE_TOL",
    "MAX_ASSIGNMENT_CELLS",
    "BatteryItem",
    "BatteryReport",
    "Contract",
    "Exact",
    "ItemResult",
    "NonZero",
    "ParadoxBattery",
    "ValueAssignment",
    "WitnessFamily",
    "WitnessReport",
    "Zero",
    "battery_epr",
    "battery_ghz",
    "battery_qudit",
    "battery_w",
    "classical_assignment_search",
    "critical_visibility",
    "evaluate_battery",
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
    """Ordered battery of contracted observables: the paradox, nothing else.

    How precisely the lines are checked belongs to the evaluation: see the
    ``eps_eq``/``eps_nz`` keywords of :func:`evaluate_battery`.  A battery
    must contain at least one NonZero item — that line is what separable
    states cannot reproduce once they satisfy the rest.
    """

    items: tuple[BatteryItem, ...]

    def __post_init__(self) -> None:
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
        )
    )


# typed: a float n or d keys its own entry, and fails as it did unmemoized;
# bounded, since no budget caps n here
@functools.lru_cache(maxsize=64, typed=True)
def _ring_battery(n: int, d: int, z: str, x: str, y: str | None) -> ParadoxBattery:
    """z^k (x) z^(d-k) = 1 for k = 1..d/2 and z/x, x/z zeros on the ring pairs
    (1,n), (1,2), ..., (n-1,n), closed by the all-x NonZero line; with ``y``
    given, that line's companion has y on site n in place of x.  Built once
    per key."""
    if n < 2:
        raise ValueError(f"need at least 2 sites, got n={n}")
    if d < 2:
        raise ValueError(f"need local dimension >= 2, got d={d}")
    pairs = [(1, n)] + [(j, j + 1) for j in range(1, n)]
    items = [
        BatteryItem(obs((a, z, k), (b, z, d - k)), Exact(1.0))
        for a, b in pairs
        for k in range(1, d // 2 + 1)
    ]
    items += [BatteryItem(obs((a, z), (b, x)), Zero()) for a, b in pairs]
    items += [BatteryItem(obs((a, x), (b, z)), Zero()) for a, b in pairs]
    comp = obs(*[(j, x) for j in range(1, n)], (n, y)) if y else None
    items.append(BatteryItem(obs(*[(j, x) for j in range(1, n + 1)]), NonZero(), companion=comp))
    # at n = 2 the ring pairs coincide; keep the first of each repeated line
    return ParadoxBattery(tuple(dict.fromkeys(items)))


def battery_epr() -> ParadoxBattery:
    """The four-line two-qubit battery: ZZ=1, ZX=0, XZ=0, XX!=0."""
    return battery_ghz(2)


def battery_ghz(n: int) -> ParadoxBattery:
    """Ring battery for n-qubit GHZ-type states.

    ZZ equalities and ZX/XZ zeros on the ring pairs (1,n), (1,2), ...,
    (n-1,n), closed by the all-X NonZero line with its X...XY companion.
    At n = 2 the ring pairs coincide and the list deduplicates to
    :func:`battery_epr`.
    """
    return _ring_battery(n, 2, "Z", "X", "Y")


@functools.cache
def battery_w() -> ParadoxBattery:
    """Six-line battery for the three-qubit W-type family, built once.

    ZZZ = -1 pins the odd-excitation subspace, three single-X zeros kill
    the cross-subspace elements, and two two-site XX lines are the
    entanglement witnesses (nonzero on the family, jointly unreachable
    classically), each with its XY companion.
    """
    items = [
        BatteryItem(obs((1, "Z"), (2, "Z"), (3, "Z")), Exact(-1.0)),
        BatteryItem(obs((1, "X"), (2, "Z"), (3, "Z")), Zero()),
        BatteryItem(obs((1, "Z"), (2, "X"), (3, "Z")), Zero()),
        BatteryItem(obs((1, "Z"), (2, "Z"), (3, "X")), Zero()),
        BatteryItem(obs((1, "X"), (2, "X")), NonZero(), companion=obs((1, "X"), (2, "Y"))),
        BatteryItem(obs((1, "X"), (3, "X")), NonZero(), companion=obs((1, "X"), (3, "Y"))),
    ]
    return ParadoxBattery(tuple(items))


def battery_qudit(n: int, d: int) -> ParadoxBattery:
    """Ring battery for n qudits: clock-power equalities plus shift lines.

    Clock-power pairs run over k = 1..d/2 on every ring pair; the mixed
    clock/shift zeros mirror :func:`battery_ghz`; the all-shift line is
    NonZero, and needs no companion: a clock/shift expectation is complex
    and its modulus is tested.  A line k and its adjoint line d-k are one
    Exact(1) contract, so only k <= d/2 is listed.
    """
    return _ring_battery(n, d, "clock", "shift", None)


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


def evaluate_battery(
    rho: DensityMatrix,
    battery: ParadoxBattery,
    *,
    eps_eq: float = EPS_EQ,
    eps_nz: float = EPS_NZ,
) -> BatteryReport:
    """Evaluate every battery item on ``rho`` and apply its contract's
    ``check``: ``eps_eq`` bounds the Exact/Zero distances, ``eps_nz`` is
    the NonZero threshold, each a finite positive number.  A NonZero item with a companion tests the
    combined magnitude.  The overall report passes only if every item does.
    """
    _positive("eps_eq", eps_eq)
    _positive("eps_nz", eps_nz)
    results = []
    for item in battery.items:
        value = tested = expectation(rho, item.observable)
        companion_value = None
        if item.companion is not None:
            companion_value = expectation(rho, item.companion)
            tested = np.hypot(abs(value), abs(companion_value))
        magnitude, passed = item.contract.check(tested, eps_eq, eps_nz)
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


# The formulas below read populations in basis order and coherence moduli in
# pair order (see :func:`qew.states.subspace_elements`).  Each entry is a
# number, for one state, or an array with one value per matrix of a stack; the
# terms are added one at a time in a fixed order, which fixes the rounding.


def _ladder_lhs(pops: Sequence, mods: Sequence):
    """2 sum_{a<b} |rho_ab| + sum_a rho_aa - 1: the moduli summed, then the
    populations added one at a time."""
    lhs = 2.0 * sum(mods)
    for p in pops:
        lhs += p
    return lhs - 1.0


# The W witness's four coherences, and where they sit in the pair order.
_W_LINES = ((1, 7), (2, 4), (1, 2), (4, 7))
_W_AT = [_subspace_index("w", (2, 2, 2))[1].index(p) for p in _W_LINES]


def _w_lhs(pops: Sequence, mods: Sequence):
    """|rho_001;111| + |rho_010;100| + |rho_001;010| + |rho_100;111|, in that order."""
    return sum(mods[k] for k in _W_AT)


@dataclass(frozen=True)
class WitnessFamily:
    """One witness family, stated once: what the CLI, the oracle and the
    network checks need to know about it.

    ``formula(pops, mods)`` is the left-hand side in the populations and
    coherence moduli of the family subspace ``states.family_basis(name,
    sites)``; it stays at or below ``bound`` on the family's set, which
    ``qew.oracle._WITNESS_SET`` names, and ``alt_bound`` is a secondary
    threshold, or None.  ``battery(sites)`` builds the paradox battery for
    a member on ``sites``; it carries no tolerances, which
    :func:`evaluate_battery` takes.  The sites a member may have are
    ``states.family_sites(name, n, d)``.
    """

    name: str
    formula: Callable[[Sequence, Sequence], float]
    bound: float
    alt_bound: float | None
    battery: Callable[[Sequence[int]], ParadoxBattery]

    def witness(self, rho: DensityMatrix, *, eps_eq: float = EPS_EQ) -> WitnessReport:
        """The report of the witness on the family subspace of ``rho``."""
        view = subspace_elements(rho, self.name)
        mods = [abs(c) for c in view.coherences.values()]
        lhs = self.formula(view.populations.values(), mods)
        witnessed = lhs > self.bound + _positive("eps_eq", eps_eq)
        return WitnessReport(
            lhs=float(lhs),
            bound=float(self.bound),
            verdict=ENTANGLED if witnessed else NOT_WITNESSED,
            elements=view,
            leakage=view.leakage,
            margin=float(lhs - self.bound),
            alt_bound=self.alt_bound,
        )

    def lhs(self, mats: Array, sites: tuple[int, ...]) -> Array:
        """The left-hand side on a (B, D, D) stack of matrices over ``sites``:
        one value per matrix, each bit for bit the ``lhs`` of its
        :meth:`witness` report."""
        k = len(_subspace_index(self.name, sites)[0])
        entries = _subspace_entries(mats, self.name, sites)
        pops, cohs = entries[:, :k].real, entries[:, k:]
        # np.hypot of the parts is abs(complex) to the bit; np.abs on
        # complex128 is not, and differs in the last bit on some values
        return self.formula(pops.T, np.hypot(cohs.real, cohs.imag).T)


_FAMILIES = {
    "epr": WitnessFamily("epr", _ladder_lhs, 0.0, None, lambda sites: battery_epr()),
    "ghz": WitnessFamily("ghz", _ladder_lhs, 0.0, None, lambda sites: battery_ghz(len(sites))),
    "w": WitnessFamily("w", _w_lhs, 0.5, 0.25, lambda sites: battery_w()),
    "qudit": WitnessFamily(
        "qudit", _ladder_lhs, 0.0, None, lambda sites: battery_qudit(len(sites), sites[0])
    ),
}

FAMILY_NAMES = tuple(_FAMILIES)


def witness_family(name: str) -> WitnessFamily:
    """The table entry of a witness family, one of ``FAMILY_NAMES``."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown witness family {name!r}") from None


def witness_epr(rho: DensityMatrix) -> WitnessReport:
    """Two-qubit coherence witness: 2|rho_00;11| + rho_00 + rho_11 - 1 <= 0.

    Every separable two-qubit state obeys the bound; any state of the
    EPR-type family with surviving |00>/|11> coherence exceeds it.
    """
    return _FAMILIES["epr"].witness(rho)


def witness_ghz(rho: DensityMatrix) -> WitnessReport:
    """n-qubit biseparability witness on the |0..0>/|1..1> pair.

    Same functional form as :func:`witness_epr`; the bound 0 holds for
    every biseparable n-qubit state (any bipartition), so a violation
    certifies genuine multipartite entanglement.  n = 2 coincides with
    :func:`witness_epr`.
    """
    return _FAMILIES["ghz"].witness(rho)


def witness_w(rho: DensityMatrix) -> WitnessReport:
    """W-type witness: four coherence moduli of the odd-excitation block.

    lhs = |rho_001;111| + |rho_010;100| + |rho_001;010| + |rho_100;111|.
    Biseparable three-qubit states stay at or below 1/2 (the verdict
    bound); ``alt_bound`` reports the stricter 1/4 threshold that the
    family's generic members clear.
    """
    return _FAMILIES["w"].witness(rho)


def witness_qudit(rho: DensityMatrix) -> WitnessReport:
    """Qudit witness on the |j..j> ladder: 2 sum |coh| + sum pops - 1 <= 0.

    The bound holds for every biseparable state of n uniform d-level
    sites; at d = 2 the expression reduces to :func:`witness_ghz`.
    """
    return _FAMILIES["qudit"].witness(rho)


# ---------------------------------------------------------------------------
# noise thresholds
# ---------------------------------------------------------------------------


_CRITICAL_KINDS = ("witness", "chsh", "svetlichny_3")


def critical_visibility(offdiag: float, kind: str) -> float:
    """White-noise visibility at which each verification route starts working.

    ``offdiag`` is the modulus of the family coherence (|rho_00;11| or
    |rho_000;111|), at most 1/2.  Routes: ``witness`` -> 1/(1+4c);
    ``chsh`` -> 1/sqrt(1+4c^2); ``svetlichny_3`` -> 1/(2 sqrt(2) c),
    capped at 1 where the closed form exceeds the physical range: below
    c = 1/(2 sqrt(2)) that cap means the route detects at no visibility (at
    v = 1 the Svetlichny value is 8 sqrt(2) c <= 4).
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


def svetlichny_value(rho: DensityMatrix, phis: Sequence[float]) -> float:
    """Svetlichny combination with equatorial settings A(phi) = cos(phi) X + sin(phi) Y.

    Each party measures A(phi_j) or the primed A(phi_j + pi/2) = -sin(phi_j) X
    + cos(phi_j) Y; the eight triple correlations are summed with + on the
    settings with at most one prime and - on the rest, and the magnitude is
    returned.  In X and Y that sum is sum_s w_s Re<s> over the eight X/Y
    strings s: eight monomial reads.  On white-noise GHZ mixtures the optimum
    sits at phi_1+phi_2+phi_3 = 3 pi/4 and equals 8 sqrt(2) v |rho_000;111|.
    """
    if rho.sites != (2, 2, 2):
        raise ValueError(f"three-qubit state required, got sites {rho.sites}")
    phis = tuple(float(p) for p in phis)
    if len(phis) != 3:
        raise ValueError(f"need 3 angles, got {len(phis)}")
    if not np.isfinite(phis).all():
        raise ValueError(f"angles must be finite, got {phis}")
    # trig[j][p, c]: Pauli c (0 X, 1 Y) of party j's setting, primed when p = 1
    trig = [np.array([[np.cos(p), np.sin(p)], [-np.sin(p), np.cos(p)]]) for p in phis]
    signs = np.where(np.indices((2, 2, 2)).sum(axis=0) <= 1, 1.0, -1.0)
    weights = np.einsum("pqr,pa,qb,rc->abc", signs, *trig)
    total = 0.0
    for s in itertools.product((0, 1), repeat=3):
        line = obs(*((j, "XY"[c]) for j, c in enumerate(s, start=1)))
        total += weights[s] * expectation(rho, line).real
    return float(abs(total))


def svetlichny_optimal_angles() -> tuple[float, float, float]:
    """Equatorial angles summing to 3 pi/4 (the optimum for real coherence)."""
    return (np.pi / 4.0, np.pi / 4.0, np.pi / 4.0)


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
) -> list[ValueAssignment]:
    """Exhaustive grid scan for classical value assignments satisfying a battery.

    Each party j gets definite values v_{j,z}, v_{j,x} from the grid
    [-1, 1] at ``grid_step`` resolution; an item's classical value is the
    product of the assigned values of its factors.  Returns every
    assignment meeting all Exact/Zero items within ``tol`` and all NonZero
    items above ``EPS_NZ``, in grid (lexicographic) order.  An empty result
    certifies the battery's classical contradiction at this resolution.

    Only X/Z factors are value-assignable here; companion observables are
    ignored (they exist for the quantum NonZero check only).  A scan of
    more than ``MAX_ASSIGNMENT_CELLS`` grid cells is refused before any
    of them is allocated, and so is a step that does not divide 1.
    """
    items = tuple(battery.items) if isinstance(battery, ParadoxBattery) else tuple(battery)
    if not items:
        raise ValueError("empty battery")
    if not 0.0 < grid_step <= 1.0:
        raise ValueError(f"grid_step must be in (0, 1], got {grid_step}")
    _positive("tol", tol)
    n = 0
    for item in items:
        for f in item.observable.factors:
            if f.name not in ("X", "Z"):
                raise ValueError(
                    f"factor {f.name!r} is not value-assignable; only X and Z are"
                )
            n = max(n, f.site)
    # the length of the np.arange below, counted as numpy counts it, before
    # the grid exists
    size = math.ceil(((1.0 + grid_step / 2.0) + 1.0) / grid_step)
    n_axes = 2 * n  # per party: axis 2(j-1) is v_z, axis 2(j-1)+1 is v_x
    cells = size**n_axes
    if cells > MAX_ASSIGNMENT_CELLS:
        raise ValueError(
            f"assignment budget exceeded: {size}^{n_axes} = {cells} grid cells "
            f"exceed {MAX_ASSIGNMENT_CELLS}"
        )
    # a grid without -1, 0 and +1 certifies false contradictions (the ZX = 0
    # line needs 0); rounding overshoots 1 at step 1/11
    if abs(1.0 / grid_step - round(1.0 / grid_step)) > 1e-9:
        raise ValueError(
            f"grid_step must divide 1 (1 / step an integer, so the grid holds -1, 0 and +1), "
            f"got {grid_step}"
        )
    grid = np.clip(np.arange(-1.0, 1.0 + grid_step / 2.0, grid_step), -1.0, 1.0)
    mask = np.ones((grid.size,) * n_axes, dtype=bool)
    for item in items:
        term: Array | float = 1.0
        for f in item.observable.factors:
            s = [1] * n_axes
            s[2 * (f.site - 1) + (0 if f.name == "Z" else 1)] = grid.size
            term = term * grid.reshape(s)
        mask &= item.contract.check(term, tol, EPS_NZ)[1]
    out = []
    for row in np.argwhere(mask):
        vals = tuple(
            (float(grid[row[2 * j]]), float(grid[row[2 * j + 1]])) for j in range(n)
        )
        out.append(ValueAssignment(vals))
    return out
