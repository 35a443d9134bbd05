"""Interactive entanglement-proof simulation and statistical verification.

The protocol (four steps, one entangled pair per round):

1. the prover prepares a two-qubit state and sends qubit B to the verifier;
2. the verifier challenges with a uniform bit ``k`` per round;
3. the prover measures its qubit A with sigma_0 := sigma_x / sigma_1 :=
   sigma_z according to ``k`` and reports the outcome ``a``;
4. the verifier measures B with a uniformly chosen setting ``s`` (same
   x/z convention) obtaining ``b``.

Acceptance is a per-cell z-test over the four (k, s) correlation cells:
the zz cell must sit at +1, the two mixed cells at 0, and the xx cell must
be *significantly* away from 0.  The rule's parameters (z threshold,
minimum 30 rounds per cell) are simulation-side choices — the protocol
itself only prescribes which statistics to look at.

Randomness comes from :func:`qew.qmat.uniforms`, the package's one
counter-based source: round ``i`` reads streams 0 (challenge), 1 (setting)
and 2 (outcome) at index ``i``, so transcripts are bit-identical no matter
how the rounds are batched or parallelized.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .qmat import Array, DensityMatrix, as_density, expectation, obs, uniforms
from .states import BlindChannel, StateSpec, apply_blind_channel, build_state, werner_mix

__all__ = [
    "CellStats",
    "FixedOutcomesStrategy",
    "HonestStrategy",
    "LeakageView",
    "ProverStrategy",
    "SeparableDiagStrategy",
    "Transcript",
    "Verdict",
    "format_transcript",
    "leakage_view",
    "parse_transcript",
    "read_transcript",
    "run_protocol",
    "strategy_state",
    "verify_transcript",
    "write_transcript",
]

MIN_CELL_ROUNDS = 30
DEFAULT_Z = 5.0

# Challenge/setting bit -> measured Pauli (0 is x, 1 is z).
_AXIS_OP = {0: "X", 1: "Z"}
# Cell outcome order: (a, b) = (+,+), (+,-), (-,+), (-,-).
_A, _B = np.array(((1, 1), (1, -1), (-1, 1), (-1, -1))).T
CELLS = {"zz": (1, 1), "zx": (1, 0), "xz": (0, 1), "xx": (0, 0)}


# ---------------------------------------------------------------------------
# prover strategies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HonestStrategy:
    """Prover holds an actual family state, optionally noisy.

    ``channel`` scrambles coherence phases before the rounds start;
    ``visibility`` < 1 mixes in white noise.  The resulting state must be
    two-qubit (the protocol is bipartite).
    """

    state: StateSpec
    channel: BlindChannel | None = None
    visibility: float = 1.0


@dataclass(frozen=True)
class SeparableDiagStrategy:
    """Prover only has the diagonal mixture p0|00><00| + (1-p0)|11><11|."""

    p0: float = 0.5


@dataclass(frozen=True)
class FixedOutcomesStrategy:
    """Prover answers from a fixed table (no quantum state behind it).

    ``outcomes[k]`` is the reported a for challenge k; the verifier's qubit
    is modeled by ``verifier_qubit`` (2x2 density matrix entries, defaults
    to maximally mixed) since the prover sent it something uncorrelated.
    """

    outcomes: tuple[int, int] = (1, 1)
    verifier_qubit: tuple[tuple[complex, ...], ...] | None = None


ProverStrategy = Union[HonestStrategy, SeparableDiagStrategy, FixedOutcomesStrategy]


def strategy_state(strategy: ProverStrategy) -> DensityMatrix | None:
    """The two-qubit state a strategy actually measures, if it has one."""
    if isinstance(strategy, HonestStrategy):
        rho = build_state(strategy.state)
        if rho.sites != (2, 2):
            raise ValueError(
                f"the protocol is bipartite; strategy state has sites {rho.sites}"
            )
        if strategy.channel is not None:
            rho = apply_blind_channel(rho, strategy.channel)
        if not 0.0 <= strategy.visibility <= 1.0:
            raise ValueError(f"visibility must be in [0, 1], got {strategy.visibility}")
        if strategy.visibility < 1.0:
            rho = werner_mix(rho, strategy.visibility)
        return rho
    if isinstance(strategy, SeparableDiagStrategy):
        if not 0.0 <= strategy.p0 <= 1.0:
            raise ValueError(f"p0 must be in [0, 1], got {strategy.p0}")
        return as_density(np.diag([strategy.p0, 0.0, 0.0, 1.0 - strategy.p0]), (2, 2))
    if isinstance(strategy, FixedOutcomesStrategy):
        return None
    raise ValueError(f"unknown strategy {strategy!r}")


def _prob_table(strategy: ProverStrategy) -> Array:
    """P(a, b | k, s) as a (2, 2, 4) array over the fixed outcome order."""
    table = np.zeros((2, 2, 4))
    rho = strategy_state(strategy)
    if rho is not None:
        e = [expectation(rho, obs((1, _AXIS_OP[k]))).real for k in (0, 1)]
        f = [expectation(rho, obs((2, _AXIS_OP[s]))).real for s in (0, 1)]
        for k in (0, 1):
            for s in (0, 1):
                c = expectation(rho, obs((1, _AXIS_OP[k]), (2, _AXIS_OP[s]))).real
                table[k, s] = (1.0 + _A * e[k] + _B * f[s] + _A * _B * c) / 4.0
    else:
        if any(a not in (-1, 1) for a in strategy.outcomes):
            raise ValueError(f"fixed outcomes must be +/-1, got {strategy.outcomes}")
        if strategy.verifier_qubit is None:
            rho_b = as_density(np.eye(2) / 2.0, (2,))
        else:
            rho_b = as_density(np.array(strategy.verifier_qubit, dtype=complex), (2,))
        f = [expectation(rho_b, obs((1, _AXIS_OP[s]))).real for s in (0, 1)]
        for k in (0, 1):
            for s in (0, 1):
                table[k, s] = np.where(_A == strategy.outcomes[k], (1.0 + _B * f[s]) / 2.0, 0.0)
    table = np.clip(table, 0.0, None)
    return table / table.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# transcripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Transcript:
    """Round-by-round protocol record: challenge k, prover outcome a,
    verifier setting s, verifier outcome b (arrays indexed by round)."""

    seed: int
    n_rounds: int
    k: Array
    a: Array
    s: Array
    b: Array

    def __post_init__(self) -> None:
        for name in ("k", "a", "s", "b"):
            arr = getattr(self, name)
            if arr.shape != (self.n_rounds,):
                raise ValueError(f"field {name} has shape {arr.shape}, expected ({self.n_rounds},)")
        if not (np.isin(self.k, (0, 1)).all() and np.isin(self.s, (0, 1)).all()):
            raise ValueError("challenges and settings must be bits")
        if not (np.isin(self.a, (-1, 1)).all() and np.isin(self.b, (-1, 1)).all()):
            raise ValueError("outcomes must be +/-1")


def run_protocol(
    strategy: ProverStrategy,
    n_rounds: int,
    seed: int,
    *,
    workers: int = 1,
) -> Transcript:
    """Simulate ``n_rounds`` protocol rounds; exact Born statistics.

    Challenges and settings are uniform bits; (a, b) is drawn per round
    from the joint distribution of the strategy's state under the selected
    Pauli pair.  Deterministic in (strategy, n_rounds, seed) and unchanged
    by ``workers``.
    """
    if n_rounds < 1:
        raise ValueError(f"need at least one round, got {n_rounds}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    cum = np.cumsum(_prob_table(strategy), axis=-1)
    cum[..., -1] = 1.0

    def chunk(lo: int, hi: int) -> tuple[Array, Array, Array, Array]:
        k, s, u = uniforms(seed, np.arange(lo, hi), np.arange(3)[:, None])
        k = (k >= 0.5).astype(np.uint8)
        s = (s >= 0.5).astype(np.uint8)
        # Outcome index = entries of the round's cumulative row <= u (the row is nondecreasing).
        o = np.count_nonzero(cum[k, s] <= u[:, None], axis=1)
        return k, (1 - 2 * (o >> 1)).astype(np.int8), s, (1 - 2 * (o & 1)).astype(np.int8)

    if workers == 1:
        k, a, s, b = chunk(0, n_rounds)
    else:
        bounds = np.linspace(0, n_rounds, workers + 1, dtype=int)
        spans = [(int(x), int(y)) for x, y in zip(bounds[:-1], bounds[1:]) if y > x]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(lambda xy: chunk(*xy), spans))
        k = np.concatenate([p[0] for p in parts])
        a = np.concatenate([p[1] for p in parts])
        s = np.concatenate([p[2] for p in parts])
        b = np.concatenate([p[3] for p in parts])
    return Transcript(seed=seed, n_rounds=n_rounds, k=k, a=a, s=s, b=b)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellStats:
    count: int
    estimate: float
    std_error: float


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    cells: Mapping[str, CellStats]
    z_threshold: float


def _cell_stats(t: Transcript) -> dict[str, CellStats]:
    prod = (t.a.astype(np.int64) * t.b.astype(np.int64)).astype(float)
    out = {}
    for name, (k, s) in CELLS.items():
        m = (t.k == k) & (t.s == s)
        n = int(m.sum())
        if n == 0:
            out[name] = CellStats(0, float("nan"), float("nan"))
            continue
        est = float(prod[m].mean())
        se = float(np.sqrt(max(0.0, 1.0 - est * est) / n))
        out[name] = CellStats(n, est, se)
    return out


def verify_transcript(t: Transcript, z: float = DEFAULT_Z) -> Verdict:
    """Per-cell z-tests: zz pinned at 1, zx/xz at 0, xx significantly away.

    Every cell needs at least 30 rounds; anything less raises rather than
    producing an unstable verdict.
    """
    if z <= 0:
        raise ValueError("z threshold must be positive")
    cells = _cell_stats(t)
    for name, c in cells.items():
        if c.count < MIN_CELL_ROUNDS:
            raise ValueError(
                f"undersampled cell {name}: {c.count} rounds (need >= {MIN_CELL_ROUNDS})"
            )
    ok = (
        abs(cells["zz"].estimate - 1.0) <= z * cells["zz"].std_error
        and abs(cells["zx"].estimate) <= z * cells["zx"].std_error
        and abs(cells["xz"].estimate) <= z * cells["xz"].std_error
        and abs(cells["xx"].estimate) > z * cells["xx"].std_error
    )
    return Verdict(accepted=ok, cells=cells, z_threshold=z)


@dataclass(frozen=True)
class LeakageView:
    """Everything the transcript reveals about the prover's state.

    All fields are functions of the density matrix alone — cell statistics,
    the implied real part of the |00>/|11> coherence, a positivity bound on
    its imaginary part, and the edge populations.  Nothing here is (or can
    be) indexed by a mixture term of the prover's preparation.
    """

    cells: Mapping[str, CellStats]
    populations: tuple[float, float]
    re_offdiag: float
    im_offdiag_bound: float


def leakage_view(t: Transcript) -> LeakageView:
    """Summarize the state information contained in a transcript."""
    cells = _cell_stats(t)
    m = t.s == 1
    if m.any():
        zb = float(t.b[m].astype(float).mean())
    else:
        zb = float("nan")
    p00 = min(1.0, max(0.0, (1.0 + zb) / 2.0)) if np.isfinite(zb) else float("nan")
    p11 = 1.0 - p00 if np.isfinite(zb) else float("nan")
    re = cells["xx"].estimate / 2.0
    if np.isfinite(re) and np.isfinite(p00):
        im_bound = float(np.sqrt(max(0.0, p00 * p11 - re * re)))
    else:
        im_bound = float("nan")
    return LeakageView(
        cells=cells,
        populations=(p00, p11),
        re_offdiag=re,
        im_offdiag_bound=im_bound,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def format_transcript(t: Transcript) -> str:
    """Line format: header with seed/N, then `round,k,a,s,b` records."""
    lines = [f"# seed={t.seed} N={t.n_rounds}", "round,k,a,s,b"]
    for i in range(t.n_rounds):
        lines.append(f"{i},{t.k[i]},{t.a[i]},{t.s[i]},{t.b[i]}")
    return "\n".join(lines) + "\n"


def parse_transcript(text: str) -> Transcript:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("#"):
        raise ValueError("transcript must start with a '# seed=... N=...' header")
    header = dict(part.split("=") for part in lines[0].lstrip("# ").split())
    try:
        seed, n = int(header["seed"]), int(header["N"])
    except (KeyError, ValueError):
        raise ValueError(f"bad transcript header: {lines[0]!r}") from None
    if lines[1] != "round,k,a,s,b":
        raise ValueError(f"bad column header: {lines[1]!r}")
    rows = np.array(
        [[int(x) for x in ln.split(",")] for ln in lines[2:]], dtype=np.int64
    )
    if rows.shape != (n, 5):
        raise ValueError(f"expected {n} data rows of 5 fields, got shape {rows.shape}")
    if not np.array_equal(rows[:, 0], np.arange(n)):
        raise ValueError("round indices must be 0..N-1 in order")
    return Transcript(
        seed=seed,
        n_rounds=n,
        k=rows[:, 1].astype(np.uint8),
        a=rows[:, 2].astype(np.int8),
        s=rows[:, 3].astype(np.uint8),
        b=rows[:, 4].astype(np.int8),
    )


def write_transcript(t: Transcript, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_transcript(t))


def read_transcript(path) -> Transcript:
    with open(path, "r", encoding="ascii") as fh:
        return parse_transcript(fh.read())
