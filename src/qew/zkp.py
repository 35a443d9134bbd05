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

import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .qmat import Array, DensityMatrix, as_density, expectation, obs, uniforms
from .states import (
    BlindChannel,
    StateSpec,
    _positive,
    apply_blind_channel,
    build_state,
    werner_mix,
)

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
# Rounds one run_protocol call may simulate: ten times the 10^6 of the
# largest documented run.  Peak traced memory per round, measured at 10^6
# rounds (16 bytes of transcript text each): 80 bytes to simulate, 58 to
# write the transcript and 145 to read it back.
MAX_ROUNDS = 10**7
# Threads one run_protocol call may start.  The rounds are one vectorized
# draw, so more threads buy nothing; the bit-identity gate runs 1, 2 and 5.
MAX_WORKERS = 64
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
        if not (((self.k == 0) | (self.k == 1)).all() and ((self.s == 0) | (self.s == 1)).all()):
            raise ValueError("challenges and settings must be bits")
        if not (((self.a == -1) | (self.a == 1)).all() and ((self.b == -1) | (self.b == 1)).all()):
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
    by ``workers``, which is 1 to ``MAX_WORKERS``.
    """
    if n_rounds < 1:
        raise ValueError(f"need at least one round, got {n_rounds}")
    if n_rounds > MAX_ROUNDS:
        raise ValueError(f"round budget exceeded: {n_rounds} rounds exceed {MAX_ROUNDS}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > MAX_WORKERS:
        raise ValueError(f"worker budget exceeded: {workers} workers exceed {MAX_WORKERS}")
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
    """One (k, s) cell: its rounds, the mean of a*b over them, that mean's
    standard error, and ``z``, the mean's deviation from the cell's target
    (+1 for zz, 0 for the others) in standard errors.  A zero deviation has
    z = 0 and a nonzero one over a zero standard error has z = +/-inf."""

    count: int
    estimate: float
    std_error: float
    z: float


@dataclass(frozen=True)
class Verdict:
    """``failed`` names the cells whose test failed, in ``CELLS`` order; it
    is empty exactly when the proof is accepted."""

    accepted: bool
    cells: Mapping[str, CellStats]
    z_threshold: float
    failed: tuple[str, ...]


# The value each cell is tested against: xx must sit away from it, the
# other cells at it (within z standard errors).
_TARGET = {"zz": 1.0, "zx": 0.0, "xz": 0.0, "xx": 0.0}


def _cell_stats(t: Transcript) -> dict[str, CellStats]:
    # A sum of +/-1 is exact in float64, so each mean is the same float as
    # the mean over the cell's rounds taken one cell at a time.
    code = 2 * (t.k == 1) + (t.s == 1)
    counts = np.bincount(code, minlength=4)
    sums = np.bincount(code, weights=t.a * t.b, minlength=4)
    out = {}
    for name, (k, s) in CELLS.items():
        n = int(counts[2 * k + s])
        if n == 0:
            out[name] = CellStats(0, float("nan"), float("nan"), float("nan"))
            continue
        est = float(sums[2 * k + s] / n)
        se = float(np.sqrt(max(0.0, 1.0 - est * est) / n))
        dev = est - _TARGET[name]
        z = 0.0 if dev == 0 else math.copysign(math.inf, dev) if se == 0 else dev / se
        out[name] = CellStats(n, est, se, z)
    return out


def verify_transcript(t: Transcript, z: float = DEFAULT_Z) -> Verdict:
    """Per-cell z-tests: zz pinned at 1, zx/xz at 0, xx significantly away,
    at a finite positive threshold ``z``.

    Every cell needs at least 30 rounds; anything less raises rather than
    producing an unstable verdict.
    """
    _positive("z", z)
    cells = _cell_stats(t)
    for name, c in cells.items():
        if c.count < MIN_CELL_ROUNDS:
            raise ValueError(
                f"undersampled cell {name}: {c.count} rounds (need >= {MIN_CELL_ROUNDS})"
            )
    failed = tuple(
        name
        for name, c in cells.items()
        if (abs(c.estimate - _TARGET[name]) <= z * c.std_error) == (name == "xx")
    )
    return Verdict(accepted=not failed, cells=cells, z_threshold=z, failed=failed)


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


# Row tails ",k,a,s,b\n" by the code 8k + 4[a = -1] + 2s + [b = -1], NUL-padded
# to one width.
_TAILS = np.array(
    [
        list(f",{k},{a},{s},{b}\n".encode("ascii").ljust(11, b"\0"))
        for k in (0, 1) for a in (1, -1) for s in (0, 1) for b in (1, -1)
    ],
    dtype=np.uint8,
)


def _transcript_bytes(t: Transcript) -> bytes:
    """The transcript file's bytes.  Each row is laid out in a fixed-width
    table: the round index right-aligned behind NUL bytes, then its tail;
    dropping every NUL byte leaves the rows in order."""
    n = t.n_rounds
    width = len(str(max(n - 1, 0)))
    table = np.zeros((n, width + _TAILS.shape[1]), dtype=np.uint8)
    q = np.arange(n)
    for col in range(width - 1, -1, -1):
        table[:, col] = q % 10 + 48
        q //= 10
    for col in range(width - 1):  # leading zeros: the rounds below 10^(digits to the right)
        table[: 10 ** (width - 1 - col), col] = 0
    table[:, width:] = _TAILS[8 * (t.k == 1) + 4 * (t.a == -1) + 2 * (t.s == 1) + (t.b == -1)]
    head = f"# seed={t.seed} N={n}\nround,k,a,s,b\n".encode("ascii")
    return head + table[table != 0].tobytes()


def format_transcript(t: Transcript) -> str:
    """Line format: header with seed/N, then `round,k,a,s,b` records."""
    return _transcript_bytes(t).decode("ascii")


# A data row field: optional spaces or tabs, an optional sign, ASCII digits,
# optional spaces or tabs, with a value in int64's range.
_FIELD = re.compile(r"[ \t]*[+-]?[0-9]+[ \t]*")
# The bytes of data rows; np.loadtxt also takes other whitespace in a field.
_ROW_BYTES = b"0123456789+-, \t"


def _fields_ok(row: str) -> bool:
    return all(_FIELD.fullmatch(x) and -(2**63) <= int(x) < 2**63 for x in row.split(","))


def parse_transcript(text: str) -> Transcript:
    """Read the text ``format_transcript`` writes.  Lines of only whitespace
    are skipped, and each data row is five ``_FIELD`` fields."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("#"):
        raise ValueError("transcript must start with a '# seed=... N=...' header")
    try:
        # a token without "=" is a pair of length 1, which dict() refuses
        pairs = [part.split("=") for part in lines[0].lstrip("# ").split()]
        header = dict(pairs)
        if len(pairs) != 2:  # a repeated key, or a key besides seed and N
            raise ValueError
        seed, n = int(header["seed"]), int(header["N"])
    except (KeyError, ValueError):
        raise ValueError(f"bad transcript header: {lines[0]!r}, want '# seed=<int> N=<int>'") from None
    if lines[1] != "round,k,a,s,b":
        raise ValueError(f"bad column header: {lines[1]!r}")
    body = lines[2:]
    try:  # UnicodeEncodeError is a ValueError
        if "".join(body).encode("ascii").translate(None, _ROW_BYTES):
            raise ValueError
        # older numpy reads a field out of int64's range through a float, with a
        # DeprecationWarning; only a row of 19 or more bytes can hold one
        if max(map(len, body), default=0) >= 19 and not all(map(_fields_ok, body)):
            raise ValueError
        # no rows at all is the N = 0 table, not a table of no columns
        rows = (
            np.loadtxt(body, dtype=np.int64, delimiter=",", comments=None, ndmin=2)
            if body
            else np.empty((0, 5), dtype=np.int64)
        )
    except ValueError:
        raise ValueError(_bad_row(text)) from None
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


def _bad_row(text: str) -> str:
    """Name the first data row that is not 5 int64 fields by its line number
    (blank lines count); only a table that failed to parse is searched."""
    for i, ln in [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()][2:]:
        if not _fields_ok(ln):
            return f"line {i}: data row fields must be 64-bit integers, got {ln!r}"
        if ln.count(",") != 4:
            return f"line {i}: data row needs 5 fields, got {ln!r}"
    return "malformed data rows"


def write_transcript(t: Transcript, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_transcript_bytes(t))


def read_transcript(path) -> Transcript:
    # A non-ASCII byte decodes to a lone surrogate, which is neither a line
    # break nor whitespace, so parse_transcript names the row that holds it.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        return parse_transcript(fh.read())
