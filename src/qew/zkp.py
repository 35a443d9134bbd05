"""Interactive entanglement-proof simulation and statistical verification.

The protocol (four steps, one entangled pair per round):

1. the prover prepares a two-qubit state and sends qubit B to the verifier;
2. the verifier challenges with a uniform bit ``k`` per round;
3. the prover measures its qubit A with sigma_0 := sigma_x / sigma_1 :=
   sigma_z according to ``k`` and reports the outcome ``a``;
4. the verifier measures B with a uniformly chosen setting ``s`` (same
   x/z convention) obtaining ``b``.

Acceptance checks the four (k, s) correlation cells, the lines of
:func:`qew.witnesses.battery_epr`, each with its line's contract at z·se:
zz must sit at +1, zx and xz at 0, and xx *significantly* away from 0.  The
z threshold and 30 rounds per cell are simulation-side choices — the
protocol itself only prescribes which statistics to look at.

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

from .qmat import Array, DensityMatrix, Observable, as_density, expectation, obs, uniforms
from .states import (
    BlindChannel,
    StateSpec,
    _integer,
    _positive,
    _seed,
    apply_blind_channel,
    build_state,
    werner_mix,
)
from .witnesses import battery_epr

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
# rounds (16 bytes of transcript text each): 80 bytes to simulate on one
# worker, 55 to write the transcript and 103 to read it back.
MAX_ROUNDS = 10**7
# Threads one run_protocol call may start.  Each thread draws its own span of
# rounds and numpy releases the GIL inside the draw, so threads up to the core
# count divide the time (2 workers about halve 10^5 and 10^6 rounds on 2 vCPUs);
# the bit-identity gate runs 1, 2 and 5.
MAX_WORKERS = 64
DEFAULT_Z = 5.0

# Cell outcome order: (a, b) = (+,+), (+,-), (-,+), (-,-).
_A, _B = np.array(((1, 1), (1, -1), (-1, 1), (-1, -1))).T
# The cells are battery_epr()'s lines in battery order, named by their Paulis
# (zz, zx, xz, xx); (k, s) are the bits that measure them, 0 for x and 1 for z.
# The protocol has no Y setting, so the xx line's XY companion is never read.
_LINES = {"".join(f.name.lower() for f in i.observable.factors): i for i in battery_epr().items}
CELLS = {name: ("xz".index(name[0]), "xz".index(name[1])) for name in _LINES}


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
        if strategy.visibility != 1.0:
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
    """P(a, b | k, s) as a (2, 2, 4) array over the fixed outcome order; a
    cell's correlator is its line, and its marginals are the line's factors."""
    table = np.zeros((2, 2, 4))
    rho = strategy_state(strategy)
    if rho is not None:
        for name, (k, s) in CELLS.items():
            line = _LINES[name].observable
            e, f = (expectation(rho, Observable((x,))).real for x in line.factors)
            table[k, s] = (1.0 + _A * e + _B * f + _A * _B * expectation(rho, line).real) / 4.0
    else:
        if len(strategy.outcomes) != 2 or any(a not in (-1, 1) for a in strategy.outcomes):
            raise ValueError(
                f"fixed outcomes must be two entries of +/-1 (a for k=0, a for k=1), "
                f"got {strategy.outcomes}"
            )
        if strategy.verifier_qubit is None:
            rho_b = as_density(np.eye(2) / 2.0, (2,))
        else:
            rho_b = as_density(np.array(strategy.verifier_qubit, dtype=complex), (2,))
        for name, (k, s) in CELLS.items():
            # the verifier's factor of the line, on the qubit's site 1
            f = expectation(rho_b, obs((1, _LINES[name].observable.factors[1].name))).real
            table[k, s] = np.where(_A == strategy.outcomes[k], (1.0 + _B * f) / 2.0, 0.0)
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
        _seed("seed", self.seed)
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
    Pauli pair.  Deterministic in (strategy, n_rounds, seed), a seed in
    0..2^64 - 1, and unchanged by ``workers`` (1 to ``MAX_WORKERS``).
    """
    n_rounds, seed = _integer("n_rounds", n_rounds), _seed("seed", seed)
    workers = _integer("workers", workers)
    if n_rounds < 1:
        raise ValueError(f"need at least one round, got {n_rounds}")
    if n_rounds > MAX_ROUNDS:
        raise ValueError(f"round budget exceeded: {n_rounds} rounds exceed {MAX_ROUNDS}")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers > MAX_WORKERS:
        raise ValueError(f"worker budget exceeded: {workers} workers exceed {MAX_WORKERS}")
    # cols[j][2k + s]: entry j of cell (k, s)'s cumulative row
    cols = np.cumsum(_prob_table(strategy), axis=-1).reshape(4, 4).T.copy()

    def chunk(lo: int, hi: int) -> tuple[Array, Array, Array, Array]:
        k, s, u = uniforms(seed, np.arange(lo, hi), np.arange(3)[:, None])
        k = (k >= 0.5).astype(np.uint8)
        s = (s >= 0.5).astype(np.uint8)
        # Outcome index = entries of the round's cumulative row <= u (the row
        # is nondecreasing), one column at a time.  The last entry, the row's
        # total, is read as 1, which no uniform in [0, 1) reaches.
        cell = 2 * k + s
        o = np.add(cols[0].take(cell) <= u, cols[1].take(cell) <= u, dtype=np.int8)
        o += cols[2].take(cell) <= u
        return k, 1 - 2 * (o >> 1), s, 1 - 2 * (o & 1)

    bounds = np.linspace(0, n_rounds, workers + 1, dtype=int)
    spans = [(int(x), int(y)) for x, y in zip(bounds[:-1], bounds[1:]) if y > x]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(lambda xy: chunk(*xy), spans))
    k, a, s, b = (np.concatenate(f) for f in zip(*parts))
    return Transcript(seed=seed, n_rounds=n_rounds, k=k, a=a, s=s, b=b)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellStats:
    """One (k, s) cell: its rounds, the mean of a*b over them, that mean's
    standard error, and ``z``, the mean's deviation from the cell's target
    (its line's ``Exact`` value, and 0 for the others) in standard errors.  A
    zero deviation has z = 0 and a nonzero one over a zero standard error has
    z = +/-inf."""

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
        dev = est - getattr(_LINES[name].contract, "value", 0.0)  # Exact's value, else 0
        z = 0.0 if dev == 0 else math.copysign(math.inf, dev) if se == 0 else dev / se
        out[name] = CellStats(n, est, se, z)
    return out


def verify_transcript(t: Transcript, z: float = DEFAULT_Z) -> Verdict:
    """Each cell's line checks its mean at ``eps_eq = eps_nz = z·se``, for a
    finite positive threshold ``z``: zz at 1, zx/xz at 0, xx away from 0.

    Every cell needs at least 30 rounds; anything less raises rather than
    producing an unstable verdict.
    """
    _positive("z", z)
    return _verdict(_cell_stats(t), z)


def _verdict(cells: Mapping[str, CellStats], z: float) -> Verdict:
    """The verdict of :func:`verify_transcript` from a transcript's cell
    statistics, as :func:`leakage_view` carries them, so that a proof that
    reports both computes them once."""
    for name, c in cells.items():
        if c.count < MIN_CELL_ROUNDS:
            raise ValueError(
                f"undersampled cell {name}: {c.count} rounds (need >= {MIN_CELL_ROUNDS})"
            )
    failed = tuple(
        name
        for name, c in cells.items()
        if not _LINES[name].contract.check(c.estimate, z * c.std_error, z * c.std_error)[1]
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


# A data row's tail ",k,a,s,b\n" for k = s = 0 and a = b = -1; the writer
# raises a digit for a bit that is 1 and blanks the sign of an outcome that is
# +1 with a NUL byte.
_TAIL = b",0,-1,0,-1\n"
_DIGITS = np.arange(48, 58, dtype=np.uint8)


def _render(seed: int, k1: Array, a_neg: Array, s1: Array, b_neg: Array) -> bytes:
    """The transcript file's bytes for rounds given as boolean arrays: k = 1,
    a = -1, s = 1 and b = -1.  Each row is laid out in a fixed-width table:
    the round index right-aligned behind NUL bytes, then its tail; dropping
    every NUL byte leaves the rows in order."""
    n = len(k1)
    width = len(str(max(n - 1, 0)))
    row = np.frombuffer(bytes(width) + _TAIL, dtype=np.uint8)
    table = np.empty((n, len(row)), dtype=np.uint8)
    table[:] = row
    for p in range(width):
        # digit p from the right holds for 10^p rows and repeats every 10^(p + 1)
        col, period = width - 1 - p, 10 ** (p + 1)
        digits = np.repeat(_DIGITS, 10**p)
        m = n // period
        table[: m * period].reshape(m, period, len(row))[:, :, col] = digits
        table[m * period :, col] = digits[: n - m * period]
        if p:
            table[: 10**p, col] = 0  # the leading zeros of the rounds below 10^p
    tails = table[:, width:]
    tails[:, 1] += k1
    tails[:, 3] *= a_neg
    tails[:, 6] += s1
    tails[:, 8] *= b_neg
    head = f"# seed={seed} N={n}\nround,k,a,s,b\n".encode("ascii")
    return head + table.tobytes().replace(b"\0", b"")


def _transcript_bytes(t: Transcript) -> bytes:
    return _render(t.seed, t.k == 1, t.a == -1, t.s == 1, t.b == -1)


# The two header lines as the writer writes them.
_HEAD = re.compile(rb"# seed=([0-9]{1,20}) N=([0-9]{1,19})\nround,k,a,s,b\n")


def _recognize(data: bytes) -> Transcript | None:
    """The transcript whose file is exactly ``data``, or None for any other
    bytes; it never raises.  Each row's bits are read at fixed offsets back
    from its line end, and the rows are accepted only when ``_render`` gives
    the same bytes back, so the result is the one ``_parse_rows`` would give."""
    head = _HEAD.match(data)
    if head is None:
        return None
    seed, n = int(head[1]), int(head[2])
    body = np.frombuffer(data, dtype=np.uint8, offset=head.end())
    ends = np.flatnonzero(body == 10)
    if seed >= 2**64 or len(ends) != n:
        return None
    # ",k,[-]a,s,[-]b\n" back from each line end; "clip" keeps a short row in range
    b_neg = body.take(ends - 2, mode="clip") == 45
    s_at = ends - 3 - b_neg
    s1 = body.take(s_at, mode="clip") == 49
    a_neg = body.take(s_at - 3, mode="clip") == 45
    k1 = body.take(s_at - 4 - a_neg, mode="clip") == 49
    if _render(seed, k1, a_neg, s1, b_neg) != data:
        return None
    return Transcript(
        seed=seed,
        n_rounds=n,
        k=k1.view(np.uint8),
        a=1 - 2 * a_neg.view(np.int8),
        s=s1.view(np.uint8),
        b=1 - 2 * b_neg.view(np.int8),
    )


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
    t = _recognize(text.encode("ascii")) if text.isascii() else None
    return t if t is not None else _parse_rows(text)


def _parse_rows(text: str) -> Transcript:
    """``parse_transcript`` for any text: the header checks, then the data
    rows through ``np.loadtxt``."""
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
    # break nor whitespace, so parse_transcript names the row that holds it;
    # splitlines() ends a line at "\r\n" and at "\r" as text mode would.
    with open(path, "rb") as fh:
        return parse_transcript(fh.read().decode("ascii", errors="surrogateescape"))
