"""Independent cross-checks: random state generators, bound searches, PPT.

Nothing here reuses the witness formulas' derivations — separable and
biseparable states are built *by construction* (mixtures of product pure
states), so evaluating a witness on them probes the claimed bound from the
outside.  :func:`ppt_check` gives a second, unrelated entanglement oracle
(exact for 2x2 and 2x3 systems) to corroborate witness verdicts.

Reproducibility contract: every sampled object is a pure function of
``(cfg.seed, index)``; streams can therefore be generated in any order or
split across processes without changing a single sample.  Object
``index`` reads :func:`qew.qmat.uniforms` at ``(seed, index, stream)``, and
the config alone fixes which stream slot each of its draws reads.

Memos, each filled on first use and never at import: ``_blocks_for`` and
``_read_table`` hold the factor structures and read indices of a shape, and
``_live_block`` holds one live block of samples per ``(shape, cfg)``, for
the ``LIVE_BLOCKS`` latest keys.  :func:`sample_separable` and
:func:`sample_biseparable` read index i from the aligned block of
min(``SAMPLE_BLOCK``, :func:`block_length`) samples that holds it, drawn
whole on the first read of one of its indices, so a loop over indices pays
one draw per block.  A block holds at most ``BLOCK_ENTRIES`` complex
entries, or one sample, and only blocks of two or more are kept.  A block
is read-only and so is each sample's matrix, a row of it; a sample has the
same bits in any block.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qmat import Array, DensityMatrix, _form_fault, pure_density, uniforms
from .states import MAX_DIM, BlindChannel, ChannelTerm, _integer, _positive, _seed, family_basis

__all__ = [
    "BLOCK_ENTRIES",
    "PptReport",
    "SamplerConfig",
    "all_bipartitions",
    "bisect_threshold",
    "block_length",
    "maximize_witness",
    "partial_transpose",
    "ppt_check",
    "random_blind_channel",
    "sample_biseparable",
    "sample_separable",
]

NPT_EIG_TOL = -1e-10
MAX_TERMS = 16
# Complex entries that one array of a sample block may hold (32 MB); a block
# holds at least one sample, however large.
BLOCK_ENTRIES = 2**21
# Samples per block that sample_separable and sample_biseparable draw at once,
# at most, and how many (shape, cfg) keys keep their live block.
SAMPLE_BLOCK = 256
LIVE_BLOCKS = 4


@dataclass(frozen=True)
class SamplerConfig:
    """Shape and randomness of a sampled-state stream.

    ``terms`` is the number of mixture terms per sample (1..16);
    ``partition`` (1-based site indices) fixes the bipartition for
    biseparable sampling, or ``None`` to draw a bipartition per term.
    Sites over ``MAX_DIM`` and seeds outside 0..2^64 - 1 are refused.
    """

    sites: tuple[int, ...]
    terms: int = 1
    seed: int = 0
    partition: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for key in ("sites", "partition"):
            value = getattr(self, key)
            if key == "sites" or value is not None:
                if not isinstance(value, tuple):
                    raise ValueError(f"{key} must be a tuple, got {value!r}")
                object.__setattr__(self, key, tuple(_integer(key, i) for i in value))
        object.__setattr__(self, "terms", _integer("terms", self.terms))
        object.__setattr__(self, "seed", _seed("seed", self.seed))
        if not self.sites or any(d < 2 for d in self.sites):
            raise ValueError(f"need one or more sites of dimension >= 2, got {self.sites}")
        if math.prod(self.sites) > MAX_DIM:
            raise ValueError(f"dimension budget exceeded: sites {self.sites} exceed {MAX_DIM}")
        if not 1 <= self.terms <= MAX_TERMS:
            raise ValueError(f"terms must be in 1..{MAX_TERMS}, got {self.terms}")
        if self.partition is not None:
            _cut("partition", self.partition, len(self.sites))


def _cut(name: str, subset: Sequence[int], n: int) -> None:
    """Refuse ``subset`` unless it names a nonempty proper subset of the sites
    1..n, each site once."""
    part = set(subset)
    if len(part) != len(subset) or not part or not part < set(range(1, n + 1)):
        raise ValueError(f"{name} must be a nonempty proper subset of sites, got {subset}")


def all_bipartitions(n: int) -> list[tuple[int, ...]]:
    """Each bipartition of n sites once, as the block containing site 1."""
    if n < 2:
        raise ValueError("need at least 2 sites")
    out = []
    rest = list(range(2, n + 1))
    for size in range(0, n - 1):
        for extra in itertools.combinations(rest, size):
            out.append((1,) + extra)
    return out


def _dirichlet(u: Array) -> Array:
    """Dirichlet(1, ..., 1) weights from one uniform per weight, along the last axis."""
    e = -np.log1p(-u)
    return e / e.sum(axis=-1, keepdims=True)


def _assemble_product(
    blocks: Sequence[tuple[tuple[int, ...], Array]],
    sites: tuple[int, ...],
) -> Array:
    """Tensor block vectors (each on listed 1-based sites) into site order;
    leading batch axes, shared by all blocks, are kept."""
    order = [i for idx, _vec in blocks for i in idx]
    t = blocks[0][1]
    for _idx, vec in blocks[1:]:
        t = (t[..., :, None] * vec[..., None, :]).reshape(*t.shape[:-1], -1)
    lead = t.shape[:-1]
    t = t.reshape(*lead, *(sites[i - 1] for i in order))
    perm = list(range(len(lead))) + [len(lead) + order.index(i) for i in range(1, len(sites) + 1)]
    return np.transpose(t, perm).reshape(*lead, -1)


_Structure = tuple[tuple[tuple[int, ...], int], ...]


@functools.cache
def _blocks_for(
    shape: str, sites: tuple[int, ...], partition: tuple[int, ...] | None
) -> tuple[_Structure, ...]:
    """Factor structures of the ``"separable"`` or the ``"biseparable"`` set, each
    its site blocks with their dimensions; the latter set has one structure per
    bipartition, or ``partition``.  Built once per key."""
    n = len(sites)
    if shape == "separable":
        structures = [[(i,) for i in range(1, n + 1)]]
    else:
        parts = [partition] if partition is not None else all_bipartitions(n)
        structures = [[tuple(p), tuple(i for i in range(1, n + 1) if i not in p)] for p in parts]
    return tuple(tuple((blk, math.prod(sites[i - 1] for i in blk)) for blk in s) for s in structures)


@functools.cache
def _read_table(witness: str, structure: _Structure, sites: tuple[int, ...]) -> tuple[Array, ...]:
    """Per block of ``structure``, the local index of each amplitude ``witness``
    reads, its family's ``states.family_basis`` in basis order: read amplitude
    r of the product is the product, in block order, of entry ``table[b][r]``
    of each block b.  Built once per key."""
    digits = np.unravel_index(family_basis(witness, sites), sites)
    table = tuple(
        np.ravel_multi_index([digits[i - 1] for i in blk], [sites[i - 1] for i in blk])
        for blk, _d in structure
    )
    for t in table:
        t.flags.writeable = False  # shared by every caller of the cache
    return table


def _sample_block(shape: str, cfg: SamplerConfig, indices: Array) -> Array:
    """Samples ``indices`` (a uint64 array) of the ``"separable"`` or the
    ``"biseparable"`` stream as one checked (B, D, D) stack.

    Sample i is a Dirichlet-weighted mixture of pure products, each term over
    one structure of ``_blocks_for(shape, ...)`` with Haar-random blocks.  Its
    term t reads a slot of 2 + 2 D draws at ``(cfg.seed, i)``: its weight, its
    structure pick, and a modulus and a phase draw per amplitude of each block
    in turn (block dimensions sum to <= D), which make the complex Gaussians
    of a Haar vector.  Every step acts on each sample alone, so a sample's
    bits do not depend on the block it is drawn in.

    A sample is a mixture of normalized pure products with Dirichlet weights,
    a convex combination of rank-one projectors, so PSD by construction: the
    stack gets the O(D^2) finiteness, Hermiticity and trace checks of
    ``qmat._form_fault`` and no eigen-decomposition.
    """
    sites, dim, terms = cfg.sites, math.prod(cfg.sites), cfg.terms
    structures = _blocks_for(shape, sites, cfg.partition)
    u = uniforms(cfg.seed, indices[:, None], np.arange(terms * (2 + 2 * dim)))
    u = u.reshape(len(indices), terms, -1)
    picks = (u[..., 1] * len(structures)).astype(int).ravel()
    g = np.sqrt(-2.0 * np.log1p(-u[..., 2::2])) * np.exp(2j * np.pi * u[..., 3::2])
    g = g.reshape(-1, dim)
    vecs = np.empty_like(g)
    for pick in np.unique(picks):
        rows, at, blocks = picks == pick, 0, []
        for blk, d in structures[pick]:
            blocks.append((blk, g[rows, at : at + d]))
            at += d
        vecs[rows] = _assemble_product(blocks, sites)
    vecs = vecs.reshape(len(indices), terms, dim)
    vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
    mats = (vecs.swapaxes(1, 2) * _dirichlet(u[..., 0])[:, None, :]) @ vecs.conj()
    fault = _form_fault(mats)
    if fault is not None:
        raise ValueError(f"sample {indices[fault[0]]}: {fault[1]}")
    return mats


def block_length(cfg: SamplerConfig) -> int:
    """Samples per block of a ``cfg`` campaign: as many as keep each array of
    the block within ``BLOCK_ENTRIES`` complex entries, and at least one.

    A sample holds a D x D matrix, T x D term vectors and T (2 + 2 D) draws,
    so none of its arrays is larger than D max(D, 2 T) complex entries.
    """
    dim = math.prod(cfg.sites)
    return max(1, BLOCK_ENTRIES // (dim * max(dim, 2 * cfg.terms)))


@functools.lru_cache(maxsize=LIVE_BLOCKS)
def _live_block(shape: str, cfg: SamplerConfig) -> list[tuple[int, Array]]:
    """The slot of the one live block of ``(shape, cfg)``: a list holding
    (first index, read-only stack), replaced whole when another block is
    drawn.  Made empty on first use, for the ``LIVE_BLOCKS`` latest keys."""
    return [(0, np.empty((0, 0, 0), dtype=complex))]


def _sample(shape: str, cfg: SamplerConfig, index: int) -> DensityMatrix:
    """Sample ``index``, read from the aligned block of
    min(``SAMPLE_BLOCK``, ``block_length(cfg)``) samples that holds it.

    The block is drawn on first use and kept as the live block of
    ``(shape, cfg)``; a sample has the same bits in any block.  A block that
    holds a faulty sample other than this one is not kept, and this sample
    is drawn alone, so a refusal always names the sample asked for."""
    # numpy refuses an index outside 0..2^64 - 1 here, as the block of one did
    i = int(np.array([_integer("index", index)], dtype=np.uint64)[0])
    slot = _live_block(shape, cfg)
    start, mats = slot[0]
    if not 0 <= i - start < len(mats):
        b = min(SAMPLE_BLOCK, block_length(cfg))
        start = i - i % b
        # the last block may end early, at 2^64 - 1
        indices = np.uint64(start) + np.arange(min(b, 2**64 - start), dtype=np.uint64)
        try:
            mats = _sample_block(shape, cfg, indices)
        except ValueError:
            mats, start = _sample_block(shape, cfg, indices[i - start : i - start + 1]), i
        mats.flags.writeable = False  # rows are handed out as views
        if len(mats) > 1:  # a block of one serves no other index
            slot[0] = (start, mats)
    return DensityMatrix(cfg.sites, mats[i - start])


def sample_separable(cfg: SamplerConfig, index: int = 0) -> DensityMatrix:
    """Random fully separable state: Dirichlet-weighted mixture of products.

    Each mixture term is a tensor product of Haar-random local pure states,
    so every output is separable by construction.
    """
    return _sample("separable", cfg, index)


def sample_biseparable(cfg: SamplerConfig, index: int = 0) -> DensityMatrix:
    """Random biseparable state: mixture of (pure on I) x (pure on complement).

    The block states are Haar-random over their full block dimension, so
    entanglement *within* a block is allowed — only the I | complement cut
    is product.  With ``cfg.partition`` unset, each term draws its own
    bipartition uniformly, giving a generic biseparable mixture.
    """
    return _sample("biseparable", cfg, index)


def random_blind_channel(sites: Sequence[int], terms: int, seed: int, index: int = 0) -> BlindChannel:
    """Random phase channel with Dirichlet weights and uniform (0, pi) phases.

    Term t reads one slot of stream draws: its weight, then one phase per
    level of every site.  Sites, terms and seed are refused as
    :class:`SamplerConfig` refuses them, and a non-integer index too, before
    any draw.
    """
    cfg = SamplerConfig(tuple(sites), terms, seed)
    width = 1 + sum(cfg.sites)
    u = uniforms(cfg.seed, _integer("index", index), np.arange(cfg.terms * width))
    u = u.reshape(cfg.terms, width)
    ends = list(itertools.accumulate(cfg.sites, initial=1))
    return BlindChannel(tuple(
        ChannelTerm(w, tuple(tuple(row[a:b]) for a, b in zip(ends, ends[1:])))
        for w, row in zip(_dirichlet(u[:, 0]).tolist(), (np.pi * u).tolist())
    ))


# ---------------------------------------------------------------------------
# witness maximization over the (bi)separable set
# ---------------------------------------------------------------------------

# The witness left-hand sides are convex in rho (moduli of linear functionals
# plus linear population terms), so their maxima over the separable or
# biseparable convex hulls sit at extreme points: pure product states.  The
# search climbs one flat vector of factor angles and phases per start, one
# coordinate at a time: the REFINE_TOP best starts, SWEEPS passes each.  A
# coordinate belongs to one block and moves only some of its entries, so each
# line search first computes what its probe point does not move; a probe then
# computes the read entries its point moves, builds no block vector, and
# multiplies out only the amplitudes the witness reads.

SWEEPS = 3
REFINE_TOP = 8
# Starts one search may score.  It keeps a score and a sort entry per start,
# about 167 bytes each (traced at 10^4 and 10^5 starts): 167 MB at the budget.
MAX_ITERS = 10**6

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_ascent(f: Callable[[float], float], hi: float, iters: int = 48) -> tuple[float, float]:
    """Golden-section line search on [0, hi]; returns the best point and its value."""
    a, b = 0.0, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def _moduli(thetas: Array) -> Array:
    """Moduli of a hyperspherical unit vector: cos t_0, sin t_0 cos t_1, ...,
    and last the product of every sine, taken as a running product in order."""
    mods = np.ones(thetas.size + 1)
    np.cos(thetas, out=mods[:-1])
    mods[1:] *= np.sin(thetas).cumprod()
    return mods


def _angles_to_vector(y: Array) -> Array:
    """Unit vector of one block from its slice ``y`` of a search point: d - 1
    hyperspherical angles, then the d - 1 phases of entries 1..d-1."""
    h = y.size // 2
    v = _moduli(y[:h]).astype(complex)
    v[1:] *= np.exp(1j * y[h:])
    return v


def _block_slices(structure: _Structure) -> list[slice]:
    """Each block's slice of a search point: 2 d - 2 coordinates per block of dimension d."""
    ends = list(itertools.accumulate((2 * d - 2 for _blk, d in structure), initial=0))
    return [slice(a, b) for a, b in zip(ends, ends[1:])]


def _product_vector(structure: _Structure, x: Array, sites: tuple[int, ...]) -> Array:
    """Pure product over ``structure``, each block read from its slice of ``x``."""
    return _assemble_product(
        [(blk, _angles_to_vector(x[sl])) for (blk, _d), sl in zip(structure, _block_slices(structure))],
        sites,
    )


def _multiply_out(parts: Sequence[Array]) -> Array:
    """The read amplitudes from each block's read entries, multiplied left to
    right as ``_assemble_product`` multiplies, so the bits are the same."""
    amps = parts[0]
    for part in parts[1:]:
        amps = amps * part
    return amps


def _probe(witness: str, table: tuple[Array, ...], parts: list[Array], b: int, y: Array,
           k: int) -> Callable[[float], float]:
    """The witness value along coordinate ``k`` of block ``b``, whose slice of
    the search point is ``y``; ``parts`` holds each block's entries at
    ``table``.

    Coordinate k moves entries of block b alone: a phase its one entry,
    angle k the entries k..d-1.  What the probe point v does not move is
    computed here, once per line search: the block's cosines, sines and
    phase factors, the running product of the sines before k, and the read
    entries k moves.  A probe computes those entries alone, builds no block
    vector, and multiplies them out with the product of the blocks before b
    and the entries of the blocks after it.

    Every value has the bits of the full product's.  Sines, cosines, phase
    factors and the multiply-out stay numpy calls; the running product and
    each real modulus times its phase factor are Python float products,
    IEEE-identical to numpy's (a zero imaginary part leaves no rounding to
    order), taken in ``_moduli``'s left-to-right order."""
    t, h, own = table[b], y.size // 2, parts[b]
    head, tail = [_multiply_out(parts[:b])] if b else [], parts[b + 1 :]
    first = k - h + 1 if k >= h else k  # the first entry coordinate k moves
    rows = np.flatnonzero(t == first if k >= h else t >= first)
    if not rows.size:  # it moves no entry the witness reads: the value stays
        amps = _multiply_out(parts)
        return lambda v: _pure_lhs(witness, amps)
    if k >= h:
        mod = float(_moduli(y[:h])[first])

        def probe(v: float) -> float:
            part = own.copy()
            part[rows] = mod * np.exp(1j * v)
            return _pure_lhs(witness, _multiply_out([*head, part, *tail]))

        return probe
    cos, sin = np.cos(y[:h]).tolist(), np.sin(y[:h]).tolist()
    factors = [1.0, *np.exp(1j * y[h:]).tolist()]  # entry 0 has no phase
    before = math.prod(sin[:k])  # left to right from 1, as cumprod; 1 when k = 0
    after = list(zip(cos[k + 1 :], sin[k + 1 :]))
    moved = [(j - k, factors[j]) for j in t[rows].tolist()]

    def probe(v: float) -> float:
        run = before * float(np.sin(v))
        mods = [float(np.cos(v)) * before]  # moduli of entries k..d-1
        for c, s in after:
            mods.append(c * run)
            run *= s
        mods.append(run)
        part = own.copy()
        part[rows] = [mods[i] * f for i, f in moved]
        return _pure_lhs(witness, _multiply_out([*head, part, *tail]))

    return probe


def _pure_lhs(kind: str, amps: Array) -> float:
    """Witness left-hand side of a pure state, from the amplitudes at its
    ``_read_table`` indices, in basis order."""
    if kind in ("epr", "ghz"):
        a, b = amps.tolist()
        return 2.0 * abs(a * b) + abs(a) ** 2 + abs(b) ** 2 - 1.0
    if kind == "w":
        p1, p2, p4, p7 = amps.tolist()
        return abs(p1 * p7) + abs(p2 * p4) + abs(p1 * p2) + abs(p4 * p7)
    if kind == "qudit":
        mods = np.abs(amps)
        total, squares = np.add.reduce(mods), np.add.reduce(mods**2)
        return float(2.0 * ((total**2 - squares) / 2.0) + squares - 1.0)
    raise ValueError(f"unknown witness name {kind!r}")


# Where each witness bound holds, the one set both the search here and the qew oracle
# campaign read; not read from qew.witnesses, so the check stays outside.
_WITNESS_SET = {
    "epr": "separable", "qudit": "separable", "ghz": "biseparable", "w": "biseparable",
}


def maximize_witness(witness: str, cfg: SamplerConfig, iters: int) -> tuple[float, DensityMatrix]:
    """Search the (bi)separable set for the largest witness left-hand side.

    ``witness`` is a family (``epr``, ``ghz``, ``w``, ``qudit``).  ``iters``
    (1..``MAX_ITERS``) random pure-product starts are scored (for ``ghz``/``w``
    the starts cycle through the bipartitions); the best ``REFINE_TOP`` are
    refined by ``SWEEPS`` coordinate-wise golden-section sweeps over the
    factor angles.  Fully
    deterministic for a given ``cfg.seed``; ties keep the lowest start index.
    Returns the best value and the state attaining it.
    """
    iters = _integer("iters", iters)
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if iters > MAX_ITERS:
        raise ValueError(f"search budget exceeded: {iters} starts exceed {MAX_ITERS}")
    if witness not in _WITNESS_SET:
        raise ValueError(f"unknown witness name {witness!r}")
    sites = cfg.sites
    structures = _blocks_for(_WITNESS_SET[witness], sites, cfg.partition)
    tables = [_read_table(witness, st, sites) for st in structures]
    slices = [_block_slices(st) for st in structures]
    # Ranges [0, hi): per block of dimension d, d - 1 angles to pi/2, then d - 1 phases to 2 pi.
    his = [np.concatenate([np.repeat((np.pi / 2.0, 2.0 * np.pi), d - 1) for _, d in st])
           for st in structures]

    def start(i: int) -> tuple[int, Array]:
        s = i % len(structures)  # starts cycle through the structures
        return s, his[s] * uniforms(cfg.seed, i, np.arange(his[s].size))

    def read(s: int, x: Array) -> list[Array]:
        """Each block's entries at the read indices, in block order."""
        return [_angles_to_vector(x[sl])[t] for sl, t in zip(slices[s], tables[s])]

    vals = [_pure_lhs(witness, _multiply_out(read(*start(i)))) for i in range(iters)]
    # Refine by value descending, index ascending on ties.
    order = sorted(range(iters), key=lambda i: (-vals[i], i))
    best_val, best_s, best_x = -np.inf, 0, None
    for i in order[:REFINE_TOP]:
        (s, x), cur = start(i), vals[i]
        parts = read(s, x)
        for _ in range(SWEEPS):
            for b, sl in enumerate(slices[s]):
                y = x[sl]  # a view: moving y moves x
                for k in range(y.size):
                    cand, val = _golden_ascent(_probe(witness, tables[s], parts, b, y, k), his[s][sl][k])
                    if val >= cur:
                        cur, y[k] = val, cand
                        parts[b] = _angles_to_vector(y)[tables[s][b]]
        if cur > best_val:
            best_val, best_s, best_x = cur, s, x
    return float(best_val), pure_density(_product_vector(structures[best_s], best_x, sites), sites)


# ---------------------------------------------------------------------------
# PPT / partial transpose
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PptReport:
    """Partial-transpose verdict. ``exact`` marks the 2x2 / 2x3 regime where
    PPT is equivalent to separability; elsewhere NPT still implies
    entanglement but PPT decides nothing."""

    verdict: str  # "PPT" | "NPT"
    min_eigenvalue: float
    exact: bool

    @property
    def npt(self) -> bool:
        return self.verdict == "NPT"


def partial_transpose(rho: DensityMatrix, subset: Sequence[int]) -> Array:
    """Transpose the listed (1-based) sites of ``rho`` and return the matrix."""
    subset = sorted(set(subset))
    n = rho.n_sites
    if any(not 1 <= s <= n for s in subset):
        raise ValueError(f"transpose sites {subset} out of range")
    t = rho.mat.reshape(*rho.sites, *rho.sites)
    perm = list(range(2 * n))
    for s in subset:
        perm[s - 1], perm[n + s - 1] = perm[n + s - 1], perm[s - 1]
    return np.transpose(t, perm).reshape(rho.mat.shape)


def ppt_check(rho: DensityMatrix, subset: Sequence[int] = (2,)) -> PptReport:
    """Peres-Horodecki check: NPT iff the partial transpose has a negative
    eigenvalue (below -1e-10).

    Exact (PPT <=> separable) only for two sites with total dimension <= 6;
    other shapes get ``exact=False`` and NPT remains a sufficient
    entanglement certificate.  ``subset`` must be a cut: a nonempty proper
    subset of the sites.
    """
    if rho.n_sites < 2:
        raise ValueError("partial transpose needs at least 2 sites")
    _cut("subset", subset, rho.n_sites)
    evals = np.linalg.eigvalsh(partial_transpose(rho, subset))
    min_eig = float(evals[0])
    exact = rho.n_sites == 2 and rho.dim <= 6
    return PptReport(
        verdict="NPT" if min_eig < NPT_EIG_TOL else "PPT",
        min_eigenvalue=min_eig,
        exact=exact,
    )


def bisect_threshold(
    detected: Callable[[float], bool],
    lo: float,
    hi: float,
    tol: float = 1e-9,
) -> float:
    """Locate the switching point of a monotone predicate on [lo, hi].

    ``detected`` must be False at ``lo`` and True at ``hi > lo``; the returned
    midpoint is within ``tol`` of the transition, or within one ulp when
    ``tol`` is finer than the float spacing there.
    """
    _positive("tol", tol)
    if not lo < hi:  # written so that a NaN endpoint fails
        raise ValueError(f"need lo < hi, got lo={lo}, hi={hi}")
    if detected(lo):
        raise ValueError("predicate already true at the lower endpoint")
    if not detected(hi):
        raise ValueError("predicate false at the upper endpoint")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):  # lo and hi are adjacent floats: nothing left to halve
            break
        if detected(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0
