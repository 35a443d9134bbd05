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
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qmat import Array, DensityMatrix, _density_fault, basis_index, pure_density, uniforms
from .states import BlindChannel, ChannelTerm

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


@dataclass(frozen=True)
class SamplerConfig:
    """Shape and randomness of a sampled-state stream.

    ``terms`` is the number of mixture terms per sample (1..16);
    ``partition`` (1-based site indices) fixes the bipartition for
    biseparable sampling, or ``None`` to draw a bipartition per term.
    """

    sites: tuple[int, ...]
    terms: int = 1
    seed: int = 0
    partition: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.sites or any(d < 2 for d in self.sites):
            raise ValueError(f"need one or more sites of dimension >= 2, got {self.sites}")
        if not 1 <= self.terms <= MAX_TERMS:
            raise ValueError(f"terms must be in 1..{MAX_TERMS}, got {self.terms}")
        if self.partition is not None:
            part = set(self.partition)
            if not part or not part < set(range(1, len(self.sites) + 1)):
                raise ValueError(
                    f"partition must be a nonempty proper subset of sites, got {self.partition}"
                )


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


def _sample_block(shape: str, cfg: SamplerConfig, indices: Array) -> Array:
    """Samples ``indices`` (a uint64 array) of the ``"separable"`` or the
    ``"biseparable"`` stream as one validated (B, D, D) stack.

    Sample i is a Dirichlet-weighted mixture of pure products, each term over
    one structure of ``_blocks_for(shape, ...)`` with Haar-random blocks.  Its
    term t reads a slot of 2 + 2 D draws at ``(cfg.seed, i)``: its weight, its
    structure pick, and a modulus and a phase draw per amplitude of each block
    in turn (block dimensions sum to <= D), which make the complex Gaussians
    of a Haar vector.  Every step acts on each sample alone, so a sample's
    bits do not depend on the block it is drawn in.
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
    fault = _density_fault(mats)
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


def _sample(shape: str, cfg: SamplerConfig, index: int) -> DensityMatrix:
    """Sample ``index`` alone: the block of one."""
    mats = _sample_block(shape, cfg, np.array([index], dtype=np.uint64))
    return DensityMatrix(cfg.sites, mats[0])


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
    level of every site.
    """
    sites = tuple(int(d) for d in sites)
    width = 1 + sum(sites)
    u = uniforms(seed, index, np.arange(terms * width)).reshape(terms, width)
    ends = list(itertools.accumulate(sites, initial=1))
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
# coordinate at a time: the REFINE_TOP best starts, SWEEPS passes each.

SWEEPS = 3
REFINE_TOP = 8

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


def _angles_to_vector(thetas: Array, phases: Array) -> Array:
    """Hyperspherical parametrization of a unit vector, first entry real."""
    dim = thetas.size + 1
    v = np.empty(dim, dtype=complex)
    run = 1.0
    for k in range(dim - 1):
        v[k] = run * np.cos(thetas[k])
        run *= np.sin(thetas[k])
    v[dim - 1] = run
    v[1:] *= np.exp(1j * phases)
    return v


def _product_vector(structure: _Structure, x: Array, sites: tuple[int, ...]) -> Array:
    """Pure product over ``structure``, each block read from its slice of ``x``."""
    vecs, at = [], 0
    for blk, d in structure:
        vecs.append((blk, _angles_to_vector(x[at : at + d - 1], x[at + d - 1 : at + 2 * d - 2])))
        at += 2 * d - 2
    return _assemble_product(vecs, sites)


def _pure_lhs(kind: str, vec: Array, sites: tuple[int, ...]) -> float:
    """Witness left-hand side of a pure state, straight from amplitudes."""
    if kind in ("epr", "ghz"):
        a, b = vec[0], vec[-1]
        return 2.0 * abs(a * b) + abs(a) ** 2 + abs(b) ** 2 - 1.0
    if kind == "w":
        p = vec
        return float(
            abs(p[1] * p[7]) + abs(p[2] * p[4]) + abs(p[1] * p[2]) + abs(p[4] * p[7])
        )
    if kind == "qudit":
        d = sites[0]
        amps = np.array([vec[basis_index((j,) * len(sites), sites)] for j in range(d)])
        mods = np.abs(amps)
        off = (mods.sum() ** 2 - (mods**2).sum()) / 2.0
        return float(2.0 * off + (mods**2).sum() - 1.0)
    raise ValueError(f"unknown witness name {kind!r}")


# Where each witness bound holds; not read from qew.witnesses, so the check stays outside.
_WITNESS_SET = {"epr": "separable", "qudit": "separable", "ghz": "biseparable", "w": "biseparable"}


def maximize_witness(witness: str, cfg: SamplerConfig, iters: int) -> tuple[float, DensityMatrix]:
    """Search the (bi)separable set for the largest witness left-hand side.

    ``iters`` random pure-product starts are scored (for ``ghz``/``w`` the
    starts cycle through the bipartitions); the best ``REFINE_TOP`` are
    refined by ``SWEEPS`` coordinate-wise golden-section sweeps over the
    factor angles.  Fully deterministic for a given ``cfg.seed``; ties keep
    the lowest start index.  Returns the best value and the state attaining
    it.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if witness not in _WITNESS_SET:
        raise ValueError(f"unknown witness name {witness!r}")
    sites = cfg.sites
    structures = _blocks_for(_WITNESS_SET[witness], sites, cfg.partition)
    # Ranges [0, hi): per block of dimension d, d - 1 angles to pi/2, then d - 1 phases to 2 pi.
    his = [np.concatenate([np.repeat((np.pi / 2.0, 2.0 * np.pi), d - 1) for _, d in st])
           for st in structures]

    def start(i: int) -> tuple[int, Array]:
        s = i % len(structures)  # starts cycle through the structures
        return s, his[s] * uniforms(cfg.seed, i, np.arange(his[s].size))

    def score(s: int, x: Array) -> float:
        return _pure_lhs(witness, _product_vector(structures[s], x, sites), sites)

    def moved(x: Array, j: int, v: float) -> Array:
        y = x.copy()
        y[j] = v
        return y

    vals = [score(*start(i)) for i in range(iters)]
    # Refine by value descending, index ascending on ties.
    order = sorted(range(iters), key=lambda i: (-vals[i], i))
    best_val, best_s, best_x = -np.inf, 0, None
    for i in order[:REFINE_TOP]:
        (s, x), cur = start(i), vals[i]
        for _ in range(SWEEPS):
            for j in range(x.size):
                cand, val = _golden_ascent(lambda v: score(s, moved(x, j, v)), his[s][j])
                if val >= cur:
                    cur, x[j] = val, cand
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
    entanglement certificate.
    """
    if rho.n_sites < 2:
        raise ValueError("partial transpose needs at least 2 sites")
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

    ``detected`` must be False at ``lo`` and True at ``hi``; the returned
    midpoint is within ``tol`` of the transition.
    """
    if detected(lo):
        raise ValueError("predicate already true at the lower endpoint")
    if not detected(hi):
        raise ValueError("predicate false at the upper endpoint")
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if detected(mid):
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0
