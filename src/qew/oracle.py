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

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .qmat import Array, DensityMatrix, as_density, basis_index, pure_density, uniforms
from .states import BlindChannel, ChannelTerm

__all__ = [
    "PptReport",
    "SamplerConfig",
    "all_bipartitions",
    "bisect_threshold",
    "maximize_witness",
    "partial_transpose",
    "ppt_check",
    "random_blind_channel",
    "sample_biseparable",
    "sample_separable",
]

NPT_EIG_TOL = -1e-10
MAX_TERMS = 16


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


def _blocks_for(shape: str, n: int, partition: tuple[int, ...] | None) -> list[list[tuple[int, ...]]]:
    """Factor structures (lists of site blocks) of the ``"separable"`` or the
    ``"biseparable"`` set; the latter has one per bipartition, or ``partition``."""
    if shape == "separable":
        return [[(i,) for i in range(1, n + 1)]]
    parts = [partition] if partition is not None else all_bipartitions(n)
    return [[tuple(p), tuple(i for i in range(1, n + 1) if i not in p)] for p in parts]


def _sample_mixture(shape: str, cfg: SamplerConfig, index: int) -> DensityMatrix:
    """Dirichlet-weighted mixture of pure products, each term over one
    structure of ``_blocks_for(shape, ...)`` with Haar-random blocks.

    Term t reads a slot of 2 + 2 D draws: its weight, its structure pick, and
    a modulus and a phase draw per amplitude of each block in turn (block
    dimensions sum to <= D), which make the complex Gaussians of a Haar vector.
    """
    sites, dim = cfg.sites, math.prod(cfg.sites)
    structures = _blocks_for(shape, len(sites), cfg.partition)
    u = uniforms(cfg.seed, index, np.arange(cfg.terms * (2 + 2 * dim))).reshape(cfg.terms, -1)
    picks = (u[:, 1] * len(structures)).astype(int)
    g = np.sqrt(-2.0 * np.log1p(-u[:, 2::2])) * np.exp(2j * np.pi * u[:, 3::2])
    vecs = np.empty((cfg.terms, dim), dtype=complex)
    for pick in np.unique(picks):
        rows, at, blocks = picks == pick, 0, []
        for blk in structures[pick]:
            d = math.prod(sites[i - 1] for i in blk)
            blocks.append((blk, g[rows, at : at + d]))
            at += d
        vecs[rows] = _assemble_product(blocks, sites)
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    mat = (vecs.T * _dirichlet(u[:, 0])) @ vecs.conj()
    return as_density(mat, sites)


def sample_separable(cfg: SamplerConfig, index: int = 0) -> DensityMatrix:
    """Random fully separable state: Dirichlet-weighted mixture of products.

    Each mixture term is a tensor product of Haar-random local pure states,
    so every output is separable by construction.
    """
    return _sample_mixture("separable", cfg, index)


def sample_biseparable(cfg: SamplerConfig, index: int = 0) -> DensityMatrix:
    """Random biseparable state: mixture of (pure on I) x (pure on complement).

    The block states are Haar-random over their full block dimension, so
    entanglement *within* a block is allowed — only the I | complement cut
    is product.  With ``cfg.partition`` unset, each term draws its own
    bipartition uniformly, giving a generic biseparable mixture.
    """
    return _sample_mixture("biseparable", cfg, index)


def random_blind_channel(
    sites: Sequence[int],
    terms: int,
    seed: int,
    index: int = 0,
    *,
    conjugate_pairs: bool = False,
) -> BlindChannel:
    """Random phase channel with Dirichlet weights and uniform (0, pi) phases.

    Term t reads one slot of stream draws: its weight, then one phase per
    level of every site.  With ``conjugate_pairs`` each drawn term is
    emitted twice at half weight, once with negated phases — the mixture's
    coherence factors are then real (useful when a test needs phase
    scrambling that preserves real parts).
    """
    sites = tuple(int(d) for d in sites)
    width = 1 + sum(sites)
    u = uniforms(seed, index, np.arange(terms * width)).reshape(terms, width)
    ends = list(itertools.accumulate(sites, initial=1))
    out: list[ChannelTerm] = []
    for w, row in zip(_dirichlet(u[:, 0]).tolist(), (np.pi * u).tolist()):
        phases = tuple(tuple(row[a:b]) for a, b in zip(ends, ends[1:]))
        if conjugate_pairs:
            neg = tuple(tuple(-x for x in site) for site in phases)
            out.append(ChannelTerm(w / 2.0, phases))
            out.append(ChannelTerm(w / 2.0, neg))
        else:
            out.append(ChannelTerm(w, phases))
    return BlindChannel(tuple(out))


# ---------------------------------------------------------------------------
# witness maximization over the (bi)separable set
# ---------------------------------------------------------------------------

# The witness left-hand sides are convex in rho (moduli of linear functionals
# plus linear population terms), so their maxima over the separable or
# biseparable convex hulls sit at extreme points: pure product states.  The
# search therefore only ever parametrizes pure factors.

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_ascent(f: Callable[[float], float], lo: float, hi: float, iters: int = 48) -> float:
    """Bounded golden-section line search; returns the best point found."""
    a, b = lo, hi
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
    return c if fc >= fd else d


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


def maximize_witness(
    witness: str,
    cfg: SamplerConfig,
    iters: int,
    *,
    sweeps: int = 3,
    refine_top: int = 8,
) -> tuple[float, DensityMatrix]:
    """Search the (bi)separable set for the largest witness left-hand side.

    ``iters`` random pure-product starts are scored (for ``ghz``/``w`` the
    starts cycle through the bipartitions); the best few are refined by
    coordinate-wise golden-section sweeps over the factor angles.  Fully
    deterministic for a given ``cfg.seed``; ties keep the lowest start
    index.  Returns the best value and the state attaining it.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if witness not in _WITNESS_SET:
        raise ValueError(f"unknown witness name {witness!r}")
    sites = cfg.sites
    structures = _blocks_for(_WITNESS_SET[witness], len(sites), cfg.partition)

    def random_params(index: int, blocks: list[tuple[int, ...]]) -> list[tuple[Array, Array]]:
        """Start ``index``: per block, d - 1 angles on [0, pi/2), then d - 1 phases on [0, 2 pi)."""
        u = uniforms(cfg.seed, index, np.arange(2 * math.prod(sites)))
        params, at = [], 0
        for blk in blocks:
            m = math.prod(sites[i - 1] for i in blk) - 1
            params.append((np.pi / 2.0 * u[at : at + m], 2.0 * np.pi * u[at + m : at + 2 * m]))
            at += 2 * m
        return params

    def value_of(blocks: list[tuple[int, ...]], params: list[tuple[Array, Array]]) -> float:
        vecs = [(blk, _angles_to_vector(t, p)) for blk, (t, p) in zip(blocks, params)]
        return _pure_lhs(witness, _assemble_product(vecs, sites), sites)

    starts: list[tuple[float, int]] = []
    for i in range(iters):
        blocks = structures[i % len(structures)]
        val = value_of(blocks, random_params(i, blocks))
        starts.append((val, i))
    # Sort by value descending, index ascending on ties.
    starts.sort(key=lambda vi: (-vi[0], vi[1]))

    best_val, best_params, best_blocks = -np.inf, None, None
    for val, i in starts[: max(1, refine_top)]:
        blocks = structures[i % len(structures)]
        # Params are a pure function of (seed, index); regenerate instead of caching.
        params = random_params(i, blocks)
        cur = val
        for _ in range(sweeps):
            for thetas, phases in params:
                for arr, lo, hi in ((thetas, 0.0, np.pi / 2.0), (phases, 0.0, 2.0 * np.pi)):
                    for k in range(arr.size):
                        def try_at(x: float, _arr=arr, _k=k) -> float:
                            old = _arr[_k]
                            _arr[_k] = x
                            v = value_of(blocks, params)
                            _arr[_k] = old
                            return v

                        cand = _golden_ascent(try_at, lo, hi)
                        if try_at(cand) >= cur:
                            cur = try_at(cand)
                            arr[k] = cand
        if cur > best_val:
            best_val = cur
            best_params = params
            best_blocks = blocks
    vecs = [(blk, _angles_to_vector(t, p)) for blk, (t, p) in zip(best_blocks, best_params)]
    state = pure_density(_assemble_product(vecs, sites), sites)
    return float(best_val), state


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
