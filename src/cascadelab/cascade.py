"""Seed-deterministic cascade realizations.

A realization of depth n holds the cumulative grid values of the
depth-n approximant F_{k,n} at the points j * b**-n: two float arrays
of length b**n + 1, 16 * (b**n + 1) bytes.  Node weights (W1, W2) and
running products (Q1, Q2) are not kept by ``build``; the readers that
need them regenerate them level by level and memoize them on the
realization.  Words are held as flat arrays indexed by their integer
value within the level.  The tilted sampler memoizes one table per q
on top of the weights: per level, the within-sibling cumulative tilted
weights and each parent's total (see sample_tilted_path).

Node randomness comes from counter-based Philox streams, one per
(seed, level); the draw position inside the stream is the word index.
A level's weights therefore do not depend on the build depth or on
traversal order: build(model, seed, n) and build(model, seed, n+1)
agree bit-exactly on all levels up to n, and a level regenerated from
its stream is bit-identical to the one the grid was built from.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, ResourceError
from .weights import WeightModel
from .words import Word

DEFAULT_CELL_BUDGET = 2**26


def level_rng(seed: int, level: int) -> np.random.Generator:
    """The counter-based stream holding the weights of one tree level.

    The Philox key is the uint64 pair (seed, level), so every seed in
    [0, 2**64) keys its own streams.
    """
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
    key = np.array([seed, level], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def level_weights(model: WeightModel, seed: int, level: int):
    """(W1, W2) arrays for all base**level words, regenerable at will."""
    return model.sample_pairs(level_rng(seed, level), model.base**level)


@dataclass
class CascadeRealization:
    """Depth-n realization: the grid, plus whatever has been memoized.

    ``grid`` holds the two cumulative-sum arrays of length base**depth + 1
    with grid[k][j] = F_{k,n}(j * b**-n); it is all ``build`` leaves.
    ``weights`` and ``products`` are prefix memos filled on first read:
    ``weights[m - 1]`` and ``products[m]`` hold the level-m (W1, W2) and
    (Q1, Q2) arrays for every level up to the deepest one read so far,
    and products[0] is the root pair (1, 1).  The per-level grid min/max
    tables are memoized on first use too (see grid_min_max), and so are
    the tilted-path tables, per q (see sample_tilted_path).  None of the
    memos changes a value a reader sees.
    """

    model: WeightModel
    seed: int
    depth: int
    grid: tuple = field(repr=False)
    weights: list = field(default_factory=list, init=False, repr=False, compare=False)
    products: list = field(
        default_factory=lambda: [(np.ones(1), np.ones(1))], init=False, repr=False, compare=False
    )
    _min_max: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _tilted: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def base(self) -> int:
        return self.model.base

    @property
    def cells(self) -> int:
        return self.base**self.depth

    def word_index(self, w: Word) -> int:
        if w.base != self.base:
            raise ConfigError(f"word base {w.base} != realization base {self.base}")
        if len(w) > self.depth:
            raise ConfigError(f"word length {len(w)} exceeds depth {self.depth}")
        return w.index


def _next_products(q: np.ndarray, w: np.ndarray, b: int) -> np.ndarray:
    """Level-m products from level m-1's: each parent's times its children's weights."""
    q = np.repeat(q, b)
    q *= w
    return q


def _cumulative(q: np.ndarray) -> np.ndarray:
    """Grid values 0, q[0], q[0] + q[1], ... of one component."""
    f = np.empty(len(q) + 1)
    f[0] = 0.0
    np.cumsum(q, out=f[1:])
    return f


def build(
    model: WeightModel,
    seed: int,
    depth: int,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> CascadeRealization:
    """Materialize the depth-n approximant of the cascade at a fixed seed.

    The levels are streamed: one level of products is alive at a time,
    and the realization keeps only the grid (see CascadeRealization).
    """
    if depth < 1:
        raise ConfigError(f"depth must be >= 1, got {depth}")
    b = model.base
    if b ** (depth + 1) > cell_budget:
        raise ResourceError(
            f"b**(depth+1) = {b**(depth + 1)} exceeds cell budget {cell_budget}"
        )

    q1 = q2 = np.ones(1)
    for m in range(1, depth + 1):
        w1, w2 = level_weights(model, seed, m)
        q1 = _next_products(q1, w1, b)
        q2 = _next_products(q2, w2, b)
    # free each full-size array before the next is allocated: the peak stays below three grids
    del w1, w2
    f1 = _cumulative(q1)
    del q1
    return CascadeRealization(model, seed, depth, (f1, _cumulative(q2)))


def _levels(real: CascadeRealization, level: int) -> tuple[list, list]:
    """``real.weights`` and ``real.products``, filled through ``level``.

    Missing levels are regenerated from their (seed, level) streams, so
    they are bit-identical to the ones the grid was built from.
    """
    weights, products = real.weights, real.products
    for m in range(len(weights) + 1, level + 1):
        w1, w2 = level_weights(real.model, real.seed, m)
        q1, q2 = products[m - 1]
        weights.append((w1, w2))
        products.append((_next_products(q1, w1, real.base), _next_products(q2, w2, real.base)))
    return weights, products


def partial_product(real: CascadeRealization, w: Word) -> tuple[float, float]:
    """(Q1(w), Q2(w)); Q_k(empty) = 1."""
    idx = real.word_index(w)
    _, products = _levels(real, len(w))
    q1, q2 = products[len(w)]
    return float(q1[idx]), float(q2[idx])


def node_weight(real: CascadeRealization, w: Word) -> tuple[float, float]:
    """(W1(w), W2(w)) at a nonempty word."""
    if len(w) == 0:
        raise ConfigError("the empty word carries no weight")
    idx = real.word_index(w)
    weights, _ = _levels(real, len(w))
    w1, w2 = weights[len(w) - 1]
    return float(w1[idx]), float(w2[idx])


def increment(real: CascadeRealization, w: Word) -> tuple[float, float]:
    """Endpoint increment of (F1, F2) over I_w; equals Q(w) at full depth."""
    idx = real.word_index(w)
    step = real.base ** (real.depth - len(w))
    f1, f2 = real.grid
    return (
        float(f1[(idx + 1) * step] - f1[idx * step]),
        float(f2[(idx + 1) * step] - f2[idx * step]),
    )


def _block_min_max(values: np.ndarray, blocks: int, step: int):
    """Min and max of values over each closed block [j*step, (j+1)*step]."""
    starts = np.arange(blocks) * step
    right = values[starts + step]
    mins = np.minimum(np.minimum.reduceat(values[:-1], starts), right)
    maxs = np.maximum(np.maximum.reduceat(values[:-1], starts), right)
    return mins, maxs


def grid_min_max(real: CascadeRealization, level: int):
    """Per-word (min, max) of each grid component over closed intervals.

    Returns ((min1, max1), (min2, max2)) arrays of length base**level.
    The tables are memoized on the realization and read-only.  A level
    is derived from the nearest finer level already held when there is
    one (a closed word interval is the union of its children's closed
    intervals, so this is exact), else computed from the grid.
    """
    if not 0 <= level <= real.depth:
        raise ConfigError(f"level {level} outside [0, {real.depth}]")
    cache = real._min_max
    if level in cache:
        return cache[level]
    finer = min((m for m in cache if m > level), default=None)
    if finer is None:
        blocks = real.base**level
        step = real.base ** (real.depth - level)
        tables = tuple(_block_min_max(f, blocks, step) for f in real.grid)
    else:
        width = real.base ** (finer - level)
        tables = tuple(
            (lo.reshape(-1, width).min(axis=1), hi.reshape(-1, width).max(axis=1))
            for lo, hi in cache[finer]
        )
    for pair in tables:
        for a in pair:
            a.flags.writeable = False
    cache[level] = tables
    return tables


@dataclass(frozen=True)
class OscillationTable:
    """Grid oscillations sup-inf of (F1, F2) over all words of one level."""

    level: int
    o1: np.ndarray
    o2: np.ndarray


def oscillations(real: CascadeRealization, level: int) -> OscillationTable:
    """O_k(w) = max - min of the depth-n grid of F_k over closed I_w.

    The grid maximum undershoots the true sup of the limit process by at
    most the finest-cell oscillation; estimator tolerances absorb this.
    """
    (min1, max1), (min2, max2) = grid_min_max(real, level)
    return OscillationTable(level, max1 - min1, max2 - min2)


def _tilted_tables(real: CascadeRealization, q: tuple[float, float], level: int):
    """``(cums, totals)`` of the q-tilted child weights, filled through ``level``.

    ``cums[m - 1]`` lists, for every level-m word, the cumulative sum of
    |W1|^q1 |W2|^q2 over its siblings up to itself (0 * inf counts as 1);
    ``totals[m - 1]`` lists each level-(m-1) parent's sum.  Both are the
    values a per-parent cumsum and sum of the same slice give, bit for bit.
    """
    cums, totals = real._tilted.setdefault(q, ([], []))
    b = real.base
    weights, _ = _levels(real, level)
    q1, q2 = q
    # whole levels, visited or not: an infinite total raises only when a path reaches it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for m in range(len(cums) + 1, level + 1):
            w1, w2 = weights[m - 1]
            tw = np.abs(w1) ** q1 * np.abs(w2) ** q2
            tw[np.isnan(tw)] = 1.0  # 0 * inf
            tw = tw.reshape(-1, b)
            cums.append(tw.cumsum(axis=1).ravel().tolist())
            totals.append(tw.sum(axis=1).tolist())
    return cums, totals


def sample_tilted_path(
    real: CascadeRealization,
    q: tuple[float, float],
    target_depth: int,
    rng: np.random.Generator,
) -> Word:
    """Draw a word digit by digit with child probabilities ~ |W1|^q1 |W2|^q2.

    This is the per-node-normalized tilted sampler: the constant
    b**phi(q) cancels in the normalization.  Paths concentrate near
    Holder exponent grad phi(q) (exactly so for deterministic-modulus
    tilting weights).

    Each level draws one double u and takes the first child whose
    cumulative tilted weight exceeds u times its parent's total.  The
    cumulative weights and totals are memoized on the realization per
    q, as a prefix of levels that grows with ``target_depth``: level m
    holds b**m cumulative weights and b**(m-1) totals as Python floats,
    about 32 * (b**m + b**(m-1)) bytes.  A parent whose total is zero
    or not finite raises DivergenceError only when a path visits it.
    """
    if not 0 <= target_depth <= real.depth:
        raise ConfigError(f"target depth {target_depth} outside [0, {real.depth}]")
    q1, q2 = q
    if not (math.isfinite(q1) and math.isfinite(q2)):
        raise ConfigError(f"q must be finite, got {q}")
    b = real.base
    cums, totals = _tilted_tables(real, (float(q1), float(q2)), target_depth)
    random, bisect_right = rng.random, bisect.bisect_right
    idx = 0
    digits = []
    for m in range(target_depth):
        total = totals[m][idx]
        if not 0.0 < total < math.inf:
            raise DivergenceError(f"tilted child weights degenerate at level {m + 1}")
        lo = idx * b
        idx = min(bisect_right(cums[m], random() * total, lo, lo + b), lo + b - 1)
        digits.append(idx - lo)
    return Word(b, tuple(digits))


def export_level(real: CascadeRealization, level: int):
    """Rows (word, Q1, Q2, F1 endpoint, F2 endpoint) at one level.

    Rows come in word-index order; a word is written as ``str(Word)``
    writes it (digits without separators, or dot-separated for b > 10,
    so ``parse_word`` reads it back), and its endpoint is the grid value
    at its interval's right end.
    """
    if not 0 <= level <= real.depth:
        raise ConfigError(f"level {level} outside [0, {real.depth}]")
    b = real.base
    _, products = _levels(real, level)
    q1, q2 = products[level]
    step = b ** (real.depth - level)
    f1, f2 = real.grid
    digits = [str(d) for d in range(b)]
    sep = "." if b > 10 else ""
    words = (sep.join(p) for p in itertools.product(digits, repeat=level))
    ends1, ends2 = f1[step::step].tolist(), f2[step::step].tolist()
    return list(zip(words, q1.tolist(), q2.tolist(), ends1, ends2))

