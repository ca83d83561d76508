"""Seed-deterministic cascade realizations.

A realization of depth n stores, per level m = 1..n, the node weights
(W1, W2) for all b**m words and the running products (Q1, Q2), plus the
cumulative grid values of the depth-n approximant F_{k,n} at the points
j * b**-n.  Words are held as flat arrays indexed by their integer value
within the level.

Node randomness comes from counter-based Philox streams, one per
(seed, level); the draw position inside the stream is the word index.
A level's weights therefore do not depend on the build depth or on
traversal order: build(model, seed, n) and build(model, seed, n+1)
agree bit-exactly on all levels up to n.
"""

from __future__ import annotations

import itertools
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
    """Depth-n realization: weights, partial products, and grid values.

    ``weights[m - 1]`` and ``products[m]`` hold the level-m arrays
    (products[0] is the root pair (1, 1)); ``grid`` holds the two
    cumulative-sum arrays of length base**depth + 1 with
    grid[k][j] = F_{k,n}(j * b**-n).  Immutable once built; the per-level
    grid min/max tables are memoized on first use (see grid_min_max).
    """

    model: WeightModel
    seed: int
    depth: int
    weights: list = field(repr=False)
    products: list = field(repr=False)
    grid: tuple = field(repr=False)
    _min_max: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


def build(
    model: WeightModel,
    seed: int,
    depth: int,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> CascadeRealization:
    """Materialize the depth-n approximant of the cascade at a fixed seed."""
    if depth < 1:
        raise ConfigError(f"depth must be >= 1, got {depth}")
    b = model.base
    if b ** (depth + 1) > cell_budget:
        raise ResourceError(
            f"b**(depth+1) = {b**(depth + 1)} exceeds cell budget {cell_budget}"
        )

    weights = []
    products = [(np.ones(1), np.ones(1))]
    for m in range(1, depth + 1):
        w1, w2 = level_weights(model, seed, m)
        q1p, q2p = products[m - 1]
        products.append((np.repeat(q1p, b) * w1, np.repeat(q2p, b) * w2))
        weights.append((w1, w2))

    q1n, q2n = products[depth]
    f1 = np.concatenate(([0.0], np.cumsum(q1n)))
    f2 = np.concatenate(([0.0], np.cumsum(q2n)))
    return CascadeRealization(model, seed, depth, weights, products, (f1, f2))


def partial_product(real: CascadeRealization, w: Word) -> tuple[float, float]:
    """(Q1(w), Q2(w)) as stored; Q_k(empty) = 1."""
    idx = real.word_index(w)
    q1, q2 = real.products[len(w)]
    return float(q1[idx]), float(q2[idx])


def node_weight(real: CascadeRealization, w: Word) -> tuple[float, float]:
    """(W1(w), W2(w)) at a nonempty word."""
    if len(w) == 0:
        raise ConfigError("the empty word carries no weight")
    idx = real.word_index(w)
    w1, w2 = real.weights[len(w) - 1]
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
    """
    if target_depth > real.depth:
        raise ConfigError(f"target depth {target_depth} exceeds depth {real.depth}")
    q1, q2 = q
    b = real.base
    idx = 0
    digits = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for m in range(1, target_depth + 1):
            w1, w2 = real.weights[m - 1]
            lo = idx * b
            tw = np.abs(w1[lo : lo + b]) ** q1 * np.abs(w2[lo : lo + b]) ** q2
            tw[np.isnan(tw)] = 1.0  # 0 * inf
            total = tw.sum()
            if not np.isfinite(total) or total <= 0.0:
                raise DivergenceError(f"tilted child weights degenerate at level {m}")
            u = rng.random() * total
            digit = min(int(tw.cumsum().searchsorted(u, side="right")), b - 1)
            digits.append(digit)
            idx = lo + digit
    return Word(b, tuple(digits))


def export_level(real: CascadeRealization, level: int):
    """Rows (word, Q1, Q2, F1 endpoint, F2 endpoint) at one level.

    Rows come in word-index order; a word is its digits written out
    without separators, and its endpoint is the grid value at its
    interval's right end.
    """
    if not 0 <= level <= real.depth:
        raise ConfigError(f"level {level} outside [0, {real.depth}]")
    b = real.base
    q1, q2 = real.products[level]
    step = b ** (real.depth - level)
    f1, f2 = real.grid
    digits = [str(d) for d in range(b)]
    words = ("".join(p) for p in itertools.product(digits, repeat=level))
    ends1, ends2 = f1[step::step].tolist(), f2[step::step].tolist()
    return list(zip(words, q1.tolist(), q2.tolist(), ends1, ends2))

