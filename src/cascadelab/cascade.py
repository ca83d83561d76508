"""Seed-deterministic cascade realizations.

A realization of depth n is fixed by (model, seed, n): ``build``
validates them and holds nothing but the root pair.  Every value a
reader asks for is regenerated from the level streams on first read
and memoized on the realization:

- the per-level min/max tables of the cumulative grid
  F_{k,n}(j * b**-n) (see grid_min_max);
- the grid itself, two float arrays of length b**n + 1, 16 * (b**n + 1)
  bytes, for the readers that need every grid value (see grid_values);
- node weights (W1, W2) and running products (Q1, Q2), level by level
  (see _levels);
- the tilted sampler's per-q tables (see sample_tilted_path).

Words are held as flat arrays indexed by their integer value within the
level.

Node randomness comes from counter-based Philox streams, one per
(seed, level); the draw position inside the stream is the word index.
A level's weights therefore do not depend on the depth or on traversal
order: build(model, seed, n) and build(model, seed, n+1) agree
bit-exactly on all levels up to n, and a level regenerated from its
stream is bit-identical to every other draw of it.

The grid is walked in cache-sized chunks (see _walk_chunks): every
level of at most _WHOLE_LEVEL_CELLS = 2**12 nodes, and every level
above the chunks, is built whole; then the subtrees of at most
_CHUNK_CELLS = 2**16 leaves are visited in index order, each one's
slice of every larger level drawn from the level's stream, multiplied
out and summed.  grid_values sums the chunks into a preallocated grid;
grid_min_max sums each into one reusable chunk buffer and reduces it to
its rows of a min/max table, so its peak is one chunk plus the table,
whatever the depth.  A held grid is reduced the same way, one chunk-wide
slice at a time.  Every min/max table comes from one strided fold (see
_fold), which turns each run of neighbours into one value.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, ResourceError
from .weights import WeightModel
from .words import Word

DEFAULT_CELL_BUDGET = 2**26
_CHUNK_CELLS = 2**16  # leaves of the subtree a grid walk samples and sums at once
_WHOLE_LEVEL_CELLS = 2**12  # a grid walk builds every level of at most this many nodes whole
_FOLD_RUN_MAX = 32  # _fold reduces each run in one call when it is longer


def _philox_key(seed: int, level: int) -> np.ndarray:
    """The uint64 pair (seed, level); every seed in [0, 2**64) keys its own streams."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
    return np.array([seed, level], dtype=np.uint64)


def level_rng(seed: int, level: int) -> np.random.Generator:
    """The counter-based stream holding the weights of one tree level."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, level)))


def level_weights(model: WeightModel, seed: int, level: int):
    """(W1, W2) arrays for all base**level words, regenerable at will."""
    return model.sample_pairs(level_rng(seed, level), model.base**level)


@dataclass
class CascadeRealization:
    """Depth-n realization: (model, seed, depth), plus whatever has been memoized.

    Two realizations are equal when their (model, seed, depth) are: the
    memos below hold values regenerated from those three and never take
    part in a comparison.  ``grid`` is () until grid_values fills it with
    the two cumulative-sum arrays of length base**depth + 1, with
    grid[k][j] = F_{k,n}(j * b**-n).  ``weights`` and ``products`` are
    prefix memos filled on first read: ``weights[m - 1]`` and
    ``products[m]`` hold the level-m (W1, W2) and (Q1, Q2) arrays for
    every level up to the deepest one read so far, and products[0] is the
    root pair (1, 1), all ``build`` leaves.  The per-level grid min/max
    tables are memoized on first use too (see grid_min_max), and so are
    the tilted-path tables, per q (see sample_tilted_path).  None of the
    memos changes a value a reader sees.
    """

    model: WeightModel
    seed: int
    depth: int
    grid: tuple = field(default=(), init=False, repr=False, compare=False)
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
    """Level-m products from level m-1's, written over ``w`` and returned.

    Each parent's product times each of its b children's weights.
    """
    children = w.reshape(-1, b)
    np.multiply(q[:, None], children, out=children)
    return w


class _LevelStream:
    """Level m's stream, read in slices exactly as one whole-level draw reads it.

    ``random(size)`` reads the uniforms from stream position 0 on and
    ``standard_normal(size)`` the normals from position n = b**m on, the
    layout of ``WeightModel.sample_pairs(rng, n)``; ``Philox.advance(k)``
    skips 4k doubles.  Slices drawn in order therefore consume the doubles
    of one whole-level call, ziggurat normals included.
    """

    def __init__(self, seed: int, level: int, n: int):
        self._seed, self._level, self._n = seed, level, n
        self.random = level_rng(seed, level).random

    @functools.cached_property
    def standard_normal(self):
        """Opened on first use: the fractional and table kinds draw no normals."""
        normals = level_rng(self._seed, self._level)
        normals.bit_generator.advance(self._n // 4)
        normals.random(self._n % 4)
        return normals.standard_normal


def build(
    model: WeightModel,
    seed: int,
    depth: int,
    cell_budget: int = DEFAULT_CELL_BUDGET,
) -> CascadeRealization:
    """The depth-n approximant of the cascade at a fixed seed.

    Checks the depth, the cell budget and the seed, and returns a
    realization that holds only the root pair: its grid values and
    tables are regenerated from the level streams by the first reader
    that asks for them (see CascadeRealization).
    """
    if depth < 1:
        raise ConfigError(f"depth must be >= 1, got {depth}")
    b = model.base
    if b ** (depth + 1) > cell_budget:
        raise ResourceError(
            f"b**(depth+1) = {b**(depth + 1)} exceeds cell budget {cell_budget}"
        )
    _philox_key(seed, 0)  # the seed check every level's stream makes
    return CascadeRealization(model, seed, depth)


def _chunk_shape(b: int, depth: int) -> tuple[int, int]:
    """(top, width): the chunks are the b**top level-top subtrees of width leaves.

    width = b**(depth - top) is the largest power of b within
    _CHUNK_CELLS, and at least b (so top < depth).
    """
    s = 1
    while s < depth and b ** (s + 1) <= _CHUNK_CELLS:
        s += 1
    return depth - s, b**s


def _walk_chunks(real: CascadeRealization, frame):
    """Sum each chunk's leaf products into ``frame(i)``, then yield i, in index order.

    ``frame(i)`` returns two arrays of width + 1 values (see _chunk_shape)
    that take (F1, F2) at the leaf points i * width .. (i + 1) * width of
    chunk i.  The levels down to top, and every level of at most
    _WHOLE_LEVEL_CELLS nodes, are built whole; then each chunk's slices of
    the larger levels are drawn from their streams (see _LevelStream) and
    multiplied out, slot 0 of its frame is set to the value the previous
    chunk ended on (0.0 before the first), and the rest to the cumulative
    sum of its products from there.  The values are bit-identical to one
    cumsum over a whole-level build.
    """
    model, seed, depth, b = real.model, real.seed, real.depth, real.base
    top, _ = _chunk_shape(b, depth)
    whole = top
    while whole < depth and b ** (whole + 1) <= _WHOLE_LEVEL_CELLS:
        whole += 1
    q1 = q2 = np.ones(1)
    for m in range(1, whole + 1):
        w1, w2 = level_weights(model, seed, m)
        q1 = _next_products(q1, w1, b)
        q2 = _next_products(q2, w2, b)
    span = b ** (whole - top)  # level-whole words under each chunk
    streams = [_LevelStream(seed, m, b**m) for m in range(whole + 1, depth + 1)]
    ends = (0.0, 0.0)
    for i in range(b**top):
        c1, c2 = q1[i * span : (i + 1) * span], q2[i * span : (i + 1) * span]
        for k, stream in enumerate(streams, whole - top + 1):
            w1, w2 = model.sample_pairs(stream, b**k)
            c1 = _next_products(c1, w1, b)
            c2 = _next_products(c2, w2, b)
        values = frame(i)
        for f, c, end in zip(values, (c1, c2), ends):
            f[0] = end
            if i:  # never on the first chunk: 0.0 + -0.0 would drop a sign bit
                c[0] += end
            np.cumsum(c, out=f[1:])
        ends = (values[0][-1], values[1][-1])
        yield i


def grid_values(real: CascadeRealization) -> tuple:
    """The grid (F1, F2) at every point j * b**-n, memoized as ``real.grid``.

    Two arrays of length b**n + 1, 16 * (b**n + 1) bytes; the walk sums
    each chunk straight into its slice, so the peak is the grid plus a
    few arrays of one chunk's size.
    """
    if not real.grid:
        _, width = _chunk_shape(real.base, real.depth)
        grid = (np.empty(real.cells + 1), np.empty(real.cells + 1))
        for _ in _walk_chunks(real, lambda i: tuple(f[i * width : (i + 1) * width + 1] for f in grid)):
            pass
        real.grid = grid
    return real.grid


def _levels(real: CascadeRealization, level: int) -> tuple[list, list]:
    """``real.weights`` and ``real.products``, filled through ``level``.

    Missing levels are regenerated from their (seed, level) streams, so
    they are bit-identical to the ones the grid was built from.
    """
    weights, products, b = real.weights, real.products, real.base
    for m in range(len(weights) + 1, level + 1):
        w1, w2 = level_weights(real.model, real.seed, m)
        q1, q2 = products[m - 1]
        weights.append((w1, w2))
        products.append((_next_products(q1, w1.copy(), b), _next_products(q2, w2.copy(), b)))
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
    f1, f2 = grid_values(real)
    return (
        float(f1[(idx + 1) * step] - f1[idx * step]),
        float(f2[(idx + 1) * step] - f2[idx * step]),
    )


def _fold(a: np.ndarray, b: int, ufunc, out=None) -> np.ndarray:
    """``ufunc`` over each run of b neighbours of ``a``: one value per run, into ``out``.

    ufunc(a[0::b], a[1::b]), then ufunc of that with a[2::b], and so on:
    b - 1 calls, and no array but ``out``.  numpy's elementwise minimum
    and maximum return their second argument on a tie, so of two equal
    zeros the later one's sign is kept.  A run longer than _FOLD_RUN_MAX
    costs less as one ``reduceat`` call over the runs, which is used
    instead.  Runs of one value are ``a`` itself.
    """
    if b == 1:
        return a
    if b > _FOLD_RUN_MAX:
        return ufunc.reduceat(a, np.arange(0, len(a), b), out=out)
    out = ufunc(a[0::b], a[1::b], out=out)
    for k in range(2, b):
        ufunc(out, a[k::b], out=out)
    return out


def _chunked_min_max(real: CascadeRealization, level: int):
    """Level ``level``'s tables, reduced one chunk at a time; ``level`` must be at least top.

    The chunks are the closed intervals of the level-top words (see
    _chunk_shape), each reduced to its b**(level - top) rows: row j's
    closed block f[j * step .. (j + 1) * step] is its first step values
    folded (see _fold), then its right end.  The chunks are slices of
    ``real.grid`` when grid_values has filled it; else the grid walk sums
    each into one reusable buffer (see _walk_chunks), and no grid is
    held.  Either way the peak is the tables plus a few arrays of one
    chunk's size.
    """
    b = real.base
    top, width = _chunk_shape(b, real.depth)
    rows, step = b ** (level - top), b ** (real.depth - level)
    tables = tuple((np.empty(b**level), np.empty(b**level)) for _ in range(2))
    if real.grid:
        chunks = (tuple(f[i * width : (i + 1) * width + 1] for f in real.grid) for i in range(b**top))
    else:
        buffer = (np.empty(width + 1), np.empty(width + 1))
        chunks = (buffer for _ in _walk_chunks(real, lambda i: buffer))
    for i, chunk in enumerate(chunks):
        for f, pair in zip(chunk, tables):
            for ufunc, table in zip((np.minimum, np.maximum), pair):
                out = table[i * rows : (i + 1) * rows]
                ufunc(_fold(f[:-1], step, ufunc, out), f[step::step], out=out)
    return tables


def grid_min_max(real: CascadeRealization, level: int):
    """Per-word (min, max) of each grid component over closed intervals.

    Returns ((min1, max1), (min2, max2)) arrays of length base**level.
    The tables are memoized on the realization and read-only.  A level
    is derived from the nearest finer level already held when there is
    one, by folding each word's b**(finer - level) descendants (see
    _fold): a closed word interval is the union of its children's closed
    intervals, so this is exact.  Else a level at or above the chunks' top level is
    reduced chunk by chunk, from the held grid when grid_values has
    filled it or from one grid walk that holds no grid (see
    _chunked_min_max), and a coarser level is derived from the top
    level's tables.
    """
    if not 0 <= level <= real.depth:
        raise ConfigError(f"level {level} outside [0, {real.depth}]")
    cache = real._min_max
    if level in cache:
        return cache[level]
    finer = min((m for m in cache if m > level), default=None)
    if finer is None:
        finer = max(level, _chunk_shape(real.base, real.depth)[0])
        cache[finer] = _read_only(_chunked_min_max(real, finer))
    if finer != level:
        run = real.base ** (finer - level)
        cache[level] = _read_only(tuple(
            (_fold(lo, run, np.minimum), _fold(hi, run, np.maximum)) for lo, hi in cache[finer]
        ))
    return cache[level]


def _read_only(tables):
    """The ((min1, max1), (min2, max2)) tables, each array made read-only."""
    for pair in tables:
        for a in pair:
            a.flags.writeable = False
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
    f1, f2 = grid_values(real)
    digits = [str(d) for d in range(b)]
    sep = "." if b > 10 else ""
    words = (sep.join(p) for p in itertools.product(digits, repeat=level))
    ends1, ends2 = f1[step::step].tolist(), f2[step::step].tolist()
    return list(zip(words, q1.tolist(), q2.tolist(), ends1, ends2))

