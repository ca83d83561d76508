"""Seed-deterministic cascade realizations.

A realization of depth n is fixed by (model, seed, n): ``build``
validates them and holds no array.  No realization holds its grid
F_{k,n}(j * b**-n), its node weights (W1, W2) or its running products
(Q1, Q2): every value a reader asks for is regenerated from the level
streams.  What is memoized on the realization, on first read, is small
beside the grid:

- the per-level min/max tables of the grid (see grid_min_max);
- the tilted sampler's per-q tables and safe prefixes (see sample_tilted_path).

A level's values are flat arrays indexed by each word's integer value
within the level, its digits read in base b; sample_tilted_path hands
out each path as that index of its word.

Node randomness comes from counter-based Philox streams, one per
(seed, level); the draw position inside the stream is the word index.
A level's weights therefore do not depend on the depth or on traversal
order: build(model, seed, n) and build(model, seed, n+1) agree
bit-exactly on all levels up to n, and a level regenerated from its
stream is bit-identical to every other draw of it.

The grid is walked in cache-sized chunks (see grid_chunks): every
level of at most _WHOLE_LEVEL_CELLS = 2**12 nodes, and every level
above the chunks, is built whole; then the subtrees of at most
_CHUNK_CELLS = 2**16 leaves are visited in index order, each one's
slice of every larger level drawn from the level's stream, one draw
per level, multiplied out and summed, the leaves written straight into
the chunk's buffer.  The walk multiplies in the signed form of
WeightModel.sample_pairs: a sign byte per node, XOR-ed down the levels,
and moduli multiplied alone (floats for the fractional kind, one shared
array for the lognormal kind; see _next_signed).  Float products are
assembled only at the leaves, bit-identical to signed float products.
grid_chunks sums each chunk into one reused buffer, so a reader of it
(grid_min_max, grid_values and estimate.occupation_histogram) peaks at
one chunk plus what it keeps, whatever the depth.  grid_values keeps the
values at one level's points, b**m + 1 of them at level m: the whole
grid, 16 * (b**n + 1) bytes, only when asked for level n.  Every
min/max table comes from one strided fold (see _fold), which turns each
run of neighbours into one value.

export_level returns one level as columns (see LevelExport): its words'
text, built one aligned block at a time (see words.LevelWords), so the
level's b**level strings never exist at once; its products in the
signed form, taken from the same recurrence built whole (see
_signed_level); and the grid values at its words' right ends: at the
depth the running sums of those products, above it collected chunk by
chunk (see grid_values).  A renderer can format each distinct value
once (see LevelExport.distinct_ends).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, ResourceError, as_integer
from .weights import WeightModel, signed_pairs
from .words import LevelWords

DEFAULT_CELL_BUDGET = 2**26
_CHUNK_CELLS = 2**16  # leaves of the subtree a grid walk samples and sums at once
_WHOLE_LEVEL_CELLS = 2**12  # a grid walk builds every level of at most this many nodes whole
_FOLD_RUN_MAX = 32  # _fold reduces each run in one call when it is longer


def _philox_key(seed: int, level: int) -> np.ndarray:
    """The uint64 pair (seed, level); every seed in [0, 2**64) keys its own streams."""
    if not 0 <= as_integer(seed, "seed") < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
    return np.array([seed, level], dtype=np.uint64)


def level_rng(seed: int, level: int) -> np.random.Generator:
    """The counter-based stream holding the weights of one tree level."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, level)))


@dataclass
class CascadeRealization:
    """Depth-n realization: (model, seed, depth), plus whatever has been memoized.

    Two realizations are equal when their (model, seed, depth) are: the
    memos below hold values regenerated from those three and never take
    part in a comparison.  The per-level grid min/max tables are memoized
    on first use (see grid_min_max), and so are the tilted-path tables,
    per q (see sample_tilted_path).  None of the memos changes a value a
    reader sees.

    ``weights``, ``products`` and ``grid`` are empty tuples on the class,
    not fields: no realization holds those arrays, and the names are
    read only by the benchmark's tracer, which sums their arrays on
    every build until its re-base drops them.
    """

    model: WeightModel
    seed: int
    depth: int
    _min_max: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _tilted: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    weights = products = grid = ()

    @property
    def base(self) -> int:
        return self.model.base

    @property
    def cells(self) -> int:
        return self.base**self.depth


def _next_signed(q: tuple, w: tuple, b: int) -> tuple:
    """Level-m signed products from level m-1's, written over ``w``'s arrays and returned.

    ``q`` and ``w`` are in the signed form of ``WeightModel.sample_pairs``:
    each parent's sign byte is XOR-ed into its b children's, and each
    modulus is the parent's times the child's.  Float moduli stay floats;
    a modulus array shared by both components is multiplied once.  The
    products are bit-identical to the float ones, since IEEE multiplication
    is sign-symmetric: |fl(x * y)| = fl(|x| * |y|).
    """
    (ps, p1, p2), (signs, m1, m2) = q, w
    signs ^= np.repeat(ps, b)
    n1 = _times(p1, m1, b)
    # a kind that shares its moduli shares them on every level, so the parents' are equal too
    n2 = n1 if m2 is m1 else _times(p2, m2, b)
    return signs, n1, n2


def _times(p, m, b: int):
    """Child moduli ``m`` times their parents' ``p``: a float, or ``m`` multiplied in place."""
    if np.ndim(m) == 0:
        return p * m
    children = m.reshape(-1, b)
    np.multiply(p[:, None] if np.ndim(p) else p, children, out=children)
    return m


def _signed_level(model: WeightModel, seed: int, level: int) -> tuple:
    """Level ``level``'s products (Q1, Q2) in the signed form, each level above it built whole."""
    b = model.base
    q = (np.zeros(1, dtype=np.uint8), 1.0, 1.0)  # the root, in the signed form
    for m in range(1, level + 1):
        q = _next_signed(q, model.sample_pairs(level_rng(seed, m), b**m), b)
    return q


def _slice(q: tuple, lo: int, hi: int) -> tuple:
    """Nodes lo .. hi - 1 of a level in the signed form; a shared modulus is sliced once."""
    signs, m1, m2 = q
    c1 = m1[lo:hi] if np.ndim(m1) else m1
    c2 = c1 if m2 is m1 else m2[lo:hi] if np.ndim(m2) else m2
    return signs[lo:hi], c1, c2


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


def build(model: WeightModel, seed: int, depth: int) -> CascadeRealization:
    """The depth-n approximant of the cascade at a fixed seed.

    Checks the depth, the cell budget (see check_size) and the seed, and
    returns a realization that holds only the root pair: its grid values
    and tables are regenerated from the level streams by the first
    reader that asks for them (see CascadeRealization).
    """
    depth = check_size(model.base, depth)
    _philox_key(seed, 0)  # the seed check every level's stream makes
    return CascadeRealization(model, int(seed), depth)


def check_size(base: int, depth: int) -> int:
    """``depth`` as an int, once it is at least 1 and b**(depth+1) fits DEFAULT_CELL_BUDGET.

    A depth that is not an integer or below 1 raises ConfigError, one
    over the budget ResourceError.  Since b >= 2, b**(depth+1) is over
    the budget whenever depth + 1 exceeds the budget's bit length, which
    is checked first: the power of a huge depth is never computed, and
    the message never prints it (its digits could pass Python's
    int-to-str limit).
    """
    depth = as_integer(depth, "depth")
    if depth < 1:
        raise ConfigError(f"depth must be >= 1, got {depth}")
    if depth + 1 > DEFAULT_CELL_BUDGET.bit_length() or base ** (depth + 1) > DEFAULT_CELL_BUDGET:
        raise ResourceError(f"b**(depth+1) = {base}**{depth + 1} exceeds cell budget {DEFAULT_CELL_BUDGET}")
    return depth


def _check_level(real: CascadeRealization, level: int) -> int:
    """``level`` as an int, once it is an integer in [0, depth]; else ConfigError."""
    level = as_integer(level, "level")
    if not 0 <= level <= real.depth:
        raise ConfigError(f"level {level} outside [0, {real.depth}]")
    return level


def _chunk_shape(b: int, depth: int) -> tuple[int, int]:
    """(top, width): the chunks are the b**top level-top subtrees of width leaves.

    width = b**(depth - top) is the largest power of b within
    _CHUNK_CELLS, and at least b (so top < depth).
    """
    s = 1
    while s < depth and b ** (s + 1) <= _CHUNK_CELLS:
        s += 1
    return depth - s, b**s


def grid_chunks(real: CascadeRealization):
    """Yield (F1, F2) over each chunk's closed interval, in index order, in one reused buffer.

    Chunk i holds the grid values at the points i * width .. (i + 1) *
    width (see _chunk_shape): the chunks' values without their last one
    cover the grid but its right end exactly once.  The next chunk
    overwrites the buffer, so a reader keeps what it needs of each one
    before it asks for the next.  Each chunk's slice of a level below
    the whole ones is one draw from the level's stream (see
    _LevelStream); the leaf products are written into the buffer and
    summed there in place, from the previous chunk's last value on,
    bit-identical to one cumsum over a whole-level build.
    """
    model, seed, depth, b = real.model, real.seed, real.depth, real.base
    top, width = _chunk_shape(b, depth)
    whole = top
    while whole < depth and b ** (whole + 1) <= _WHOLE_LEVEL_CELLS:
        whole += 1
    q = _signed_level(model, seed, whole)
    span = b ** (whole - top)  # level-whole words under each chunk
    streams = [_LevelStream(seed, m, b**m) for m in range(whole + 1, depth + 1)]
    buffer = (np.empty(width + 1), np.empty(width + 1))
    ends = (0.0, 0.0)
    for i in range(b**top):
        c = _slice(q, i * span, (i + 1) * span)
        for k, stream in enumerate(streams, whole - top + 1):
            c = _next_signed(c, model.sample_pairs(stream, b**k), b)
        signed_pairs(*c, out=[f[1:] for f in buffer])
        for f, end in zip(buffer, ends):
            f[0] = end
            if i:  # never on the first chunk: 0.0 + -0.0 would drop a sign bit
                f[1] += end
            np.cumsum(f[1:], out=f[1:])
        ends = (buffer[0][-1], buffer[1][-1])
        yield buffer


def grid_values(real: CascadeRealization, level: int | None = None) -> tuple:
    """The grid (F1, F2) at the points j * b**-level, j = 0 .. b**level, walked afresh on every call.

    ``level`` defaults to the depth n: every grid point.  The points of a
    level at or above the chunks' top level fall every step-th point of
    each chunk (see grid_chunks), so the walk copies those out chunk by
    chunk; a coarser level's are every run-th point of the top level's.
    The result is two new arrays of b**level + 1 values that the
    realization does not keep, and the peak is those arrays plus the
    walk's arrays of one chunk's size, whatever the depth.  A level that
    is not an integer in [0, n] raises ConfigError.
    """
    b, depth = real.base, real.depth
    level = depth if level is None else _check_level(real, level)
    top, _ = _chunk_shape(b, depth)
    finer = max(level, top)
    rows, step = b ** (finer - top), b ** (depth - finer)
    grid = (np.empty(b**finer + 1), np.empty(b**finer + 1))
    for i, chunk in enumerate(grid_chunks(real)):
        for f, g in zip(chunk, grid):
            g[i * rows : (i + 1) * rows + 1] = f[::step]
    run = b ** (finer - level)
    return tuple(g[::run] for g in grid)


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
    folded (see _fold), then its right end.  The chunks come from one
    grid walk into a reused buffer (see grid_chunks), so the peak is the
    tables plus a few arrays of one chunk's size.
    """
    b = real.base
    top, _ = _chunk_shape(b, real.depth)
    rows, step = b ** (level - top), b ** (real.depth - level)
    tables = tuple((np.empty(b**level), np.empty(b**level)) for _ in range(2))
    for i, chunk in enumerate(grid_chunks(real)):
        for f, pair in zip(chunk, tables):
            for ufunc, table in zip((np.minimum, np.maximum), pair):
                out = table[i * rows : (i + 1) * rows]
                ufunc(_fold(f[:-1], step, ufunc, out), f[step::step], out=out)
    return tables


def grid_min_max(real: CascadeRealization, level: int):
    """Per-word (min, max) of each grid component over closed intervals.

    Returns ((min1, max1), (min2, max2)) arrays of length base**level;
    max - min is the oscillation O_k(w), which undershoots the limit
    process's by at most the finest cell's.  The tables are memoized on
    the realization and read-only.  A level is derived from the nearest
    finer level already held when there is one, by folding each word's
    b**(finer - level) descendants (see _fold): a closed word interval is
    the union of its children's closed intervals, so this is exact.  Else
    a level at or above the chunks' top level is reduced chunk by chunk
    from one grid walk that holds no grid (see _chunked_min_max), and a
    coarser level is derived from the top level's tables.
    """
    level = _check_level(real, level)
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


def _forgetter(real: CascadeRealization):
    """``forget(level)``: drop the memoized min/max tables finer than ``level`` that ``real`` did not hold before.

    A reader that walks its levels finest first calls it as soon as each
    level's tables exist, so that of the tables it memoized it keeps only
    those of the level it reads; ``forget(-1)`` drops every one of them.
    The tables ``real`` held when ``_forgetter`` was called stay.
    """
    cache = real._min_max
    held = set(cache)

    def forget(level: int) -> None:
        for m in [m for m in cache if m > level and m not in held]:
            del cache[m]

    return forget


def _read_only(tables):
    """The ((min1, max1), (min2, max2)) tables, each array made read-only."""
    for pair in tables:
        for a in pair:
            a.flags.writeable = False
    return tables


class _TiltedTables(tuple):
    """One q's ``(cums, totals)`` (see _tilted_tables), and ``safe``.

    ``safe`` counts the leading levels on which every parent's total is
    finite and > 0: no path can stop on them (see sample_tilted_path).
    """

    def __new__(cls):
        tables = super().__new__(cls, ([], []))
        tables.safe = 0
        return tables


def _tilted_tables(real: CascadeRealization, q: tuple[float, float], level: int) -> _TiltedTables:
    """``(cums, totals)`` of the q-tilted child weights, filled through ``level``.

    ``cums[m - 1]`` lists, for every level-m word, the cumulative sum of
    |W1|^q1 |W2|^q2 over its siblings up to itself (0 * inf counts as 1);
    ``totals[m - 1]`` lists each level-(m-1) parent's sum.  Both are the
    values a per-parent cumsum and sum of the same slice give, bit for bit.
    Each new level's moduli are drawn from its stream (see level_rng), a
    float modulus broadcast to the level's length, and ``safe`` grows
    while every new level's totals are finite and > 0.
    """
    tables = real._tilted.get(q)
    if tables is None:
        tables = real._tilted[q] = _TiltedTables()
    cums, totals = tables
    if len(cums) >= level:
        return tables
    b = real.base
    q1, q2 = q
    # whole levels, visited or not: an infinite total raises only when a path reaches it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for m in range(len(cums) + 1, level + 1):
            _, m1, m2 = real.model.sample_pairs(level_rng(real.seed, m), b**m)
            tw = np.broadcast_to(m1, b**m) ** q1 * np.broadcast_to(m2, b**m) ** q2
            tw[np.isnan(tw)] = 1.0  # 0 * inf
            tw = tw.reshape(-1, b)
            total = tw.sum(axis=1)
            if tables.safe == m - 1 and ((0.0 < total) & (total < math.inf)).all():
                tables.safe = m
            cums.append(tw.cumsum(axis=1).ravel().tolist())
            totals.append(total.tolist())
    return tables


def sample_tilted_path(
    real: CascadeRealization,
    q: tuple[float, float],
    target_depth: int,
    rng: np.random.Generator,
) -> int:
    """Draw a word digit by digit with child probabilities ~ |W1|^q1 |W2|^q2; returns its index.

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

    The levels of the memoized safe prefix hold no such parent, so their
    doubles are read in one ``rng.random(k)`` call, the same doubles in
    the same order as k single draws; from the first level with a
    degenerate parent on, each level draws its own, after the check.
    The stream is therefore left where a per-level loop leaves it, also
    after a DivergenceError.
    """
    target_depth = as_integer(target_depth, "target depth")
    if not 0 <= target_depth <= real.depth:
        raise ConfigError(f"target depth {target_depth} outside [0, {real.depth}]")
    q1, q2 = q
    if not (math.isfinite(q1) and math.isfinite(q2)):
        raise ConfigError(f"q must be finite, got {q}")
    b = real.base
    tables = _tilted_tables(real, (float(q1), float(q2)), target_depth)
    cums, totals = tables
    safe = min(tables.safe, target_depth)
    draws = rng.random(safe).tolist()
    random, bisect_right = rng.random, bisect.bisect_right
    idx = 0
    for m in range(target_depth):
        total = totals[m][idx]
        if not 0.0 < total < math.inf:
            raise DivergenceError(f"tilted child weights degenerate at level {m + 1}")
        lo = idx * b
        u = draws[m] if m < safe else random()
        idx = min(bisect_right(cums[m], u * total, lo, lo + b), lo + b - 1)
    return idx


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct values of ``keys``, sorted in place.

    np.unique gives the same values, but from numpy 2.3 on it goes
    through a hash table first, which is many times slower on these keys.
    """
    keys.sort()
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return keys[new]


class _Positions:
    """Each row's position among a column's distinct bit patterns, read a slice of rows at a time."""

    def __init__(self, keys: np.ndarray, bits: np.ndarray):
        self._keys, self._bits = keys, bits

    def __getitem__(self, rows: slice) -> np.ndarray:
        return np.searchsorted(self._keys, self._bits[rows])


@dataclass(frozen=True, eq=False)
class LevelExport:
    """One level's export as columns, its arrays read-only; ``len`` gives its number of rows.

    ``words`` holds the words' text, built one aligned block of
    ``words.block`` rows at a time (see words.LevelWords);
    ``signs`` and ``moduli`` the level's products (Q1, Q2) in the signed
    form of ``WeightModel.sample_pairs`` (a modulus is one float for the
    fractional kind); ``ends`` the grid values (F1, F2) at each word's
    right end.  Row j is (word, Q1, Q2, F1, F2) read at j in each column.
    """

    words: LevelWords
    signs: np.ndarray
    moduli: tuple
    ends: tuple

    def __post_init__(self):
        for a in (self.signs, *self.moduli, *self.ends):
            if np.ndim(a):
                a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.words)

    def products(self) -> tuple[np.ndarray, np.ndarray]:
        """(Q1, Q2) as float arrays, bit-identical to the signed form."""
        return signed_pairs(self.signs, *self.moduli)

    def distinct_ends(self) -> list[tuple]:
        """(values, positions) of each F column: its distinct values, and each row's position among them.

        The values are one per bit pattern, so 0.0 and -0.0 are two, in
        the order of their patterns; ``positions[lo:hi]`` gives rows lo ..
        hi - 1's positions, so that ``values[positions[lo:hi]]`` is the
        column's slice bit for bit.  The column is sorted once, and each
        slice is looked up in the sorted patterns.
        """
        distinct = []
        for f in self.ends:
            bits = f.view(np.uint64)
            keys = _distinct(bits.copy())
            distinct.append((keys.view(np.float64), _Positions(keys, bits)))
        return distinct


def export_level(real: CascadeRealization, level: int) -> LevelExport:
    """Rows (word, Q1, Q2, F1 endpoint, F2 endpoint) at one level, as columns.

    Rows come in word-index order; a word is written as
    ``words.word_from_index`` writes it (digits without separators, or
    dot-separated for b > 10), and its
    endpoint is the grid value at its interval's right end.  The words
    are built a block at a time (see words.LevelWords), so no list of
    b**level strings is made.  The level's products are built whole
    from the level streams (see _signed_level), bit-identical to the ones
    the grid walk multiplies.  The endpoints are the level's grid values
    but the first.  At the depth n they are the running sums of those
    products, one cumsum each, bit-identical to the chunked sums of the
    grid walk (see grid_chunks), so every level is drawn once; above it
    they are collected from one grid walk chunk by chunk (see
    grid_values).  Nothing is kept on ``real``.
    """
    level = _check_level(real, level)
    signs, m1, m2 = _signed_level(real.model, real.seed, level)
    if level == real.depth:
        ends = tuple(np.cumsum(w, out=w) for w in signed_pairs(signs, m1, m2))
    else:
        ends = tuple(f[1:] for f in grid_values(real, level))
    return LevelExport(LevelWords(real.base, level), signs, (m1, m2), ends)
