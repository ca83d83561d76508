"""Empirical estimators confronting realizations with the predictions.

Everything here is a numerical surrogate: Hausdorff dimensions are
estimated by box counting (slope of log(count) against log(1/scale)),
Holder exponents and partition functions by least-squares slopes of
b-adic oscillation statistics across levels.  All estimators are
read-only over realizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cascade
from .cascade import CascadeRealization
from .errors import (
    ConfigError,
    DegenerateRangeError,
    DivergenceError,
    ZeroOscillationError,
    as_integer,
)
from .weights import Fractional

IMAGE_EXTRA_LEVELS = 4  # refinement below the test-set level
COARSE_SCALES_DROPPED = 2
MIN_FIT_POINTS = 4
_BOX_BLOCK = 2**12  # boxes that _square_counts expands into their squares at once


@dataclass(frozen=True)
class TestSet:
    """A self-similar Cantor-type subset of [0, 1] with known dimension.

    Generations act on blocks of ``block`` base-b digits, so a base-2
    cascade can carry e.g. a base-4 Cantor set (block = 2).  The set has
    Hausdorff = packing dimension log(m) / (block * log(b)) with m kept
    block-digits per generation, and positive Hausdorff measure at that
    exponent (self-similar, open set condition).
    """

    base: int
    block: int
    keep_digits: tuple[int, ...]
    generations: int

    def __post_init__(self):
        for name in ("base", "block", "generations"):
            object.__setattr__(self, name, as_integer(getattr(self, name), f"test-set {name}"))
        digits = sorted(as_integer(d, "keep digit") for d in self.keep_digits)
        if self.base < 2:
            raise ConfigError(f"base must be >= 2, got {self.base}")
        if self.block < 1 or self.generations < 0:
            raise ConfigError(f"test set needs block >= 1 and generations >= 0, got block {self.block}, "
                              f"generations {self.generations}")
        if self.block >= 63 / math.log2(self.base):
            raise ConfigError(f"block {self.block} too large: base**block must stay below 2**63")
        big = self.base**self.block
        if not digits:
            raise ConfigError("keep_digits must be nonempty")
        if len(set(digits)) != len(digits):
            raise ConfigError("keep_digits must be distinct")
        if any(not 0 <= d < big for d in digits):
            raise ConfigError(f"keep digit out of range [0, {big})")
        object.__setattr__(self, "keep_digits", tuple(digits))

    @property
    def word_level(self) -> int:
        """Depth of the surviving words in base-b digits."""
        return self.block * self.generations

    @property
    def dimension(self) -> float:
        return math.log(len(self.keep_digits)) / (self.block * math.log(self.base))

    def word_indices(self) -> np.ndarray:
        """Integer indices of the surviving words at ``word_level``."""
        big = self.base**self.block
        keep = np.array(self.keep_digits, dtype=np.int64)
        idx = np.zeros(1, dtype=np.int64)
        for _ in range(self.generations):
            idx = (idx[:, None] * big + keep[None, :]).ravel()
        return idx


def cantor_set(base: int, keep_digits, generations: int, block: int = 1) -> TestSet:
    return TestSet(base, block, tuple(keep_digits), generations)


@dataclass(frozen=True)
class DimensionEstimate:
    """Least-squares slope estimate from a log-log scaling plot."""

    value: float
    stderr: float
    scale_range: tuple[int, int]
    r_squared: float
    counts_per_scale: tuple = ()
    empty: bool = False


def fit_loglog(xs, ys) -> tuple[float, float, float]:
    """OLS slope of ys against xs with its standard error and R^2."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = len(xs)
    if n < 2:
        raise DegenerateRangeError(f"need >= 2 points to fit, got {n}")
    xm, ym = xs.mean(), ys.mean()
    sxx = ((xs - xm) ** 2).sum()
    if sxx == 0.0:
        raise DegenerateRangeError("degenerate abscissa in regression")
    slope = ((xs - xm) * (ys - ym)).sum() / sxx
    resid = ys - (ym + slope * (xs - xm))
    ss_res = (resid**2).sum()
    ss_tot = ((ys - ym) ** 2).sum()
    stderr = math.sqrt(ss_res / (n - 2) / sxx) if n > 2 else 0.0
    # an exactly-linear (or exactly-flat) relation is a perfect fit even
    # when ss_tot is pure rounding noise
    r2 = 1.0 if ss_res <= 1e-20 or ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(stderr), float(r2)


# ---------------------------------------------------------------------------
# image box counting


def _bounding_boxes(real: CascadeRealization, ts: TestSet):
    """Per-interval bounding boxes of F over the surviving words refined IMAGE_EXTRA_LEVELS levels."""
    if ts.base != real.base:
        raise ConfigError(f"test set base {ts.base} != model base {real.base}")
    level = real.depth - IMAGE_EXTRA_LEVELS
    if ts.word_level > level:
        raise ConfigError(
            f"test set level {ts.word_level} exceeds depth - {IMAGE_EXTRA_LEVELS}"
        )
    refine = real.base ** (level - ts.word_level)
    idx = (ts.word_indices()[:, None] * refine + np.arange(refine)[None, :]).ravel()
    (min1, max1), (min2, max2) = cascade.grid_min_max(real, level)
    return min1[idx], max1[idx], min2[idx], max2[idx]


def _square_counts(x0, x1, y0, y1, j_lo: int, j_hi: int) -> list[int]:
    """Distinct dyadic squares of side 2**-j meeting any closed box, for j = j_lo .. j_hi.

    The boxes are expanded into their squares once, at j_hi, in blocks
    of at most _BOX_BLOCK boxes; each block's distinct keys are kept, and
    the union of the blocks' keys is the set of squares, so the expansion
    never exists whole.  Each coarser scale halves the distinct integer
    indices of the next finer one with ``>> 1`` (exact: floor(floor(2x) /
    2) = floor(x), and the arithmetic shift floors negative indices too),
    so a box's coarse squares are the parents of its fine squares.  The
    keys are re-encoded at every scale with that scale's own offsets and
    width: an offset subtracted before halving would change the parents
    when it is odd.
    """
    if j_hi < j_lo:
        return []
    scale = float(2**j_hi)
    # the floor of a min is the min of the floors: scaling by 2**j_hi is exact and monotone
    ox, oy, top = (math.floor(v * scale) for v in (x0.min(), y0.min(), y1.max()))
    width = top - oy + 1
    blocks = []
    for lo in range(0, len(x0), _BOX_BLOCK):
        ix0, ix1, iy0, iy1 = (
            np.floor(v[lo : lo + _BOX_BLOCK] * scale).astype(np.int64) for v in (x0, x1, y0, y1)
        )
        # expand every box into its nx * ny squares, row-major within the box
        ny = iy1 - iy0 + 1
        per_box = (ix1 - ix0 + 1) * ny
        box = np.repeat(np.arange(len(per_box)), per_box)
        first = np.cumsum(per_box) - per_box
        dx, dy = np.divmod(np.arange(len(box)) - first[box], ny[box])
        corner = (ix0 - ox) * width + (iy0 - oy)
        blocks.append(cascade._distinct(corner[box] + dx * width + dy))
    keys = cascade._distinct(np.concatenate(blocks))
    counts = [len(keys)]
    for _ in range(j_hi - j_lo):
        ix, iy = np.divmod(keys, width)
        ix += ox
        iy += oy
        ix >>= 1
        iy >>= 1
        ox, oy, top = ox >> 1, oy >> 1, top >> 1
        width = top - oy + 1
        ix -= ox
        iy -= oy
        ix *= width
        ix += iy
        keys = cascade._distinct(ix)
        counts.append(len(keys))
    return counts[::-1]


def image_box_dim(real: CascadeRealization, ts: TestSet) -> DimensionEstimate:
    """Box-counting dimension of F(K) for a Cantor-type K.

    Covers the image by per-interval bounding boxes (conservative: the
    over-count shifts the intercept, not the slope), counts occupied
    dyadic squares at scales 2**-j for j = 2 .. j_max, where j_max is
    the finest scale the covering boxes can still resolve, and regresses
    after dropping the two coarsest scales (and up to two of the finest,
    when available, where box-vs-square straddling biases the count).

    The whole window is counted from one expansion: each box is split
    into its squares once, at j_max, and each coarser scale's squares are
    the distinct parents (indices halved by ``>> 1``) of the next finer
    scale's (see _square_counts).
    """
    x0, x1, y0, y1 = _bounding_boxes(real, ts)
    # resolvability guard: never count below the size of the covering
    # boxes themselves, or the regression sees the boxes (dimension-1
    # interval pieces), not the set.  A high quantile (not the max) sets
    # the guard because heavy-tailed cell oscillations otherwise collapse
    # the scale window to nothing on lognormal-factor models.
    finest = float(np.quantile(np.maximum(x1 - x0, y1 - y0), 0.9))
    if finest <= 0.0:
        raise ZeroOscillationError("degenerate realization: zero finest-cell size")
    j_max = int(math.floor(-math.log2(finest))) if finest < 1.0 else 2
    j_max = min(j_max, 26)
    js = list(range(2, j_max + 1))
    counts = _square_counts(x0, x1, y0, y1, 2, j_max)
    fit_js = js[COARSE_SCALES_DROPPED:]
    fit_counts = counts[COARSE_SCALES_DROPPED:]
    # near j_max each box still straddles up to 2 squares per axis, which
    # inflates the slope; shed up to 2 of the finest scales when the fit
    # window can spare them
    spare = len(fit_js) - MIN_FIT_POINTS
    trim = min(2, max(spare, 0))
    if trim:
        fit_js = fit_js[:-trim]
        fit_counts = fit_counts[:-trim]
    if len(fit_js) < MIN_FIT_POINTS:
        raise DegenerateRangeError(
            f"only {len(fit_js)} usable scales (need {MIN_FIT_POINTS})"
        )
    if max(fit_counts) == 1:  # single occupied square at all scales: a point
        return DimensionEstimate(
            0.0, 0.0, (fit_js[0], fit_js[-1]), 1.0, tuple(zip(js, counts))
        )
    slope, stderr, r2 = fit_loglog(fit_js, np.log2(fit_counts))
    return DimensionEstimate(
        slope, stderr, (fit_js[0], fit_js[-1]), r2, tuple(zip(js, counts))
    )


# ---------------------------------------------------------------------------
# partition function / Holder exponents


def _fit_window(real: CascadeRealization, lo, hi) -> tuple[int, int]:
    """The window's levels as ints (see errors.as_integer), once 1 <= lo < hi <= depth: a slope needs two levels."""
    lo, hi = (as_integer(m, "level") for m in (lo, hi))
    if not 1 <= lo < hi <= real.depth:
        raise ConfigError(f"bad level window [{lo}, {hi}]: a fit needs two levels in [1, {real.depth}]")
    return lo, hi


def _component(k) -> int:
    """The component k as an int, once it is 1 or 2 (see errors.as_integer)."""
    k = as_integer(k, "component k")
    if k not in (1, 2):
        raise ConfigError(f"component k must be 1 or 2, got {k}")
    return k


def partition_function(
    real: CascadeRealization, qs, level_lo: int, level_hi: int
) -> list[DimensionEstimate]:
    """Scaling exponent of S_m(q) = sum_w O1(w)**q1 * O2(w)**q2 across levels, one estimate per q in ``qs``.

    The fitted slope of log_b S_m against m is expected to equal
    1 - phi(q) (counting factor b**m times the moment decay b**-m*phi).
    A q that is not finite anywhere in ``qs`` raises ConfigError, naming
    the first such q, before the window is checked.  The window needs two
    levels, 1 <= level_lo < level_hi <= depth; a sum that overflows a
    double raises DivergenceError.  Of several failing q's, the first in
    ``qs`` is raised, at its coarsest failing level: the error that one
    call per q raises.

    The window is walked once, finest level first.  At each level every
    q reads the level's min/max tables (see cascade.grid_min_max) and
    forms its sum (see _partition_sum).  Each level's tables derive from
    the next finer level's, and once they exist the walk forgets the
    finer tables that it memoized itself (see cascade._forgetter); at
    the end it forgets its coarsest too.  Tables memoized before the
    call stay.  Beyond those, the peak is the finest level's tables plus
    the larger of one level's oscillations and the next coarser level's
    tables: 1.5 times the finest level's tables.  (A window that ends
    above the chunks' top level first memoizes the top level's tables,
    see cascade.grid_min_max: those are then the finest.)
    """
    qs = list(qs)
    for q in qs:
        if not (math.isfinite(q[0]) and math.isfinite(q[1])):
            raise ConfigError(f"q must be finite, got {q}")
    level_lo, level_hi = _fit_window(real, level_lo, level_hi)
    ms = list(range(level_lo, level_hi + 1))
    sums = [{} for _ in qs]
    forget = cascade._forgetter(real)
    for m in reversed(ms):  # finest first, so each coarser table derives from the memo
        for i, (q1, q2) in enumerate(qs):
            tables = cascade.grid_min_max(real, m)
            if i == 0:
                forget(m)
            sums[i][m] = _partition_sum(tables, q1, q2)
    forget(-1)
    return [_partition_fit(real.base, q, ms, s) for q, s in zip(qs, sums)]


def _partition_sum(tables, q1: float, q2: float) -> float | None:
    """S_m(q) from one level's min/max tables, or None for a zero oscillation under a negative q.

    The oscillations O_k = max - min are fresh arrays, so the powers and
    their product are formed in place, with the bits of O1**q1 * O2**q2,
    and freed on return.
    """
    (min1, max1), (min2, max2) = tables
    o1, o2 = max1 - min1, max2 - min2
    if ((q1 < 0) and (o1 == 0.0).any()) or ((q2 < 0) and (o2 == 0.0).any()):
        return None
    if (q1, q2) == (0.0, 0.0):
        return float(len(o1))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        o1 **= q1
        o2 **= q2
        o1 *= o2
    return float(o1.sum())


def _partition_fit(base: int, q, ms: list[int], sums: dict) -> DimensionEstimate:
    """The fit of log_b S_m(q) against m, from each level's sum; the coarsest failing level is the one reported."""
    logs = []
    for m in ms:
        s = sums[m]
        if s is None:
            raise ZeroOscillationError(f"zero oscillation at level {m} with negative q")
        if not s < math.inf:  # +inf, or NaN from an overflowed power times an underflowed one
            raise DivergenceError(f"partition sum at level {m} overflows at q={q}")
        if s <= 0.0:
            raise ZeroOscillationError(f"partition sum vanished at level {m}")
        logs.append(math.log(s) / math.log(base))
    slope, stderr, r2 = fit_loglog(ms, logs)
    return DimensionEstimate(slope, stderr, (ms[0], ms[-1]), r2, tuple(zip(ms, logs)))


def holder_exponents(
    real: CascadeRealization,
    word_indices,
    level_lo: int,
    level_hi: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Estimated Holder pair for each depth-``level_hi`` word index.

    The estimate for component k is minus the least-squares slope of
    log_b O_k(I_m(x)) against m over the window, O_k = max - min of the
    min/max tables (see cascade.grid_min_max) at each path's prefix.

    The window is walked finest level first, each level's tables derived
    from the next finer level's, and as soon as a level's tables exist
    the walk forgets the finer tables that it memoized itself (see
    cascade._forgetter); at the end it forgets the rest of its own.
    Tables memoized before the call stay.  Only the paths' rows are
    subtracted, so beyond those tables and the finest level's own walk
    the call holds at most the finest level's tables and the next
    coarser level's: 1.5 times the finest level's tables, plus a few
    arrays per path.
    """
    level_lo, level_hi = _fit_window(real, level_lo, level_hi)
    idx = np.asarray(word_indices)
    if idx.size and idx.dtype.kind not in "iu":  # floats, NaN, or ints beyond 64 bits
        raise ConfigError(f"word indices must be integers that fit in int64, got dtype {idx.dtype}")
    if ((idx < 0) | (idx >= real.base**level_hi)).any():
        raise ConfigError(f"word index outside [0, {real.base**level_hi}) at level {level_hi}")
    idx = idx.astype(np.int64)
    ms = np.arange(level_lo, level_hi + 1)
    logs = np.empty((2, len(ms), len(idx)))  # log_b O_k per component, level and path
    zero = np.zeros(len(ms), dtype=bool)
    lb = math.log(real.base)
    forget = cascade._forgetter(real)
    for row in reversed(range(len(ms))):  # finest first, so each coarser table derives from the memo
        tables = cascade.grid_min_max(real, ms[row])
        forget(ms[row])
        prefix = idx // real.base ** (level_hi - ms[row])
        osc = [hi[prefix] - lo[prefix] for lo, hi in tables]
        zero[row] = any((o == 0.0).any() for o in osc)
        if not zero[row]:
            logs[:, row] = np.log(osc) / lb
    forget(-1)
    if zero.any():  # the coarsest failing level is the one reported
        raise ZeroOscillationError(f"zero oscillation at level {ms[zero.argmax()]}")
    mc = ms - ms.mean()
    h1, h2 = -(mc[:, None] * (logs - logs.mean(axis=1, keepdims=True))).sum(axis=1) / (mc**2).sum()
    return h1, h2


# ---------------------------------------------------------------------------
# level sets and occupation measure


def level_set(
    real: CascadeRealization,
    k: int,
    y: float,
    level: int,
    fit_lo: int = 2,
) -> tuple[np.ndarray, DimensionEstimate]:
    """The ascending int64 word indices of the crossing intervals of {F_k = y} at one level, and a dimension fit.

    An interval w counts as crossing when the refined grid of F_k over
    closed I_w brackets y (min <= y <= max); endpoint sign changes would
    miss double crossings.  The dimension is the slope of log_b(count)
    against the level over [fit_lo, level], which needs two levels:
    1 <= fit_lo < level <= depth, else ConfigError.  An empty level set is a
    valid outcome, reported as dimension 0 with the ``empty`` flag; a y
    that is not finite (NaN and +-inf bracket nothing) raises ConfigError.

    The window is walked once, finest level first: each level's min/max
    tables are read once (see cascade.grid_min_max), the finest level's
    crossings are the indices and every level's count is a point of the
    fit.  Each coarser table derives from the memo, and every table stays
    memoized for the next y.  A coarser closed word contains the crossing
    words below it, so no count is 0 unless the finest is.
    """
    k = _component(k)
    if not math.isfinite(y):
        raise ConfigError(f"level y must be finite, got {y}")
    fit_lo, level = _fit_window(real, fit_lo, level)
    ms = list(range(fit_lo, level + 1))
    counts = []
    for m in reversed(ms):  # finest first, so each coarser table derives from the memo
        lo, hi = cascade.grid_min_max(real, m)[k - 1]
        crossing = (lo <= y) & (y <= hi)
        if m == level:
            hits = np.nonzero(crossing)[0]
        counts.insert(0, int(crossing.sum()))
    scales = tuple(zip(ms, counts))
    if len(hits) == 0:
        return hits, DimensionEstimate(0.0, 0.0, (fit_lo, level), 1.0, scales, empty=True)
    slope, stderr, r2 = fit_loglog(ms, np.log(counts) / math.log(real.base))
    return hits, DimensionEstimate(slope, stderr, (fit_lo, level), r2, scales)


def occupation_histogram(
    real: CascadeRealization, k: int, bin_count: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fraction of depth-n grid cells whose F_k value falls in each bin.

    Returns (bin_edges, masses) with masses summing to 1.  Used to pick
    'Lebesgue almost every' levels y for level-set experiments.

    The bins span the level-0 min/max table of F_k: the closed interval
    [0, 1] holds every grid point, so this is the grid's range, and it
    derives from any finer table already memoized.  Then one grid walk
    bins each chunk's cells (see cascade.grid_chunks) and adds up the
    counts, so no grid is held.  np.histogram bins each value from the
    value and the fixed (range, bins) alone, so the edges and masses are
    those of one histogram over the whole grid, bit for bit.
    """
    bin_count = as_integer(bin_count, "bin_count")
    if bin_count < 8:
        raise ConfigError(f"bin_count must be >= 8, got {bin_count}")
    k = _component(k)
    (lo,), (hi,) = cascade.grid_min_max(real, 0)[k - 1]
    lo, hi = float(lo), float(hi)
    if hi == lo:
        hi = lo + 1e-12
    counts = np.zeros(bin_count, dtype=np.int64)
    for chunk in cascade.grid_chunks(real):
        part, edges = np.histogram(chunk[k - 1][:-1], bins=bin_count, range=(lo, hi))
        counts += part
    return edges, counts / real.cells


def sample_occupation_levels(
    edges: np.ndarray, masses: np.ndarray, rng: np.random.Generator, count: int
) -> np.ndarray:
    """Draw y values from an occupation histogram (uniform within bins).

    The masses must be finite and non-negative with a positive sum, and
    ``count`` a non-negative integer; else ConfigError.
    """
    count = as_integer(count, "count")
    if count < 0:
        raise ConfigError(f"count must be >= 0, got {count}")
    masses = np.asarray(masses, dtype=float)
    if not (np.isfinite(masses).all() and (masses >= 0).all() and masses.sum() > 0):
        raise ConfigError("occupation masses must be finite and non-negative with a positive sum")
    cum = np.cumsum(masses)
    cum /= cum[-1]
    bins = np.searchsorted(cum, rng.random(count), side="right")
    bins = np.minimum(bins, len(masses) - 1)
    u = rng.random(count)
    return edges[bins] + u * (edges[bins + 1] - edges[bins])


# ---------------------------------------------------------------------------
# uniform dimension sweep


@dataclass(frozen=True)
class SweepRow:
    xi0: float
    estimate: DimensionEstimate
    prediction: float


def uniform_sweep(real: CascadeRealization, test_sets) -> list[SweepRow]:
    """Image dimension of several test sets on one fixed realization.

    Scope: the uniform dimension law dim F(K) = dim K / alpha holds for
    the fractional kind with equal exponents and P(W1 = W2) < 1 only.
    """
    model = real.model
    if not isinstance(model, Fractional) or model.alpha1 != model.alpha2:
        raise ConfigError("uniform sweep needs a Fractional model with alpha1 == alpha2")
    if model.identical_weights():
        raise ConfigError("uniform sweep needs P(W1 = W2) < 1")
    alpha = model.alpha1
    rows = []
    for ts in test_sets:
        est = image_box_dim(real, ts)
        rows.append(SweepRow(ts.dimension, est, ts.dimension / alpha))
    return rows
