import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cascadelab import cascade, estimate
from cascadelab.errors import ConfigError, DivergenceError, ResourceError
from cascadelab.weights import DiscreteTable, Fractional, LognormalSigned, Mixed, SignJoint
from cascadelab.words import Word, parse_word

IDENTITY = Fractional(2, 1.0, 1.0, SignJoint(1.0, 0.0, 0.0, 0.0))
FRAC = Fractional(2, 0.75, 0.75)
TABLE = DiscreteTable(2, (((0.3, 0.7), 0.5), ((0.7, 0.3), 0.5)))


def test_identity_cascade_grid_is_identity():
    real = cascade.build(IDENTITY, seed=5, depth=10)
    expected = np.arange(2**10 + 1) / 2**10
    assert np.allclose(real.grid[0], expected, atol=1e-14)
    assert np.allclose(real.grid[1], expected, atol=1e-14)


def test_single_atom_table_gives_identity_grid():
    m = DiscreteTable(2, (((0.5, 0.5), 1.0),))
    real = cascade.build(m, seed=1, depth=8)
    assert np.allclose(real.grid[0], np.arange(257) / 256, atol=1e-14)


def test_build_is_deterministic():
    a = cascade.build(FRAC, seed=123, depth=10)
    b = cascade.build(FRAC, seed=123, depth=10)
    assert np.array_equal(a.grid[0], b.grid[0])
    assert np.array_equal(a.grid[1], b.grid[1])
    c = cascade.build(FRAC, seed=124, depth=10)
    assert not np.array_equal(a.grid[0], c.grid[0])


def test_prefix_stability_across_depths():
    a = cascade.build(FRAC, seed=9, depth=8)
    b = cascade.build(FRAC, seed=9, depth=11)
    for m in range(9):
        q_a = [row[:3] for row in cascade.export_level(a, m)]
        assert q_a == [row[:3] for row in cascade.export_level(b, m)]


def test_root_partial_product():
    real = cascade.build(FRAC, seed=0, depth=6)
    assert cascade.partial_product(real, Word(2)) == (1.0, 1.0)


def test_fractional_partial_product_modulus():
    real = cascade.build(FRAC, seed=0, depth=8)
    for w in (parse_word("0", 2), parse_word("101", 2), parse_word("11011", 2)):
        q1, q2 = cascade.partial_product(real, w)
        assert abs(q1) == pytest.approx(2 ** (-0.75 * len(w)), rel=1e-12)
        assert abs(q2) == pytest.approx(2 ** (-0.75 * len(w)), rel=1e-12)


def test_partial_product_recomputable_from_level_streams():
    # oracle: regenerate each level's weights independently and multiply
    real = cascade.build(TABLE, seed=77, depth=9)
    w = parse_word("011010", 2)
    q1, q2 = 1.0, 1.0
    for i in range(1, len(w) + 1):
        lvl1, lvl2 = cascade.level_weights(TABLE, 77, i)
        idx = w.prefix(i).index
        q1 *= lvl1[idx]
        q2 *= lvl2[idx]
    got = cascade.partial_product(real, w)
    assert got[0] == pytest.approx(q1, rel=1e-14)
    assert got[1] == pytest.approx(q2, rel=1e-14)


def test_multiplicativity():
    real = cascade.build(FRAC, seed=3, depth=8)
    w = parse_word("0110", 2)
    qp = cascade.partial_product(real, w)
    for j in (0, 1):
        child = w.child(j)
        qc = cascade.partial_product(real, child)
        nw = cascade.node_weight(real, child)
        assert qc[0] == pytest.approx(qp[0] * nw[0], rel=1e-14)
        assert qc[1] == pytest.approx(qp[1] * nw[1], rel=1e-14)


def test_increment_at_full_depth_equals_product():
    real = cascade.build(FRAC, seed=11, depth=9)
    w = parse_word("010011011", 2)
    assert cascade.increment(real, w) == pytest.approx(
        cascade.partial_product(real, w), rel=1e-10
    )


def test_increment_of_empty_word_is_total_mass():
    real = cascade.build(FRAC, seed=11, depth=9)
    d1, d2 = cascade.increment(real, Word(2))
    assert d1 == pytest.approx(float(real.grid[0][-1]), rel=1e-14)
    assert d2 == pytest.approx(float(real.grid[1][-1]), rel=1e-14)


def test_increments_telescope():
    real = cascade.build(TABLE, seed=21, depth=10)
    for w in (parse_word("01", 2), parse_word("1101", 2)):
        parent = cascade.increment(real, w)
        kids = [cascade.increment(real, w.child(j)) for j in range(2)]
        for k in range(2):
            assert parent[k] == pytest.approx(sum(c[k] for c in kids), abs=1e-10)


def test_total_mass_is_one_in_mean():
    # E F_{k,n}(1) = 1 by (A0) and independence
    n_seeds = 400
    totals = np.empty((n_seeds, 2))
    for s in range(n_seeds):
        real = cascade.build(FRAC, seed=s, depth=8)
        totals[s] = (real.grid[0][-1], real.grid[1][-1])
    for k in range(2):
        err = abs(totals[:, k].mean() - 1.0)
        assert err <= 4.0 * totals[:, k].std() / math.sqrt(n_seeds)


def test_refinement_is_a_martingale_step():
    # mean over seeds of F_{k,n+1}(t) - F_{k,n}(t) at b-adic t is ~ 0
    t_idx_coarse, n = 1, 7  # t = 0.5
    n_seeds = 400
    diffs = np.empty(n_seeds)
    for s in range(n_seeds):
        a = cascade.build(FRAC, seed=s, depth=n)
        b = cascade.build(FRAC, seed=s, depth=n + 1)
        f_n = a.grid[0][t_idx_coarse * 2 ** (n - 1)]
        f_n1 = b.grid[0][t_idx_coarse * 2**n]
        diffs[s] = f_n1 - f_n
    assert abs(diffs.mean()) <= 4.0 * diffs.std() / math.sqrt(n_seeds)


# ---------------------------------------------------------------------------
# oscillations


def test_identity_oscillations():
    real = cascade.build(IDENTITY, seed=2, depth=10)
    for m in (0, 3, 7):
        table = cascade.oscillations(real, m)
        assert np.allclose(table.o1, 2.0**-m, atol=1e-14)
        assert np.allclose(table.o2, 2.0**-m, atol=1e-14)


def test_monotone_model_oscillation_equals_increment():
    m = DiscreteTable(2, (((0.3, 0.6), 0.5), ((0.7, 0.4), 0.5)))  # positive weights
    real = cascade.build(m, seed=4, depth=10)
    table = cascade.oscillations(real, 4)
    # monotone grid: oscillation over a closed interval = endpoint increment
    step = 2 ** (10 - 4)
    inc1 = real.grid[0][step::step] - real.grid[0][:-1:step]
    assert np.allclose(table.o1, inc1, atol=1e-14)


def test_oscillation_dominates_children_and_increment():
    real = cascade.build(FRAC, seed=8, depth=12)
    parent = cascade.oscillations(real, 5)
    child = cascade.oscillations(real, 6)
    assert np.all(parent.o1 >= np.maximum(child.o1[0::2], child.o1[1::2]) - 1e-15)
    step = 2**7
    inc = np.abs(real.grid[0][step::step] - real.grid[0][:-1:step])
    assert np.all(parent.o1 >= inc - 1e-15)


def test_rescaled_oscillations_equidistributed_across_levels():
    # self-similarity: O/|Q| at different levels has the same law;
    # two-sample KS across disjoint seed sets at the 1% level
    def rescaled(seed, level, n=13):
        real = cascade.build(FRAC, seed=seed, depth=n)
        o = cascade.oscillations(real, level).o1[0]
        q = abs(cascade.partial_product(real, parse_word("0" * level, 2))[0])
        return o / q

    a = np.sort([rescaled(s, 3) for s in range(80)])
    b = np.sort([rescaled(1000 + s, 5) for s in range(80)])
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    d = np.abs(cdf_a - cdf_b).max()
    d_crit = 1.628 * math.sqrt(2.0 / 80.0)  # alpha = 1%
    assert d < d_crit


def test_oscillation_moment_scaling_table_model():
    # ensemble mean of O1^q1 O2^q2 over level-m words decays like b^(-m phi(q))
    q1, q2 = 1.0, 1.0
    n, seeds = 13, 24
    levels = np.arange(2, 10)
    acc = np.zeros(len(levels))
    for s in range(seeds):
        real = cascade.build(TABLE, seed=s, depth=n)
        for i, m in enumerate(levels):
            t = cascade.oscillations(real, int(m))
            acc[i] += (t.o1**q1 * t.o2**q2).mean()
    logs = np.log2(acc / seeds)
    slope = np.polyfit(levels, logs, 1)[0]
    assert slope == pytest.approx(-TABLE.phi(q1, q2), abs=0.05)


def test_moment_of_total_oscillation_stable_in_depth():
    # (9): E(X_k^q) < infinity when E|W_k|^q < 1/b; the finite-depth
    # surrogate must not grow with depth
    q = 1.6  # E|W|^1.6 = 2^(-1.2) < 1/2 for alpha = 0.75
    means = []
    for n in (7, 10):
        vals = [
            cascade.oscillations(cascade.build(FRAC, seed=s, depth=n), 0).o1[0] ** q
            for s in range(150)
        ]
        means.append(np.mean(vals))
    assert means[1] <= means[0] * 1.25


# ---------------------------------------------------------------------------
# tilted path sampling


def test_tilted_path_zero_tilt_is_uniform():
    real = cascade.build(TABLE, seed=6, depth=10)
    rng = np.random.default_rng(0)
    draws = 10_000
    ones = 0
    for _ in range(draws):
        w = cascade.sample_tilted_path(real, (0.0, 0.0), 1, rng)
        ones += w.digits[0]
    p = ones / draws
    sigma = math.sqrt(0.25 / draws)
    assert abs(p - 0.5) <= 4.0 * sigma


def test_tilted_path_fractional_is_uniform_for_any_q():
    real = cascade.build(FRAC, seed=6, depth=12)
    rng = np.random.default_rng(1)
    counts = np.zeros(2)
    for _ in range(4000):
        w = cascade.sample_tilted_path(real, (1.3, 0.4), 3, rng)
        counts[w.digits[2]] += 1
    p = counts[1] / counts.sum()
    assert abs(p - 0.5) <= 4.0 * math.sqrt(0.25 / counts.sum())


def test_tilted_path_matches_per_node_enumeration():
    model = DiscreteTable(2, (((0.2, 0.5), 0.3), ((0.6, 0.4), 0.5), ((0.65, 0.65), 0.2)))
    real = cascade.build(model, seed=13, depth=6)
    q1, q2 = 1.0, 2.0
    w1, w2 = eager_build(model, 13, 6)[0][0]
    tw = np.abs(w1) ** q1 * np.abs(w2) ** q2
    p1 = tw[1] / tw.sum()  # brute-force root child law
    rng = np.random.default_rng(3)
    draws = 20_000
    ones = sum(
        cascade.sample_tilted_path(real, (q1, q2), 1, rng).digits[0] for _ in range(draws)
    )
    sigma = math.sqrt(p1 * (1 - p1) / draws)
    assert abs(ones / draws - p1) <= 4.0 * sigma


# ---------------------------------------------------------------------------
# guards and IO


def test_depth_guards():
    with pytest.raises(ConfigError):
        cascade.build(FRAC, seed=0, depth=0)
    with pytest.raises(ResourceError):
        cascade.build(FRAC, seed=0, depth=30)


def test_word_guards():
    real = cascade.build(FRAC, seed=0, depth=4)
    with pytest.raises(ConfigError):
        cascade.partial_product(real, parse_word("01010", 2))
    with pytest.raises(ConfigError):
        cascade.partial_product(real, parse_word("012", 3))


def test_export_level():
    real = cascade.build(IDENTITY, seed=0, depth=4)
    rows = cascade.export_level(real, 2)
    assert [r[0] for r in rows] == ["00", "01", "10", "11"]
    assert rows[1][1] == pytest.approx(0.25)
    assert rows[3][3] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# memoized grid min/max against the uncached block reduction


def block_min_max_oracle(real, level):
    blocks, step = real.base**level, real.base ** (real.depth - level)
    return tuple(cascade._block_min_max(f, blocks, step) for f in real.grid)


MIN_MAX_CASES = [(Fractional(2, 0.75, 0.75), 10), (Fractional(3, 0.7, 0.9), 6), (Fractional(4, 0.75, 0.75), 5)]


@pytest.mark.parametrize("model,depth", MIN_MAX_CASES)
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_memoized_grid_min_max_equals_block_oracle(model, depth, order):
    real = cascade.build(model, seed=7, depth=depth)
    levels = list(range(depth + 1))
    if order == "descending":
        levels.reverse()
    elif order == "shuffled":
        np.random.default_rng(depth).shuffle(levels)
    for level in levels + levels:  # the second round reads the memo
        got = cascade.grid_min_max(real, level)
        want = block_min_max_oracle(real, level)
        for (lo, hi), (lo_w, hi_w) in zip(got, want):
            assert np.array_equal(lo, lo_w) and np.array_equal(hi, hi_w)
    assert cascade.grid_min_max(real, 3) is cascade.grid_min_max(real, 3)


def test_grid_min_max_tables_are_read_only():
    real = cascade.build(FRAC, seed=1, depth=8)
    cascade.grid_min_max(real, 8)
    for level in (8, 4):  # computed from the grid, then derived from level 8
        for pair in cascade.grid_min_max(real, level):
            for a in pair:
                with pytest.raises(ValueError):
                    a[0] = 0.0


# ---------------------------------------------------------------------------
# seed domain


def test_seeds_at_and_above_two_to_the_63_give_distinct_streams():
    seeds = (2**63, 2**63 + 1, 2**64 - 1)
    grids = [cascade.build(FRAC, seed, depth=8).grid[0] for seed in seeds]
    for i in range(len(grids)):
        for j in range(i):
            assert not np.array_equal(grids[i], grids[j])


@pytest.mark.parametrize("seed", [-1, -(2**63), 2**64, 2**70])
def test_seeds_outside_uint64_are_config_errors(seed):
    with pytest.raises(ConfigError):
        cascade.build(FRAC, seed, depth=4)


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**62, 2**63 - 1])
def test_uint64_key_keeps_weights_of_seeds_below_two_to_the_63(seed):
    lognormal = LognormalSigned.from_beta(2, 0.8, 0.1)
    for model in (FRAC, TABLE, lognormal):
        for level in (1, 7):
            # the former key: a plain list of python ints
            old = np.random.Generator(np.random.Philox(key=[seed, level]))
            want = model.sample_pairs(old, 2**level)
            got = cascade.level_weights(model, seed, level)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# ---------------------------------------------------------------------------
# the streaming build against the former eager one


@functools.lru_cache(maxsize=None)
def eager_build(model, seed, depth):
    """The former build: (weights, products, grid), every level held.

    weights[m - 1] and products[m] are the level-m pairs; products[0] is
    the root pair.
    """
    b = model.base
    weights = []
    products = [(np.ones(1), np.ones(1))]
    for m in range(1, depth + 1):
        w1, w2 = cascade.level_weights(model, seed, m)
        q1p, q2p = products[m - 1]
        products.append((np.repeat(q1p, b) * w1, np.repeat(q2p, b) * w2))
        weights.append((w1, w2))
    q1n, q2n = products[depth]
    grid = (np.concatenate(([0.0], np.cumsum(q1n))), np.concatenate(([0.0], np.cumsum(q2n))))
    return weights, products, grid


def kinds(b):
    return [
        Fractional(b, 0.75, 0.6),
        LognormalSigned.from_beta(b, 0.8, 0.1),
        Mixed.from_beta(b, 0.8, 0.1),
        DiscreteTable(b, (((0.3, 0.7), 0.5), ((0.7, 0.3), 0.5))),
    ]


@pytest.mark.parametrize("b,depth", [(2, 10), (3, 6), (4, 5)])
def test_grid_is_bit_identical_to_eager_build(b, depth):
    for model in kinds(b):
        real = cascade.build(model, seed=21, depth=depth)
        _, _, grid = eager_build(model, 21, depth)
        for got, want in zip(real.grid, grid):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_build_holds_only_the_grid_and_the_root_pair():
    real = cascade.build(FRAC, seed=3, depth=10)
    assert real.weights == []
    assert [(list(q1), list(q2)) for q1, q2 in real.products] == [([1.0], [1.0])]
    held = [a for pair in real.weights + real.products for a in pair] + list(real.grid)
    assert sum(a.nbytes for a in held) == 16 * (2**10 + 1) + 16


def test_build_peak_memory_is_at_most_three_grids():
    model = Fractional(2, 0.75, 0.75)
    cascade.build(model, seed=1, depth=2)  # one-off allocations of a first call
    tracemalloc.start()
    try:
        real = cascade.build(model, seed=1, depth=18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * sum(a.nbytes for a in real.grid)


def test_readers_regenerate_levels_equal_to_the_eager_build():
    model = LognormalSigned.from_beta(3, 0.8, 0.1)
    real = cascade.build(model, seed=8, depth=6)
    weights, products, _ = eager_build(model, 8, 6)
    w, v = parse_word("0212", 3), parse_word("02", 3)
    assert cascade.partial_product(real, v) == tuple(float(q[v.index]) for q in products[2])
    assert len(real.weights) == 2 and len(real.products) == 3  # a prefix memo, no deeper
    assert cascade.node_weight(real, w) == tuple(float(a[w.index]) for a in weights[3])
    assert cascade.partial_product(real, w) == tuple(float(q[w.index]) for q in products[4])
    assert len(real.weights) == 4 and len(real.products) == 5
    for m in range(5):
        assert all(np.array_equal(a, b) for a, b in zip(real.products[m], products[m]))


def test_grid_readers_regenerate_no_weights():
    real = cascade.build(FRAC, seed=4, depth=16)
    estimate.image_box_dim(real, estimate.cantor_set(2, (0, 1), 4))
    estimate.partition_function(real, (1.0, 1.0), 2, 8)
    estimate.level_set(real, 1, float(real.grid[0][2**15]), 8)
    assert real.weights == []
    assert len(real.products) == 1


def test_negative_target_depth_is_a_config_error():
    real = cascade.build(FRAC, seed=0, depth=6)
    with pytest.raises(ConfigError):
        cascade.sample_tilted_path(real, (1.0, 1.0), -1, np.random.default_rng(0))
    assert cascade.sample_tilted_path(real, (1.0, 1.0), 0, np.random.default_rng(0)) == Word(2)


# ---------------------------------------------------------------------------
# array-built export and sliced tilted steps against the former loops


def export_level_oracle(real, level):
    """The former export_level: one divmod walk per word, over the eager build."""
    b = real.base
    _, products, (f1, f2) = eager_build(real.model, real.seed, real.depth)
    q1, q2 = products[level]
    step = b ** (real.depth - level)
    rows = []
    for j in range(b**level):
        digits = []
        v = j
        for _ in range(level):
            v, d = divmod(v, b)
            digits.append(d)
        word = str(Word(b, tuple(reversed(digits))))
        rows.append((word, q1[j], q2[j], f1[(j + 1) * step], f2[(j + 1) * step]))
    return rows


def as_text(rows):
    return [(w, *(f"{v:.17g}" for v in values)) for w, *values in rows]


@pytest.mark.parametrize(
    "model,depth",
    [(FRAC, 8), (Fractional(3, 0.7, 0.9), 5), (Fractional(11, 0.75, 0.75), 2), (TABLE, 6)],
)
def test_export_level_equals_loop_oracle(model, depth):
    real = cascade.build(model, seed=4, depth=depth)
    for level in sorted({0, 1, depth // 2, depth}):
        rows = cascade.export_level(real, level)
        assert as_text(rows) == as_text(export_level_oracle(real, level))
    assert cascade.export_level(real, 0)[0][0] == ""
    if model.base > 10:
        assert cascade.export_level(real, 2)[model.base * 10 + 3][0] == "10.3"


def tilted_path_oracle(real, q, target_depth, rng):
    """The former sample_tilted_path over the eager build: fancy-indexed children, np.where for NaN."""
    q1, q2 = q
    b = real.base
    weights = eager_build(real.model, real.seed, real.depth)[0]
    idx = 0
    digits = []
    for m in range(1, target_depth + 1):
        w1, w2 = weights[m - 1]
        children = idx * b + np.arange(b)
        with np.errstate(divide="ignore", invalid="ignore"):
            tw = np.abs(w1[children]) ** q1 * np.abs(w2[children]) ** q2
        tw = np.where(np.isnan(tw), 1.0, tw)
        total = tw.sum()
        if not np.isfinite(total) or total <= 0.0:
            raise DivergenceError(f"tilted child weights degenerate at level {m}")
        u = rng.random() * total
        digit = min(int(np.searchsorted(np.cumsum(tw), u, side="right")), b - 1)
        digits.append(digit)
        idx = children[digit]
    return Word(b, tuple(digits))


ZERO_ATOM = DiscreteTable(2, (((0.0, 0.0), 0.5), ((0.5, 0.5), 0.5)))


@pytest.mark.parametrize(
    "model,q",
    [
        (TABLE, (1.0, 1.0)),
        (TABLE, (1.3, -0.4)),
        (Fractional(3, 0.7, 0.9), (2.0, 0.5)),
        (Fractional(11, 0.75, 0.75), (1.0, 1.0)),
        (LognormalSigned.from_beta(4, 0.8, 0.1), (0.5, 1.5)),
        (ZERO_ATOM, (-1.0, 1.0)),  # 0**-1 * 0**1 is NaN and weighs 1
    ],
)
def test_tilted_path_equals_loop_oracle(model, q):
    depth = 3 if model.base > 4 else 8
    real = cascade.build(model, seed=11, depth=depth)
    rng, rng_oracle = np.random.default_rng(5), np.random.default_rng(5)
    with np.errstate(invalid="ignore"):
        for _ in range(200):
            got = cascade.sample_tilted_path(real, q, depth, rng)
            assert got == tilted_path_oracle(real, q, depth, rng_oracle)


def test_tilted_path_nan_child_weight_does_not_warn():
    real = cascade.build(ZERO_ATOM, seed=11, depth=6)
    rng, rng_oracle = np.random.default_rng(5), np.random.default_rng(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paths = [cascade.sample_tilted_path(real, (-1.0, 1.0), 6, rng) for _ in range(50)]
    assert paths == [tilted_path_oracle(real, (-1.0, 1.0), 6, rng_oracle) for _ in range(50)]


@pytest.mark.parametrize("q", [(1.0, 1.0), (-1.0, 0.0)])
def test_degenerate_tilted_weights_raise(q):
    # all-zero children: total 0 at q = (1, 1), total inf at q = (-1, 0)
    real = cascade.build(DiscreteTable(2, (((0.0, 0.0), 1.0),)), seed=0, depth=4)
    with pytest.raises(DivergenceError):
        cascade.sample_tilted_path(real, q, 4, np.random.default_rng(0))
    with pytest.raises(DivergenceError):
        tilted_path_oracle(real, q, 4, np.random.default_rng(0))


def tilted_outcome(sample, real, q, depth, rng):
    """The path one draw gives, or the DivergenceError message it raises."""
    try:
        return sample(real, q, depth, rng)
    except DivergenceError as e:
        return str(e)


@pytest.mark.parametrize("b", [9, 11])
def test_tilted_path_table_equals_loop_oracle_on_pairwise_sums(b):
    # from b = 9 on a parent's total is a pairwise sum, not the last cumulative weight
    real = cascade.build(LognormalSigned.from_beta(b, 0.8, 0.1), seed=3, depth=3)
    weights = eager_build(real.model, real.seed, real.depth)[0]
    for q in [(1.0, 1.0), (-0.7, 1.9)]:
        rng, rng_oracle = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(200):
            assert cascade.sample_tilted_path(real, q, 3, rng) == tilted_path_oracle(real, q, 3, rng_oracle)
        cums, totals = real._tilted[q]
        last_differs = False
        for (w1, w2), cum, total in zip(weights, cums, totals):
            for j in range(len(total)):
                tw = np.abs(w1[j * b : (j + 1) * b]) ** q[0] * np.abs(w2[j * b : (j + 1) * b]) ** q[1]
                assert cum[j * b : (j + 1) * b] == tw.cumsum().tolist()
                assert total[j] == tw.sum()
                last_differs |= total[j] != cum[(j + 1) * b - 1]
        assert last_differs


@pytest.mark.parametrize("q", [(-1.0, -1.0), (-1.0, 0.5)])
def test_tilted_path_diverges_only_at_visited_degenerate_nodes(q):
    depth = 4
    real = cascade.build(ZERO_ATOM, seed=2, depth=depth)
    rng, rng_oracle = np.random.default_rng(5), np.random.default_rng(5)
    got = [tilted_outcome(cascade.sample_tilted_path, real, q, depth, rng) for _ in range(200)]
    assert got == [tilted_outcome(tilted_path_oracle, real, q, depth, rng_oracle) for _ in range(200)]
    if q == (-1.0, -1.0):
        # a zero child makes its parent's total infinite; every level from 2 on holds such a
        # parent, yet some paths pass every level and others stop at different ones
        _, totals = real._tilted[q]
        assert all(any(t == math.inf for t in level) for level in totals[1:])
        assert any(isinstance(o, Word) for o in got)
        assert len({o for o in got if isinstance(o, str)}) >= 2


def test_tilted_tables_grow_with_target_depth():
    real = cascade.build(TABLE, seed=4, depth=9)
    rng, rng_oracle = np.random.default_rng(1), np.random.default_rng(1)
    for depth in (3, 8):
        for _ in range(100):
            assert cascade.sample_tilted_path(real, (1.3, -0.4), depth, rng) == tilted_path_oracle(
                real, (1.3, -0.4), depth, rng_oracle
            )
        cums, totals = real._tilted[(1.3, -0.4)]
        assert [len(c) for c in cums] == [2**m for m in range(1, depth + 1)]
        assert [len(t) for t in totals] == [2 ** (m - 1) for m in range(1, depth + 1)]


def test_tilted_tables_are_kept_per_q():
    real = cascade.build(Fractional(3, 0.7, 0.9), seed=6, depth=5)
    qs = [(2.0, 0.5), (-0.5, 1.0)]
    rng, rng_oracle = np.random.default_rng(2), np.random.default_rng(2)
    for _ in range(100):
        for q in qs:
            assert cascade.sample_tilted_path(real, q, 5, rng) == tilted_path_oracle(real, q, 5, rng_oracle)
    assert set(real._tilted) == set(qs)
    assert real._tilted[qs[0]][0][0] != real._tilted[qs[1]][0][0]


def test_overflowing_tilt_raises_divergence_without_a_warning():
    # |W| = 2**-0.75 everywhere, so |W|**-2000 overflows to inf at every node
    real = cascade.build(FRAC, seed=0, depth=4)
    with pytest.raises(DivergenceError, match="level 1"):
        cascade.sample_tilted_path(real, (-2000.0, 0.0), 4, np.random.default_rng(0))


@pytest.mark.parametrize("q", [(math.nan, 1.0), (1.0, math.inf), (-math.inf, 0.0)])
def test_non_finite_tilt_is_a_config_error(q):
    real = cascade.build(TABLE, seed=0, depth=4)
    with pytest.raises(ConfigError):
        cascade.sample_tilted_path(real, q, 4, np.random.default_rng(0))
    assert real._tilted == {} and real.weights == []


def test_export_words_above_base_ten_are_distinct_and_parse_back():
    real = cascade.build(Fractional(11, 0.75, 0.75), seed=1, depth=3)
    words = [row[0] for row in cascade.export_level(real, 3)]
    assert len(set(words)) == len(words) == 11**3
    assert [parse_word(w, 11).index for w in words] == list(range(11**3))
    assert words[1 * 121 + 0 * 11 + 10] == "1.0.10" and words[10 * 121 + 1 * 11 + 0] == "10.1.0"
