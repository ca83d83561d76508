import argparse
import collections.abc
import functools
import hashlib
import itertools
import math
import operator
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from cascadelab import cascade, cli, estimate, predict, words
from cascadelab.errors import ConfigError, DivergenceError, ResourceError
from cascadelab.weights import (
    DiscreteTable,
    Fractional,
    LognormalSigned,
    Mixed,
    SignJoint,
    check_assumptions,
    sigma_from_beta,
    signed_pairs,
)
from helpers import graph_bed, made_read_aheads, on_cpus, oscillations, word_index


def lognormal_beta(b, alpha, beta):
    return LognormalSigned(b, alpha, sigma_from_beta(beta, b))


def mixed_beta(b, alpha, beta):
    return Mixed(b, alpha, sigma_from_beta(beta, b))


def level_weights(model, seed, level):
    """(W1, W2) arrays for all base**level words, drawn from the level's stream."""
    return signed_pairs(*model.sample_pairs(cascade.level_rng(seed, level), model.base**level))


def export_rows(export):
    """The export's rows (word, Q1, Q2, F1, F2), built from its columns a block of words at a time."""
    block = export.words.block
    texts = [w for lo in range(0, len(export), block) for w in export.words[lo : lo + block]]
    return list(zip(texts, *(c.tolist() for c in (*export.products(), *export.ends))))


IDENTITY = Fractional(2, 1.0, 1.0, SignJoint(1.0, 0.0, 0.0, 0.0))
FRAC = Fractional(2, 0.75, 0.75)
TABLE = DiscreteTable(2, (((0.3, 0.7), 0.5), ((0.7, 0.3), 0.5)))


def test_identity_cascade_grid_is_identity():
    real = cascade.build(IDENTITY, seed=5, depth=10)
    expected = np.arange(2**10 + 1) / 2**10
    for f in cascade.grid_values(real):
        assert np.allclose(f, expected, atol=1e-14)


def test_single_atom_table_gives_identity_grid():
    m = DiscreteTable(2, (((0.5, 0.5), 1.0),))
    real = cascade.build(m, seed=1, depth=8)
    assert np.allclose(cascade.grid_values(real)[0], np.arange(257) / 256, atol=1e-14)


@pytest.mark.parametrize("a", [0.6, 0.75])
def test_graph_bed_is_the_graph_of_f1(a):
    # W2 = +1/2 at every node, so F2 is the identity and F([0, 1]) is the graph of F1
    bed = graph_bed(a)
    assert check_assumptions(bed).all_ok
    for seed in range(3):
        f2 = cascade.grid_values(cascade.build(bed, seed=seed, depth=14))[1]
        assert f2.tobytes() == (np.arange(2**14 + 1) / 2**14).tobytes()
    assert predict.closed_form_image_dim(bed, 1.0) == 2 - a


def test_build_is_deterministic():
    a = cascade.build(FRAC, seed=123, depth=10)
    b = cascade.build(FRAC, seed=123, depth=10)
    (a1, a2), (b1, b2) = cascade.grid_values(a), cascade.grid_values(b)
    assert np.array_equal(a1, b1)
    assert np.array_equal(a2, b2)
    c = cascade.build(FRAC, seed=124, depth=10)
    assert not np.array_equal(a1, cascade.grid_values(c)[0])


def test_prefix_stability_across_depths():
    a = cascade.build(FRAC, seed=9, depth=8)
    b = cascade.build(FRAC, seed=9, depth=11)
    for m in range(9):
        q_a = [row[:3] for row in export_rows(cascade.export_level(a, m))]
        assert q_a == [row[:3] for row in export_rows(cascade.export_level(b, m))]


def partial_product(real, w):
    """(Q1(w), Q2(w)) of the base-2 word with text w, read off the export of w's level."""
    return export_rows(cascade.export_level(real, len(w)))[word_index(w, 2)][1:3]


def test_root_partial_product():
    real = cascade.build(FRAC, seed=0, depth=6)
    assert partial_product(real, "") == (1.0, 1.0)


def test_fractional_partial_product_modulus():
    real = cascade.build(FRAC, seed=0, depth=8)
    for w in ("0", "101", "11011"):
        q1, q2 = partial_product(real, w)
        assert abs(q1) == pytest.approx(2 ** (-0.75 * len(w)), rel=1e-12)
        assert abs(q2) == pytest.approx(2 ** (-0.75 * len(w)), rel=1e-12)


def test_partial_product_recomputable_from_level_streams():
    # oracle: regenerate each level's weights independently and multiply
    real = cascade.build(TABLE, seed=77, depth=9)
    w = "011010"
    q1, q2 = 1.0, 1.0
    for i in range(1, len(w) + 1):
        lvl1, lvl2 = level_weights(TABLE, 77, i)
        idx = word_index(w[:i], 2)
        q1 *= lvl1[idx]
        q2 *= lvl2[idx]
    got = partial_product(real, w)
    assert got[0] == pytest.approx(q1, rel=1e-14)
    assert got[1] == pytest.approx(q2, rel=1e-14)


def test_multiplicativity():
    real = cascade.build(FRAC, seed=3, depth=8)
    w = "0110"
    qp = partial_product(real, w)
    w1, w2 = level_weights(FRAC, 3, 5)
    for j in (0, 1):
        child = w + str(j)
        qc = partial_product(real, child)
        assert qc[0] == pytest.approx(qp[0] * w1[word_index(child, 2)], rel=1e-14)
        assert qc[1] == pytest.approx(qp[1] * w2[word_index(child, 2)], rel=1e-14)


def increment(real, w):
    """The former cascade.increment: the increment of (F1, F2) over I_w, w a base-2 word's text, read off the grid."""
    idx = word_index(w, 2)
    step = real.base ** (real.depth - len(w))
    return tuple(float(f[(idx + 1) * step] - f[idx * step]) for f in cascade.grid_values(real))


def test_increment_at_full_depth_equals_product():
    real = cascade.build(FRAC, seed=11, depth=9)
    w = "010011011"
    assert increment(real, w) == pytest.approx(partial_product(real, w), rel=1e-10)


def test_increment_of_empty_word_is_total_mass():
    real = cascade.build(FRAC, seed=11, depth=9)
    d1, d2 = increment(real, "")
    f1, f2 = cascade.grid_values(real)
    assert d1 == pytest.approx(float(f1[-1]), rel=1e-14)
    assert d2 == pytest.approx(float(f2[-1]), rel=1e-14)


def test_increments_telescope():
    real = cascade.build(TABLE, seed=21, depth=10)
    for w in ("01", "1101"):
        parent = increment(real, w)
        kids = [increment(real, w + str(j)) for j in range(2)]
        for k in range(2):
            assert parent[k] == pytest.approx(sum(c[k] for c in kids), abs=1e-10)


def test_total_mass_is_one_in_mean():
    # E F_{k,n}(1) = 1 by (A0) and independence
    n_seeds = 400
    totals = np.empty((n_seeds, 2))
    for s in range(n_seeds):
        real = cascade.build(FRAC, seed=s, depth=8)
        totals[s] = [f[-1] for f in cascade.grid_values(real)]
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
        f_n = cascade.grid_values(a)[0][t_idx_coarse * 2 ** (n - 1)]
        f_n1 = cascade.grid_values(b)[0][t_idx_coarse * 2**n]
        diffs[s] = f_n1 - f_n
    assert abs(diffs.mean()) <= 4.0 * diffs.std() / math.sqrt(n_seeds)


# ---------------------------------------------------------------------------
# oscillations


def test_identity_oscillations():
    real = cascade.build(IDENTITY, seed=2, depth=10)
    for m in (0, 3, 7):
        o1, o2 = oscillations(real, m)
        assert np.allclose(o1, 2.0**-m, atol=1e-14)
        assert np.allclose(o2, 2.0**-m, atol=1e-14)


def test_monotone_model_oscillation_equals_increment():
    m = DiscreteTable(2, (((0.3, 0.6), 0.5), ((0.7, 0.4), 0.5)))  # positive weights
    real = cascade.build(m, seed=4, depth=10)
    o1, _ = oscillations(real, 4)
    # monotone grid: oscillation over a closed interval = endpoint increment
    step = 2 ** (10 - 4)
    f1 = cascade.grid_values(real)[0]
    inc1 = f1[step::step] - f1[:-1:step]
    assert np.allclose(o1, inc1, atol=1e-14)


def test_oscillation_dominates_children_and_increment():
    real = cascade.build(FRAC, seed=8, depth=12)
    parent, _ = oscillations(real, 5)
    child, _ = oscillations(real, 6)
    assert np.all(parent >= np.maximum(child[0::2], child[1::2]) - 1e-15)
    step = 2**7
    f1 = cascade.grid_values(real)[0]
    inc = np.abs(f1[step::step] - f1[:-1:step])
    assert np.all(parent >= inc - 1e-15)


def test_rescaled_oscillations_equidistributed_across_levels():
    # self-similarity: O/|Q| at different levels has the same law;
    # two-sample KS across disjoint seed sets at the 1% level
    def rescaled(seed, level, n=13):
        real = cascade.build(FRAC, seed=seed, depth=n)
        o = oscillations(real, level)[0][0]
        q = abs(partial_product(real, "0" * level)[0])
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
            o1, o2 = oscillations(real, int(m))
            acc[i] += (o1**q1 * o2**q2).mean()
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
            oscillations(cascade.build(FRAC, seed=s, depth=n), 0)[0][0] ** q
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
        ones += cascade.sample_tilted_path(real, (0.0, 0.0), 1, rng)
    p = ones / draws
    sigma = math.sqrt(0.25 / draws)
    assert abs(p - 0.5) <= 4.0 * sigma


def test_tilted_path_fractional_is_uniform_for_any_q():
    real = cascade.build(FRAC, seed=6, depth=12)
    rng = np.random.default_rng(1)
    counts = np.zeros(2)
    for _ in range(4000):
        counts[cascade.sample_tilted_path(real, (1.3, 0.4), 3, rng) % 2] += 1
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
        cascade.sample_tilted_path(real, (q1, q2), 1, rng) for _ in range(draws)
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


def test_a_huge_depth_fails_the_budget_without_computing_its_power():
    start = time.perf_counter()
    with pytest.raises(ResourceError, match=r"3\*\*10000001 exceeds"):
        cascade.check_size(3, 10**7)  # 3**(10**7 + 1) alone took some 6 s
    assert time.perf_counter() - start < 0.5


def test_export_level():
    real = cascade.build(IDENTITY, seed=0, depth=4)
    rows = export_rows(cascade.export_level(real, 2))
    assert [r[0] for r in rows] == ["00", "01", "10", "11"]
    assert rows[1][1] == pytest.approx(0.25)
    assert rows[3][3] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# memoized grid min/max against the uncached block reduction


def reduceat_min_max(values, blocks, step):
    """The former grid reduction: min and max over each closed block [j*step, (j+1)*step]."""
    starts = np.arange(blocks) * step
    right = values[starts + step]
    mins = np.minimum(np.minimum.reduceat(values[:-1], starts), right)
    maxs = np.maximum(np.maximum.reduceat(values[:-1], starts), right)
    return mins, maxs


def block_min_max_oracle(real, level):
    """The block reduction over the eager grid, leaving ``real``'s memos as they are."""
    blocks, step = real.base**level, real.base ** (real.depth - level)
    grid = eager_build(real.model, real.seed, real.depth)[2]
    return tuple(reduceat_min_max(f, blocks, step) for f in grid)


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
    for level in (8, 4):  # reduced from a grid walk, then derived from level 8
        for pair in cascade.grid_min_max(real, level):
            for a in pair:
                with pytest.raises(ValueError):
                    a[0] = 0.0


# ---------------------------------------------------------------------------
# seed domain


def test_seeds_at_and_above_two_to_the_63_give_distinct_streams():
    seeds = (2**63, 2**63 + 1, 2**64 - 1)
    grids = [cascade.grid_values(cascade.build(FRAC, seed, depth=8))[0] for seed in seeds]
    for i in range(len(grids)):
        for j in range(i):
            assert not np.array_equal(grids[i], grids[j])


@pytest.mark.parametrize("seed", [-1, -(2**63), 2**64, 2**70])
def test_seeds_outside_uint64_are_config_errors(seed):
    with pytest.raises(ConfigError):
        cascade.build(FRAC, seed, depth=4)


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**62, 2**63 - 1])
def test_uint64_key_keeps_weights_of_seeds_below_two_to_the_63(seed):
    lognormal = lognormal_beta(2, 0.8, 0.1)
    for model in (FRAC, TABLE, lognormal):
        for level in (1, 7):
            # the former key: a plain list of python ints
            old = np.random.Generator(np.random.Philox(key=[seed, level]))
            want = signed_pairs(*model.sample_pairs(old, 2**level))
            got = level_weights(model, seed, level)
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
        w1, w2 = level_weights(model, seed, m)
        q1p, q2p = products[m - 1]
        products.append((np.repeat(q1p, b) * w1, np.repeat(q2p, b) * w2))
        weights.append((w1, w2))
    q1n, q2n = products[depth]
    grid = (np.concatenate(([0.0], np.cumsum(q1n))), np.concatenate(([0.0], np.cumsum(q2n))))
    return weights, products, grid


def kinds(b):
    return [
        Fractional(b, 0.75, 0.6),
        lognormal_beta(b, 0.8, 0.1),
        mixed_beta(b, 0.8, 0.1),
        DiscreteTable(b, (((0.3, 0.7), 0.5), ((0.7, 0.3), 0.5))),
    ]


def assert_same_bytes(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# (2, 19), (3, 12) and (4, 9) span 8, 9 and 4 chunks of 2**16 leaves; 3**m is not a
# multiple of 4, so at b = 3 the normals of a level start inside a Philox block
@pytest.mark.parametrize("b,depth", [(2, 10), (3, 6), (4, 5), (2, 19), (3, 12), (4, 9)])
def test_grid_is_bit_identical_to_eager_build(b, depth):
    for model in kinds(b):
        real = cascade.build(model, seed=21, depth=depth)
        assert_same_bytes(cascade.grid_values(real), eager_build.__wrapped__(model, 21, depth)[2])


# SHA-256 of the little-endian grid bytes at seed 21.  The eager build above draws
# through the same sample_pairs, so only pinned bytes catch a change in the
# sampler's bits.  Lognormal kinds are left out: np.exp may round differently
# in the last bit from one CPU to another.
GOLDEN_GRIDS = {
    (2, 17, "fractional"): "55fc3de55065361edbd3847464ebe4b797f044c1dc8ef9fedc372f654f083afd",
    (2, 17, "table"): "bf46e676e63acecc5e70975fddbdba23643252292d17286cc3919857706a7ba4",
    (2, 17, "table3"): "efc9dfa381c88db988a8422055a5dc6c1be02699c423bc8b4036a74f8e590e44",
    (3, 12, "fractional"): "b37424c4bd5c851f7a4d8cb392e3aef661009fb5f7444f395abdb4a76da2cbd1",
    (3, 12, "table"): "d2bf203f02d997aa2103fec85505c67e393afc7aa37fec95f98808abc5c7b3fa",
    (3, 12, "table3"): "be64fdb1d0bed483baf0fb48dac503f948d32813976017b4d85d0b66e7b266a3",
}


def golden_model(b, name):
    return {
        "fractional": Fractional(b, 0.75, 0.6),
        "table": DiscreteTable(b, (((0.3, 0.7), 0.5), ((0.7, 0.3), 0.5))),
        "table3": DiscreteTable(b, (((0.5, -0.2), 0.25), ((0.3, 0.9), 0.35), ((0.6, 0.4), 0.4))),
    }[name]


# (2, 17) and (3, 12) span 2 and 9 chunks of 2**16 leaves
@pytest.mark.parametrize("b,depth,name", sorted(GOLDEN_GRIDS))
def test_grid_bytes_equal_the_pinned_digest(b, depth, name):
    grid = cascade.grid_values(cascade.build(golden_model(b, name), seed=21, depth=depth))
    digest = hashlib.sha256(b"".join(f.astype("<f8").tobytes() for f in grid)).hexdigest()
    assert digest == GOLDEN_GRIDS[b, depth, name]


@pytest.mark.parametrize("seed", range(6))
def test_grid_keeps_the_sign_of_negative_zero_products(seed):
    # grid[k][1] is -0.0 at seeds 0 and 4; the byte comparison sees its sign bit
    model = DiscreteTable(2, (((-0.0, -0.0), 0.5), ((0.5, 0.5), 0.5)))
    real = cascade.build(model, seed=seed, depth=3)
    assert_same_bytes(cascade.grid_values(real), eager_build.__wrapped__(model, seed, 3)[2])


def held_bytes(real):
    """What the benchmark's tracer counts as held: the arrays of weights, products and grid."""
    arrays = [a for pair in real.weights + real.products for a in pair] + list(real.grid)
    return sum(a.nbytes for a in arrays)


FIELDS = {"model", "seed", "depth", "_min_max", "_tilted"}


def test_build_holds_no_arrays():
    # build holds (model, seed, depth); grid_values walks into fresh arrays and adds nothing
    real = cascade.build(FRAC, seed=3, depth=10)
    assert set(vars(real)) == FIELDS and real._min_max == {} and real._tilted == {}
    assert held_bytes(real) == 0
    first, second = cascade.grid_values(real), cascade.grid_values(real)
    assert all(a is not b for a, b in zip(first, second))
    assert_same_bytes(first, second)
    assert set(vars(real)) == FIELDS and real._min_max == {} and held_bytes(real) == 0


def test_export_and_tilted_paths_keep_only_the_tilted_tables():
    real = cascade.build(TABLE, seed=3, depth=10)
    cascade.export_level(real, 6)
    cascade.sample_tilted_path(real, (1.0, 0.5), 8, np.random.default_rng(0))
    assert set(vars(real)) == FIELDS and real._min_max == {}
    assert list(real._tilted) == [(1.0, 0.5)]
    assert held_bytes(real) == 0


def peak_bytes(fn, *args):
    """``fn(*args)`` and the tracemalloc peak of its call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_build_peak_memory_is_at_most_three_grids():
    # the build that materializes the grid: grid_values
    model = Fractional(2, 0.75, 0.75)
    cascade.grid_values(cascade.build(model, seed=1, depth=2))  # one-off allocations of a first call
    grid, peak = peak_bytes(cascade.grid_values, cascade.build(model, seed=1, depth=18))
    assert peak <= 3 * sum(a.nbytes for a in grid)


@pytest.mark.parametrize("model", kinds(2), ids=lambda m: type(m).__name__)
def test_build_peak_memory_is_the_grid_plus_one_chunk(model):
    # the build that materializes the grid: grid_values
    cascade.grid_values(cascade.build(model, seed=1, depth=2))  # one-off allocations of a first call
    grid, peak = peak_bytes(cascade.grid_values, cascade.build(model, seed=1, depth=20))
    assert peak <= 1.5 * sum(a.nbytes for a in grid)


@pytest.mark.parametrize("model", [FRAC, lognormal_beta(2, 0.8, 0.1)], ids=lambda m: type(m).__name__)
def test_streamed_min_max_peak_does_not_grow_with_depth(model):
    # without a grid the walk holds one chunk buffer plus the tables it fills
    cascade.grid_min_max(cascade.build(model, seed=1, depth=6), 2)  # one-off allocations of a first call
    above_tables = []
    for depth in (18, 22):
        real = cascade.build(model, seed=1, depth=depth)
        tables, peak = peak_bytes(cascade.grid_min_max, real, depth - 4)
        assert real.grid == ()
        above_tables.append(peak - sum(a.nbytes for pair in tables for a in pair))
    assert above_tables[1] <= 1.05 * above_tables[0]
    assert above_tables[0] <= 6 * 16 * cascade._CHUNK_CELLS  # a few arrays of one chunk's size


def test_readers_regenerate_levels_equal_to_the_eager_build():
    model = lognormal_beta(3, 0.8, 0.1)
    real = cascade.build(model, seed=8, depth=6)
    _, products, _ = eager_build(model, 8, 6)
    for m in (4, 2, 6, 0):  # any order: each export regenerates its level from the streams
        rows = export_rows(cascade.export_level(real, m))
        assert_same_bytes([np.array([row[k] for row in rows]) for k in (1, 2)], products[m])
    assert set(vars(real)) == FIELDS and held_bytes(real) == 0


def test_grid_readers_regenerate_no_weights():
    real = cascade.build(FRAC, seed=4, depth=16)
    y = float(cascade.grid_values(cascade.build(FRAC, seed=4, depth=16))[0][2**15])
    estimate.image_box_dim(real, estimate.cantor_set(2, (0, 1), 4))
    estimate.partition_function(real, [(1.0, 1.0)], 2, 8)
    estimate.holder_exponents(real, [0, 5, 2**12 - 1], 3, 12)
    estimate.level_set(real, 1, y, 8)
    assert set(vars(real)) == FIELDS and real._tilted == {}
    assert held_bytes(real) == 0


def test_realizations_compare_by_model_seed_and_depth():
    a, b = cascade.build(FRAC, 1, 6), cascade.build(FRAC, 1, 6)
    assert a == b
    assert a != cascade.build(FRAC, 2, 6)
    assert a != cascade.build(FRAC, 1, 7)
    assert a != cascade.build(TABLE, 1, 6)
    cascade.grid_values(a)
    cascade.grid_min_max(b, 3)
    assert a == b and b == a


# levels 0, below the chunks' top level (none but 0 at (4, 9)), at it, above it, and the depth
MIN_MAX_LEVELS = {(2, 19): (0, 1, 3, 10, 19), (3, 12): (0, 1, 2, 7, 12), (4, 9): (0, 1, 5, 9)}


@pytest.mark.parametrize("b,depth", sorted(MIN_MAX_LEVELS))
def test_streamed_min_max_equals_the_block_reduction_of_the_grid(b, depth):
    top, _ = cascade._chunk_shape(b, depth)
    assert top in MIN_MAX_LEVELS[b, depth] and top > 0  # several chunks
    for model in kinds(b):
        grid = eager_build.__wrapped__(model, 21, depth)[2]
        for level in MIN_MAX_LEVELS[b, depth]:
            real = cascade.build(model, seed=21, depth=depth)
            got = cascade.grid_min_max(real, level)
            blocks, step = b**level, b ** (depth - level)
            for pair, f in zip(got, grid, strict=True):
                assert_same_bytes(pair, reduceat_min_max(f, blocks, step))
            assert real.grid == ()


@pytest.mark.parametrize("chunk_cells", [2, 2**16])
@pytest.mark.parametrize("seed", [0, 4])
def test_streamed_min_max_keeps_the_sign_of_negative_zero(seed, chunk_cells, monkeypatch):
    # grid[k][1] is -0.0 at seeds 0 and 4; chunks of 2 leaves carry it across a chunk boundary
    monkeypatch.setattr(cascade, "_CHUNK_CELLS", chunk_cells)
    model = DiscreteTable(2, (((-0.0, -0.0), 0.5), ((0.5, 0.5), 0.5)))
    grid = eager_build.__wrapped__(model, seed, 3)[2]
    assert np.signbit(grid[0][1])
    for level in range(4):
        got = cascade.grid_min_max(cascade.build(model, seed=seed, depth=3), level)
        for pair, f in zip(got, grid, strict=True):
            assert_same_bytes(pair, reduceat_min_max(f, 2**level, 2 ** (3 - level)))


@pytest.mark.parametrize("seed", range(6))
def test_chunk_carry_keeps_each_components_zero_sign_on_its_own(seed, monkeypatch):
    # every weight is a zero whose sign differs between W1 and W2, so at many points one grid
    # component is -0.0 while the other is +0.0; chunks of 2 leaves carry both across 15 boundaries
    monkeypatch.setattr(cascade, "_CHUNK_CELLS", 2)
    model = DiscreteTable(2, (((0.0, -0.0), 0.5), ((-0.0, 0.0), 0.5)))
    grid = eager_build.__wrapped__(model, seed, 5)[2]
    assert (np.signbit(grid[0]) != np.signbit(grid[1])).any()
    real = cascade.build(model, seed=seed, depth=5)
    assert_same_bytes(cascade.grid_values(real), grid)
    for level in range(6):
        for pair, f in zip(cascade.grid_min_max(real, level), grid, strict=True):
            assert_same_bytes(pair, reduceat_min_max(f, 2**level, 2 ** (5 - level)))


# bases above the fold's limit reduce each run in one call; 32 and 33 sit on either side of it
@pytest.mark.parametrize("b,depth", [(8192, 1), (256, 2), (33, 3), (32, 3)])
def test_large_base_min_max_equals_the_block_reduction_of_the_grid(b, depth):
    for model in kinds(b):
        grid = eager_build.__wrapped__(model, 3, depth)[2]
        # coarsest first: each level walked or derived from the top level's tables;
        # finest first: each level derived from the next finer one
        for levels in (range(depth + 1), range(depth, -1, -1)):
            real = cascade.build(model, seed=3, depth=depth)
            for level in levels:
                got = cascade.grid_min_max(real, level)
                for pair, f in zip(got, grid, strict=True):
                    assert_same_bytes(pair, reduceat_min_max(f, b**level, b ** (depth - level)))


def test_fold_keeps_the_later_of_two_tied_zeros(monkeypatch):
    # worked by hand: a tie between +0.0 and -0.0 keeps the one further right
    a = np.array([0.0, -0.0, 1.0, 0.0, -0.0, -1.0])
    assert_same_bytes([cascade._fold(a, 2, np.minimum)], [np.array([-0.0, 0.0, -1.0])])
    assert_same_bytes([cascade._fold(a, 2, np.maximum)], [np.array([-0.0, 1.0, -0.0])])
    assert_same_bytes([cascade._fold(a, 3, np.minimum)], [np.array([-0.0, -1.0])])
    assert_same_bytes([cascade._fold(a, 3, np.maximum)], [np.array([1.0, -0.0])])
    # one chunk with closed level-1 blocks (0.0, -0.0, 0.0) and (0.0, -0.0, 0.5):
    # the right end is the last value folded in
    real = cascade.build(FRAC, seed=0, depth=2)
    assert cascade._chunk_shape(2, 2) == (0, 4)
    chunk = (np.array([0.0, -0.0, 0.0, -0.0, 0.5]), np.array([-0.0, 0.0, -0.0, 0.0, -0.0]))
    monkeypatch.setattr(cascade, "grid_chunks", lambda real: iter([chunk]))
    (lo1, hi1), (lo2, hi2) = cascade.grid_min_max(real, 1)
    assert_same_bytes((lo1, hi1), (np.array([0.0, -0.0]), np.array([0.0, 0.5])))
    assert_same_bytes((lo2, hi2), (np.array([-0.0, -0.0]), np.array([-0.0, -0.0])))


def histogram_oracle(grid, bins):
    """The former occupation_histogram: one np.histogram over the whole grid."""
    lo, hi = float(grid.min()), float(grid.max())
    if hi == lo:
        hi = lo + 1e-12
    counts, edges = np.histogram(grid[:-1], bins=bins, range=(lo, hi))
    return edges, counts / (len(grid) - 1)


# (2, 19), (3, 12) and (4, 9) span 8, 9 and 4 chunks
@pytest.mark.parametrize("b,depth", [(2, 19), (3, 12), (4, 9)])
def test_streamed_histogram_equals_the_histogram_of_the_grid(b, depth):
    for model in kinds(b):
        grid = eager_build.__wrapped__(model, 21, depth)[2]
        for k, bins in ((1, 64), (2, 37)):
            # the range walked at the chunks' top level, then derived from a finer table
            for held in (None, depth - 2):
                real = cascade.build(model, seed=21, depth=depth)
                if held is not None:
                    cascade.grid_min_max(real, held)
                got = estimate.occupation_histogram(real, k, bins)
                assert_same_bytes(got, histogram_oracle(grid[k - 1], bins))
                assert real.grid == ()


@pytest.mark.parametrize("seed", [0, 4])
def test_streamed_histogram_of_a_minimum_tied_between_signed_zeros(seed, monkeypatch):
    # grid[k][0] is +0.0 and grid[k][1] -0.0, and no value is negative; chunks of 2 leaves
    monkeypatch.setattr(cascade, "_CHUNK_CELLS", 2)
    model = DiscreteTable(2, (((-0.0, -0.0), 0.5), ((0.5, 0.5), 0.5)))
    grid = eager_build.__wrapped__(model, seed, 3)[2]
    for f in grid:
        assert not np.signbit(f[0]) and np.signbit(f[1]) and f.min() == 0.0
    for k in (1, 2):
        got = estimate.occupation_histogram(cascade.build(model, seed=seed, depth=3), k, 8)
        assert_same_bytes(got, histogram_oracle(grid[k - 1], 8))


def test_streamed_histogram_of_a_flat_grid():
    # both level-1 weights are zero, so every product is a zero of either sign and the grid is flat
    model = DiscreteTable(2, (((0.0, -0.0), 0.5), ((1.0, 1.0), 0.5)))
    seed = next(s for s in range(64) if not level_weights(model, s, 1)[0].any())
    grid = eager_build.__wrapped__(model, seed, 4)[2]
    assert all(not f.any() for f in grid) and np.signbit(grid[1]).any()
    for k in (1, 2):
        edges, masses = estimate.occupation_histogram(cascade.build(model, seed=seed, depth=4), k, 8)
        assert_same_bytes((edges, masses), histogram_oracle(grid[k - 1], 8))
        assert edges[-1] == 1e-12 and masses[0] == 1.0


@pytest.mark.parametrize("model", [FRAC, lognormal_beta(2, 0.8, 0.1)], ids=lambda m: type(m).__name__)
def test_streamed_histogram_peak_does_not_grow_with_depth(model):
    # the walk holds one chunk buffer, and the histogram bins one chunk at a time
    estimate.occupation_histogram(cascade.build(model, seed=1, depth=6), 1, 64)  # one-off allocations
    above_tables = []
    for depth in (18, 22):
        real = cascade.build(model, seed=1, depth=depth)
        _, peak = peak_bytes(estimate.occupation_histogram, real, 1, 64)
        tables = sum(a.nbytes for t in real._min_max.values() for pair in t for a in pair)
        above_tables.append(peak - tables)
    assert above_tables[1] <= 1.05 * above_tables[0]
    assert above_tables[0] <= 6 * 16 * cascade._CHUNK_CELLS  # a few arrays of one chunk's size


@pytest.mark.parametrize("q", [(1.0, 1.0), (0.5, 0.5), (-0.5, 2.0), (1.5, -1.0)])
def test_partition_function_peak_is_two_oscillation_arrays(q):
    # with every table of the window memoized, only one level's oscillations are alive
    model = lognormal_beta(2, 0.8, 0.1)
    real = cascade.build(model, seed=1, depth=20)
    for m in range(16, 1, -1):
        cascade.grid_min_max(real, m)
    (est,), peak = peak_bytes(estimate.partition_function, real, [q], 2, 16)
    assert peak <= 2.25 * 8 * 2**16  # two level-16 arrays, plus a bool array and slack
    # the in-place powers give the bits of the out-of-place ones
    for m, log in est.counts_per_scale:
        o1, o2 = oscillations(real, m)
        assert log == math.log(float((o1 ** q[0] * o2 ** q[1]).sum())) / math.log(2)


PARTITION_QS = [(1.0, 1.0), (0.5, 0.5), (-0.5, 2.0), (1.5, -1.0)]


@pytest.mark.parametrize("hi", [16, 18])
def test_cold_partition_function_peaks_at_one_and_a_half_finest_tables(hi):
    # the walk keeps a level's tables and the next finer level's only until the level's first read
    model = lognormal_beta(2, 0.8, 0.1)
    estimate.partition_function(cascade.build(model, seed=1, depth=6), PARTITION_QS, 2, 4)  # one-off allocations
    _, walk = peak_bytes(cascade.grid_min_max, cascade.build(model, seed=1, depth=20), hi)
    real = cascade.build(model, seed=1, depth=20)
    ests, peak = peak_bytes(estimate.partition_function, real, PARTITION_QS, 2, hi)
    tables = 4 * 8 * 2**hi  # the finest level's ((min1, max1), (min2, max2))
    assert peak <= 1.5 * tables + 6 * 16 * cascade._CHUNK_CELLS  # the slack of the streamed histogram's bound
    # at most the cold walk of the finest level, or 1.5 of its tables and a bool array of its words
    # (at hi = 18 the tables outweigh the walk's chunk arrays, and holding every level's would reach 2 tables)
    assert peak <= max(walk, 1.5 * tables) + 2 * 2**hi
    fresh = cascade.build(model, seed=1, depth=20)
    for q, est in zip(PARTITION_QS, ests):
        for m, log in est.counts_per_scale:  # the in-place powers give the bits of the out-of-place ones
            o1, o2 = oscillations(fresh, m)
            assert log == math.log(float((o1 ** q[0] * o2 ** q[1]).sum())) / math.log(2)
        assert [est] == estimate.partition_function(fresh, [q], 2, hi)


@pytest.mark.parametrize("held, lo, hi", [
    ((), 2, 16),
    ((18, 9), 2, 16),
    ((), 2, 3),  # below the chunks' top level 4, whose tables the first read memoizes too
    ((16, 3), 2, 3),
])
def test_partition_function_forgets_only_the_tables_it_memoized(held, lo, hi, monkeypatch):
    model = lognormal_beta(2, 0.8, 0.1)
    real = cascade.build(model, seed=3, depth=20)
    for m in held:
        cascade.grid_min_max(real, m)
    before = dict(real._min_max)
    added = []
    grid_min_max = cascade.grid_min_max

    def read(r, m):
        added.append((m, set(r._min_max) - set(before)))
        return grid_min_max(r, m)

    monkeypatch.setattr(cascade, "grid_min_max", read)
    ests = estimate.partition_function(real, PARTITION_QS, lo, hi)
    monkeypatch.undo()
    assert real._min_max.keys() == before.keys()
    assert all(real._min_max[m] is tables for m, tables in before.items())
    # one read per q and level, finest first; a level's first read finds at most the next finer
    # level's tables that the call memoized, and each later read only the level's own
    assert [m for m, _ in added] == [m for m in range(hi, lo - 1, -1) for _ in PARTITION_QS]
    for i, (m, memo) in enumerate(added):
        assert memo <= ({m + 1} if i % len(PARTITION_QS) == 0 else {m})
    assert ests == estimate.partition_function(cascade.build(model, seed=3, depth=20), PARTITION_QS, lo, hi)


@pytest.mark.parametrize("held, lo, hi", [
    ((), 3, 16),
    ((18, 9), 3, 16),
    ((), 2, 3),  # below the chunks' top level 4, whose tables the first read memoizes too
    ((16, 3), 2, 3),
])
def test_holder_exponents_forgets_only_the_tables_it_memoized(held, lo, hi):
    model = lognormal_beta(2, 0.8, 0.1)
    real = cascade.build(model, seed=3, depth=20)
    for m in held:
        cascade.grid_min_max(real, m)
    before = dict(real._min_max)
    idx = [0, 5, 2**hi - 1]
    got = estimate.holder_exponents(real, idx, lo, hi)
    assert real._min_max.keys() == before.keys()
    assert all(real._min_max[m] is tables for m, tables in before.items())
    assert_same_bytes(got, estimate.holder_exponents(cascade.build(model, seed=3, depth=20), idx, lo, hi))


def test_cold_holder_exponents_peaks_at_one_and_a_half_finest_tables():
    # a level's tables derive while the next finer level's are still held, and only the paths'
    # rows are subtracted; keeping every level of the window would reach 2 tables
    model = lognormal_beta(2, 0.8, 0.1)
    estimate.holder_exponents(cascade.build(model, seed=1, depth=6), [0, 3], 2, 4)  # one-off allocations
    _, walk = peak_bytes(cascade.grid_min_max, cascade.build(model, seed=1, depth=20), 18)
    _, peak = peak_bytes(estimate.holder_exponents, cascade.build(model, seed=1, depth=20), [0, 5, 2**18 - 1], 3, 18)
    tables = 4 * 8 * 2**18  # the finest level's ((min1, max1), (min2, max2))
    assert peak <= max(walk, 1.5 * tables) + 2**16  # the slack of the per-path arrays


def test_holder_exponents_subtracts_only_its_paths_rows():
    # with a finer level's tables held there is no walk: the peak is a level's tables and the next
    # coarser level's, plus the paths' arrays; whole-level oscillations would reach 1.82 tables
    model = lognormal_beta(2, 0.8, 0.1)
    estimate.holder_exponents(cascade.build(model, seed=1, depth=6), [0, 3], 2, 4)  # one-off allocations
    real = cascade.build(model, seed=1, depth=22)
    cascade.grid_min_max(real, 19)
    idx = np.random.default_rng(0).integers(0, 2**18, 2000)
    (h1, h2), peak = peak_bytes(estimate.holder_exponents, real, idx, 3, 18)
    assert peak <= 1.6 * 4 * 8 * 2**18  # the level-18 ((min1, max1), (min2, max2))
    assert h1.shape == h2.shape == (2000,) and real._min_max.keys() == {19}


def test_walk_descends_only_through_levels_above_the_whole_level_limit(monkeypatch):
    calls = []
    next_signed = cascade._next_signed
    monkeypatch.setattr(cascade, "_next_signed", lambda q, w, b: calls.append(len(w[0])) or next_signed(q, w, b))
    real = cascade.build(FRAC, seed=2, depth=19)
    grid = cascade.grid_values(real)
    top, width = cascade._chunk_shape(2, 19)
    assert (top, width) == (3, 2**16) and 2**12 == cascade._WHOLE_LEVEL_CELLS
    # levels 1..12 whole, once each; then each of the 8 chunks through levels 13..19,
    # its 2**16 leaves of level 19 in one step
    assert calls[:12] == [2**m for m in range(1, 13)]
    assert calls[12:] == 8 * [2**m for m in range(10, 17)]
    assert_same_bytes(grid, eager_build.__wrapped__(FRAC, 2, 19)[2])


def record_level_steps(monkeypatch):
    """Patch the walk's level step to record its products' moduli and its modulus multiplications."""
    steps, times = [], []
    next_signed, times_ = cascade._next_signed, cascade._times

    def step(q, w, b):
        out = next_signed(q, w, b)
        steps.append(out[1:])
        return out

    monkeypatch.setattr(cascade, "_next_signed", step)
    monkeypatch.setattr(cascade, "_times", lambda p, m, b: times.append(np.ndim(m)) or times_(p, m, b))
    return steps, times


def test_fractional_walk_carries_float_moduli(monkeypatch):
    steps, times = record_level_steps(monkeypatch)
    real = cascade.build(FRAC, seed=2, depth=17)
    tables = cascade.grid_min_max(real, 13)
    assert len(steps) == 12 + 2 * 5  # the whole levels, then levels 13..17 of each chunk
    assert all(type(m1) is float and type(m2) is float for m1, m2 in steps)
    assert times == [0] * 2 * len(steps)  # every modulus product is a float product
    level_moduli = list(itertools.accumulate([2**-0.75] * 17, operator.mul))
    assert [m1 for m1, _ in steps[:12]] == level_moduli[:12]  # the whole levels
    assert steps[-1][0] == level_moduli[16]  # the last chunk's leaves
    grid = eager_build.__wrapped__(FRAC, 2, 17)[2]
    for pair, f in zip(tables, grid):
        assert_same_bytes(pair, reduceat_min_max(f, 2**13, 2**4))


@pytest.mark.parametrize("model", kinds(2)[1:], ids=lambda m: type(m).__name__)
def test_walk_multiplies_a_shared_modulus_once_per_level(model, monkeypatch):
    steps, times = record_level_steps(monkeypatch)
    grid = cascade.grid_values(cascade.build(model, seed=5, depth=17))
    shared = isinstance(model, LognormalSigned)
    assert all((m1 is m2) == shared for m1, m2 in steps)
    assert times == [1] * (1 if shared else 2) * len(steps)
    assert_same_bytes(grid, eager_build.__wrapped__(model, 5, 17)[2])


def test_negative_target_depth_is_a_config_error():
    real = cascade.build(FRAC, seed=0, depth=6)
    with pytest.raises(ConfigError):
        cascade.sample_tilted_path(real, (1.0, 1.0), -1, np.random.default_rng(0))
    assert cascade.sample_tilted_path(real, (1.0, 1.0), 0, np.random.default_rng(0)) == 0


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
        word = ("." if b > 10 else "").join(str(d) for d in reversed(digits))
        rows.append((word, q1[j], q2[j], f1[(j + 1) * step], f2[(j + 1) * step]))
    return rows


def as_text(rows):
    return [(w, *(f"{v:.17g}" for v in values)) for w, *values in rows]


@pytest.mark.parametrize(
    "model,depth",
    [
        (FRAC, 8),
        (Fractional(3, 0.7, 0.9), 5),
        (Fractional(11, 0.75, 0.75), 2),
        (TABLE, 6),
        (lognormal_beta(2, 0.8, 0.1), 8),
        (mixed_beta(3, 0.8, 0.1), 5),
        (DiscreteTable(2, (((-0.0, -0.0), 0.5), ((0.5, 0.5), 0.5))), 6),  # %.17g writes -0.0 as -0
    ],
)
def test_export_level_equals_loop_oracle(model, depth):
    real = cascade.build(model, seed=4, depth=depth)
    for level in range(depth + 1):
        rows = export_rows(cascade.export_level(real, level))
        assert as_text(rows) == as_text(export_level_oracle(real, level))
    assert export_rows(cascade.export_level(real, 0))[0][0] == ""
    if model.base > 10:
        assert export_rows(cascade.export_level(real, 2))[model.base * 10 + 3][0] == "10.3"


# (2, 18) and (3, 12) have chunks' top level 2: levels 0 and 1 take their points from chunk boundaries
@pytest.mark.parametrize("b,depth", [(2, 18), (3, 12)])
def test_level_points_and_export_right_ends_are_the_grid_at_every_level(b, depth):
    real = cascade.build(Fractional(b, 0.75, 0.6), seed=2, depth=depth)
    assert cascade._chunk_shape(b, depth)[0] == 2
    f1, f2 = cascade.grid_values(real)
    for level in range(depth + 1):
        step = b ** (depth - level)
        assert_same_bytes(cascade.grid_values(real, level), (f1[::step], f2[::step]))
        exported = cascade.export_level(real, level)
        assert len(exported) == b**level
        assert_same_bytes(exported.ends, (f1[step::step], f2[step::step]))
    assert export_rows(exported)[-1][3:] == (f1[-1], f2[-1])


def test_exported_columns_are_read_only_and_not_a_sequence():
    real = cascade.build(TABLE, seed=3, depth=6)
    exported = cascade.export_level(real, 4)
    for a in (exported.signs, *exported.moduli, *exported.ends):
        assert not a.flags.writeable
    assert len(exported) == 16 and not isinstance(exported, collections.abc.Sequence)


@pytest.mark.parametrize("model", [FRAC, lognormal_beta(2, 0.8, 0.1)], ids=lambda m: type(m).__name__)
def test_export_level_peak_is_a_walk_not_a_grid(model):
    # the grid of a depth-20 realization alone takes 16 MB; the right ends are collected chunk by chunk
    cascade.export_level(cascade.build(model, seed=1, depth=6), 3)  # one-off allocations of a first call
    _, peak = peak_bytes(cascade.export_level, cascade.build(model, seed=1, depth=20), 8)
    assert peak < 6 * 2**20


def tilted_path_oracle(real, q, target_depth, rng):
    """The former sample_tilted_path over the eager build: fancy-indexed children, np.where for NaN; returns the index."""
    q1, q2 = q
    b = real.base
    weights = eager_build(real.model, real.seed, real.depth)[0]
    idx = 0
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
        idx = int(children[digit])
    return idx


ZERO_ATOM = DiscreteTable(2, (((0.0, 0.0), 0.5), ((0.5, 0.5), 0.5)))


@pytest.mark.parametrize(
    "model,q",
    [
        (TABLE, (1.0, 1.0)),
        (TABLE, (1.3, -0.4)),
        (Fractional(3, 0.7, 0.9), (2.0, 0.5)),
        (Fractional(11, 0.75, 0.75), (1.0, 1.0)),
        (lognormal_beta(4, 0.8, 0.1), (0.5, 1.5)),
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
    real = cascade.build(lognormal_beta(b, 0.8, 0.1), seed=3, depth=3)
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
        assert any(isinstance(o, int) for o in got)
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
    assert real._tilted == {}


def test_export_words_above_base_ten_are_distinct_and_parse_back():
    real = cascade.build(Fractional(11, 0.75, 0.75), seed=1, depth=3)
    texts = [row[0] for row in export_rows(cascade.export_level(real, 3))]
    assert len(set(texts)) == len(texts) == 11**3
    assert [word_index(w, 11) for w in texts] == list(range(11**3))
    assert texts[1 * 121 + 0 * 11 + 10] == "1.0.10" and texts[10 * 121 + 1 * 11 + 0] == "10.1.0"


@pytest.mark.parametrize("word_block", [words._WORD_BLOCK, 16], ids=["default-blocks", "small-blocks"])
@pytest.mark.parametrize("b,level", [(2, 6), (3, 6), (12, 4)])
def test_exported_words_are_the_level_words_in_every_access_form(monkeypatch, word_block, b, level):
    # a level of 12**6 words would take about 200 MB as a list; 12**4 already spans 12 blocks of 12**3
    monkeypatch.setattr(words, "_WORD_BLOCK", word_block)
    texts = cascade.export_level(cascade.build(Fractional(b, 0.75, 0.75), seed=1, depth=level), level).words
    want = words.level_words(b, level)
    n = len(want)
    assert len(texts) == n and n % texts.block == 0 and b <= texts.block <= max(word_block, b)
    block = texts.block
    assert [w for lo in range(0, n, block) for w in texts[lo : lo + block]] == want
    for lo in {0, block % n, n - block}:  # a slice within one block
        for t, u in itertools.combinations((0, 1, block // 2, block - 1, block), 2):
            assert texts[lo + t : lo + u] == want[lo + t : lo + u]


NOT_INTEGERS = [1.5, 2.0, True, np.float64(3.0), "2", None]


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
def test_seeds_depths_levels_and_target_depths_must_be_integers(bad):
    with pytest.raises(ConfigError, match="must be an integer"):
        cascade.build(FRAC, bad, 10)
    with pytest.raises(ConfigError, match="must be an integer"):
        cascade.build(FRAC, 0, bad)
    with pytest.raises(ConfigError, match="must be an integer"):
        cascade.level_rng(bad, 0)
    real = cascade.build(FRAC, seed=0, depth=6)
    for call in (
        lambda: cascade.grid_min_max(real, bad),
        lambda: cascade.export_level(real, bad),
        lambda: cascade.sample_tilted_path(real, (1.0, 1.0), bad, np.random.default_rng(0)),
    ):
        with pytest.raises(ConfigError, match="must be an integer"):
            call()


@pytest.mark.parametrize("bad,message", [
    (-1, r"level -1 outside \[0, 6\]"),
    (7, r"level 7 outside \[0, 6\]"),
    (2.5, "level must be an integer, got 2.5"),
    (True, "level must be an integer, got True"),
], ids=repr)
def test_level_readers_check_the_level_alike(bad, message):
    # grid_values once returned a one-point grid at -1, raised TypeError at 7 and 2.5,
    # and read True as level 1
    real = cascade.build(FRAC, seed=0, depth=6)
    for read in (cascade.grid_min_max, cascade.grid_values, cascade.export_level):
        with pytest.raises(ConfigError, match=message):
            read(real, bad)
    assert real._min_max == {}


def test_a_float_seed_does_not_read_another_seeds_streams():
    # 1.5 once keyed seed 1's streams while comparing unequal to seed 1's realization
    with pytest.raises(ConfigError):
        cascade.build(FRAC, 1.5, 10)
    real = cascade.build(FRAC, np.uint64(2**63), np.int32(10))
    assert (type(real.seed), type(real.depth)) == (int, int)
    assert real == cascade.build(FRAC, 2**63, 10)
    a = cascade.build(FRAC, np.int64(1), 6)
    assert cascade.grid_min_max(a, np.int16(3)) is cascade.grid_min_max(a, 3)
    assert len(cascade.export_level(a, np.int64(2))) == 4


@pytest.mark.parametrize(
    "model,q,depth,safe",
    [
        (TABLE, (1.0, 1.0), 12, 12),  # every total is 0.42: one draw per path
        (ZERO_ATOM, (-1.0, -1.0), 8, 1),  # a zero child makes level 2 on hold infinite totals
    ],
)
def test_tilted_paths_leave_the_stream_where_the_per_level_loop_does(model, q, depth, safe):
    real = cascade.build(model, seed=2, depth=depth)
    rng, rng_oracle = np.random.default_rng(5), np.random.default_rng(5)
    stops = 0
    for _ in range(2000):
        got = tilted_outcome(cascade.sample_tilted_path, real, q, depth, rng)
        assert got == tilted_outcome(tilted_path_oracle, real, q, depth, rng_oracle)
        assert rng.bit_generator.state == rng_oracle.bit_generator.state
        stops += isinstance(got, str)
    assert (stops > 0) == (model is ZERO_ATOM)
    tables = real._tilted[q]
    assert tables.safe == safe
    _, totals = tables
    leading = itertools.takewhile(lambda level: all(0.0 < t < math.inf for t in level), totals)
    assert len(list(leading)) == safe


# ---------------------------------------------------------------------------
# the leaf level's stream read ahead on a spare CPU


def read_ahead_threads():
    return [t for t in threading.enumerate() if t.name == "cascadelab-read-ahead"]


@pytest.mark.parametrize("model", kinds(2) + kinds(4), ids=lambda m: f"{type(m).__name__}-b{m.base}")
def test_read_ahead_walks_equal_one_cpu_walks(model, monkeypatch):
    depth = 18 if model.base == 2 else 10  # 4 and 16 chunks
    made = made_read_aheads(monkeypatch)
    got = {}
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        made.clear()
        real = cascade.build(model, seed=5, depth=depth)
        tables = [a for pair in cascade.grid_min_max(real, depth - 3) for a in pair]
        values = cascade.grid_values(real, depth - 2)
        histograms = [a for k in (1, 2) for a in estimate.occupation_histogram(real, k, 16)]
        got[cpus] = [a.tobytes() for a in (*tables, *values, *histograms)]
        assert bool(made) == (cpus == 2)
    assert got[1] == got[2]
    assert read_ahead_threads() == [] and cascade._spare_taken == 0


def test_read_ahead_helper_is_joined_and_its_cpu_returned_when_a_walk_is_closed(monkeypatch):
    on_cpus(monkeypatch, 2)
    walk = cascade.grid_chunks(cascade.build(lognormal_beta(2, 0.8, 0.1), seed=1, depth=18))
    next(walk)
    assert len(read_ahead_threads()) == 1 and cascade._spare_taken == 1
    walk.close()
    assert read_ahead_threads() == [] and cascade._spare_taken == 0


def test_read_ahead_error_reaches_the_reader(monkeypatch):
    on_cpus(monkeypatch, 2)
    failed_on, init = [], cascade._LevelStream.__init__

    def leaf_fails_on_its_second_slice(stream, seed, level, n):
        init(stream, seed, level, n)
        if level == 18:
            random, calls = stream.random, []

            def read(*args, **kwargs):
                calls.append(args or kwargs)
                if len(calls) == 2:  # asked for while the reader works on the first slice
                    failed_on.append(threading.get_ident())
                    raise MemoryError("no room for the second slice")
                return random(*args, **kwargs)

            stream.random = read

    monkeypatch.setattr(cascade._LevelStream, "__init__", leaf_fails_on_its_second_slice)
    with pytest.raises(MemoryError, match="second slice"):
        cascade.grid_min_max(cascade.build(FRAC, seed=1, depth=18), 10)
    assert len(failed_on) == 1 and failed_on[0] != threading.get_ident()
    assert read_ahead_threads() == [] and cascade._spare_taken == 0


class SlowStream:
    """A level stream whose every read starts late, as on a helper thread that is not yet running."""

    def __init__(self, stream):
        self._stream = stream

    def random(self, **kwargs):
        time.sleep(0.005)
        return self._stream.random(**kwargs)

    def standard_normal(self, **kwargs):
        time.sleep(0.005)
        return self._stream.standard_normal(**kwargs)


def test_read_ahead_peak_does_not_depend_on_the_helpers_pace(monkeypatch):
    # the reader allocates each slice it asks for, so a late helper holds no less at the reader's peak
    on_cpus(monkeypatch, 2)
    model = lognormal_beta(2, 0.8, 0.1)
    cascade.grid_min_max(cascade.build(model, seed=1, depth=6), 2)  # one-off allocations of a first call
    peaks = []
    for slow in (False, True):
        if slow:
            read_ahead = cascade._ReadAhead
            monkeypatch.setattr(cascade, "_ReadAhead", lambda stream, slices: read_ahead(SlowStream(stream), slices))
        _, peak = peak_bytes(cascade.grid_min_max, cascade.build(model, seed=1, depth=18), 14)
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) < 64 * 1024  # a leaf slice is 512 KiB


def test_read_ahead_helper_holds_no_slice_it_has_filled(monkeypatch):
    # else a slice the reader is done with would live on until the helper's next step
    on_cpus(monkeypatch, 2)
    assert cascade._take_cpus(1) == 1  # the CPU that close() returns
    ahead = cascade._ReadAhead(cascade._LevelStream(1, 18, 2**18), 4)
    try:
        for _ in range(4):
            for read in (ahead.random, ahead.standard_normal):
                got = read(2**16)
                assert sys.getrefcount(got) == 2  # ``got`` and getrefcount's argument
    finally:
        ahead.close()
    assert cascade._spare_taken == 0


def test_one_cpu_walks_start_no_thread(monkeypatch):
    on_cpus(monkeypatch, 1)
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread) or start(thread))
    real = cascade.build(lognormal_beta(2, 0.8, 0.1), seed=1, depth=18)
    cascade.grid_min_max(real, 14)
    cascade.grid_values(real, 10)
    estimate.occupation_histogram(real, 1, 16)
    assert started == []


@pytest.mark.parametrize("seeds,helpers", [(2, 0), (1, 1)])
def test_per_seed_threads_take_the_spare_cpu_before_the_walks(monkeypatch, seeds, helpers):
    # two seeds on two CPUs hold both, so no walk of theirs reads ahead; one seed leaves a CPU to its walk
    on_cpus(monkeypatch, 2)
    made = made_read_aheads(monkeypatch)
    args = argparse.Namespace(seed=0, seeds=seeds, depth=18)
    rows = cli._per_seed(args, FRAC, lambda seed, real: [len(cascade.grid_min_max(real, 10)[0][0])])
    assert rows == [2**10] * seeds and len(made) == helpers
    assert cascade._spare_taken == 0


def test_read_ahead_loses_no_count_under_fast_switching(monkeypatch):
    # a read-modify-write counter around sample_pairs, as the benchmark's tracer wraps it with; the
    # pairs are sampled on the walk's own thread only, so no switch can land inside it
    counted, threads, sample_pairs = [0], set(), Fractional.sample_pairs

    def counting(model, rng, size):
        seen = counted[0]
        sum(range(2000))  # no GIL release, so nothing runs in between unless preempted
        threads.add(threading.get_ident())
        counted[0] = seen + 1
        return sample_pairs(model, rng, size)

    monkeypatch.setattr(Fractional, "sample_pairs", counting)
    on_cpus(monkeypatch, 2)
    made = made_read_aheads(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        cascade.grid_min_max(cascade.build(Fractional(2, 0.75, 0.6), seed=2, depth=20), 12)
    finally:
        sys.setswitchinterval(interval)
    # levels 1 .. 12 whole, then levels 13 .. 20 in each of the 2**4 chunks
    assert counted == [12 + 2**4 * 8] and threads == {threading.get_ident()} and len(made) == 1


def test_read_ahead_is_asked_for_the_first_leaf_slice_before_the_first_chunk_draws(monkeypatch):
    # so the helper reads the first chunk's leaf uniforms while the walk draws the levels above them
    on_cpus(monkeypatch, 2)
    made = made_read_aheads(monkeypatch)
    asked, sample_pairs = [], Fractional.sample_pairs

    def sampling(model, rng, size):
        asked.append([sorted(ahead._asked) for ahead in made])
        return sample_pairs(model, rng, size)

    monkeypatch.setattr(Fractional, "sample_pairs", sampling)
    walk = cascade.grid_chunks(cascade.build(Fractional(2, 0.75, 0.6), seed=2, depth=20))
    next(walk)
    walk.close()
    # levels 1 .. 12 whole, before the helper starts; then the first chunk's levels 13 .. 20
    assert asked == [[]] * 12 + [[["random"]]] * 8


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no thread affinity on this platform")
def test_read_ahead_helper_leaves_the_callers_cpus_alone():
    # the helper keeps itself off the caller's CPU; the caller may still run on every CPU it could
    cpus = os.sched_getaffinity(0)
    cascade.grid_min_max(cascade.build(FRAC, seed=1, depth=18), 10)
    assert os.sched_getaffinity(0) == cpus
