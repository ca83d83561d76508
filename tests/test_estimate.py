import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadelab import cascade, estimate
from cascadelab.errors import (
    CascadeLabError,
    ConfigError,
    DegenerateRangeError,
    DivergenceError,
    ZeroOscillationError,
)
from cascadelab.estimate import TestSet as CantorSet
from cascadelab.estimate import cantor_set, fit_loglog
from cascadelab.weights import DiscreteTable, Fractional, LognormalSigned, SignJoint, sigma_from_beta
from cascadelab.words import word_from_index
from helpers import oscillations, word_index

IDENTITY2 = Fractional(2, 1.0, 1.0, SignJoint(1.0, 0.0, 0.0, 0.0))
IDENTITY3 = Fractional(3, 1.0, 1.0, SignJoint(1.0, 0.0, 0.0, 0.0))
FRAC = Fractional(2, 0.75, 0.75)


# ---------------------------------------------------------------------------
# test sets


def test_middle_thirds_cantor_set():
    ts = cantor_set(3, (0, 2), 8)
    assert len(ts.word_indices()) == 256
    assert ts.dimension == pytest.approx(math.log(2) / math.log(3), abs=1e-12)
    assert ts.word_level == 8


def test_small_cantor_indices_by_hand():
    ts = cantor_set(3, (0, 2), 2)
    assert ts.word_indices().tolist() == [0, 2, 6, 8]
    assert [str(word_from_index(int(j), 2, 3)) for j in ts.word_indices()] == ["00", "02", "20", "22"]


def test_block_cantor_set_on_binary_base():
    # a base-4 Cantor set carried by a base-2 cascade
    ts = cantor_set(2, (0, 3), 3, block=2)
    assert ts.word_level == 6
    assert ts.dimension == pytest.approx(0.5, abs=1e-12)
    idx = ts.word_indices()
    assert len(idx) == 8
    assert idx[0] == 0 and idx[-1] == 4**3 - 1
    # digit blocks of every survivor are 00 or 11
    for j in idx:
        w = word_from_index(int(j), ts.word_level, 2)
        pairs = [w[i : i + 2] for i in range(0, 6, 2)]
        assert all(p in ("00", "11") for p in pairs)


def test_full_alphabet_test_set_is_the_unit_interval():
    ts = cantor_set(2, (0, 1), 3)
    assert ts.dimension == 1.0
    assert ts.word_indices().tolist() == list(range(8))


def test_invalid_test_sets():
    with pytest.raises(ConfigError):
        cantor_set(2, (), 3)
    with pytest.raises(ConfigError):
        cantor_set(2, (0, 2), 3)  # digit out of range for block=1
    with pytest.raises(ConfigError):
        cantor_set(2, (0, 0), 3)


def test_test_set_rule_message_names_the_rule_and_the_values():
    assert cantor_set(2, (0,), 0).word_indices().tolist() == [0]  # 0 generations is valid
    with pytest.raises(ConfigError, match=r"block >= 1 and generations >= 0, got block 1, generations -1"):
        cantor_set(2, (0,), -1)
    with pytest.raises(ConfigError, match=r"got block 0, generations 2"):
        cantor_set(2, (0,), 2, block=0)


@pytest.mark.parametrize(
    "args",
    [
        (2, (0, 1), 2.5),  # was accepted, then image_box_dim raised a TypeError
        (2, (1, 1.5), 3),  # was read as the digits (1, 1): dimension 1.0, indices [7] * 8
        (2, (0, True), 3),
        (2, (0,), 3, 1.0),
        (2.0, (0,), 3),
        (1, (0,), 3),
    ],
)
def test_test_set_arguments_that_are_not_integers_are_config_errors(args):
    with pytest.raises(ConfigError):
        cantor_set(*args)


def test_test_set_holds_numpy_integers_as_ints():
    ts = cantor_set(np.int64(3), (np.int32(2), np.int64(0)), np.int8(2))
    assert (ts.base, ts.keep_digits, ts.generations) == (3, (0, 2), 2)
    assert all(type(v) is int for v in (ts.base, ts.block, ts.generations, *ts.keep_digits))
    assert ts.word_indices().tolist() == [0, 2, 6, 8]


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(1, 2), st.integers(1, 4))
def test_test_set_properties(base, block, gens):
    big = base**block
    keep = tuple(range(0, big, 2))
    ts = CantorSet(base, block, keep, gens)
    idx = ts.word_indices()
    assert len(idx) == len(keep) ** gens
    assert np.all(np.diff(idx) > 0)
    assert 0.0 <= ts.dimension <= 1.0


# ---------------------------------------------------------------------------
# regression helper


def test_fit_loglog_exact_line():
    xs = np.arange(2, 10)
    slope, stderr, r2 = fit_loglog(xs, 1.5 * xs - 3.0)
    assert slope == pytest.approx(1.5, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_loglog_degenerate():
    with pytest.raises(DegenerateRangeError):
        fit_loglog([3.0], [1.0])
    with pytest.raises(DegenerateRangeError):
        fit_loglog([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# image box counting


def test_identity_image_of_unit_interval_has_dim_one():
    real = cascade.build(IDENTITY2, seed=0, depth=14)
    ts = cantor_set(2, (0, 1), 4)
    est = estimate.image_box_dim(real, ts)
    assert est.value == pytest.approx(1.0, abs=0.05)
    assert est.r_squared > 0.99


def test_identity_image_of_middle_thirds_cantor_set():
    # the diagonal embedding preserves dimension: log 2 / log 3
    real = cascade.build(IDENTITY3, seed=0, depth=13)
    ts = cantor_set(3, (0, 2), 9)
    est = estimate.image_box_dim(real, ts)
    assert est.value == pytest.approx(math.log(2) / math.log(3), abs=0.05)


def test_image_box_dim_counts_are_monotone_in_scale():
    real = cascade.build(FRAC, seed=3, depth=16)
    est = estimate.image_box_dim(real, cantor_set(2, (0, 1), 4))
    counts = [c for _, c in est.counts_per_scale]
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert 0.0 <= est.value <= 2.0


def test_image_box_dim_guards():
    real = cascade.build(FRAC, seed=0, depth=8)
    with pytest.raises(ConfigError):
        estimate.image_box_dim(real, cantor_set(3, (0, 2), 2))
    with pytest.raises(ConfigError):
        estimate.image_box_dim(real, cantor_set(2, (0, 1), 7))  # deeper than n-4


# ---------------------------------------------------------------------------
# partition function


def test_identity_partition_function_is_exact():
    real = cascade.build(IDENTITY2, seed=0, depth=12)
    for q in ((1.0, 0.0), (1.0, 1.0), (0.5, 0.5)):
        (est,) = estimate.partition_function(real, [q], 2, 10)
        assert est.value == pytest.approx(1.0 - (q[0] + q[1]), abs=1e-10)
        assert est.r_squared == pytest.approx(1.0, abs=1e-12)


def test_zero_q_partition_function_counts_cells():
    real = cascade.build(FRAC, seed=1, depth=10)
    (est,) = estimate.partition_function(real, [(0.0, 0.0)], 2, 8)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_partition_function_tracks_one_minus_phi():
    real = cascade.build(FRAC, seed=7, depth=14)
    q = (1.0, 1.0)
    (est,) = estimate.partition_function(real, [q], 3, 10)
    assert est.value == pytest.approx(1.0 - FRAC.phi(*q), abs=0.1)


def test_partition_function_negative_q_with_zero_oscillation():
    zero_atom = DiscreteTable(2, (((0.0, 0.5), 0.5), ((1.0, 0.5), 0.5)))
    real = cascade.build(zero_atom, seed=2, depth=10)
    with pytest.raises(ZeroOscillationError):
        estimate.partition_function(real, [(-0.5, 0.0)], 3, 8)


def coarsest_zero_level(real, lo, hi):
    levels = [m for m in range(lo, hi + 1) if (oscillations(real, m)[0] == 0.0).any()]
    assert levels and levels[0] < hi  # a finest-first report would name another level
    return levels[0]


def test_zero_oscillation_reports_the_coarsest_level():
    zero_atom = DiscreteTable(2, (((0.0, 0.5), 0.5), ((1.0, 0.5), 0.5)))
    real = cascade.build(zero_atom, seed=2, depth=10)
    m0 = coarsest_zero_level(real, 3, 8)
    with pytest.raises(ZeroOscillationError, match=rf"level {m0} with negative q"):
        estimate.partition_function(real, [(-0.5, 0.0)], 3, 8)
    with pytest.raises(ZeroOscillationError, match=rf"level {m0}$"):
        estimate.holder_exponents(real, np.arange(2**8), 3, 8)


ZERO_ATOM = DiscreteTable(2, (((0.0, 0.5), 0.5), ((1.0, 0.5), 0.5)))
LOGNORMAL = LognormalSigned(2, 0.8, sigma_from_beta(0.1, 2))


def raised(call):
    """The type and message of the CascadeLabError that ``call()`` raises."""
    with pytest.raises(CascadeLabError) as e:
        call()
    return type(e.value), str(e.value)


@pytest.mark.parametrize("model, seed, qs, lo, hi", [
    (ZERO_ATOM, 2, [(1.0, 1.0), (-0.5, 0.0)], 3, 8),
    (ZERO_ATOM, 2, [(1.0, 1.0), (-0.5, 0.0), (0.0, -0.5)], 3, 8),
    (LOGNORMAL, 0, [(1.0, 1.0), (-200.0, -200.0)], 2, 6),
    (LOGNORMAL, 0, [(-200.0, 200.0), (-200.0, -200.0)], 2, 6),  # the first fails at level 4, the second at 3
    (LOGNORMAL, 0, [(1.0, 1.0), (math.nan, 0.0), (-200.0, -200.0)], 2, 6),
    (LOGNORMAL, 0, [(-200.0, -200.0), (1.0, math.inf)], 2, 6),
    (LOGNORMAL, 0, [(math.inf, 1.0), (-200.0, -200.0)], 2, 6),
    (LOGNORMAL, 0, [(1.0, 1.0), (math.nan, 0.0)], 6, 6),  # a one-level window, then a q that is not finite
    (LOGNORMAL, 0, [(math.nan, 0.0), (1.0, 1.0)], 6, 6),
], ids=str)
def test_several_q_raise_what_a_call_per_q_raises(model, seed, qs, lo, hi):
    real = cascade.build(model, seed=seed, depth=10)
    expected = raised(lambda: [estimate.partition_function(real, [q], lo, hi) for q in qs])
    assert raised(lambda: estimate.partition_function(real, qs, lo, hi)) == expected
    assert real._min_max == {}


def test_windows_without_two_levels_in_the_depth_are_config_errors_before_any_walk():
    real = cascade.build(FRAC, seed=1, depth=10)
    for lo, hi in ((4, 4), (1, 1), (10, 10), (6, 5), (-1, 4), (2, 11)):
        with pytest.raises(ConfigError, match=rf"bad level window \[{lo}, {hi}\]: a fit needs two levels"):
            estimate.partition_function(real, [(1.0, 1.0)], lo, hi)
        with pytest.raises(ConfigError, match=rf"bad level window \[{lo}, {hi}\]: a fit needs two levels"):
            estimate.level_set(real, 1, 0.5, hi, lo)
        with pytest.raises(ConfigError, match=rf"bad level window \[{lo}, {hi}\]: a fit needs two levels"):
            estimate.holder_exponents(real, [0], lo, hi)
    assert real._min_max == {}
    assert estimate.level_set(real, 1, 0.5, 5, 4)[1].scale_range == (4, 5)
    assert estimate.partition_function(real, [(1.0, 1.0)], 4, 5)[0].scale_range == (4, 5)
    assert [h.shape for h in estimate.holder_exponents(real, [0], 4, 5)] == [(1,), (1,)]


# ---------------------------------------------------------------------------
# Holder exponents


def test_identity_holder_exponent_is_one():
    real = cascade.build(IDENTITY2, seed=0, depth=12)
    (h1,), (h2,) = estimate.holder_exponents(real, [word_index("0110101101", 2)], 2, 10)
    assert h1 == pytest.approx(1.0, abs=1e-10)
    assert h2 == pytest.approx(1.0, abs=1e-10)


def test_fractional_holder_exponents_concentrate_at_alpha():
    real = cascade.build(FRAC, seed=5, depth=14)
    idx = np.arange(2**10)
    h1, h2 = estimate.holder_exponents(real, idx, 2, 10)
    assert h1.mean() == pytest.approx(0.75, abs=0.05)
    assert h2.mean() == pytest.approx(0.75, abs=0.05)
    assert h1.std() < 0.2


def test_holder_window_guards():
    real = cascade.build(FRAC, seed=0, depth=8)
    with pytest.raises(ConfigError):
        estimate.holder_exponents(real, [0], 5, 5)


@pytest.mark.parametrize("index", [2**6, 2**8, -1])
def test_holder_word_index_outside_the_top_level_is_a_config_error(index):
    real = cascade.build(FRAC, seed=0, depth=8)
    with pytest.raises(ConfigError):
        estimate.holder_exponents(real, [0, index], 2, 6)


@pytest.mark.parametrize("index", [2**64, 1.5, float("nan")])
def test_holder_word_index_that_is_not_an_int64_is_a_config_error(index):
    # 2**64 raised OverflowError, 1.5 was truncated to 1 and NaN raised ValueError
    real = cascade.build(FRAC, seed=0, depth=8)
    with pytest.raises(ConfigError):
        estimate.holder_exponents(real, [0, index], 2, 6)


# ---------------------------------------------------------------------------
# level sets and occupation measure


def test_identity_level_set_single_interval_per_level():
    real = cascade.build(IDENTITY2, seed=0, depth=12)
    hits, est = estimate.level_set(real, 1, 0.3, 8)
    assert len(hits) == 1
    j = int(hits[0])
    assert float(j) / 2**8 <= 0.3 <= float(j + 1) / 2**8
    assert est.value == pytest.approx(0.0, abs=1e-12)
    assert not est.empty


def test_empty_level_set_convention():
    real = cascade.build(IDENTITY2, seed=0, depth=10)
    hits, est = estimate.level_set(real, 1, 2.0, 6)
    assert hits.tolist() == []
    assert est.empty and est.value == 0.0


def test_level_crossing_counts_are_nondecreasing():
    real = cascade.build(FRAC, seed=9, depth=12)
    y = float(cascade.grid_values(real)[0][2**11])  # an attained value
    ms, counts = zip(*estimate.level_set(real, 1, y, 8)[1].counts_per_scale)
    assert ms == tuple(range(2, 9))
    assert np.all(np.diff(counts) >= 0)
    assert counts[0] >= 1


@pytest.mark.parametrize("level, fit_lo", [(8, 2), (8, 7), (12, 1), (5, 4)])
def test_level_set_reads_each_level_of_its_window_once(monkeypatch, level, fit_lo):
    real = cascade.build(FRAC, seed=9, depth=12)
    reads = []
    grid_min_max = cascade.grid_min_max
    monkeypatch.setattr(cascade, "grid_min_max", lambda r, m: reads.append(m) or grid_min_max(r, m))
    estimate.level_set(real, 1, 0.1, level, fit_lo)
    assert reads == list(range(level, fit_lo - 1, -1))  # finest first
    assert set(real._min_max) >= set(reads)  # kept for the next y


@pytest.mark.parametrize("k", [0, 3])
def test_level_set_component_outside_one_two_is_a_config_error(k):
    real = cascade.build(FRAC, seed=9, depth=10)
    with pytest.raises(ConfigError):
        estimate.level_set(real, k, 0.1, 6)


def test_occupation_histogram_identity_is_uniform():
    real = cascade.build(IDENTITY2, seed=0, depth=10)
    edges, masses = estimate.occupation_histogram(real, 1, 16)
    assert masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(masses, 1.0 / 16.0, atol=1e-12)
    assert edges[0] == pytest.approx(0.0) and len(edges) == 17


def test_occupation_histogram_guards():
    real = cascade.build(IDENTITY2, seed=0, depth=6)
    with pytest.raises(ConfigError):
        estimate.occupation_histogram(real, 1, 4)
    with pytest.raises(ConfigError):
        estimate.occupation_histogram(real, 3, 16)


@pytest.mark.parametrize("k,bin_count", [(1, 8.5), (1.0, 64), (True, 64), (1, np.float64(16))])
def test_occupation_histogram_arguments_that_are_not_integers_are_config_errors(k, bin_count):
    # a float raised a raw TypeError from np.histogram or from the component index
    real = cascade.build(IDENTITY2, seed=0, depth=6)
    with pytest.raises(ConfigError, match="must be an integer"):
        estimate.occupation_histogram(real, k, bin_count)
    edges, masses = estimate.occupation_histogram(real, np.int64(1), np.int32(16))
    assert len(edges) == 17 and masses.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("k", [1.0, True, np.float64(2)])
def test_level_set_component_that_is_not_an_integer_is_a_config_error(k):
    # 1.0 raised a raw TypeError from the component index
    real = cascade.build(FRAC, seed=9, depth=10)
    with pytest.raises(ConfigError, match="must be an integer"):
        estimate.level_set(real, k, 0.5, 8)


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
def test_non_finite_level_is_a_config_error(y):
    # NaN brackets nothing: level_set(real, 1, nan, 6) reported an empty level set
    real = cascade.build(FRAC, seed=9, depth=10)
    with pytest.raises(ConfigError, match="must be finite"):
        estimate.level_set(real, 1, y, 6)


@pytest.mark.parametrize("masses, count", [
    ([0.0, 0.0, 0.0], 4),  # raised a RuntimeWarning and drew from NaN bins
    ([0.5, -0.25, 0.75], 4),
    ([0.5, math.nan, 0.5], 4),
    ([0.5, math.inf, 0.5], 4),
    ([], 4),
    ([0.25, 0.25, 0.5], 1.5),  # TypeError
    ([0.25, 0.25, 0.5], -1),  # ValueError
    ([0.25, 0.25, 0.5], True),
])
def test_bad_occupation_masses_and_counts_are_config_errors(masses, count):
    edges = np.linspace(0.0, 1.0, len(masses) + 1)
    with pytest.raises(ConfigError):
        estimate.sample_occupation_levels(edges, np.array(masses), np.random.default_rng(0), count)


def test_sample_occupation_levels_land_in_range():
    real = cascade.build(FRAC, seed=4, depth=12)
    edges, masses = estimate.occupation_histogram(real, 1, 32)
    ys = estimate.sample_occupation_levels(edges, masses, np.random.default_rng(0), 200)
    assert np.all(ys >= edges[0]) and np.all(ys <= edges[-1])


def test_fractional_level_set_dimension_smoke():
    model = Fractional(2, 0.7, 0.7)
    real = cascade.build(model, seed=11, depth=14)
    edges, masses = estimate.occupation_histogram(real, 1, 32)
    ys = estimate.sample_occupation_levels(edges, masses, np.random.default_rng(1), 4)
    vals = []
    for y in ys:
        _, est = estimate.level_set(real, 1, float(y), 10, fit_lo=3)
        if not est.empty:
            vals.append(est.value)
    assert vals, "all sampled levels missed the range"
    assert abs(np.mean(vals) - 0.3) < 0.2


# ---------------------------------------------------------------------------
# uniform sweep


def test_uniform_sweep_smoke():
    real = cascade.build(FRAC, seed=2, depth=16)
    rows = estimate.uniform_sweep(real, [cantor_set(2, (0, 1), 4)])
    assert len(rows) == 1
    assert rows[0].prediction == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert abs(rows[0].estimate.value - rows[0].prediction) < 0.25


def test_uniform_sweep_scope_guards():
    with pytest.raises(ConfigError):
        estimate.uniform_sweep(
            cascade.build(Fractional(2, 0.6, 0.8), seed=0, depth=8), []
        )
    ln = LognormalSigned(2, 0.8, sigma_from_beta(0.1, 2))
    with pytest.raises(ConfigError):
        estimate.uniform_sweep(cascade.build(ln, seed=0, depth=8), [])
    with pytest.raises(ConfigError):
        estimate.uniform_sweep(cascade.build(IDENTITY2, seed=0, depth=8), [])


# ---------------------------------------------------------------------------
# multi-scale square counting against the set-based count


def count_squares_oracle(x0, x1, y0, y1, j):
    """The Python set loop the vectorized count replaced, at one scale."""
    scale = float(2**j)
    ix0, ix1, iy0, iy1 = (np.floor(v * scale).astype(np.int64) for v in (x0, x1, y0, y1))
    keys = set()
    for a0, a1, b0, b1 in zip(ix0, ix1, iy0, iy1):
        for ix in range(a0, a1 + 1):
            for iy in range(b0, b1 + 1):
                keys.add((ix, iy))
    return len(keys)


box = st.tuples(
    st.floats(-2.0, 2.0), st.floats(0.0, 0.6), st.floats(-2.0, 2.0), st.floats(0.0, 0.6)
)


@settings(max_examples=200, deadline=None)
@given(st.lists(box, min_size=1, max_size=40), st.integers(0, 5), st.integers(0, 4))
def test_count_squares_matches_set_oracle(boxes, j_lo, span):
    x0, wx, y0, wy = (np.array(v) for v in zip(*boxes))
    args = (x0, x0 + wx, y0, y0 + wy)
    want = [count_squares_oracle(*args, j) for j in range(j_lo, j_lo + span + 1)]
    assert estimate._square_counts(*args, j_lo, j_lo + span) == want


@pytest.mark.parametrize("block", [1, 7, 2**12])
def test_square_counts_in_blocks_match_set_oracle(monkeypatch, block):
    # neighbouring boxes share squares across block boundaries, as consecutive words' boxes do
    rng = np.random.default_rng(block)
    x0 = np.cumsum(rng.normal(0.0, 0.01, 3000))
    y0 = np.cumsum(rng.normal(0.0, 0.01, 3000))
    args = (x0, x0 + rng.random(3000) * 0.02, y0, y0 + rng.random(3000) * 0.02)
    monkeypatch.setattr(estimate, "_BOX_BLOCK", block)
    assert estimate._square_counts(*args, 3, 9) == [count_squares_oracle(*args, j) for j in range(3, 10)]


def test_count_squares_box_straddling_many_squares():
    # one box covering a 5 x 3 block of squares plus a point inside it
    x0, x1 = np.array([0.1, 0.3]), np.array([1.2, 0.3])
    y0, y1 = np.array([0.0, 0.4]), np.array([0.7, 0.4])
    assert estimate._square_counts(x0, x1, y0, y1, 2, 2) == [5 * 3]


def test_square_counts_with_odd_minimum_indices():
    # at j = 3 the smallest indices are x = 3 and y = -3, both odd; subtracting
    # them before halving would merge the squares (3, -3) and (4, -2) at j = 2
    x = np.array([3 / 8, 4 / 8, 7 / 8])
    y = np.array([-3 / 8, -2 / 8, 1 / 8])
    want = [count_squares_oracle(x, x, y, y, j) for j in range(4)]
    assert want == [2, 3, 3, 3]
    assert estimate._square_counts(x, x, y, y, 0, 3) == want


def test_square_counts_of_an_empty_window_are_empty():
    x = np.array([0.25])
    assert estimate._square_counts(x, x, x, x, 2, 1) == []


def test_image_box_dim_without_scales_is_a_degenerate_range():
    # one box [0, 1/2]^2 resolves no scale finer than j = 1, so the window 2..j_max is empty
    real = cascade.build(IDENTITY2, seed=0, depth=5)
    with pytest.raises(DegenerateRangeError):
        estimate.image_box_dim(real, cantor_set(2, (0,), 1))


@pytest.mark.parametrize("q", [(math.nan, 0.0), (1.0, math.inf), (-math.inf, 1.0)])
def test_non_finite_partition_q_is_a_config_error(q):
    with pytest.raises(ConfigError):
        estimate.partition_function(cascade.build(FRAC, seed=1, depth=8), [q], 2, 6)


@pytest.mark.parametrize("q", [(-200.0, -200.0), (-200.0, 200.0)])
def test_overflowing_partition_sum_is_a_divergence_error(q):
    # the level sums read +inf, or NaN where an overflowed power meets an underflowed one
    real = cascade.build(LognormalSigned(2, 0.8, sigma_from_beta(0.1, 2)), seed=0, depth=10)
    with pytest.raises(DivergenceError, match="overflows"):
        estimate.partition_function(real, [q], 2, 6)


@pytest.mark.parametrize("lo, hi", [(2.0, 6), (2, 6.5), (True, 6), (np.float64(2), 6)])
def test_level_windows_must_be_integers(lo, hi):
    real = cascade.build(FRAC, seed=1, depth=8)
    for call in (
        lambda: estimate.partition_function(real, [(1.0, 1.0)], lo, hi),
        lambda: estimate.holder_exponents(real, [0, 3], lo, hi),
        lambda: estimate.level_set(real, 1, 0.5, hi, lo),
    ):
        with pytest.raises(ConfigError, match="must be an integer"):
            call()
    assert estimate.partition_function(real, [(1.0, 1.0)], np.int64(2), np.int32(6))[0].scale_range == (2, 6)
