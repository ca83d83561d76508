import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cascadelab import predict
from cascadelab.errors import ConfigError, DivergenceError, NoRootError
from cascadelab.weights import (
    DiscreteTable,
    Fractional,
    LognormalSigned,
    Mixed,
    SignedModulus,
    SignJoint,
    check_assumptions,
    sigma_from_beta,
)


def lognormal_beta(b, alpha, beta, sign_joint=None):
    return LognormalSigned(b, alpha, sigma_from_beta(beta, b), sign_joint)


def mixed_beta(b, alpha, beta):
    return Mixed(b, alpha, sigma_from_beta(beta, b))


LN_UNIT = lognormal_beta(2, 1.0, 0.25)  # signed lognormal, alpha = 1
LN = lognormal_beta(2, 0.8, 0.25)
MIXED = mixed_beta(2, 0.8, 0.1)
FRAC_EQ = Fractional(2, 0.75, 0.75)
FRAC_NE = Fractional(2, 0.6, 0.8)


# ---------------------------------------------------------------------------
# root solvers


def test_equal_alpha_fractional_roots():
    assert predict.solve_xi(FRAC_EQ, 0.6) == pytest.approx(0.8, abs=1e-10)
    assert predict.solve_zeta(FRAC_EQ, 0.6) == pytest.approx(0.8, abs=1e-10)


def test_unequal_alpha_fractional_roots():
    # max_k E|W_k|^x = 2^(-0.6 x), so xi = xi0 / 0.6
    for xi0 in (0.3, 0.6, 0.45):
        assert predict.solve_xi(FRAC_NE, xi0) == pytest.approx(xi0 / 0.6, abs=1e-10)
    # cross moment: min exponent is 0.8(z-1) + 0.6 below the crossover
    assert predict.solve_zeta(FRAC_NE, 0.5) == pytest.approx(0.875, abs=1e-10)


def test_root_certificate():
    for model in (FRAC_EQ, FRAC_NE, LN, MIXED):
        for xi0 in (0.25, 0.5, 0.75):
            xi = predict.solve_xi(model, xi0)
            psi = max(model.joint_moment(xi, 0.0), model.joint_moment(0.0, xi))
            assert abs(psi - model.base**-xi0) <= 1e-10
            z = predict.solve_zeta(model, xi0)
            psi_t = max(
                model.joint_moment(z - 1.0, 1.0), model.joint_moment(1.0, z - 1.0)
            )
            assert abs(psi_t - model.base**-xi0) <= 1e-10


def test_xi0_zero():
    assert predict.solve_xi(FRAC_EQ, 0.0) == 0.0


def test_xi0_out_of_range():
    with pytest.raises(ConfigError):
        predict.solve_xi(FRAC_EQ, 1.5)


def test_no_root_is_surfaced():
    # root sits at 1.5, beyond a search interval of [0, 1]
    with pytest.raises(NoRootError):
        predict._smallest_root(predict._psi(FRAC_NE), FRAC_NE.base**-0.9, 1.0)


# ---------------------------------------------------------------------------
# crossover exponent


def test_xi_star_values():
    assert predict.xi_star(FRAC_EQ) == pytest.approx(0.75, abs=1e-12)
    assert predict.xi_star(FRAC_NE) == pytest.approx(0.6, abs=1e-12)
    # E|W_k| = 2^-alpha for the shared-lognormal kind
    assert predict.xi_star(LN) == pytest.approx(0.8, abs=1e-12)


def test_xi_star_out_of_range_is_an_error():
    bad = DiscreteTable(2, (((1.5, 1.5), 0.5), ((-0.5, -0.5), 0.5)))
    with pytest.raises(NoRootError):
        predict.xi_star(bad)


def test_both_roots_hit_one_at_the_crossover():
    for model in (FRAC_NE, LN, MIXED):
        xs = predict.xi_star(model)
        assert predict.solve_xi(model, xs) == pytest.approx(1.0, abs=1e-8)
        assert predict.solve_zeta(model, xs) == pytest.approx(1.0, abs=1e-8)


def test_branch_ordering_around_the_crossover():
    # xi <= zeta below xi_star, zeta <= xi above
    xs = predict.xi_star(FRAC_NE)
    for xi0 in np.arange(1.0 / 256.0, 1.0, 1.0 / 64.0):
        xi = predict.solve_xi(FRAC_NE, float(xi0))
        zeta = predict.solve_zeta(FRAC_NE, float(xi0))
        if xi0 < xs:
            assert xi <= zeta + 1e-10
        else:
            assert zeta <= xi + 1e-10


def test_roots_are_monotone_in_xi0():
    grid = np.arange(1.0 / 256.0, 1.0 + 1e-12, 1.0 / 256.0)
    for model in (LN, MIXED):
        xis = [predict.solve_xi(model, float(x)) for x in grid]
        zetas = [predict.solve_zeta(model, float(x)) for x in grid]
        dims = [predict.predicted_image_dim(model, float(x))[0] for x in grid]
        for seq in (xis, zetas, dims):
            assert all(b >= a - 1e-10 for a, b in zip(seq, seq[1:]))


# ---------------------------------------------------------------------------
# closed forms


def test_signed_lognormal_closed_form_at_half():
    # beta*xi^2 - (alpha+beta)*xi + xi0 = 0 with alpha=1, beta=1/4, xi0=1/2
    want = (5.0 - math.sqrt(17.0)) / 2.0
    assert predict.closed_form_image_dim(LN_UNIT, 0.5) == pytest.approx(want, abs=1e-12)
    assert predict.solve_xi(LN_UNIT, 0.5) == pytest.approx(want, abs=1e-10)


def test_signed_lognormal_residuals_on_a_grid():
    a, b = LN.alpha, LN.beta
    for xi0 in np.arange(1.0 / 64.0, 1.0 + 1e-12, 1.0 / 64.0):
        xi = predict.solve_xi(LN, float(xi0))
        assert abs(b * xi * xi - (a + b) * xi + xi0) <= 1e-8


def test_signed_lognormal_max_dim():
    a, b = 0.8, 0.25
    want = (a + b - math.sqrt((a + b) ** 2 - 4.0 * b)) / (2.0 * b)
    got, branch = predict.predicted_image_dim(lognormal_beta(2, a, b), 1.0)
    assert got == pytest.approx(want, abs=1e-8)
    assert want == pytest.approx(1.459688, abs=1e-6)


def test_mixed_phase_transition_is_continuous():
    a = MIXED.alpha
    lo = predict.closed_form_image_dim(MIXED, a - 1e-9)
    hi = predict.closed_form_image_dim(MIXED, a + 1e-9)
    assert abs(hi - lo) <= 1e-6
    # the two quadratic branches agree exactly at xi0 = alpha
    left = predict.closed_form_image_dim(MIXED, a)
    m2 = mixed_beta(2, a, MIXED.beta)
    b = m2.beta
    right = ((1 + b) - math.sqrt((1 + b) ** 2 - 4 * b * (a + 1 - a))) / (2 * b)
    assert left == pytest.approx(right, abs=1e-8)


def test_mixed_solver_matches_closed_form_across_the_transition():
    for xi0 in (0.2, 0.5, 0.79, 0.81, 0.95, 1.0):
        dim, _ = predict.predicted_image_dim(MIXED, xi0)
        assert dim == pytest.approx(predict.closed_form_image_dim(MIXED, xi0), abs=1e-8)


def test_mixed_beta_zero_degenerates_to_affine_law():
    m = Mixed(2, 0.8, 0.0)
    assert predict.closed_form_image_dim(m, 0.5) == pytest.approx(0.625, abs=1e-12)
    assert predict.closed_form_image_dim(m, 1.0) == pytest.approx(1.2, abs=1e-12)
    dim, _ = predict.predicted_image_dim(m, 1.0)
    assert dim == pytest.approx(1.2, abs=1e-8)


def test_closed_form_is_none_for_a_table():
    table = DiscreteTable(2, (((0.3, 0.7), 0.5), ((0.7, 0.3), 0.5)))
    assert predict.closed_form_image_dim(table, 0.5) is None
    assert all(row.closed_form is None for row in predict.kpz_curve(table, [0.25, 0.5]))


def test_fractional_closed_form_across_its_transition():
    # xi0 / 0.6 up to the transition at xi0 = alpha1 = 0.6, then 1 + (xi0 - 0.6) / 0.9
    m = Fractional(2, 0.6, 0.9)
    assert f"{predict.closed_form_image_dim(m, 0.5):.12g}" == "0.833333333333"  # as predict.csv prints it
    assert predict.closed_form_image_dim(m, 0.6) == pytest.approx(1.0, abs=1e-15)
    assert predict.closed_form_image_dim(m, 0.9) == pytest.approx(4.0 / 3.0, abs=1e-15)
    for xi0, branch in ((0.3, "xi"), (0.59, "xi"), (0.61, "zeta"), (0.9, "zeta"), (1.0, "zeta")):
        dim, got = predict.predicted_image_dim(m, xi0)
        assert got == branch
        assert dim == pytest.approx(predict.closed_form_image_dim(m, xi0), abs=1e-10)
    rows = predict.kpz_curve(m, np.linspace(0.0, 1.0, 17))  # cross-checks each row
    assert all(row.closed_form is not None for row in rows)


def test_closed_form_drops_a_quadratic_without_a_real_root():
    # mixed, alpha 0.8, xi0 1: the xi quadratic has no real root for beta in (0.306, 0.42), neither has at beta 1
    m = mixed_beta(2, 0.8, 0.35)
    beta = m.beta
    assert (0.8 + beta) ** 2 - 4.0 * beta < 0
    want = 2.0 * 1.2 / (1.0 + beta + math.sqrt((1.0 + beta) ** 2 - 4.0 * beta * 1.2))
    assert predict.closed_form_image_dim(m, 1.0) == pytest.approx(want, rel=1e-14)
    with pytest.raises(NoRootError):
        predict.closed_form_image_dim(mixed_beta(2, 0.8, 1.0), 1.0)


def test_closed_form_of_a_tiny_beta_does_not_cancel_to_zero():
    # beta about 8e-122: (bcoef - sqrt(disc)) / (2 beta) read 0.0 here
    m = LognormalSigned(2, 1.0, 3.419906795019016e-61, SignJoint(1.0, 0.0, 0.0, 0.0))
    assert predict.closed_form_image_dim(m, 1.0) == 1.0
    assert predict.closed_form_image_dim(m, 0.5) == 0.5


# ---------------------------------------------------------------------------
# image-dimension law and branches


def test_identical_weights_cap_at_one():
    p = (1.0 + 2**-0.2) / 2.0
    ident = lognormal_beta(2, 0.8, 0.25, SignJoint(p, 0.0, 0.0, 1.0 - p))
    assert ident.identical_weights()
    dim, branch = predict.predicted_image_dim(ident, 1.0)
    assert (dim, branch) == (1.0, "capped")
    dim, branch = predict.predicted_image_dim(ident, 0.5)
    assert branch == "xi" and dim < 1.0


def test_kpz_curve_rows():
    rows = predict.kpz_curve(LN, np.linspace(1.0 / 16.0, 1.0, 16))
    assert len(rows) == 16
    for row in rows:
        assert row.xi_star == pytest.approx(0.8, abs=1e-12)
        assert row.predicted_dim == pytest.approx(min(row.xi, row.zeta), abs=1e-12)
        assert abs(row.closed_form - row.predicted_dim) <= 1e-8
        assert row.branch in ("xi", "zeta")


# ---------------------------------------------------------------------------
# spectrum and level sets


def test_legendre_point_fractional():
    pt = predict.legendre_point(FRAC_NE, (1.0, 0.0), 0.7)
    assert pt.alpha == (0.6, 0.8)
    assert pt.dim_level_set == pytest.approx(0.7, abs=1e-12)
    assert pt.in_j


def test_legendre_point_lognormal():
    m = lognormal_beta(2, 0.9, 0.2)
    pt = predict.legendre_point(m, (0.5, 0.5), 0.6)
    assert pt.alpha[0] == pytest.approx(0.7, abs=1e-12)
    assert pt.alpha[1] == pytest.approx(0.7, abs=1e-12)
    assert pt.dim_level_set == pytest.approx(0.4, abs=1e-12)


def test_restricted_image_dim():
    f = predict.restricted_image_dim
    assert f((0.6, 0.8), 0.5, False) == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert f((0.6, 0.8), 0.7, False) == pytest.approx(1.125, abs=1e-12)
    assert f((0.6, 0.8), 0.7, True) == pytest.approx(1.0, abs=1e-12)
    assert f((0.5, 0.5), 0.4, True) == pytest.approx(0.8, abs=1e-12)
    with pytest.raises(ConfigError):
        f((0.0, 0.5), 0.5, False)
    with pytest.raises(ConfigError):
        f((0.5, 0.5), 1.5, False)


def test_predicted_levelset_dim():
    m = Fractional(2, 0.7, 0.9)
    assert predict.predicted_levelset_dim(m, 1) == pytest.approx(0.3, abs=1e-12)
    assert predict.predicted_levelset_dim(m, 2) == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(ConfigError):
        predict.predicted_levelset_dim(LN, 1)
    with pytest.raises(ConfigError):
        predict.predicted_levelset_dim(m, 3)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=40, deadline=None)
@given(st.floats(0.55, 1.0), st.floats(0.55, 1.0), st.floats(0.05, 1.0))
def test_fractional_xi_closed_form_property(a1, a2, xi0):
    m = Fractional(2, a1, a2)
    want = xi0 / min(a1, a2)
    if want > predict.Q_MAX:
        return
    assert predict.solve_xi(m, xi0) == pytest.approx(want, abs=1e-9)


@st.composite
def signed_modulus_models(draw):
    """A fractional, signed lognormal or mixed model that passes the assumption check."""
    kind = draw(st.sampled_from(["fractional", "lognormal", "mixed"]))
    b = draw(st.sampled_from([2, 3, 7]))
    alpha = draw(st.floats(0.51, 1.0))
    if kind == "fractional":
        model = Fractional(b, alpha, draw(st.floats(0.51, 1.0)))
    else:
        beta = draw(st.floats(0.0, 0.45))
        model = (lognormal_beta if kind == "lognormal" else mixed_beta)(b, alpha, beta)
    assume(check_assumptions(model).all_ok)
    return model


@settings(max_examples=60, deadline=None)
@given(signed_modulus_models(), st.floats(0.0, 1.0))
def test_closed_form_equals_the_solver_off_the_capped_branch(model, xi0):
    dim, branch = predict.predicted_image_dim(model, xi0)
    assume(branch != "capped")
    assert abs(predict.closed_form_image_dim(model, xi0) - dim) <= 1e-8


# ---------------------------------------------------------------------------
# the grid search against the linear-scan root finder


def linear_scan_root(f, target, hi, step=predict.SCAN_STEP):
    """Walk the grid left to right, then bisect the first crossing."""
    prev_x, prev_v = 0.0, f(0.0)
    if prev_v <= target:
        if abs(prev_v - target) <= predict.ROOT_TOL:
            return 0.0
        raise NoRootError("curve starts below target")
    for i in range(1, int(round(hi / step)) + 1):
        x = i * step
        if f(x) <= target:
            lo, hi_b = prev_x, x
            for _ in range(100):
                mid = 0.5 * (lo + hi_b)
                if f(mid) <= target:
                    hi_b = mid
                else:
                    lo = mid
                if hi_b - lo <= predict.ROOT_TOL:
                    break
            return 0.5 * (lo + hi_b)
        prev_x = x
    raise NoRootError("no root")


def outcome(fn, *args):
    try:
        return fn(*args)
    except NoRootError as e:
        return type(e)


def xi_curve(model):
    return lambda x: max(model.joint_moment(x, 0.0), model.joint_moment(0.0, x))


def zeta_curve(model):
    return lambda z: max(model.joint_moment(z - 1.0, 1.0), model.joint_moment(1.0, z - 1.0))


def oracle_solves(model, xi0):
    """(xi, zeta) from the linear scan, set up exactly as solve_xi/solve_zeta do."""
    target = model.base**-xi0
    xi = 0.0 if xi0 == 0.0 else outcome(linear_scan_root, xi_curve(model), target, predict.Q_MAX)
    zeta = outcome(linear_scan_root, zeta_curve(model), target, predict.Q_MAX + 1.0)
    return xi, zeta


ORACLE_MODELS = [
    model
    for b in (2, 3, 4, 7)
    for model in (
        Fractional(b, 0.75, 0.75),
        Fractional(b, 0.6, 0.9),
        lognormal_beta(b, 0.8, 0.1),
        lognormal_beta(b, 0.5, 0.6),
        mixed_beta(b, 0.8, 0.1),
        mixed_beta(b, 1.0, 0.0),
        DiscreteTable(b, (((0.3, 0.7), 0.5), ((0.7, 0.3), 0.5))),
        DiscreteTable(b, (((0.0, 0.5), 0.3), ((0.4, -0.2), 0.7))),  # zeta infinite on [0, 1)
        DiscreteTable(b, (((1.0, 1.0), 1.0),)),  # flat curve: no crossing below 1
    )
]


@pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: f"{type(m).__name__}-b{m.base}")
def test_grid_bisection_equals_linear_scan(model):
    for xi0 in (0.0, 1.0 / 3.0, 0.5, 0.9, 1.0):
        got = (
            outcome(predict.solve_xi, model, xi0),
            outcome(predict.solve_zeta, model, xi0),
        )
        assert got == oracle_solves(model, xi0)


def test_curve_with_no_crossing_raises_like_the_scan():
    def f(x):  # log-convex, minimum 0.6 at x = 1
        return 0.6 * math.exp((x - 1.0) ** 2)

    for hi in (0.5, 4.0):
        with pytest.raises(NoRootError):
            predict._smallest_root((f,), 0.5, hi)
        assert outcome(linear_scan_root, f, 0.5, hi) is NoRootError
    assert predict._smallest_root((f,), 0.7, 4.0) == linear_scan_root(f, 0.7, 4.0)


def test_non_convex_curve_keeps_its_first_crossing():
    def bump(x):  # crosses 0.85 at 0.375, rises above it on [0.75, 1.125), then falls for good
        if x < 0.5:
            return 1.0 - 0.4 * x
        if x < 1.0:
            return 0.8 + 0.2 * (x - 0.5)
        return 0.9 - 0.4 * (x - 1.0)

    root = predict._smallest_root((bump,), 0.85, 4.0)
    assert root == linear_scan_root(bump, 0.85, 4.0) == 0.37499999999954525


@pytest.mark.parametrize("model", ORACLE_MODELS[:9], ids=lambda m: f"{type(m).__name__}-b{m.base}")
def test_sweep_evaluates_each_grid_point_once_in_ascending_order(model):
    grid = [i / 256 for i in range(257)]
    for curve, hi in ((xi_curve(model), predict.Q_MAX), (zeta_curve(model), predict.Q_MAX + 1.0)):
        indices = []

        def f(x, curve=curve):
            i = x / predict.SCAN_STEP
            if i.is_integer():  # a grid point: the cell bisection's points lie strictly inside a cell
                indices.append(int(i))
            return curve(x)

        table = []
        roots = [outcome(predict._smallest_root, (f,), model.base**-xi0, hi, table) for xi0 in grid]
        last_cell = (
            int(round(hi / predict.SCAN_STEP))
            if NoRootError in roots
            else math.ceil(max(roots) / predict.SCAN_STEP)
        )
        assert len(set(indices)) == len(indices)
        assert indices == sorted(indices)
        assert max(indices) <= last_cell


# ---------------------------------------------------------------------------
# wide search intervals and the per-model memo


@pytest.mark.parametrize("q_max", [4.0, 100.0, 200.0, 250.0, 300.0, 1000.0])
def test_wide_search_interval_keeps_the_root(q_max):
    m = lognormal_beta(2, 0.8, 0.1)  # both curves overflow to inf from about 105.8 on
    target = m.base**-0.5
    xi = predict._smallest_root(predict._psi(m), target, q_max)
    zeta = predict._smallest_root(predict._psi_tilde(m), target, q_max + 1.0)
    assert xi == linear_scan_root(xi_curve(m), target, q_max)
    assert zeta == linear_scan_root(zeta_curve(m), target, q_max + 1.0)
    assert xi == 0.5948751620467192
    if q_max == predict.Q_MAX:
        assert (predict.solve_xi(m, 0.5), predict.solve_zeta(m, 0.5)) == (xi, zeta)


def test_curve_that_overflows_past_its_minimum_keeps_its_root():
    def f(x):  # log-convex, minimum 0.6 at x = 1, inf from x of about 27.6 on
        return 0.6 * math.exp((x - 1.0) ** 2) if (x - 1.0) ** 2 < 709.0 else math.inf

    for hi in (4.0, 100.0, 1000.0):
        assert predict._smallest_root((f,), 0.7, hi) == linear_scan_root(f, 0.7, hi)
        with pytest.raises(NoRootError):
            predict._smallest_root((f,), 0.5, hi)


def test_finite_point_tells_a_leading_infinite_stretch_from_an_overflow():
    def f(x):  # inf on [0, 0.5), then log-convex with minimum 0.6 at x = 1, inf from x of about 27.6 on
        return 0.6 * math.exp((x - 1.0) ** 2) if 0.5 <= x and (x - 1.0) ** 2 < 709.0 else math.inf

    for hi in (4.0, 100.0, 1000.0):
        assert predict._smallest_root((f,), 0.7, hi) == linear_scan_root(f, 0.7, hi)
        with pytest.raises(NoRootError):
            predict._smallest_root((f,), 0.5, hi)


@pytest.mark.parametrize("q_max", [4.0, 2000.0, 2100.0, 3000.0])
def test_zeta_root_between_a_leading_infinite_stretch_and_an_overflow(q_max):
    # zeta is infinite on [0, 1), where an atom of |W1| is 0, and overflows past its minimum
    m = DiscreteTable(2, (((0.0, 0.5), 0.3), ((2.0, -0.2), 0.7)))
    target = m.base**-0.5
    want = linear_scan_root(zeta_curve(m), target, q_max + 1.0)
    zeta = predict._smallest_root(predict._psi_tilde(m), target, q_max + 1.0)
    assert zeta == want == 1.4244002341588384
    if q_max == predict.Q_MAX:
        assert predict.solve_zeta(m, 0.5) == zeta


def oracle_rows(model, grid):
    """kpz_curve's rows, each root from the linear scan."""
    xs = predict.xi_star(model)
    rows = []
    for xi0 in grid:
        xi, zeta = oracle_solves(model, xi0)
        if NoRootError in (xi, zeta):
            raise NoRootError
        if model.identical_weights():
            dim, branch = (xi, "xi") if xi <= 1.0 else (1.0, "capped")
        else:
            dim, branch = (xi, "xi") if xi <= zeta else (zeta, "zeta")
        rows.append(predict.PredictionRow(xi0, xi, zeta, xs, dim, branch, predict.closed_form_image_dim(model, xi0)))
    return rows


@pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: f"{type(m).__name__}-b{m.base}")
def test_assumption_report_equals_the_two_branch_scan(model, monkeypatch):
    got = check_assumptions(model)
    monkeypatch.setattr(SignedModulus, "symmetric_moments", lambda self: False)
    assert repr(got) == repr(check_assumptions(model))


def max_of_branches(curve):
    """``curve`` as the one branch that is the max of its branches: every point evaluates all of them."""

    def one_branch(model):
        branches = curve(model)
        return (lambda x: max(g(x) for g in branches),)

    one_branch.__name__ = curve.__name__
    return one_branch


@pytest.mark.parametrize("model, ratio", [
    (lognormal_beta(2, 0.8, 0.1), 0.5),  # one branch
    (mixed_beta(2, 0.8, 0.1), 0.8),  # two branches, each cell step stopping at the first above the target
], ids=["lognormal", "mixed"])
def test_kpz_curve_evaluates_only_the_deciding_branches(model, ratio, monkeypatch):
    grid = [i / 256 for i in range(257)]
    calls = [0]
    moment = type(model).joint_moment

    def counted(self, q1, q2):
        calls[0] += 1
        return moment(self, q1, q2)

    monkeypatch.setattr(type(model), "joint_moment", counted)
    rows = predict.kpz_curve(dataclasses.replace(model), grid)
    branch_wise = calls[0]
    calls[0] = 0
    monkeypatch.setattr(SignedModulus, "symmetric_moments", lambda self: False)
    for name in ("_psi", "_psi_tilde"):
        monkeypatch.setattr(predict, name, max_of_branches(getattr(predict, name)))
    assert repr(predict.kpz_curve(dataclasses.replace(model), grid)) == repr(rows)
    assert branch_wise <= ratio * calls[0]


def memo_sizes(model):
    """(grid points tabulated, roots) held for the xi and the zeta curve."""
    return [tuple(map(len, vars(model).get(name, ([], {})))) for name in ("_psi_memo", "_psi_tilde_memo")]


@pytest.mark.parametrize("model", ORACLE_MODELS, ids=lambda m: f"{type(m).__name__}-b{m.base}")
def test_memoized_kpz_curve_equals_the_linear_scan_rows(model):
    model = dataclasses.replace(model)  # a fresh object, with no memo
    grid = [i / 16 for i in range(17)]
    want = outcome(oracle_rows, model, grid)
    first = outcome(predict.kpz_curve, model, grid)
    sizes = memo_sizes(model)
    second = outcome(predict.kpz_curve, model, grid)
    assert repr(first) == repr(want) and repr(second) == repr(want)
    assert memo_sizes(model) == sizes
    if want is NoRootError:
        return
    b = model.base
    for name, hi, solved in (("_psi_memo", predict.Q_MAX, grid[1:]), ("_psi_tilde_memo", predict.Q_MAX + 1.0, grid)):
        table, roots = vars(model)[name]
        assert len(table) <= hi / predict.SCAN_STEP + 1
        assert set(roots) == {b**-xi0 for xi0 in solved}


def test_memo_does_not_keep_its_model_alive():
    gc.disable()
    try:
        model = lognormal_beta(2, 0.8, 0.1)
        predict.kpz_curve(model, [0.0, 0.5, 1.0])
        assert memo_sizes(model)[0][0] > 0
        ref = weakref.ref(model)
        del model
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("q", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_non_finite_legendre_q_is_a_config_error(q):
    for model in (FRAC_NE, LN, MIXED):
        with pytest.raises(ConfigError):
            predict.legendre_point(model, q, 0.5)


@pytest.mark.parametrize("alpha, dim", [((math.nan, 0.5), 0.5), ((0.5, math.inf), 0.5), ((0.5, 0.5), math.nan)])
def test_non_finite_restricted_image_dim_inputs_are_config_errors(alpha, dim):
    with pytest.raises(ConfigError):
        predict.restricted_image_dim(alpha, dim, False)


def test_legendre_point_of_an_overflowing_moment_is_a_divergence_error():
    with pytest.raises(DivergenceError):
        predict.legendre_point(LN, (-200.0, -200.0), 0.5)
