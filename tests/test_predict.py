import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadelab import predict
from cascadelab.errors import ConfigError, NoRootError
from cascadelab.weights import (
    DiscreteTable,
    Fractional,
    LognormalSigned,
    Mixed,
    SignJoint,
)

LN_UNIT = LognormalSigned.from_beta(2, 1.0, 0.25)  # signed lognormal, alpha = 1
LN = LognormalSigned.from_beta(2, 0.8, 0.25)
MIXED = Mixed.from_beta(2, 0.8, 0.1)
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
    # root sits at 1.5, beyond a q_max of 1
    with pytest.raises(NoRootError):
        predict.solve_xi(FRAC_NE, 0.9, q_max=1.0)


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
    got, branch = predict.predicted_image_dim(LognormalSigned.from_beta(2, a, b), 1.0)
    assert got == pytest.approx(want, abs=1e-8)
    assert want == pytest.approx(1.459688, abs=1e-6)


def test_mixed_phase_transition_is_continuous():
    a = MIXED.alpha
    lo = predict.closed_form_image_dim(MIXED, a - 1e-9)
    hi = predict.closed_form_image_dim(MIXED, a + 1e-9)
    assert abs(hi - lo) <= 1e-6
    # the two quadratic branches agree exactly at xi0 = alpha
    left = predict.closed_form_image_dim(MIXED, a)
    m2 = Mixed.from_beta(2, a, MIXED.beta)
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


def test_closed_form_is_none_off_the_lognormal_kinds():
    assert predict.closed_form_image_dim(FRAC_EQ, 0.5) is None


# ---------------------------------------------------------------------------
# image-dimension law and branches


def test_identical_weights_cap_at_one():
    p = (1.0 + 2**-0.2) / 2.0
    ident = LognormalSigned.from_beta(2, 0.8, 0.25, SignJoint(p, 0.0, 0.0, 1.0 - p))
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
    m = LognormalSigned.from_beta(2, 0.9, 0.2)
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


# ---------------------------------------------------------------------------
# grid bisection against the linear-scan root finder


def linear_scan_root(f, target, hi, step=predict.SCAN_STEP):
    """The former _smallest_root: walk the grid, then bisect the first crossing."""
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


def oracle_solves(model, xi0):
    """(xi, zeta) from the linear scan, set up exactly as solve_xi/solve_zeta do."""
    target = model.base**-xi0
    xi = 0.0 if xi0 == 0.0 else outcome(
        linear_scan_root,
        lambda x: max(model.joint_moment(x, 0.0), model.joint_moment(0.0, x)),
        target,
        predict.Q_MAX,
    )
    zeta = outcome(
        linear_scan_root,
        lambda z: max(model.joint_moment(z - 1.0, 1.0), model.joint_moment(1.0, z - 1.0)),
        target,
        predict.Q_MAX + 1.0,
    )
    return xi, zeta


ORACLE_MODELS = [
    model
    for b in (2, 3, 4, 7)
    for model in (
        Fractional(b, 0.75, 0.75),
        Fractional(b, 0.6, 0.9),
        LognormalSigned.from_beta(b, 0.8, 0.1),
        LognormalSigned.from_beta(b, 0.5, 0.6),
        Mixed.from_beta(b, 0.8, 0.1),
        Mixed.from_beta(b, 1.0, 0.0),
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
            predict._smallest_root(f, 0.5, hi)
        assert outcome(linear_scan_root, f, 0.5, hi) is NoRootError
    assert predict._smallest_root(f, 0.7, 4.0) == linear_scan_root(f, 0.7, 4.0)
