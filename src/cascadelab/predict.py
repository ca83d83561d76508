"""Closed-form dimension predictions.

Root solvers for the two moment equations

    b**-xi0 = max(E|W1|**x, E|W2|**x)                       (xi)
    b**-xi0 = max(E(|W1|**(z-1) |W2|), E(|W1| |W2|**(z-1))) (zeta)

with smallest-root semantics (bisection over the index of a fixed
grid, exact because the moment curves are log-convex, then bisection
of the bracketing grid cell), the crossover exponent xi_star, the
image-dimension law (min(xi, zeta) when the two components can differ,
min(xi, 1) when they are almost surely equal), the signed
lognormal and mixed-kind KPZ curves in closed form, the restricted
spectrum points xi0 + q . grad_phi(q) - phi(q), and the level-set
dimension 1 - alpha_k of fractional cascades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DivergenceError, NoRootError
from .weights import Fractional, LognormalSigned, Mixed, WeightModel

SCAN_STEP = 1.0 / 512.0
Q_MAX = 4.0
ROOT_TOL = 1e-12


def _smallest_root(f, target: float, hi: float, step: float = SCAN_STEP) -> float:
    """Smallest x in [0, hi] with f(x) = target.

    f(0) >= target is assumed (it holds for the two moment curves, which
    start at 1 >= b**-xi0).  The first grid point x_i = i * step with
    f(x_i) <= target is found by bisection over the grid index, then the
    root is bisected on [x_{i-1}, x_i].

    The grid bisection rests on log-convexity.  Every moment curve
    x -> E|W1|**a(x) |W2|**c(x) with affine exponents is log-convex
    (Holder), and so is the max of two.  A convex sequence falls, then
    rises, so the predicate ``f(x_i) <= target or f(x_{i+1}) >= f(x_i)``
    is false up to some index and true from it on.  Where it first holds
    either f(x_i) <= target, and no earlier grid point reached the
    target, or the curve has turned upward above the target and never
    comes back down.  Infinite or NaN values, which only occur on a
    leading stretch where an exponent is negative and an atom is zero,
    count as still falling.
    """
    f0 = f(0.0)
    if f0 <= target:
        if abs(f0 - target) <= ROOT_TOL:
            return 0.0
        raise NoRootError(f"curve starts below target: f(0)={f0} < {target}")
    n_steps = int(round(hi / step))
    values = {}  # f at grid index i, each evaluated once

    def at(i):
        v = values.get(i)
        if v is None:
            v = values[i] = f(i * step)
        return v

    lo, top = 1, n_steps
    while lo < top:
        mid = (lo + top) // 2  # below top, so mid + 1 is still on the grid
        v = at(mid)
        if v <= target or (v < math.inf and at(mid + 1) >= v):
            top = mid
        else:
            lo = mid + 1
    if n_steps < 1 or at(lo) > target:
        raise NoRootError(f"no root in [0, {hi}] (curve stays above {target})")
    lo_b, hi_b = (lo - 1) * step, lo * step
    for _ in range(100):
        mid = 0.5 * (lo_b + hi_b)
        if f(mid) <= target:
            hi_b = mid
        else:
            lo_b = mid
        if hi_b - lo_b <= ROOT_TOL:
            break
    return 0.5 * (lo_b + hi_b)


def _check_xi0(xi0: float) -> None:
    if not 0.0 <= xi0 <= 1.0:
        raise ConfigError(f"xi0 must be in [0, 1], got {xi0}")


def solve_xi(model: WeightModel, xi0: float, q_max: float = Q_MAX) -> float:
    """Smallest xi >= 0 with max_k E|W_k|**xi = b**-xi0."""
    _check_xi0(xi0)
    if xi0 == 0.0:
        return 0.0
    target = model.base**-xi0

    def psi(x):
        return max(model.joint_moment(x, 0.0), model.joint_moment(0.0, x))

    return _smallest_root(psi, target, q_max)


def solve_zeta(model: WeightModel, xi0: float, q_max: float = Q_MAX) -> float:
    """Smallest zeta >= 0 solving the cross-moment equation."""
    _check_xi0(xi0)

    def psi_tilde(z):
        return max(model.joint_moment(z - 1.0, 1.0), model.joint_moment(1.0, z - 1.0))

    target = model.base**-xi0
    return _smallest_root(psi_tilde, target, q_max + 1.0)


def xi_star(model: WeightModel) -> float:
    """Crossover exponent -log_b max_k E|W_k|; lies in (1/2, 1] under (A1)."""
    m = max(model.joint_moment(1.0, 0.0), model.joint_moment(0.0, 1.0))
    value = -math.log(m) / math.log(model.base)
    if not 0.5 < value <= 1.0 + 1e-12:
        raise NoRootError(f"xi_star = {value} outside (1/2, 1]; model violates (A1)")
    return min(value, 1.0)


def predicted_image_dim(model: WeightModel, xi0: float) -> tuple[float, str]:
    """Image dimension of a set of dimension xi0, with the active branch.

    Branch selection keys off the model's certified P(W1 = W2) = 1 flag:
    min(xi, zeta) when the components can differ, min(xi, 1) otherwise
    (branch label 'capped' when the bound at 1 is active).
    """
    xi = solve_xi(model, xi0)
    if model.identical_weights():
        return (xi, "xi") if xi <= 1.0 else (1.0, "capped")
    zeta = solve_zeta(model, xi0)
    return (xi, "xi") if xi <= zeta else (zeta, "zeta")


def closed_form_image_dim(model: WeightModel, xi0: float) -> float | None:
    """Closed-form KPZ root for the lognormal-factor kinds; None otherwise.

    LognormalSigned: xi0 - alpha*xi = beta*xi*(1 - xi) on all of [0, 1].
    Mixed: the same up to xi0 = alpha, then
    xi0 - xi = beta*xi*(1 - xi) + alpha - 1 (phase transition at alpha).
    """
    _check_xi0(xi0)

    def quad_root(bcoef, ccoef, beta):
        # smallest root of beta*x**2 - bcoef*x + ccoef = 0
        if beta == 0.0:
            return ccoef / bcoef
        disc = bcoef * bcoef - 4.0 * beta * ccoef
        if disc < 0:
            raise NoRootError("closed-form discriminant negative")
        return (bcoef - math.sqrt(disc)) / (2.0 * beta)

    if isinstance(model, LognormalSigned):
        return quad_root(model.alpha + model.beta, xi0, model.beta)
    if isinstance(model, Mixed):
        if xi0 <= model.alpha:
            return quad_root(model.alpha + model.beta, xi0, model.beta)
        return quad_root(1.0 + model.beta, xi0 + 1.0 - model.alpha, model.beta)
    return None


@dataclass(frozen=True)
class PredictionRow:
    xi0: float
    xi: float
    zeta: float
    xi_star: float
    predicted_dim: float
    branch: str
    closed_form: float | None = None


def kpz_curve(model: WeightModel, xi0_grid) -> list[PredictionRow]:
    """Predicted image dimension along a grid of source dimensions.

    For the lognormal-factor kinds the solver root is cross-checked
    against the closed-form root; disagreement beyond 1e-8 is an error.
    """
    xs = xi_star(model)
    rows = []
    for xi0 in xi0_grid:
        xi = solve_xi(model, xi0)
        zeta = solve_zeta(model, xi0)
        dim, branch = predicted_image_dim(model, xi0)
        cf = closed_form_image_dim(model, xi0)
        if cf is not None and branch != "capped" and abs(cf - dim) > 1e-8:
            raise NoRootError(
                f"solver root {dim} and closed form {cf} disagree at xi0={xi0}"
            )
        rows.append(PredictionRow(xi0, xi, zeta, xs, dim, branch, cf))
    return rows


@dataclass(frozen=True)
class LegendrePoint:
    q: tuple[float, float]
    alpha: tuple[float, float]
    dim_level_set: float
    in_j: bool


def legendre_point(model: WeightModel, q: tuple[float, float], xi0: float) -> LegendrePoint:
    """Restricted-spectrum point: alpha = grad_phi(q), dim = xi0 + q.alpha - phi(q).

    ``in_j`` records the strict inequality q . grad_phi(q) - phi(q) > -xi0
    (membership of q in the admissible set for a source of dimension xi0).
    """
    _check_xi0(xi0)
    q1, q2 = q
    if not (math.isfinite(q1) and math.isfinite(q2)):
        raise ConfigError(f"q must be finite, got {q}")
    p = model.phi(q1, q2)
    if math.isinf(p):
        raise DivergenceError(f"phi infinite at q=({q1}, {q2})")
    a1, a2 = model.grad_phi(q1, q2)
    corr = q1 * a1 + q2 * a2 - p
    return LegendrePoint((q1, q2), (a1, a2), xi0 + corr, corr > -xi0)


def restricted_image_dim(
    alpha: tuple[float, float], dim_level_set: float, identical_weights: bool
) -> float:
    """Image dimension of a Holder level set of dimension d at exponent alpha."""
    a1, a2 = alpha
    if not (0 < a1 < math.inf and 0 < a2 < math.inf):
        raise ConfigError(f"alpha components must be positive and finite, got {alpha}")
    if not 0.0 <= dim_level_set <= 1.0:
        raise ConfigError(f"level-set dimension must be in [0, 1], got {dim_level_set}")
    a_min, a_max = min(a1, a2), max(a1, a2)
    if identical_weights:
        return min(dim_level_set / a_min, 1.0)
    return min(dim_level_set / a_min, 1.0 + (dim_level_set - a_min) / a_max)


def predicted_levelset_dim(model: WeightModel, k: int) -> float:
    """Dimension 1 - alpha_k of the level sets of F_k (fractional kind only)."""
    if not isinstance(model, Fractional):
        raise ConfigError("level-set prediction applies to the fractional kind only")
    if k not in (1, 2):
        raise ConfigError(f"component k must be 1 or 2, got {k}")
    return 1.0 - (model.alpha1 if k == 1 else model.alpha2)
