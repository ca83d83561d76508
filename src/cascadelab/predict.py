"""Closed-form dimension predictions.

Root solvers for the two moment equations

    b**-xi0 = max(E|W1|**x, E|W2|**x)                       (xi)
    b**-xi0 = max(E(|W1|**(z-1) |W2|), E(|W1| |W2|**(z-1))) (zeta)

with smallest-root semantics (the first grid cell where the curve's
running minimum reaches the target, then bisection of that cell), the
crossover exponent xi_star, the image-dimension law (min(xi, zeta) when
the two components can differ, min(xi, 1) when they are almost surely
equal), the KPZ curve of the sign-and-modulus kinds in closed form, the
restricted spectrum points xi0 + q . grad_phi(q) - phi(q), and the level-set
dimension 1 - alpha_k of fractional cascades.

Each model object memoizes its two curves (see _solve): their running
minima at the grid points, shared by every search on that model, and
their roots keyed by target, so a KPZ sweep evaluates each grid point
of a curve once and a repeated solve is a lookup.  The memo lives in
the model's own __dict__ and holds only floats, so it is freed with the
model.

A curve is handed to the solver as its moment branches, the two
arguments of the max.  Where the law's two branches are the same float
(``WeightModel.symmetric_moments``) it is one branch.  The cell
bisection asks only whether the curve is <= the target, so each step
evaluates branches until one lies above it (see _smallest_root).  Both
rules are exact, because ``joint_moment`` never returns NaN: the roots
are the ones the max of both branches gives, bit for bit.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .errors import ConfigError, DivergenceError, NoRootError
from .weights import Fractional, SignedModulus, WeightModel

SCAN_STEP = 1.0 / 512.0
Q_MAX = 4.0
ROOT_TOL = 1e-12


def _smallest_root(branches, target: float, hi: float, table=None) -> float:
    """Smallest x in [0, hi] with f(x) = target, for the curve f = max(branches).

    ``branches`` holds one or two functions; the curve is their pointwise
    max.  f(0) >= target is assumed (it holds for the two moment curves,
    which start at 1 >= b**-xi0).  The root lies in the cell that ends at
    the first grid point x_i = i * SCAN_STEP with f(x_i) <= target; that
    cell is bisected to ROOT_TOL.

    ``table`` holds the running minimum of f along the grid from x_0,
    negated so that it ascends: one list passed to every search of a
    curve evaluates each grid point once across all of them.  A search
    extends it one grid point at a time, only while its last entry is
    still above the target and i <= hi / SCAN_STEP, and then reads the
    cell's end i off it by bisection.  The first index where the running
    minimum is <= target is the first grid point where f is, so the cell
    is the one a left-to-right scan finds, on any curve.

    A grid point evaluates every branch.  Each step of the cell bisection
    asks only whether f(mid) <= target, which holds exactly when every
    branch is <= target (no branch returns NaN; ``WeightModel.joint_moment``
    never does).  A step therefore stops at the first branch above the
    target, and tries that branch first on the next step: near the root,
    the branch that decided the last step mostly decides the next.
    """
    table = [] if table is None else table
    if not table:
        table.append(-max([g(0.0) for g in branches]))
    f0 = -table[0]
    if f0 <= target:
        if abs(f0 - target) <= ROOT_TOL:
            return 0.0
        raise NoRootError(f"curve starts below target: f(0)={f0} < {target}")
    n_steps = int(round(hi / SCAN_STEP))
    while table[-1] < -target and len(table) <= n_steps:
        x = len(table) * SCAN_STEP
        table.append(max(table[-1], -max([g(x) for g in branches])))
    i = bisect.bisect_left(table, -target)
    if i > n_steps:
        raise NoRootError(f"no root in [0, {hi}] (curve stays above {target})")
    lo_b, hi_b = (i - 1) * SCAN_STEP, i * SCAN_STEP
    g, h = branches[0], branches[-1]  # one branch: h is g, and is never called
    for _ in range(100):
        mid = 0.5 * (lo_b + hi_b)
        if g(mid) > target:
            lo_b = mid
        elif h is not g and h(mid) > target:
            lo_b = mid
            g, h = h, g
        else:
            hi_b = mid
        if hi_b - lo_b <= ROOT_TOL:
            break
    return 0.5 * (lo_b + hi_b)


def _psi(model: WeightModel):
    """The xi curve x -> max_k E|W_k|**x, as its branches: one where the two moments are the same float."""
    branches = (lambda x: model.joint_moment(x, 0.0), lambda x: model.joint_moment(0.0, x))
    return branches[:1] if model.symmetric_moments() else branches


def _psi_tilde(model: WeightModel):
    """The zeta curve z -> max(E|W1|**(z-1) |W2|, E|W1| |W2|**(z-1)), as its branches (see _psi)."""
    branches = (lambda z: model.joint_moment(z - 1.0, 1.0), lambda z: model.joint_moment(1.0, z - 1.0))
    return branches[:1] if model.symmetric_moments() else branches


def _solve(model: WeightModel, curve, target: float, hi: float) -> float:
    """``_smallest_root`` of ``curve(model)``'s branches on [0, hi], through the model's memo of that curve.

    The memo is ``(table, roots)`` in the model's __dict__, under the
    curve's name: the curve's negated running minimum at the grid points
    (see _smallest_root), at most hi / SCAN_STEP + 1 of them, and each
    root found, keyed by target; each curve is searched on one interval.
    A search that raises NoRootError keeps the table it extended and no
    root.  The branches are built afresh on each search, so the memo
    holds floats only and no reference back to the model.
    """
    table, roots = vars(model).setdefault(f"{curve.__name__}_memo", ([], {}))
    root = roots.get(target)
    if root is None:
        root = roots[target] = _smallest_root(curve(model), target, hi, table=table)
    return root


def _check_xi0(xi0: float) -> None:
    if not 0.0 <= xi0 <= 1.0:
        raise ConfigError(f"xi0 must be in [0, 1], got {xi0}")


def solve_xi(model: WeightModel, xi0: float) -> float:
    """Smallest xi in [0, Q_MAX] with max_k E|W_k|**xi = b**-xi0."""
    _check_xi0(xi0)
    if xi0 == 0.0:
        return 0.0
    return _solve(model, _psi, model.base**-xi0, Q_MAX)


def solve_zeta(model: WeightModel, xi0: float) -> float:
    """Smallest zeta in [0, Q_MAX + 1] solving the cross-moment equation."""
    _check_xi0(xi0)
    return _solve(model, _psi_tilde, model.base**-xi0, Q_MAX + 1.0)


def xi_star(model: WeightModel) -> float:
    """Crossover exponent -log_b max_k E|W_k|; lies in (1/2, 1] under (A1).

    One moment where the two are the same float (see _psi).
    """
    value = model.phi(1.0, 0.0)  # +inf when both moments vanish
    if not model.symmetric_moments():
        value = min(value, model.phi(0.0, 1.0))
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


def _smallest_quadratic_root(beta: float, bcoef: float, ccoef: float) -> float | None:
    """Smallest root of beta*x**2 - bcoef*x + ccoef = 0, for beta >= 0, bcoef > 0; None if none is real.

    Taken as 2*ccoef / (bcoef + sqrt(disc)), which is ccoef / bcoef for
    beta = 0 and, unlike (bcoef - sqrt(disc)) / (2*beta), does not
    cancel to 0 where 4*beta*ccoef is below the rounding of bcoef**2.
    """
    disc = bcoef * bcoef - 4.0 * beta * ccoef
    if disc < 0:
        return None
    return 2.0 * ccoef / (bcoef + math.sqrt(disc))


def closed_form_image_dim(model: WeightModel, xi0: float) -> float | None:
    """Closed-form KPZ root min(xi, zeta) for the sign-and-modulus kinds; None for a table.

    With a, A the smaller and larger exponent and beta = sigma**2 / (2 ln b),
    xi is the smallest root of beta*x**2 - (a + beta)*x + xi0 and zeta
    that of beta*x**2 - (A + beta)*x + xi0 + (A - a): xi0/a and
    1 + (xi0 - a)/A for beta = 0.  The two meet at the phase transition
    xi0 = a.  A quadratic without a real root drops out of the min.
    """
    _check_xi0(xi0)
    if not isinstance(model, SignedModulus):
        return None
    a_min, a_max = sorted(model.exponents)
    beta = model.beta
    xi = _smallest_quadratic_root(beta, a_min + beta, xi0)
    zeta = _smallest_quadratic_root(beta, a_max + beta, xi0 + (a_max - a_min))
    roots = [r for r in (xi, zeta) if r is not None]
    if not roots:
        raise NoRootError(f"closed-form discriminants negative at xi0={xi0}")
    return min(roots)


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

    For the sign-and-modulus kinds the solver root is cross-checked
    against the closed-form root off the capped branch; disagreement
    beyond 1e-8 is an error.
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
