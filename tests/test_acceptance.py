"""Acceptance gate: the headline numerical claims, one test per criterion.

Each test prints a single PASS line with the measured numbers; the
pytest verdict for the test is the pass/fail status of the criterion.
Analytic criteria are exact (1e-8/1e-10); statistical criteria use the
stated ensemble tolerances.
"""

import math
import time

import numpy as np

from cascadelab import cascade, estimate, predict
from cascadelab.estimate import cantor_set
from cascadelab.weights import DiscreteTable, Fractional, LognormalSigned, Mixed, sigma_from_beta

FRAC75 = Fractional(2, 0.75, 0.75)


def lognormal_beta(b, alpha, beta, sign_joint=None):
    return LognormalSigned(b, alpha, sigma_from_beta(beta, b), sign_joint)


def mixed_beta(b, alpha, beta):
    return Mixed(b, alpha, sigma_from_beta(beta, b))


def export_rows(export):
    """The export's rows (word, Q1, Q2, F1, F2), built from its columns a block of words at a time."""
    block = export.words.block
    words = [w for lo in range(0, len(export), block) for w in export.words[lo : lo + block]]
    return list(zip(words, *(c.tolist() for c in (*export.products(), *export.ends))))


def _report(n, detail):
    print(f"ACCEPTANCE {n}: PASS  {detail}")


def test_acceptance_01_solver_exactness():
    t0 = time.time()
    xi = predict.solve_xi(FRAC75, 0.6)
    zeta = predict.solve_zeta(FRAC75, 0.6)
    assert abs(xi - 0.8) <= 1e-10
    assert abs(zeta - 0.8) <= 1e-10
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(1, f"xi={xi:.12f} zeta={zeta:.12f} (target 0.8, tol 1e-10, {elapsed:.2f}s)")


def test_acceptance_02_signed_lognormal_closed_form():
    t0 = time.time()
    model = lognormal_beta(2, 1.0, 0.25)
    beta = 0.25
    worst = 0.0
    for i in range(1, 65):
        xi0 = i / 64.0
        xi = predict.solve_xi(model, xi0)
        worst = max(worst, abs(xi0 - xi - beta * xi * (1.0 - xi)))
    assert worst <= 1e-8
    root = predict.solve_xi(model, 0.5)
    target = (5.0 - math.sqrt(17.0)) / 2.0
    assert abs(root - target) <= 1e-8
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report(2, f"max residual {worst:.2e}; root(0.5)={root:.9f} vs (5-sqrt17)/2={target:.9f}")


def test_acceptance_03_phase_transition_continuity():
    model = mixed_beta(2, 0.8, 0.1)
    a = model.alpha
    assert abs(predict.xi_star(model) - a) <= 1e-9
    jump = abs(
        predict.closed_form_image_dim(model, a) - predict.closed_form_image_dim(model, min(a + 1e-12, 1.0))
    )
    assert jump <= 1e-8
    worst = 0.0
    for xi0 in np.arange(1.0 / 32.0, 1.0 + 1e-12, 1.0 / 32.0):
        dim, _ = predict.predicted_image_dim(model, float(xi0))
        worst = max(worst, abs(dim - predict.closed_form_image_dim(model, float(xi0))))
    assert worst <= 1e-8
    _report(3, f"jump at xi0=alpha: {jump:.2e}; max branch-vs-solver gap {worst:.2e}")


def test_acceptance_04_maximal_dimension_formulas():
    a, b = 0.8, 0.25
    want1 = (b + a - math.sqrt((b + a) ** 2 - 4.0 * b)) / (2.0 * b)
    got1, _ = predict.predicted_image_dim(lognormal_beta(2, a, b), 1.0)
    assert abs(got1 - want1) <= 1e-8
    got2, _ = predict.predicted_image_dim(Mixed(2, 0.8, 0.0), 1.0)
    assert abs(got2 - 1.2) <= 1e-8
    _report(4, f"lognormal max dim {got1:.9f} (target {want1:.9f}); mixed beta=0 max dim {got2:.9f} (target 1.2)")


def test_acceptance_05_martingale_normalization():
    t0 = time.time()
    n_seeds, depth = 1000, 12
    totals = np.empty((n_seeds, 2))
    for s in range(n_seeds):
        real = cascade.build(FRAC75, seed=s, depth=depth)
        totals[s] = [f[-1] for f in cascade.grid_values(real)]
    elapsed = time.time() - t0
    msgs = []
    for k in range(2):
        mean = totals[:, k].mean()
        se = totals[:, k].std(ddof=1) / math.sqrt(n_seeds)
        assert abs(mean - 1.0) <= 4.0 * se
        msgs.append(f"F{k + 1}: {mean:.4f} (4SE={4 * se:.4f})")
    assert elapsed < 30.0
    _report(5, f"{'; '.join(msgs)}; {elapsed:.1f}s")


def test_acceptance_06_oscillation_moment_scaling():
    t0 = time.time()
    depth, n_seeds = 18, 32
    levels = np.arange(3, 15)
    qs = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5)]
    sums = {q: np.zeros(len(levels)) for q in qs}
    for s in range(n_seeds):
        real = cascade.build(FRAC75, seed=s, depth=depth)
        for i, m in enumerate(levels):
            o1, o2 = cascade.oscillations(real, int(m))
            for q in qs:
                sums[q][i] += float((o1 ** q[0] * o2 ** q[1]).mean())
    msgs = []
    for q in qs:
        slope, _, _ = estimate.fit_loglog(levels, np.log2(sums[q] / n_seeds))
        target = -FRAC75.phi(*q)
        assert abs(slope - target) <= 0.05, f"q={q}: slope {slope} vs {target}"
        msgs.append(f"q={q}: {slope:.3f} (target {target:.3f})")
    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(6, f"{'; '.join(msgs)}; {elapsed:.1f}s")


def test_acceptance_07_uniform_dimension_law():
    t0 = time.time()
    # full-interval image at b=2, n=18, ensemble of 8 seeds
    full = cantor_set(2, (0, 1), 14)
    vals = []
    for s in range(8):
        real = cascade.build(FRAC75, seed=s, depth=18)
        vals.append(estimate.image_box_dim(real, full).value)
    mean = float(np.mean(vals))
    assert abs(mean - 4.0 / 3.0) <= 0.10
    # fixed-realization sweep over three b=4 Cantor sets
    model4 = Fractional(4, 0.75, 0.75)
    real4 = cascade.build(model4, seed=1, depth=12)
    sets = [
        cantor_set(4, (0, 3), 8),
        cantor_set(4, (0, 1, 2), 8),
        cantor_set(4, (0, 1, 2, 3), 8),
    ]
    rows = estimate.uniform_sweep(real4, sets)
    sweep_msgs = []
    for row in rows:
        assert abs(row.estimate.value - row.prediction) <= 0.15, (
            f"xi0={row.xi0}: {row.estimate.value} vs {row.prediction}"
        )
        sweep_msgs.append(f"xi0={row.xi0:.3f}: {row.estimate.value:.3f} (pred {row.prediction:.3f})")
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(7, f"mean image dim {mean:.3f} (target 4/3 +- 0.10); sweep {'; '.join(sweep_msgs)}; {elapsed:.1f}s")


def test_acceptance_08_kpz_sweep():
    t0 = time.time()
    model = lognormal_beta(2, 0.8, 0.1)
    depth = 16
    sets = {
        0.50: cantor_set(2, (0, 5, 10, 15), 3, block=4),
        0.75: cantor_set(2, (0, 2, 5, 7, 8, 10, 13, 15), 3, block=4),
        1.00: cantor_set(2, tuple(range(16)), 3, block=4),
    }
    reals = [cascade.build(model, seed=s, depth=depth) for s in range(8)]
    msgs = []
    for xi0, ts in sets.items():
        assert abs(ts.dimension - xi0) <= 1e-12
        pred, _ = predict.predicted_image_dim(model, xi0)
        vals = [estimate.image_box_dim(r, ts).value for r in reals]
        mean = float(np.mean(vals))
        assert abs(mean - pred) <= 0.15, f"xi0={xi0}: {mean} vs {pred}"
        msgs.append(f"xi0={xi0}: {mean:.3f} (pred {pred:.3f})")
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _report(8, f"{'; '.join(msgs)}; {elapsed:.1f}s")


def test_acceptance_09_level_set_dimension():
    t0 = time.time()
    model = Fractional(2, 0.7, 0.7)
    real = cascade.build(model, seed=5, depth=16)
    edges, masses = estimate.occupation_histogram(real, 1, 64)
    rng = np.random.default_rng(99)
    ys = estimate.sample_occupation_levels(edges, masses, rng, 16)
    vals = []
    for y in ys:
        _, est = estimate.level_set(real, 1, float(y), 12, fit_lo=3)
        if not est.empty:
            vals.append(est.value)
    assert len(vals) >= 12
    mean = float(np.mean(vals))
    assert abs(mean - 0.30) <= 0.10
    elapsed = time.time() - t0
    assert elapsed < 180.0
    _report(9, f"mean level-set dim {mean:.3f} over {len(vals)} levels (target 0.30 +- 0.10); {elapsed:.1f}s")


def test_acceptance_10_holder_tilt_consistency():
    t0 = time.time()
    table = DiscreteTable(2, (((0.3, 0.7), 0.5), ((0.7, 0.3), 0.5)))
    q = (1.0, 1.0)
    msgs = []
    for model in (FRAC75, table):
        real = cascade.build(model, seed=2, depth=16)
        rng = np.random.default_rng(0)
        idx = [cascade.sample_tilted_path(real, q, 12, rng) for _ in range(1000)]
        h1, h2 = estimate.holder_exponents(real, idx, 3, 12)
        a1, a2 = model.grad_phi(*q)
        assert abs(h1.mean() - a1) <= 0.05, f"{type(model).__name__}: {h1.mean()} vs {a1}"
        assert abs(h2.mean() - a2) <= 0.05, f"{type(model).__name__}: {h2.mean()} vs {a2}"
        msgs.append(f"{type(model).__name__}: h=({h1.mean():.3f},{h2.mean():.3f}) grad=({a1:.3f},{a2:.3f})")
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(10, f"{'; '.join(msgs)}; {elapsed:.1f}s")


def test_acceptance_11_property_suite_spotchecks():
    t0 = time.time()
    # cross-moment inequalities on a p-grid
    for model in (FRAC75, lognormal_beta(2, 0.8, 0.1)):
        for p in np.linspace(0.0, 1.0, 11):
            lhs = max(model.joint_moment(p, 0.0), model.joint_moment(0.0, p))
            rhs = max(model.joint_moment(p - 1.0, 1.0), model.joint_moment(1.0, p - 1.0))
            assert lhs <= rhs + 1e-12
    # concavity of phi at midpoints
    rng = np.random.default_rng(0)
    for _ in range(100):
        qa, qb = rng.uniform(0.0, 2.0, 2), rng.uniform(0.0, 2.0, 2)
        mid = 0.5 * (qa + qb)
        assert FRAC75.phi(*mid) >= 0.5 * (FRAC75.phi(*qa) + FRAC75.phi(*qb)) - 1e-12
    # determinism and prefix stability
    a = cascade.build(FRAC75, seed=11, depth=10)
    b = cascade.build(FRAC75, seed=11, depth=12)
    assert all(
        [row[:3] for row in export_rows(cascade.export_level(a, m))]
        == [row[:3] for row in export_rows(cascade.export_level(b, m))]
        for m in range(11)
    )
    # box-count monotonicity
    real = cascade.build(FRAC75, seed=0, depth=16)
    est = estimate.image_box_dim(real, cantor_set(2, (0, 1), 4))
    counts = [c for _, c in est.counts_per_scale]
    assert all(y >= x for x, y in zip(counts, counts[1:]))
    # level-set bracket correctness at one level
    y = float(cascade.grid_values(real)[0][2**15])
    mm = cascade.grid_min_max(real, 8)[0]
    hits, _ = estimate.level_set(real, 1, y, 8)
    hit = set(hits.tolist())
    for j in range(2**8):
        inside = mm[0][j] <= y <= mm[1][j]
        assert (j in hit) == inside
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(11, f"invariant spot checks exact at 1e-12; {elapsed:.1f}s")
