import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadelab.errors import ConfigError, DivergenceError
from cascadelab.weights import (
    DiscreteTable,
    Fractional,
    LognormalSigned,
    Mixed,
    SignJoint,
    check_assumptions,
    default_sign_plus,
    signed_pairs,
)


def all_plus():
    return SignJoint(1.0, 0.0, 0.0, 0.0)


def identity_model(b=2):
    return Fractional(b, 1.0, 1.0, all_plus())


def lognormal_beta(b, alpha, beta, sign_joint=None):
    return LognormalSigned.from_beta(b, alpha, beta, sign_joint)


def sign_sample(sj, u, mag1, mag2):
    """Signed moduli (+-mag1, +-mag2) for uniforms ``u`` in [0, 1) and moduli >= 0."""
    return signed_pairs(sj.signs(u), mag1, mag2)


def finite_difference_grad(model, q1, q2, h=1e-5):
    """Central-difference gradient of phi; oracle for the analytic forms."""
    vals = [
        model.phi(q1 + h, q2),
        model.phi(q1 - h, q2),
        model.phi(q1, q2 + h),
        model.phi(q1, q2 - h),
    ]
    if any(math.isinf(v) for v in vals):
        raise DivergenceError("phi infinite at a finite-difference stencil point")
    return ((vals[0] - vals[1]) / (2 * h), (vals[2] - vals[3]) / (2 * h))


SYMMETRIC_TABLE = DiscreteTable(2, ((((0.3, 0.7)), 0.5), (((0.7, 0.3)), 0.5)))

MODELS = [
    Fractional(2, 0.75, 0.75),
    Fractional(2, 0.6, 0.8),
    lognormal_beta(2, 0.8, 0.25),
    Mixed.from_beta(2, 0.8, 0.1),
    SYMMETRIC_TABLE,
    Fractional(3, 0.7, 0.9),
]


# ---------------------------------------------------------------------------
# joint moments and phi


def test_fractional_single_moment():
    m = Fractional(2, 0.75, 0.75)
    assert m.joint_moment(1.0, 0.0) == pytest.approx(2**-0.75, abs=1e-15)


def test_zeroth_moment_is_one():
    for m in MODELS:
        assert m.joint_moment(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert m.phi(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_lognormal_moment_closed_form():
    m = lognormal_beta(2, 1.0, 0.25)
    for xi in (0.3, 0.7, 1.5):
        want = 2**-xi * math.exp(m.sigma**2 * (xi**2 - xi) / 2.0)
        assert m.joint_moment(xi, 0.0) == pytest.approx(want, rel=1e-14)


def test_fractional_phi_is_linear():
    m = Fractional(2, 0.6, 0.8)
    for q1, q2 in ((0.5, 0.5), (2.0, -1.0), (0.0, 3.0)):
        assert m.phi(q1, q2) == pytest.approx(0.6 * q1 + 0.8 * q2, abs=1e-12)


def test_lognormal_phi_closed_form():
    m = lognormal_beta(2, 0.9, 0.2)
    for q1, q2 in ((0.5, 0.5), (1.0, 0.0), (1.2, 0.4)):
        s = q1 + q2
        want = 0.9 * s - 0.2 * (s * s - s)
        assert m.phi(q1, q2) == pytest.approx(want, abs=1e-12)


def test_table_moment_matches_brute_force():
    atoms = (((0.2, 0.5), 0.3), ((0.6, 0.4), 0.5), ((0.65, 0.65), 0.2))
    m = DiscreteTable(2, atoms)
    for q1, q2 in ((1.0, 0.0), (0.5, 0.5), (2.0, 1.0), (-0.5, 0.25)):
        brute = sum(p * abs(w1) ** q1 * abs(w2) ** q2 for (w1, w2), p in atoms)
        assert m.joint_moment(q1, q2) == pytest.approx(brute, rel=1e-14)


def test_table_zero_atom_gives_infinite_negative_moment():
    m = DiscreteTable(2, (((0.0, 0.5), 0.5), ((1.0, 0.5), 0.5)))
    assert m.joint_moment(-0.5, 0.0) == math.inf
    assert m.phi(-0.5, 0.0) == -math.inf
    assert m.joint_moment(0.0, 1.0) == pytest.approx(0.5)


def _gauss_hermite_table(base, alpha, sigma, n=60):
    """Discretize the shared lognormal factor into an exact-moment table."""
    x, w = np.polynomial.hermite.hermgauss(n)
    y = x * math.sqrt(2.0)
    pw = w / math.sqrt(math.pi)
    p_plus = (1.0 + base ** (alpha - 1.0)) / 2.0
    mag = base**-alpha
    atoms = []
    for yi, pi_ in zip(y, pw):
        f = math.exp(sigma * yi - sigma**2 / 2.0)
        for s1, p1 in ((1.0, p_plus), (-1.0, 1.0 - p_plus)):
            for s2, p2 in ((1.0, p_plus), (-1.0, 1.0 - p_plus)):
                atoms.append(((s1 * mag * f, s2 * mag * f), pi_ * p1 * p2))
    return DiscreteTable(base, tuple(atoms))


def test_discretized_lognormal_pins_the_table_code_path():
    m = lognormal_beta(2, 0.9, 0.15)
    table = _gauss_hermite_table(2, 0.9, m.sigma)
    for q in ((1.0, 0.0), (0.5, 0.5), (1.5, 0.5), (2.0, 0.0)):
        assert table.joint_moment(*q) == pytest.approx(m.joint_moment(*q), rel=1e-3)
    # A0 survives the discretization too
    assert table.mean(1) == pytest.approx(0.5, abs=1e-10)


def test_sign_independence_of_moments():
    a = Fractional(2, 0.75, 0.75)  # independent signs
    flipped = SignJoint(a.sign_joint.mm, a.sign_joint.mp, a.sign_joint.pm, a.sign_joint.pp)
    # flipped marginals break A0, so compare via a table with flipped signs
    base = DiscreteTable(2, (((0.3, 0.7), 0.5), ((0.7, 0.3), 0.5)))
    neg = DiscreteTable(2, (((-0.3, 0.7), 0.5), ((0.7, -0.3), 0.5)))
    for q in ((1.0, 1.0), (0.5, 0.25), (2.0, 0.0)):
        assert base.joint_moment(*q) == neg.joint_moment(*q)
    assert flipped.plus1 == 1.0 - a.sign_joint.plus1


# ---------------------------------------------------------------------------
# gradient


def test_fractional_gradient_is_constant():
    m = Fractional(2, 0.6, 0.8)
    assert m.grad_phi(0.3, 1.7) == (0.6, 0.8)


def test_lognormal_gradient_closed_form():
    m = lognormal_beta(2, 1.0, 0.25)
    g = m.grad_phi(0.5, 0.5)
    assert g[0] == pytest.approx(0.75, abs=1e-12)
    assert g[1] == pytest.approx(0.75, abs=1e-12)


def test_single_atom_gradient():
    m = DiscreteTable(2, (((0.3, 0.4), 1.0),))
    g = m.grad_phi(0.7, 0.2)
    assert g[0] == pytest.approx(-math.log(0.3) / math.log(2), rel=1e-12)
    assert g[1] == pytest.approx(-math.log(0.4) / math.log(2), rel=1e-12)


@pytest.mark.parametrize("model", MODELS)
def test_gradient_matches_finite_differences(model):
    for q in ((0.2, 0.4), (1.0, 1.0), (1.5, 0.1)):
        analytic = model.grad_phi(*q)
        numeric = finite_difference_grad(model, *q)
        assert analytic[0] == pytest.approx(numeric[0], abs=1e-6)
        assert analytic[1] == pytest.approx(numeric[1], abs=1e-6)


# ---------------------------------------------------------------------------
# assumptions


def test_a0_exact_by_construction():
    for m in MODELS:
        assert m.mean(1) == pytest.approx(1.0 / m.base, abs=1e-12)
        assert m.mean(2) == pytest.approx(1.0 / m.base, abs=1e-12)


def test_condition_six_boundary():
    # beta = 0.25 -> admissible iff alpha > 2*sqrt(beta) - beta = 0.75
    assert check_assumptions(lognormal_beta(2, 0.8, 0.25)).a1_ok
    assert not check_assumptions(lognormal_beta(2, 0.7, 0.25)).a1_ok


def test_fractional_assumptions():
    rep = check_assumptions(Fractional(2, 0.75, 0.75))
    assert rep.a0_ok and rep.a1_ok and rep.a2_ok
    m = Fractional(2, 0.75, 0.75)
    q = rep.a1_witness
    assert max(m.joint_moment(q, 0), m.joint_moment(0, q)) < 0.5
    assert 1.0 < q <= 2.0


def test_table_with_zero_atom_fails_a2():
    m = DiscreteTable(2, (((0.0, 0.5), 0.5), ((1.0, 0.5), 0.5)))
    rep = check_assumptions(m)
    assert not rep.a2_ok


def test_mixed_assumptions_follow_condition_six():
    assert check_assumptions(Mixed.from_beta(2, 0.8, 0.1)).a1_ok
    assert not check_assumptions(Mixed.from_beta(2, 0.55, 0.1)).a1_ok


# ---------------------------------------------------------------------------
# properties


def test_phi_concavity_midpoint():
    rng = np.random.default_rng(42)
    for m in MODELS:
        for _ in range(50):
            q = rng.uniform(-0.4, 2.5, size=2)
            qp = rng.uniform(-0.4, 2.5, size=2)
            vals = [m.phi(*q), m.phi(*qp), m.phi(*(0.5 * (q + qp)))]
            if any(math.isinf(v) for v in vals):
                continue
            assert vals[2] >= 0.5 * (vals[0] + vals[1]) - 1e-12


@pytest.mark.parametrize("model", MODELS)
def test_cross_moment_inequalities(model):
    def phi_p(p):
        return max(model.joint_moment(p, 0.0), model.joint_moment(0.0, p))

    def phi_tilde(p):
        return max(model.joint_moment(p - 1.0, 1.0), model.joint_moment(1.0, p - 1.0))

    for p in np.linspace(0.0, 1.0, 21):
        assert phi_p(p) <= phi_tilde(p) + 1e-12
    for p in np.linspace(1.0, 3.0, 21):
        assert phi_p(p) >= phi_tilde(p) - 1e-12


@pytest.mark.parametrize("model", MODELS)
def test_sample_mean_reproduces_a0(model):
    rng = np.random.default_rng(7)
    n = 100_000
    w1, w2 = model.sample_pairs(rng, n)
    for arr in (w1, w2):
        err = abs(arr.mean() - 1.0 / model.base)
        bound = 4.0 * arr.std() / math.sqrt(n)
        assert err <= max(bound, 1e-12)


def test_deterministic_models_sample_exactly():
    m = identity_model()
    w1, w2 = m.sample_pairs(np.random.default_rng(0), 1)
    assert (w1.tolist(), w2.tolist()) == ([0.5], [0.5])
    t = DiscreteTable(2, (((0.3, 0.4), 1.0),))
    w1, w2 = t.sample_pairs(np.random.default_rng(0), 1)
    assert (w1.tolist(), w2.tolist()) == ([0.3], [0.4])
    ln = LognormalSigned(2, 1.0, 0.0, all_plus())
    w1s, w2s = ln.sample_pairs(np.random.default_rng(0), 100)
    assert np.all(np.abs(w1s) == 0.5) and np.all(np.abs(w2s) == 0.5)


def test_identical_weights_certification():
    assert identity_model().identical_weights()
    p = (1.0 + 2**-0.2) / 2.0
    assert LognormalSigned(2, 0.8, 0.3, SignJoint(p, 0.0, 0.0, 1.0 - p)).identical_weights()
    assert not Fractional(2, 0.75, 0.75).identical_weights()
    assert not SYMMETRIC_TABLE.identical_weights()
    assert DiscreteTable(2, (((0.5, 0.5), 1.0),)).identical_weights()


def test_invalid_models_rejected():
    with pytest.raises(ConfigError):
        SignJoint(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ConfigError):
        Fractional(2, 0.4, 0.75)
    with pytest.raises(ConfigError):
        DiscreteTable(2, (((0.3, 0.3), 0.7),))
    with pytest.raises(ConfigError):
        Fractional(2, 0.75, 0.75, SignJoint(0.5, 0.0, 0.0, 0.5))


@settings(max_examples=30, deadline=None)
@given(st.floats(0.55, 1.0), st.floats(0.55, 1.0))
def test_fractional_moment_formula_property(a1, a2):
    m = Fractional(2, a1, a2)
    assert m.joint_moment(1.3, 0.7) == pytest.approx(
        2 ** -(1.3 * a1 + 0.7 * a2), rel=1e-12
    )


# ---------------------------------------------------------------------------
# threshold sign sampling against the searchsorted oracle


def searchsorted_signs(sj, u):
    """The cell lookup the threshold sampler replaced, kept as an oracle."""
    cell = np.minimum(np.searchsorted(sj.cumulative(), u, side="right"), 3)
    return np.where(cell <= 1, 1.0, -1.0), np.where((cell == 0) | (cell == 2), 1.0, -1.0)


SIGN_TABLES = [
    SignJoint.independent(0.7, 0.8),
    SignJoint(0.7, 0.1, 0.1, 0.1),
    SignJoint(1.0, 0.0, 0.0, 0.0),
    SignJoint(0.0, 0.0, 0.0, 1.0),
    SignJoint(0.5, 0.0, 0.0, 0.5),
    SignJoint(0.0, 0.5, 0.5, 0.0),
    SignJoint(0.25, 0.0, 0.75, 0.0),
    SignJoint(0.3, 0.3, 0.0, 0.4),
    SignJoint(0.5, 0.25, 0.25 - 1e-13, 0.0),  # last bound just below 1
]


def bound_uniforms(sj, seed=11):
    """Random u plus every cumulative bound exactly, its float neighbours, and the ends of [0, 1)."""
    cum = sj.cumulative()
    edges = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)])
    u = np.concatenate([np.random.default_rng(seed).random(20000), edges, [0.0, np.nextafter(1.0, 0.0)]])
    return u[(u >= 0.0) & (u < 1.0)]


@pytest.mark.parametrize("sj", SIGN_TABLES)
def test_threshold_signs_equal_searchsorted_cells(sj):
    u = bound_uniforms(sj)
    s1, s2 = searchsorted_signs(sj, u)
    w1, w2 = sign_sample(sj, u, 0.5, 0.25)
    assert np.array_equal(w1, s1 * 0.5)
    assert np.array_equal(w2, s2 * 0.25)


@pytest.mark.parametrize(
    "sj", [SignJoint(0.5, -1e-13, 0.25, 0.25 + 1e-13), SignJoint(0.5, 0.25, -1e-13, 0.25 + 1e-13)]
)
def test_signs_follow_the_bound_count_when_bounds_are_not_monotone(sj):
    # a probability of -1e-13 is accepted, and puts one bound just below the one before it;
    # the oracle counts the bounds of the running maximum at or below u
    cum = sj.cumulative()
    assert np.any(np.diff(cum) < 0.0)
    u = bound_uniforms(sj)
    cell = (u[:, None] >= np.maximum.accumulate(cum[:3])).sum(axis=1)
    w1, w2 = sign_sample(sj, u, 0.5, 0.25)
    assert np.array_equal(w1, np.where(cell >= 2, -0.5, 0.5))
    assert np.array_equal(w2, np.where(cell % 2 == 1, -0.25, 0.25))


def test_fractional_sampling_matches_searchsorted_oracle():
    for model in (Fractional(2, 0.75, 0.75), Fractional(2, 0.6, 0.8),
                  Fractional(3, 0.7, 0.9), identity_model()):
        w1, w2 = model.sample_pairs(np.random.default_rng(3), 5000)
        s1, s2 = searchsorted_signs(model.sign_joint, np.random.default_rng(3).random(5000))
        assert np.array_equal(w1, s1 * model.base**-model.alpha1)
        assert np.array_equal(w2, s2 * model.base**-model.alpha2)


def test_lognormal_sampling_matches_searchsorted_oracle():
    p = (1.0 + 2 ** (0.8 - 1.0)) / 2.0
    for sj in (None, SignJoint(p, 0.0, 0.0, 1.0 - p)):  # second table has empty cells
        model = lognormal_beta(2, 0.8, 0.1, sj)
        w1, w2 = model.sample_pairs(np.random.default_rng(4), 5000)
        rng = np.random.default_rng(4)
        u, g = rng.random(5000), rng.standard_normal(5000)
        s1, s2 = searchsorted_signs(model.sign_joint, u)
        factor = np.exp(model.sigma * g - model.sigma**2 / 2.0)
        mag = 2**-model.alpha
        assert np.array_equal(w1, s1 * mag * factor)
        assert np.array_equal(w2, s2 * mag * factor)


def where_signs(sj, u, mag1, mag2):
    """The former sampler: both signs read off the count of the sorted bounds with np.where."""
    c0, c1, c2, _ = np.maximum.accumulate(sj.cumulative())
    cell = (u >= c0).astype(np.uint8)
    cell += u >= c1
    cell += u >= c2
    return np.where(cell >= 2, -mag1, mag1), np.where(cell & 1, -mag2, mag2)


SUBNORMAL = 5e-324


@pytest.mark.parametrize(
    "sj", [SignJoint.independent(0.7, 0.8), SignJoint(0.5, -1e-13, 0.25, 0.25 + 1e-13)]
)
@pytest.mark.parametrize("mags", [(0.0, 0.0), (SUBNORMAL, 0.0), (0.0, SUBNORMAL), (0.5, 0.25)])
def test_sign_bits_equal_the_former_where_signs(sj, mags):
    u = bound_uniforms(sj)
    got = sign_sample(sj, u, *mags)
    want = where_signs(sj, u, *mags)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()
    if mags[0] == 0.0:  # a negative sign on a zero modulus is -0.0
        assert np.signbit(got[0]).any() and not np.signbit(got[0]).all()


NEGATIVE_CELL_TABLES = [
    SignJoint(-1e-13, 0.5 + 1e-13, 0.25, 0.25),
    SignJoint(0.5, -1e-13, 0.25, 0.25 + 1e-13),
    SignJoint(0.5, 0.25, -1e-13, 0.25 + 1e-13),
    SignJoint(0.5, 0.25, 0.25 + 1e-13, -1e-13),
    SignJoint(0.5, -1e-13, -1e-13, 0.5 + 2e-13),
]


@pytest.mark.parametrize("sj", NEGATIVE_CELL_TABLES)
def test_cells_of_negative_probability_are_never_drawn(sj):
    u = bound_uniforms(sj)
    w1, w2 = sign_sample(sj, u, 0.5, 0.25)
    drawn = {(bool(a), bool(b)) for a, b in zip(np.signbit(w1), np.signbit(w2))}
    probs = {(False, False): sj.pp, (False, True): sj.pm, (True, False): sj.mp, (True, True): sj.mm}
    assert drawn == {cell for cell, p in probs.items() if p > 0.0}


@pytest.mark.parametrize("sj, cell", [
    (SignJoint(0.25, 0.25, 0.5 - 5e-13, -1e-13), (True, False)),
    (SignJoint(0.5, 0.5 - 3e-13, -1e-13, -1e-13), (False, True)),
    (SignJoint(0.5, 0.25, 0.25 - 1e-13, 0.0), (True, True)),  # a zero cell keeps the rounding gap
])
def test_u_past_the_last_bound_falls_in_the_last_cell_not_of_negative_probability(sj, cell):
    top = np.nextafter(1.0, 0.0)
    u = np.array([top, np.nextafter(sj.cumulative()[2], 1.0), 0.0])
    w1, w2 = sign_sample(sj, u[:1], 1.0, 1.0)
    assert (bool(np.signbit(w1[0])), bool(np.signbit(w2[0]))) == cell
    assert (w1[0], w2[0]) == (-1.0 if cell[0] else 1.0, -1.0 if cell[1] else 1.0)
    w1, w2 = sign_sample(sj, u, 0.5, 0.25)
    probs = {(False, False): sj.pp, (False, True): sj.pm, (True, False): sj.mp, (True, True): sj.mm}
    assert all(probs[bool(a), bool(b)] >= 0.0 for a, b in zip(np.signbit(w1), np.signbit(w2)))


def test_mixed_sampling_matches_the_former_where_formula():
    model = Mixed.from_beta(2, 0.8, 0.1)
    w1, w2 = model.sample_pairs(np.random.default_rng(5), 5000)
    rng = np.random.default_rng(5)
    u, g = rng.random(5000), rng.standard_normal(5000)
    factor = np.exp(model.sigma * g - model.sigma**2 / 2.0)
    s1 = np.where(u < model.sign_plus, 1.0, -1.0)
    assert w1.tobytes() == (s1 * 2**-model.alpha * factor).tobytes()
    assert w2.tobytes() == (factor / 2).tobytes()


# ---------------------------------------------------------------------------
# table draws


class FixedUniforms:
    """A stand-in generator whose random(size) returns given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == len(self.u)
        return self.u.copy()


def test_table_never_draws_a_negative_probability_atom():
    # the middle atom's -1e-13 puts its cumulative sum just below the first one's
    table = DiscreteTable(2, (((0.1, 0.1), 0.5), ((0.2, 0.2), -1e-13), ((0.3, 0.3), 0.5 + 1e-13)))
    w1, w2 = table.sample_pairs(FixedUniforms([0.49999999999995]), 1)
    assert (w1[0], w2[0]) == (0.1, 0.1)
    cum = np.cumsum([p for _, p in table.atoms])
    edges = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)])
    u = np.concatenate([np.random.default_rng(2).random(5000), edges, [0.0, np.nextafter(1.0, 0.0)]])
    u = u[(u >= 0.0) & (u < 1.0)]
    w1, _ = table.sample_pairs(FixedUniforms(u), len(u))
    assert np.array_equal(w1, np.where(u < 0.5, 0.1, 0.3))


@pytest.mark.parametrize("atoms, drawn", [
    ((((0.1, 0.1), 0.5), ((0.2, 0.2), 0.5 - 5e-13), ((0.3, 0.3), -1e-13)), 0.2),
    ((((0.1, 0.1), 0.5), ((0.2, 0.2), 0.5 - 3e-13), ((0.3, 0.3), -1e-13), ((0.4, 0.4), -1e-13)), 0.2),
    ((((0.1, 0.1), 0.5), ((0.2, 0.2), 0.5 - 1e-13), ((0.3, 0.3), 0.0)), 0.3),  # a zero atom keeps the rounding gap
])
def test_table_u_past_the_last_bound_draws_the_last_atom_not_of_negative_probability(atoms, drawn):
    table = DiscreteTable(2, atoms)
    second_bound = np.cumsum([p for _, p in atoms])[1]  # the last bound below 1
    u = [np.nextafter(1.0, 0.0), second_bound, 0.75, 0.25]
    w1, w2 = table.sample_pairs(FixedUniforms(u), len(u))
    assert w1.tolist() == w2.tolist() == [drawn, drawn, 0.2, 0.1]


@pytest.mark.parametrize("table", [
    SYMMETRIC_TABLE,
    DiscreteTable(3, (((0.5, -0.2), 0.25), ((0.3, 0.9), 0.35), ((0.6, 0.4), 0.4))),
    DiscreteTable(2, (((0.0, 0.0), 0.0), ((0.5, 0.5), 0.5), ((0.7, 0.1), 0.0), ((-0.2, 0.3), 0.5))),
])
def test_table_draw_equals_the_former_searchsorted_draw(table):
    u = np.random.default_rng(9).random(5000)
    cum = np.cumsum([p for _, p in table.atoms])
    idx = np.minimum(np.searchsorted(cum, u, side="right"), len(table.atoms) - 1)
    vals = np.array([v for v, _ in table.atoms])
    w1, w2 = table.sample_pairs(FixedUniforms(u), len(u))
    assert w1.tobytes() == vals[idx, 0].tobytes() and w2.tobytes() == vals[idx, 1].tobytes()


# ---------------------------------------------------------------------------
# non-finite parameters


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sign_joint_rejects_non_finite(bad):
    with pytest.raises(ConfigError):
        SignJoint(bad, 0.0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        SignJoint(0.5, 0.5, 0.0, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_lognormal_and_mixed_reject_non_finite_sigma(bad):
    with pytest.raises(ConfigError):
        LognormalSigned(2, 0.8, bad)
    with pytest.raises(ConfigError):
        Mixed(2, 0.8, bad)
    with pytest.raises(ConfigError):
        LognormalSigned.from_beta(2, 0.8, bad)
    with pytest.raises(ConfigError):
        Mixed.from_beta(2, 0.8, bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_table_rejects_non_finite_atoms(bad):
    with pytest.raises(ConfigError):
        DiscreteTable(2, (((0.3, 0.7), 0.5), ((0.7, 0.3), bad)))
    with pytest.raises(ConfigError):
        DiscreteTable(2, (((bad, 0.7), 0.5), ((0.7, 0.3), 0.5)))
    with pytest.raises(ConfigError):
        DiscreteTable(2, (((0.3, 0.7), 0.5), ((0.7, bad), 0.5)))


# ---------------------------------------------------------------------------
# the signed form against the former float samplers


def former_with_sign(negative, mag):
    bits = negative.astype(np.uint64)
    bits <<= 63
    bits |= np.float64(mag).view(np.uint64)
    return bits.view(np.float64)


def former_sign_sample(sj, u, mag1, mag2):
    """The former SignJoint.sample: float signs straight from the bound count."""
    c0, c1, c2 = sj._bounds
    a, b, c = u >= c0, u >= c1, u >= c2
    odd = a ^ b
    odd ^= c
    return former_with_sign(b, mag1), former_with_sign(odd, mag2)


def former_sample_pairs(model, rng, size):
    """The four sample_pairs bodies from before the signed form, one per kind."""
    if isinstance(model, Fractional):
        return former_sign_sample(
            model.sign_joint, rng.random(size), model.base**-model.alpha1, model.base**-model.alpha2
        )
    if isinstance(model, LognormalSigned):
        u = rng.random(size)
        g = rng.standard_normal(size)
        mag = model.base**-model.alpha
        w1, w2 = former_sign_sample(model.sign_joint, u, mag, mag)
        factor = np.exp(g * model.sigma - model.sigma**2 / 2.0)
        w1 *= factor
        w2 *= factor
        return w1, w2
    if isinstance(model, Mixed):
        u = rng.random(size)
        g = rng.standard_normal(size)
        w1 = former_with_sign(u >= model.sign_plus, model.base**-model.alpha)
        factor = np.exp(g * model.sigma - model.sigma**2 / 2.0)
        w1 *= factor
        factor /= model.base
        return w1, factor
    bounds = model._draw_table[0]
    vals = np.array([v for v, _ in model.atoms])
    idx = np.searchsorted(bounds, rng.random(size), side="right")
    return vals[:, 0].copy()[idx], vals[:, 1].copy()[idx]


P3 = default_sign_plus(3, 0.7)

SIGNED_MODELS = [
    Fractional(2, 0.75, 0.6),
    Fractional(3, 0.7, 0.7, SignJoint(2 * P3 - 1, 1 - P3, 1 - P3, 0.0)),  # never two minus signs
    identity_model(),
    lognormal_beta(2, 0.8, 0.1),
    lognormal_beta(3, 0.7, 0.25, SignJoint(P3, 0.0, 0.0, 1 - P3)),  # equal signs
    Mixed.from_beta(2, 0.8, 0.1),
    SYMMETRIC_TABLE,
    DiscreteTable(3, (((0.5, -0.2), 0.25), ((0.3, 0.9), 0.35), ((0.6, 0.4), 0.4))),
    DiscreteTable(2, (((-0.0, 0.0), 0.25), ((0.0, -0.0), 0.25), ((-0.5, -0.5), 0.25), ((0.5, 0.5), 0.25))),
]


@pytest.mark.parametrize("model", SIGNED_MODELS, ids=lambda m: m.describe().splitlines()[0][5:])
@pytest.mark.parametrize("size", [1, 5000, 5001])  # 5001 starts the normals inside a Philox block
def test_assembled_pairs_equal_the_former_samplers_bit_for_bit(model, size):
    got = model.sample_pairs(np.random.default_rng(7), size)
    want = former_sample_pairs(model, np.random.default_rng(7), size)
    signs, m1, m2 = model.sample_pairs(np.random.default_rng(7), size, signed=True)
    for w, v, bit in zip(got, want, (1, 2)):
        assert w.dtype == v.dtype == np.float64 and w.tobytes() == v.tobytes()
        assert np.array_equal(signs & bit != 0, np.signbit(v))
    assert signs.dtype == np.uint8 and len(signs) == size and signs.max() <= 3
    assert [a.tobytes() for a in signed_pairs(signs, m1, m2)] == [v.tobytes() for v in want]


def test_signed_moduli_are_floats_shared_or_arrays_by_kind():
    rng = np.random.default_rng(1)
    _, m1, m2 = Fractional(2, 0.75, 0.6).sample_pairs(rng, 8, signed=True)
    assert (type(m1), type(m2)) == (float, float) and (m1, m2) == (2**-0.75, 2**-0.6)
    _, m1, m2 = lognormal_beta(2, 0.8, 0.1).sample_pairs(rng, 8, signed=True)
    assert m1 is m2 and m1.shape == (8,)
    for model in (Mixed.from_beta(2, 0.8, 0.1), SYMMETRIC_TABLE):
        _, m1, m2 = model.sample_pairs(rng, 8, signed=True)
        assert m1 is not m2 and m1.shape == m2.shape == (8,)


def test_table_zero_atoms_keep_their_sign_bits():
    table = SIGNED_MODELS[-1]
    u = [0.1, 0.3, 0.6, 0.9]
    signs, m1, m2 = table.sample_pairs(FixedUniforms(u), 4, signed=True)
    assert signs.tolist() == [1, 2, 3, 0]
    w1, w2 = table.sample_pairs(FixedUniforms(u), 4)
    assert np.signbit(w1).tolist() == [True, False, True, False]
    assert np.signbit(w2).tolist() == [False, True, True, False]
    assert np.abs(w1).tolist() == m1.tolist() == [0.0, 0.0, 0.5, 0.5]


@pytest.mark.parametrize("sj", SIGN_TABLES + NEGATIVE_CELL_TABLES)
def test_sign_joint_sample_equals_the_former_float_signs(sj):
    u = bound_uniforms(sj)
    for mags in ((0.5, 0.25), (0.0, SUBNORMAL)):
        got, want = sign_sample(sj, u, *mags), former_sign_sample(sj, u, *mags)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


# ---------------------------------------------------------------------------
# moments that overflow a double


@pytest.mark.parametrize("model, q", [
    (Fractional(2, 0.75, 0.75), (-2000.0, 0.0)),
    (SYMMETRIC_TABLE, (-2000.0, 0.0)),
    (lognormal_beta(2, 0.8, 0.1), (-200.0, -200.0)),
    (Mixed.from_beta(2, 0.8, 0.1), (-200.0, -200.0)),
])
def test_overflowing_moments_are_infinite(model, q):
    assert model.joint_moment(*q) == math.inf
    assert model.phi(*q) == -math.inf


P3 = default_sign_plus(3, 0.8)


@pytest.mark.parametrize("kind, signs, field", [
    (LognormalSigned, SignJoint(P3, 0.0, 0.0, 1.0 - P3), "sign_joint"),
    (Mixed, 0.9, "sign_plus"),
])
def test_from_beta_inverts_beta_and_passes_the_fourth_field(kind, signs, field):
    model = kind.from_beta(3, 0.8, 0.2, signs)
    assert model.beta == pytest.approx(0.2, rel=1e-14)
    assert model.sigma == math.sqrt(2.0 * 0.2 * math.log(3))
    assert getattr(model, field) == signs


@pytest.mark.parametrize("kind", [LognormalSigned, Mixed])
def test_moment_past_an_overflowing_factor_is_taken_in_logs(kind):
    # beta = 1/2 makes the moment b**((s*s - 3*s) / 2): at s = 3 it is 1, although
    # exp(sigma**2 * (s*s - s) / 2) = b**3 overflows a double for b = 10**300
    model = kind.from_beta(10**300, 1.0, 0.5)
    assert model.joint_moment(3.0, 0.0) == pytest.approx(1.0, rel=1e-9)
    assert model.joint_moment(4.0, 0.0) == math.inf  # b**2
    assert model.joint_moment(1.0, 0.0) == pytest.approx(10.0**-300, rel=1e-9)


@pytest.mark.parametrize("kind", [LognormalSigned, Mixed])
@pytest.mark.parametrize("q", [(1e160, 0.0), (1e200, 0.0), (1e308, 1e308)])
def test_moment_past_an_overflowing_square_is_infinite(kind, q):
    # b**(-alpha * s) underflowed to 0 while exp(spread) was inf, or s * s - s was inf - inf: NaN
    model = kind.from_beta(2, 0.8, 0.1)
    assert model.joint_moment(*q) == math.inf
    assert model.phi(*q) == -math.inf


@pytest.mark.parametrize("kind", [LognormalSigned, Mixed])
def test_moment_past_an_overflowing_square_without_spread_is_the_power(kind):
    # sigma = 0 leaves b**-exponent: 0 for a large positive q, inf for a large negative one
    model = kind(2, 0.8, 0.0)
    cases = (((1e200, 0.0), 0.0), ((1e308, 1e308), 0.0), ((-1e200, 0.0), math.inf), ((-1e308, -1e308), math.inf))
    for q, want in cases:
        assert model.joint_moment(*q) == want
    assert model.phi(1e200, 0.0) == math.inf


@pytest.mark.parametrize("kind", [LognormalSigned, Mixed])
def test_finite_lognormal_moments_keep_their_closed_form_bits(kind):
    # the closed form as each kind writes it, with an overflowing factor taken as inf
    model = kind.from_beta(3, 0.7, 0.2)
    for q1, q2 in ((1.3, 0.7), (-0.4, 2.5), (0.0, 0.0), (1e150, 0.0), (-3.0, -1e100)):
        s = q1 + q2
        spread = model.sigma**2 * (s * s - s) / 2.0
        exponent = model.alpha * s if kind is LognormalSigned else model.alpha * q1 + q2
        try:
            want = float(3 ** -exponent * math.exp(spread))
        except OverflowError:
            want = math.inf
        assert model.joint_moment(q1, q2) == want


@pytest.mark.parametrize("atoms, q, want", [
    ((((0.3, 0.7), 0.5), ((0.7, 0.3), 0.5)), (-700.0, 700.0), math.inf),  # (7/3)**700
    ((((0.3, 0.1), 0.5), ((0.7, 0.3), 0.5)), (-700.0, 700.0), 0.0),  # (1/3)**700 and (3/7)**700
    ((((0.0, 0.5), 0.5), ((1.0, 0.5), 0.5)), (-1.0, -2000.0), math.inf),  # 0**-1 times 0.5**-2000
    ((((0.0, 0.1), 0.5), ((1.0, 0.5), 0.5)), (1.0, -2000.0), math.inf),  # the second atom overflows
    ((((0.0, 0.1), 0.5), ((1.0, 1.0), 0.5)), (1.0, -2000.0), 0.5),  # 0 * 0.1**-2000 is 0
])
def test_table_moment_never_multiplies_inf_by_zero(atoms, q, want):
    assert DiscreteTable(2, atoms).joint_moment(*q) == want
