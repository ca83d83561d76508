"""Laws of the weight vector W = (W1, W2).

Four model kinds are supported:

* ``Fractional`` -- deterministic moduli |W_k| = b**-alpha_k with random
  signs drawn from a 2x2 joint table;
* ``LognormalSigned`` -- W_k = X_k * exp(sigma*Y - sigma**2/2) with a
  single shared standard normal Y and X_k = +-b**-alpha;
* ``Mixed`` -- W1 is signed lognormal, W2 = b**-1 * exp(sigma*Y - sigma**2/2)
  is almost surely positive (the random-metric example), one law
  (``SignedModulus``) with the two above;
* ``DiscreteTable`` -- an arbitrary finite-support law, used as an exact
  moment oracle.

Every model exposes sampling, exact joint absolute moments
E(|W1|**q1 * |W2|**q2), the concave functional

    phi(q1, q2) = -log_b E(|W1|**q1 * |W2|**q2)

with its gradient, and a checker for the moment assumptions: means equal
b**-1 (A0), some q in (1, 2] with E|W_k|**q < b**-1 (A1), and finiteness
of a negative moment of order > 2 (A2).  Infinite moments are first-class
values: joint_moment returns +inf where the moment is infinite or
overflows a double, and phi then returns -inf.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError

_PROB_TOL = 1e-12
# A table draw counts u >= bound over at most this many bounds, and binary-searches more:
# per 2**16 draws the two took equal time at 63 to 79 bounds (0.05 against 0.61 ms at 1 bound).
_COUNTED_BOUNDS = 64


def _pow_abs(v: float, q: float) -> float:
    """|v|**q with the conventions 0**0 = 1 and 0**negative = +inf; +inf where it overflows."""
    a = abs(v)
    if a == 0.0:
        if q == 0.0:
            return 1.0
        return math.inf if q < 0 else 0.0
    try:
        return a**q
    except OverflowError:
        return math.inf


def _atom_power(w1: float, w2: float, q1: float, q2: float) -> float:
    """|w1|**q1 * |w2|**q2 with the conventions of _pow_abs, never NaN.

    Where one power is +inf and the other 0 the product is taken in logs
    for nonzero moduli; with a zero modulus, 0**negative makes it +inf
    and else the exact zero wins.
    """
    term = _pow_abs(w1, q1) * _pow_abs(w2, q2)
    if not math.isnan(term):
        return term
    if w1 == 0.0 or w2 == 0.0:
        return math.inf if (w1 == 0.0 and q1 < 0) or (w2 == 0.0 and q2 < 0) else 0.0
    return _exp(q1 * math.log(abs(w1)) + q2 * math.log(abs(w2)))


def _exp(x: float) -> float:
    """e**x, +inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _sorted_bounds(probs) -> np.ndarray:
    """Sorted cumulative bounds of cells of probabilities ``probs``.

    A uniform u draws the cell numbered by the count of bounds at or
    below it: the cell ``searchsorted(bounds, u, side="right")`` finds.
    An accepted probability in [-1e-12, 0) puts its cumulative sum below
    the one before it; the running maximum keeps the bounds sorted, so
    such a cell's interval is empty and it is never drawn.  The last cell
    of positive probability, and every cell after it, get the bound inf,
    so a u at or past the last finite bound (probabilities summing to just
    below 1) draws that cell, never a trailing one of probability 0 or less.
    """
    bounds = np.maximum.accumulate(np.cumsum(probs))
    bounds[max(k for k, p in enumerate(probs) if p > 0.0) :] = np.inf
    return bounds


@dataclass(frozen=True)
class SignJoint:
    """Joint probability table over the sign pairs (+,+), (+,-), (-,+), (-,-)."""

    pp: float
    pm: float
    mp: float
    mm: float

    def __post_init__(self):
        probs = (self.pp, self.pm, self.mp, self.mm)
        if not all(math.isfinite(p) for p in probs):
            raise ConfigError(f"non-finite sign probability in {probs}")
        if any(p < -_PROB_TOL for p in probs):
            raise ConfigError(f"negative sign probability in {probs}")
        if abs(sum(probs) - 1.0) > _PROB_TOL:
            raise ConfigError(f"sign probabilities sum to {sum(probs)}, not 1")

    @classmethod
    def independent(cls, p1: float, p2: float) -> "SignJoint":
        return cls(p1 * p2, p1 * (1 - p2), (1 - p1) * p2, (1 - p1) * (1 - p2))

    @property
    def plus1(self) -> float:
        return self.pp + self.pm

    @property
    def plus2(self) -> float:
        return self.pp + self.mp

    @property
    def diagonal(self) -> float:
        """P(sign1 == sign2)."""
        return self.pp + self.mm

    @functools.cached_property
    def _bounds(self) -> tuple[float, float, float]:
        """The first three of the cells' sorted bounds (see _sorted_bounds), as floats."""
        c0, c1, c2, _ = _sorted_bounds((self.pp, self.pm, self.mp, self.mm)).tolist()
        return c0, c1, c2

    def signs(self, u: np.ndarray) -> np.ndarray:
        """Sign bytes for uniforms ``u`` in [0, 1): bit 0 set where W1 < 0, bit 1 where W2 < 0.

        Each u falls in the cell ++, +-, -+ or -- given by the number of
        the sorted bounds (see _bounds) at or below it: the cell that
        ``searchsorted`` finds.  The signs are read off the count, never
        off a single cumulative sum: W1 is negative iff the count is at
        least 2, which for sorted bounds is u >= c1 alone (u >= c2 implies
        it, and it implies u >= c0); W2 iff the count is odd (the parity
        of the three comparisons).
        """
        c0, c1, c2 = self._bounds
        a, b, c = u >= c0, u >= c1, u >= c2
        odd = a ^ b
        odd ^= c
        signs = odd.view(np.uint8)
        signs <<= 1
        signs |= b
        return signs


def _with_sign(signs: np.ndarray, bit: int, mag) -> np.ndarray:
    """-mag where sign bit ``bit`` (0 or 1) of ``signs`` is set, mag elsewhere (-0.0 for mag = 0.0).

    ``mag`` >= 0 is a float or an array as long as ``signs``.  The bit is
    shifted into the float sign bit and OR-ed onto the bits of mag,
    several times cheaper than np.where.
    """
    bits = np.empty(len(signs), dtype=np.uint64)
    np.right_shift(signs, bit, out=bits)
    bits <<= 63  # drops every higher bit
    bits |= np.asarray(mag, dtype=np.float64).view(np.uint64)
    return bits.view(np.float64)


def signed_pairs(signs: np.ndarray, m1, m2) -> tuple[np.ndarray, np.ndarray]:
    """(W1, W2) from the signed form: sign bytes (bit 0 for W1, bit 1 for W2) and moduli."""
    return _with_sign(signs, 0, m1), _with_sign(signs, 1, m2)


def default_sign_plus(base: int, alpha: float) -> float:
    """Marginal P(sign = +) making E(+-b**-alpha) = b**-1 exact."""
    return (1.0 + base ** (alpha - 1.0)) / 2.0


@dataclass(frozen=True)
class AssumptionReport:
    a0_ok: bool
    a1_ok: bool
    a1_witness: float | None
    a2_ok: bool
    a2_witness: float | None
    notes: str = ""

    @property
    def all_ok(self) -> bool:
        return self.a0_ok and self.a1_ok and self.a2_ok


class WeightModel:
    """Common interface of the four weight-law kinds."""

    base: int

    # -- sampling ----------------------------------------------------------

    def sample_pairs(self, rng: np.random.Generator, size: int):
        """Draw ``size`` i.i.d. copies of (W1, W2) in their signed form ``(signs, m1, m2)``.

        ``rng`` is read through ``rng.random(size)`` and, for the kinds
        that need normals, ``rng.standard_normal(size)`` after it, and
        through nothing else: on a fresh stream the uniforms take
        positions [0, size) and the normals follow.  Pair i depends on
        the i-th uniform and the i-th normal alone, so n pairs drawn in
        consecutive slices, from a reader that continues each of the two
        sequences where the previous slice stopped, equal n pairs drawn
        at once.  The grid walk (``cascade.grid_chunks``) reads the
        level streams in such slices.

        ``signs`` is a uint8 array with bit 0 set where W1 < 0 and bit 1
        where W2 < 0 (sign bits, so -0.0 counts as negative); ``m1`` and
        ``m2`` are the moduli |W1| and |W2|.  A modulus is a float when it
        is the same for every pair, else an array of length ``size``; the
        two are one array when |W1| = |W2| for every pair.
        ``signed_pairs(signs, m1, m2)`` assembles the float pairs.
        """
        raise NotImplementedError

    # -- analytic moments --------------------------------------------------

    def joint_moment(self, q1: float, q2: float) -> float:
        """E(|W1|**q1 * |W2|**q2); +inf where it is infinite or overflows a double."""
        raise NotImplementedError

    def mean(self, k: int) -> float:
        """E(W_k), signed, exact."""
        raise NotImplementedError

    def identical_weights(self) -> bool:
        """Whether P(W1 = W2) = 1 (certified from the parameters)."""
        raise NotImplementedError

    def symmetric_moments(self) -> bool:
        """Whether joint_moment(a, c) and joint_moment(c, a) are the same float for every a, c.

        False unless a kind certifies it: then the moment curves' two
        branches are one (see predict._psi and check_assumptions).
        """
        return False

    def phi(self, q1: float, q2: float) -> float:
        m = self.joint_moment(q1, q2)
        if math.isinf(m):
            return -math.inf
        if m == 0.0:
            return math.inf
        return -math.log(m) / math.log(self.base)

    def grad_phi(self, q1: float, q2: float) -> tuple[float, float]:
        raise NotImplementedError

    # -- description / digest ----------------------------------------------

    def describe(self) -> str:
        """Canonical model-file text (see modelio)."""
        raise NotImplementedError

    def digest(self) -> str:
        return hashlib.sha256(self.describe().encode()).hexdigest()[:16]


def _validate_base(base: int) -> None:
    if not 2 <= base <= sys.float_info.max:
        raise ConfigError(f"base must be in [2, {sys.float_info.max:g}], got {base}")


def _validate_alpha(alpha: float, lo: float = 0.0) -> None:
    if not lo < alpha <= 1.0:
        raise ConfigError(f"alpha must be in ({lo}, 1], got {alpha}")


def _validate_sigma(sigma: float) -> None:
    if not 0.0 <= sigma < math.inf:
        raise ConfigError(f"sigma must be finite and >= 0, got {sigma}")


def _lognormal_factor(g: np.ndarray, sigma: float) -> np.ndarray:
    """exp(sigma * g - sigma**2 / 2), computed in place over the normals ``g``."""
    g *= sigma
    g -= sigma**2 / 2.0
    return np.exp(g, out=g)


def sigma_from_beta(beta: float, base: int) -> float:
    """Invert beta = sigma**2 / (2 ln b)."""
    _validate_base(base)
    if not 0.0 <= beta < math.inf:
        raise ConfigError(f"beta must be finite and >= 0, got {beta}")
    return math.sqrt(2.0 * beta * math.log(base))


class SignedModulus(WeightModel):
    """W_k = s_k * b**-a_k * exp(sigma*Y - sigma**2/2), signs (s1, s2) from ``sign_joint``, one normal Y.

    A kind gives its ``exponents`` (a1, a2), ``sigma`` and ``sign_joint``;
    the rest of the law is written once here, and ``check_assumptions``
    and ``predict.closed_form_image_dim`` read it from the exponents.
    """

    exponents: tuple[float, float]  # (a1, a2)
    sigma: float
    sign_joint: SignJoint
    _alpha_floor = 0.0  # each exponent lies in (_alpha_floor, 1]

    def __post_init__(self):
        _validate_base(self.base)
        for a in self.exponents:
            _validate_alpha(a, self._alpha_floor)
        _validate_sigma(self.sigma)
        self._settle_signs()

    @property
    def beta(self) -> float:
        """sigma**2 / (2 ln b)."""
        return self.sigma**2 / (2.0 * math.log(self.base))

    def _settle_signs(self) -> None:
        """Default to independent signs, and check that the marginals make E(W_k) = b**-1 exact."""
        want = [default_sign_plus(self.base, a) for a in self.exponents]
        if self.sign_joint is None:
            object.__setattr__(self, "sign_joint", SignJoint.independent(*want))
        for k, plus, need in zip((1, 2), (self.sign_joint.plus1, self.sign_joint.plus2), want):
            if abs(plus - need) > 1e-9:
                raise ConfigError(
                    f"sign marginal {plus} for W{k} does not give E(W{k})=1/b (need {need})"
                )

    def _sign_rows(self) -> str:
        sj = self.sign_joint
        return f"sign ++ {sj.pp!r}\nsign +- {sj.pm!r}\nsign -+ {sj.mp!r}\nsign -- {sj.mm!r}\n"

    def _lognormal_moment(self, q1, q2, e):
        """b**-e * exp(sigma**2 * (s*s - s) / 2), s = q1 + q2, for the kind's exponent e = a1*q1 + a2*q2.

        Where s * s or s itself overflows (|s| past about 1.3e154), so
        that this reads 0 * inf or inf - inf, the log is taken with q
        scaled by 2**-600, which keeps every term finite: the moment is
        +inf, or 0.0 for sigma = 0 and a positive exponent.
        """
        s = q1 + q2
        spread = self.sigma**2 * (s * s - s) / 2.0
        try:
            m = float(self.base**-e * math.exp(spread))
        except OverflowError:  # one factor overflows: the product, in logs
            m = _exp(spread - e * math.log(self.base))
        if m != m:  # NaN: 0 * inf or inf - inf, past an overflowing square
            a1, a2 = self.exponents
            k = 2.0**-600
            p1, p2 = q1 * k, q2 * k
            spread = self.sigma**2 * ((p1 + p2) ** 2 - (p1 + p2) * k) / 2.0
            return _exp((spread - (a1 * p1 + a2 * p2) * k * math.log(self.base)) / k / k)
        return m

    def mean(self, k):
        plus = self.sign_joint.plus1 if k == 1 else self.sign_joint.plus2
        return self.base ** -self.exponents[k - 1] * (2.0 * plus - 1.0)

    def identical_weights(self):
        a1, a2 = self.exponents
        return a1 == a2 and self.sign_joint.diagonal >= 1.0 - _PROB_TOL

    def symmetric_moments(self):
        """a1 == a2: the moment's exponent a1*q1 + a2*q2 and s = q1 + q2 are then commutative sums."""
        a1, a2 = self.exponents
        return a1 == a2

    def grad_phi(self, q1, q2):
        a1, a2 = self.exponents
        beta = self.beta
        corr = beta * (2.0 * (q1 + q2) - 1.0) if beta else 0.0  # never 0 * inf where q1 + q2 overflows
        return (a1 - corr, a2 - corr)


@dataclass(frozen=True)
class Fractional(SignedModulus):
    """|W_k| = b**-alpha_k almost surely (sigma = 0), signs from ``sign_joint``.

    The sign marginals must reproduce E(W_k) = b**-1 exactly; the default
    joint is independent signs with those marginals.
    """

    base: int
    alpha1: float
    alpha2: float
    sign_joint: SignJoint = None  # type: ignore[assignment]
    sigma = 0.0
    _alpha_floor = 0.5

    @property
    def exponents(self):
        return (self.alpha1, self.alpha2)

    def sample_pairs(self, rng, size):
        signs = self.sign_joint.signs(rng.random(size))
        return signs, self.base**-self.alpha1, self.base**-self.alpha2

    def joint_moment(self, q1, q2):
        try:
            return float(self.base ** -(q1 * self.alpha1 + q2 * self.alpha2))
        except OverflowError:
            return math.inf

    def describe(self):
        return (
            f"kind fractional\nb {self.base}\nalpha1 {self.alpha1!r}\n"
            f"alpha2 {self.alpha2!r}\n{self._sign_rows()}"
        )


@dataclass(frozen=True)
class LognormalSigned(SignedModulus):
    """W_k = X_k * exp(sigma*Y - sigma**2/2), one shared normal Y per draw.

    X_k = +-b**-alpha with marginals making E(W_k) = b**-1.  The shared
    lognormal factor means |W1| = |W2| almost surely; only the signs can
    differ.
    """

    base: int
    alpha: float
    sigma: float
    sign_joint: SignJoint = None  # type: ignore[assignment]

    @property
    def exponents(self):
        return (self.alpha, self.alpha)

    def sample_pairs(self, rng, size):
        signs = self.sign_joint.signs(rng.random(size))
        mag = _lognormal_factor(rng.standard_normal(size), self.sigma)
        mag *= self.base**-self.alpha
        return signs, mag, mag

    def joint_moment(self, q1, q2):
        return self._lognormal_moment(q1, q2, self.alpha * (q1 + q2))

    def describe(self):
        return (
            f"kind lognormal\nb {self.base}\nalpha {self.alpha!r}\n"
            f"sigma {self.sigma!r}\n{self._sign_rows()}"
        )


@dataclass(frozen=True)
class Mixed(SignedModulus):
    """W1 signed lognormal, W2 = b**-1 * exp(sigma*Y - sigma**2/2) > 0.

    The second coordinate is almost surely positive, so F2 is increasing
    and F induces a random metric on [0, 1].
    """

    base: int
    alpha: float
    sigma: float
    sign_plus: float = None  # type: ignore[assignment]

    def _settle_signs(self):
        """Default to the sign_plus making E(W1) = b**-1; a given one need only be a probability."""
        if self.sign_plus is None:
            object.__setattr__(self, "sign_plus", default_sign_plus(self.base, self.alpha))
        if not 0.0 <= self.sign_plus <= 1.0:
            raise ConfigError(f"sign_plus must be a probability, got {self.sign_plus}")

    @property
    def exponents(self):
        return (self.alpha, 1.0)

    @functools.cached_property
    def sign_joint(self) -> SignJoint:
        """(p, 0, 1 - p, 0) for p = sign_plus: W2 is never negative."""
        return SignJoint(self.sign_plus, 0.0, 1.0 - self.sign_plus, 0.0)

    def sample_pairs(self, rng, size):
        signs = self.sign_joint.signs(rng.random(size))
        factor = _lognormal_factor(rng.standard_normal(size), self.sigma)
        mag1 = factor * self.base**-self.alpha
        factor /= self.base
        return signs, mag1, factor

    def joint_moment(self, q1, q2):
        return self._lognormal_moment(q1, q2, self.alpha * q1 + q2)

    def describe(self):
        return (
            f"kind mixed\nb {self.base}\nalpha {self.alpha!r}\n"
            f"sigma {self.sigma!r}\nsignplus {self.sign_plus!r}\n"
        )


@dataclass(frozen=True)
class DiscreteTable(WeightModel):
    """Finite-support law given as ((w1, w2), probability) atoms."""

    base: int
    atoms: tuple[tuple[tuple[float, float], float], ...]

    def __post_init__(self):
        _validate_base(self.base)
        if not self.atoms:
            raise ConfigError("DiscreteTable needs at least one atom")
        atoms = tuple(((float(w1), float(w2)), float(p)) for (w1, w2), p in self.atoms)
        if not all(math.isfinite(v) for (w1, w2), p in atoms for v in (w1, w2, p)):
            raise ConfigError(f"non-finite atom value or probability in {atoms}")
        object.__setattr__(self, "atoms", atoms)
        total = sum(p for _, p in atoms)
        if abs(total - 1.0) > _PROB_TOL:
            raise ConfigError(f"atom probabilities sum to {total}, not 1")
        if any(p < -_PROB_TOL for _, p in atoms):
            raise ConfigError("negative atom probability")

    @functools.cached_property
    def _draw_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The atoms' finite sorted bounds (see _sorted_bounds), their sign bytes and two modulus columns."""
        bounds = _sorted_bounds([p for _, p in self.atoms])
        vals = np.array([v for v, _ in self.atoms])
        negative = np.signbit(vals).astype(np.uint8)
        signs = negative[:, 0] | negative[:, 1] << 1
        return bounds[np.isfinite(bounds)], signs, np.abs(vals[:, 0]), np.abs(vals[:, 1])

    def sample_pairs(self, rng, size):
        """Each u draws the atom numbered by the count of finite bounds at or below it (see _draw_table).

        The bounds are sorted, so this is the first atom whose bound
        exceeds u, the one ``searchsorted(bounds, u, side="right")`` finds:
        an inf bound is never at or below a u in [0, 1).  Up to
        _COUNTED_BOUNDS bounds, one comparison pass per bound is cheaper
        than the binary search per draw, and past it the search is.
        """
        bounds, signs, mag1, mag2 = self._draw_table
        u = rng.random(size)
        if len(bounds) > _COUNTED_BOUNDS:
            idx = np.searchsorted(bounds, u, side="right")
        else:
            idx = np.zeros(size, dtype=np.intp)
            for c in bounds:
                idx += u >= c
        return signs[idx], mag1[idx], mag2[idx]

    def joint_moment(self, q1, q2):
        total = 0.0
        for (w1, w2), p in self.atoms:
            if p == 0.0:
                continue
            term = _atom_power(w1, w2, q1, q2)
            if math.isinf(term):
                return math.inf
            total += p * term
        return total

    def mean(self, k):
        return sum(p * (w1 if k == 1 else w2) for (w1, w2), p in self.atoms)

    def identical_weights(self):
        return all(w1 == w2 for (w1, w2), p in self.atoms if p > 0.0)

    def grad_phi(self, q1, q2):
        m = self.joint_moment(q1, q2)
        if math.isinf(m) or m == 0.0:
            raise DivergenceError(f"phi not finite at q=({q1}, {q2})")
        n1 = n2 = 0.0
        for (w1, w2), p in self.atoms:
            if p == 0.0:
                continue
            term = p * _atom_power(w1, w2, q1, q2)
            if term == 0.0:
                continue
            if abs(w1) == 0.0 or abs(w2) == 0.0:
                raise DivergenceError("gradient undefined at a zero atom")
            n1 += term * math.log(abs(w1))
            n2 += term * math.log(abs(w2))
        lb = math.log(self.base)
        return (-n1 / (m * lb), -n2 / (m * lb))

    def describe(self):
        lines = [f"kind table", f"b {self.base}"]
        for (w1, w2), p in self.atoms:
            lines.append(f"atom {w1!r} {w2!r} {p!r}")
        return "\n".join(lines) + "\n"


def _a1_condition_closed_form(alpha: float, beta: float) -> bool:
    """Closed-form (A1) for the sign-and-modulus kinds, alpha the smaller exponent."""
    if beta >= 1.0 or alpha > 1.0:
        return False
    if beta >= 0.25:
        return 2.0 * math.sqrt(beta) - beta < alpha
    return beta + 0.5 < alpha


_A1_GRID_POINTS = 512  # points of the (A1) scan over q in (1, 2]


def check_assumptions(model: WeightModel) -> AssumptionReport:
    """Verify (A0)-(A2) for a model.

    (A0) is checked against the analytic means; (A1) by scanning
    E|W_k|**q over q in (1, 2] and refining the best candidate by
    trisection; (A2) analytically (the sign-and-modulus kinds have all
    negative moments, a table fails iff it carries a zero atom).  For the
    sign-and-modulus kinds the scan answer is cross-checked against the
    closed-form admissibility condition.

    The scan's curve max_k E|W_k|**q is one branch, E|W1|**q, for a law
    with ``symmetric_moments``: there E|W2|**q is the same float, so the
    report is the one the max of both gives.  Else every point evaluates
    both branches, since the argmin and the trisection compare values.
    """
    b = model.base
    notes = []

    a0_ok = abs(model.mean(1) - 1.0 / b) <= 1e-9 and abs(model.mean(2) - 1.0 / b) <= 1e-9
    if not a0_ok:
        notes.append(f"means ({model.mean(1)}, {model.mean(2)}) != 1/b")

    symmetric = model.symmetric_moments()

    def worst(q):
        m = model.joint_moment(q, 0.0)
        return m if symmetric else max(m, model.joint_moment(0.0, q))

    grid_points = _A1_GRID_POINTS
    qs = 1.0 + np.arange(1, grid_points + 1) / grid_points
    vals = np.array([worst(q) for q in qs])
    i = int(np.argmin(vals))
    lo = qs[max(i - 1, 0)]
    hi = qs[min(i + 1, grid_points - 1)]
    for _ in range(80):  # trisection on the (convex) moment curve
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if worst(m1) <= worst(m2):
            hi = m2
        else:
            lo = m1
    q_best = float(min(max((lo + hi) / 2.0, 1.0 + 1.0 / grid_points), 2.0))
    a1_ok = worst(q_best) < 1.0 / b
    a1_witness = q_best if a1_ok else None

    if isinstance(model, SignedModulus):
        closed = _a1_condition_closed_form(min(model.exponents), model.beta)
        if closed != a1_ok:
            notes.append(
                f"A1 scan ({a1_ok}) disagrees with closed form ({closed}); "
                "trusting the closed form"
            )
            a1_ok = closed
            a1_witness = q_best if closed else None

    if isinstance(model, DiscreteTable):
        a2_ok = all(w1 != 0.0 and w2 != 0.0 for (w1, w2), p in model.atoms if p > 0.0)
        if not a2_ok:
            notes.append("a zero atom gives infinite negative moments (A2 fails)")
    else:
        a2_ok = True  # moduli bounded away from 0 (lognormal has all negative moments)
    a2_witness = 3.0 if a2_ok else None

    return AssumptionReport(a0_ok, a1_ok, a1_witness, a2_ok, a2_witness, "; ".join(notes))
