"""The benchmark's workloads: model files, CLI command lists and output checks.

Each workload is a list of ``cascadelab`` CLI invocations (one pass).  The
workload seed only shifts the ``--seed`` values; seed 0 reproduces the
seeds of the acceptance tests that a command mirrors.  Every command's
CSV output is checked against the paper's closed-form prediction with the
tolerance ``tests/test_acceptance.py`` uses for the same quantity, except
where the comment below says otherwise.  The closed forms are written out
here, not taken from ``cascadelab.predict``, so that a change to the
solvers cannot move its own yardstick.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

Q_PAIRS = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5))
Q_TEXT = "1,0;0,1;1,1;0.5,0.5"
SEED_STRIDE = 100  # workload seed n runs CLI seeds default + 100 * n

# The acceptance tests check single realizations at fixed seeds; the
# benchmark runs arbitrary seeds, so each check must hold at every seed.
# Two did not at the acceptance tolerance: over 84 seeds the fractional
# Holder mean missed grad phi by more than 0.05 on 3 (bias +0.014, SD
# 0.019), and over 40 seeds the depth-22 lognormal partition slope at
# q = (1, 1) did on 5 (bias -0.025, SD 0.023).  Each takes the tolerance the
# acceptance tests use for its law's dimension estimates (0.10 fractional,
# 0.15 lognormal), at least bias + 4 SD from the prediction.  The sweep
# checks each test set's two-seed mean, as image-dim checks its eight-seed
# mean.  bench/README.md has the per-seed data.
SINGLE_FRACTIONAL_HOLDER_TOL = 0.10
SINGLE_LOGNORMAL_PARTITION_TOL = 0.15


@dataclass(frozen=True)
class Law:
    """A weight law with the parameters its closed forms need."""

    kind: str
    base: int = 2
    alpha: float = 0.0  # alpha1 == alpha2 for the fractional laws used here
    beta: float = 0.0
    atoms: tuple = ()

    def text(self) -> str:
        if self.kind == "fractional":
            body = f"alpha1 {self.alpha}\nalpha2 {self.alpha}\n"
        elif self.kind == "table":
            body = "".join(f"atom {w1} {w2} {p}\n" for (w1, w2), p in self.atoms)
        else:
            body = f"alpha {self.alpha}\nbeta {self.beta}\n"
        return f"kind {self.kind}\nb {self.base}\n{body}"


LAWS = {
    "frac75": Law("fractional", alpha=0.75),
    "frac75_b4": Law("fractional", base=4, alpha=0.75),
    "frac70": Law("fractional", alpha=0.7),
    "lognormal": Law("lognormal", alpha=0.8, beta=0.1),
    "mixed": Law("mixed", alpha=0.8, beta=0.1),
    "table": Law("table", atoms=(((0.3, 0.7), 0.5), ((0.7, 0.3), 0.5))),
}


# ---------------------------------------------------------------------------
# closed forms


def phi(law: Law, q) -> float:
    """-log_b E(|W1|^q1 |W2|^q2) for the fractional and lognormal laws."""
    s = q[0] + q[1]
    if law.kind == "fractional":
        return law.alpha * s
    if law.kind == "lognormal":
        return law.alpha * s - law.beta * (s * s - s)
    raise ValueError(f"no closed-form phi for {law.kind}")


def grad_phi(law: Law, q) -> tuple[float, float]:
    q1, q2 = q
    if law.kind == "fractional":
        return law.alpha, law.alpha
    if law.kind == "lognormal":
        d = law.alpha - law.beta * (2.0 * (q1 + q2) - 1.0)
        return d, d
    if law.kind == "table":
        terms = [(p * abs(w1) ** q1 * abs(w2) ** q2, w1, w2) for (w1, w2), p in law.atoms]
        m = sum(t for t, _, _ in terms) * math.log(law.base)
        return (
            -sum(t * math.log(abs(w1)) for t, w1, _ in terms) / m,
            -sum(t * math.log(abs(w2)) for t, _, w2 in terms) / m,
        )
    raise ValueError(f"no closed-form gradient for {law.kind}")


def kpz_dim(law: Law, xi0: float) -> float:
    """Image dimension of a dimension-xi0 set (lognormal and mixed laws).

    Smallest root of beta x^2 - B x + C = 0: B = alpha + beta, C = xi0,
    and for the mixed law above xi0 = alpha, B = 1 + beta, C = xi0 + 1 - alpha.
    """
    bcoef, ccoef = law.alpha + law.beta, xi0
    if law.kind == "mixed" and xi0 > law.alpha:
        bcoef, ccoef = 1.0 + law.beta, xi0 + 1.0 - law.alpha
    if law.beta == 0.0:
        return ccoef / bcoef
    return (bcoef - math.sqrt(bcoef * bcoef - 4.0 * law.beta * ccoef)) / (2.0 * law.beta)


def testset_dim(spec: str, base: int) -> float:
    """Dimension of the CLI's 'block:digits:gens' Cantor set."""
    block, keep, _ = spec.split(":")
    return math.log(len(keep.split(","))) / (int(block) * math.log(base))


# ---------------------------------------------------------------------------
# output checks: each takes the command's output directory and returns
# (estimates, problems); an empty problem list means the output is correct


def _rows(out: Path, name: str) -> list[dict]:
    with open(out / name, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _within(problems, label, value, want, tol) -> None:
    if not abs(value - want) <= tol:  # also catches NaN
        problems.append(f"{label}: {value:.6g} not within {tol} of {want:.6g}")


def check_image_dim(law: Law, tol: float, out: Path):
    vals = [float(r["estimate"]) for r in _rows(out, "image-dim.csv")]
    mean = sum(vals) / len(vals)
    want = 1.0 / law.alpha if law.kind == "fractional" else kpz_dim(law, 1.0)
    problems = []
    _within(problems, "mean image dim", mean, want, tol)
    return {"mean": mean, "seeds": len(vals)}, problems


def check_partition(law: Law, tol: float, out: Path):
    by_q: dict[str, list[float]] = {}
    for r in _rows(out, "partition.csv"):
        by_q.setdefault(r["q"], []).append(float(r["slope"]))
    estimates, problems = {}, []
    for q in Q_PAIRS:
        key = f"{q[0]:.6g},{q[1]:.6g}"
        slopes = by_q.get(key, [])
        if not slopes:
            problems.append(f"q={key}: no rows")
            continue
        mean = sum(slopes) / len(slopes)
        estimates[f"slope[{key}]"] = mean
        _within(problems, f"q={key} mean slope", mean, 1.0 - phi(law, q), tol)
    return estimates, problems


def check_uniform_sweep(law: Law, specs, seeds: int, out: Path):
    """Each test set's estimate, averaged over the seeds, against dim K / alpha."""
    by_xi0: dict[str, list[float]] = {}
    for r in _rows(out, "uniform-sweep.csv"):
        by_xi0.setdefault(r["xi0"], []).append(float(r["estimate"]))
    estimates, problems = {}, []
    for spec in specs:
        dim = testset_dim(spec, law.base)
        vals = by_xi0.get(f"{dim:.6g}", [])
        if len(vals) != seeds:
            problems.append(f"xi0={dim:.6g}: {len(vals)} rows, expected {seeds}")
            continue
        mean = sum(vals) / len(vals)
        estimates[f"mean[{dim:.6g}]"] = mean
        _within(problems, f"xi0={dim:.6g} mean", mean, dim / law.alpha, 0.15)
    return estimates, problems


def check_levelset(law: Law, out: Path):
    rows = _rows(out, "levelset.csv")
    vals = [float(r["estimate"]) for r in rows if r["empty"] == "0"]
    problems = []
    if len(vals) < 12:
        problems.append(f"only {len(vals)} of {len(rows)} levels non-empty (need 12)")
        return {"nonempty": len(vals)}, problems
    mean = sum(vals) / len(vals)
    _within(problems, "mean level-set dim", mean, 1.0 - law.alpha, 0.10)
    return {"mean": mean, "nonempty": len(vals)}, problems


def check_holder(law: Law, q, tol: float, out: Path):
    (row,) = _rows(out, "holder_summary.csv")
    g1, g2 = grad_phi(law, q)
    h1, h2 = float(row["mean_h1"]), float(row["mean_h2"])
    problems = []
    _within(problems, "mean h1", h1, g1, tol)
    _within(problems, "mean h2", h2, g2, tol)
    return {"mean_h1": h1, "mean_h2": h2}, problems


def check_predict(law: Law, points: int, out: Path):
    rows = _rows(out, "predict.csv")
    problems, worst = [], 0.0
    for r in rows:
        xi0, dim = float(r["xi0"]), float(r["predicted_dim"])
        gap = abs(dim - kpz_dim(law, xi0))
        worst = max(worst, gap)
        if not gap <= 1e-8:
            problems.append(f"xi0={xi0}: {dim!r} vs closed form {kpz_dim(law, xi0)!r}")
    if len(rows) != points:
        problems.append(f"expected {points} rows, got {len(rows)}")
    return {"max_gap": worst, "dim_at_1": float(rows[-1]["predicted_dim"])}, problems


def check_spectrum(law: Law, xi0: float, out: Path):
    rows = _rows(out, "spectrum-predict.csv")
    problems, estimates = [], {}
    for r, q in zip(rows, Q_PAIRS):
        a1, a2 = grad_phi(law, q)
        want = xi0 + q[0] * a1 + q[1] * a2 - phi(law, q)
        got = float(r["dim_level_set"])
        estimates[f"dim[{r['q1']},{r['q2']}]"] = got
        _within(problems, f"q=({r['q1']},{r['q2']}) alpha1", float(r["alpha1"]), a1, 1e-8)
        _within(problems, f"q=({r['q1']},{r['q2']}) dim", got, want, 1e-8)
    if len(rows) != len(Q_PAIRS):
        problems.append(f"expected {len(Q_PAIRS)} rows, got {len(rows)}")
    return estimates, problems


def check_simulate(law: Law, level: int, out: Path):
    n = bad = 0
    with open(out / "simulate.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            n += 1
            if not all(math.isfinite(float(v)) for v in row[1:]):
                bad += 1
    problems = []
    if n != law.base**level or bad:
        problems.append(f"{n} rows ({bad} non-finite), expected {law.base**level} finite")
    return {"rows": n}, problems


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``--model`` and ``--out`` are added by the runner."""

    law: str
    argv: tuple[str, ...]
    check: Callable[[Path], tuple[dict, list[str]]]

    @property
    def name(self) -> str:
        return self.argv[0]


def _seed(default: int, seed: int) -> str:
    return str(default + SEED_STRIDE * seed)


def ensemble(seed: int) -> list[Command]:
    """Many mid-size realizations: sampling, build loop and box counting."""
    frac, logn = LAWS["frac75"], LAWS["lognormal"]
    s = _seed(0, seed)
    return [
        Command("frac75", ("image-dim", "--depth", "18", "--seed", s, "--seeds", "8"),
                partial(check_image_dim, frac, 0.10)),
        Command("lognormal", ("image-dim", "--depth", "18", "--seed", s, "--seeds", "8"),
                partial(check_image_dim, logn, 0.15)),
        Command("frac75", ("partition", "--depth", "18", "--seed", s, "--seeds", "8",
                           "--q", Q_TEXT, "--scales", "3:14"),
                partial(check_partition, frac, 0.05)),
    ]


SWEEP_SETS = ("1:0,3:8", "1:0,1,2:8", "1:0,1,2,3:8")


def deep(seed: int) -> list[Command]:
    """Few realizations at the cell budget, each read many ways."""
    sweep = ("uniform-sweep", "--depth", "12", "--seed", _seed(1, seed), "--seeds", "2")
    for spec in SWEEP_SETS:
        sweep += ("--testset", spec)
    return [
        Command("frac75_b4", sweep, partial(check_uniform_sweep, LAWS["frac75_b4"], SWEEP_SETS, 2)),
        Command("lognormal", ("partition", "--depth", "22", "--seed", _seed(0, seed),
                              "--q", Q_TEXT, "--scales", "2:18"),
                partial(check_partition, LAWS["lognormal"], SINGLE_LOGNORMAL_PARTITION_TOL)),
        Command("frac70", ("levelset", "--depth", "20", "--seed", _seed(5, seed),
                           "--y-count", "16", "--level", "16"),
                partial(check_levelset, LAWS["frac70"])),
    ]


def loops(seed: int) -> list[Command]:
    """Per-item Python loops over tiny realizations, and one large export."""
    holder = ("holder", "--depth", "16", "--q", "1,1", "--paths", "2000",
              "--scales", "3:12", "--seed", _seed(2, seed))
    return [
        Command("table", holder, partial(check_holder, LAWS["table"], (1.0, 1.0), 0.05)),
        Command("frac75", holder, partial(check_holder, LAWS["frac75"], (1.0, 1.0), SINGLE_FRACTIONAL_HOLDER_TOL)),
        Command("lognormal", ("predict", "--xi0-grid", "257"),
                partial(check_predict, LAWS["lognormal"], 257)),
        Command("mixed", ("predict", "--xi0-grid", "257"),
                partial(check_predict, LAWS["mixed"], 257)),
        Command("lognormal", ("spectrum-predict", "--q", Q_TEXT, "--xi0", "0.8"),
                partial(check_spectrum, LAWS["lognormal"], 0.8)),
        Command("frac75", ("simulate", "--depth", "16", "--seed", _seed(0, seed)),
                partial(check_simulate, LAWS["frac75"], 16)),
    ]


WORKLOADS = {"ensemble": ensemble, "deep": deep, "loops": loops}
