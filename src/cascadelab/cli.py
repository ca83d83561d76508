"""Batch command-line front door.

Model files in, CSV tables and JSON run manifests out.  One synchronous
process, no daemon; every output is regenerable from its manifest.

Exit codes: 0 ok, 2 config error, 3 assumption failure, 4 numeric
failure (no root / degenerate range), 5 resource limit.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, cascade, estimate, modelio, predict
from .errors import (
    AssumptionError,
    ConfigError,
    NumericError,
    ResourceError,
)
from .weights import check_assumptions

EXIT_CONFIG = 2
EXIT_ASSUMPTION = 3
EXIT_NUMERIC = 4
EXIT_RESOURCE = 5


def _number(convert, text: str, what: str):
    """``convert(text)``, with a malformed number reported as a ConfigError."""
    try:
        return convert(text)
    except ValueError as e:
        raise ConfigError(f"bad {what} {text!r}: {e}") from e


def _parse_q_list(text: str) -> list[tuple[float, float]]:
    out = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"bad q pair {chunk!r} (expected 'q1,q2')")
        out.append(tuple(_number(float, p, "q value") for p in parts))
    return out


def _parse_testset(text: str, base: int) -> estimate.TestSet:
    """Format: 'block:keep1,keep2,...:generations', e.g. '2:0,3:7'."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"bad test-set spec {text!r} (expected 'block:digits:gens')")
    block = _number(int, parts[0], "test-set block")
    keep = tuple(_number(int, d, "test-set digit") for d in parts[1].split(","))
    return estimate.cantor_set(base, keep, _number(int, parts[2], "test-set generations"), block)


def _parse_window(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"bad scale window {text!r} (expected 'lo:hi')")
    return _number(int, parts[0], "scale"), _number(int, parts[1], "scale")


def _xi0_grid(spec: str) -> list[float]:
    """Either an integer point count for a uniform grid on [0,1], or a
    comma-separated list of values."""
    if "," in spec:
        return [_number(float, v, "xi0 value") for v in spec.split(",")]
    n = _number(int, spec, "xi0 grid size")
    if n < 2:
        raise ConfigError("xi0 grid needs at least 2 points")
    return [i / (n - 1) for i in range(n)]


def _seeds(args) -> list[int]:
    if args.seeds is not None:
        return [args.seed + i for i in range(args.seeds)]
    return [args.seed]


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_manifest(out: Path, command: str, args, model, seeds, t0) -> None:
    config = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "model_digest": model.digest() if model is not None else None,
        "seeds": seeds,
        "wall_time_s": round(time.time() - t0, 3),
    }
    with open(out / f"{command}_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _prepare(args, need_assumptions=True):
    model = modelio.load_model(args.model)
    if need_assumptions:
        report = check_assumptions(model)
        if not report.all_ok and not getattr(args, "force", False):
            raise AssumptionError(
                f"model fails assumptions (a0={report.a0_ok}, a1={report.a1_ok}, "
                f"a2={report.a2_ok}); use --force to override. {report.notes}"
            )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return model, out


def cmd_check_model(args) -> int:
    t0 = time.time()
    model = modelio.load_model(args.model)
    report = check_assumptions(model)
    payload = dataclasses.asdict(report)
    payload["model_digest"] = model.digest()
    payload["identical_weights"] = model.identical_weights()
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "check-model.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        _write_manifest(out, "check-model", args, model, [], t0)
    if not report.all_ok:
        raise AssumptionError(f"assumptions fail: {payload}")
    return 0


def cmd_predict(args) -> int:
    t0 = time.time()
    model, out = _prepare(args)
    grid = _xi0_grid(args.xi0_grid)
    rows = predict.kpz_curve(model, grid)
    _write_csv(
        out / "predict.csv",
        ["xi0", "xi", "zeta", "xistar", "predicted_dim", "branch"],
        [
            (f"{r.xi0:.12g}", f"{r.xi:.12g}", f"{r.zeta:.12g}", f"{r.xi_star:.12g}", f"{r.predicted_dim:.12g}", r.branch)
            for r in rows
        ],
    )
    _write_manifest(out, "predict", args, model, [], t0)
    return 0


def cmd_spectrum_predict(args) -> int:
    t0 = time.time()
    model, out = _prepare(args)
    qs = _parse_q_list(args.q)
    rows = []
    for q in qs:
        p = predict.legendre_point(model, q, args.xi0)
        rows.append(
            (
                f"{q[0]:.12g}",
                f"{q[1]:.12g}",
                f"{p.alpha[0]:.12g}",
                f"{p.alpha[1]:.12g}",
                f"{p.dim_level_set:.12g}",
                int(p.in_j),
            )
        )
    _write_csv(
        out / "spectrum-predict.csv",
        ["q1", "q2", "alpha1", "alpha2", "dim_level_set", "in_J"],
        rows,
    )
    _write_manifest(out, "spectrum-predict", args, model, [], t0)
    return 0


def cmd_simulate(args) -> int:
    t0 = time.time()
    model, out = _prepare(args)
    real = cascade.build(model, args.seed, args.depth)
    level = args.level if args.level is not None else args.depth
    rows = [
        (w, f"{q1:.17g}", f"{q2:.17g}", f"{f1:.17g}", f"{f2:.17g}")
        for w, q1, q2, f1, f2 in cascade.export_level(real, level)
    ]
    _write_csv(out / "simulate.csv", ["word", "q1", "q2", "f1", "f2"], rows)
    if args.cache is not None:
        cache_dir = Path(args.cache)
        cache_dir.mkdir(parents=True, exist_ok=True)
        name = f"{model.digest()}_{args.seed}_{args.depth}.npz"
        cascade.save(real, cache_dir / name)
    _write_manifest(out, "simulate", args, model, [args.seed], t0)
    return 0


def _estimate_row(seed, label, est, prediction=None):
    row = [
        seed,
        label,
        f"{est.value:.12g}",
        f"{est.stderr:.12g}",
        f"{est.r_squared:.12g}",
        est.scale_range[0],
        est.scale_range[1],
    ]
    if prediction is not None:
        row.append(f"{prediction:.12g}")
    return tuple(row)


def cmd_image_dim(args) -> int:
    t0 = time.time()
    model, out = _prepare(args)
    ts = (
        _parse_testset(args.testset, model.base)
        if args.testset is not None
        else estimate.cantor_set(model.base, range(model.base), args.depth - 4)
    )
    seeds = _seeds(args)
    rows = []
    for seed in seeds:
        real = cascade.build(model, seed, args.depth)
        est = estimate.image_box_dim(real, ts)
        rows.append(_estimate_row(seed, f"{ts.dimension:.6g}", est))
    _write_csv(
        out / "image-dim.csv",
        ["seed", "xi0", "estimate", "stderr", "r2", "j_min", "j_max"],
        rows,
    )
    _write_manifest(out, "image-dim", args, model, seeds, t0)
    return 0


def cmd_partition(args) -> int:
    t0 = time.time()
    model, out = _prepare(args)
    qs = _parse_q_list(args.q)
    lo, hi = _parse_window(args.scales) if args.scales else (2, args.depth - 4)
    seeds = _seeds(args)
    rows = []
    for seed in seeds:
        real = cascade.build(model, seed, args.depth)
        for q in qs:
            est = estimate.partition_function(real, q, lo, hi)
            expected = 1.0 - model.phi(*q)
            rows.append(_estimate_row(seed, f"{q[0]:.6g},{q[1]:.6g}", est, expected))
    _write_csv(
        out / "partition.csv",
        ["seed", "q", "slope", "stderr", "r2", "m_min", "m_max", "expected"],
        rows,
    )
    _write_manifest(out, "partition", args, model, seeds, t0)
    return 0


def cmd_holder(args) -> int:
    t0 = time.time()
    model, out = _prepare(args)
    qs = _parse_q_list(args.q)
    if len(qs) != 1:
        raise ConfigError(f"holder takes one q pair, got {len(qs)}")
    q = qs[0]
    lo, hi = _parse_window(args.scales) if args.scales else (2, args.depth - 4)
    real = cascade.build(model, args.seed, args.depth)
    rng = np.random.default_rng(args.seed + 1)
    idx = []
    for _ in range(args.paths):
        w = cascade.sample_tilted_path(real, q, hi, rng)
        idx.append(w.index)
    h1, h2 = estimate.holder_exponents(real, idx, lo, hi)
    a1, a2 = model.grad_phi(*q)
    rows = [
        (i, f"{v1:.12g}", f"{v2:.12g}") for i, (v1, v2) in enumerate(zip(h1, h2))
    ]
    _write_csv(out / "holder.csv", ["path", "h1", "h2"], rows)
    _write_csv(
        out / "holder_summary.csv",
        ["q", "mean_h1", "mean_h2", "grad_phi_1", "grad_phi_2", "paths"],
        [
            (
                f"{q[0]:.6g},{q[1]:.6g}",
                f"{h1.mean():.12g}",
                f"{h2.mean():.12g}",
                f"{a1:.12g}",
                f"{a2:.12g}",
                args.paths,
            )
        ],
    )
    _write_manifest(out, "holder", args, model, [args.seed], t0)
    return 0


def cmd_levelset(args) -> int:
    t0 = time.time()
    model, out = _prepare(args)
    real = cascade.build(model, args.seed, args.depth)
    level = args.level if args.level is not None else args.depth - 4
    if args.y is not None:
        ys = [args.y]
    else:
        edges, masses = estimate.occupation_histogram(real, args.k, 64)
        rng = np.random.default_rng(args.seed + 1)
        ys = estimate.sample_occupation_levels(edges, masses, rng, args.y_count).tolist()
    rows = []
    for y in ys:
        _, est = estimate.level_set(real, args.k, y, level)
        rows.append(
            (
                f"{y:.12g}",
                f"{est.value:.12g}",
                f"{est.stderr:.12g}",
                f"{est.r_squared:.12g}",
                int(est.empty),
            )
        )
    _write_csv(
        out / "levelset.csv", ["y", "estimate", "stderr", "r2", "empty"], rows
    )
    _write_manifest(out, "levelset", args, model, [args.seed], t0)
    return 0


def cmd_uniform_sweep(args) -> int:
    t0 = time.time()
    model, out = _prepare(args)
    test_sets = [_parse_testset(t, model.base) for t in args.testset]
    seeds = _seeds(args)
    rows = []
    for seed in seeds:
        real = cascade.build(model, seed, args.depth)
        for row in estimate.uniform_sweep(real, test_sets):
            rows.append(_estimate_row(seed, f"{row.xi0:.6g}", row.estimate, row.prediction))
    _write_csv(
        out / "uniform-sweep.csv",
        ["seed", "xi0", "estimate", "stderr", "r2", "j_min", "j_max", "prediction"],
        rows,
    )
    _write_manifest(out, "uniform-sweep", args, model, seeds, t0)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadelab",
        description="Two-dimensional signed multiplicative cascades: "
        "predictions and empirical verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--model", required=True, help="model specification file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--force", action="store_true", help="skip the assumption gate")
        p.set_defaults(func=func)
        return p

    p = add("check-model", cmd_check_model, help="print the assumption report")

    p = add("predict", cmd_predict, help="xi/zeta/KPZ prediction table")
    p.add_argument("--xi0-grid", default="65", help="point count or comma list")

    p = add("spectrum-predict", cmd_spectrum_predict, help="restricted spectrum points")
    p.add_argument("--q", required=True, help="q pairs 'q1,q2;q1,q2;...'")
    p.add_argument("--xi0", type=float, default=1.0)

    def add_sim(name, func, **kw):
        p = add(name, func, **kw)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--depth", type=int, required=True)
        return p

    p = add_sim("simulate", cmd_simulate, help="build and export a realization")
    p.add_argument("--level", type=int, help="export level (default: depth)")
    p.add_argument("--cache", help="directory for the binary realization cache")

    p = add_sim("image-dim", cmd_image_dim, help="box dimension of F(K)")
    p.add_argument("--seeds", type=int, help="number of consecutive seeds")
    p.add_argument("--testset", help="'block:digits:gens', default [0,1]")

    p = add_sim("partition", cmd_partition, help="oscillation partition function")
    p.add_argument("--seeds", type=int)
    p.add_argument("--q", required=True)
    p.add_argument("--scales", help="level window 'lo:hi'")

    p = add_sim("holder", cmd_holder, help="Holder exponents along tilted paths")
    p.add_argument("--q", required=True)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--scales", help="level window 'lo:hi'")

    p = add_sim("levelset", cmd_levelset, help="level-set extraction and dimension")
    p.add_argument("--k", type=int, default=1, choices=(1, 2))
    p.add_argument("--y", type=float, help="explicit level")
    p.add_argument("--y-count", type=int, default=16, help="occupation-sampled levels")
    p.add_argument("--level", type=int, help="extraction level (default depth-4)")

    p = add_sim("uniform-sweep", cmd_uniform_sweep, help="fixed-seed image-dimension sweep")
    p.add_argument("--seeds", type=int)
    p.add_argument("--testset", action="append", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "out", None) is None and args.command != "check-model":
            raise ConfigError("--out is required for commands that write tables")
        return args.func(args)
    except ConfigError as e:
        print(json.dumps({"error": "config", "message": str(e)}), file=sys.stderr)
        return EXIT_CONFIG
    except AssumptionError as e:
        print(json.dumps({"error": "assumption", "message": str(e)}), file=sys.stderr)
        return EXIT_ASSUMPTION
    except NumericError as e:
        print(json.dumps({"error": "numeric", "message": str(e)}), file=sys.stderr)
        return EXIT_NUMERIC
    except ResourceError as e:
        print(json.dumps({"error": "resource", "message": str(e)}), file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
