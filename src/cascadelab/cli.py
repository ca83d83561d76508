"""Batch command-line front door.

Model files in, CSV tables and JSON run manifests out.  One synchronous
process, no daemon; every output is regenerable from its manifest.

Exit codes: 0 ok, 2 config error, 3 assumption failure, 4 numeric
failure (no root / degenerate range), 5 resource limit.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import json
import math
import os
import sys
import threading
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

# glibc's malloc starts with a 128 KiB mmap threshold and a trim threshold
# of twice that, and raises both only when a larger mmapped block is freed,
# up to 32 MiB.  Until then, the few MB that each walk chunk and box count
# free go back to the kernel and are faulted in again, zeroed, by the next
# one: about 54k minor faults per pass of 24 depth-18 realizations.  main()
# sets both where that rule ends, so no command's speed depends on what an
# earlier one freed; no output depends on them.  It also keeps every thread
# on the one main arena: with an arena per thread, each arena would keep
# its own high-water mark of the walks that ran in it.  Parameter numbers
# from malloc.h.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8
_MMAP_THRESHOLD = 32 * 2**20  # DEFAULT_MMAP_THRESHOLD_MAX on 64-bit
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD  # the trim threshold glibc pairs with it

# Number formats of every CSV table: estimates and predictions, exported
# realization values (round-trip exact), and the q / xi0 row labels.
VALUE, EXACT, LABEL = ".12g", ".17g", ".6g"

# Threads of a per-seed command.  Each seed in flight holds one walk's memory,
# so a command's peak is at most about this many seeds' peaks, on any host.
_SEED_THREADS = 2
_SEED_SWITCH_INTERVAL_S = 1e6  # seconds; see _per_seed


def _values(*xs, spec=VALUE) -> list[str]:
    return [format(x, spec) for x in xs]


def _q_label(q) -> str:
    return ",".join(_values(*q, spec=LABEL))


def _number(convert, text: str, what: str):
    """``convert(text)``, with a malformed number reported as a ConfigError."""
    try:
        return convert(text)
    except ValueError as e:
        raise ConfigError(f"bad {what} {text!r}: {e}") from e


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return value


def _float(text: str, what: str) -> float:
    return _finite(_number(float, text, what), what)


def _at_least_one(count: int, what: str) -> int:
    if count < 1:
        raise ConfigError(f"{what} must be >= 1, got {count}")
    return count


def _parse_q_list(text: str) -> list[tuple[float, float]]:
    out = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ConfigError(f"bad q pair {chunk!r} (expected 'q1,q2')")
        out.append(tuple(_float(p, "q value") for p in parts))
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


def _window(args) -> tuple[int, int]:
    """``--scales``, or levels 2 .. depth - 4: a fit needs two levels, so the default needs --depth >= 7."""
    if args.scales:
        return _parse_window(args.scales)
    return 2, _below_depth(args, 3, "top scale", "--scales")


def _below_depth(args, least: int, what: str, option: str) -> int:
    """depth - 4, the default ``what`` that ``option`` overrides.

    Below ``least`` it raises ConfigError naming --depth; a depth below 1
    is left to the depth check, whose message it keeps.
    """
    if 0 < args.depth < least + 4:
        raise ConfigError(f"--depth {args.depth} gives {args.depth - 4} as the default {what}, which needs "
                          f"--depth >= {least + 4}; give a larger --depth or {option}")
    return args.depth - 4


def _xi0_grid(spec: str) -> list[float]:
    """Either an integer point count for a uniform grid on [0,1], or a
    comma-separated list of values."""
    if "," in spec:
        return [_float(v, "xi0 value") for v in spec.split(",")]
    n = _number(int, spec, "xi0 grid size")
    if n < 2:
        raise ConfigError("xi0 grid needs at least 2 points")
    return [i / (n - 1) for i in range(n)]


def _seeds(args) -> list[int]:
    """``--seeds`` consecutive seeds from ``--seed`` (one if not given); none
    for a command without a realization."""
    if "seed" not in args:
        return []
    count = 1 if getattr(args, "seeds", None) is None else _at_least_one(args.seeds, "--seeds")
    return list(range(args.seed, args.seed + count))


def _write_csv(path: Path, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV.  A row that is a ``str`` is
    written verbatim as one or more finished lines, terminators included:
    the caller guarantees its fields need no quoting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if isinstance(row, str):
                fh.write(row)
            else:
                writer.writerow(row)


def _write_manifest(out: Path, command: str, args, model, seeds, t0) -> None:
    config = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "model_digest": model.digest(),
        "seeds": seeds,
        "wall_time_s": round(time.time() - t0, 3),
    }
    with open(out / f"{command}_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _out_dir(path) -> Path:
    """The ``--out`` directory, created with its parents where missing."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {path}: {e}") from e
    return out


def _run(args) -> int:
    """Run one table-writing command: load and gate the model, create
    ``--out``, write each ``(name, header, rows)`` table the command yields
    as ``<name>.csv``, then the manifest.  A row may be a sequence of
    fields, or a ``str`` holding finished CSV lines (see _write_csv)."""
    t0 = time.time()
    if args.out is None:
        raise ConfigError("--out is required for commands that write tables")
    model = modelio.load_model(args.model)
    report = check_assumptions(model)
    if not report.all_ok and not args.force:
        raise AssumptionError(
            f"model fails assumptions (a0={report.a0_ok}, a1={report.a1_ok}, "
            f"a2={report.a2_ok}); use --force to override. {report.notes}"
        )
    out = _out_dir(args.out)
    for name, header, rows in args.func(args, model):
        _write_csv(out / f"{name}.csv", header, rows)
    _write_manifest(out, args.command, args, model, _seeds(args), t0)
    return 0


def cmd_check_model(args) -> int:
    t0 = time.time()
    model = modelio.load_model(args.model)
    report = check_assumptions(model)
    payload = dataclasses.asdict(report)
    payload["model_digest"] = model.digest()
    payload["identical_weights"] = model.identical_weights()
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out is not None:
        out = _out_dir(args.out)
        with open(out / "check-model.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        _write_manifest(out, "check-model", args, model, [], t0)
    if not report.all_ok:
        raise AssumptionError(f"assumptions fail: {payload}")
    return 0


# Table commands: ``(args, model)`` in, ``(name, header, rows)`` tables out.


def cmd_predict(args, model):
    rows = predict.kpz_curve(model, _xi0_grid(args.xi0_grid))
    yield "predict", ["xi0", "xi", "zeta", "xistar", "predicted_dim", "branch"], [
        (*_values(r.xi0, r.xi, r.zeta, r.xi_star, r.predicted_dim), r.branch) for r in rows
    ]


def cmd_spectrum_predict(args, model):
    rows = []
    for q in _parse_q_list(args.q):
        p = predict.legendre_point(model, q, args.xi0)
        rows.append((*_values(*q, *p.alpha, p.dim_level_set), int(p.in_j)))
    yield "spectrum-predict", ["q1", "q2", "alpha1", "alpha2", "dim_level_set", "in_J"], rows


def cmd_simulate(args, model):
    real = cascade.build(model, args.seed, args.depth)
    level = args.level if args.level is not None else args.depth
    yield "simulate", ["word", "q1", "q2", "f1", "f2"], _simulate_text(cascade.export_level(real, level))


def _simulate_text(level: cascade.LevelExport):
    """simulate.csv's rows as finished text, one aligned block of words at a time (see LevelExport).

    Words and numbers never need CSV quoting.  When both moduli are one
    float (the fractional kind), each Q column takes two values, +modulus
    and -modulus, and a row's two Q fields are one of four texts picked
    by its sign byte; each F column's field is picked from the texts of
    its distinct values (see LevelExport.distinct_ends), each formatted
    once.  Each is the very text ``%.17g`` writes for the value, -0
    included, with the comma before it and, in the last column, the line
    end after it, so a row is its word and its three texts joined.
    Otherwise the products and the F columns are formatted in the row.
    A block at a time, the rows' text never exists whole.
    """
    m1, m2 = level.moduli
    eol = csv.excel.lineterminator
    if np.ndim(m1) == np.ndim(m2) == 0:
        t1, t2 = (format(m1, EXACT), format(-m1, EXACT)), (format(m2, EXACT), format(-m2, EXACT))
        # sign byte k: bit 0 set where Q1 < 0, bit 1 where Q2 < 0
        picks = [([f",{t1[k & 1]},{t2[k >> 1]}" for k in range(4)], level.signs)]
        for (values, at), end in zip(level.distinct_ends(), ("", eol)):
            picks.append(([f",{v:{EXACT}}{end}" for v in values.tolist()], at))
        picks = [(np.array(texts, dtype=object), keys) for texts, keys in picks]
        columns, row = (), "".join
    else:
        picks, columns = (), (*level.products(), *level.ends)
        row = f"%s,%{EXACT},%{EXACT},%{EXACT},%{EXACT}{eol}".__mod__
    for lo in range(0, len(level), level.words.block):
        hi = lo + level.words.block
        fields = [texts[keys[lo:hi]].tolist() for texts, keys in picks] + [c[lo:hi].tolist() for c in columns]
        yield "".join(map(row, zip(level.words[lo:hi], *fields)))


def _estimate_row(seed, label, est, *prediction):
    lo, hi = est.scale_range
    return (seed, label, *_values(est.value, est.stderr, est.r_squared), lo, hi, *_values(*prediction))


def _per_seed(args, model, rows_of) -> list:
    """The rows ``rows_of(seed, real)`` of a fresh realization per seed, in seed order.

    The seeds share nothing, and a realization's walk spends most of its
    time in numpy calls that release the GIL, so they run on up to
    _SEED_THREADS threads, one per CPU the process may use and per seed
    (see _thread_map).

    While they run, the switch interval is raised past any command's
    length: a thread then gives up the GIL only inside a call that
    releases it, never between two Python statements, so Python code
    around cascadelab's functions (a caller's counters, say) sees no other
    thread between its steps.
    """
    seeds = _seeds(args)
    threads = min(len(seeds), _cpus(), _SEED_THREADS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(_SEED_SWITCH_INTERVAL_S)
    try:
        per_seed = _thread_map(lambda seed: rows_of(seed, cascade.build(model, seed, args.depth)), seeds, threads)
    finally:
        sys.setswitchinterval(interval)
    return [row for rows in per_seed for row in rows]


def _cpus() -> int:
    """The number of CPUs this process may run on (see ``taskset``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _thread_map(fn, items, threads: int) -> list:
    """``[fn(x) for x in items]``, computed on ``threads`` threads, this one included.

    The threads take the items in order, so every item before a failing
    one has been started by the time it fails.  After a failure no thread
    starts another item; the running ones finish, and the error of the
    first failing item is raised: the error a loop in order raises.
    (concurrent.futures would do the rest, but importing it imports
    logging: some 7 ms in each process that runs a per-seed command.)
    """
    todo = list(reversed(range(len(items))))
    results, errors = [None] * len(items), {}
    lock = threading.Lock()

    def work():
        while True:
            with lock:
                if not todo:
                    return
                i = todo.pop()
            try:
                results[i] = fn(items[i])
            except BaseException as e:  # re-raised below, once every thread is done
                with lock:
                    errors[i] = e
                    todo.clear()

    helpers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for t in helpers:
        t.start()
    try:
        work()
    finally:
        with lock:
            todo.clear()
        for t in helpers:
            t.join()
    if errors:
        raise errors[min(errors)]
    return results


def cmd_image_dim(args, model):
    cascade.check_size(model.base, args.depth)  # before a test set of b digits is built
    ts = (
        _parse_testset(args.testset, model.base)
        if args.testset is not None
        else estimate.cantor_set(
            model.base, range(model.base), _below_depth(args, 0, "test-set generations", "--testset")
        )
    )
    label = format(ts.dimension, LABEL)
    rows = _per_seed(
        args, model, lambda seed, real: [_estimate_row(seed, label, estimate.image_box_dim(real, ts))]
    )
    yield "image-dim", ["seed", "xi0", "estimate", "stderr", "r2", "j_min", "j_max"], rows


def cmd_partition(args, model):
    qs = _parse_q_list(args.q)
    lo, hi = _window(args)
    rows = _per_seed(args, model, lambda seed, real: [
        _estimate_row(seed, _q_label(q), est, 1.0 - model.phi(*q))
        for q, est in zip(qs, estimate.partition_function(real, qs, lo, hi))
    ])
    yield "partition", ["seed", "q", "slope", "stderr", "r2", "m_min", "m_max", "expected"], rows


def cmd_uniform_sweep(args, model):
    test_sets = [_parse_testset(t, model.base) for t in args.testset]
    rows = _per_seed(args, model, lambda seed, real: [
        _estimate_row(seed, format(r.xi0, LABEL), r.estimate, r.prediction)
        for r in estimate.uniform_sweep(real, test_sets)
    ])
    yield "uniform-sweep", ["seed", "xi0", "estimate", "stderr", "r2", "j_min", "j_max", "prediction"], rows


def cmd_holder(args, model):
    qs = _parse_q_list(args.q)
    if len(qs) != 1:
        raise ConfigError(f"holder takes one q pair, got {len(qs)}")
    q = qs[0]
    lo, hi = _window(args)
    paths = _at_least_one(args.paths, "--paths")
    real = cascade.build(model, args.seed, args.depth)
    rng = np.random.default_rng(args.seed + 1)
    idx = [cascade.sample_tilted_path(real, q, hi, rng) for _ in range(paths)]
    h1, h2 = estimate.holder_exponents(real, idx, lo, hi)
    grad = model.grad_phi(*q)
    yield "holder", ["path", "h1", "h2"], [
        (i, f"{v1:{VALUE}}", f"{v2:{VALUE}}") for i, (v1, v2) in enumerate(zip(h1, h2))
    ]
    yield "holder_summary", ["q", "mean_h1", "mean_h2", "grad_phi_1", "grad_phi_2", "paths"], [
        (_q_label(q), *_values(h1.mean(), h2.mean(), *grad), paths)
    ]


def cmd_levelset(args, model):
    ys = None if args.y is None else [_finite(args.y, "--y")]
    _at_least_one(args.y_count, "--y-count")
    real = cascade.build(model, args.seed, args.depth)
    level = args.level if args.level is not None else _below_depth(args, 3, "level", "--level")
    if ys is None:
        # level_set's table first: the histogram's range derives from it, so there are two walks, not three
        cascade.grid_min_max(real, level)
        edges, masses = estimate.occupation_histogram(real, args.k, 64)
        rng = np.random.default_rng(args.seed + 1)
        ys = estimate.sample_occupation_levels(edges, masses, rng, args.y_count).tolist()
    rows = []
    for y in ys:
        _, est = estimate.level_set(real, args.k, y, level)
        rows.append((*_values(y, est.value, est.stderr, est.r_squared), int(est.empty)))
    yield "levelset", ["y", "estimate", "stderr", "r2", "empty"], rows


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
        p.set_defaults(func=func)
        return p

    def add_table(name, func, **kw):  # a command that _run gates on the assumptions
        p = add(name, func, **kw)
        p.add_argument("--force", action="store_true", help="skip the assumption gate")
        return p

    add("check-model", cmd_check_model, help="print the assumption report")

    p = add_table("predict", cmd_predict, help="xi/zeta/KPZ prediction table")
    p.add_argument("--xi0-grid", default="65", help="point count or comma list")

    p = add_table("spectrum-predict", cmd_spectrum_predict, help="restricted spectrum points")
    p.add_argument("--q", required=True, help="q pairs 'q1,q2;q1,q2;...'")
    p.add_argument("--xi0", type=float, default=1.0)

    def add_sim(name, func, **kw):
        p = add_table(name, func, **kw)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--depth", type=int, required=True)
        return p

    p = add_sim("simulate", cmd_simulate, help="build and export a realization")
    p.add_argument("--level", type=int, help="export level (default: depth)")

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


def _steady_heap() -> None:
    """Pin glibc's mmap and trim thresholds and its arena count (see _MMAP_THRESHOLD), on Linux.

    Without a C library that has ``mallopt`` (not glibc), the process is
    left as it is.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_ARENA_MAX, 1)


def main(argv=None) -> int:
    _steady_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return cmd_check_model(args) if args.command == "check-model" else _run(args)
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
