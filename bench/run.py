"""cascadelab benchmark: three workloads through the CLI front door.

    python3 bench/run.py --workload ensemble --seed 0 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, default settings

Each measured run is a fresh worker process (``worker.py``), closed loop
with one client: the worker runs the workload's CLI commands one after
another until ``--seconds`` have gone by, checking every output against
the paper's closed forms.  ``--trace 0`` reports the end-to-end metrics
(set-up time as the median of several fresh processes, seconds per pass,
both scaled by yardsticks measured at the same moment; peak memory);
``--trace 1`` reports the per-layer metrics of a traced run.  The last line of standard output is one JSON object.  See
``bench/README.md`` for the workloads, metrics and baselines.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("ensemble", "deep", "loops")
# Pairs of set-up probes, half before and half after the measured worker,
# so that setup_s samples the host at two moments of the run.
SETUP_PAIRS = 10
# setup_s is reported in seconds of a host on which a bare probe (a fresh
# interpreter importing numpy) takes BARE_S; here it takes 0.13-0.23 s.
BARE_S = 0.15


def units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def with_units(metrics: dict) -> dict:
    unit = units()
    return {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()}


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def spawn(args: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, env=worker_env())
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def commands_of(passes) -> tuple[int, list[str]]:
    """Commands attempted and the problems of those that failed."""
    rows = [r for p in passes for r in p["commands"]]
    return len(rows), [f"{r['command']} [{r['law']}]: {r['problems'][0]}" for r in rows if r["problems"]]


def print_commands(passes) -> None:
    """Median time of each command beside the estimates it produced."""
    for i, row in enumerate(passes[-1]["commands"]):
        times = [p["commands"][i]["seconds"] for p in passes]
        est = " ".join(f"{k}={v:.6g}" for k, v in row["estimates"].items())
        print(f"    {row['command']:<17} {row['law']:<10} {statistics.median(times):8.4f} s  {est}")


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run: set-up probes, then one measured worker."""
    base = ["--workload", workload, "--seed", str(seed)]

    def probes(n):
        """Set-up times of a workload probe and of a bare probe, ``n`` times in turn."""
        return [(spawn(base + ["--setup-only"], 120)["setup_s"], spawn(base + ["--bare"], 120)["setup_s"])
                for _ in range(n)]

    pairs = probes(SETUP_PAIRS // 2)
    result = spawn(base + ["--seconds", str(seconds)], seconds + 150)
    pairs += probes(SETUP_PAIRS - SETUP_PAIRS // 2)
    setups = [full * BARE_S / bare for full, bare in pairs]
    passes = result["passes"]
    attempted, problems = commands_of(passes)
    q1, wall, q3 = quartiles([p["wall_s"] for p in passes])
    raw_setup = statistics.median(full for full, _ in pairs)
    raw_wall = statistics.median(p["raw_s"] for p in passes)
    print(f"workload {workload}  seed {seed}  passes {len(passes)}  (untraced; times scaled, see bench/README.md)")
    print(f"  setup_s      {statistics.median(setups):10.4f} s      median of {len(setups)} fresh processes"
          f" (unscaled {raw_setup:.4f} s)")
    print(f"  wall_s       {wall:10.4f} s      median of {len(passes)} passes, quartiles {q1:.4f} .. {q3:.4f}"
          f" (unscaled {raw_wall:.4f} s)")
    print(f"  peak_rss_mb  {result['peak_rss_mb']:10.1f} MB     1 process (VmHWM)")
    print(f"  error_rate   {len(problems) / attempted:10.4f}        {len(problems)} of {attempted} commands")
    print_commands(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {"attempted": attempted, "problems": problems, "raw": result, "setup_pairs": pairs,
            "metrics": with_units(metrics)}


def trace(workload: str, seed: int, seconds: float) -> dict:
    """Traced run: per-layer metrics and the tracing overhead."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    result = spawn(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", "1", "--spans", str(spans)], seconds + 150)
    passes = result["untraced"] + result["traced"]
    attempted, problems = commands_of(passes)
    print(f"workload {workload}  seed {seed}  passes {len(result['untraced'])} untraced + "
          f"{len(result['traced'])} traced, in turn  (medians over traced passes; spans in {spans.name})")
    metrics = with_units(result["layers"])
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:14.6g} {m['unit']}")
    print_commands(result["traced"])
    return {"attempted": attempted, "problems": problems, "raw": result, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="cascadelab benchmark")
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "cascadelab").is_dir():
        print("bench: no cascadelab sources under src/ next to bench/", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    try:
        for name in names:
            runs[name] = (trace if args.trace else measure)(name, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    for name, run in runs.items():
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(run, indent=1), encoding="utf-8")

    problems = [f"{name}: {msg}" for name, run in runs.items() for msg in run["problems"]]
    for msg in problems[:20]:
        print(f"FAILED {msg}")
    if args.workload == "all":
        metrics = {f"{n}.{k}": v for n, run in runs.items() for k, v in run["metrics"].items()}
    else:
        metrics = runs[args.workload]["metrics"]
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(run["attempted"] for run in runs.values()),
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
