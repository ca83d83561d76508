"""One benchmark process: set up a workload, then run passes for a time budget.

``run.py`` starts this script as a fresh interpreter for every measured run
and for every set-up probe, so that import time, set-up time and peak
memory belong to this process alone.  A ``--bare`` probe imports numpy and
nothing of cascadelab; its time is the yardstick for the set-up time of the
probe next to it.  It prints one JSON line.

    python3 bench/worker.py --workload loops --seed 0 --seconds 30 --t0 <monotonic>
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
# Pass times are reported in seconds of a host on which one reference()
# call takes REF_S.  On the 2-vCPU host the baselines come from it takes
# 40-55 ms.
REF_S = 0.05


def reference() -> float:
    """Seconds taken by a fixed mix of interpreted Python and small numpy work.

    The host's speed drifts by up to half within minutes.  Dividing each
    command's time by the reference run next to it cancels most of that
    drift.  Changing this function re-bases every reported time.
    """
    import math

    import numpy as np

    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(25000):
        x = math.exp(-(i % 97) * 0.015) + (i % 97) * 0.01
        table[i & 1023] = x
        acc += x * x
    a = np.linspace(0.0, 1.0, 1 << 16)
    for _ in range(40):
        acc += float((a * 1.0001).reshape(-1, 4).min(axis=1).sum())
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    """High-water resident set of this process alone (Linux VmHWM), in MiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


class Runner:
    """Runs one workload's commands through ``cascadelab.cli.main`` in process."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import workloads

        self.commands = workloads.WORKLOADS[workload](seed)
        self.workdir = workdir
        self.models = {}
        for name in sorted({c.law for c in self.commands}):
            path = workdir / f"{name}.model"
            path.write_text(workloads.LAWS[name].text(), encoding="utf-8")
            self.models[name] = path

    def run_pass(self, tracer=None) -> dict:
        """One pass: every command once, timed between two reference runs, then checked."""
        from cascadelab import cli
        from tracing import installed_wrappers

        if tracer is None and (left := installed_wrappers()):
            raise RuntimeError(f"untraced pass with wrappers installed: {left}")
        results = []
        ref_after = reference()
        for i, cmd in enumerate(self.commands):
            out = self.workdir / f"{i}-{cmd.name}"
            argv = [*cmd.argv, "--model", str(self.models[cmd.law]), "--out", str(out)]
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # an escaped error is a failed command, not a crash
                code = traceback.format_exc(limit=3)
            seconds = time.perf_counter() - start
            ref_before, ref_after = ref_after, reference()
            estimates, problems = {}, [f"exit {code}"] if code != 0 else []
            if code == 0:
                try:
                    estimates, problems = cmd.check(out)
                except Exception:
                    problems = [traceback.format_exc(limit=3)]
            results.append({
                "command": cmd.name,
                "law": cmd.law,
                "seconds": seconds * REF_S * 2.0 / (ref_before + ref_after),
                "raw_s": seconds,
                "estimates": estimates,
                "problems": problems,
                # CSV tables only: the manifest's rounded wall time varies in length
                "bytes": sum(f.stat().st_size for f in out.glob("*.csv")),
            })
        return {
            "wall_s": sum(r["seconds"] for r in results),
            "raw_s": sum(r["raw_s"] for r in results),
            "commands": results,
        }

    def run_for(self, seconds: float) -> list[dict]:
        """Untraced passes until ``seconds`` have gone by (at least one)."""
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(self.run_pass())
        return passes


def traced_run(runner: Runner, seconds: float, spans_path: Path | None = None) -> dict:
    """Untraced and traced passes in turn, so that host drift cancels in their ratio.

    The tracer is installed for each traced pass only and removed after it.
    """
    import tracing

    tracer = tracing.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(runner.run_pass())
        tracer.reset()
        tracer.install()
        try:
            record = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        record["layers"] = tracer.pass_metrics()
        record["layers"]["cli.bytes_written"] = sum(r["bytes"] for r in record["commands"])
        record["layers"]["cli.failed"] = sum(bool(r["problems"]) for r in record["commands"])
        traced.append(record)
    if spans_path is not None:
        tracer.write_spans(spans_path)
    layers = {
        name: statistics.median_low(p["layers"][name] for p in traced) for name in traced[0]["layers"]
    }
    layers["trace_overhead_frac"] = statistics.median(
        t["wall_s"] / u["wall_s"] for u, t in zip(untraced, traced)
    ) - 1.0
    return {"untraced": untraced, "traced": traced, "layers": layers}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--bare", action="store_true", help="set up numpy alone, for scale")
    p.add_argument("--spans", help="file for the traced run's spans")
    args = p.parse_args(argv)
    if args.bare:
        import numpy  # noqa: F401

        print(json.dumps({"setup_s": time.monotonic() - args.t0}))
        return 0

    sys.path.insert(0, str(ROOT / "src"))
    # Set-up time covers the whole front door: cascadelab.cli and, through
    # tracing, every module a command can reach.
    import cascadelab.cli  # noqa: F401
    import tracing  # noqa: F401

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = Runner(args.workload, args.seed, workdir)
        result = {"setup_s": time.monotonic() - args.t0}
        if not args.setup_only:
            if args.trace:
                result.update(traced_run(runner, args.seconds, args.spans and Path(args.spans)))
            else:
                result["passes"] = runner.run_for(args.seconds)
                result["peak_rss_mb"] = peak_rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
