"""Compare the CSV outputs of the benchmark's commands between two source trees.

    python3 tools/compare_outputs.py OLD NEW

OLD and NEW are checkouts of the repository (each with ``src/cascadelab``).
Each tree runs one pass of every workload of ``bench/workloads.py`` (of this
checkout, through ``bench/worker.py``'s ``Runner``, so the commands, model
files and seeds are the benchmark's) at each of the workload seeds SEEDS, in
one fresh interpreter that imports cascadelab from that tree.  Every CSV whose
bytes differ between the trees, or that one tree lacks, is listed, as is every
command that failed.  The exit code is 0 when every CSV is byte-identical and
every command succeeded, else 1.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import multiprocessing
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1)


def run_tree(tree: Path, out: Path) -> None:
    """One pass of every workload at each of SEEDS with ``tree``'s cascadelab, outputs under ``out``."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "bench")]
    warnings.simplefilter("error", RuntimeWarning)  # as the tests and the benchmark's CI runs have it
    import cascadelab
    import workloads
    from worker import Runner

    if not Path(cascadelab.__file__).resolve().is_relative_to(tree.resolve()):
        raise SystemExit(f"imported cascadelab from {cascadelab.__file__}, not from {tree}")
    failed = {}
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            workdir = out / f"seed{seed}" / workload
            workdir.mkdir(parents=True)
            for i, result in enumerate(Runner(workload, seed, workdir).run_pass()["commands"]):
                if result["problems"]:
                    failed[f"seed{seed}/{workload}/{i}-{result['command']}"] = result["problems"]
    (out / "failed.json").write_text(json.dumps(failed), encoding="utf-8")


def csvs(out: Path) -> set[str]:
    return {str(p.relative_to(out)) for p in out.rglob("*.csv")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spawn = multiprocessing.get_context("spawn")  # a fresh interpreter, so each tree's cascadelab is the one imported
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for side, tree in (("old", args.old), ("new", args.new)):
            out = Path(tmp) / side
            out.mkdir()
            child = spawn.Process(target=run_tree, args=(tree, out))
            child.start()
            child.join()
            if child.exitcode != 0:
                raise SystemExit(f"running the commands with {tree} failed (exit {child.exitcode})")
            outs.append(out)
        old, new = outs
        problems = [f"{side} {label}: {'; '.join(failures)}"
                    for side, out in (("old", old), ("new", new))
                    for label, failures in json.loads((out / "failed.json").read_text(encoding="utf-8")).items()]
        names = sorted(csvs(old) | csvs(new))
        for name in names:
            if not (old / name).exists() or not (new / name).exists():
                problems.append(f"only in {'new' if (new / name).exists() else 'old'}: {name}")
            elif not filecmp.cmp(old / name, new / name, shallow=False):
                problems.append(f"differs: {name}")
        for line in problems:
            print(line)
        print(f"{len(names)} CSVs compared, {len(problems)} problems")
        return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
