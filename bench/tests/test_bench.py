"""Tests of the benchmark itself (not of cascadelab).

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from cascadelab import cascade, cli, predict, weights  # noqa: E402


@pytest.fixture(scope="module")
def loops(tmp_path_factory):
    return worker.Runner("loops", 0, tmp_path_factory.mktemp("loops"))


def counts(layers):
    """Every per-layer metric that is not a time."""
    unit = run.units()
    return {k: v for k, v in layers.items() if unit[k] != "s" and k != "trace_overhead_frac"}


@pytest.mark.parametrize("workload", ["loops", "ensemble"])
def test_two_traced_runs_count_alike(workload, tmp_path):
    runner = worker.Runner(workload, 0, tmp_path)
    first = worker.traced_run(runner, 0)["layers"]
    second = worker.traced_run(runner, 0)["layers"]
    assert counts(first) == counts(second)
    assert first["cli.failed"] == 0
    assert first["cascade.grid_min_max_calls"] > 0
    assert first["weights.pairs_drawn"] > 0
    if workload == "loops":
        assert first["predict.root_solves"] == 2056
        assert first["cascade.tilted_paths"] == 4000
        assert first["cascade.rows_exported"] == 2**16
    else:
        assert first["cascade.grid_min_max_calls"] == 400
        assert first["cascade.grid_min_max_useful"] == pytest.approx(112 / 400)
        assert first["cascade.live_realizations_max"] == 2


def test_metrics_match_benchmark_json(loops):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = worker.traced_run(loops, 0)["layers"]
    assert {m["name"] for m in spec["per_layer"]} == set(layers)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_untraced_run_has_no_wrapper(loops):
    originals = (cli.main, cascade.build, predict.solve_xi, vars(weights.Fractional)["joint_moment"])
    worker.traced_run(loops, 0)
    assert tracing.installed_wrappers() == []
    assert originals == (cli.main, cascade.build, predict.solve_xi, vars(weights.Fractional)["joint_moment"])
    loops.run_pass()  # refuses to run if a wrapper were left

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert "cascadelab.cli.main" in tracing.installed_wrappers()
        with pytest.raises(RuntimeError, match="wrappers installed"):
            loops.run_pass()
    finally:
        tracer.uninstall()
    assert tracing.installed_wrappers() == []


def test_corrupted_csv_counts_as_failure(loops, monkeypatch):
    """Shift one holder estimate past its tolerance as the CLI writes it."""
    write_csv = cli._write_csv

    def corrupt(path, header, rows):
        if Path(path).name == "holder_summary.csv":
            rows = [list(r) for r in rows]
            rows[0][1] = repr(float(rows[0][1]) + 0.2)  # mean_h1
        write_csv(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", corrupt)
    record = loops.run_pass()
    failed = [r for r in record["commands"] if r["problems"]]
    assert [r["command"] for r in failed] == ["holder", "holder"]
    assert "mean h1" in failed[0]["problems"][0]
    attempted, problems = run.commands_of([record])
    assert (attempted, len(problems)) == (6, 2)


def test_times_are_scaled_by_the_reference_run(loops, monkeypatch):
    monkeypatch.setattr(worker, "reference", lambda: 2 * worker.REF_S)
    record = loops.run_pass()
    assert record["wall_s"] == pytest.approx(record["raw_s"] / 2)
    assert all(r["seconds"] == pytest.approx(r["raw_s"] / 2) for r in record["commands"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "loops", "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
