import argparse
import copy
import csv
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascadelab
from cascadelab import cascade, cli, estimate, modelio, words
from cascadelab.cli import _parse_q_list, _parse_testset, _parse_window, _simulate_text, _xi0_grid, main
from cascadelab.errors import ConfigError, DegenerateRangeError, DivergenceError
from cascadelab.weights import DiscreteTable, Fractional, LognormalSigned, Mixed, sigma_from_beta

FRACTIONAL = "kind fractional\nb 2\nalpha1 0.75\nalpha2 0.75\n"
LOGNORMAL = "kind lognormal\nb 2\nalpha 0.8\nbeta 0.1\n"
BAD_LOGNORMAL = "kind lognormal\nb 2\nalpha 0.7\nbeta 0.25\n"  # fails (A1)
TABLE = "kind table\nb 2\natom 0.3 0.7 0.5\natom 0.7 0.3 0.5\n"
NO_XISTAR = "kind table\nb 2\natom 1.5 1.5 0.5\natom -0.5 -0.5 0.5\n"


@pytest.fixture
def model_file(tmp_path):
    def write(text, name="model.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def export_rows(export):
    """The export's rows (word, Q1, Q2, F1, F2), built from its columns a block of words at a time."""
    block = export.words.block
    texts = [w for lo in range(0, len(export), block) for w in export.words[lo : lo + block]]
    return list(zip(texts, *(c.tolist() for c in (*export.products(), *export.ends))))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# model file round trips


def test_model_round_trips(tmp_path):
    models = [
        Fractional(2, 0.6, 0.8),
        LognormalSigned(2, 0.8, sigma_from_beta(0.1, 2)),
        Mixed(2, 0.8, sigma_from_beta(0.1, 2)),
        DiscreteTable(2, (((0.3, 0.7), 0.5), ((0.7, 0.3), 0.5))),
    ]
    for i, m in enumerate(models):
        path = tmp_path / f"m{i}.txt"
        path.write_text(m.describe(), encoding="utf-8")
        again = modelio.load_model(path)
        assert again.digest() == m.digest()


def test_parse_accepts_comments_and_equals():
    m = modelio.parse_model("# a comment\nkind = fractional\nalpha1=0.75\nalpha2 0.75\n")
    assert isinstance(m, Fractional) and m.base == 2


def test_parse_errors():
    with pytest.raises(ConfigError):
        modelio.parse_model("alpha1 0.75\n")  # missing kind
    with pytest.raises(ConfigError):
        modelio.parse_model("kind nosuch\n")
    with pytest.raises(ConfigError):
        modelio.parse_model("kind lognormal\nalpha 0.8\nsigma 0.4\nbeta 0.1\n")
    with pytest.raises(ConfigError):
        modelio.parse_model("kind table\nb 2\n")
    with pytest.raises(ConfigError):
        modelio.parse_model("kind fractional\nalpha1 0.75\nalpha2 0.75\nsign ++ 0.9\n")
    with pytest.raises(ConfigError):
        modelio.load_model("/nonexistent/model.txt")


@pytest.mark.parametrize("text", [FRACTIONAL, LOGNORMAL, TABLE], ids=["fractional", "lognormal", "table"])
def test_model_file_with_a_byte_order_mark_reads_as_without(tmp_path, capsys, text):
    # editors on some platforms save UTF-8 with a leading U+FEFF; it is not part of the first key
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert modelio.load_model(marked).digest() == modelio.load_model(plain).digest()
    assert main(["check-model", "--model", str(marked)]) == 0
    assert json.loads(capsys.readouterr().out)["a1_ok"]


# ---------------------------------------------------------------------------
# subcommands


def test_check_model_ok(model_file, capsys):
    assert main(["check-model", "--model", model_file(FRACTIONAL)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a0_ok"] and payload["a1_ok"] and payload["a2_ok"]
    assert not payload["identical_weights"]


def test_check_model_failing_assumptions(model_file):
    assert main(["check-model", "--model", model_file(BAD_LOGNORMAL)]) == 3


def test_check_model_takes_no_force(model_file, capsys):
    # it never read the flag: a failing model exited 3 with --force as without
    with pytest.raises(SystemExit) as usage:
        main(["check-model", "--model", model_file(BAD_LOGNORMAL), "--force"])
    assert usage.value.code == 2 and "unrecognized arguments: --force" in capsys.readouterr().err


def test_predict_writes_table_and_manifest(model_file, tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["predict", "--model", model_file(LOGNORMAL), "--out", str(out), "--xi0-grid", "5"]
    )
    assert rc == 0
    rows = read_csv(out / "predict.csv")
    assert rows[0] == ["xi0", "xi", "zeta", "xistar", "predicted_dim", "branch"]
    assert len(rows) == 6
    manifest = json.loads((out / "predict_manifest.json").read_text())
    assert manifest["command"] == "predict"
    assert manifest["model_digest"]
    assert "wall_time_s" in manifest and "version" in manifest


def test_predict_explicit_grid(model_file, tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["predict", "--model", model_file(FRACTIONAL), "--out", str(out), "--xi0-grid", "0.3,0.6"]
    )
    assert rc == 0
    rows = read_csv(out / "predict.csv")
    assert float(rows[1][1]) == pytest.approx(0.4, abs=1e-9)  # xi = 0.3/0.75
    assert float(rows[2][1]) == pytest.approx(0.8, abs=1e-9)


def test_spectrum_predict(model_file, tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "spectrum-predict",
            "--model", model_file(FRACTIONAL),
            "--out", str(out),
            "--q", "1,0;0,1",
            "--xi0", "0.5",
        ]
    )
    assert rc == 0
    rows = read_csv(out / "spectrum-predict.csv")
    assert len(rows) == 3
    assert float(rows[1][2]) == pytest.approx(0.75)  # alpha1 = grad phi
    assert float(rows[1][4]) == pytest.approx(0.5)  # dim = xi0 for fractional


def test_simulate_is_byte_deterministic(model_file, tmp_path):
    model = model_file(TABLE)
    args = ["simulate", "--model", model, "--seed", "7", "--depth", "8", "--level", "5"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert (out_a / "simulate.csv").read_bytes() == (out_b / "simulate.csv").read_bytes()
    rows = read_csv(out_a / "simulate.csv")
    assert len(rows) == 33 and rows[0] == ["word", "q1", "q2", "f1", "f2"]


@pytest.mark.parametrize(
    "text", [FRACTIONAL, "kind lognormal\nb 3\nalpha 0.8\nbeta 0.1\n"], ids=["b2", "b3"]
)
@pytest.mark.parametrize("level", [0, 3, 6])
def test_simulate_csv_is_the_csv_writer_rendering_of_export_level(model_file, tmp_path, text, level):
    model = modelio.parse_model(text)
    out = tmp_path / "out"
    assert main(["simulate", "--model", model_file(text), "--out", str(out),
                 "--seed", "3", "--depth", "6", "--level", str(level)]) == 0
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["word", "q1", "q2", "f1", "f2"])
    for word, *values in export_rows(cascade.export_level(cascade.build(model, 3, 6), level)):
        writer.writerow([word, *(format(v, ".17g") for v in values)])
    assert (out / "simulate.csv").read_bytes() == expected.getvalue().encode("utf-8")


def csv_writer_bytes(level):
    """simulate.csv as csv.writer writes ``level``'s rows, each value in %.17g."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(["word", "q1", "q2", "f1", "f2"])
    for word, *values in export_rows(level):
        writer.writerow([word, *(format(v, ".17g") for v in values)])
    return expected.getvalue().encode("utf-8")


def rendered_bytes(level):
    return (",".join(["word", "q1", "q2", "f1", "f2"]) + "\r\n" + "".join(_simulate_text(level))).encode("utf-8")


@pytest.mark.parametrize(
    "text,depth,rows_per_block",
    [
        (FRACTIONAL, 14, 4096),  # 4 blocks
        ("kind fractional\nb 3\nalpha1 0.75\nalpha2 0.6\n", 9, 2187),  # 9 blocks
        ("kind fractional\nb 12\nalpha1 0.75\nalpha2 0.9\n", 4, 1728),  # dot-separated words cross 12 blocks
        ("kind lognormal\nb 3\nalpha 0.8\nbeta 0.1\n", 9, 2187),
    ],
    ids=["frac-b2", "frac-b3", "frac-b12", "lognormal-b3"],
)
def test_simulate_csv_of_a_multi_block_level_is_the_csv_writer_rendering(
    model_file, tmp_path, monkeypatch, text, depth, rows_per_block
):
    model = modelio.parse_model(text)
    out = tmp_path / "out"
    assert main(["simulate", "--model", model_file(text), "--out", str(out),
                 "--seed", "3", "--depth", str(depth)]) == 0
    level = cascade.export_level(cascade.build(model, 3, depth), depth)
    assert level.words.block == rows_per_block and len(level) > rows_per_block
    want = csv_writer_bytes(level)
    assert (out / "simulate.csv").read_bytes() == want
    monkeypatch.setattr(words, "_WORD_BLOCK", 16)  # blocks of b**k rows, b**k <= 16 but at least b
    small = cascade.export_level(cascade.build(model, 3, depth), depth)
    assert small.words.block == {2: 16, 3: 9, 12: 12}[model.base]
    assert rendered_bytes(small) == want


def test_distinct_end_texts_keep_each_zero_sign(monkeypatch):
    monkeypatch.setattr(words, "_WORD_BLOCK", 8)  # 4 blocks of 8 rows
    f1 = np.array([0.0, -0.0, 0.5, 0.0, -0.0, 0.5, -0.5, -0.0] * 4)
    f2 = np.array([-0.0, -0.0, 0.0, 1e-300, 0.0, -1e-300, 0.0, -0.0] * 4)
    signs = np.arange(32, dtype=np.uint8) % 4
    level = cascade.LevelExport(words.LevelWords(2, 5), signs, (0.25, 0.5), (f1, f2))
    assert [len(values) for values, _ in level.distinct_ends()] == [4, 4]  # 0.0 and -0.0 apart
    rows = list(csv.reader(io.StringIO("".join(_simulate_text(level)), newline="")))
    assert [r[3] for r in rows] == ["0", "-0", "0.5", "0", "-0", "0.5", "-0.5", "-0"] * 4
    assert [r[4] for r in rows] == ["-0", "-0", "0", "1e-300", "0", "-1e-300", "0", "-0"] * 4
    assert [r[1:3] for r in rows[:4]] == [["0.25", "0.5"], ["-0.25", "0.5"], ["0.25", "-0.5"], ["-0.25", "-0.5"]]
    assert rendered_bytes(level) == csv_writer_bytes(level)


@pytest.mark.parametrize("text", [FRACTIONAL, LOGNORMAL], ids=["fractional", "lognormal"])
def test_simulate_peak_holds_no_level_of_words_or_texts(model_file, tmp_path, text):
    argv = ["simulate", "--model", model_file(text), "--out", str(tmp_path / "out"), "--depth", "16"]
    assert main([*argv[:-1], "6"]) == 0  # one-off allocations of a first call
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20  # 65,536 word strings alone took about 4.7 MB


FRACTIONAL_UNEQUAL = "kind fractional\nb 2\nalpha1 0.6\nalpha2 0.8\n"


@pytest.mark.parametrize(
    "text,argv,digest",
    [
        (FRACTIONAL_UNEQUAL, ["--depth", "10", "--level", "0"],
         "7afcd0577d0970417e2a1f86a5b52164ea16fe4b486d8a7d55d3b558ff846eac"),
        (FRACTIONAL_UNEQUAL, ["--depth", "10", "--level", "5"],
         "099a76693fdbd24f1ecd13647d3dc45c8bdf1daf74eed909d798cf068704a853"),
        (FRACTIONAL_UNEQUAL, ["--depth", "10", "--level", "10"],
         "279792b2c70a82487ce85124b57acec05256db00b74e1e22fa87cfa708bce004"),
        # level 1 lies above the chunks' top level 2: its right ends are chunk boundaries
        (FRACTIONAL_UNEQUAL, ["--depth", "18", "--level", "1"],
         "ed6577f1bb5d861e0d126243f252d6bc1c8a0c18b2ab676515695a0a0269b0f8"),
        ("kind lognormal\nb 3\nalpha 0.8\nbeta 0.1\n", ["--depth", "6"],
         "8efddde04072e53ed2e27080d04d37fc34707dbe1c905d0d20462b6b9edce599"),
        ("kind mixed\nb 2\nalpha 0.8\nbeta 0.1\n", ["--depth", "8"],
         "d7f5ff00c09934a92a8a5e9c84183b7f8b6650c1262a1862fc03e9f88397eeb5"),
        # both zero signs reach the Q columns, written as 0 and -0
        ("kind table\nb 2\natom -0.0 -0.0 0.5\natom 1.0 1.0 0.5\n", ["--depth", "8", "--force"],
         "4a277b730636ac79e59a10ec86c2b0fec17329b1d35bb8a8daef0783ed15a9f2"),
        # dot-separated words
        ("kind fractional\nb 12\nalpha1 0.75\nalpha2 0.9\n", ["--depth", "3"],
         "fcb946599a3b5b26a4e0f7452d234b0ccfe7aaf7839aa419040da49f15e1a791"),
    ],
    ids=["frac-level0", "frac-level5", "frac-level10", "frac-above-chunks", "lognormal-b3", "mixed",
         "signed-zeros", "b12"],
)
def test_simulate_csv_bytes_are_pinned(model_file, tmp_path, text, argv, digest):
    out = tmp_path / "out"
    assert main(["simulate", "--model", model_file(text), "--out", str(out), "--seed", "5", *argv]) == 0
    assert hashlib.sha256((out / "simulate.csv").read_bytes()).hexdigest() == digest


def test_image_dim_runs(model_file, tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "image-dim", "--model", model_file(FRACTIONAL), "--out", str(out),
            "--depth", "16", "--seeds", "2",
        ]
    )
    assert rc == 0
    rows = read_csv(out / "image-dim.csv")
    assert len(rows) == 3
    for row in rows[1:]:
        assert 0.0 <= float(row[2]) <= 2.0
    manifest = json.loads((out / "image-dim_manifest.json").read_text())
    assert manifest["seeds"] == [0, 1]


def test_partition_table(model_file, tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "partition", "--model", model_file(FRACTIONAL), "--out", str(out),
            "--depth", "10", "--q", "1,0;1,1", "--scales", "2:6",
        ]
    )
    assert rc == 0
    rows = read_csv(out / "partition.csv")
    assert len(rows) == 3
    assert float(rows[1][7]) == pytest.approx(0.25)  # 1 - phi(1,0)
    assert float(rows[2][7]) == pytest.approx(-0.5)  # 1 - phi(1,1)


def test_holder_summary(model_file, tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "holder", "--model", model_file(FRACTIONAL), "--out", str(out),
            "--depth", "12", "--q", "1,1", "--paths", "40", "--scales", "2:8",
        ]
    )
    assert rc == 0
    assert len(read_csv(out / "holder.csv")) == 41
    summary = read_csv(out / "holder_summary.csv")[1]
    assert float(summary[3]) == pytest.approx(0.75)  # grad phi for fractional
    assert abs(float(summary[1]) - 0.75) < 0.3


def test_levelset_sampled_levels(model_file, tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "levelset", "--model", model_file(FRACTIONAL), "--out", str(out),
            "--depth", "12", "--y-count", "4",
        ]
    )
    assert rc == 0
    rows = read_csv(out / "levelset.csv")
    assert len(rows) == 5


def test_levelset_walks_the_grid_twice(model_file, tmp_path, monkeypatch):
    # one walk for the level table that level_set reads, and the histogram's range derived from
    # it; one walk for the histogram
    walks = []
    walk = cascade.grid_chunks
    monkeypatch.setattr(cascade, "grid_chunks", lambda real: walks.append(real) or walk(real))
    args = ["levelset", "--model", model_file(FRACTIONAL), "--depth", "12", "--y-count", "4"]
    assert main([*args, "--out", str(tmp_path / "sampled")]) == 0
    assert len(walks) == 2
    assert main([*args, "--out", str(tmp_path / "given"), "--y", "0.5"]) == 0
    assert len(walks) == 3


def test_uniform_sweep_cli(model_file, tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "uniform-sweep", "--model", model_file(FRACTIONAL), "--out", str(out),
            "--depth", "16", "--testset", "1:0,1:4",
        ]
    )
    assert rc == 0
    rows = read_csv(out / "uniform-sweep.csv")
    assert float(rows[1][7]) == pytest.approx(4.0 / 3.0, abs=1e-9)


# ---------------------------------------------------------------------------
# exit codes


def test_missing_out_is_config_error(model_file):
    assert main(["predict", "--model", model_file(FRACTIONAL)]) == 2


@pytest.mark.parametrize("command", ["predict", "check-model"])
def test_out_that_is_a_file_is_config_error(model_file, tmp_path, capsys, command):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    assert main([command, "--model", model_file(FRACTIONAL), "--out", str(afile)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "cannot create output directory" in err["message"]
    assert afile.read_text() == "kept\n"


def test_bad_model_file_is_config_error(model_file, tmp_path):
    bad = model_file("kind nosuch\n", "bad.txt")
    assert main(["predict", "--model", bad, "--out", str(tmp_path / "o")]) == 2


def test_bad_q_is_config_error(model_file, tmp_path):
    rc = main(
        [
            "partition", "--model", model_file(FRACTIONAL),
            "--out", str(tmp_path / "o"), "--depth", "8", "--q", "1",
        ]
    )
    assert rc == 2


def test_assumption_gate_exit_code(model_file, tmp_path):
    rc = main(
        ["predict", "--model", model_file(BAD_LOGNORMAL), "--out", str(tmp_path / "o")]
    )
    assert rc == 3


def test_numeric_error_exit_code(model_file, tmp_path):
    # forced past the assumption gate, xi_star has no admissible value
    rc = main(
        [
            "predict", "--model", model_file(NO_XISTAR),
            "--out", str(tmp_path / "o"), "--force",
        ]
    )
    assert rc == 4


def test_vanishing_first_moments_are_a_numeric_error(model_file, tmp_path, capsys):
    # E|W1| = E|W2| = 0 once raised "math domain error" in xi_star: exit 1, a traceback
    argv = ["predict", "--model", model_file("kind table\nb 2\natom 0 0 1\n"), "--out", str(tmp_path / "o"), "--force"]
    assert main(argv) == 4
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "numeric"


def test_resource_error_exit_code(model_file, tmp_path):
    rc = main(
        [
            "simulate", "--model", model_file(FRACTIONAL),
            "--out", str(tmp_path / "o"), "--depth", "30",
        ]
    )
    assert rc == 5


def test_a_depth_whose_power_has_thousands_of_digits_is_a_resource_error(model_file, tmp_path, capsys):
    # b**(depth+1) formatted into the message once passed Python's int-to-str limit: exit 1, a traceback
    for command in ("image-dim", "simulate"):
        argv = [command, "--model", model_file(FRACTIONAL), "--out", str(tmp_path / "o"), "--depth", "20000"]
        assert main(argv) == 5
        assert json.loads(capsys.readouterr().err)["error"] == "resource"


def test_image_dim_checks_the_cell_budget_before_its_default_test_set(model_file, tmp_path):
    # a default test set of b digits for b = 10**20 - 1 raised a raw OverflowError
    text = FRACTIONAL.replace("b 2", "b 99999999999999999999")
    argv = ["image-dim", "--model", model_file(text), "--out", str(tmp_path / "o"), "--depth", "8"]
    assert main(argv) == 5
    assert main([*argv[:-1], "20"]) == 5


@pytest.mark.parametrize("command", [
    ["spectrum-predict", "--q", "1,1;-200,-200"],
    ["spectrum-predict", "--q", "1e200,0"],  # once wrote nan as dim_level_set and exited 0
    ["partition", "--depth", "10", "--q", "1,1;-200,-200"],
])
def test_overflowing_moments_and_sums_are_numeric_errors(model_file, tmp_path, capsys, command):
    # both once exited 1 with an OverflowError traceback
    argv = [*command, "--model", model_file(LOGNORMAL), "--out", str(tmp_path / "o")]
    assert main(argv) == 4
    assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"] == "numeric"


@pytest.mark.parametrize(
    "argv",
    [
        ["partition", "--depth", "8", "--q", "1,x"],
        ["partition", "--depth", "8", "--q", "1,0", "--scales", "2:y"],
        ["holder", "--depth", "8", "--q", "1,1", "--scales", "a:5"],
        ["image-dim", "--depth", "8", "--testset", "1:0,z:4"],
        ["image-dim", "--depth", "8", "--testset", "one:0,1:4"],
        ["uniform-sweep", "--depth", "8", "--testset", "1:0,1:four"],
        ["predict", "--xi0-grid", "many"],
        ["predict", "--xi0-grid", "0.1,zero"],
        ["holder", "--depth", "8", "--q", "1,1;0,1"],
        ["partition", "--depth", "8", "--q", "nan,0"],
        ["holder", "--depth", "8", "--q", "nan,1"],
        ["spectrum-predict", "--q", "1,inf"],
        ["predict", "--xi0-grid", "0.1,nan"],
        ["holder", "--depth", "8", "--q", "1,1", "--paths", "0"],
        ["holder", "--depth", "8", "--q", "1,1", "--paths", "-3"],
        ["image-dim", "--depth", "8", "--seeds", "0"],
        ["image-dim", "--depth", "8", "--seeds", "-2"],
        ["levelset", "--depth", "8", "--y-count", "-1"],
        ["levelset", "--depth", "8", "--y", "nan"],
        ["image-dim", "--depth", "8", "--testset", "1000000000000:0:1"],
    ],
)
def test_bad_cli_text_is_config_error(model_file, tmp_path, capsys, argv):
    argv = [*argv, "--model", model_file(FRACTIONAL), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"


@pytest.mark.parametrize("argv,default,option", [
    (["image-dim", "--depth", "3"], "-1 as the default test-set generations", "--testset"),
    (["levelset", "--depth", "1"], "-3 as the default level", "--level"),
    (["partition", "--depth", "5", "--q", "1,1"], "1 as the default top scale", "--scales"),
    (["holder", "--depth", "5", "--q", "1,1"], "1 as the default top scale", "--scales"),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_a_default_derived_from_the_depth_names_the_depth(model_file, tmp_path, capsys, argv, default, option):
    argv = [*argv, "--model", model_file(FRACTIONAL), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config"
    assert f"--depth {argv[2]} gives {default}," in err["message"] and err["message"].endswith(option)


@pytest.mark.parametrize("argv,message", [
    (["partition", "--depth", "6", "--q", "1,1"], "--depth 6 gives 2 as the default top scale, which needs --depth >= 7"),
    (["partition", "--depth", "10", "--q", "1,1", "--scales", "4:4"], "bad level window [4, 4]: a fit needs two levels"),
    (["levelset", "--depth", "6"], "--depth 6 gives 2 as the default level, which needs --depth >= 7"),
    (["levelset", "--depth", "10", "--level", "2"], "bad level window [2, 2]: a fit needs two levels"),
], ids=["partition-default", "partition-scales", "levelset-default", "levelset-level"])
def test_a_one_level_window_is_a_config_error(model_file, tmp_path, capsys, argv, message):
    # each once fitted a single point and exited 4: "need >= 2 points to fit, got 1"
    assert main([*argv, "--model", model_file(FRACTIONAL), "--out", str(tmp_path / "o")]) == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "config" and message in err["message"]


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_uint64_is_config_error(model_file, tmp_path, seed):
    argv = ["simulate", "--model", model_file(FRACTIONAL), "--out", str(tmp_path / "o"),
            "--depth", "4", "--seed", seed]
    assert main(argv) == 2


# ---------------------------------------------------------------------------
# malformed model files are config errors


@pytest.mark.parametrize(
    "text",
    [
        FRACTIONAL + "sign ++ abc\nsign +- 0\nsign -+ 0\nsign -- 0\n",
        "kind table\nb 2\natom 0.3 x 0.5\natom 0.7 0.3 0.5\n",
        "kind table\nb 2\natom 0.3 0.7 half\natom 0.7 0.3 0.5\n",
        "kind mixed\nb 2\nalpha 0.8\nbeta 0.1\nsignplus most\n",
        "kind lognormal\nb 2\nalpha 0.8\nbeta tiny\n",
    ],
    ids=["sign", "atom-value", "atom-probability", "signplus", "beta"],
)
def test_non_numeric_model_values_are_config_errors(model_file, text):
    with pytest.raises(ConfigError):
        modelio.parse_model(text)
    assert main(["check-model", "--model", model_file(text)]) == 2


@pytest.mark.parametrize(
    "text",
    [
        "kind fractional\nb 2\nalpha1 0.7\nalpha1 0.9\nalpha2 0.75\n",
        "kind fractional\nKIND fractional\nalpha1 0.75\nalpha2 0.75\n",
        LOGNORMAL + "b = 2\n",
        FRACTIONAL + "sign ++ 0.5\nsign ++ 0.5\nsign +- 0\nsign -+ 0\nsign -- 0\n",
    ],
    ids=["alpha1", "kind-in-any-case", "b-with-equals", "sign-row"],
)
def test_duplicate_model_keys_are_config_errors(model_file, text):
    with pytest.raises(ConfigError, match="duplicate"):
        modelio.parse_model(text)
    assert main(["check-model", "--model", model_file(text)]) == 2


SIGN_ROWS = "sign ++ 0.9\nsign +- 0.05\nsign -+ 0.05\nsign -- 0\n"


@pytest.mark.parametrize(
    "text, unread",
    [
        ("kind mixed\nb 2\nalpha 0.8\nbeta 0.1\nsignpluss 0.95\n", "'signpluss'"),
        (FRACTIONAL + "sigma 0.3\n", "'sigma'"),
        (TABLE + SIGN_ROWS, "'sign'"),
        ("kind mixed\nb 2\nalpha 0.8\nbeta 0.1\n" + SIGN_ROWS, "'sign'"),
        (LOGNORMAL + "alpha1 0.7\n", "'alpha1'"),
        (FRACTIONAL + "atom 0.5 0.5 1\n", "'atom'"),
        (LOGNORMAL + "alpha2 0.7\nalpha1 0.7\n", "'alpha1', 'alpha2'"),
    ],
    ids=["misspelt-signplus", "sigma-on-fractional", "sign-on-table", "sign-on-mixed", "alpha1-on-lognormal",
         "atom-on-fractional", "two-keys"],
)
def test_a_key_its_kind_does_not_read_is_a_config_error(model_file, capsys, text, unread):
    # each was parsed and its key dropped: neither the digest nor the manifest showed it
    with pytest.raises(ConfigError, match=f"model kind '[a-z]+' does not read {unread}$"):
        modelio.parse_model(text)
    assert main(["check-model", "--model", model_file(text)]) == 2
    assert "does not read" in capsys.readouterr().err


def test_repeated_atom_rows_stay_legal():
    m = modelio.parse_model("kind table\nb 2\natom 0.5 0.5 0.5\natom 0.5 0.5 0.5\n")
    assert m.atoms == (((0.5, 0.5), 0.5), ((0.5, 0.5), 0.5))


@pytest.mark.parametrize("base", ["1", "0", "-3", str(10**400)], ids=["1", "0", "-3", "1e400"])
@pytest.mark.parametrize(
    "body",
    [
        "kind fractional\nalpha1 0.75\nalpha2 0.75\n",
        "kind lognormal\nalpha 0.8\nbeta 0.1\n",
        "kind lognormal\nalpha 0.8\nsigma 0.3\n",
        "kind mixed\nalpha 0.8\nbeta 0.1\n",
        "kind table\natom 0.5 0.5 1\n",
    ],
    ids=["fractional", "lognormal-beta", "lognormal-sigma", "mixed", "table"],
)
def test_base_out_of_range_is_config_error_for_every_kind(model_file, body, base):
    text = f"{body}b {base}\n"
    with pytest.raises(ConfigError, match="base"):
        modelio.parse_model(text)
    assert main(["check-model", "--model", model_file(text)]) == 2


_FUZZ_VALUE = st.one_of(
    st.text(max_size=8),
    st.floats().map(repr),
    st.integers(min_value=-(10**6), max_value=10**400).map(str),
    st.sampled_from(["0", "1", "2", "0.5", "0.75", "0.8", "nan", "-inf", "1e999", "="]),
)
_FUZZ_LINE = st.one_of(
    st.builds(
        "{} {}".format,
        st.sampled_from(["kind", "b", "alpha", "alpha1", "alpha2", "sigma", "beta", "signplus"]),
        _FUZZ_VALUE,
    ),
    st.builds("sign {} {}".format, st.sampled_from(["++", "+-", "-+", "--"]), _FUZZ_VALUE),
    st.builds("atom {} {} {}".format, _FUZZ_VALUE, _FUZZ_VALUE, _FUZZ_VALUE),
    st.text(max_size=30),
)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["fractional", "lognormal", "mixed", "table", "other"]),
    lines=st.lists(_FUZZ_LINE, max_size=8),
)
def test_parse_model_lets_only_config_errors_escape(kind, lines):
    try:
        modelio.parse_model("\n".join([f"kind {kind}", *lines]))
    except ConfigError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_parse_model_on_arbitrary_text_lets_only_config_errors_escape(text):
    try:
        modelio.parse_model(text)
    except ConfigError:
        pass


_CLI_TOKEN = st.one_of(
    st.sampled_from(["0", "1", "2", "-1", "0.5", "1e3", "nan", "inf", "-inf", "1e999", "_", " ", ""]),
    st.integers(min_value=-(10**6), max_value=10**400).map(str),
    st.floats().map(repr),
    st.text(max_size=4),
)
_CLI_TEXT = st.one_of(
    st.text(max_size=20),
    st.lists(st.one_of(_CLI_TOKEN, st.sampled_from([":", ",", ";"])), max_size=8).map("".join),
    st.builds(str.join, st.sampled_from([":", ",", ";"]), st.lists(_CLI_TOKEN, min_size=2, max_size=4)),
)


@settings(max_examples=500, deadline=None)
@given(text=_CLI_TEXT, base=st.integers(min_value=2, max_value=7))
def test_cli_parsers_let_only_config_errors_escape(text, base):
    parsers = [
        _parse_q_list,
        _parse_window,
        lambda t: _parse_testset(t, base),
    ]
    if "," in text or len(text) <= 6:  # a grid size stays below 10**6
        parsers.append(_xi0_grid)
    for parse in parsers:
        try:
            result = parse(text)
        except ConfigError:
            continue
        if isinstance(result, estimate.TestSet):
            result = [result.dimension]
        values = [v for item in result for v in (item if isinstance(item, tuple) else (item,))]
        assert all(math.isfinite(v) for v in values if isinstance(v, float))


# ---------------------------------------------------------------------------
# the allocator thresholds main() pins

FAULTS_PER_CALL = """
import resource, sys
from cascadelab.cli import main
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(sys.argv[1:]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_repeated_commands_stop_faulting_pages_in(model_file, tmp_path):
    # a fresh interpreter, whose thresholds no earlier test has raised; with glibc's dynamic
    # thresholds each call faulted some 1,930 pages back in, calls 3 and 4 included
    argv = ["image-dim", "--model", model_file(FRACTIONAL), "--out", str(tmp_path / "o"),
            "--depth", "16", "--seeds", "4"]
    src = str(Path(cascadelab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", FAULTS_PER_CALL, *argv],
                         env=env, capture_output=True, text=True, check=True)
    faults = [int(n) for n in run.stdout.split()]
    assert len(faults) == 4 and max(faults[2:]) < 300, faults


def test_steady_heap_pins_the_thresholds_and_one_arena(monkeypatch):
    calls = []
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=lambda *a: calls.append(a)))
    cli._steady_heap()
    # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD, then M_ARENA_MAX
    assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20), (-8, 1)]


def _no_c_library(name):
    raise OSError("no such library")


@pytest.mark.parametrize("cdll", [_no_c_library, lambda name: types.SimpleNamespace()], ids=["oserror", "no-mallopt"])
def test_steady_heap_without_mallopt_leaves_the_process_alone(monkeypatch, cdll):
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli._steady_heap() is None


# ---------------------------------------------------------------------------
# seeds on the CPUs the process may use

FRACTIONAL_B4 = "kind fractional\nb 4\nalpha1 0.75\nalpha2 0.75\n"

PER_SEED_COMMANDS = {
    "image-dim": (FRACTIONAL, ["image-dim", "--depth", "16", "--seeds", "4"]),
    "partition": (TABLE, ["partition", "--depth", "14", "--seeds", "3", "--q", "1,0;0.5,0.5", "--scales", "3:10"]),
    "uniform-sweep": (FRACTIONAL_B4, ["uniform-sweep", "--depth", "10", "--seeds", "2",
                                      "--testset", "1:0,3:5", "--testset", "1:0,1,2,3:5"]),
}


def on_cpus(monkeypatch, n):
    """Let the process see n CPUs, as ``taskset`` would."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def csv_bytes(out):
    return {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("command", sorted(PER_SEED_COMMANDS))
def test_per_seed_commands_write_the_same_bytes_on_one_cpu_and_two(model_file, tmp_path, monkeypatch, command):
    text, argv = PER_SEED_COMMANDS[command]
    got = {}
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        out = tmp_path / str(cpus)
        assert main([*argv, "--model", model_file(text), "--out", str(out)]) == 0
        got[cpus] = csv_bytes(out)
    assert got[1] == got[2] and got[1]


@pytest.mark.parametrize("cpus,seeds,threads", [(1, 4, 1), (2, 4, 2), (8, 4, 2), (8, 1, 1)])
def test_seed_threads_are_capped_by_cpus_seeds_and_two(monkeypatch, cpus, seeds, threads):
    on_cpus(monkeypatch, cpus)
    pools = []
    monkeypatch.setattr(cli, "_thread_map", lambda fn, items, n: pools.append(n) or [])
    args = argparse.Namespace(seed=0, seeds=seeds, depth=16)
    assert cli._per_seed(args, Fractional(2, 0.75, 0.75), None) == []
    assert pools == [threads] and cli._SEED_THREADS == 2


def test_per_seed_threads_are_never_preempted_between_python_statements(monkeypatch):
    # a read-modify-write with pure Python work between the read and the write loses
    # updates when a thread switch lands inside it; the seeds' threads must not switch there
    counted, build = [0], cascade.build

    def counted_build(*args):
        real = build(*args)
        seen = counted[0]
        sum(range(20000))  # no GIL release, so nothing runs in between unless preempted
        counted[0] = seen + 1
        return real

    monkeypatch.setattr(cascade, "build", counted_build)
    on_cpus(monkeypatch, 2)
    args = argparse.Namespace(seed=0, seeds=16, depth=12)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # a caller's interval: switch at every chance
    try:
        rows = cli._per_seed(args, Fractional(2, 0.75, 0.75), lambda seed, real: [seed])
        assert sys.getswitchinterval() == pytest.approx(1e-6)  # the caller's, back
    finally:
        sys.setswitchinterval(interval)
    assert rows == list(range(16)) and counted == [16]


@pytest.mark.parametrize("cpus", [1, 2])
def test_the_first_failing_seed_sets_the_exit_code_and_message(model_file, tmp_path, monkeypatch, capsys, cpus):
    # seeds 1 and 2 fail; on two CPUs seed 1 fails only after seed 2 has
    on_cpus(monkeypatch, cpus)
    started, second_failed = [], threading.Event()
    image_box_dim = estimate.image_box_dim

    def fail(real, ts):
        started.append(real.seed)
        if real.seed == 2:
            second_failed.set()
            raise DegenerateRangeError("seed 2 failed")
        if real.seed == 1:
            assert cpus == 1 or second_failed.wait(timeout=60)
            raise DivergenceError("seed 1 failed")
        return image_box_dim(real, ts)

    monkeypatch.setattr(estimate, "image_box_dim", fail)
    argv = ["image-dim", "--model", model_file(FRACTIONAL), "--out", str(tmp_path / "o"),
            "--depth", "16", "--seeds", "4"]
    assert main(argv) == cli.EXIT_NUMERIC
    assert json.loads(capsys.readouterr().err) == {"error": "numeric", "message": "seed 1 failed"}
    # no seed starts after a failure: seed 3 never runs
    assert sorted(started) == ([0, 1] if cpus == 1 else [0, 1, 2])
    assert not (tmp_path / "o" / "image-dim.csv").exists()


@pytest.mark.parametrize("model", [
    DiscreteTable(2, (((0.3, 0.7), 0.25), ((0.7, 0.3), 0.25), ((-0.5, 0.5), 0.5))),
    Fractional(2, 0.75, 0.75),
], ids=["table", "fractional"])
def test_fresh_models_fill_their_draw_caches_inside_the_threads(monkeypatch, model):
    def tables(seed, real):
        return [a.tobytes() for pair in cascade.grid_min_max(real, 8) for a in pair]

    args = argparse.Namespace(seed=3, seeds=4, depth=13)
    rows = {}
    for cpus in (1, 2):
        on_cpus(monkeypatch, cpus)
        fresh = copy.deepcopy(model)
        caches = vars(fresh) if isinstance(fresh, DiscreteTable) else vars(fresh.sign_joint)
        assert not {"_draw_table", "_bounds"} & set(caches)  # drawn first inside the walks
        rows[cpus] = cli._per_seed(args, fresh, tables)
        assert {"_draw_table", "_bounds"} & set(caches)
    assert rows[1] == rows[2] and len(rows[1]) == 4 * 4


def test_thread_map_runs_each_item_once_in_order_under_fast_switching():
    # more threads than CPUs, switching every microsecond: a lost update to the shared
    # queue would run an item twice or not at all
    ran, result = [], []

    def square(i):
        ran.append(i)
        np.sort(np.random.default_rng(i).random(256))  # releases the GIL
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=lambda: result.append(cli._thread_map(square, list(range(400)), 8)))
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert result == [[i * i for i in range(400)]] and sorted(ran) == list(range(400))


def test_thread_map_runs_its_items_at_once():
    # each item waits for the other at a barrier, which only two threads running together pass
    barrier = threading.Barrier(2, timeout=60)

    def meet(i):
        barrier.wait()
        return threading.get_ident()

    assert len(set(cli._thread_map(meet, [0, 1], 2))) == 2


def run_main_peak(argv) -> int:
    """The tracemalloc peak of one main(argv) call, after a first call's one-off allocations."""
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("text,argv,one_seed_mib", [
    # peaks measured: 2.5 MiB on one CPU and 4.7 MiB on two or four, with each chunk's leaf level
    # drawn in one step; 2.2 MiB on one CPU with it drawn in parts of 2**15, and 3.4 MiB before
    # those parts and before the box count expanded the boxes in blocks
    (FRACTIONAL, ["image-dim", "--depth", "18", "--seeds", "4"], 2.3),
    # peaks measured: 5.6 MiB on one CPU and 10.1 MiB on two or four; 5.3 MiB on one CPU with the
    # leaf parts, and 12.5 MiB before the leaf parts and the box blocks
    (FRACTIONAL_B4, ["uniform-sweep", "--depth", "12", "--seeds", "2", "--testset", "1:0,1,2,3:8"], 5.3),
], ids=["image-dim", "uniform-sweep"])
def test_each_seed_in_flight_adds_at_most_one_seeds_peak(model_file, tmp_path, monkeypatch, text, argv, one_seed_mib):
    argv = [*argv, "--model", model_file(text), "--out", str(tmp_path / "o")]
    for cpus in (1, 2, 4):
        on_cpus(monkeypatch, cpus)
        # at most two threads, whose peaks may coincide; a 15% margin over the one-CPU peak each
        assert run_main_peak(argv) < min(cpus, 2) * 1.15 * one_seed_mib * 2**20
