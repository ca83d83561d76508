import csv
import hashlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadelab import cascade, estimate, modelio
from cascadelab.cli import _parse_q_list, _parse_testset, _parse_window, _xi0_grid, main
from cascadelab.errors import ConfigError
from cascadelab.weights import DiscreteTable, Fractional, LognormalSigned, Mixed

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


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# model file round trips


def test_model_round_trips(tmp_path):
    models = [
        Fractional(2, 0.6, 0.8),
        LognormalSigned.from_beta(2, 0.8, 0.1),
        Mixed.from_beta(2, 0.8, 0.1),
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


# ---------------------------------------------------------------------------
# subcommands


def test_check_model_ok(model_file, capsys):
    assert main(["check-model", "--model", model_file(FRACTIONAL)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a0_ok"] and payload["a1_ok"] and payload["a2_ok"]
    assert not payload["identical_weights"]


def test_check_model_failing_assumptions(model_file):
    assert main(["check-model", "--model", model_file(BAD_LOGNORMAL)]) == 3


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
    for word, *values in cascade.export_level(cascade.build(model, 3, 6), level):
        writer.writerow([word, *(format(v, ".17g") for v in values)])
    assert (out / "simulate.csv").read_bytes() == expected.getvalue().encode("utf-8")


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
    walk = cascade._walk_chunks
    monkeypatch.setattr(cascade, "_walk_chunks", lambda real, frame: walks.append(real) or walk(real, frame))
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


def test_resource_error_exit_code(model_file, tmp_path):
    rc = main(
        [
            "simulate", "--model", model_file(FRACTIONAL),
            "--out", str(tmp_path / "o"), "--depth", "30",
        ]
    )
    assert rc == 5


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
