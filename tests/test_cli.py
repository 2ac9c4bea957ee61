import contextlib
import io
import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainfair import (
    ChainParams,
    flat_value,
    maximize_J,
    newton_solve,
    ring_fixed_point,
)
from chainfair.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return [line.split(",") for line in text.strip().splitlines()]


class TestSolveCommand:
    def test_three_pairs(self, capsys):
        code, out, _ = run(capsys, ["solve", "--n", "3", "--alpha", "0.862"])
        rows = parse_csv(out)
        assert code == 0
        assert rows[0] == ["pair", "x"]
        x = [float(r[1]) for r in rows[1:]]
        assert x[1] / x[0] == pytest.approx(0.025, abs=0.005)

    def test_single_pair(self, capsys):
        code, out, _ = run(capsys, ["solve", "--n", "1", "--alpha", "0.4"])
        assert code == 0
        assert parse_csv(out)[1] == ["1", "0.4"]

    def test_hundred_pairs_central(self, capsys):
        code, out, _ = run(capsys, ["solve", "--n", "100", "--alpha", "0.6826"])
        x = [float(r[1]) for r in parse_csv(out)[1:]]
        assert code == 0 and len(x) == 100
        assert x[49] == pytest.approx(0.3177, abs=1e-3)

    def test_values_match_library(self, capsys):
        _, out, _ = run(capsys, ["solve", "--n", "7", "--alpha", "0.55"])
        x = np.array([float(r[1]) for r in parse_csv(out)[1:]])
        np.testing.assert_array_equal(x, newton_solve(ChainParams(7, 0.55)))

    def test_fixed_point_method(self, capsys):
        code, out, _ = run(
            capsys, ["solve", "--n", "4", "--alpha", "0.3", "--method", "fixed-point"]
        )
        assert code == 0 and len(parse_csv(out)) == 5

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, ["solve", "--n", "12", "--alpha", "0.7"])
        _, second, _ = run(capsys, ["solve", "--n", "12", "--alpha", "0.7"])
        assert first == second

    def test_svg_output(self, capsys):
        code, out, _ = run(
            capsys, ["solve", "--n", "20", "--alpha", "0.6", "--format", "svg"]
        )
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")


class TestExitCodes:
    def test_usage_error_on_bad_alpha(self, capsys):
        code, _, err = run(capsys, ["solve", "--n", "3", "--alpha", "1.5"])
        assert code == 2 and "alpha" in err

    def test_usage_error_on_missing_flag(self, capsys):
        code, _, err = run(capsys, ["solve", "--alpha", "0.5"])
        assert code == 2 and "--n" in err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_numerical_failure_prints_residual(self, capsys):
        code, _, err = run(
            capsys,
            ["solve", "--n", "50", "--alpha", "0.9", "--method", "fixed-point",
             "--max-iter", "200"],
        )
        assert code == 3
        assert "residual" in err

    def test_missing_input_file(self, capsys):
        code, _, err = run(capsys, ["fit", "--input", "/nonexistent/trace.csv"])
        assert code == 2

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "chainfair.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "solve" in proc.stdout


class TestConfigFile:
    def test_config_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "alpha": 0.8}))
        code, out, _ = run(capsys, ["solve", "--config", str(cfg)])
        assert code == 0
        assert float(parse_csv(out)[1][1]) == pytest.approx(4 / 9, abs=1e-10)

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "alpha": 0.8}))
        code, out, _ = run(capsys, ["solve", "--config", str(cfg), "--n", "1"])
        assert code == 0
        assert parse_csv(out)[1] == ["1", "0.8"]

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2, "alpha": 0.8, "bogus": 1}))
        code, _, err = run(capsys, ["solve", "--config", str(cfg)])
        assert code == 2 and "bogus" in err

    @pytest.mark.parametrize(
        "command, cfg",
        [
            ("solve", {"n": 3, "alpha": 0.5}),
            ("ring", {"alpha": 0.5}),
            ("sweep", {"n": 3}),
        ],
    )
    def test_timing_key_only_for_packet(self, capsys, tmp_path, command, cfg):
        # a "timing" object was taken, and ignored, by every command
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "timing": {"bogus": 1}}))
        code, out, err = run(capsys, [command, "--config", str(path)])
        assert code == 2 and out == ""
        assert "config key 'timing' is not a flag of this command" in err

    def test_hyphenated_keys(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "alpha-min": 0.2, "alpha-max": 0.6, "points": 3}))
        code, out, _ = run(capsys, ["sweep", "--config", str(cfg)])
        assert code == 0
        assert [r[0] for r in parse_csv(out)[1:]] == ["0.2", "0.4", "0.6"]

    def test_timing_override_object(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.6, "rate": 2, "timing": {"cw_min": 0}}))
        code, out, _ = run(capsys, ["packet", "--config", str(cfg)])
        assert code == 0
        assert parse_csv(out)[0][0] == "bytes"
        assert int(parse_csv(out)[0][1]) < 250

    @pytest.mark.parametrize("value", [True, "15", None, [15]])
    def test_timing_override_must_be_a_number(self, capsys, tmp_path, value):
        # true was read as a 1-slot window (bytes,137, exit 0) and "15" passed as a string
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.6, "rate": 2, "timing": {"cw_min": value}}))
        code, out, err = run(capsys, ["packet", "--config", str(cfg)])
        assert code == 2 and out == ""
        assert "cw_min" in err

    def test_unknown_timing_field(self, capsys, tmp_path):
        # difs is no MacTiming field: no formula used it
        for field, value in [("cw_max", 1023), ("difs", 50.0)]:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"alpha": 0.6, "rate": 2, "timing": {field: value}}))
            code, out, err = run(capsys, ["packet", "--config", str(cfg)])
            assert code == 2 and out == ""
            assert field in err

    @pytest.mark.parametrize(
        "command, cfg, key",
        [
            ("solve", {"n": 10.7, "alpha": 0.5}, "n"),
            ("solve", {"n": 4.0, "alpha": 0.5}, "n"),
            ("solve", {"n": True, "alpha": 0.5}, "n"),
            ("solve", {"n": 4, "alpha": True}, "alpha"),
            ("solve", {"n": 4, "alpha": 0.5, "max_iter": 2.5}, "max_iter"),
            ("solve", {"n": 4, "alpha": 0.5, "method": "secant"}, "method"),
            ("sweep", {"n": 4, "points": 3.5}, "points"),
            ("simulate", {"n": 3, "alpha": 0.5, "steps": 100.9}, "steps"),
            ("simulate", {"n": 3, "alpha": 0.5, "steps": 100, "burn-in": 10.5}, "burn-in"),
            ("simulate", {"n": 3, "alpha": 0.5, "steps": 100, "seed": 1.5}, "seed"),
            ("simulate", {"n": 3, "alpha": 0.5, "steps": 100, "policy": "sweep"}, "policy"),
            ("flat", {"ns": [7, 8.5]}, "ns"),
            ("flat", {"ns": [True]}, "ns"),
            # a falsy timing read as no overrides: bytes,250 and exit 0
            *[("packet", {"alpha": 0.6, "rate": 2, "timing": v}, "timing") for v in (0, False, "", [], [1])],
        ],
    )
    def test_values_take_the_flag_type(self, capsys, tmp_path, command, cfg, key):
        # a config value is parsed as the flag's text would be, not truncated
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, [command, "--config", str(path)])
        assert code == 2 and out == ""
        assert f"config key {key!r}" in err

    @pytest.mark.parametrize(
        "command, cfg, argv",
        [
            ("solve", {"n": "10", "alpha": "0.5"}, ["--n", "10", "--alpha", "0.5"]),
            ("solve", {"n": 3, "alpha": 0.5, "tol": 1e-13}, ["--n", "3", "--alpha", "0.5", "--tol", "1e-13"]),
            ("packet", {"alpha": 0.6, "rate": 2}, ["--alpha", "0.6", "--rate", "2"]),
            ("flat", {"ns": [7, "8"]}, ["--ns", "7,8"]),
            ("flat", {"ns": "7,8"}, ["--ns", "7,8"]),
            # values for flags that have defaults
            ("solve", {"n": 4, "alpha": 0.3, "method": "fixed-point"},
             ["--n", "4", "--alpha", "0.3", "--method", "fixed-point"]),
            ("optimize", {"n": 10, "tol-alpha": 1e-2}, ["--n", "10", "--tol-alpha", "1e-2"]),
            ("sweep", {"n": 4, "alpha-min": 0.2, "points": 4, "format": "svg"},
             ["--n", "4", "--alpha-min", "0.2", "--points", "4", "--format", "svg"]),
            ("simulate", {"n": 3, "alpha": 0.5, "steps": 2000, "policy": "synchronous-random-order", "seed": 7},
             ["--n", "3", "--alpha", "0.5", "--steps", "2000", "--policy", "synchronous-random-order",
              "--seed", "7"]),
            ("fit", {"input": "trace.csv", "lo": 0.3, "hi": 0.9},
             ["--input", "trace.csv", "--lo", "0.3", "--hi", "0.9"]),
            # a null falls back to the default
            ("solve", {"n": 4, "alpha": 0.3, "method": None}, ["--n", "4", "--alpha", "0.3"]),
            ("sweep", {"n": 4, "points": None, "alpha-max": None}, ["--n", "4"]),
            ("ring", {"alpha": 0.6, "output": "out.csv"}, ["--alpha", "0.6", "--output", "out.csv"]),
            # a null timing is no overrides
            ("packet", {"alpha": 0.6, "rate": 2, "timing": None}, ["--alpha", "0.6", "--rate", "2"]),
        ],
    )
    def test_values_match_flags(self, capsys, tmp_path, monkeypatch, command, cfg, argv):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CHAINFAIR_OUTDIR", raising=False)
        (tmp_path / "trace.csv").write_text("pair,rate\n1,1.55\n2,0.04\n3,1.55\n")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        results = []
        for args in (["--config", str(path)], argv):
            code, out, err = run(capsys, [command, *args])
            written = tmp_path / "out.csv"
            results.append((code, out, err, written.read_text() if written.exists() else None))
            written.unlink(missing_ok=True)
        assert results[0][0] == 0
        assert results[0] == results[1]

    def test_flag_beats_config_method(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 4, "alpha": 0.3, "method": "fixed-point"}))
        code, out, _ = run(capsys, ["solve", "--config", str(path), "--method", "newton"])
        assert code == 0
        newton = run(capsys, ["solve", "--n", "4", "--alpha", "0.3"])[1]
        fixed_point = run(capsys, ["solve", "--n", "4", "--alpha", "0.3", "--method", "fixed-point"])[1]
        assert out == newton != fixed_point

    def test_invalid_value_refused_under_a_flag(self, capsys, tmp_path):
        # the whole file is read before the flags override it
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 10.7, "alpha": 0.5}))
        code, out, err = run(capsys, ["solve", "--config", str(path), "--n", "3"])
        assert code == 2 and out == ""
        assert "config key 'n'" in err

    def test_malformed_json(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["solve", "--config", str(cfg)]) == 2


class TestOutputRouting:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run(capsys, ["ring", "--alpha", "0.75", "--output", str(target)])
        assert code == 0 and out == ""
        assert "0.3333333333333333" in target.read_text()

    def test_outdir_env_prefixes_relative_paths(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CHAINFAIR_OUTDIR", str(tmp_path))
        code, _, _ = run(capsys, ["ring", "--alpha", "0.5", "--output", "r.csv"])
        assert code == 0
        assert (tmp_path / "r.csv").exists()

    def test_outdir_env_ignored_for_absolute(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("CHAINFAIR_OUTDIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.csv"
        code, _, _ = run(capsys, ["ring", "--alpha", "0.5", "--output", str(target)])
        assert code == 0 and target.exists()

    def test_output_into_a_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, ["ring", "--alpha", "0.5", "--output", str(target)])
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("chainfair ring: error: ")

    def test_numerical_failure_writes_no_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CHAINFAIR_OUTDIR", raising=False)
        argv = ["solve", "--n", "50", "--alpha", "0.9", "--method", "fixed-point", "--max-iter", "200",
                "--output", "r.csv"]
        code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        error, residual = err.splitlines()
        assert error.startswith("chainfair solve: error: ")
        assert residual.startswith("chainfair solve: residual: ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, draws",
        [
            (["solve", "--n", "4", "--alpha", "0.5"], True),
            (["sweep", "--n", "4", "--points", "3"], True),
            (["flat", "--ns", "5"], True),
            (["fit", "--input", "trace.csv"], True),
            (["optimize", "--n", "4"], False),
            (["ring", "--alpha", "0.5"], False),
            (["simulate", "--n", "2", "--alpha", "0.5", "--steps", "100"], False),
            (["packet", "--alpha", "0.6", "--rate", "2"], False),
        ],
    )
    def test_svg_format_only_for_the_commands_that_draw(self, capsys, tmp_path, monkeypatch, argv, draws):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "trace.csv").write_text("pair,rate\n1,1.55\n2,0.04\n3,1.55\n")
        code, out, err = run(capsys, [*argv, "--format", "svg"])
        if draws:
            assert code == 0 and err == ""
            assert ET.fromstring(out).tag.endswith("svg")
        else:
            assert code == 2 and out == ""
            assert "unrecognized arguments: --format svg" in err


# one valid value per flag, small enough that each call ends in milliseconds
# (five fixed-point sweeps do not reach tol, so solve can exit 3); "@trace",
# "@missing" and "@dir" stand for a good trace, a missing path and a directory
VALID = {
    "solve": {"n": [7], "alpha": [0.6], "method": ["fixed-point"], "tol": [1e-10], "max-iter": [5],
              "format": ["svg"]},
    "optimize": {"n": [10], "tol-alpha": [1e-2]},
    "sweep": {"n": [10], "alpha-min": [0.2], "alpha-max": [0.8], "points": [5], "format": ["svg"]},
    "ring": {"alpha": [0.6]},
    "flat": {"ns": [[5, 8]], "format": ["svg"]},
    "simulate": {"n": [3], "alpha": [0.5], "steps": [500], "burn-in": [50], "seed": [3],
                 "policy": ["synchronous-random-order"]},
    "fit": {"input": ["@trace", "@missing", "@dir"], "lo": [0.1], "hi": [0.95], "format": ["svg"]},
    "packet": {"alpha": [0.6], "rate": [2], "timing": [{"cw_min": 0}]},
}
POOL = ["x", None, True, float("nan"), float("inf"), -1, 0, 1e308, [], {}]


@st.composite
def configs(draw):
    command = draw(st.sampled_from(sorted(VALID)))
    flags = VALID[command]
    # a valid value half the time, so that whole valid configs are drawn too
    values = {k: st.sampled_from(v) | st.sampled_from(POOL) for k, v in flags.items()}
    cfg = draw(st.fixed_dictionaries({}, optional=values))
    return command, cfg


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    (d / "trace.csv").write_text("pair,rate\n1,1.55\n2,0.04\n3,1.55\n")
    return d


class TestExitContract:
    @given(case=configs())
    @settings(max_examples=200, deadline=None)
    def test_any_config_exits_0_2_or_3_with_one_error_line(self, trace_dir, case):
        command, cfg = case
        paths = {"@trace": trace_dir / "trace.csv", "@missing": trace_dir / "missing.csv", "@dir": trace_dir}
        cfg = {k: str(paths[v]) if isinstance(v, str) and v in paths else v for k, v in cfg.items()}
        path = trace_dir / "cfg.json"
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path)])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3)
        if code == 0:
            assert err == ""
            return
        assert out == ""
        lines = err.splitlines()
        assert err.endswith("\n") and lines[0].startswith(f"chainfair {command}: error: ")
        assert len(lines) == 1 or code == 3 and len(lines) == 2 and lines[1].startswith(
            f"chainfair {command}: residual: "
        )


class TestOptimizeCommand:
    def test_keys_and_value(self, capsys):
        code, out, _ = run(capsys, ["optimize", "--n", "10"])
        rows = dict((r[0], r[1]) for r in parse_csv(out))
        assert code == 0
        assert float(rows["alpha_hat"]) == pytest.approx(0.5536, abs=2e-3)
        assert set(rows) == {"alpha_hat", "J_value", "evaluations", "bracket", "unimodal"}
        assert rows["unimodal"] == "true"


class TestSweepCommand:
    def test_rows_and_grid(self, capsys):
        code, out, _ = run(
            capsys,
            ["sweep", "--n", "5", "--alpha-min", "0.1", "--alpha-max", "0.9",
             "--points", "5"],
        )
        rows = parse_csv(out)
        assert code == 0 and rows[0] == ["alpha", "J"]
        assert len(rows) == 6
        assert float(rows[1][0]) == pytest.approx(0.1)
        assert float(rows[-1][0]) == pytest.approx(0.9)

    def test_svg(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--n", "4", "--points", "5", "--format", "svg"])
        assert code == 0
        ET.fromstring(out)

    def test_bad_grid(self, capsys):
        assert main(["sweep", "--n", "4", "--points", "1"]) == 2


class TestRingCommand:
    def test_value(self, capsys):
        code, out, _ = run(capsys, ["ring", "--alpha", "0.6"])
        rows = dict((r[0], r[1]) for r in parse_csv(out))
        assert code == 0
        assert float(rows["x"]) == pytest.approx(ring_fixed_point(0.6), abs=1e-15)


class TestFlatCommand:
    def test_single_n(self, capsys):
        code, out, _ = run(capsys, ["flat", "--ns", "7"])
        rows = parse_csv(out)
        assert code == 0 and rows[0] == ["n", "alpha_hat", "flat_value"]
        a_hat, central = flat_value(7)
        assert float(rows[1][1]) == pytest.approx(a_hat, abs=1e-9)
        assert float(rows[1][2]) == pytest.approx(central, abs=1e-12)

    def test_bad_ns(self, capsys):
        assert main(["flat", "--ns", "7,potato"]) == 2


class TestSimulateCommand:
    def test_deterministic_given_seed(self, capsys):
        argv = ["simulate", "--n", "3", "--alpha", "0.5", "--steps", "20000", "--seed", "4"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second
        rows = parse_csv(first)
        assert rows[0] == ["pair", "x_hat", "stderr"]
        assert len(rows) == 4

    def test_policy_flag(self, capsys):
        code, out, _ = run(
            capsys,
            ["simulate", "--n", "2", "--alpha", "0.4", "--steps", "5000",
             "--policy", "synchronous-random-order"],
        )
        assert code == 0 and len(parse_csv(out)) == 3


class TestFitCommand:
    def test_round_trip_through_trace_writer(self, capsys, tmp_path):
        path = tmp_path / "model.csv"
        x = newton_solve(ChainParams(5, 0.7))
        path.write_text("pair,rate\n" + "".join(f"{i},{r!r}\n" for i, r in enumerate(x.tolist(), start=1)))
        code, out, _ = run(capsys, ["fit", "--input", str(path)])
        rows = parse_csv(out)
        assert code == 0
        assert rows[0][0] == "alpha_fit"
        assert float(rows[0][1]) == pytest.approx(0.7, abs=1e-3)
        header_i = next(i for i, r in enumerate(rows) if r[0] == "pair")
        assert rows[header_i] == ["pair", "observed", "model", "residual"]
        assert len(rows) == header_i + 6

    def test_ns2_trace(self, capsys, tmp_path):
        path = tmp_path / "ns2.csv"
        path.write_text("pair,rate\n1,1.55\n2,0.04\n3,1.55\n")
        code, out, _ = run(capsys, ["fit", "--input", str(path)])
        assert code == 0
        alpha_fit = float(parse_csv(out)[0][1])
        assert 0.842 <= alpha_fit <= 0.882

    def test_svg_comparison_chart(self, capsys, tmp_path):
        path = tmp_path / "ns2.csv"
        path.write_text("pair,rate\n1,1.55\n2,0.04\n3,1.55\n")
        code, out, _ = run(capsys, ["fit", "--input", str(path), "--format", "svg"])
        assert code == 0
        root = ET.fromstring(out)
        rects = [el for el in root.iter() if el.tag.endswith("rect")]
        assert len(rects) > 6


    def test_trace_without_a_finite_sse_is_a_usage_error(self, capsys, tmp_path):
        # the overflow was read as a numerical failure (exit 3)
        path = tmp_path / "tiny.csv"
        path.write_text("pair,rate\n1,1e-200\n2,1.0\n3,1.0\n")
        code, out, err = run(capsys, ["fit", "--input", str(path)])
        assert code == 2 and out == ""
        assert "ratio" in err

    def test_two_pair_trace_is_a_usage_error(self, capsys, tmp_path):
        # x_1 = x_2 at every alpha, so no alpha fits better than another:
        # the fit printed alpha_fit,0.05 and exited 0
        path = tmp_path / "two.csv"
        path.write_text("pair,rate\n1,1.0\n2,0.5\n")
        code, out, err = run(capsys, ["fit", "--input", str(path)])
        assert code == 2 and out == ""
        assert "two-pair" in err

    @pytest.mark.parametrize("row", ["1,abc", "x,1.0", "1"])
    def test_malformed_trace(self, capsys, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"pair,rate\n{row}\n2,0.5\n")
        code, _, err = run(capsys, ["fit", "--input", str(path)])
        assert code == 2 and "line 2" in err


class TestPacketCommand:
    def test_reference_operating_point(self, capsys):
        code, out, _ = run(capsys, ["packet", "--alpha", "0.6", "--rate", "2"])
        assert code == 0
        assert parse_csv(out)[0] == ["bytes", "250"]

    def test_unachievable(self, capsys):
        code, _, err = run(capsys, ["packet", "--alpha", "0.05", "--rate", "2"])
        assert code == 2 and "achievable" in err
