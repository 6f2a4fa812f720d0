"""Command-line interface: file formats, round trips, exit codes."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import blaschke.cgd
import blaschke.search
from blaschke import cli
from blaschke import (
    BlaschkeModel,
    CgdStatus,
    PolarGrid,
    PoleTuple,
    Signal,
    feval_table,
)
from blaschke.cli import (
    read_model_json,
    read_signal_csv,
    write_model_json,
    write_signal_csv,
)
from blaschke.pipeline import DEFAULT_SAMPLES, RunConfig, builtin_signal, cafd_cgd_result
from blaschke.search import SearchConfig

from conftest import fix_search_tuple


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "blaschke.cli", *args],
        capture_output=True,
        text=True,
    )


def run_cli_in_process(monkeypatch, *args):
    """The exit code of `cli.run` on these arguments, in this interpreter."""
    monkeypatch.setattr(sys, "argv", ["blaschke", *args])
    with pytest.raises(SystemExit) as exit_info:
        cli.run()
    return exit_info.value.code


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    model = BlaschkeModel(PoleTuple([0.5 - 0.25j]), [0.8 + 0.3j])
    write_model_json(path, model)
    return path


@pytest.fixture
def truth_file(tmp_path):
    path = tmp_path / "truth.json"
    path.write_text(json.dumps({"poles": [{"re": 0.5, "im": -0.25}]}))
    return path


class TestFileFormats:
    def test_signal_round_trip(self, tmp_path, rng):
        f = Signal(rng.standard_normal(64) + 1j * rng.standard_normal(64))
        path = tmp_path / "sig.csv"
        write_signal_csv(path, f)
        g = read_signal_csv(path)
        np.testing.assert_array_equal(g.samples, f.samples)

    def test_model_round_trip(self, tmp_path):
        model = BlaschkeModel(
            PoleTuple([0.1 + 0.2j, -0.3j]), [1.0, 2.0 - 1.0j], 0.125
        )
        path = tmp_path / "model.json"
        write_model_json(path, model)
        got = read_model_json(path)
        np.testing.assert_array_equal(got.tuple.poles, model.tuple.poles)
        np.testing.assert_array_equal(got.coeffs, model.coeffs)
        assert got.residual_error == model.residual_error


class TestSynthesizeAndRecover:
    def test_repeated_pole_model_synthesizes(self, tmp_path):
        model = tmp_path / "model.json"
        write_model_json(model, BlaschkeModel(PoleTuple([0.5, 0.5, 0.2j]), [1.0, 0.5j, -0.25]))
        sig = tmp_path / "sig.csv"
        res = run_cli("synthesize", "--model", str(model), "--samples", "64",
                      "--out", str(sig))
        assert res.returncode == 0, res.stderr
        assert read_signal_csv(sig).n_samples == 64

    def test_end_to_end_round_trip(self, tmp_path, model_file, truth_file):
        sig = tmp_path / "sig.csv"
        out = tmp_path / "out.json"
        res = run_cli(
            "synthesize", "--model", str(model_file), "--samples", "64",
            "--out", str(sig),
        )
        assert res.returncode == 0, res.stderr
        res = run_cli(
            "recover", "--input", str(sig), "--degree", "1",
            "--radial", "20", "--angular", "64",
            "--truth", str(truth_file), "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        assert "tuple_distance" in res.stdout
        model = read_model_json(out)
        assert abs(model.tuple.poles[0] - (0.5 - 0.25j)) <= 1e-6
        assert abs(model.coeffs[0] - (0.8 + 0.3j)) <= 1e-6

    def test_approximate_builtin(self, tmp_path):
        out = tmp_path / "out.json"
        res = run_cli(
            "approximate", "--builtin", "ex5_1_f1", "--degree", "1",
            "--samples", "256", "--radial", "20", "--angular", "64",
            "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        assert "l2_relative_error" in res.stdout
        assert out.exists()

    def test_reports_working_samples(self, tmp_path):
        # the refinement's sample count, as the library reports it for the same run
        res = CliRunner().invoke(cli.main, [
            "recover", "--builtin", "ex5_6", "--degree", "4", "--angular", "128",
            "--out", str(tmp_path / "o.json"),
        ])
        assert res.exit_code == 0, res.output
        lines = dict(line.split(": ") for line in res.output.splitlines())
        want = cafd_cgd_result(builtin_signal("ex5_6"), RunConfig(
            degree=4, search=SearchConfig(angular=128))).working_samples
        assert int(lines["working_samples"]) == want < DEFAULT_SAMPLES

    def test_iteration_cap_exits_5_and_writes_model(self, tmp_path, monkeypatch, capsys):
        # no gradient norm is at most 0, so the refinement from this grid
        # tuple runs to the cap
        monkeypatch.setattr(blaschke.cgd, "GRAD_TOL", 0.0)
        fix_search_tuple(monkeypatch, "ex5_1_f3")
        out = tmp_path / "out.json"
        code = run_cli_in_process(
            monkeypatch, "approximate", "--builtin", "ex5_1_f3", "--degree", "6",
            "--out", str(out),
        )
        assert code == 5
        assert "status: iteration-cap" in capsys.readouterr().out
        assert read_model_json(out).degree == 6

    def test_search_non_convergence_exits_3_without_model(
            self, tmp_path, monkeypatch, capsys):
        # with no sweep allowed, the search gives up at its start
        monkeypatch.setattr(blaschke.search, "MAX_SWEEPS", 0)
        out = tmp_path / "out.json"
        code = run_cli_in_process(
            monkeypatch, "approximate", "--builtin", "ex5_3", "--degree", "5",
            "--out", str(out),
        )
        assert code == 3
        assert "no coordinate maximum within 0 sweeps" in capsys.readouterr().err
        assert not out.exists()

    def test_line_search_stall_exits_4_and_writes_model(
            self, tmp_path, monkeypatch, capsys):
        # with no trial allowed, the refinement stalls at the search tuple
        monkeypatch.setattr(blaschke.cgd, "MAX_BACKTRACKS", 0)
        fix_search_tuple(monkeypatch, "ex5_5")
        out = tmp_path / "out.json"
        code = run_cli_in_process(
            monkeypatch, "approximate", "--builtin", "ex5_5", "--degree", "4",
            "--out", str(out),
        )
        assert code == 4
        assert "status: line-search-stall" in capsys.readouterr().out
        assert read_model_json(out).degree == 4

    def test_no_tuning_flags_give_library_defaults(self, tmp_path, monkeypatch):
        seen = []

        def capture(f, cfg, truth=None):
            seen.append(cfg)
            raise RuntimeError("config captured")

        monkeypatch.setattr(cli, "cafd_cgd_result", capture)
        CliRunner().invoke(cli.main, [
            "approximate", "--builtin", "ex5_5", "--degree", "4",
            "--out", str(tmp_path / "o.json"),
        ])
        assert seen == [RunConfig(degree=4)]


class TestValidationExitCodes:
    def test_missing_source_is_usage_error(self, tmp_path):
        res = run_cli("approximate", "--degree", "1", "--out", str(tmp_path / "o"))
        assert res.returncode == 2

    def test_bad_signal_length(self, tmp_path):
        sig = tmp_path / "bad.csv"
        with open(sig, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "re", "im"])
            for j in range(3):
                writer.writerow([j, 1.0, 0.0])
        res = run_cli(
            "approximate", "--input", str(sig), "--degree", "1",
            "--out", str(tmp_path / "o.json"),
        )
        assert res.returncode == 2

    def test_indices_must_be_zero_to_n_minus_one(self, tmp_path):
        for indices in ([0, 0, 5, 7], [0, 1, 2, 4], [1, 2, 3, 4]):
            sig = tmp_path / "bad.csv"
            with open(sig, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["index", "re", "im"])
                for j in indices:
                    writer.writerow([j, 1.0, 0.0])
            with pytest.raises(ValueError):
                read_signal_csv(sig)
        res = run_cli(
            "approximate", "--input", str(sig), "--degree", "1",
            "--out", str(tmp_path / "o.json"),
        )
        assert res.returncode == 2

    def test_zero_signal(self, tmp_path):
        sig = tmp_path / "zero.csv"
        write_signal_csv(sig, Signal(np.zeros(64)))
        res = run_cli(
            "approximate", "--input", str(sig), "--degree", "1",
            "--out", str(tmp_path / "o.json"),
        )
        assert res.returncode == 2
        assert "zero norm" in res.stderr

    def test_unknown_builtin(self, tmp_path):
        res = run_cli(
            "approximate", "--builtin", "mystery", "--degree", "1",
            "--out", str(tmp_path / "o.json"),
        )
        assert res.returncode == 2
        # the library's KeyError message, not its repr
        assert res.stderr == "error: unknown builtin target 'mystery'\n"

    @pytest.mark.parametrize("command", ["approximate", "recover"])
    def test_samples_with_input_exits_2(self, tmp_path, command):
        # the file's rows set N; a --samples the run would ignore is an error
        sig = tmp_path / "sig.csv"
        write_signal_csv(sig, builtin_signal("ex5_5", 256))
        res = run_cli(
            command, "--input", str(sig), "--degree", "4", "--samples", "4096",
            "--radial", "20", "--angular", "64", "--out", str(tmp_path / "o.json"),
        )
        assert res.returncode == 2
        assert "--samples" in res.stderr
        assert not (tmp_path / "o.json").exists()

    def test_bad_degree(self, tmp_path):
        res = run_cli(
            "approximate", "--builtin", "ex5_1_f1", "--degree", "0",
            "--out", str(tmp_path / "o.json"),
        )
        assert res.returncode == 2

    def test_seed_is_no_option(self, monkeypatch, capsys, tmp_path):
        # the polar search draws no random number, so there is no seed to set
        code = run_cli_in_process(
            monkeypatch, "approximate", "--builtin", "ex5_5", "--degree", "4",
            "--seed", "1", "--out", str(tmp_path / "o.json"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "No such option" in err and "--seed" in err
        assert not (tmp_path / "o.json").exists()

    def test_bad_angular_count(self, tmp_path):
        res = run_cli(
            "approximate", "--builtin", "ex5_5", "--degree", "4", "--angular", "3",
            "--out", str(tmp_path / "o.json"),
        )
        assert res.returncode == 2
        assert "power of two" in res.stderr
        assert not (tmp_path / "o.json").exists()

    def test_model_with_infinite_residual_exits_2(self, tmp_path, model_file):
        payload = json.loads(model_file.read_text())
        payload["residual_error"] = float("inf")
        model_file.write_text(json.dumps(payload))
        assert "Infinity" in model_file.read_text()
        res = run_cli("synthesize", "--model", str(model_file),
                      "--out", str(tmp_path / "sig.csv"))
        assert res.returncode == 2
        assert "residual_error must be finite" in res.stderr
        assert not (tmp_path / "sig.csv").exists()

    @pytest.mark.parametrize("command, name, content", [
        ("approximate --degree 1 --input", "sig.csv", "index,re,im\n0,1.0\n1,2.0,0\n"),
        ("synthesize --model", "model.json", '{"poles": [1, 2], "coeffs": [1, 2]}'),
        ("synthesize --model", "model.json", json.dumps({
            "poles": [{"re": 0.5, "im": 0.0}], "coeffs": [{"re": 1.0, "im": 0.0}],
            "residual_error": "x"})),
        ("recover --builtin ex5_5 --degree 4 --truth", "truth.json", "[1]"),
        ("synthesize --model", "model.json", "not json"),
        ("recover --builtin ex5_5 --degree 4 --truth", "truth.json", "not json"),
        ("benchmark --suite", "suite.json", "not json"),
        ("synthesize --model", "model.json", json.dumps({
            "degree": 3, "poles": [{"re": 0.5, "im": 0.0}],
            "coeffs": [{"re": 1.0, "im": 0.0}]})),
        # a one-pole truth fits this degree-1 run, so only the degree check stops it
        ("recover --builtin ex5_5 --degree 1 --samples 256 --angular 64 --radial 20 --truth",
         "truth.json", json.dumps({"degree": 3, "poles": [{"re": 0.5, "im": 0.0}]})),
        # JSON true and false are no numbers, though Python's bool is an int
        ("synthesize --model", "model.json", json.dumps({
            "poles": [{"re": 0.5, "im": False}], "coeffs": [{"re": 1.0, "im": 0.0}]})),
        ("synthesize --model", "model.json", json.dumps({
            "poles": [{"re": 0.5, "im": 0.0}], "coeffs": [{"re": True, "im": 0.0}]})),
        ("recover --builtin ex5_5 --degree 1 --samples 256 --angular 64 --radial 20 --truth",
         "truth.json", json.dumps([{"re": False, "im": 0}])),
        # the value types reject these; the readers name the file
        ("synthesize --model", "model.json", json.dumps({
            "poles": [{"re": 0.5, "im": 0.0}],
            "coeffs": [{"re": 1.0, "im": 0.0}, {"re": 2.0, "im": 0.0}]})),
        ("synthesize --model", "model.json", json.dumps({
            "poles": [{"re": 1.5, "im": 0.0}], "coeffs": [{"re": 1.0, "im": 0.0}]})),
        ("synthesize --model", "model.json", json.dumps({
            "poles": [{"re": 0.5, "im": 0.0}], "coeffs": [{"re": 1.0, "im": 0.0}],
            "residual_error": float("inf")})),
        ("recover --builtin ex5_5 --degree 1 --samples 256 --angular 64 --radial 20 --truth",
         "truth.json", '[{"re": NaN, "im": 0}]'),
        ("approximate --degree 1 --input", "sig.csv", "index,re,im\n0,nan,0\n1,2.0,0\n"),
        ("approximate --degree 1 --input", "sig.csv", "index,re,im\n0,1.0,0\n1,2.0,0\n2,3.0,0\n"),
    ], ids=["short-csv-row", "pole-not-object", "residual-not-number", "truth-not-object",
            "model-not-json", "truth-not-json", "suite-not-json", "degree-not-pole-count",
            "truth-degree-not-pole-count", "pole-part-boolean", "coeff-part-boolean",
            "truth-pole-boolean", "coeff-count-not-degree", "pole-outside-disk",
            "residual-infinite", "truth-pole-nan", "csv-sample-nan", "csv-three-rows"])
    def test_malformed_file_exits_2(self, tmp_path, command, name, content):
        path = tmp_path / name
        path.write_text(content)
        res = run_cli(*command.split(), str(path), "--out", str(tmp_path / "out"))
        assert res.returncode == 2
        assert str(path) in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        "synthesize --model {model} --samples -2 --out {tmp}/out",
        "approximate --builtin ex5_1_f1 --degree 2 --samples -2 --out {tmp}/out",
        "approximate --builtin ex5_3 --degree 2 --samples -2 --out {tmp}/out",
        "benchmark --suite {suite} --out {tmp}/out",
    ], ids=["synthesize", "builtin-function", "builtin-form", "descriptor"])
    def test_negative_sample_count_is_named(self, tmp_path, model_file, args):
        suite = tmp_path / "suite.json"
        suite.write_text(json.dumps({"targets": [{"name": "ex5_5"}], "n_samples": -2}))
        res = run_cli(*args.format(model=model_file, suite=suite, tmp=tmp_path).split())
        assert res.returncode == 2
        assert "sample count must be a power of two >= 2, got -2" in res.stderr
        assert "Traceback" not in res.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [
        "synthesize --model {model} --out {tmp}/missing/s.csv",
        "approximate --input {tmp} --degree 2 --out {tmp}/o.json",
    ], ids=["out-dir-missing", "input-is-directory"])
    def test_file_system_error_exits_2(self, tmp_path, model_file, args):
        # the OSError's own message names the path
        res = run_cli(*args.format(model=model_file, tmp=tmp_path).split())
        assert res.returncode == 2
        assert str(tmp_path) in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("flag, value", [
        ("--beta", "0.5"), ("--trust", "0.05"), ("--tol", "1e-18"), ("--eta-rel", "1e-12"),
    ])
    def test_fixed_solver_constant_is_no_option(self, tmp_path, monkeypatch, capsys,
                                                flag, value):
        code = run_cli_in_process(
            monkeypatch, "approximate", "--builtin", "ex5_5", "--degree", "4",
            flag, value, "--out", str(tmp_path / "o.json"),
        )
        assert code == 2
        assert "No such option" in capsys.readouterr().err


class TestBenchmarkCommand:
    def test_descriptor_file(self, tmp_path):
        desc = tmp_path / "suite.json"
        desc.write_text(json.dumps({
            "targets": [{"name": "ex5_1_f1", "degree": 1}],
            "algorithms": ["cafd_cgd"],
            "n_samples": 256,
            "angular": 64,
        }))
        out = tmp_path / "table.csv"
        res = run_cli("benchmark", "--suite", str(desc), "--out", str(out))
        assert res.returncode == 0, res.stderr
        with open(out, newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == [
            "target", "algorithm", "degree", "l2_rel_error",
            "tuple_distance", "wall_time_s", "status", "iterations", "stat",
        ]
        assert len(rows) == 1
        assert rows[0]["target"] == "ex5_1_f1"
        assert float(rows[0]["l2_rel_error"]) >= 0.0
        assert rows[0]["status"] in {s.value for s in CgdStatus}
        assert int(rows[0]["iterations"]) >= 0

    def test_empty_suite(self, tmp_path):
        desc = tmp_path / "suite.json"
        desc.write_text(json.dumps({"targets": []}))
        out = tmp_path / "table.csv"
        res = run_cli("benchmark", "--suite", str(desc), "--out", str(out))
        assert res.returncode == 0
        with open(out, newline="") as fh:
            assert list(csv.DictReader(fh)) == []


    def test_unknown_suite_exits_2(self, tmp_path):
        res = run_cli("benchmark", "--suite", "no_such_suite",
                      "--out", str(tmp_path / "table.csv"))
        assert res.returncode == 2
        assert "neither a builtin suite" in res.stderr
        assert "Traceback" not in res.stderr

    def test_descriptor_must_be_an_object(self, tmp_path):
        desc = tmp_path / "suite.json"
        desc.write_text(json.dumps([{"name": "ex5_5"}]))
        res = run_cli("benchmark", "--suite", str(desc),
                      "--out", str(tmp_path / "table.csv"))
        assert res.returncode == 2
        assert "JSON object" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("descriptor, field", [
        ({"targets": "ex5_5"}, "'targets'"),
        ({"targets": [{"name": "ex5_5"}], "algorithms": "cafd_cgd"}, "'algorithms'"),
        ({"targets": [{"name": "ex5_5", "degree": "4"}]}, "'degree'"),
        # misspelled fields, which would otherwise run their defaults
        ({"targets": [{"name": "ex5_5", "degre": 3}], "algorithm": ["rect_cafd"],
          "samples": 256}, "'algorithm'"),
        ({"targets": [{"name": "ex5_5", "degre": 3}]}, "'degre'"),
    ])
    def test_field_of_wrong_type_exits_2(self, tmp_path, descriptor, field):
        desc = tmp_path / "suite.json"
        desc.write_text(json.dumps(descriptor))
        res = run_cli("benchmark", "--suite", str(desc),
                      "--out", str(tmp_path / "table.csv"))
        assert res.returncode == 2
        assert f"descriptor field {field}" in res.stderr
        assert "Traceback" not in res.stderr

    def test_negative_seed_exits_2(self, tmp_path):
        desc = tmp_path / "suite.json"
        desc.write_text(json.dumps({"targets": [{"name": "ex5_5"}], "seed": -1}))
        res = run_cli("benchmark", "--suite", str(desc),
                      "--out", str(tmp_path / "table.csv"))
        assert res.returncode == 2
        assert "descriptor field 'seed' must be nonnegative" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("count", [0, -3])
    def test_random_batch_of_no_forms_exits_2(self, tmp_path, count):
        desc = tmp_path / "suite.json"
        desc.write_text(json.dumps(
            {"targets": [{"name": "random", "degree": 2, "count": count}]}))
        res = run_cli("benchmark", "--suite", str(desc),
                      "--out", str(tmp_path / "table.csv"))
        assert res.returncode == 2
        assert "descriptor field 'count' must be at least 1" in res.stderr
        assert "Mean of empty slice" not in res.stderr
        assert "Traceback" not in res.stderr

    def test_random_batch_that_cannot_be_drawn_exits_2(self, tmp_path):
        # 2000 poles 0.05 apart do not fit in the disk of radius 0.9
        desc = tmp_path / "suite.json"
        desc.write_text(json.dumps(
            {"targets": [{"name": "random", "degree": 2000, "count": 1}]}))
        res = run_cli("benchmark", "--suite", str(desc),
                      "--out", str(tmp_path / "table.csv"))
        assert res.returncode == 2
        assert "could not draw 2000 separated poles" in res.stderr
        assert "Traceback" not in res.stderr

    def test_random_batch_without_degree_exits_2(self, tmp_path):
        desc = tmp_path / "suite.json"
        desc.write_text(json.dumps({"targets": [{"name": "random", "count": 1}]}))
        res = run_cli("benchmark", "--suite", str(desc),
                      "--out", str(tmp_path / "table.csv"))
        assert res.returncode == 2
        assert res.stderr == "error: no degree given for target 'random'\n"

    def test_unknown_algorithm_exits_2(self, tmp_path):
        desc = tmp_path / "suite.json"
        desc.write_text(json.dumps({"targets": [{"name": "ex5_5"}], "algorithms": ["typo"]}))
        res = run_cli("benchmark", "--suite", str(desc),
                      "--out", str(tmp_path / "table.csv"))
        assert res.returncode == 2
        assert res.stderr == "error: unknown algorithm 'typo'\n"


class TestEvalGridCommand:
    def test_table_dump_matches_library(self, tmp_path, rng):
        f = Signal(rng.standard_normal(64) + 1j * rng.standard_normal(64))
        sig = tmp_path / "sig.csv"
        write_signal_csv(sig, f)
        out = tmp_path / "grid.csv"
        res = run_cli(
            "eval-grid", "--input", str(sig), "--radial", "4",
            "--angular", "64", "--out", str(out),
        )
        assert res.returncode == 0, res.stderr
        table = feval_table(f, PolarGrid(4, 64))
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 64
        for row in rows:
            m, n = int(row["m"]), int(row["n"])
            want = table[m - 1, n - 1]
            assert float(row["re"]) == want.real
            assert float(row["im"]) == want.imag
