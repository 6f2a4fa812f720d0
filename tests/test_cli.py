"""Command-line interface: file formats, round trips, exit codes."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from blaschke import cli
from blaschke import (
    BlaschkeModel,
    CgdStatus,
    PoleTuple,
    Signal,
    build_polar_grid,
    feval_table,
)
from blaschke.cli import (
    read_model_json,
    read_signal_csv,
    write_model_json,
    write_signal_csv,
)
from blaschke.pipeline import RunConfig


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "blaschke.cli", *args],
        capture_output=True,
        text=True,
    )


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

    def test_iteration_cap_exits_5_and_writes_model(self, tmp_path):
        # under the default settings this target stops at the 500-iteration
        # cap: its gradient norm stays above the absolute tol
        out = tmp_path / "out.json"
        res = run_cli(
            "approximate", "--builtin", "ex5_1_f3", "--degree", "6",
            "--out", str(out),
        )
        assert res.returncode == 5, res.stderr
        assert "status: iteration-cap" in res.stdout
        assert read_model_json(out).degree == 6

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

    def test_bad_degree(self, tmp_path):
        res = run_cli(
            "approximate", "--builtin", "ex5_1_f1", "--degree", "0",
            "--out", str(tmp_path / "o.json"),
        )
        assert res.returncode == 2


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
        table = feval_table(f, build_polar_grid(4, 64))
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 64
        for row in rows:
            m, n = int(row["m"]), int(row["n"])
            want = table[m - 1, n - 1]
            assert float(row["re"]) == want.real
            assert float(row["im"]) == want.imag
