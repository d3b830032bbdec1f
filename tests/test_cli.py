"""End-to-end command tests: exit codes, determinism, manifests, precedence."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from passklab.cli import main


# seeded command on a batch small enough for precedence checks
SMALL_HEATMAP = ["--n", "200", "--subsample", "20"]


def read(path):
    return path.read_bytes()


@pytest.fixture()
def synth_log(tmp_path):
    path = tmp_path / "log.jsonl"
    assert main(["synth-log", "--out", str(path), "--n", "200", "--d", "16"]) == 0
    return path


class TestToyDemo:
    def test_default_run_reproduces_two_point_numbers(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert main(["toy-demo", "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads((out / "toy_demo.json").read_text())
        assert report["cos_grad_j1_grad_jk"] == pytest.approx(-0.77, abs=0.05)
        assert report["kernel_easy_hard"] == pytest.approx(-0.01, abs=0.005)
        assert report["j1_before"] == pytest.approx(0.48, abs=0.01)
        assert report["j1_after"] == pytest.approx(0.46, abs=0.01)
        assert report["jk_before"] == pytest.approx(0.83, abs=0.01)
        assert report["jk_after"] == pytest.approx(0.95, abs=0.01)
        assert (out / "manifest.json").exists()

    def test_k1_no_conflict(self, tmp_path, capsys):
        out = tmp_path / "demo1"
        assert main(["toy-demo", "--k", "1", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "no conflict" in text
        report = json.loads((out / "toy_demo.json").read_text())
        assert report["inner_product"] >= 0
        assert report["j1_after"] > report["j1_before"]

    def test_eta_zero_exits_nonzero(self, capsys):
        assert main(["toy-demo", "--eta", "0.0"]) != 0
        assert "eta" in capsys.readouterr().err


class TestHeatmap:
    def test_default_shape_and_symmetry(self, tmp_path, capsys):
        out = tmp_path / "hm"
        assert main(["heatmap", "--out", str(out), "--n", "2000"]) == 0
        capsys.readouterr()
        lines = (out / "heatmap.csv").read_text().splitlines()
        assert len(lines) == 201  # header + 200 rows
        header = lines[0].split(",")
        assert header[0] == "id" and len(header) == 201
        rows = [line.split(",")[1:] for line in lines[1:]]
        mat = [[float(v) for v in row] for row in rows]
        n = len(mat)
        assert all(mat[i][i] == 1.0 for i in range(n))
        assert all(
            abs(mat[i][j] - mat[j][i]) < 1e-12 for i in range(n) for j in range(n)
        )

    def test_easy_hard_block_negative(self, tmp_path, capsys):
        out = tmp_path / "hm2"
        assert main(["heatmap", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = (out / "heatmap.csv").read_text().splitlines()
        mat = [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
        # rows are ordered easy block (120) then hard block (80)
        cross = [mat[i][j] for i in range(120) for j in range(120, 200)]
        assert sum(cross) / len(cross) < 0

    def test_subsample_flag(self, tmp_path, capsys):
        out = tmp_path / "hm3"
        assert main(["heatmap", "--out", str(out), "--subsample", "10",
                     "--n", "500"]) == 0
        capsys.readouterr()
        lines = (out / "heatmap.csv").read_text().splitlines()
        assert len(lines) == 11

    def test_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["heatmap", "--out", str(a), "--n", "800"]) == 0
        assert main(["heatmap", "--out", str(b), "--n", "800"]) == 0
        capsys.readouterr()
        assert read(a / "heatmap.csv") == read(b / "heatmap.csv")


class TestTrajectory:
    def test_direction_on_defaults(self, tmp_path, capsys):
        out = tmp_path / "tr"
        assert main(["trajectory", "--out", str(out), "--k", "5"]) == 0
        capsys.readouterr()
        lines = (out / "trajectory.csv").read_text().splitlines()
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(last[2]) > float(first[2])  # jk_pop rises
        assert float(last[1]) < float(first[1])  # j1_pop falls

    def test_steps_one_gives_two_rows(self, tmp_path, capsys):
        out = tmp_path / "tr1"
        assert main(
            ["trajectory", "--out", str(out), "--steps", "1", "--n", "50"]
        ) == 0
        capsys.readouterr()
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 3  # header + step 0 + step 1

    def test_identical_flags_identical_files(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["trajectory", "--steps", "3", "--n", "200"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert read(a / "trajectory.csv") == read(b / "trajectory.csv")


class TestKstar:
    def test_unit_log_argument(self, capsys):
        assert main(
            ["kstar", "--eps", "0.0", "--delta-sep", "0.5", "--q", "0.5",
             "--m", "1.0", "--g2", "1.0"]
        ) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "k_star = 1"

    def test_sweep_single_sign_change(self, capsys):
        assert main(["kstar"]) == 0  # defaults: eps .05, delta_sep .5, q .1
        lines = capsys.readouterr().out.splitlines()
        threshold = float(lines[0].split("=")[1])
        flags = []
        for line in lines[2:]:
            k_str, _, certified = line.split("\t")
            flags.append((int(k_str), certified == "yes"))
        changes = sum(1 for (_, a), (_, b) in zip(flags, flags[1:]) if a != b)
        assert changes == 1
        first_yes = next(k for k, yes in flags if yes)
        assert first_yes == math.ceil(threshold)

    def test_invalid_separation_exits_nonzero(self, capsys):
        rc = main(["kstar", "--eps", "0.6", "--delta-sep", "0.5"])
        assert rc != 0
        assert "delta_sep" in capsys.readouterr().err


class TestDiagnose:
    def test_conflict_fixture_end_to_end(self, tmp_path, synth_log, capsys):
        out = tmp_path / "diag"
        assert main(
            ["diagnose", "--input", str(synth_log), "--k", "32", "--out", str(out)]
        ) == 0
        text = capsys.readouterr().out
        assert "hard" in text and "ratio" in text
        report = json.loads((out / "diagnose.json").read_text())
        assert report["unweighted_mean_agreement"] > 0
        assert report["weighted_mean_agreement"] < 0
        assert report["inner_product"] < 0
        assert (out / "prompts.csv").exists()
        assert (out / "scatter.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "diagnose"
        assert str(synth_log) in manifest["inputs"]

    def test_byte_stable_outputs(self, tmp_path, synth_log, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["diagnose", "--input", str(synth_log), "--k", "32"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        for name in ("diagnose.json", "prompts.csv", "scatter.csv"):
            assert read(a / name) == read(b / name), name

    def test_diagnose_runs_once(self, tmp_path, synth_log, capsys, monkeypatch):
        import passklab.gradlog

        calls = []
        original = passklab.gradlog.diagnose

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr("passklab.cli.diagnose", counted)
        monkeypatch.setattr("passklab.gradlog.diagnose", counted)
        assert main(
            ["diagnose", "--input", str(synth_log), "--out", str(tmp_path / "d")]
        ) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_k1_zero_shift(self, tmp_path, synth_log, capsys):
        out = tmp_path / "diag1"
        assert main(
            ["diagnose", "--input", str(synth_log), "--k", "1", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        report = json.loads((out / "diagnose.json").read_text())
        assert report["mean_shift"] == 0.0

    def test_bad_thresholds_exit_nonzero(self, tmp_path, synth_log, capsys):
        rc = main(
            ["diagnose", "--input", str(synth_log), "--delta1", "0.1",
             "--delta2", "0.8", "--out", str(tmp_path / "x")]
        )
        assert rc == 2
        capsys.readouterr()

    def test_route_disagreement_exits_one(
        self, tmp_path, synth_log, capsys, monkeypatch
    ):
        import passklab.conflict

        original = passklab.conflict.assemble_passk_gradient
        monkeypatch.setattr(
            "passklab.conflict.assemble_passk_gradient",
            lambda *args: (1.0 + 1e-6) * original(*args),
        )
        rc = main(["diagnose", "--input", str(synth_log), "--out", str(tmp_path / "d")])
        assert rc == 1
        assert "internal check failed" in capsys.readouterr().err

    def test_all_zero_gradients_exit_zero(self, tmp_path, capsys):
        from passklab.gradlog import GradLogRecord, export_gradlog

        log = tmp_path / "zeros.jsonl"
        export_gradlog(
            [
                GradLogRecord(f"p{i}", pass1, [0.0, 0.0, 0.0])
                for i, pass1 in enumerate((0.02, 0.05, 0.08, 0.9, 0.95, 0.98))
            ],
            log,
        )
        out = tmp_path / "d"
        assert main(["diagnose", "--input", str(log), "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads((out / "diagnose.json").read_text())
        assert report["inner_product"] == 0.0

    def test_missing_input_exit_nonzero(self, tmp_path, capsys):
        rc = main(
            ["diagnose", "--input", str(tmp_path / "nope.jsonl"), "--out",
             str(tmp_path / "x")]
        )
        assert rc == 2
        capsys.readouterr()


class TestPrecedence:
    def test_config_file_overrides_default(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# run configuration\nk = 3\neta = 2.0\n")
        out = tmp_path / "demo"
        assert main(["--config", str(cfg), "toy-demo", "--out", str(out)]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["k"] == 3
        assert manifest["parameters"]["eta"] == 2.0

    def test_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 3\n")
        out = tmp_path / "demo"
        assert main(
            ["--config", str(cfg), "toy-demo", "--k", "7", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["k"] == 7

    def test_env_seed_overrides_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PASSK_SEED", "1234")
        out = tmp_path / "hm"
        assert main(["heatmap", *SMALL_HEATMAP, "--out", str(out)]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["seed"] == 1234

    def test_config_seed_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PASSK_SEED", "1234")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 55\n")
        out = tmp_path / "hm"
        argv = ["--config", str(cfg), "heatmap", *SMALL_HEATMAP, "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"]["seed"] == 55


class TestExitCodes:
    def test_internal_check_failure_exits_one(self, capsys, monkeypatch):
        from passklab.errors import IdentityCheckError

        def broken(*args, **kwargs):
            raise IdentityCheckError("forced route disagreement")

        monkeypatch.setattr("passklab.optimizer.conflict_report", broken)
        assert main(["toy-demo"]) == 1
        assert "internal check failed" in capsys.readouterr().err


class TestUsageErrorsExitTwo:
    """Each documented error path exits 2 with one line on stderr."""

    def assert_one_line_error(self, argv, capsys, needle):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err

    def test_missing_config_file(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.cfg")
        self.assert_one_line_error(["--config", missing, "kstar"], capsys, missing)

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = 3\njust words\n")
        self.assert_one_line_error(["--config", str(cfg), "kstar"], capsys, "line 2")

    def test_non_numeric_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = five\n")
        self.assert_one_line_error(["--config", str(cfg), "toy-demo"], capsys, "'five'")

    def test_bad_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PASSK_SEED", "x")
        argv = ["heatmap", *SMALL_HEATMAP, "--out", str(tmp_path / "hm")]
        self.assert_one_line_error(argv, capsys, "PASSK_SEED")

    @pytest.mark.parametrize("value", ["0", "-4"])
    def test_heatmap_subsample_below_one(self, tmp_path, capsys, value):
        argv = ["heatmap", "--n", "300", "--subsample", value, "--out", str(tmp_path)]
        self.assert_one_line_error(argv, capsys, f"subsample must be >= 1, got {value}")
        assert not (tmp_path / "heatmap.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_trajectory_eta_not_positive(self, tmp_path, capsys, value):
        argv = ["trajectory", "--eta", value, "--steps", "3", "--n", "200",
                "--out", str(tmp_path)]
        self.assert_one_line_error(argv, capsys, "eta must be > 0")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_trajectory_margin_not_finite(self, tmp_path, capsys):
        argv = ["trajectory", "--margin", "inf", "--steps", "3", "--n", "200",
                "--out", str(tmp_path)]
        self.assert_one_line_error(argv, capsys, "margin must be finite and > 0")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"k = 3\n\xff\xfe = 1\n")
        argv = ["--config", str(cfg), "kstar"]
        self.assert_one_line_error(argv, capsys, f"{cfg}: not UTF-8 text")

    def test_input_not_utf8(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_bytes(
            b'{"prompt_id": "a", "pass1": 0.5, "grad": [1.0, 0.0]}\n'
            b'{"prompt_id": "\xe9", "pass1": 0.5, "grad": [0.0, 1.0]}\n'
        )
        argv = ["diagnose", "--input", str(log), "--out", str(tmp_path / "out")]
        self.assert_one_line_error(argv, capsys, "line 2")


class TestConsoleScript:
    def test_module_invocation(self, tmp_path):
        import passklab

        # the child imports the same passklab as this process, installed or not
        package_root = str(Path(passklab.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "passklab.cli", "kstar"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": package_root},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("k_star")
