"""End-to-end command tests: exit codes, determinism, manifests, precedence."""

import importlib.util
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import passklab
from passklab.cli import main
from passklab.objectives import MAX_K

# the child processes import the same passklab as this process, installed or not
PACKAGE_ROOT = str(Path(passklab.__file__).resolve().parent.parent)


# seeded command on a batch small enough for precedence checks
SMALL_HEATMAP = ["--n", "200", "--subsample", "20"]


def read(path):
    return path.read_bytes()


def strict_json(path):
    """Parse a JSON file, refusing NaN and Infinity."""

    def refuse(name):
        raise ValueError(f"{path} holds {name}")

    return json.loads(path.read_text(), parse_constant=refuse)


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

    def test_subsample_beyond_available_prompts_warns(self, tmp_path, capsys):
        out = tmp_path / "hm4"
        assert main(["heatmap", "--out", str(out), "--n", "20"]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: subsample 200 takes 120 easy and 80 hard prompts, "
            "and the batch has 16 easy and 4 hard\n"
        )
        lines = (out / "heatmap.csv").read_text().splitlines()
        assert len(lines) == 21

    def test_short_label_named(self, tmp_path, capsys):
        # this warned of "only 3 prompts" on a batch of 50 easy prompts
        out = tmp_path / "hm5"
        argv = ["heatmap", "--out", str(out), "--n", "50", "--hard-fraction", "0",
                "--subsample", "5"]
        assert main(argv) == 0
        assert capsys.readouterr().err == (
            "warning: subsample 5 takes 3 easy and 2 hard prompts, and the batch has 0 hard\n"
        )
        assert len((out / "heatmap.csv").read_text().splitlines()) == 4

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

    def test_infinite_threshold_certifies_no_k(self, capsys):
        assert main(["kstar", "--eps", "0", "--delta-sep", "5e-324"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "k_star = inf",
            "threshold is infinite; no finite k is certified",
        ]

    def test_threshold_whose_denominator_rounds_to_zero(self, capsys):
        # it printed a ZeroDivisionError traceback and exited 1
        eps, delta_sep = "0.23861592861522019", "0.2386159286152202"
        assert main(["kstar", "--eps", eps, "--delta-sep", delta_sep]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "k_star = inf",
            "threshold is infinite; no finite k is certified",
        ]

    def test_huge_derived_k_max_exits_two_at_once(self):
        # k_star is ~1e18 here; the sweep to 2 * ceil(k_star) must not start
        proc = subprocess.run(
            [sys.executable, "-m", "passklab.cli",
             "kstar", "--eps", "0.05", "--delta-sep", "0.05000000000000001"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
        )
        assert proc.returncode == 2
        assert proc.stdout.splitlines() == ["k_star = 9.8032840068270016e+17"]
        assert proc.stderr.startswith(f"error: k_max must be <= {MAX_K}, got ")
        assert proc.stderr.count("\n") == 1


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

        # the direct route's grad_k, scaled off the other two routes
        original = passklab.conflict._weighted_gradient
        monkeypatch.setattr(
            "passklab.conflict._weighted_gradient",
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

    def test_non_ascii_id_under_ascii_locale(self, tmp_path):
        # under the C locale, without UTF-8 mode, Python's default text
        # encoding is ASCII; every file passklab writes is UTF-8 regardless
        log = tmp_path / "log.jsonl"
        log.write_text(
            '{"prompt_id": "\\u00e9a", "pass1": 0.01, "grad": [1.0, 2.0]}\n'
            '{"prompt_id": "b", "pass1": 0.99, "grad": [-1.0, 0.5]}\n'
        )
        out = tmp_path / "d"
        base = {k: v for k, v in os.environ.items()
                if not k.startswith(("LC_", "LANG", "PYTHONUTF8", "PYTHONIOENCODING"))}
        proc = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "passklab.cli", "diagnose",
             "--input", str(log), "--out", str(out)],
            capture_output=True,
            text=True,
            env={**base, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
                 "PYTHONPATH": PACKAGE_ROOT},
        )
        assert proc.returncode == 0, proc.stderr
        for name in ("prompts.csv", "scatter.csv"):
            assert "éa," in (out / name).read_bytes().decode("utf-8"), name
        assert strict_json(out / "manifest.json")["command"] == "diagnose"

    def test_missing_input_exit_nonzero(self, tmp_path, capsys):
        rc = main(
            ["diagnose", "--input", str(tmp_path / "nope.jsonl"), "--out",
             str(tmp_path / "x")]
        )
        assert rc == 2
        capsys.readouterr()


class TestManifest:
    """Each file-writing command's manifest, pinned whole but for versions."""

    def manifest(self, out):
        written = {path.name: strict_json(path) for path in out.glob("*.json")}
        manifest = written["manifest.json"]
        assert manifest.pop("versions") == {
            "passklab": passklab.__version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        }
        return manifest

    def test_toy_demo(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert main(["toy-demo", "--k", "4", "--out", str(out)]) == 0
        capsys.readouterr()
        assert self.manifest(out) == {
            "command": "toy-demo",
            "parameters": {"eta": 5.0, "k": 4, "margin": 0.001},
            "inputs": [],
            "outputs": [str(out / "toy_demo.json")],
        }

    def test_heatmap(self, tmp_path, capsys):
        out = tmp_path / "hm"
        assert main(["heatmap", *SMALL_HEATMAP, "--out", str(out)]) == 0
        capsys.readouterr()
        assert self.manifest(out) == {
            "command": "heatmap",
            "parameters": {
                "hard_fraction": 0.3, "n": 200, "seed": 7, "separation": 0.2,
                "subsample": 20,
            },
            "inputs": [],
            "outputs": [str(out / "heatmap.csv")],
        }

    def test_trajectory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PASSK_SEED", "3")
        out = tmp_path / "tr"
        argv = ["trajectory", "--steps", "2", "--n", "100", "--eta", "0.5"]
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert self.manifest(out) == {
            "command": "trajectory",
            "parameters": {
                "eta": 0.5, "hard_fraction": 0.3, "k": 5, "margin": 1e-06,
                "n": 100, "seed": 3, "separation": 0.2, "steps": 2,
            },
            "inputs": [],
            "outputs": [str(out / "trajectory.csv")],
        }

    def test_diagnose(self, tmp_path, synth_log, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta2 = 0.2\n")
        out = tmp_path / "diag"
        argv = ["--config", str(cfg), "diagnose", "--input", str(synth_log),
                "--k", "8", "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        assert self.manifest(out) == {
            "command": "diagnose",
            "parameters": {
                "delta1": 0.85, "delta2": 0.2, "input": str(synth_log), "k": 8,
            },
            "inputs": [str(synth_log)],
            "outputs": [
                str(out / "diagnose.json"),
                str(out / "prompts.csv"),
                str(out / "scatter.csv"),
            ],
        }

    def test_diagnose_all_easy(self, tmp_path, capsys):
        from passklab.gradlog import GradLogRecord, export_gradlog

        log = tmp_path / "easy.jsonl"
        export_gradlog(
            [GradLogRecord(f"e{i}", 0.9 + 0.02 * i, [1.0, 0.5 * i]) for i in range(4)],
            log,
        )
        out = tmp_path / "diag"
        assert main(["diagnose", "--input", str(log), "--out", str(out)]) == 0
        assert "ratio inf:1" in capsys.readouterr().out
        assert strict_json(out / "diagnose.json")["ratio"] is None
        assert self.manifest(out) == {
            "command": "diagnose",
            "parameters": {"delta1": 0.85, "delta2": 0.1, "input": str(log), "k": 32},
            "inputs": [str(log)],
            "outputs": [
                str(out / "diagnose.json"),
                str(out / "prompts.csv"),
                str(out / "scatter.csv"),
            ],
        }


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

    def test_config_key_of_another_command_is_accepted(self, tmp_path, capsys):
        # so one file serves several commands: toy-demo takes no seed
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 3\nhard-fraction = 0.2\nk = 4\n")
        out = tmp_path / "demo"
        assert main(["--config", str(cfg), "toy-demo", "--out", str(out)]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["parameters"] == {"eta": 5.0, "k": 4, "margin": 1e-3}

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

    @pytest.mark.parametrize("key", ["bogus", "kk", "out", "input"])
    def test_config_key_that_no_command_declares(self, tmp_path, capsys, key):
        # each was ignored; out and input are flags that a file cannot set
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"k = 3\n{key} = 1\n")
        self.assert_one_line_error(
            ["--config", str(cfg), "toy-demo"], capsys,
            f"line 2: no command takes config key '{key}'",
        )

    @pytest.mark.parametrize(
        "text,key,line", [("k = 3\nk = 7", "k", 2), ("k-max = 3\n#\nk_max = 7", "k_max", 3)]
    )
    def test_repeated_config_key(self, tmp_path, capsys, text, key, line):
        # the last value was taken without a word; dashes equal underscores
        cfg = tmp_path / "dup.cfg"
        cfg.write_text(text + "\n")
        needle = f"dup.cfg: line {line}: config key '{key}' repeats line 1"
        self.assert_one_line_error(["--config", str(cfg), "kstar"], capsys, needle)

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["heatmap", *SMALL_HEATMAP],
            ["trajectory", "--steps", "1", "--n", "50"],
            ["synth-log"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_negative_seed(self, tmp_path, capsys, monkeypatch, argv, source):
        out = tmp_path / "out"
        if source == "flag":
            argv = [*argv, "--seed", "-1"]
        else:
            monkeypatch.setenv("PASSK_SEED", "-1")
        self.assert_one_line_error(
            [*argv, "--out", str(out)], capsys, "seed must be an integer >= 0, got -1"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "value,needle",
        [
            ("inf", "separation must be finite and > 0, got inf"),
            ("1e300", "square past the float range"),
        ],
    )
    def test_separation_past_the_float_range(self, tmp_path, capsys, value, needle):
        out = tmp_path / "out"
        argv = ["trajectory", "--separation", value, "--n", "50", "--steps", "1",
                "--out", str(out)]
        self.assert_one_line_error(argv, capsys, needle)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
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

    @pytest.mark.parametrize(
        "flags", [["--m", "inf"], ["--g2", "inf", "--delta-sep", "1.0"]]
    )
    def test_kstar_bound_not_finite(self, capsys, flags):
        self.assert_one_line_error(["kstar", *flags], capsys, "must be finite and > 0")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--q", "1e-30", "--m", "1e-300"],
            ["--m", "1e308", "--g2", "1e-308", "--q", "0.5"],
            ["--g2", "1e308", "--m", "1e-308", "--q", "0.5"],
        ],
    )
    def test_kstar_log_argument_outside_the_float_range(self, capsys, flags):
        # these died with a traceback or printed an infinite threshold
        self.assert_one_line_error(["kstar", *flags], capsys, "leaves the float range")

    @pytest.mark.parametrize(
        "flags", [["--q", "0.6", "--m", "1", "--g2", "0.5"], ["--q", "0.999999"]]
    )
    def test_kstar_parameters_no_population_has(self, capsys, flags):
        # these printed a negative k_star and certified conflict at k = 1
        self.assert_one_line_error(["kstar", *flags], capsys, "no population has")

    def test_heatmap_subsample_with_no_prompts(self, tmp_path, capsys):
        # this warned of 0 prompts and then named an empty gradient table
        argv = ["heatmap", "--n", "300", "--hard-fraction", "1", "--subsample", "1",
                "--out", str(tmp_path)]
        self.assert_one_line_error(
            argv, capsys, "--subsample 1 takes easy prompts, and the batch has none"
        )
        assert not (tmp_path / "heatmap.csv").exists()

    def test_diagnose_mass_sum_past_the_float_range(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_text("".join(
            json.dumps({"prompt_id": pid, "pass1": p1, "grad": [1.0, 0.5], "mass": 1e308})
            + "\n"
            for pid, p1 in (("a", 0.05), ("b", 0.9), ("c", 0.95))
        ))
        out = tmp_path / "out"
        argv = ["diagnose", "--input", str(log), "--out", str(out)]
        self.assert_one_line_error(argv, capsys, "record masses sum past the float range")
        assert not (out / "diagnose.json").exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"k = 3\n\xff\xfe = 1\n")
        argv = ["--config", str(cfg), "kstar"]
        self.assert_one_line_error(argv, capsys, f"{cfg}: line 2: not UTF-8 text")

    def test_input_not_utf8(self, tmp_path, capsys):
        log = tmp_path / "log.jsonl"
        log.write_bytes(
            b'{"prompt_id": "a", "pass1": 0.5, "grad": [1.0, 0.0]}\n'
            b'{"prompt_id": "\xe9", "pass1": 0.5, "grad": [0.0, 1.0]}\n'
        )
        argv = ["diagnose", "--input", str(log), "--out", str(tmp_path / "out")]
        self.assert_one_line_error(argv, capsys, "line 2")

    @pytest.mark.parametrize(
        "flags,needle",
        [
            (["--d", "-1"], "d must be >= 1, got -1"),
            (["--d", "0"], "d must be >= 1, got 0"),
            (["--hard-fraction", "nan"], "hard_fraction must lie in (0, 1), got nan"),
        ],
    )
    def test_synth_log_bad_arguments(self, tmp_path, capsys, flags, needle):
        out = tmp_path / "log.jsonl"
        argv = ["synth-log", *flags, "--out", str(out)]
        self.assert_one_line_error(argv, capsys, needle)
        assert not out.exists()

    @pytest.mark.parametrize("k", ["0", str(MAX_K + 1)])
    def test_diagnose_k_refused_before_the_log_is_read(
        self, tmp_path, synth_log, capsys, k
    ):
        # this loaded and filtered the log and printed its counts first
        out = tmp_path / "out"
        argv = ["diagnose", "--input", str(synth_log), "--k", k, "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: k must be in [1, {MAX_K}], got {k}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_diagnose_band_refused_before_the_log_is_read(self, tmp_path, capsys):
        # the log's line error won: line 2 lacks pass1
        log = tmp_path / "bad.jsonl"
        log.write_text(
            '{"prompt_id": "a", "pass1": 0.5, "grad": [1.0]}\n'
            '{"prompt_id": "b", "grad": [1.0]}\n'
        )
        out = tmp_path / "out"
        argv = ["diagnose", "--input", str(log), "--delta1", "0.1", "--delta2", "0.8",
                "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: require 0 < delta2 < delta1 < 1, got delta1=0.1 delta2=0.8\n"
        )
        assert captured.out == ""
        assert not out.exists()

    def test_kstar_k_max_negative(self, capsys):
        argv = ["kstar", "--k-max", "-1"]
        self.assert_one_line_error(argv, capsys, "k_max must be >= 0, got -1")

    def test_kstar_k_max_above_max_k(self, capsys):
        assert main(["kstar", "--k-max", str(MAX_K + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: k_max must be <= {MAX_K}, got {MAX_K + 1}\n"
        assert "conflict_bound" not in captured.out  # refused before the table header

    def test_synth_log_hard_fraction_leaves_a_group_empty(self, tmp_path, capsys):
        out = tmp_path / "log.jsonl"
        argv = ["synth-log", "--n", "10", "--hard-fraction", "0.04", "--out", str(out)]
        self.assert_one_line_error(argv, capsys, "hard_fraction must leave both groups nonempty")
        assert not out.exists()

    # (pass1, grad) records whose agreement products overflow: every mean
    # to nan, or to infinities of both signs
    OVERFLOW_LOGS = {
        "nan": [(0.9, [1e200, 1e200]), (0.95, [1e200, 1e200]),
                (0.99, [1e200, 1e200]), (0.02, [-3e200, 1e200]),
                (0.05, [-3e200, 1e200])],
        "inf - inf": [(0.9, [1e200]), (0.95, [1e200]), (0.05, [-1e200])],
    }

    @pytest.mark.parametrize("name", sorted(OVERFLOW_LOGS))
    def test_diagnose_overflowing_log(self, tmp_path, capsys, name):
        from passklab.gradlog import GradLogRecord, export_gradlog

        log, out = tmp_path / "log.jsonl", tmp_path / "out"
        records = self.OVERFLOW_LOGS[name]
        export_gradlog(
            [GradLogRecord(f"p{i}", p1, g) for i, (p1, g) in enumerate(records)], log
        )
        argv = ["diagnose", "--input", str(log), "--out", str(out)]
        self.assert_one_line_error(argv, capsys, "too large")
        assert not (out / "diagnose.json").exists()


class TestPinnedOutputs:
    """Every line of tools/cli_digests.py, byte for byte: the 15 files and
    stdouts and 7 --help texts of its RUNS, the 12 arrays of its SAMPLES
    (sample_actions at three shapes) and its 2 library lines, from one child
    per environment of its ENVIRONMENTS (two SIMD levels, and the top one
    under each OpenBLAS setting), each against the set of the level that the
    child's last line says it dispatched."""

    # "<label>: <output>": sha256, recorded with numpy 2.4 and Python 3.11.
    # numpy's exp and log bits differ when X86_V4 (AVX-512) is not dispatched,
    # so those of 13 outputs are pinned at both levels; on a host without
    # X86_V4 every child checks the lower set, and the test says so.
    X86_V4 = {
        "trajectory: stdout":
            "5d04365aa62b352de6ae8c212e571289297d96bcec6f0436a13b803b33bedefd",
        "trajectory: traj/trajectory.csv":
            "fb51131545e60860064d958356a1dde820f404779321e7f0a4eceb842fa86d80",
        "trajectory --k 10 --steps 25: stdout":
            "9d88aaf0a35c9451f941bbdb28a2e033045d50fa1e5f4daf287ed605794331a8",
        "trajectory --k 10 --steps 25: traj10/trajectory.csv":
            "73337ad1642afce41bd440d5757e5b673fe7b202087008b4278e76197d8ceb9f",
        "toy-demo: stdout":
            "62cdc4ca73dd31bcbfb31a1270c5a70f5502bb87dfb041726daa7cd81421fd0c",
        "toy-demo: demo/toy_demo.json":
            "42c2e3f20a9b292d076da40f65d651dfd71e46a3b119c5f58c4d46cd8a3a9dd8",
        "synth-log --n 2000 --d 64: stdout":
            "ab0d5c1bbf2d5ba59bb9921ce5e9247a2ab6a24d514f200e401fd8c18317d78e",
        "synth-log --n 2000 --d 64: log.jsonl":
            "63976e4cdf00d9ab7c856f33f78ab61a90447b25a9512bf6e834d52958cfa797",
        "diagnose --k 32: stdout":
            "79193f42f27161b53be7e3dc0e5a7b001179287d8236fa2b436f9c800992c8b9",
        "diagnose --k 32: diag/diagnose.json":
            "eb22d131f1258f77fc8ea104f1b38e5a1eb45266d47cf025ee0994a9877aba0d",
        "diagnose --k 32: diag/prompts.csv":
            "ac4794a1f1a476fc633304b8e2ec482d0e485863e405cd678e2067cd634877d6",
        "diagnose --k 32: diag/scatter.csv":
            "727ce60ca8b0a495653c6c189556787374faf0be43684a660a4a606f428b03c1",
        "heatmap: stdout":
            "04cc05e3ee1dd4bcf5025714acf42d92556e05de6e34160083ed5dca58fb0221",
        "heatmap: hm/heatmap.csv":
            "f1c7eff2bfcdc4594b0af219f6961757014f1549e156eba2e5632cc2cfec0ea5",
        "kstar: stdout":
            "56816219544f7c8e93cb3ece7858a36b149837abea980ec19f54543dd015bcd9",
        "--help: stdout":
            "bb696e1162d6f7bfc9991e4b3511d721484a95e65839d6d0fd86a719202d4f92",
        "toy-demo --help: stdout":
            "b4f8ab8a88944196c2ba84de5491a910e1851666a1f604f8ca0d34c490c37779",
        "heatmap --help: stdout":
            "2032d66c34d559c5cdc0327ec8a77b3f922c9a49fa5bab93ccaa47a3b951f9dd",
        "trajectory --help: stdout":
            "6bf281f78c202b8c1305abbac841c21cf68f293fbfc797f0e885c9e1e4f94a3e",
        "kstar --help: stdout":
            "06e1f61e8543dd6efb62dd189188be3e107ca913f8393698b893ca22c7df1c04",
        "diagnose --help: stdout":
            "64f1f937a7ae23adc46c8fd8a6a6ca21645f5894b4520d45fe5b153d9cd2cf5c",
        "synth-log --help: stdout":
            "c87a77d80d71cd3cd09b535fed59cda36f5080677965dfa1ce66cea2b57e89a9",
        "sample_actions 6000 x 64: actions":
            "57651f0f5fad326678a2329164707dab0dc423f85f36fca241b14c4b19692ff0",
        "sample_actions 6000 x 64: rewards":
            "913dd53826a9d92db976b01a18ae62d9fadfd98ec9a7b967f560a218cdde2f33",
        "sample_actions 6000 x 64: scores":
            "12d616e2ae30305bad796f22e6acb40e636db69c1a0ea7a3248507fdedad730f",
        "sample_actions 6000 x 64: offsets":
            "4e035f8b7d3fdbc55b9f364971716f05e122ed4f9d7e3b9a520e1f54eba133e4",
        "sample_actions 6000 x 256: actions":
            "8fcd2097e4e53e06ad0995fd58709cb24ca2a7f8f2c21d4cce0d13ae7cdfb4f9",
        "sample_actions 6000 x 256: rewards":
            "ba1402bb6f8e2144a6501429242c29b54b91defeb3a4c94e8d1743383d6175bc",
        "sample_actions 6000 x 256: scores":
            "888c5ab3cb5305d89f50e380ccf2dba5fa19b2e9250e0a85f22bef1daff95894",
        "sample_actions 6000 x 256: offsets":
            "e4246ea2a2722b31b56690ec41e58c21ac6520d14cffbb35d764216251d12ed2",
        "sample_actions 16389 x 64: actions":
            "6e1eddeb3d8550af81972bef33d46cd7a504e43a81dfd231a53e2a8b024a5529",
        "sample_actions 16389 x 64: rewards":
            "e316a545e184f3c9b306d74a2171bfca502587a9b8b9fe5fea2284827ee2a3da",
        "sample_actions 16389 x 64: scores":
            "ba75a116d7372cd0bee174f277532507d7145e76da9acd7478d000fb0c5dd1f1",
        "sample_actions 16389 x 64: offsets":
            "32847375621369fde4d3f81679a72414916d076902ce248a8216ee040e03439c",
        "conflict_report 700 x 64, k = 7: routes and grad_k":
            "23bed1f8a12830885db690ba9132e28bf4d6ee11b4a0b8ec46074728cc19303a",
        "_success_and_grad 600 prompts: p and grads":
            "a3faf2ff7013ecc2edc6c3765ce04e283336324f19af124b2094260c0954b7f0",
    }
    LOWER = dict(
        X86_V4,
        **{
            "trajectory: traj/trajectory.csv":
                "dcf2ae45a1e43503dd807e9422efcf040e64b57e2049e1c15660567156683d6e",
            "trajectory --k 10 --steps 25: traj10/trajectory.csv":
                "cda31d1a9671d6f996ecbcea6060f212f317b7920ffce10d542bd8db7bdc890f",
            "toy-demo: stdout":
                "5952158055735aaa4638335ba1e259402a15a954527b9589cbe3e2116b6e93c0",
            "toy-demo: demo/toy_demo.json":
                "793a181783febd7e65a3c91efad6621e8268c78ff22c9ca97ef00dab6130b53e",
            "diagnose --k 32: diag/prompts.csv":
                "af0765aba97be7b6de0215f63a38c13e768996b5a8ac648a13608bd278072a89",
            "diagnose --k 32: diag/scatter.csv":
                "4d6f203f95f9f5ec00b68ec11cdacf170d7693789ecdca68022bbe47e5967b28",
            "heatmap: hm/heatmap.csv":
                "7811a4abd2c6ab4998340eb70eb1e720bc462948383f04c0f5722a5e0bdf55d4",
            "kstar: stdout":
                "d0c75fa60b3fdbab0418d6ad978b5bc49e963c7ba635bdd4afd1758f5b2c6f5f",
            "sample_actions 6000 x 64: scores":
                "d1d25f6047a6b089911df9cf2d3c2b3dc4de5d65cc27e882553169f51509a31d",
            "sample_actions 6000 x 256: scores":
                "94da53d52346d59909407793c022071e181e7f98dc6593904a279d6a5e696ee0",
            "sample_actions 16389 x 64: scores":
                "4dd0377988a2010e5ed1657d98423d708fce3fedafb3ce7dfe5de28867de46f4",
            "conflict_report 700 x 64, k = 7: routes and grad_k":
                "5cfaf36560efa9cc8ff52add000ad2580bbb9dd6ed77a1dcae08459f028e2121",
            "_success_and_grad 600 prompts: p and grads":
                "e45a56424462efcdccfa9df88617dadbc418f8d1b796cf465064ad26db384efa",
        },
    )

    def test_outputs_are_pinned(self):
        path = Path(__file__).resolve().parent.parent / "tools" / "cli_digests.py"
        spec = importlib.util.spec_from_file_location("cli_digests", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        envs = tool.ENVIRONMENTS
        with ThreadPoolExecutor(2) as pool:  # two children at a time
            runs = dict(zip(envs, pool.map(tool.child_lines, envs.values())))
        # each child's own level: this process's may differ, since the
        # children drop NPY_DISABLE_CPU_FEATURES from the suite's environment
        levels = {label: lines.pop() for label, lines in runs.items()}
        assert levels["lower level"] == "X86_V4: not dispatched"
        if "X86_V4: dispatched" not in levels.values():
            print("no X86_V4 on this host: every environment is checked against the lower set")
        for label, lines in runs.items():
            pinned = self.X86_V4 if levels[label] == "X86_V4: dispatched" else self.LOWER
            digests = dict(line.split("  ", 1)[::-1] for line in lines)
            assert len(lines) == len(pinned) == 36
            differ = [name for name in pinned if digests.get(name) != pinned[name]]
            assert digests.keys() == pinned.keys() and not differ, (label, differ)


class TestConsoleScript:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "passklab.cli", "kstar"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("k_star")
