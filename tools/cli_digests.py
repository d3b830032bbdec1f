"""Print the sha256 of what a fixed set of CLI invocations writes, in each
environment of ENVIRONMENTS.

    python3 tools/cli_digests.py

Run from anywhere: per environment, one child process imports passklab from
this checkout's src/ and runs each invocation of RUNS in turn, in a
temporary directory.  Each line is "<sha256>  <output>", where output names
the invocation and the file it wrote, or its stdout; --help texts are
wrapped at a fixed COLUMNS.  No CLI command reads mc streams, so the SAMPLES
lines hash sample_actions' arrays: at the benchmark mc workload's 6000 x 64,
at 6000 x 256, and at 16389 x 64 (mc.LANES + 5 prompts: two kernel passes).
The last two lines hash library results that no command writes:
conflict_report's three routes and grad_k, and one policy evaluation.  The
digests depend on numpy's SIMD level, so compare the lines of two checkouts
on one host.  tests/test_cli.py pins every line in every environment, and
after a change that is meant to move bits, this command prints the new pins.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (label, argv, files it writes); each file is hashed, and so is stdout
RUNS = [
    ("trajectory", ["trajectory", "--out", "traj"], ["traj/trajectory.csv"]),
    (
        "trajectory --k 10 --steps 25",
        ["trajectory", "--k", "10", "--steps", "25", "--out", "traj10"],
        ["traj10/trajectory.csv"],
    ),
    ("toy-demo", ["toy-demo", "--out", "demo"], ["demo/toy_demo.json"]),
    (
        "synth-log --n 2000 --d 64",
        ["synth-log", "--n", "2000", "--d", "64", "--out", "log.jsonl"],
        ["log.jsonl"],
    ),
    (
        "diagnose --k 32",
        ["diagnose", "--input", "log.jsonl", "--k", "32", "--out", "diag"],
        ["diag/diagnose.json", "diag/prompts.csv", "diag/scatter.csv"],
    ),
    ("heatmap", ["heatmap", "--out", "hm"], ["hm/heatmap.csv"]),
    ("kstar", ["kstar"], []),
    ("--help", ["--help"], []),
]
COMMANDS = ["toy-demo", "heatmap", "trajectory", "kstar", "diagnose", "synth-log"]
RUNS += [(f"{name} --help", [name, "--help"], []) for name in COMMANDS]

# (prompts, draws) of each sample_actions call; 16389 = mc.LANES + 5, kept
# as a number so that checkouts with another LANES hash the same shape
SAMPLES = [(6000, 64), (6000, 256), (16389, 64)]

# label: settings of each child's environment, which starts from os.environ
# less every OPENBLAS_* and NPY_DISABLE_CPU_FEATURES; the top level is the
# highest SIMD level numpy dispatches on the host, the lower one lacks X86_V4
ENVIRONMENTS = {
    "top level": {},
    "lower level": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    "top level, OPENBLAS_CORETYPE=Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "top level, OPENBLAS_NUM_THREADS=1": {"OPENBLAS_NUM_THREADS": "1"},
}


def _line(label: str, data: bytes) -> str:
    return f"{hashlib.sha256(data).hexdigest()}  {label}"


def _run_lines() -> list:
    """The lines of RUNS, run in this process in the current directory."""
    from passklab.cli import main

    lines = []
    for label, argv, files in RUNS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            try:
                code = main(argv)
            except SystemExit as exc:  # --help
                code = exc.code
        if code:
            raise RuntimeError(f"{label} exited {code}")
        lines.append(_line(f"{label}: stdout", stdout.getvalue().encode()))
        lines += [_line(f"{label}: {name}", Path(name).read_bytes()) for name in files]
    return lines


def _library_lines() -> list:
    """The lines of SAMPLES, sample_actions' arrays at each shape; then of
    conflict_report's three routes and grad_k over a seeded 700 x 64 uniform
    table at k = 7, and of the policy's p and grads on 600 prompts."""
    import numpy as np
    from passklab import BanditConfig, GradientTable, SuccessProfile, conflict_report
    from passklab import reference_theta, sample_actions, sample_prompts
    from passklab.bandit import _success_and_grad

    lines = []
    for p, n in SAMPLES:
        batch = sample_prompts(BanditConfig(seed=0), p)
        ss = sample_actions(reference_theta(), batch, n, 0)
        for name in ("actions", "rewards", "scores", "offsets"):
            lines.append(_line(f"sample_actions {p} x {n}: {name}", getattr(ss, name).tobytes()))
    rng = np.random.default_rng(5)
    table = GradientTable.uniform(rng.normal(size=(700, 64)))
    r = conflict_report(table, SuccessProfile.uniform(rng.random(700)), 7)
    out = np.array([r.inner_product, r.weighted_form, r.cov_form, *r.grad_k]).tobytes()
    lines.append(_line("conflict_report 700 x 64, k = 7: routes and grad_k", out))
    p, grads = _success_and_grad(np.array([-1.2, -2.9]), sample_prompts(BanditConfig(), 600))
    out = p.tobytes() + grads.tobytes()
    return lines + [_line("_success_and_grad 600 prompts: p and grads", out)]


def child_lines(settings) -> list:
    """The lines of one child process, run in a temporary directory in the
    environment with these settings."""
    drop = ("OPENBLAS_", "NPY_DISABLE_CPU_FEATURES")
    env = {k: v for k, v in os.environ.items() if not k.startswith(drop)}
    with tempfile.TemporaryDirectory() as tmp:
        run = subprocess.run(
            [sys.executable, __file__, "--child"],
            cwd=tmp, capture_output=True, check=True, text=True,
            env=dict(env, PYTHONPATH=str(SRC), COLUMNS="80", **settings),
        )
    return run.stdout.splitlines()


def main(argv) -> int:
    if argv == ["--child"]:
        lines = _run_lines() + _library_lines()
    else:
        lines = []
        for label, settings in ENVIRONMENTS.items():
            lines += [f"# {label}", *child_lines(settings)]
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
