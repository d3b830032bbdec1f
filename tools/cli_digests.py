"""Print the sha256 of what a fixed set of CLI invocations writes.

    python3 tools/cli_digests.py

Run from anywhere: one child process imports passklab from this checkout's
src/ and runs each invocation of RUNS in turn, in a temporary directory,
with output paths relative to it.  Each line is "<sha256>  <output>", where
output names the invocation and the file it wrote, or its stdout; the --help
text of passklab and of each command is hashed too, wrapped at a fixed
COLUMNS so that it reads the same on every terminal.  No CLI command reads
mc streams, so the last lines hash the arrays of sample_actions, at the 6000
prompts x 64 draws the benchmark's mc workload samples, at 6000 x 256, and
at 16389 x 64, which is mc.LANES + 5 prompts: two passes of the kernel.
Nothing is asserted here: the digests depend on numpy's SIMD level, so
compare the lines of two checkouts on one host, say before and after a
change that is meant to keep every bit.  tests/test_cli.py pins every
line, those of RUNS and of SAMPLES, at two SIMD levels through child_lines.
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


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
        lines.append(f"{_sha256(stdout.getvalue().encode())}  {label}: stdout")
        lines += [f"{_sha256(Path(name).read_bytes())}  {label}: {name}" for name in files]
    return lines


def _sample_lines() -> list:
    """The lines of SAMPLES: sample_actions' arrays at each shape."""
    from passklab import BanditConfig, reference_theta, sample_actions, sample_prompts

    lines = []
    for p, n in SAMPLES:
        batch = sample_prompts(BanditConfig(seed=0), p)
        ss = sample_actions(reference_theta(), batch, n, 0)
        for name in ("actions", "rewards", "scores", "offsets"):
            digest = _sha256(getattr(ss, name).tobytes())
            lines.append(f"{digest}  sample_actions {p} x {n}: {name}")
    return lines


def child_lines(cwd, env=None, samples=False) -> list:
    """The lines of one child process run in cwd, with os.environ plus env:
    those of RUNS, then with samples those of SAMPLES."""
    run = subprocess.run(
        [sys.executable, __file__, "--child", *(["--samples"] if samples else [])],
        cwd=cwd, capture_output=True, check=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80", **(env or {})),
    )
    return run.stdout.splitlines()


def main(argv) -> int:
    if argv[:1] == ["--child"]:
        lines = _run_lines() + (_sample_lines() if "--samples" in argv else [])
    else:
        with tempfile.TemporaryDirectory() as tmp:
            lines = child_lines(tmp, samples=True)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
