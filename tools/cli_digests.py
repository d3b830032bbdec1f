"""Print the sha256 of what a fixed set of CLI invocations writes.

    python3 tools/cli_digests.py

Run from anywhere: the commands import passklab from this checkout's
src/ and run in a temporary directory, with output paths relative to it.
Each line is "<sha256>  <output>", where output names the invocation and
the file it wrote, or its stdout; the --help text of passklab and of each
command is hashed too, wrapped at a fixed COLUMNS so that it reads the
same on every terminal.  No CLI command reads mc streams, so the last
lines hash the arrays of sample_actions, at the 6000 prompts x 64 draws
the benchmark's mc workload samples and at 6000 x 256, from one more
child.  Nothing is asserted: the digests depend on numpy's SIMD level,
so compare the lines of two checkouts on one host, say before and after
a change that is meant to keep every bit.
"""

import hashlib
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

# (prompts, draws) of each sample_actions call, and the child that hashes them
SAMPLES = [(6000, 64), (6000, 256)]
SAMPLE_CHILD = """
import hashlib, sys
from passklab import BanditConfig, reference_theta, sample_actions, sample_prompts
for arg in sys.argv[1:]:
    p, n = map(int, arg.split("x"))
    ss = sample_actions(reference_theta(), sample_prompts(BanditConfig(seed=0), p), n, 0)
    for name in ("actions", "rewards", "scores", "offsets"):
        digest = hashlib.sha256(getattr(ss, name).tobytes()).hexdigest()
        print(f"{digest}  sample_actions {p} x {n}: {name}")
"""


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    cli = "import sys; from passklab.cli import main; sys.exit(main(sys.argv[1:]))"
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv, files in RUNS:
            run = subprocess.run(
                [sys.executable, "-c", cli, *argv],
                cwd=tmp, env=env, capture_output=True, check=True,
            )
            print(f"{hashlib.sha256(run.stdout).hexdigest()}  {label}: stdout")
            for name in files:
                digest = hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest()
                print(f"{digest}  {label}: {name}")
        shapes = [f"{p}x{n}" for p, n in SAMPLES]
        run = subprocess.run(
            [sys.executable, "-c", SAMPLE_CHILD, *shapes],
            cwd=tmp, env=env, capture_output=True, check=True, text=True,
        )
        print(run.stdout, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
