"""Time each layer of a trajectory step, for one checkout or to compare several.

    python3 tools/step_layers.py                     # this checkout
    python3 tools/step_layers.py OLD_CHECKOUT NEW_CHECKOUT

Each child process imports passklab from one checkout's src/, pins itself to
one CPU (--cpu, default the last one this process may use), builds the
benchmark's trajectory batch (BanditConfig(seed=0), 6000 prompts, k = 5) and
takes the parameters of its first STEPS = 100 steps from run_trajectory.  It
then times, PASSES = 5 times at each of those parameters, the layers of
optimizer.evaluate_state one after the other:

    policy      bandit._success_and_grad: the success probabilities and rows
    split       the step's SuccessProfile and its cached split (the
                transforms' log1p and 1 - p)
    objectives  optimizer._objective_values: j1 and jk, overall and per label
    table       the step's GradientTable
    report      conflict.conflict_report: w_k, the three routes, the certificate
    step        the whole evaluate_state, timed on its own

ROUNDS = 10 children run per checkout, alternating between checkouts, the
first checkout leading in even rounds, so a drift of the host's speed falls
on both.  The table gives each
layer's median over all steps of all children in microseconds, and, with two
or more checkouts, each one's change against the first.  perfbench cannot
give this split: its tracer wraps public functions only, and a step reaches
these layers through private paths.  A checkout must have the transform
split: a SuccessProfile with a split, and _objective_values taking it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

STEPS, PASSES, ROUNDS = 100, 5, 10
LAYERS = ("policy", "split", "objectives", "table", "report", "step")

CHILD = """
import json, os, sys, time
os.sched_setaffinity(0, {int(sys.argv[1])})
steps, passes = int(sys.argv[2]), int(sys.argv[3])
from passklab import BanditConfig, run_trajectory, sample_prompts
from passklab import optimizer
from passklab.bandit import _success_and_grad
from passklab.conflict import conflict_report
from passklab.interference import GradientTable
from passklab.objectives import SuccessProfile

k, clock = 5, time.perf_counter
batch = sample_prompts(BanditConfig(seed=0), 6000)
thetas = [r.theta for r in run_trajectory(k=k, steps=steps, batch=batch)[:steps]]
times = {name: [] for name in json.loads(sys.argv[4])}
for _ in range(passes):
    for theta in thetas:
        t0 = clock()
        p, grads = _success_and_grad(theta, batch)
        t1 = clock()
        profile = SuccessProfile._on_checked_mass(p, batch.mass, batch.ids)
        profile.split  # built on first read and kept
        t2 = clock()
        optimizer._objective_values(profile, k, batch)
        t3 = clock()
        table = GradientTable(grads, batch.ids)
        t4 = clock()
        conflict_report(table, profile, k, constants=batch.constants)
        t5 = clock()
        optimizer.evaluate_state(theta, batch, k)
        t6 = clock()
        marks = (t0, t1, t2, t3, t4, t5)
        for name, start, end in zip(times, marks, (*marks[1:], t6)):
            times[name].append(end - start)
print(json.dumps(times))
"""


def run_child(checkout: Path, cpu: int) -> dict:
    """{layer: [seconds per timed call]} of one child on checkout's src/."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(cpu), str(STEPS), str(PASSES), json.dumps(LAYERS)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(checkout / "src")},
    )
    if proc.returncode:
        raise RuntimeError(f"{checkout}: {proc.stderr}")
    return json.loads(proc.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("checkouts", nargs="*", type=Path,
                        default=[Path(__file__).resolve().parent.parent])
    parser.add_argument("--cpu", type=int, default=max(os.sched_getaffinity(0)))
    args = parser.parse_args()
    times = {c: {name: [] for name in LAYERS} for c in args.checkouts}
    for r in range(ROUNDS):
        order = args.checkouts if r % 2 == 0 else args.checkouts[::-1]
        for checkout in order:
            for name, values in run_child(checkout, args.cpu).items():
                times[checkout][name].extend(values)
    medians = {c: {n: statistics.median(v) * 1e6 for n, v in t.items()} for c, t in times.items()}
    print(f"trajectory step layers, median us over {ROUNDS} children x "
          f"{STEPS} steps x {PASSES} passes, pinned to CPU {args.cpu}")
    base = args.checkouts[0]
    for i, checkout in enumerate(args.checkouts):
        print(f"  [{i}] {checkout}")
    header = "".join(f"{f'[{i}]':>10}" for i in range(len(args.checkouts)))
    rel = "".join(f"{f'[{i}]/[0]':>10}" for i in range(1, len(args.checkouts)))
    print(f"{'layer':<12}{header}{rel}")
    for name in LAYERS:
        cells = "".join(f"{medians[c][name]:10.1f}" for c in args.checkouts)
        ratios = "".join(
            f"{medians[c][name] / medians[base][name] - 1:+10.1%}" for c in args.checkouts[1:]
        )
        print(f"{name:<12}{cells}{ratios}")


if __name__ == "__main__":
    main()
