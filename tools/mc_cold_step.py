"""Time each mc step of a fresh process: wall ms and minor page faults.

    python3 tools/mc_cold_step.py

Each of RUNS child processes imports passklab from this checkout's src/,
builds a PROMPTS-prompt batch and its exact profile, then runs the step of
the benchmark's mc workload STEPS times: sample_actions at DRAWS draws,
empirical_profile, mc_grad_passk over the empirical and the exact profile,
and unbiased_pass_at_k for every prompt's success count.  Around each step
the child reads time.perf_counter and getrusage(RUSAGE_SELF).ru_minflt.
The table gives, per step, the median over the runs and its range; the
last line compares step 0, which pays whatever the first call of anything
pays (an import, a cache, fresh pages), with the median of the later steps.
Run it on a quiet host, or pinned (taskset -c 1 python3 ...), to compare
two checkouts.
"""

import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
RUNS, STEPS = 4, 8
PROMPTS, DRAWS, K = 6000, 64, 5

CHILD = """
import json, resource, sys, time
import numpy as np
from passklab import (BanditConfig, SuccessProfile, empirical_profile, mc_grad_passk,
                      reference_theta, sample_actions, sample_prompts, success_probs)
from passklab.objectives import unbiased_pass_at_k

prompts, draws, k, steps = map(int, sys.argv[1:])
batch = sample_prompts(BanditConfig(seed=0), prompts)
theta = reference_theta()
exact = SuccessProfile.uniform(success_probs(theta, batch), ids=batch.ids)
for i in range(steps):
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    samples = sample_actions(theta, batch, draws, i)
    empirical = empirical_profile(samples)
    mc_grad_passk(samples, empirical, k)
    mc_grad_passk(samples, exact, k)
    counts = np.rint(empirical.probs * draws).astype(np.int64)
    [unbiased_pass_at_k(draws, int(c), k) for c in counts]
    wall = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    print(json.dumps([wall * 1e3, faults]))
    del samples, empirical
"""


def run_child() -> list:
    """[(wall ms, minor faults)] of each step of one fresh process."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *map(str, (PROMPTS, DRAWS, K, STEPS))],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    if proc.returncode:
        raise RuntimeError(proc.stderr)
    return [tuple(json.loads(line)) for line in proc.stdout.splitlines()]


def spread(values) -> str:
    return f"{statistics.median(values):9.2f} [{min(values):.2f}, {max(values):.2f}]"


def main() -> None:
    runs = [run_child() for _ in range(RUNS)]
    print(f"mc step at {PROMPTS} prompts x {DRAWS} draws, k = {K}: "
          f"{RUNS} fresh processes x {STEPS} steps, median [min, max] over processes")
    print(f"{'step':>4}  {'wall ms':>24}  {'minor faults':>28}")
    for step, rows in enumerate(zip(*runs)):
        walls, faults = zip(*rows)
        print(f"{step:>4}  {spread(walls):>24}  {spread(faults):>28}")
    first = [run[0] for run in runs]
    warm = [row for run in runs for row in run[1:]]
    if warm:
        cold, hot = ([statistics.median(col) for col in zip(*rows)] for rows in (first, warm))
        ratio = [c / h if h else math.inf for c, h in zip(cold, hot)]
        print(f"step 0 / median of steps 1-{STEPS - 1}: "
              f"wall {ratio[0]:.2f}x, minor faults {ratio[1]:.2f}x")


if __name__ == "__main__":
    main()
