"""Time passklab's layers in fresh processes, for one checkout or side by side.

    python3 tools/layers.py PROBE [CHECKOUT ...] [--cpu N]

step  a trajectory step's layers in us at the benchmark trajectory's first
      steps; step is the whole evaluate_state, timed on its own, and dots
      the step's ordered_dot calls, captured untimed and replayed on the
      step's own arrays
mc    wall ms and minor page faults of each step of the benchmark's mc loop in
      a fresh process; step 0 pays whatever a first call pays
io    the sample file round trip: export and import ms, file MB and tracemalloc
      peaks; a round trip that changes a bit or a byte stops the run

Each child imports passklab from CHECKOUT/src (default: this checkout), pins
itself to --cpu (default: the last CPU this process may use), runs at the
sizes of PROBES that its argv carries and prints {row: [values]} as JSON.  The
checkouts' order alternates each round, so a drift of the host's speed falls
on all.  A cell is the median of all values [lowest, highest child median];
each checkout (a column by position) ends the row with its change against [0].
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter as clock

TOOLS = Path(__file__).resolve().parent
# probe: (children per checkout, the sizes its child reads from its argv)
PROBES = {
    "step": (10, {"prompts": 6000, "k": 5, "steps": 100, "passes": 5}),
    "mc": (4, {"prompts": 6000, "draws": 64, "k": 5, "steps": 8}),
    "io": (3, {"shapes": [[1000, 32], [6000, 64]], "repeats": 7}),
}
CHILD = "import sys, layers; layers.child(*sys.argv[1:])"  # probe, CPU, sizes


def step_dots(theta, batch, k) -> list:
    """The arguments of each ordered_dot call of one evaluate_state, as copies."""
    import numpy as np
    from passklab import objectives, optimizer
    dot, calls = objectives.ordered_dot, []
    callers = [m for name, m in sys.modules.items()
               if name.startswith("passklab.") and getattr(m, "ordered_dot", None) is dot]

    def record(a, b):
        calls.append((np.array(a, dtype=float), np.array(b, dtype=float)))
        return dot(a, b)

    for module in callers:
        module.ordered_dot = record
    try:
        optimizer.evaluate_state(theta, batch, k)
    finally:
        for module in callers:
            module.ordered_dot = dot
    return calls


def step(prompts, k, steps, passes) -> dict:
    from passklab import (BanditConfig, GradientTable, SuccessProfile, conflict_report,
                          optimizer, run_trajectory, sample_prompts)
    from passklab.bandit import _success_and_grad
    from passklab.objectives import ordered_dot
    batch = sample_prompts(BanditConfig(seed=0), prompts)
    thetas = [r.theta for r in run_trajectory(k=k, steps=steps, batch=batch)[:steps]]
    names = ("policy", "split", "objectives", "table", "report", "step", "dots")
    rows = {name: [] for name in names}
    for theta in thetas * passes:
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
        marks = (t0, t1, t2, t3, t4, t5, clock())
        for values, start, end in zip(rows.values(), marks, marks[1:]):  # all but dots
            values.append((end - start) * 1e6)
        dots = step_dots(theta, batch, k)
        start = clock()
        for a, b in dots:
            ordered_dot(a, b)
        rows["dots"].append((clock() - start) * 1e6)
    return rows


def mc(prompts, draws, k, steps) -> dict:
    import numpy as np
    from passklab import (BanditConfig, SuccessProfile, empirical_profile, mc_grad_passk,
                          reference_theta, sample_actions, sample_prompts, success_probs,
                          unbiased_pass_at_k)
    batch = sample_prompts(BanditConfig(seed=0), prompts)
    theta = reference_theta()
    exact = SuccessProfile.uniform(success_probs(theta, batch), ids=batch.ids)
    rows = {}
    for i in range(steps):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = clock()
        samples = sample_actions(theta, batch, draws, i)
        empirical = empirical_profile(samples)
        mc_grad_passk(samples, empirical, k)
        mc_grad_passk(samples, exact, k)
        counts = np.rint(empirical.probs * draws).astype(np.int64)
        [unbiased_pass_at_k(draws, int(c), k) for c in counts]
        rows[f"step {i} ms"] = [(clock() - start) * 1e3]
        rows[f"step {i} faults"] = [resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults]
        del samples, empirical
    return rows


def io(shapes, repeats) -> dict:
    from passklab import BanditConfig, reference_theta, sample_actions, sample_prompts
    from passklab.mc import export_samples, import_samples

    def columns(s) -> tuple:  # the ids, and each array's dtype, shape and bytes
        arrays = (s.offsets, s.actions, s.rewards, s.scores)
        return s.ids, [(a.dtype, a.shape, a.tobytes()) for a in arrays]

    rows = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.jsonl"
        for prompts, draws in shapes:
            batch = sample_prompts(BanditConfig(seed=0), prompts)
            samples = sample_actions(reference_theta(), batch, draws, seed=0)
            name, first = f"{prompts}x{draws}", None
            export_ms = rows[f"{name} export ms"] = []
            import_ms = rows[f"{name} import ms"] = []
            for _ in range(repeats):
                start = clock()
                export_samples(samples, path)
                middle = clock()
                loaded = import_samples(path)
                export_ms.append((middle - start) * 1e3)
                import_ms.append((clock() - middle) * 1e3)
                data = path.read_bytes()
                assert first in (None, data), "export wrote different bytes"
                assert columns(loaded) == columns(samples), "import did not give back the set"
                first = data
            rows[f"{name} file MB"] = [len(first) / 1e6]
            for side, call in (("export", lambda: export_samples(samples, path)),
                               ("import", lambda: import_samples(path))):
                tracemalloc.start()  # the peak of one more call
                call()
                rows[f"{name} {side} peak MB"] = [tracemalloc.get_traced_memory()[1] / 1e6]
                tracemalloc.stop()
    return rows


def child(probe: str, cpu: str, sizes: str) -> None:
    """One child process: pin, run the probe at sizes (JSON), print its rows."""
    os.sched_setaffinity(0, {int(cpu)})
    print(json.dumps(globals()[probe](**json.loads(sizes))))


def run_child(probe: str, checkout: Path, cpu: int) -> dict:
    """{row: [values]} of one child on checkout's src/; a failed child stops the run."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, probe, str(cpu), json.dumps(PROBES[probe][1])],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (checkout / "src", TOOLS)))},
    )
    if proc.returncode:
        sys.exit(f"{probe} on {checkout}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("probe", choices=PROBES)
    parser.add_argument("checkouts", nargs="*", type=Path, default=[TOOLS.parent])
    parser.add_argument("--cpu", type=int, default=max(os.sched_getaffinity(0)))
    args = parser.parse_args(argv)
    runs, order = [{} for _ in args.checkouts], list(enumerate(args.checkouts))
    for r in range(PROBES[args.probe][0]):  # runs[i]: {row: [each child's values]}
        for i, checkout in order if r % 2 == 0 else order[::-1]:
            for row, values in run_child(args.probe, checkout, args.cpu).items():
                runs[i].setdefault(row, []).append(values)
    print(f"{args.probe} at {json.dumps(PROBES[args.probe][1])}, "
          f"{PROBES[args.probe][0]} children per checkout pinned to CPU {args.cpu}")
    print("\n".join(f"  [{i}] {checkout}" for i, checkout in enumerate(args.checkouts)))
    print(f"{'row':<22}" + "".join(f"{f'[{i}]':>28}" for i in range(len(runs)))
          + "".join(f"{f'[{i}]/[0]':>10}" for i in range(1, len(runs))))
    for row in runs[0]:
        medians = [statistics.median(v for values in run[row] for v in values) for run in runs]
        spans = [sorted(map(statistics.median, run[row])) for run in runs]
        cells = [f"{m:.2f} [{span[0]:.2f}, {span[-1]:.2f}]" for m, span in zip(medians, spans)]
        changes = [f"{m / medians[0] - 1:+.1%}" if medians[0] else "-" for m in medians[1:]]
        print(f"{row:<22}" + "".join(f"{c:>28}" for c in cells)
              + "".join(f"{c:>10}" for c in changes))


if __name__ == "__main__":
    main()
