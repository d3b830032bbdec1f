"""passklab benchmark: end-to-end and per-layer timings of three workloads.

    python3 perfbench/run.py --workload {trajectory,gradlog,mc} --seed N
                             --seconds S --trace {0,1} [--size {full,smoke}]

Run from the root of a passklab checkout: the workers import passklab from
the checkout's own ``src/``, so each commit measures its own code.  Stdlib
only; numpy is needed by passklab itself.

With ``--trace 0`` the harness starts one fresh worker interpreter per
repetition (see worker.py) until ``--seconds`` have passed, then reports
each end-to-end metric with every time scaled to one reference host speed
(see hostspeed.py).  Load is one closed-loop caller in one process, pinned
to one CPU beside the host speed sampler.  Each trajectory run
also attempts one evaluate_state at n = 10**5 (the scale probe), reported on
its own line and kept out of the metrics.

With ``--trace 1`` it runs untraced/traced pairs of the workload and reports
every per-layer metric named in BENCHMARK.json from the traced run, plus the
tracing overhead (traced minus untraced wall time).

Every line before the last is a human-readable report (metric, value, unit)
or the run record; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import Sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
WORKLOADS = ("trajectory", "gradlog", "mc")
# One fresh interpreter per set-up sample; set-up is reported as a median.
MIN_SETUPS = 7
# Every run must end well inside three minutes, whatever --seconds says.
RUN_BUDGET_S = 170.0
IMPORTTIME_RUNS = 3


class WorkerError(RuntimeError):
    pass


def worker(mode: str, workload: str, size: str, seed: int, deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, size, str(seed), str(WORKDIR)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} {workload} timed out") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def import_times(deadline: float) -> tuple[float, float]:
    """(import passklab.cli, scipy share) in seconds, from -X importtime."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    totals, scipys = [], []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import passklab.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        total, scipy = parse_importtime(proc.stderr)
        totals.append(total)
        scipys.append(scipy)
    return statistics.median(totals), statistics.median(scipys)


def parse_importtime(text: str) -> tuple[float, float]:
    """Cumulative seconds of passklab.cli, and of scipy imported from outside
    scipy (each top-most scipy module, so nested ones are not counted twice)."""
    rows = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((int(m.group(1)), len(m.group(2)), m.group(3)))
    total = scipy = 0
    for i, (cum, depth, name) in enumerate(rows):
        if name == "passklab.cli":
            total = cum
        if name.split(".")[0] == "scipy":
            # Children are printed before their parent: the parent is the next
            # row that is less indented.
            parent = next((r[2] for r in rows[i + 1:] if r[1] < depth), "")
            if parent.split(".")[0] != "scipy":
                scipy += cum
    return total / 1e6, scipy / 1e6


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99), by statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args, deadline: float, report: list) -> tuple[dict, int, int, bool, dict]:
    start = time.monotonic()
    reps, failures = [], 0
    with Sampler() as sampler:
        while True:
            try:
                reps.append(worker("rep", args.workload, args.size, args.seed, deadline))
            except WorkerError as exc:
                failures += 1
                print(exc, file=sys.stderr)
            if time.monotonic() - start >= args.seconds or failures > 2:
                break
        if not reps:
            raise WorkerError("no repetition completed")
        setups = [r["setup"] for r in reps]
        while len(setups) < MIN_SETUPS:
            setups.append(worker("setup", args.workload, args.size, args.seed, deadline)["setup"])
    speed = sampler.log

    # Every time is scaled to the sampler's reference host speed.
    steps = [speed.scaled([s]) for r in reps for s in r["steps"]]
    walls = [speed.scaled(r["laps"]) for r in reps]
    metrics = {
        "setup_s": statistics.median(speed.scaled([s]) for s in setups),
        "wall_s": statistics.mean(walls),
        "throughput": sum(r["work"] for r in reps) / sum(walls),
        "step_ms_p50": 1e3 * statistics.median(steps),
        "step_ms_p90": 1e3 * quantile(steps, 90),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    raw = statistics.mean(r["wall_s"] for r in reps)
    report.append(f"repetitions: {len(reps)}, set-up samples: {len(setups)}, "
                  f"steps: {len(steps)}, host speed samples: {len(speed.samples)}")
    report.append(f"unscaled wall_s = {raw!r} s (host speed factor {metrics['wall_s'] / raw:.3f})")
    failed = failures + sum(r["failed"] for r in reps)
    attempted = failures + len(reps)
    probe_attempted = probe_failed = 0
    if args.workload == "trajectory":
        t = time.monotonic()
        try:
            error = worker("probe", "trajectory", args.size, args.seed, deadline)["error"]
        except WorkerError as exc:
            error = str(exc)
        probe_attempted, probe_failed = 1, error is not None
        report.append(f"scale probe (evaluate_state, n = 10**5): "
                      f"{'failed: ' + error if error else 'ok'} "
                      f"({time.monotonic() - t:.2f} s, not in the metrics)")
    rate = (failed + probe_failed) / (attempted + probe_attempted)
    report.append(f"error_rate = {rate:.4f} ({failed + probe_failed} of "
                  f"{attempted + probe_attempted} operations failed, scale probe included)")
    _report_checks(reps, report)
    return metrics, attempted, failed, failed == 0, reps[0]["record"]


def traced(args, deadline: float, report: list) -> tuple[dict, int, int, bool, dict]:
    start = time.monotonic()
    pairs = []
    with Sampler() as sampler:
        while True:
            plain = worker("rep", args.workload, args.size, args.seed, deadline)
            pairs.append((plain, worker("traced", args.workload, args.size, args.seed, deadline)))
            if time.monotonic() - start >= args.seconds:
                break
    speed = sampler.log
    import_s, scipy_s = import_times(deadline)

    def med(fn):
        return statistics.median_low(fn(p, t) for p, t in pairs)

    metrics = {
        "cli.import_s": import_s,
        "cli.import_scipy_s": scipy_s,
        "trace.wall_s": med(lambda p, t: t["wall_s"]),
        "trace.untraced_wall_s": med(lambda p, t: p["wall_s"]),
        # The two runs of a pair are apart in time: compare them at the
        # reference host speed.
        "trace.overhead_s": med(lambda p, t: speed.scaled(t["laps"]) - speed.scaled(p["laps"])),
        "trace.unattributed_s": med(lambda p, t: t["unattributed_s"]),
        "trace.estimated_overhead_s": med(lambda p, t: t["estimated_overhead_s"]),
    }
    names = {n for _, t in pairs for n in t["layers"]}
    for name in sorted(names):
        for stat in ("calls", "total_s", "self_s"):
            metrics[f"{name}.{stat}"] = med(
                lambda p, t: t["layers"].get(name, {}).get(stat, 0))
    for name in ("bandit.success_probs", "interference.classify_interference"):
        metrics[f"{name}.calls_per_step"] = med(lambda p, t: t["calls_per_step"][name])
    for name in ("gradlog.export_gradlog", "gradlog.load_gradlog", "mc.export_samples",
                 "serialization.write_csv"):
        metrics[f"{name}.bytes"] = med(lambda p, t: t["bytes"].get(name, 0))
    for name in ("gradlog.export_gradlog", "gradlog.load_gradlog"):
        total = metrics.get(f"{name}.total_s", 0)
        metrics[f"{name}.mb_per_s"] = metrics[f"{name}.bytes"] / 1e6 / total if total else 0.0
    metrics["mc.sample_actions.samples"] = med(lambda p, t: t["samples"])

    report.append(f"traced pairs: {len(pairs)}")
    self_sum = metrics["trace.wall_s"] - metrics["trace.unattributed_s"]
    report.append(f"layers' self_s over the traced run: {self_sum:.4f} s of "
                  f"{metrics['trace.wall_s']:.4f} s traced wall "
                  f"(unattributed {metrics['trace.unattributed_s']:.4f} s, "
                  f"tracing overhead {metrics['trace.overhead_s']:.4f} s measured, "
                  f"{metrics['trace.estimated_overhead_s']:.4f} s estimated from the span count)")
    top = sorted(pairs[0][1]["layers"].items(), key=lambda kv: -kv[1]["self_s"])[:15]
    report.append("top layers by self time (first traced run, coverage pass included):")
    report.extend(f"  {name:<45} calls {s['calls']:>8}  self {s['self_s']:.4f} s"
                  for name, s in top)
    runs = [r for pair in pairs for r in pair]
    for plain, traced_run in pairs:
        same = plain["values"] == traced_run["values"]
        traced_run["checks"].append(["traced results identical to untraced", same, ""])
        traced_run["failed"] = traced_run["failed"] or not same
    # Listed in full: the last traced run, whose checks cover every phase.
    _report_checks(runs[::-1], report)
    failed = sum(r["failed"] for r in runs)
    return metrics, len(runs), failed, failed == 0, pairs[0][0]["record"]


def _report_checks(results: list, report: list) -> None:
    for name, ok, detail in results[0]["checks"]:
        report.append(f"check {'ok  ' if ok else 'FAIL'} {name}" + ("" if ok else f": {detail}"))
    for r in results[1:]:
        report.extend(f"check FAIL {name}: {detail}" for name, ok, detail in r["checks"] if not ok)


def git_sha() -> str | None:
    """HEAD of the checkout; None if it is not a git repository."""
    # The ceiling keeps git from searching the directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, same checks (for the self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "passklab" / "__init__.py").is_file():
        print(f"error: no passklab source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + RUN_BUDGET_S
    loadavg = os.getloadavg()[0]
    WORKDIR.mkdir(exist_ok=True)
    report: list[str] = []
    mode = traced if args.trace else end_to_end
    try:
        metrics, attempted, failed, correct, record = mode(args, deadline, report)
    except (RuntimeError, subprocess.SubprocessError, statistics.StatisticsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        size=args.size, nproc=os.cpu_count(), loadavg_1m=loadavg, git_sha=git_sha(),
    )
    for line in report:
        print(line)
    print("run record: " + json.dumps(record, sort_keys=True))
    out = {}
    for m in wanted:
        # A traced layer that no longer exists in the program reads 0.
        value = metrics.get(m["name"], 0) if args.trace else metrics[m["name"]]
        print(f"{m['name']} = {value!r} {m['unit']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
