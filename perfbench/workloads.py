"""The benchmark's workloads: inputs from a seed, the timed work, its checks.

Each workload is a closed loop with one caller.  ``setup`` builds the
inputs from the seed, ``run`` does the timed work through passklab's public
API and returns what the checks need, and ``check`` verifies those outputs
after the clock has stopped.  Checks compare with ``reference.json`` (same
size and seed) within a relative tolerance of 1e-9, so refactors that only
change the last bits of a sum still pass; for seeds without a reference only
the invariant checks run.

Why these three:
- trajectory: the paper's headline ascent at the CLI defaults; almost all
  time is in the objectives / interference / conflict / optimizer layers.
- gradlog: the synth-log -> diagnose pipeline at 20k records x d=256; almost
  all time is JSON and CSV I/O, and it runs the conflict layer once at d=256.
- mc: Monte Carlo sampling and estimation, the only workload that runs the
  mc layer and its JSONL sample format.
"""

import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np

from passklab import bandit, conflict, gradlog, mc, objectives, optimizer
from passklab.errors import PassKLabError
from passklab.interference import GradientTable
from passklab.objectives import SuccessProfile

RTOL = 1e-9

SIZES = {
    "full": {
        "trajectory": {"n": 6000, "steps": 100, "k": 5, "eta": 1.0},
        "gradlog": {"n": 20000, "d": 256, "k": 32, "delta1": 0.85, "delta2": 0.10},
        "mc": {"n": 6000, "draws": 64, "seeds": 8, "k": 5,
               "io_prompts": 1000, "io_draws": 32},
    },
    "smoke": {
        "trajectory": {"n": 500, "steps": 60, "k": 5, "eta": 1.0},
        "gradlog": {"n": 300, "d": 8, "k": 32, "delta1": 0.85, "delta2": 0.10},
        "mc": {"n": 200, "draws": 16, "seeds": 3, "k": 5,
               "io_prompts": 50, "io_draws": 8},
    },
}

PROBE_N = 10**5


class Watch:
    """Timed laps of one run; harness work between laps is not timed.

    Laps and ``steps``, the run's per-step latency samples, are (start, end)
    pairs of time.monotonic(), a clock all processes on the host share, so
    run.py can match them with its host speed samples.
    """

    def __init__(self):
        self.laps: list[tuple[float, float]] = []
        self.steps: list[tuple[float, float]] = []
        self._start = 0.0

    def start(self) -> None:
        self._start = time.monotonic()

    def stop(self) -> tuple[float, float]:
        lap = (self._start, time.monotonic())
        self.laps.append(lap)
        return lap

    @property
    def wall(self) -> float:
        return sum(end - start for start, end in self.laps)


class Checks:
    """Named pass/fail outcomes of one workload run."""

    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok, detail="") -> None:
        self.items.append((name, bool(ok), str(detail)))

    def close(self, name: str, got: float, want: float) -> None:
        ok = math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)
        self.add(name, ok, f"got {got!r}, reference {want!r}")

    def against(self, values: dict, ref: dict | None) -> None:
        """Compare each reference value: ints exactly, floats within RTOL."""
        if ref is None:
            return
        for key, want in ref.items():
            got = values[key]
            if isinstance(want, float):
                self.close(f"reference {key}", got, want)
            else:
                self.add(f"reference {key}", got == want, f"got {got!r}, reference {want!r}")


# ---------------------------------------------------------------- trajectory


def trajectory_setup(seed: int, size: dict) -> dict:
    return {"config": bandit.BanditConfig(seed=seed), "size": size}


def trajectory_run(inputs: dict, workdir: Path, watch: Watch) -> dict:
    size = inputs["size"]
    # run_trajectory looks evaluate_state up in its module on every step, so
    # stamping each call gives one latency sample per ascent step.
    inner = optimizer.evaluate_state
    stamps = []

    def stamped(*args, **kwargs):
        stamps.append(time.monotonic())
        return inner(*args, **kwargs)

    optimizer.evaluate_state = stamped
    try:
        watch.start()
        records = optimizer.run_trajectory(
            inputs["config"], k=size["k"], eta=size["eta"],
            steps=size["steps"], n=size["n"],
        )
        csv_path = workdir / "trajectory.csv"
        optimizer.trajectory_to_csv(records, csv_path)
        watch.stop()
    finally:
        optimizer.evaluate_state = inner
    if len(stamps) != size["steps"] + 1:
        raise RuntimeError(
            "step_ms assumes run_trajectory calls optimizer.evaluate_state once per "
            f"step and once more at the end ({size['steps'] + 1} calls), but it made "
            f"{len(stamps)}; the benchmark's step timing must follow that change first"
        )
    watch.steps = list(zip(stamps, stamps[1:]))
    return {"records": records, "csv": csv_path.read_text()}


def trajectory_check(out: dict, inputs: dict, ref: dict | None) -> tuple[Checks, dict]:
    checks = Checks()
    records = out["records"]
    steps = inputs["size"]["steps"]
    first, last = records[0], records[-1]
    checks.add("one record per step plus the final state", len(records) == steps + 1)
    checks.add("jk_pop rises over the run", last.jk_pop > first.jk_pop,
               f"{first.jk_pop!r} -> {last.jk_pop!r}")
    checks.add("j1_pop falls over the run", last.j1_pop < first.j1_pop,
               f"{first.j1_pop!r} -> {last.j1_pop!r}")
    lines = out["csv"].splitlines()
    checks.add("csv has a header and one line per record", len(lines) == steps + 2)
    last_csv = [float(v) for v in lines[-1].split(",")]
    checks.add("csv last line round-trips the final record",
               last_csv == [float(v) for v in last.row()])
    values = {f"final.{name}": float(v) for name, v in
              zip(optimizer.TRAJECTORY_COLUMNS, last.row())}
    values.update({f"first.{name}": float(v) for name, v in
                   zip(optimizer.TRAJECTORY_COLUMNS, first.row())})
    checks.against(values, ref)
    return checks, values


def trajectory_work(inputs: dict) -> int:
    return inputs["size"]["steps"]


# ------------------------------------------------------------------- gradlog


def gradlog_setup(seed: int, size: dict) -> dict:
    spec = gradlog.FilterSpec(delta1=size["delta1"], delta2=size["delta2"])
    return {"seed": seed, "size": size, "spec": spec}


def gradlog_run(inputs: dict, workdir: Path, watch: Watch) -> dict:
    size, k = inputs["size"], inputs["size"]["k"]
    watch.start()
    made = gradlog.make_synthetic_conflict_log(n=size["n"], d=size["d"], seed=inputs["seed"])
    log_path = workdir / "conflict_log.jsonl"
    gradlog.export_gradlog(made, log_path)
    loaded = gradlog.load_gradlog(log_path)
    filtered = gradlog.filter_by_difficulty(loaded, inputs["spec"])
    report = gradlog.diagnose(filtered, k)
    gradlog.report_to_json(report, workdir / "diagnose.json")
    gradlog.report_rows_to_csv(report, workdir / "prompts.csv")
    gradlog.scatter_export(filtered, k, workdir / "scatter.csv")
    # The documented external-log path into the conflict layer.
    ids = [rec.prompt_id for rec in filtered.records]
    table = GradientTable.uniform(np.stack([rec.grad for rec in filtered.records]), ids=ids)
    profile = SuccessProfile.uniform(np.array([rec.pass1 for rec in filtered.records]), ids=ids)
    creport = conflict.conflict_report(table, profile, k, constants=None)
    watch.steps.append(watch.stop())
    return {
        "made": made,
        "loaded": loaded,
        "filtered": filtered,
        "report": report,
        "conflict": creport,
        "files": {name: (workdir / name).read_text()
                  for name in ("diagnose.json", "prompts.csv", "scatter.csv")},
    }


def gradlog_check(out: dict, inputs: dict, ref: dict | None) -> tuple[Checks, dict]:
    checks = Checks()
    made, loaded, filtered, report = out["made"], out["loaded"], out["filtered"], out["report"]
    checks.add("the log round-trips through JSONL exactly",
               len(made) == len(loaded) and all(
                   a.prompt_id == b.prompt_id and a.pass1 == b.pass1
                   and a.label == b.label and np.array_equal(a.grad, b.grad)
                   for a, b in zip(made, loaded)))
    labels = [rec.label for rec in filtered.records]
    checks.add("n_hard counts the hard records",
               report.n_hard == labels.count("hard") == filtered.n_hard)
    checks.add("n_easy counts the easy records",
               report.n_easy == labels.count("easy") == filtered.n_easy)
    checks.add("unweighted agreement > 0 > weighted agreement",
               report.unweighted_mean_agreement > 0 > report.weighted_mean_agreement,
               f"{report.unweighted_mean_agreement!r}, {report.weighted_mean_agreement!r}")
    checks.close("diagnose and conflict_report agree on the inner product",
                 out["conflict"].inner_product, report.inner_product)
    checks.add("diagnose.json holds the report",
               json.loads(out["files"]["diagnose.json"]) == report.to_dict())
    n_rows = len(filtered.records) + 1
    for name in ("prompts.csv", "scatter.csv"):
        checks.add(f"{name} has a header and one line per record",
                   len(out["files"][name].splitlines()) == n_rows)
    values = {
        "n_hard": report.n_hard,
        "n_easy": report.n_easy,
        "unweighted_mean_agreement": report.unweighted_mean_agreement,
        "weighted_mean_agreement": report.weighted_mean_agreement,
        "mean_weight": report.mean_weight,
        "inner_product": report.inner_product,
        "conflict_inner_product": out["conflict"].inner_product,
        "delta_bound": out["conflict"].delta_bound,
    }
    checks.against(values, ref)
    return checks, values


def gradlog_work(inputs: dict) -> int:
    return inputs["size"]["n"]


# ------------------------------------------------------------------------ mc


def mc_setup(seed: int, size: dict) -> dict:
    batch = bandit.sample_prompts(bandit.BanditConfig(seed=seed), size["n"])
    m = size["io_prompts"]
    io_batch = bandit.PromptBatch(
        ids=batch.ids[:m], features=batch.features[:m],
        labels=batch.labels[:m], correct_actions=batch.correct_actions[:m],
    )
    theta = bandit.reference_theta()
    exact = SuccessProfile.uniform(bandit.success_probs(theta, batch), ids=batch.ids)
    # Per-prompt factor of the exact-profile estimator, for its standard error.
    coef = exact.mass * objectives.wk_array(exact.probs, size["k"])
    return {"seed": seed, "size": size, "batch": batch, "io_batch": io_batch,
            "theta": theta, "exact": exact, "coef": coef}


def _sample_seed(seed: int, i: int) -> int:
    return 1000 * seed + i


def mc_run(inputs: dict, workdir: Path, watch: Watch) -> dict:
    size, k, draws = inputs["size"], inputs["size"]["k"], inputs["size"]["draws"]
    theta, batch, exact = inputs["theta"], inputs["batch"], inputs["exact"]
    per_seed = []
    for i in range(size["seeds"]):
        watch.start()
        samples = mc.sample_actions(theta, batch, draws, _sample_seed(inputs["seed"], i))
        empirical = mc.empirical_profile(samples)
        g_emp = mc.mc_grad_passk(samples, empirical, k)
        g_exact = mc.mc_grad_passk(samples, exact, k)
        counts = np.rint(empirical.probs * draws).astype(np.int64)
        estimates = [objectives.unbiased_pass_at_k(draws, int(c), k) for c in counts]
        watch.steps.append(watch.stop())
        per_seed.append(_mc_seed_stats(samples, counts, g_emp, g_exact, estimates,
                                       inputs["coef"]))
        del samples
    path = workdir / "samples.jsonl"
    watch.start()
    io_samples = mc.sample_actions(theta, inputs["io_batch"], size["io_draws"],
                                   _sample_seed(inputs["seed"], size["seeds"]))
    mc.export_samples(io_samples, path)
    imported = mc.import_samples(path)
    watch.stop()
    return {"per_seed": per_seed, "io_samples": io_samples, "imported": imported}


def _mc_seed_stats(samples, counts, g_emp, g_exact, estimates, coef) -> dict:
    """Reduce one seed's samples to what the checks need, so the sample set
    is freed before the next seed instead of inflating peak RSS.  Untimed,
    and calls nothing in passklab, so it adds no span to a traced run."""
    rewards = np.stack([b.rewards for b in samples.blocks])
    rs = rewards[:, :, None] * np.stack([b.scores for b in samples.blocks])
    var = np.sum(coef[:, None] ** 2 * rs.var(axis=1, ddof=1), axis=0) / rewards.shape[1]
    return {
        "counts": counts,
        "counts_match": bool(np.array_equal(counts, rewards.sum(axis=1).astype(np.int64))),
        "g_emp": g_emp,
        "g_exact": g_exact,
        "var_exact": var,
        "estimates": np.asarray(estimates),
    }


def mc_check(out: dict, inputs: dict, ref: dict | None) -> tuple[Checks, dict]:
    checks = Checks()
    per_seed = out["per_seed"]
    size, k = inputs["size"], inputs["size"]["k"]
    checks.add("success counts equal the summed rewards",
               all(s["counts_match"] for s in per_seed))
    digest = hashlib.sha256()
    for s in per_seed:
        digest.update(s["counts"].astype("<i8").tobytes())

    truth = conflict.assemble_passk_gradient(
        GradientTable.uniform(bandit.grad_success_probs(inputs["theta"], inputs["batch"]),
                              ids=inputs["batch"].ids),
        inputs["exact"], k,
    )
    mean_exact = np.mean([s["g_exact"] for s in per_seed], axis=0)
    se = np.sqrt(np.mean([s["var_exact"] for s in per_seed], axis=0) / len(per_seed))
    checks.add("mean exact-profile estimate within 5 SE of assemble_passk_gradient",
               np.all(np.abs(mean_exact - truth) <= 5 * se),
               f"estimate {mean_exact.tolist()}, exact {truth.tolist()}, se {se.tolist()}")

    estimates = np.concatenate([s["estimates"] for s in per_seed])
    target = objectives.pass_at_k(inputs["exact"], k)
    bound = 5 * estimates.std(ddof=1) / math.sqrt(estimates.size)
    checks.add("mean unbiased pass@k estimate within 5 SE of the exact pass@k",
               abs(estimates.mean() - target) <= bound,
               f"estimate {estimates.mean()!r}, exact {target!r}")
    checks.add("empirical-profile estimates are finite",
               all(np.all(np.isfinite(s["g_emp"])) for s in per_seed))

    a, b = out["io_samples"], out["imported"]
    checks.add("the sample file round-trips every array exactly",
               a.ids == b.ids and all(
                   np.array_equal(x.actions, y.actions) and np.array_equal(x.rewards, y.rewards)
                   and np.array_equal(x.scores, y.scores) for x, y in zip(a.blocks, b.blocks)))
    checks.add("the sample file holds every draw",
               sum(blk.n for blk in b.blocks) == size["io_prompts"] * size["io_draws"])
    values = {
        "counts_sha256": digest.hexdigest(),
        "g_emp_mean.0": float(np.mean([s["g_emp"][0] for s in per_seed])),
        "g_emp_mean.1": float(np.mean([s["g_emp"][1] for s in per_seed])),
        "g_exact_mean.0": float(mean_exact[0]),
        "g_exact_mean.1": float(mean_exact[1]),
        "unbiased_mean": float(estimates.mean()),
    }
    checks.against(values, ref)
    return checks, values


def mc_work(inputs: dict) -> int:
    size = inputs["size"]
    return size["n"] * size["draws"] * size["seeds"] + size["io_prompts"] * size["io_draws"]


WORKLOADS = {
    "trajectory": (trajectory_setup, trajectory_run, trajectory_check, trajectory_work),
    "gradlog": (gradlog_setup, gradlog_run, gradlog_check, gradlog_work),
    "mc": (mc_setup, mc_run, mc_check, mc_work),
}


def scale_probe(seed: int) -> str | None:
    """One evaluate_state at n = 10**5 prompts; returns the error, if any."""
    batch = bandit.sample_prompts(bandit.BanditConfig(seed=seed), PROBE_N)
    try:
        optimizer.evaluate_state(bandit.reference_theta(), batch, 5)
    except (PassKLabError, MemoryError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
