"""Acceptance suite: the package's exit criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from passklab import (
    BanditConfig,
    SuccessProfile,
    ascent_step,
    conflict_bound,
    conflict_report,
    evaluate_state,
    fk,
    grad_success_probs,
    k_star,
    max_safe_step,
    overlap_pair,
    pass_at_k,
    pass_at_k_bounds,
    policy_regularity_constants,
    run_trajectory,
    sample_prompts,
    smoothness_constants,
    success_probs,
    unbiased_pass_at_k,
    wk,
)
from passklab.bandit import EASY, HARD
from passklab.cli import main as cli_main
from passklab.conflict import assemble_passk_gradient
from passklab.gradlog import (
    FilterSpec,
    diagnose,
    export_gradlog,
    filter_by_difficulty,
    make_synthetic_conflict_log,
)
from passklab.interference import GradientTable
from passklab.objectives import ordered_dot, wk_array

from oracles import batch_objective, grad_success_prob, success_prob


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed <= budget_s else "FAIL"
    print(f"{status} criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed <= budget_s, f"criterion {number} exceeded {budget_s}s budget"


def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def test_criterion_1_two_prompt_golden_reproduction():
    with criterion(1, "two-prompt overlap golden numbers", 1.0):
        batch, theta = overlap_pair()
        psi_e, psi_h = batch.features
        assert cosine(psi_e, psi_h) == pytest.approx(0.98, abs=0.005)

        g = grad_success_probs(theta, batch)
        assert float(g[0] @ g[1]) == pytest.approx(-0.01, abs=0.005)
        assert cosine(g[0], g[1]) == pytest.approx(-0.98, abs=0.01)

        p = success_probs(theta, batch)
        w_e = wk(float(p[0]), 10)
        w_h = wk(float(p[1]), 10)
        assert w_h == pytest.approx(3.88, abs=0.05)
        assert w_e < 1e-6

        table = GradientTable.uniform(g, ids=batch.ids)
        profile = SuccessProfile.uniform(p, ids=batch.ids)
        g10 = assemble_passk_gradient(table, profile, 10)
        assert cosine(table.mean_grad, g10) == pytest.approx(-0.77, abs=0.05)

        before = evaluate_state(theta, batch, 10)
        assert before.j1_pop == pytest.approx(0.48, abs=0.01)
        assert before.jk_pop == pytest.approx(0.83, abs=0.01)
        theta_plus, _ = ascent_step(theta, batch, 10, 5.0)
        after = evaluate_state(theta_plus, batch, 10)
        assert after.j1_pop == pytest.approx(0.46, abs=0.01)
        assert after.jk_pop == pytest.approx(0.95, abs=0.01)


def test_criterion_2_inner_product_identity_routes():
    with criterion(2, "inner-product identity on 1000 random tables", 10.0):
        rng = np.random.default_rng(202)
        for _ in range(1000):
            n = int(rng.integers(2, 101))
            d = int(rng.integers(1, 17))
            grads = rng.normal(size=(n, d))
            raw = rng.random(n) + 1e-3
            mass = raw / raw.sum()
            ids = tuple(str(i) for i in range(n))
            table = GradientTable(grads=grads, mass=mass, ids=ids)
            profile = SuccessProfile(probs=rng.random(n), mass=mass, ids=ids)
            k = int(rng.integers(1, 33))
            r = conflict_report(table, profile, k)  # self-checks all routes
            scores = np.abs(table.grads @ table.mean_grad)
            scale = max(
                abs(r.inner_product),
                abs(r.weighted_form),
                abs(r.cov_form),
                ordered_dot(mass, wk_array(profile.probs, k) * scores),
                1e-300,
            )
            assert abs(r.inner_product - r.weighted_form) <= 1e-10 * scale
            assert abs(r.inner_product - r.cov_form) <= 1e-10 * scale
            conflict = r.inner_product < 0
            assert conflict == (r.weighted_form < 0)
            assert conflict == (r.covariance < -r.mean_weight * r.norm_sq_mean_grad)


def test_criterion_3_gradient_correctness():
    with criterion(3, "closed-form gradients vs finite differences", 5.0):
        rng = np.random.default_rng(303)
        h = 1e-6
        for _ in range(100):
            theta = rng.uniform(-2, 2, size=2)
            s = float(np.clip(rng.normal(), -3, 3))
            label = EASY if rng.random() < 0.5 else HARD
            psi = np.array([1.0, s])
            g = grad_success_prob(theta, psi, label)
            fd = np.empty(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd[j] = (
                    success_prob(theta + e, psi, label)
                    - success_prob(theta - e, psi, label)
                ) / (2 * h)
            assert np.linalg.norm(fd - g) <= 1e-6 * np.linalg.norm(g)

        # assembled k-attempt population gradient vs objective differences
        cfg = BanditConfig(seed=30)
        batch = sample_prompts(cfg, 200)
        for k in (2, 5, 10):
            for _ in range(5):
                theta = rng.uniform(-2, 2, size=2)
                table = GradientTable.uniform(
                    grad_success_probs(theta, batch), ids=batch.ids
                )
                profile = SuccessProfile.uniform(
                    success_probs(theta, batch), ids=batch.ids
                )
                grad_k = assemble_passk_gradient(table, profile, k)
                fd = np.empty(2)
                for j in range(2):
                    e = np.zeros(2)
                    e[j] = h
                    fd[j] = (
                        batch_objective(theta + e, batch, k)
                        - batch_objective(theta - e, batch, k)
                    ) / (2 * h)
                assert np.linalg.norm(fd - grad_k) <= 1e-5 * np.linalg.norm(grad_k)


def test_criterion_4_objective_laws():
    with criterion(4, "monotonicity in k and the Jensen sandwich", 10.0):
        rng = np.random.default_rng(404)
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            raw = rng.random(n) + 1e-3
            profile = SuccessProfile(
                probs=rng.random(n), mass=raw / raw.sum(), ids=range(n)
            )
            k = int(rng.integers(1, 20))
            m = k + int(rng.integers(0, 20))
            value_k = pass_at_k(profile, k)
            value_m = pass_at_k(profile, m)
            assert value_m >= value_k - 1e-12
            lo, hi = pass_at_k_bounds(pass_at_k(profile, 1), k)
            assert lo - 1e-12 <= value_k <= hi + 1e-12


def test_criterion_5_estimator_oracle():
    with criterion(5, "combination estimator vs enumeration and sampling", 30.0):
        # exact agreement with subset enumeration for every n <= 10
        for n in range(1, 11):
            for c in range(n + 1):
                for k in range(1, n + 1):
                    items = [1] * c + [0] * (n - c)
                    subsets = list(itertools.combinations(range(n), k))
                    hits = sum(1 for sub in subsets if any(items[i] for i in sub))
                    assert unbiased_pass_at_k(n, c, k) == pytest.approx(
                        hits / len(subsets), abs=1e-12
                    )
        # sampled mean within 3 exact standard errors of fk(p, k)
        n = 64
        for p in (0.05, 0.5, 0.9):
            for k in (1, 5, 32):
                rng = np.random.default_rng(int(p * 1000) * 100 + k)
                cs = rng.binomial(n, p, size=10_000)
                estimates = np.array(
                    [unbiased_pass_at_k(n, int(c), k) for c in cs]
                )
                pmf = np.array(
                    [
                        math.comb(n, c) * p**c * (1 - p) ** (n - c)
                        for c in range(n + 1)
                    ]
                )
                values = np.array(
                    [unbiased_pass_at_k(n, c, k) for c in range(n + 1)]
                )
                mean_exact = float(pmf @ values)
                sd_exact = math.sqrt(float(pmf @ (values - mean_exact) ** 2))
                se = sd_exact / math.sqrt(estimates.size)
                assert abs(estimates.mean() - fk(p, k)) <= 3 * se + 1e-12


def test_criterion_6_threshold_phase_transition():
    with criterion(6, "conflict threshold flips at ceil(k*)", 10.0):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            n = int(rng.integers(20, 60))
            q_frac = float(rng.uniform(0.08, 0.3))
            n_neg = max(1, int(round(n * q_frac)))
            q = n_neg / n
            beta = float(rng.uniform(1.2, 0.8 * (1 - q) / q))
            d = int(rng.integers(2, 6))
            u = rng.normal(size=d)
            u /= np.linalg.norm(u)
            grads = np.concatenate(
                [np.tile(-beta * u, (n_neg, 1)), np.tile(u, (n - n_neg, 1))]
            )
            eps = float(rng.uniform(0.0, 0.15))
            delta_sep = float(rng.uniform(0.4, 0.7))
            probs = np.concatenate(
                [np.full(n_neg, eps), np.full(n - n_neg, delta_sep)]
            )
            table = GradientTable.uniform(grads)
            profile = SuccessProfile.uniform(probs)
            mu = (1 - q) - q * beta
            assert mu > 0
            m = beta * mu
            g2 = float(np.max(np.sum(grads**2, axis=1)))
            threshold = k_star(eps, delta_sep, q, m, g2)
            assert threshold > 1
            ceil_k = math.ceil(threshold)
            assert ceil_k <= 40
            for k in range(1, ceil_k):
                assert conflict_bound(k, eps, delta_sep, q, m, g2) <= 0
            assert conflict_bound(ceil_k, eps, delta_sep, q, m, g2) > 0
            for k in range(ceil_k, 4 * ceil_k + 1):
                if k <= threshold:
                    continue
                r = conflict_report(
                    table, profile, k, margin=m * 0.999, constants=(g2, g2)
                )
                assert r.inner_product < 0


def test_criterion_7_smoothness_and_degradation_certificates():
    with criterion(7, "quadratic smoothness bound and one-step certificates", 30.0):
        cfg = BanditConfig(seed=4)
        batch = sample_prompts(cfg, 400)
        g2, f = policy_regularity_constants(batch)
        rng = np.random.default_rng(707)
        for _ in range(500):
            k = int(rng.integers(1, 11))
            theta = rng.uniform(-4, 4, size=2)
            theta2 = rng.uniform(-4, 4, size=2)
            _, lk, _ = smoothness_constants(g2, f, k)
            gap = abs(
                batch_objective(theta2, batch, k)
                - batch_objective(theta, batch, k)
                - _pop_gradient(theta, batch, k) @ (theta2 - theta)
            )
            assert gap <= lk / 2 * float(np.sum((theta2 - theta) ** 2)) + 1e-12

        pair, theta_ref = overlap_pair()
        g2p, fp = policy_regularity_constants(pair)
        certified = 0
        for k in (5, 8, 10, 12):
            for margin in (5e-4, 1e-3):
                for jitter in range(10):
                    theta = theta_ref + 0.05 * np.random.default_rng(
                        jitter
                    ).normal(size=2)
                    rec = evaluate_state(theta, pair, k, margin=margin)
                    if rec.delta_bound <= 0:
                        continue
                    certified += 1
                    _, lk, c2 = smoothness_constants(g2p, fp, k)
                    eta = max_safe_step(rec.delta_bound, c2, lk)
                    theta_plus, _ = ascent_step(theta, pair, k, eta, margin=margin)
                    j1_b = batch_objective(theta, pair, 1)
                    j1_a = batch_objective(theta_plus, pair, 1)
                    jk_b = batch_objective(theta, pair, k)
                    jk_a = batch_objective(theta_plus, pair, k)
                    grad_k = _pop_gradient(theta, pair, k)
                    assert j1_a < j1_b
                    assert j1_a < j1_b - eta * rec.delta_bound + c2 * eta**2 + 1e-15
                    assert jk_a >= jk_b + eta / 2 * float(grad_k @ grad_k)
        assert certified >= 50


def _pop_gradient(theta, batch, k):
    return evaluate_state(theta, batch, k).grad_k


def test_criterion_8_trajectory_direction():
    with criterion(8, "5-attempt ascent raises J5 and lowers J1", 60.0):
        records = run_trajectory(BanditConfig(), k=5, eta=1.0, steps=100)
        assert records[-1].jk_pop > records[0].jk_pop
        assert records[-1].j1_pop < records[0].j1_pop


def test_criterion_9_gradient_log_pipeline(tmp_path):
    with criterion(9, "synthetic conflict log pipeline and CLI stability", 10.0):
        records = make_synthetic_conflict_log(n=600, d=64, seed=0)
        assert len(records) >= 500
        filtered = filter_by_difficulty(records, FilterSpec(0.85, 0.10))
        report = diagnose(filtered, 32)
        assert report.unweighted_mean_agreement > 0
        assert report.weighted_mean_agreement < 0
        assert report.inner_product < 0
        for _, _, agreement, weight, _, _ in report.rows:
            if weight > 16.0:  # k/2
                assert agreement < 0

        log_path = tmp_path / "conflict_log.jsonl"
        export_gradlog(records, log_path)
        out_a = tmp_path / "run_a"
        out_b = tmp_path / "run_b"
        args = ["diagnose", "--input", str(log_path), "--k", "32"]
        assert cli_main(args + ["--out", str(out_a)]) == 0
        assert cli_main(args + ["--out", str(out_b)]) == 0
        for name in ("diagnose.json", "prompts.csv", "scatter.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
