"""Conflict identities, certificates, thresholds, and smoothness bounds."""

import math
import tracemalloc

import numpy as np
import pytest

from passklab import (
    BanditConfig,
    DomainError,
    SuccessProfile,
    ascent_step,
    conflict_bound,
    conflict_report,
    delta_bound,
    evaluate_state,
    inner_product_k_m,
    k_star,
    max_safe_step,
    overlap_pair,
    policy_regularity_constants,
    reference_theta,
    reweighted_distribution,
    sample_prompts,
    smoothness_constants,
    success_probs,
    grad_success_probs,
)
from passklab.conflict import ROUTE_RTOL
from passklab.interference import GradientTable
from passklab.objectives import ordered_dot, wk_array

from oracles import batch_objective


def random_case(rng, max_n=100, max_d=16):
    n = int(rng.integers(2, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    grads = rng.normal(size=(n, d))
    raw = rng.random(n) + 1e-3
    mass = raw / raw.sum()
    probs = rng.random(n)
    ids = tuple(str(i) for i in range(n))
    table = GradientTable(grads=grads, mass=mass, ids=ids)
    profile = SuccessProfile(probs=probs, mass=mass, ids=ids)
    k = int(rng.integers(1, 33))
    return table, profile, k


def two_point(k=10, margin=1e-3):
    batch, theta = overlap_pair()
    table = GradientTable.uniform(grad_success_probs(theta, batch), ids=batch.ids)
    profile = SuccessProfile.uniform(success_probs(theta, batch), ids=batch.ids)
    constants = policy_regularity_constants(batch)
    return conflict_report(table, profile, k, margin=margin, constants=constants)


class TestConflictReportRoutes:
    def test_three_routes_agree_on_random_tables(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            table, profile, k = random_case(rng)
            report = conflict_report(table, profile, k)  # raises on disagreement
            scale = max(
                abs(report.inner_product),
                ordered_dot(table.mass, report_weights(profile, k) *
                            np.abs(table.grads @ table.mean_grad)),
                1e-300,
            )
            assert abs(report.inner_product - report.weighted_form) <= 1e-10 * scale
            assert abs(report.inner_product - report.cov_form) <= 1e-10 * scale

    def test_sign_equivalences(self):
        # conflict iff reweighted mean agreement negative iff covariance
        # below the negative mean term
        rng = np.random.default_rng(11)
        for _ in range(1000):
            table, profile, k = random_case(rng, max_n=40, max_d=8)
            r = conflict_report(table, profile, k)
            conflict = r.inner_product < 0
            assert conflict == (r.weighted_form < 0)
            assert conflict == (r.reweighted_mean_agreement < 0)
            assert conflict == (
                r.covariance < -r.mean_weight * r.norm_sq_mean_grad
            )

    def test_correlation_condition_matches_sign(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 300:
            table, profile, k = random_case(rng, max_n=40, max_d=8)
            r = conflict_report(table, profile, k)
            if r.correlation is None:
                continue
            threshold = -r.mean_weight * r.norm_sq_mean_grad / (r.sigma_w * r.sigma_a)
            assert (r.correlation < threshold) == (r.inner_product < 0)
            checked += 1

    def test_routes_agree_at_a_million_prompts(self):
        batch = sample_prompts(BanditConfig(seed=0), 10**6)
        theta = reference_theta()
        table = GradientTable.uniform(grad_success_probs(theta, batch), ids=batch.ids)
        profile = SuccessProfile.uniform(success_probs(theta, batch), ids=batch.ids)
        report = conflict_report(  # raises IdentityCheckError on disagreement
            table, profile, 5, constants=policy_regularity_constants(batch)
        )
        scale = max(
            abs(report.inner_product),
            abs(report.weighted_form),
            abs(report.cov_form),
            ordered_dot(table.mass, report.weights * np.abs(report.scores)),
        )
        routes = (report.inner_product, report.weighted_form, report.cov_form)
        assert max(routes) - min(routes) <= ROUTE_RTOL * scale

    def test_k1_no_covariance(self):
        rng = np.random.default_rng(13)
        table, profile, _ = random_case(rng, max_n=20, max_d=4)
        r = conflict_report(table, profile, 1)
        assert r.inner_product == pytest.approx(r.norm_sq_mean_grad, rel=1e-10)
        assert r.inner_product >= 0
        assert r.covariance == pytest.approx(0.0, abs=1e-14)
        assert r.correlation is None  # constant weights: sigma_w ~ 0

    def test_two_point_paper_cosine(self):
        r = two_point(k=10)
        # reconstruct the cosine from the reported inner product
        batch, theta = overlap_pair()
        table = GradientTable.uniform(grad_success_probs(theta, batch), ids=batch.ids)
        profile = SuccessProfile.uniform(success_probs(theta, batch), ids=batch.ids)
        from passklab.conflict import assemble_passk_gradient

        gk = assemble_passk_gradient(table, profile, 10)
        cosine = r.inner_product / (
            np.linalg.norm(gk) * np.linalg.norm(table.mean_grad)
        )
        assert cosine == pytest.approx(-0.77, abs=0.05)
        assert r.inner_product < 0

    def test_all_certain_profile_rejected(self):
        table = GradientTable.uniform(np.ones((3, 2)))
        profile = SuccessProfile.uniform(np.ones(3))
        with pytest.raises(DomainError):
            conflict_report(table, profile, 5)

    def test_misalignment_rejected(self):
        rng = np.random.default_rng(14)
        table, profile, k = random_case(rng, max_n=10, max_d=3)
        bad = SuccessProfile(
            probs=profile.probs, mass=profile.mass, ids=tuple(reversed(profile.ids))
        )
        from passklab import AlignmentError

        with pytest.raises(AlignmentError):
            conflict_report(table, bad, k)

    def test_profile_mass_must_match_table(self):
        # a profile whose mass differs from the table's describes another
        # population, whatever the table's rows say
        from passklab import AlignmentError, pass_at_k

        grads = np.array([[1.0, 0.0], [0.2, 1.0], [-0.5, 0.3]])
        probs = np.array([0.9, 0.4, 0.1])
        table = GradientTable.uniform(grads)
        skewed = SuccessProfile(probs=probs, mass=[0.8, 0.1, 0.1], ids=table.ids)
        assert pass_at_k(skewed, 5) != pass_at_k(SuccessProfile.uniform(probs), 5)
        with pytest.raises(AlignmentError, match="mass"):
            conflict_report(table, skewed, 5)
        with pytest.raises(AlignmentError, match="mass"):
            inner_product_k_m(table, skewed, 5, 1)
        # equal mass held in a separate array still aligns
        conflict_report(table, SuccessProfile.uniform(probs), 5)

    def test_json_round_trip(self, tmp_path):
        import json

        r = two_point()
        path = tmp_path / "report.json"
        r.to_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["k"] == 10
        assert loaded["inner_product"] == r.inner_product
        assert loaded["weighted_form"] == r.weighted_form
        assert loaded["cov_form"] == r.cov_form
        assert loaded["eta_max"] == r.eta_max
        assert "grad_k" not in loaded


def report_weights(profile, k):
    return wk_array(profile.probs, k)


class TestReweightedDistribution:
    def test_uniform_probs_identity(self):
        profile = SuccessProfile.uniform(np.full(6, 0.4))
        np.testing.assert_allclose(
            reweighted_distribution(profile, 7), profile.mass, rtol=1e-12
        )

    def test_k1_identity(self):
        rng = np.random.default_rng(15)
        raw = rng.random(9) + 0.01
        profile = SuccessProfile(
            probs=rng.random(9), mass=raw / raw.sum(), ids=range(9)
        )
        np.testing.assert_allclose(
            reweighted_distribution(profile, 1), profile.mass, rtol=1e-12
        )

    def test_two_point_hard_dominates(self):
        batch, theta = overlap_pair()
        profile = SuccessProfile.uniform(success_probs(theta, batch), ids=batch.ids)
        tilted = reweighted_distribution(profile, 10)
        from passklab import wk

        w_e = wk(float(profile.probs[0]), 10)
        w_h = wk(float(profile.probs[1]), 10)
        assert tilted[1] == pytest.approx(w_h / (w_e + w_h), rel=1e-12)
        assert tilted[1] > 1 - 1e-7

    def test_sums_to_one(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            raw = rng.random(12) + 0.01
            profile = SuccessProfile(
                probs=rng.random(12), mass=raw / raw.sum(), ids=range(12)
            )
            assert reweighted_distribution(profile, 9).sum() == pytest.approx(1.0)

    def test_all_zero_weights_error(self):
        profile = SuccessProfile.uniform(np.ones(4))
        with pytest.raises(DomainError):
            reweighted_distribution(profile, 3)


class TestDeltaBound:
    def test_no_negative_set_no_certificate(self):
        grads = np.array([[1.0, 0.0], [0.8, 0.1]])
        table = GradientTable.uniform(grads)
        profile = SuccessProfile.uniform([0.3, 0.6])
        report = conflict_report(table, profile, 5, margin=1e-6)
        assert report.q == 0.0
        assert delta_bound(report.margin, report.w_minus, report.w_plus, 2.0) <= 0.0

    def test_constructed_certificate(self):
        # all weight mass inside the negative set: p = 0 there, p = 1 outside
        grads = np.array([[1.0, 0.0], [1.0, 0.1], [-0.8, 0.0]])
        table = GradientTable.uniform(grads)
        profile = SuccessProfile.uniform([1.0, 1.0, 0.0])
        scores = table.grads @ table.mean_grad
        assert scores[2] < 0
        m = -scores[2] * 0.99
        report = conflict_report(table, profile, 6, margin=m)
        g2 = float(np.max(np.sum(grads**2, axis=1)))
        delta = delta_bound(report.margin, report.w_minus, report.w_plus, g2)
        assert delta > 0
        r = conflict_report(table, profile, 6, margin=m, constants=(g2, g2))
        assert r.inner_product <= -delta + 1e-12

    def test_two_point_certificate_bounds_inner_product(self):
        r = two_point(k=10, margin=1e-3)
        assert r.delta_bound > 0
        assert r.inner_product <= -r.delta_bound + 1e-15

    def test_g2_validated(self):
        grads = np.array([[1.0], [-1.0]])
        table = GradientTable.uniform(grads)
        profile = SuccessProfile.uniform([0.5, 0.5])
        report = conflict_report(table, profile, 2, margin=1e-3)
        with pytest.raises(DomainError):
            delta_bound(report.margin, report.w_minus, report.w_plus, 0.0)


class TestKStar:
    def test_unit_log_argument(self):
        # (1-q) g2 == q m makes the numerator vanish
        assert k_star(0.0, 0.5, 0.5, 1.0, 1.0) == pytest.approx(1.0)

    def test_vanishing_denominator(self):
        assert k_star(0.49999999, 0.5, 0.1, 0.01, 1.0) > 1e6

    def test_saturated_easy_side(self):
        assert k_star(0.2, 1.0, 0.3, 0.5, 1.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            k_star(0.5, 0.5, 0.1, 0.01, 1.0)  # eps >= delta_sep
        with pytest.raises(DomainError):
            k_star(0.1, 0.5, 0.0, 0.01, 1.0)  # q on the boundary
        with pytest.raises(DomainError):
            k_star(0.1, 0.5, 0.3, 0.0, 1.0)  # margin <= 0

    def test_bound_flips_exactly_at_threshold(self):
        eps, d_sep, q, m, g2 = 0.05, 0.5, 0.1, 0.01, 1.0
        ks = k_star(eps, d_sep, q, m, g2)
        assert ks > 1
        ceil_k = math.ceil(ks)
        for k in range(1, 2 * ceil_k + 1):
            bound = conflict_bound(k, eps, d_sep, q, m, g2)
            assert (bound > 0) == (k > ks), k


def separated_case(rng):
    """Profile meeting the separation hypotheses exactly, with its bound data.

    A minority of prompts share an anti-aligned gradient and success
    probability eps; the majority share an aligned gradient and success
    probability delta_sep > eps.  The margin is set to the (common)
    magnitude of the minority agreement scores.
    """
    n = int(rng.integers(20, 60))
    q_frac = float(rng.uniform(0.08, 0.3))
    n_neg = max(1, int(round(n * q_frac)))
    q = n_neg / n
    gamma = 1.0
    beta = float(rng.uniform(1.2, 0.8 * (1 - q) / q))
    d = int(rng.integers(2, 6))
    u = rng.normal(size=d)
    u /= np.linalg.norm(u)
    grads = np.concatenate([np.tile(-beta * u, (n_neg, 1)), np.tile(gamma * u, (n - n_neg, 1))])
    eps = float(rng.uniform(0.0, 0.15))
    delta_sep = float(rng.uniform(0.4, 0.7))
    probs = np.concatenate([np.full(n_neg, eps), np.full(n - n_neg, delta_sep)])
    table = GradientTable.uniform(grads)
    profile = SuccessProfile.uniform(probs)
    mu = (1 - q) * gamma - q * beta
    assert mu > 0
    m = beta * mu  # exact magnitude of the minority agreement scores
    g2 = float(np.max(np.sum(grads**2, axis=1)))
    return table, profile, eps, delta_sep, q, m, g2


class TestKStarPhaseTransition:
    def test_twenty_constructed_profiles(self):
        rng = np.random.default_rng(2024)
        for case in range(20):
            table, profile, eps, d_sep, q, m, g2 = separated_case(rng)
            ks = k_star(eps, d_sep, q, m, g2)
            assert 1 < ks
            ceil_k = math.ceil(ks)
            assert ceil_k <= 40, "construction keeps the threshold testable"
            # the analytic bound flips sign exactly at ceil(k*)
            for k in range(1, ceil_k):
                assert conflict_bound(k, eps, d_sep, q, m, g2) <= 0
            assert conflict_bound(ceil_k, eps, d_sep, q, m, g2) > 0
            # and the measured inner product is negative throughout (k*, 4k*]
            for k in range(ceil_k, 4 * ceil_k + 1):
                if k <= ks:
                    continue
                r = conflict_report(
                    table, profile, k, margin=m * 0.999, constants=(g2, g2)
                )
                assert r.inner_product < 0, (case, k)


class TestSmoothnessConstants:
    def test_k1(self):
        l1, lk, c2 = smoothness_constants(2.0, 3.0, 1)
        assert l1 == 5.0 and lk == 5.0 and c2 == pytest.approx(2.0 * 5.0 / 2)

    def test_arithmetic(self):
        l1, lk, c2 = smoothness_constants(1.0, 1.0, 3)
        assert lk == 12.0
        assert c2 == 9.0

    def test_monotone_in_k(self):
        prev = 0.0
        for k in range(1, 30):
            _, lk, _ = smoothness_constants(0.7, 1.3, k)
            assert lk > prev
            prev = lk

    def test_domain(self):
        with pytest.raises(DomainError):
            smoothness_constants(0.0, 1.0, 2)


class TestMaxSafeStep:
    def test_delta_equal_c2(self):
        assert max_safe_step(4.0, 4.0, 8.0) == pytest.approx(min(1.0, 1 / 8.0))

    def test_defining_inequalities(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            delta, c2, lk = rng.random(3) * 5 + 1e-3
            eta = max_safe_step(delta, c2, lk)
            assert eta * c2 <= delta + 1e-12
            assert eta * lk <= 1 + 1e-12

    def test_requires_positive_delta(self):
        with pytest.raises(DomainError):
            max_safe_step(0.0, 1.0, 1.0)

    def test_two_point_certified_update_moves_both_objectives(self):
        # a step of the certified size strictly decreases the 1-attempt
        # objective and strictly increases the k-attempt objective
        batch, theta = overlap_pair()
        k = 5
        margin = 1e-3
        g2, f = policy_regularity_constants(batch)
        rec = evaluate_state(theta, batch, k, margin=margin)
        assert rec.delta_bound > 0
        _, lk, c2 = smoothness_constants(g2, f, k)
        eta = max_safe_step(rec.delta_bound, c2, lk)
        theta_plus, _ = ascent_step(theta, batch, k, eta, margin=margin)
        assert batch_objective(theta_plus, batch, 1) < batch_objective(theta, batch, 1)
        assert batch_objective(theta_plus, batch, k) > batch_objective(theta, batch, k)


class TestInnerProductKM:
    def test_k_equals_m_norm(self):
        rng = np.random.default_rng(18)
        table, profile, k = random_case(rng, max_n=20, max_d=6)
        result = inner_product_k_m(table, profile, k, k)
        assert result.direct >= 0
        assert result.double_sum == pytest.approx(result.direct, rel=1e-9)

    def test_dual_route_identity(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            table, profile, k = random_case(rng, max_n=40, max_d=8)
            m_order = int(rng.integers(1, 33))
            result = inner_product_k_m(table, profile, k, m_order)
            scale = max(abs(result.direct), abs(result.double_sum), 1e-300)
            assert abs(result.direct - result.double_sum) <= 1e-9 * scale

    def test_double_sum_is_row_blocked(self):
        # the full 6000 x 6000 kernel alone would take 288 MB
        rng = np.random.default_rng(21)
        n = 6000
        raw = rng.random(n) + 1e-3
        mass = raw / raw.sum()
        ids = tuple(str(i) for i in range(n))
        table = GradientTable(grads=rng.normal(size=(n, 2)), mass=mass, ids=ids)
        profile = SuccessProfile(probs=rng.random(n), mass=mass, ids=ids)
        tracemalloc.start()
        try:
            result = inner_product_k_m(table, profile, 4, 9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        scale = max(abs(result.direct), abs(result.double_sum), 1e-300)
        assert abs(result.direct - result.double_sum) <= 1e-9 * scale
        wk_w = wk_array(profile.probs, 4) * mass
        wm_w = wk_array(profile.probs, 9) * mass
        full = float(wk_w @ (table.grads @ table.grads.T) @ wm_w)
        assert result.double_sum == pytest.approx(full, rel=1e-12)

    def test_nonnegative_kernel_implies_no_conflict(self):
        # gradients in the positive orthant give a nonnegative kernel, so
        # every pair of attempt-count objectives stays aligned
        rng = np.random.default_rng(20)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            grads = rng.random((n, 4))  # entrywise positive rows
            table = GradientTable.uniform(grads)
            profile = SuccessProfile.uniform(rng.random(n))
            k = int(rng.integers(1, 20))
            m_order = int(rng.integers(1, 20))
            result = inner_product_k_m(table, profile, k, m_order)
            assert result.double_sum >= -1e-15
            assert result.direct >= -1e-15


class TestToySmoothnessCertificate:
    def test_quadratic_bound_on_500_random_triples(self):
        cfg = BanditConfig(seed=4)
        batch = sample_prompts(cfg, 400)
        g2, f = policy_regularity_constants(batch)
        rng = np.random.default_rng(99)
        for _ in range(500):
            k = int(rng.integers(1, 11))
            theta = rng.uniform(-4, 4, size=2)
            theta2 = rng.uniform(-4, 4, size=2)
            _, lk, _ = smoothness_constants(g2, f, k)
            gap = abs(
                batch_objective(theta2, batch, k)
                - batch_objective(theta, batch, k)
                - evaluate_state(theta, batch, k).grad_k @ (theta2 - theta)
            )
            assert gap <= lk / 2 * float(np.sum((theta2 - theta) ** 2)) + 1e-12


class TestDegradationCertificate:
    def test_one_step_inequalities_whenever_delta_positive(self):
        # sweep k, margin, and jittered starts; every delta > 0 case must
        # satisfy both one-step inequalities at the certified step size
        batch, theta_ref = overlap_pair()
        g2, f = policy_regularity_constants(batch)
        cases = 0
        for k in (5, 8, 10, 12):
            for margin in (5e-4, 1e-3):
                for jitter in range(10):
                    theta = theta_ref + 0.05 * np.random.default_rng(jitter).normal(
                        size=2
                    )
                    rec = evaluate_state(theta, batch, k, margin=margin)
                    if rec.delta_bound <= 0:
                        continue
                    cases += 1
                    _, lk, c2 = smoothness_constants(g2, f, k)
                    eta = max_safe_step(rec.delta_bound, c2, lk)
                    theta_plus, _ = ascent_step(theta, batch, k, eta, margin=margin)
                    j1_before = batch_objective(theta, batch, 1)
                    j1_after = batch_objective(theta_plus, batch, 1)
                    jk_before = batch_objective(theta, batch, k)
                    jk_after = batch_objective(theta_plus, batch, k)
                    grad_k = rec.grad_k
                    assert j1_after < j1_before
                    assert (
                        j1_after
                        < j1_before - eta * rec.delta_bound + c2 * eta * eta + 1e-15
                    )
                    assert jk_after >= jk_before + eta / 2 * float(grad_k @ grad_k)
        assert cases >= 50, "the sweep must actually exercise the certificate"
