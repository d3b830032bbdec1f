"""Conflict identities, certificates, thresholds, and smoothness bounds."""

import math

import numpy as np
import pytest

from passklab import (
    BanditConfig,
    DomainError,
    PromptBatch,
    SuccessProfile,
    conflict_bound,
    conflict_report,
    delta_bound,
    evaluate_state,
    k_star,
    max_safe_step,
    overlap_pair,
    policy_regularity_constants,
    reference_theta,
    run_trajectory,
    sample_prompts,
    smoothness_constants,
    success_probs,
    grad_success_probs,
)
from passklab.conflict import ROUTE_RTOL, SIGMA_FLOOR
from passklab.interference import GradientTable
from passklab.objectives import MAX_K, ordered_dot, weighted_row_sum, wk_array

from oracles import batch_objective


def random_case(rng, max_n=100, max_d=16):
    n = int(rng.integers(2, max_n + 1))
    d = int(rng.integers(1, max_d + 1))
    grads = rng.normal(size=(n, d))
    raw = rng.random(n) + 1e-3
    mass = raw / raw.sum()
    probs = rng.random(n)
    ids = tuple(str(i) for i in range(n))
    table = GradientTable(grads=grads, ids=ids)
    profile = SuccessProfile(probs=probs, mass=mass, ids=ids)
    k = int(rng.integers(1, 33))
    return table, profile, k


def policy_report(theta, batch, k, margin=1e-6):
    """The policy's report at theta, and the mass of its profile."""
    table = GradientTable.uniform(grad_success_probs(theta, batch), ids=batch.ids)
    profile = SuccessProfile.uniform(success_probs(theta, batch), ids=batch.ids)
    report = conflict_report(
        table, profile, k, margin=margin, constants=policy_regularity_constants(batch)
    )
    return report, profile.mass


def two_point(k=10, margin=1e-3):
    batch, theta = overlap_pair()
    return policy_report(theta, batch, k, margin)[0]


class TestConflictReportRoutes:
    def test_three_routes_agree_on_random_tables(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            table, profile, k = random_case(rng)
            report = conflict_report(table, profile, k)  # raises on disagreement
            mean_grad = weighted_row_sum(profile.mass, table.grads)
            scale = max(
                abs(report.inner_product),
                ordered_dot(profile.mass, report_weights(profile, k) *
                            np.abs(table.grads @ mean_grad)),
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
        # bounded, so that a correlation that is always None fails, not stalls
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(2000):
            table, profile, k = random_case(rng, max_n=40, max_d=8)
            r = conflict_report(table, profile, k)
            if r.correlation is None:
                continue
            threshold = -r.mean_weight * r.norm_sq_mean_grad / (r.sigma_w * r.sigma_a)
            assert (r.correlation < threshold) == (r.inner_product < 0)
            checked += 1
            if checked == 300:
                break
        assert checked == 300

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
            ordered_dot(profile.mass, report.weights * np.abs(report.scores)),
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
        mean_grad = weighted_row_sum(profile.mass, table.grads)
        cosine = r.inner_product / (np.linalg.norm(gk) * np.linalg.norm(mean_grad))
        assert cosine == pytest.approx(-0.77, abs=0.05)
        assert r.inner_product < 0

    def test_mean_agreement_identity_checked(self, monkeypatch):
        import passklab.conflict
        from passklab import IdentityCheckError

        original = passklab.conflict.agreement_scores
        monkeypatch.setattr(
            "passklab.conflict.agreement_scores",
            lambda table, mean_grad: (1.0 + 1e-6) * original(table, mean_grad),
        )
        with pytest.raises(IdentityCheckError, match="mean agreement"):
            two_point()

    def test_nan_route_fails_the_route_check(self, monkeypatch):
        # a NaN in the middle route, which max() and min() over the three
        # routes would skip; the message names all three
        import passklab.conflict
        from passklab import IdentityCheckError

        clean = two_point()
        products = clean.weights * clean.scores
        original = passklab.conflict.ordered_dot
        monkeypatch.setattr(
            "passklab.conflict.ordered_dot",
            lambda a, b: math.nan if np.array_equal(b, products) else original(a, b),
        )
        with pytest.raises(IdentityCheckError, match="routes disagree") as info:
            two_point()
        routes = f"direct={clean.inner_product!r} weighted=nan cov={clean.cov_form!r}"
        assert routes in str(info.value)

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

    def test_profile_mass_weights_the_rows(self):
        # the table holds no mass: the profile's weights every row sum
        from passklab.conflict import assemble_passk_gradient

        grads = np.array([[1.0, 0.0], [0.2, 1.0], [-0.5, 0.3]])
        probs = np.array([0.9, 0.4, 0.1])
        table = GradientTable.uniform(grads)
        skewed = SuccessProfile(probs=probs, mass=[0.8, 0.1, 0.1], ids=table.ids)
        mean_grad = weighted_row_sum(skewed.mass, grads)
        grad_k = weighted_row_sum(skewed.mass * wk_array(probs, 5), grads)
        assert assemble_passk_gradient(table, skewed, 5).tobytes() == grad_k.tobytes()
        report = conflict_report(table, skewed, 5)
        assert report.mass is skewed.mass
        assert report.grad_k.tobytes() == grad_k.tobytes()
        assert report.inner_product == ordered_dot(grad_k, mean_grad)

    @pytest.mark.parametrize("case", ["reversed ids", "other length"])
    def test_assembly_rejects_misaligned_profile(self, case):
        from passklab import AlignmentError
        from passklab.conflict import assemble_passk_gradient

        table = GradientTable.uniform([[1.0, 0.0], [0.2, 1.0], [-0.5, 0.3]])
        probs = [0.9, 0.4, 0.1]
        profile = {
            "reversed ids": SuccessProfile.uniform(probs, ids=table.ids[::-1]),
            "other length": SuccessProfile.uniform(probs[:2]),
        }[case]
        with pytest.raises(AlignmentError):
            assemble_passk_gradient(table, profile, 5)


ON_READ = ("sigma_w", "sigma_a", "correlation", "neg_set", "q")


def plain_on_read_fields(report, mass) -> dict:
    """The on-read fields, with q, w_minus and w_plus, from their plain
    definitions: math.fsum over Python floats and a loop for the set."""
    m, w, a = mass.tolist(), report.weights.tolist(), report.scores.tolist()
    inside = [s <= -report.margin for s in a]
    dw = [x - report.mean_weight for x in w]
    da = [x - report.mean_score for x in a]
    sigma_w = math.sqrt(max(math.fsum(mi * (d * d) for mi, d in zip(m, dw)), 0.0))
    sigma_a = math.sqrt(max(math.fsum(mi * (d * d) for mi, d in zip(m, da)), 0.0))
    correlation = None
    if sigma_w > SIGMA_FLOOR and sigma_a > SIGMA_FLOOR:
        correlation = report.covariance / (sigma_w * sigma_a)
    return {
        "sigma_w": sigma_w,
        "sigma_a": sigma_a,
        "correlation": correlation,
        "neg_set": tuple(i for i, neg in enumerate(inside) if neg),
        "q": math.fsum(mi for mi, neg in zip(m, inside) if neg),
        "w_minus": math.fsum(mi * wi for mi, wi, neg in zip(m, w, inside) if neg),
        "w_plus": math.fsum(mi * wi for mi, wi, neg in zip(m, w, inside) if not neg),
    }


class TestOnReadFields:
    """sigma_w, sigma_a, correlation, neg_set and q are computed on first
    read; q, w_minus and w_plus sum over the interfering set and its
    complement."""

    @staticmethod
    def assert_plain(report, mass) -> None:
        for name, want in plain_on_read_fields(report, mass).items():
            got = getattr(report, name)
            if isinstance(want, float):
                assert got.hex() == want.hex(), name
            else:
                assert got == want, name

    @pytest.mark.parametrize("k", [1, 5, 10])
    @pytest.mark.parametrize("theta", [[-1.2, -2.9], [0.0, 0.0], [0.8, 3.5]])
    def test_match_their_plain_definitions(self, theta, k):
        batch = sample_prompts(BanditConfig(), 600)
        self.assert_plain(*policy_report(np.array(theta), batch, k))

    def test_match_their_plain_definitions_on_the_overlap_pair(self):
        batch, theta = overlap_pair()
        report, mass = policy_report(theta, batch, 10, 1e-3)
        assert report.neg_set == (1,) and report.correlation is not None
        self.assert_plain(report, mass)

    def test_absent_until_first_read(self):
        report = two_point()
        assert not set(ON_READ) & set(vars(report))
        for i, name in enumerate(ON_READ):
            value = getattr(report, name)
            assert set(ON_READ) & set(vars(report)) == set(ON_READ[: i + 1])
            assert getattr(report, name) is value


class TestOverflowGuard:
    """conflict_report refuses a table whose products could overflow."""

    def test_bound_is_d_times_max_entry_squared(self):
        # d * a**2 = 4 * 2**508 = 2**510, the largest accepted; every
        # product and sum of the report stays finite there
        signs = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [-1, -1, 1, 1]])
        profile = SuccessProfile.uniform([0.9, 0.5, 0.1])
        r = conflict_report(GradientTable.uniform(2.0**254 * signs), profile, 5)
        fields = (r.inner_product, r.cov_form, r.sigma_w, r.sigma_a, r.delta_bound)
        assert all(math.isfinite(v) for v in fields)
        above = GradientTable.uniform(np.nextafter(2.0**254, np.inf) * signs)
        with pytest.raises(DomainError, match="too large"):
            conflict_report(above, profile, 5)

    def test_trajectory_stops_at_step_zero(self):
        # rows 0.25 * [1, +-1e100] at theta = 0: d * max|entry|**2 ~ 1.25e199
        batch = PromptBatch(
            ids=("e", "h"),
            features=[[1.0, 1e100], [1.0, -1e100]],
            labels=["easy", "hard"],
            correct_actions=[0, 1],
        )
        with pytest.raises(DomainError, match="too large"):
            run_trajectory(theta0=np.zeros(2), batch=batch, steps=1)


def report_weights(profile, k):
    return wk_array(profile.probs, k)


class TestReweighting:
    def test_two_point_hard_dominates(self):
        # w_k moves the mass onto the hard prompt (index 1)
        r = two_point(k=10)
        tilted = r.mass * r.weights / r.mean_weight
        w_e, w_h = r.weights
        assert tilted[1] > r.mass[1]
        assert tilted[1] == pytest.approx(w_h / (w_e + w_h), rel=1e-12)
        assert tilted[1] > 1 - 1e-7

    def test_nonnegative_kernel_implies_no_conflict(self):
        # gradients in the positive orthant give a nonnegative kernel, so
        # the k-attempt and 1-attempt gradients stay aligned on every route
        rng = np.random.default_rng(20)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            grads = rng.random((n, 4))  # entrywise positive rows
            table = GradientTable.uniform(grads)
            profile = SuccessProfile.uniform(rng.random(n))
            r = conflict_report(table, profile, int(rng.integers(1, 20)))
            assert r.inner_product >= -1e-15
            assert r.weighted_form >= -1e-15
            assert r.cov_form >= -1e-15


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
        scores = table.grads @ weighted_row_sum(profile.mass, table.grads)
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

    # eps < delta_sep, and their log1p values round to the same double
    ROUNDED_GAP = (0.23861592861522019, 0.2386159286152202)

    def test_denominator_rounded_to_zero(self):
        # it raised ZeroDivisionError; a gap one double wide overflows to inf
        eps, delta_sep = self.ROUNDED_GAP
        assert math.log1p(-eps) == math.log1p(-delta_sep)
        assert k_star(eps, delta_sep, 0.1, 0.01, 1.0) == math.inf
        assert k_star(1e-300, math.nextafter(1e-300, 1.0), 0.1, 0.01, 1.0) == math.inf
        assert k_star(eps, delta_sep, 0.5, 1.0, 1.0) == 1.0  # numerator 0

    def test_saturated_easy_side(self):
        assert k_star(0.2, 1.0, 0.3, 0.5, 1.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            k_star(0.5, 0.5, 0.1, 0.01, 1.0)  # eps >= delta_sep
        with pytest.raises(DomainError):
            k_star(0.1, 0.5, 0.0, 0.01, 1.0)  # q on the boundary
        with pytest.raises(DomainError):
            k_star(0.1, 0.5, 0.3, 0.0, 1.0)  # margin <= 0

    @pytest.mark.parametrize(
        "q,m,g2",
        [(1e-30, 1e-300, 1.0), (0.5, 1e308, 1e-308), (0.5, 1e-308, 1e308)],
        ids=["q*m-underflows", "ratio-underflows", "ratio-overflows"],
    )
    def test_log_argument_outside_the_float_range(self, q, m, g2):
        # these raised ZeroDivisionError, raised ValueError, and returned inf
        with pytest.raises(DomainError, match="leaves the float range"):
            k_star(0.05, 0.5, q, m, g2)

    @pytest.mark.parametrize("q,m,g2", [(0.6, 1.0, 0.5), (0.999999, 0.01, 1.0)])
    def test_parameters_no_population_has(self, q, m, g2):
        # q*m > (1-q)*g2 certified conflict at k = 1, where the inner product
        # is ||grad J1||^2 >= 0, and gave a k_star below 1
        with pytest.raises(DomainError, match="no population has"):
            k_star(0.05, 0.5, q, m, g2)
        with pytest.raises(DomainError, match="no population has"):
            conflict_bound(1, 0.05, 0.5, q, m, g2)

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
        for k in (0, -1):
            with pytest.raises(DomainError, match=rf"k must be in \[1, {MAX_K}\], got {k}"):
                smoothness_constants(1.0, 1.0, k)


BAD_KS = [0, -3, 2.5, True, MAX_K + 1]


@pytest.mark.parametrize("k", BAD_KS, ids=repr)
def test_conflict_bound_rejects_k_outside_the_k_rule(k):
    with pytest.raises(DomainError, match="^k must be"):
        conflict_bound(k, 0.05, 0.5, 0.1, 0.01, 1.0)


@pytest.mark.parametrize("k", BAD_KS, ids=repr)
def test_smoothness_constants_reject_k_outside_the_k_rule(k):
    with pytest.raises(DomainError, match="^k must be"):
        smoothness_constants(1.0, 1.0, k)


def _certified_report(constants, probs=(0.5, 0.5, 0.5)):
    # one prompt interferes; with probs of 1 outside it, w_plus is 0
    table = GradientTable.uniform([[1.0], [1.0], [-1.0]])
    return conflict_report(table, SuccessProfile.uniform(probs), 2, constants=constants)


# (case, call, message): each returned a value (inf, -inf or NaN included),
# raised ZeroDivisionError or IndexError, or named an overflowed c2 or lk
BAD_CERTIFICATE_ARGS = [
    ("c2 zero", lambda: max_safe_step(1.0, 0.0, 1.0),
     "c2 and lk must be finite and > 0, got c2=0.0 lk=1.0"),
    ("lk zero", lambda: max_safe_step(1.0, 1.0, 0.0),
     "c2 and lk must be finite and > 0, got c2=1.0 lk=0.0"),
    ("c2 inf", lambda: max_safe_step(1.0, math.inf, 1.0),
     "c2 and lk must be finite and > 0, got c2=inf lk=1.0"),
    ("g2 inf", lambda: smoothness_constants(math.inf, 1, 3),
     "g2 and f must be finite and > 0, got g2=inf f=1.0"),
    ("f inf", lambda: smoothness_constants(1, math.inf, 3),
     "g2 and f must be finite and > 0, got g2=1.0 f=inf"),
    ("delta_bound g2 inf", lambda: delta_bound(1e-6, 1, 1, math.inf),
     "g2 must be finite and > 0, got inf"),
    ("report g2 inf", lambda: _certified_report((math.inf, 1.0)),
     "g2 must be finite and > 0, got inf"),
    ("report g2 inf, no weight outside",
     lambda: _certified_report((math.inf, 1.0), probs=(1.0, 1.0, 0.5)),
     "g2 must be finite and > 0, got inf"),
    ("report f inf", lambda: _certified_report((1.0, math.inf)),
     "g2 and f must be finite and > 0, got g2=1.0 f=inf"),
    ("c2 overflows", lambda: smoothness_constants(1e300, 1.0, 2),
     r"smoothness constants overflow at g2=1e\+300 f=1.0 k=2"),
    ("lk overflows", lambda: smoothness_constants(1e-300, 1e308, 2),
     r"smoothness constants overflow at g2=1e-300 f=1e\+308 k=2"),
    ("report constants overflow",
     lambda: _certified_report((1e300, 1.0), probs=(1.0, 1.0, 0.5)),
     r"smoothness constants overflow at g2=1e\+300 f=1.0 k=2"),
    ("report one constant", lambda: _certified_report((1.0,)),
     r"constants must be a \(g2, f\) pair, got \(1.0,\)"),
    ("report three constants", lambda: _certified_report((1.0, 1.0, 1.0)),
     r"constants must be a \(g2, f\) pair, got \(1.0, 1.0, 1.0\)"),
]


@pytest.mark.parametrize(
    "call,message",
    [case[1:] for case in BAD_CERTIFICATE_ARGS],
    ids=[case[0] for case in BAD_CERTIFICATE_ARGS],
)
def test_certificate_arguments_refused(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


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
        _, after = run_trajectory(
            theta0=theta, k=k, eta=eta, steps=1, margin=margin, batch=batch
        )
        theta_plus = after.theta
        assert batch_objective(theta_plus, batch, 1) < batch_objective(theta, batch, 1)
        assert batch_objective(theta_plus, batch, k) > batch_objective(theta, batch, k)


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
                    _, after = run_trajectory(
                        theta0=theta, k=k, eta=eta, steps=1, margin=margin, batch=batch
                    )
                    theta_plus = after.theta
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
