"""Toy environment tests: sampling, closed-form probabilities and gradients."""

import math
import warnings

import numpy as np
import pytest

from passklab import (
    BanditConfig,
    DomainError,
    PromptBatch,
    derive_reference_theta,
    grad_success_probs,
    overlap_pair,
    policy_regularity_constants,
    reference_theta,
    sample_prompts,
    success_probs,
)
from passklab.bandit import EASY, HARD, expit, logit, sigmoid_slope

from oracles import action_prob, grad_success_prob, success_prob

# pinned by the exact 2x2 logit solve for targets (0.86, 0.10)
THETA_REF = np.array([-2.0062572719872344, -1.909673053489852])


def psi(s):
    return np.array([1.0, s])


def make_batch(features, labels, actions):
    return PromptBatch(
        ids=tuple(str(i) for i in range(len(labels))),
        features=np.asarray(features, dtype=float),
        labels=np.asarray(labels),
        correct_actions=np.asarray(actions),
    )


class TestConfigAndSampling:
    def test_config_validation(self):
        with pytest.raises(DomainError):
            BanditConfig(separation=0.0)
        with pytest.raises(DomainError):
            BanditConfig(hard_fraction=1.5)
        with pytest.raises(DomainError):
            BanditConfig(feature_std=0.0)

    def test_law_of_large_numbers_hard_fraction(self):
        cfg = BanditConfig(separation=0.2, hard_fraction=0.5, seed=7)
        batch = sample_prompts(cfg, 6000)
        assert abs(batch.hard_mask.mean() - 0.5) < 0.02

    def test_single_prompt(self):
        cfg = BanditConfig(seed=1)
        batch = sample_prompts(cfg, 1)
        assert len(batch) == 1
        assert batch.features[0, 0] == 1.0

    def test_reproducible(self):
        cfg = BanditConfig(seed=42)
        a = sample_prompts(cfg, 500)
        b = sample_prompts(cfg, 500)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_n_validation(self):
        with pytest.raises(DomainError):
            sample_prompts(BanditConfig(), 0)

    def test_feature_means_track_labels(self):
        cfg = BanditConfig(separation=2.0, hard_fraction=0.5, seed=3)
        batch = sample_prompts(cfg, 8000)
        s = batch.features[:, 1]
        assert s[batch.hard_mask].mean() == pytest.approx(1.0, abs=0.05)
        assert s[~batch.hard_mask].mean() == pytest.approx(-1.0, abs=0.05)


class TestPolicy:
    def test_zero_parameter_gives_half(self):
        assert action_prob(np.zeros(2), psi(0.37), 1) == 0.5
        assert success_prob(np.zeros(2), psi(0.37), HARD) == 0.5

    def test_action_probs_normalize(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            theta = rng.normal(size=2) * 2
            x = psi(float(rng.normal()))
            total = action_prob(theta, x, 0) + action_prob(theta, x, 1)
            assert total == pytest.approx(1.0, abs=1e-15)

    def test_reference_targets(self):
        assert action_prob(THETA_REF, psi(0.1), 1) == pytest.approx(0.10, abs=1e-12)
        assert success_prob(THETA_REF, psi(0.1), HARD) == pytest.approx(
            0.10, abs=1e-12
        )
        assert success_prob(THETA_REF, psi(-0.1), EASY) == pytest.approx(
            0.86, abs=1e-12
        )

    def test_vectorized_matches_scalar(self):
        cfg = BanditConfig(seed=5)
        batch = sample_prompts(cfg, 64)
        theta = np.array([0.3, -0.7])
        vec = success_probs(theta, batch)
        for i in range(len(batch)):
            ref = success_prob(theta, batch.features[i], batch.labels[i])
            assert vec[i] == pytest.approx(ref, abs=1e-15)


class TestSigmoid:
    def scalar_expit(self, u):
        if u >= 0:
            return 1.0 / (1.0 + math.exp(-u))
        return math.exp(u) / (1.0 + math.exp(u))

    def test_extreme_arguments_neither_overflow_nor_nan(self):
        u = np.array([-710.0, -700.0, -30.0, -1.5, 0.0, 1.5, 30.0, 700.0, 710.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise", invalid="raise"):
                sig = expit(u)
        assert not np.any(np.isnan(sig))
        for ui, si in zip(u, sig, strict=True):
            assert si == pytest.approx(self.scalar_expit(float(ui)), rel=1e-15, abs=0)

    def test_logit_is_the_inverse_of_expit(self):
        p = np.linspace(0.001, 0.999, 999)
        np.testing.assert_allclose(expit(logit(p)), p, rtol=1e-14)
        assert logit(0.5) == 0.0


class TestGradients:
    def test_sign_structure(self):
        theta = np.array([0.4, -1.1])
        g_e = grad_success_prob(theta, psi(0.25), EASY)
        g_h = grad_success_prob(theta, psi(0.25), HARD)
        np.testing.assert_allclose(g_e, -g_h, atol=1e-16)

    def test_overlap_pair_cosine(self):
        batch, theta = overlap_pair()
        g = grad_success_probs(theta, batch)
        cosine = g[0] @ g[1] / (np.linalg.norm(g[0]) * np.linalg.norm(g[1]))
        assert cosine == pytest.approx(-0.98, abs=0.01)

    def test_finite_difference(self):
        # closed form vs central differences, 100 random (theta, x)
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(100):
            theta = rng.uniform(-2, 2, size=2)
            s = float(np.clip(rng.normal(), -3, 3))
            label = EASY if rng.random() < 0.5 else HARD
            x = psi(s)
            g = grad_success_prob(theta, x, label)
            fd = np.empty(2)
            for j in range(2):
                e = np.zeros(2)
                e[j] = h
                fd[j] = (
                    success_prob(theta + e, x, label)
                    - success_prob(theta - e, x, label)
                ) / (2 * h)
            assert np.linalg.norm(fd - g) <= 1e-6 * np.linalg.norm(g)

    def test_slope_range(self):
        rng = np.random.default_rng(12)
        feats = np.stack([np.ones(200), rng.normal(size=200)], axis=1)
        for _ in range(20):
            theta = rng.normal(size=2) * 3
            z = sigmoid_slope(theta, feats)
            assert np.all(z > 0) and np.all(z <= 0.25)

    def test_gradient_norm_bound(self):
        # per-prompt gradient norm <= ||psi|| / 4
        cfg = BanditConfig(seed=9)
        batch = sample_prompts(cfg, 300)
        rng = np.random.default_rng(13)
        for _ in range(10):
            theta = rng.normal(size=2) * 4
            g = grad_success_probs(theta, batch)
            norms = np.linalg.norm(g, axis=1)
            psi_norms = np.linalg.norm(batch.features, axis=1)
            assert np.all(norms <= 0.25 * psi_norms + 1e-15)

    def test_vectorized_matches_scalar(self):
        cfg = BanditConfig(seed=5)
        batch = sample_prompts(cfg, 32)
        theta = np.array([-1.0, 0.8])
        mat = grad_success_probs(theta, batch)
        for i in range(len(batch)):
            np.testing.assert_allclose(
                mat[i], grad_success_prob(theta, batch.features[i], batch.labels[i])
            )


class TestReferenceTheta:
    def test_golden_value(self):
        np.testing.assert_allclose(reference_theta(), THETA_REF, rtol=1e-14)

    def test_round_trip(self):
        theta = derive_reference_theta(0.86, 0.10)
        assert success_prob(theta, psi(-0.1), EASY) == pytest.approx(0.86, abs=1e-10)
        assert success_prob(theta, psi(0.1), HARD) == pytest.approx(0.10, abs=1e-10)

    def test_symmetric_targets_give_zero(self):
        theta = derive_reference_theta(0.5, 0.5, psi_easy=(1, -1), psi_hard=(1, 1))
        np.testing.assert_allclose(theta, [0.0, 0.0], atol=1e-15)

    def test_collinear_rejected(self):
        with pytest.raises(DomainError):
            derive_reference_theta(0.8, 0.2, psi_easy=(1, 0.5), psi_hard=(2, 1.0))

    def test_targets_strictly_inside(self):
        with pytest.raises(DomainError):
            derive_reference_theta(1.0, 0.10)


class TestRegularityConstants:
    def test_closed_form(self):
        cfg = BanditConfig(seed=2)
        batch = sample_prompts(cfg, 100)
        g2, f = policy_regularity_constants(batch)
        expected = np.max(np.sum(batch.features**2, axis=1)) / 4
        assert g2 == pytest.approx(expected) and f == pytest.approx(expected)

    def test_bounds_expected_score_norms(self):
        # E||score||^2 = z * ||psi||^2 <= g2 for any theta
        cfg = BanditConfig(seed=2)
        batch = sample_prompts(cfg, 100)
        g2, _ = policy_regularity_constants(batch)
        rng = np.random.default_rng(21)
        for _ in range(20):
            theta = rng.normal(size=2) * 5
            z = sigmoid_slope(theta, batch.features)
            expected_sq = z * np.sum(batch.features**2, axis=1)
            assert np.all(expected_sq <= g2 + 1e-12)


class TestPromptInstanceValidation:
    """The per-prompt rules, checked by the PromptBatch constructor."""

    def test_bias_entry(self):
        with pytest.raises(DomainError, match="exactly 1"):
            make_batch([[0.9, 0.1]], [EASY], [0])

    def test_label_action_consistency(self):
        with pytest.raises(DomainError, match="correct_action"):
            make_batch([[1.0, 0.1]], [EASY], [1])
        with pytest.raises(DomainError, match="correct_action"):
            make_batch([[1.0, 0.5], [1.0, 0.2]], [EASY, HARD], [0, 0])
        with pytest.raises(DomainError, match="correct_action"):
            make_batch([[1.0, 0.2]], [HARD], [1.7])

    def test_unknown_label(self):
        with pytest.raises(DomainError, match="'medium'"):
            make_batch([[1.0, 0.1], [1.0, 0.2]], [EASY, "medium"], [0, 0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature(self, bad):
        with pytest.raises(DomainError, match="finite"):
            make_batch([[1.0, 0.1], [1.0, bad]], [EASY, HARD], [0, 1])
