"""Kernel, agreement-score, and interfering-set tests."""

import csv
import math

import numpy as np
import pytest

from passklab import (
    AlignmentError,
    BanditConfig,
    DomainError,
    SuccessProfile,
    agreement_scores,
    conflict_report,
    grad_success_probs,
    kernel_matrix,
    overlap_pair,
    reference_theta,
    sample_prompts,
    success_probs,
)
from passklab.bandit import sigmoid_slope
from passklab.interference import GradientTable, kernel_matrix_to_csv
from passklab.objectives import ordered_dot


def random_table(rng, n=None, d=None):
    n = n or int(rng.integers(2, 30))
    d = d or int(rng.integers(1, 8))
    grads = rng.normal(size=(n, d))
    raw = rng.random(n) + 1e-3
    return GradientTable(grads=grads, mass=raw / raw.sum(), ids=range(n))


class TestKernel:
    def test_self_similarity(self):
        g = np.array([0.3, -1.2, 0.5])
        assert g @ g >= 0

    def test_overlap_pair_value(self):
        batch, theta = overlap_pair()
        g = grad_success_probs(theta, batch)
        assert g[0] @ g[1] == pytest.approx(-0.01, abs=0.005)

    def test_toy_closed_form(self):
        # <g(x_e), g(x_h)> = -z_e * z_h * <psi_e, psi_h> for opposite labels
        batch, theta = overlap_pair()
        g = grad_success_probs(theta, batch)
        z = sigmoid_slope(theta, batch.features)
        expected = -z[0] * z[1] * float(batch.features[0] @ batch.features[1])
        assert g[0] @ g[1] == pytest.approx(expected, abs=1e-12)

    def test_sign_law(self):
        # opposite labels with positively aligned features conflict;
        # matching labels with positively aligned features agree
        rng = np.random.default_rng(0)
        for _ in range(200):
            theta = rng.normal(size=2) * 2
            s1, s2 = rng.normal(size=2)
            psi1 = np.array([1.0, s1])
            psi2 = np.array([1.0, s2])
            if psi1 @ psi2 <= 0:
                continue
            z1 = float(sigmoid_slope(theta, psi1))
            z2 = float(sigmoid_slope(theta, psi2))
            opposite = (-z1 * psi1) @ (z2 * psi2)
            matching = (z1 * psi1) @ (z2 * psi2)
            assert opposite < 0
            assert matching > 0


class TestKernelMatrix:
    def test_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(1)
        table = random_table(rng, n=20, d=5)
        cos = kernel_matrix(table)
        np.testing.assert_allclose(cos, cos.T, atol=1e-12)
        np.testing.assert_allclose(np.diag(cos), 1.0, atol=1e-12)

    def test_zero_rows_get_zero_cosine(self):
        grads = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        table = GradientTable.uniform(grads)
        cos = kernel_matrix(table)
        assert np.all(cos[1, :] == 0.0) and np.all(cos[:, 1] == 0.0)

    def test_raw_matches_pairwise_kernel(self):
        # the cosine kernel scaled back by the row norms is the raw kernel
        rng = np.random.default_rng(2)
        table = random_table(rng, n=10, d=4)
        norms = np.linalg.norm(table.grads, axis=1)
        mat = kernel_matrix(table) * np.outer(norms, norms)
        for i in range(10):
            for j in range(10):
                assert mat[i, j] == pytest.approx(
                    table.grads[i] @ table.grads[j], rel=1e-12
                )

    def test_toy_block_sign_pattern(self):
        # easy-hard cross blocks predominantly negative, within-label
        # blocks predominantly positive (120 easy / 80 hard subsample)
        cfg = BanditConfig(separation=0.2, hard_fraction=0.3, seed=7)
        batch = sample_prompts(cfg, 6000)
        theta = reference_theta()
        grads = grad_success_probs(theta, batch)
        easy_idx = np.flatnonzero(~batch.hard_mask)[:120]
        hard_idx = np.flatnonzero(batch.hard_mask)[:80]
        sub = np.concatenate([easy_idx, hard_idx])
        table = GradientTable.uniform(grads[sub])
        cos = kernel_matrix(table)
        ee = cos[:120, :120]
        hh = cos[120:, 120:]
        eh = cos[:120, 120:]
        assert ee.mean() > 0 and (ee > 0).mean() > 0.75
        assert hh.mean() > 0 and (hh > 0).mean() > 0.75
        assert eh.mean() < 0 and (eh < 0).mean() > 0.75


class TestAgreementScores:
    def test_single_prompt(self):
        g = np.array([[0.4, -0.3]])
        table = GradientTable.uniform(g)
        assert agreement_scores(table)[0] == pytest.approx(float(g[0] @ g[0]))

    def test_dual_route_vs_kernel_row_mean(self):
        # direct inner product with the mean gradient equals the
        # mass-weighted row mean of the kernel matrix
        rng = np.random.default_rng(3)
        for _ in range(50):
            table = random_table(rng)
            direct = agreement_scores(table)
            via_kernel = (table.grads @ table.grads.T) @ table.mass
            np.testing.assert_allclose(direct, via_kernel, rtol=1e-12, atol=1e-14)

    def test_mean_agreement_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            table = random_table(rng)
            scores = agreement_scores(table)
            mean_score = ordered_dot(table.mass, scores)
            norm_sq = float(table.mean_grad @ table.mean_grad)
            scale = max(norm_sq, ordered_dot(table.mass, np.abs(scores)), 1e-300)
            assert abs(mean_score - norm_sq) <= 1e-10 * scale

    def test_agreement_bounded_by_score_bound(self):
        # |a| <= G * ||mean grad|| <= G^2 with G^2 the uniform batch bound
        cfg = BanditConfig(seed=6)
        batch = sample_prompts(cfg, 400)
        theta = reference_theta()
        from passklab import policy_regularity_constants

        g2, _ = policy_regularity_constants(batch)
        table = GradientTable.uniform(grad_success_probs(theta, batch))
        scores = agreement_scores(table)
        g_bound = np.sqrt(g2)
        assert np.all(
            np.abs(scores) <= g_bound * np.linalg.norm(table.mean_grad) + 1e-12
        )
        assert np.all(np.abs(scores) <= g2 + 1e-12)

    def test_hard_overlap_prompts_score_negative(self):
        cfg = BanditConfig(separation=0.2, hard_fraction=0.3, seed=7)
        batch = sample_prompts(cfg, 6000)
        theta = reference_theta()
        table = GradientTable.uniform(grad_success_probs(theta, batch))
        scores = agreement_scores(table)
        overlap_hard = batch.hard_mask & (np.abs(batch.features[:, 1]) <= 0.3)
        assert overlap_hard.sum() > 100
        assert np.all(scores[overlap_hard] < 0)


class TestClassifyInterference:
    """The interfering set and weight split that conflict_report classifies."""

    def two_point(self, k=10, margin=1e-3):
        batch, theta = overlap_pair()
        table = GradientTable.uniform(grad_success_probs(theta, batch), ids=batch.ids)
        profile = SuccessProfile.uniform(success_probs(theta, batch), ids=batch.ids)
        return conflict_report(table, profile, k, margin=margin), table, profile

    def test_two_point_sets_and_masses(self):
        from passklab import wk

        report, table, profile = self.two_point()
        # the hard prompt (index 1) carries the negative score
        assert report.neg_set == (1,)
        assert report.q == pytest.approx(0.5)
        w_e = wk(float(profile.probs[0]), 10)
        w_h = wk(float(profile.probs[1]), 10)
        assert report.w_minus == pytest.approx(w_h / 2, rel=1e-12)
        assert report.w_plus == pytest.approx(w_e / 2, rel=1e-12)
        assert report.w_minus + report.w_plus == pytest.approx(
            (w_e + w_h) / 2, abs=1e-12
        )

    def test_profile_carries_weights_and_mean_score(self):
        from passklab.objectives import wk_array

        report, table, profile = self.two_point()
        assert report.weights.tobytes() == wk_array(profile.probs, 10).tobytes()
        assert report.mean_score == ordered_dot(table.mass, report.scores)
        grads = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        profile = SuccessProfile.uniform([0.0, 0.5, 1.0])
        table = GradientTable.uniform(grads)
        report = conflict_report(table, profile, 3, margin=1e-6)
        assert report.weights == pytest.approx([3.0, 0.75, 0.0])

    def test_all_positive_scores(self):
        grads = np.array([[1.0, 0.0], [0.9, 0.1]])
        table = GradientTable.uniform(grads)
        profile = SuccessProfile.uniform([0.2, 0.8])
        report = conflict_report(table, profile, 5, margin=1e-6)
        assert report.neg_set == ()
        assert report.q == 0.0
        assert report.w_minus == 0.0

    def test_margin_beyond_all_scores(self):
        report, table, profile = self.two_point(margin=10.0)
        assert report.neg_set == ()

    def test_weight_split_totals(self):
        rng = np.random.default_rng(5)
        from passklab.objectives import wk_array

        for _ in range(100):
            table = random_table(rng)
            probs = rng.random(len(table))
            profile = SuccessProfile(probs=probs, mass=table.mass, ids=table.ids)
            k = int(rng.integers(1, 20))
            report = conflict_report(table, profile, k, margin=1e-4)
            total = ordered_dot(table.mass, wk_array(probs, k))
            assert report.w_minus + report.w_plus == pytest.approx(
                total, abs=1e-12
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        table = random_table(rng, n=12, d=3)
        probs = rng.random(12)
        profile = SuccessProfile(probs=probs, mass=table.mass, ids=table.ids)
        base = conflict_report(table, profile, 7, margin=1e-3)
        perm = rng.permutation(12)
        table_p = GradientTable(
            grads=table.grads[perm],
            mass=table.mass[perm],
            ids=[table.ids[i] for i in perm],
        )
        profile_p = SuccessProfile(
            probs=probs[perm], mass=table.mass[perm], ids=[table.ids[i] for i in perm]
        )
        shuffled = conflict_report(table_p, profile_p, 7, margin=1e-3)
        assert {table_p.ids[i] for i in shuffled.neg_set} == {
            table.ids[i] for i in base.neg_set
        }
        assert shuffled.q == pytest.approx(base.q, rel=1e-12)
        assert shuffled.w_minus == pytest.approx(base.w_minus, rel=1e-12)
        assert shuffled.w_plus == pytest.approx(base.w_plus, rel=1e-12)

    def test_margin_validation(self):
        _, table, profile = self.two_point()
        for margin in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="margin must be finite and > 0"):
                conflict_report(table, profile, 5, margin=margin)

    def test_alignment_checked(self):
        _, table, profile = self.two_point()
        bad = SuccessProfile.uniform(profile.probs, ids=("a", "b"))
        with pytest.raises(AlignmentError):
            conflict_report(table, bad, 5, margin=1e-3)


class TestGradientTableValidation:
    def test_mass_must_normalize(self):
        with pytest.raises(DomainError):
            GradientTable(grads=np.ones((2, 2)), mass=np.array([0.7, 0.7]), ids=(0, 1))
        # a NaN mass used to pass validation and give mean_grad = [nan, nan]
        with pytest.raises(DomainError):
            GradientTable(grads=np.ones((3, 2)), mass=[0.5, np.nan, 0.5], ids=(0, 1, 2))

    def test_uniform_needs_a_prompt(self):
        # a scalar is no (n, d) matrix either
        for grads in ([], 5.0):
            with pytest.raises(DomainError, match="nonempty"):
                GradientTable.uniform(grads)

    def test_uniform_at_a_million_prompts(self):
        n = 10**6
        table = GradientTable.uniform(np.ones((n, 2)))
        # the row sum is sequential, so only the n * eps error bound holds
        np.testing.assert_allclose(table.mean_grad, [1.0, 1.0], rtol=n * 2.0**-53)

    def test_mean_grad_computed(self):
        grads = np.array([[1.0, 0.0], [0.0, 1.0]])
        table = GradientTable.uniform(grads)
        np.testing.assert_allclose(table.mean_grad, [0.5, 0.5])


class TestCsvExports:
    def test_kernel_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        table = random_table(rng, n=5, d=3)
        mat = kernel_matrix(table)
        path = tmp_path / "kernel.csv"
        kernel_matrix_to_csv(mat, table.ids, path)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id"] + [str(i) for i in table.ids]
        parsed = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        np.testing.assert_allclose(parsed, mat, rtol=0, atol=0)
