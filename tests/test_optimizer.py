"""Ascent-step and trajectory tests, including the two-prompt golden run."""

import numpy as np
import pytest

from passklab import (
    BanditConfig,
    DomainError,
    PromptBatch,
    SuccessProfile,
    ascent_step,
    evaluate_state,
    grad_success_probs,
    max_safe_step,
    overlap_pair,
    policy_regularity_constants,
    run_trajectory,
    sample_prompts,
    smoothness_constants,
    success_probs,
)
from passklab.bandit import EASY, HARD
from passklab.conflict import assemble_passk_gradient
from passklab.interference import GradientTable, agreement_scores
from passklab.optimizer import trajectory_to_csv

from oracles import batch_objective


class TestAscentStep:
    def test_two_point_golden_update(self):
        # single step with step size 5 on the 10-attempt objective:
        # 1-attempt value drops 0.48 -> ~0.46, 10-attempt rises 0.83 -> ~0.95
        batch, theta = overlap_pair()
        before = evaluate_state(theta, batch, 10)
        assert before.j1_pop == pytest.approx(0.48, abs=0.01)
        assert before.jk_pop == pytest.approx(0.83, abs=0.01)
        theta_plus, record = ascent_step(theta, batch, 10, 5.0)
        after = evaluate_state(theta_plus, batch, 10)
        assert after.j1_pop == pytest.approx(0.46, abs=0.01)
        assert after.jk_pop == pytest.approx(0.95, abs=0.01)
        assert after.j1_pop < before.j1_pop
        assert after.jk_pop > before.jk_pop

    def test_record_is_pre_update_state(self):
        batch, theta = overlap_pair()
        _, record = ascent_step(theta, batch, 10, 5.0)
        np.testing.assert_array_equal(record.theta, theta)
        assert record.j1_pop == pytest.approx(0.48, abs=1e-12)

    def test_record_direction_is_assembled_gradient(self):
        cfg = BanditConfig(seed=3)
        batch = sample_prompts(cfg, 300)
        theta = np.array([-1.5, -2.5])
        table = GradientTable.uniform(grad_success_probs(theta, batch), ids=batch.ids)
        profile = SuccessProfile.uniform(success_probs(theta, batch), ids=batch.ids)
        expected = assemble_passk_gradient(table, profile, 5)
        assert evaluate_state(theta, batch, 5).grad_k.tobytes() == expected.tobytes()

    def test_eta_zero_rejected(self):
        batch, theta = overlap_pair()
        with pytest.raises(DomainError):
            ascent_step(theta, batch, 10, 0.0)

    def test_k1_small_step_increases_j1(self):
        batch, theta = overlap_pair()
        theta_plus, _ = ascent_step(theta, batch, 1, 0.1)
        assert batch_objective(theta_plus, batch, 1) > batch_objective(theta, batch, 1)


class TestTrajectory:
    def test_single_step_reproduces_ascent_step(self):
        cfg = BanditConfig(seed=7)
        records = run_trajectory(cfg, k=5, eta=1.0, steps=1, n=200)
        assert len(records) == 2
        assert [r.step for r in records] == [0, 1]
        batch = sample_prompts(cfg, 200)
        theta_plus, rec0 = ascent_step(None or records[0].theta, batch, 5, 1.0)
        assert records[0].j1_pop == rec0.j1_pop
        assert records[0].inner_product == rec0.inner_product
        np.testing.assert_array_equal(records[1].theta, theta_plus)

    def test_deterministic(self):
        cfg = BanditConfig(seed=11)
        a = run_trajectory(cfg, k=5, eta=0.5, steps=5, n=300)
        b = run_trajectory(cfg, k=5, eta=0.5, steps=5, n=300)
        for ra, rb in zip(a, b, strict=True):
            np.testing.assert_array_equal(ra.theta, rb.theta)
            assert ra.row() == rb.row()

    def test_label_decomposition(self):
        # population value = hard_frac * hard mean + (1 - hard_frac) * easy mean
        cfg = BanditConfig(seed=7)
        batch = sample_prompts(cfg, 500)
        hf = batch.hard_mask.mean()
        records = run_trajectory(cfg, k=5, eta=1.0, steps=3, n=500)
        for r in records:
            recombined = hf * r.j1_hard + (1 - hf) * r.j1_easy
            assert abs(recombined - r.j1_pop) <= 1e-10
            recombined_k = hf * r.jk_hard + (1 - hf) * r.jk_easy
            assert abs(recombined_k - r.jk_pop) <= 1e-10

    def test_default_config_direction(self):
        # 5-attempt ascent from the reference parameter: the 5-attempt
        # objective ends higher and the 1-attempt objective ends lower
        records = run_trajectory(BanditConfig(), k=5, eta=1.0, steps=100)
        assert records[-1].jk_pop > records[0].jk_pop
        assert records[-1].j1_pop < records[0].j1_pop

    @staticmethod
    def certified_run(batch, theta, margin):
        """Certified run whose every step is checked against max_safe_step."""
        records = run_trajectory(
            BanditConfig(), theta0=theta, k=10, eta=None, steps=25,
            margin=margin, batch=batch,
        )
        g2, f = policy_regularity_constants(batch)
        _, lk, c2 = smoothness_constants(g2, f, 10)
        for prev, nxt in zip(records[:-1], records[1:]):
            assert prev.delta_bound > 0
            step = max_safe_step(prev.delta_bound, c2, lk)
            assert prev.eta_max == step
            assert nxt.theta.tobytes() == (prev.theta + step * prev.grad_k).tobytes()
        return records

    def test_certified_mode_strictly_decreases_j1(self):
        # eta=None recomputes the certified step each iteration while the
        # certificate margin stays positive; every such step must lower
        # the 1-attempt objective
        batch, theta = overlap_pair()
        records = self.certified_run(batch, theta, 1e-3)
        assert len(records) >= 5
        j1 = [r.j1_pop for r in records]
        assert all(b < a for a, b in zip(j1[:-1], j1[1:], strict=True))

    def test_certified_run_stops_at_first_nonpositive_delta(self):
        # the hard prompt's agreement score starts just below -margin and
        # rises past it after a few certified steps, so delta turns negative
        batch = PromptBatch(
            ids=("h", "e"),
            features=[[1.0, 0.1], [1.0, 0.4]],
            labels=[HARD, EASY],
            correct_actions=[1, 0],
        )
        theta = np.array([0.4, 1.34])
        table = GradientTable.uniform(grad_success_probs(theta, batch))
        margin = float(-agreement_scores(table).min()) * (1 - 1e-6)
        records = self.certified_run(batch, theta, margin)
        assert 1 < len(records) < 26
        assert records[-1].delta_bound <= 0
        assert records[-1].eta_max is None

    def test_steps_validation(self):
        with pytest.raises(DomainError):
            run_trajectory(BanditConfig(), k=5, eta=1.0, steps=0, n=10)

    def test_csv_export(self, tmp_path):
        import csv

        cfg = BanditConfig(seed=2)
        records = run_trajectory(cfg, k=3, eta=0.5, steps=2, n=50)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(records, path)
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "step"
        assert len(rows) == len(records) + 1
        assert float(rows[1][1]) == records[0].j1_pop
