"""One-step and trajectory tests, including the two-prompt golden run."""

import dataclasses
import math

import numpy as np
import pytest

from passklab import (
    BanditConfig,
    DomainError,
    PromptBatch,
    SuccessProfile,
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
from passklab import bandit, objectives
from passklab.bandit import EASY, HARD
from passklab.conflict import assemble_passk_gradient
from passklab.interference import GradientTable, agreement_scores
from passklab.objectives import weighted_row_sum
from passklab.optimizer import trajectory_to_csv

from oracles import batch_objective, reference_state


class TestAscentStep:
    def test_two_point_golden_update(self):
        # single step with step size 5 on the 10-attempt objective:
        # 1-attempt value drops 0.48 -> ~0.46, 10-attempt rises 0.83 -> ~0.95
        batch, theta = overlap_pair()
        before, after = run_trajectory(
            theta0=theta, k=10, eta=5.0, steps=1, batch=batch
        )
        assert before.j1_pop == pytest.approx(0.48, abs=0.01)
        assert before.jk_pop == pytest.approx(0.83, abs=0.01)
        assert after.j1_pop == pytest.approx(0.46, abs=0.01)
        assert after.jk_pop == pytest.approx(0.95, abs=0.01)
        assert after.j1_pop < before.j1_pop
        assert after.jk_pop > before.jk_pop

    def test_record_is_pre_update_state(self):
        batch, theta = overlap_pair()
        record, _ = run_trajectory(theta0=theta, k=10, eta=5.0, steps=1, batch=batch)
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
            run_trajectory(theta0=theta, k=10, eta=0.0, steps=1, batch=batch)

    @pytest.mark.parametrize("eta", [math.inf, math.nan])
    def test_eta_must_be_finite(self, eta):
        batch, theta = overlap_pair()
        with pytest.raises(DomainError, match="eta must be > 0"):
            run_trajectory(theta0=theta, k=10, eta=eta, steps=1, batch=batch)

    def test_k1_small_step_increases_j1(self):
        batch, theta = overlap_pair()
        _, after = run_trajectory(theta0=theta, k=1, eta=0.1, steps=1, batch=batch)
        assert batch_objective(after.theta, batch, 1) > batch_objective(theta, batch, 1)

    def test_one_evaluation_checks_mass_once_and_takes_one_logit(self, monkeypatch):
        # the batch checks its mass and takes its constants once, when built;
        # each evaluation then takes one logit
        calls = {"check_mass": 0, "expit": 0, "policy_regularity_constants": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        check_mass = counted("check_mass", objectives.check_mass)
        for module in (objectives, bandit):
            monkeypatch.setattr(module, "check_mass", check_mass)
        monkeypatch.setattr(bandit, "expit", counted("expit", bandit.expit))
        monkeypatch.setattr(
            bandit, "policy_regularity_constants",
            counted("policy_regularity_constants", bandit.policy_regularity_constants),
        )
        batch = sample_prompts(BanditConfig(seed=3), 300)
        for theta in ([-1.5, -2.5], [0.5, 1.0]):
            evaluate_state(np.array(theta), batch, 5)
        assert calls == {"check_mass": 1, "expit": 2, "policy_regularity_constants": 1}

    def test_one_evaluation_takes_one_log1p_over_the_entries_below_half(self, monkeypatch):
        # f_1, f_k and w_k all finish from the step profile's one split
        sizes = []
        log1p = np.log1p

        def counted(x, *args, **kwargs):
            sizes.append(np.size(x))
            return log1p(x, *args, **kwargs)

        monkeypatch.setattr(np, "log1p", counted)
        batch = sample_prompts(BanditConfig(seed=3), 300)
        for theta in ([-1.5, -2.5], [0.5, 1.0]):
            sizes.clear()
            evaluate_state(np.array(theta), batch, 5)
            below = int(np.count_nonzero(success_probs(np.array(theta), batch) < 0.5))
            assert 0 < below < 300
            assert sizes == [below]


class TestReferenceState:
    """evaluate_state against its plain definition, field by field and bit
    for bit: a step refactor that moves a bit fails here."""

    @staticmethod
    def assert_same_bits(record, want: dict) -> None:
        assert set(want) == {f.name for f in dataclasses.fields(record)}
        for name, value in want.items():
            got = getattr(record, name)
            if isinstance(value, np.ndarray):
                assert got.tobytes() == value.tobytes(), name
            elif isinstance(value, float):
                assert got.hex() == value.hex(), name
            else:
                assert got == value, name

    @pytest.mark.parametrize("k", [1, 5, 10])
    @pytest.mark.parametrize("theta", [[-1.2, -2.9], [0.0, 0.0], [0.8, 3.5]])
    def test_matches_the_plain_step(self, theta, k):
        batch = sample_prompts(BanditConfig(), 600)
        want = reference_state(theta, batch, k)
        self.assert_same_bits(evaluate_state(np.array(theta), batch, k), want)

    def test_matches_with_a_certified_step(self):
        batch, theta = overlap_pair()
        want = reference_state(theta, batch, 10, margin=1e-3)
        assert want["eta_max"] is not None
        self.assert_same_bits(evaluate_state(theta, batch, 10, margin=1e-3), want)


class TestTrajectory:
    def test_single_step_moves_eta_along_grad_k(self):
        eta = 1.0
        records = run_trajectory(BanditConfig(seed=7), k=5, eta=eta, steps=1, n=200)
        assert [r.step for r in records] == [0, 1]
        expected = records[0].theta + eta * records[0].grad_k
        assert records[1].theta.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("steps", [True, 2.0])
    def test_step_count_must_be_an_integer(self, steps):
        # True ran one step; 2.0 raised range's TypeError
        with pytest.raises(DomainError, match=f"steps must be an integer, got {steps!r}"):
            run_trajectory(steps=steps, n=50)

    def test_deterministic(self):
        cfg = BanditConfig(seed=11)
        a = run_trajectory(cfg, k=5, eta=0.5, steps=5, n=300)
        b = run_trajectory(cfg, k=5, eta=0.5, steps=5, n=300)
        for ra, rb in zip(a, b, strict=True):
            np.testing.assert_array_equal(ra.theta, rb.theta)
            assert ra.row() == rb.row()

    def test_config_defaults_to_bandit_config(self):
        a = run_trajectory(k=5, eta=0.5, steps=2, n=100)
        b = run_trajectory(BanditConfig(), k=5, eta=0.5, steps=2, n=100)
        assert [r.row() for r in a] == [r.row() for r in b]

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
            theta0=theta, k=10, eta=None, steps=25, margin=margin, batch=batch
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
        mean_grad = weighted_row_sum(batch.mass, table.grads)
        margin = float(-agreement_scores(table, mean_grad).min()) * (1 - 1e-6)
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

    def test_all_easy_batch_has_no_hard_means(self, tmp_path):
        import csv
        import math

        records = run_trajectory(
            BanditConfig(hard_fraction=0.0, seed=2), k=3, eta=0.5, steps=1, n=50
        )
        path = tmp_path / "traj.csv"
        trajectory_to_csv(records, path)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        for record, row in zip(records, rows, strict=True):
            assert math.isnan(record.j1_hard) and math.isnan(record.jk_hard)
            assert record.j1_easy == record.j1_pop
            assert row["j1_hard"] == row["jk_hard"] == "nan"
