"""Monte Carlo estimator tests against the exact closed forms."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

from passklab import (
    AlignmentError,
    BanditConfig,
    DomainError,
    SuccessProfile,
    conflict_report,
    empirical_profile,
    grad_success_probs,
    mc_grad_passk,
    overlap_pair,
    reference_theta,
    sample_actions,
    sample_prompts,
    success_probs,
)
from passklab import mc
from passklab.bandit import PromptBatch, expit
from passklab.conflict import assemble_passk_gradient
from passklab.interference import GradientTable
from passklab.mc import (
    CHUNK_PROMPTS,
    SampleSet,
    export_samples,
    import_samples,
    prompt_rng,
)
from passklab.objectives import weighted_row_sum, wk_array

from oracles import block_mean_grad, import_samples_per_line


class Alias:
    """Equal to, and hashed as, the str it stands for, but not a str."""

    def __init__(self, text):
        self.text = text

    def __eq__(self, other):
        return self.text == other

    def __hash__(self):
        return hash(self.text)

    def __repr__(self):
        return f"Alias({self.text!r})"


def make_samples(rewards, scores, pid="p"):
    n = len(rewards)
    return SampleSet([pid], [0, n], np.zeros(n, dtype=int), rewards, scores)


class TestSampleSetValidation:
    def test_rejects_noninteger_rewards(self):
        with pytest.raises(DomainError):
            make_samples([0.5], [[1.0, 2.0]])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_nonfinite_scores_rejected_when_built(self, bad):
        # the file rule: such a set would neither export nor estimate
        with pytest.raises(DomainError, match="score entries must be finite"):
            make_samples([1.0, 0.0], [[bad, 0.0], [1.0, 2.0]])
        with pytest.raises(DomainError, match="score entries must be finite"):
            SampleSet(("a",), [0, 1], np.array([1]), [1.0], [[bad]])

    def test_scores_without_a_dimension_rejected(self):
        # such a set would export "score": [], which no file may hold
        with pytest.raises(DomainError, match=r"scores must be \(N, d\), d >= 1"):
            SampleSet(("a",), [0, 1], np.array([1]), [1.0], np.zeros((1, 0)))

    def test_unequal_draw_counts_from_arrays(self):
        ss = SampleSet(
            ("a", "b", "c"),
            [0, 2, 3, 7],
            [1, 0, 1, 0, 0, 1, 1],
            [1.0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0],
            np.arange(14.0).reshape(7, 2),
        )
        assert [b.n for b in ss.blocks] == [2, 1, 4]
        assert len(ss) == 3 and ss.dim == 2
        np.testing.assert_array_equal(ss["c"].scores, np.arange(6.0, 14.0).reshape(4, 2))
        assert_same_bits(empirical_profile(ss).probs, [0.5, 1.0, 0.5])

    def test_unequal_draw_counts_from_file(self, tmp_path):
        # prompt b's draws are split by a's; the set groups them in file order
        path = tmp_path / "unequal.jsonl"
        rows = [("a", 1, 1, [0.5, 1.0]), ("b", 0, 0, [2.0, 3.0]),
                ("a", 0, 0, [4.0, 5.0]), ("b", 1, 1, [6.0, 7.0]),
                ("b", 1, 0, [8.0, 9.0])]
        path.write_text("".join(
            json.dumps({"prompt_id": p, "action": a, "reward": r, "score": s}) + "\n"
            for p, a, r, s in rows
        ))
        ss = import_samples(path)
        assert ss.ids == ("a", "b")
        assert ss.offsets.tolist() == [0, 2, 5]
        assert ss.actions.tolist() == [1, 0, 0, 1, 1]
        assert ss.rewards.tolist() == [1.0, 0.0, 0.0, 1.0, 0.0]
        assert ss["b"].scores.tolist() == [[2.0, 3.0], [6.0, 7.0], [8.0, 9.0]]

    @pytest.mark.parametrize(
        "ids,offsets,actions,rewards,scores",
        [
            (("a",), [0, 2], [0, 1], [0.0, 0.5], [[1.0], [2.0]]),  # bad reward
            (("a",), [0, 2], [0, 1], [0.0, 1.0], [[1.0, 2.0], [3.0]]),  # ragged
            ((), [0], [], [], np.zeros((0, 2))),  # empty
            (("a", "b"), [0, 2, 2], [0, 1], [0.0, 1.0], [[1.0], [2.0]]),  # no draws
            (("a",), [0, 2], [0, 1], [0.0, 1.0], [1.0, 2.0]),  # no draw axis
            (("a", "b", "a"), [0, 1, 2, 3], [0, 1, 0], [0.0, 1.0, 0.0], [[1.0]] * 3),
            (("a",), [0, 2], [[0, 1]], [0.0, 1.0], [[1.0], [2.0]]),  # 2-d actions
            (("a",), [0, 2], [0, 1], [0.0, 1.0, 1.0], [[1.0], [2.0]]),  # long rewards
        ],
    )
    def test_from_arrays_rejects(self, ids, offsets, actions, rewards, scores):
        with pytest.raises(DomainError):
            SampleSet(ids, offsets, actions, rewards, scores)

    @pytest.mark.parametrize(
        "offsets", [[0, 2.7, 3], np.array([0.0, 2.0, 3.0]), [0, "1"], [False, True]],
        ids=["fraction", "float", "text", "bool"],
    )
    def test_offsets_must_be_integers(self, offsets):
        n = int(offsets[-1])
        with pytest.raises(DomainError, match="^offsets must be integers, not "):
            SampleSet(("a", "b")[: len(offsets) - 1], offsets, [0] * n, [0.0] * n, [[1.0]] * n)

    @pytest.mark.parametrize(
        "offsets,actions,message",
        [
            ([0, 2], [True, 0], "actions must be the integers 0 or 1"),
            ([0, 2], (0, np.True_), "actions must be the integers 0 or 1"),
            ([0, 2], [np.array(True), 0], "actions must be the integers 0 or 1"),
            ([0, True, 2], [1, 0], "offsets must be integers, not bool"),
            ((0, np.True_, 2), [1, 0], "offsets must be integers, not bool"),
        ],
        ids=["actions", "actions-numpy-bool", "actions-0d-array", "offsets",
             "offsets-numpy-bool"],
    )
    def test_a_list_that_mixes_bools_with_integers(self, offsets, actions, message):
        # numpy reads [True, 0] as the integers [1, 0], so each was stored
        ids = ("a", "b")[: len(offsets) - 1]
        with pytest.raises(DomainError, match=f"^{message}$"):
            SampleSet(ids, offsets, actions, [0.0, 1.0], [[1.0], [2.0]])

    def test_an_input_refused_for_another_rule_keeps_its_message(self):
        scores = [[1.0], [2.0]]
        with pytest.raises(DomainError, match="^offsets must be integers, not float64$"):
            SampleSet(("a", "b"), [0, True, 2.5], [True, 0], [0.0, 1.0], scores)
        with pytest.raises(DomainError, match="^prompt id 'a' appears more than once$"):
            SampleSet(("a", "a"), [0, 1, 2], [True, 0], [0.0, 1.0], scores)

    def test_integer_arrays_are_not_scanned(self):
        # the bool rule reads lists only: an integer array passes on its dtype
        class Unscannable(np.ndarray):
            def __iter__(self):
                raise AssertionError("an integer array was scanned")

        offsets, actions = np.array([0, 1, 3]), np.array([1, 0, 1])
        ss = SampleSet(("a", "b"), offsets.view(Unscannable), actions.view(Unscannable),
                       [1.0, 0.0, 1.0], [[1.0], [2.0], [3.0]])
        assert ss.actions.tolist() == [1, 0, 1] and ss.offsets.tolist() == [0, 1, 3]

    @pytest.mark.parametrize(
        "actions,rewards,scores,message",
        [
            ([2, 0.7], [1, 0], [[1.0], ["1.5"]],
             'score entries must be finite numbers, got "1.5"'),
            ([2, 0.7], [1, 0], [[1.0], [1.5]], "actions must be the integers"),
            ([2, 0], [1, 0], [[1.0], [1.5]], "actions must be the integers"),
            ([-1, 0], [1, 0], [[1.0], [1.5]], "actions must be the integers"),
            ([1.0, 0.0], [1, 0], [[1.0], [1.5]], "actions must be the integers"),
            ([True, False], [1, 0], [[1.0], [1.5]], "actions must be the integers"),
            ([1, 0], ["1", "0"], [[1.0], [1.5]],
             'reward entries must be finite numbers, got "1"'),
            ([1, 0], [1, 0], [[1.0], [None]],
             "score entries must be finite numbers, got null"),
            ([1, 0], [True, False], [[1.0], [1.5]],
             "reward entries must be finite numbers, got true"),
            ([1, 0], [1, 0], [[True], [1.5]],
             "score entries must be finite numbers, got true"),
        ],
        ids=["text-score", "fraction", "two", "minus-one", "float", "bool",
             "text-reward", "null-score", "bool-reward", "bool-score"],
    )
    def test_from_arrays_keeps_the_file_rule(self, actions, rewards, scores, message):
        # before the number rule, each was stored (0.7 truncated, text parsed,
        # true as 1.0) or refused in words of its own; a bad reward or score
        # entry is now named with the file's field, as JSON writes it
        with pytest.raises(DomainError, match=message):
            SampleSet(("a",), [0, 2], actions, rewards, scores)

    def test_repeated_prompt_id_rejected(self):
        # the batch refuses the repeat, so sample_actions never streams it
        batch = sample_prompts(BanditConfig(seed=4), 3)
        with pytest.raises(DomainError, match="prompt id 'x' appears more than once"):
            PromptBatch(
                ids=("x", "y", "x"),
                features=batch.features,
                labels=batch.labels,
                correct_actions=batch.correct_actions,
            )

    @pytest.mark.parametrize("ids", [(0, 1, 2), ("a", None, "c"), ("a", "b", ("c",))])
    def test_batch_with_non_string_id_rejected(self, ids):
        # the batch refuses the id, so sample_actions never draws for it.  A
        # profile's ids need not be str: its pass of the same tuple is not
        # the batch's, and the refusal holds on every call
        SuccessProfile.uniform([0.5] * 3, ids=ids)
        batch = sample_prompts(BanditConfig(seed=4), 3)
        bad = next(pid for pid in ids if not isinstance(pid, str))
        for _ in range(2):
            with pytest.raises(DomainError) as exc:
                PromptBatch(
                    ids=ids,
                    features=batch.features,
                    labels=batch.labels,
                    correct_actions=batch.correct_actions,
                )
            assert str(exc.value) == f"prompt_id must be a string, got {bad!r}"

    def test_unknown_prompt(self):
        ss = make_samples([1.0], [[1.0, 2.0]])
        with pytest.raises(DomainError, match="unknown prompt"):
            ss["nope"]

    @pytest.mark.parametrize("pid", [None, 1, ("a",), Alias("b")])
    def test_non_string_id_rejected(self, pid):
        # ids are checked once per tuple object and a refused tuple is never
        # kept: each call refuses, also right after ("a", "b"), which
        # ("a", Alias("b")) equals, passed
        ids = ("a", pid)
        for _ in range(2):
            SampleSet(("a", "b"), [0, 1, 2], [0, 1], [0.0, 1.0], [[1.0], [2.0]])
            with pytest.raises(DomainError) as exc:
                SampleSet(ids, [0, 1, 2], [0, 1], [0.0, 1.0], [[1.0], [2.0]])
            assert str(exc.value) == f"prompt_id must be a string, got {pid!r}"

    def test_sets_over_one_ids_tuple_find_their_own_rows(self):
        # the tuple is checked once, but each set builds its own id-to-row
        # index, on its first lookup
        ids = ("p", "q")
        one = SampleSet(ids, [0, 1, 3], [1, 0, 1], [1.0, 0.0, 1.0], [[1.0], [2.0], [3.0]])
        two = SampleSet(ids, [0, 2, 3], [1, 0, 1], [1.0, 0.0, 1.0], [[1.0], [2.0], [3.0]])
        assert one["q"].scores.tolist() == [[2.0], [3.0]]
        assert two["q"].scores.tolist() == [[3.0]]
        assert two["p"].n == 2 and one["p"].n == 1
        for pid in ("r", ["p"]):
            with pytest.raises(DomainError, match="unknown prompt id"):
                two[pid]

    @pytest.mark.parametrize("pid", [1, ["1"]])
    def test_lookup_takes_the_id_as_given(self, pid):
        ss = SampleSet(("1",), [0, 1], [1], [1.0], [[1.0]])
        with pytest.raises(DomainError, match="unknown prompt"):
            ss[pid]


class TestPerPromptGradient:
    """Row i of SampleSet.table is prompt i's estimate of grad p_i."""

    def test_all_rewards_zero(self):
        ss = make_samples([0, 0, 0], [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        np.testing.assert_array_equal(ss.table.grads[0], [0.0, 0.0])

    def test_single_correct_sample(self):
        ss = make_samples([1], [[0.25, -0.5]])
        np.testing.assert_array_equal(ss.table.grads[0], [0.25, -0.5])

    def test_large_sample_matches_closed_form(self):
        batch, theta = overlap_pair()
        ss = sample_actions(theta, batch, 200_000, seed=123)
        exact = grad_success_probs(theta, batch)
        for i, pid in enumerate(batch.ids):
            block = ss[pid]
            rs = block.rewards[:, None] * block.scores
            se = rs.std(axis=0, ddof=1) / np.sqrt(block.n)
            dev = np.abs(ss.table.grads[i] - exact[i])
            assert np.all(dev <= 3 * se + 1e-12)

    def test_unbiased_over_replications(self):
        # mean over 1000 seeded replications within 4 standard errors
        cfg = BanditConfig(seed=3)
        batch = sample_prompts(cfg, 5)
        theta = np.array([-0.5, 0.8])
        exact = grad_success_probs(theta, batch)
        reps = np.array(
            [
                sample_actions(theta, batch, 100, seed=5000 + r).table.grads
                for r in range(1000)
            ]
        )
        mean = reps.mean(axis=0)
        se = reps.std(axis=0, ddof=1) / np.sqrt(reps.shape[0])
        assert np.all(np.abs(mean - exact) <= 4 * se)


class TestMcGradPassK:
    def test_k1_reduces_to_mean(self):
        batch, theta = overlap_pair()
        ss = sample_actions(theta, batch, 500, seed=9)
        prof = empirical_profile(ss)
        expected = np.zeros(2)
        for pid in batch.ids:
            expected += block_mean_grad(ss, pid) / len(batch)
        np.testing.assert_allclose(mc_grad_passk(ss, prof, 1), expected, rtol=1e-12)

    def test_all_success_zero_vector(self):
        ss = SampleSet(("a", "b"), [0, 3, 6], np.ones(6, int), np.ones(6),
                       np.full((6, 2), 0.5))
        prof = SuccessProfile.uniform([1.0, 1.0], ids=("a", "b"))
        np.testing.assert_array_equal(mc_grad_passk(ss, prof, 4), [0.0, 0.0])

    def test_matches_exact_gradient_with_exact_probs(self):
        batch, theta = overlap_pair()
        prof = SuccessProfile.uniform(success_probs(theta, batch), ids=batch.ids)
        ss = sample_actions(theta, batch, 200_000, seed=321)
        est = mc_grad_passk(ss, prof, 10)
        table = GradientTable.uniform(grad_success_probs(theta, batch), ids=batch.ids)
        exact = assemble_passk_gradient(table, prof, 10)
        # delta-method SE: weights are constants, only the per-prompt
        # gradient estimates fluctuate
        from passklab.objectives import wk_array

        w = wk_array(prof.probs, 10)
        var = np.zeros(2)
        for i, pid in enumerate(batch.ids):
            block = ss[pid]
            rs = block.rewards[:, None] * block.scores
            var += (prof.mass[i] * w[i]) ** 2 * rs.var(axis=0, ddof=1) / block.n
        se = np.sqrt(var)
        assert np.all(np.abs(est - exact) <= 3 * se + 1e-12)

    def test_misaligned_profile_rejected(self):
        batch, theta = overlap_pair()
        ss = sample_actions(theta, batch, 10, seed=1)
        prof = SuccessProfile.uniform([0.5, 0.5], ids=("x_h", "x_e"))
        with pytest.raises(AlignmentError):
            mc_grad_passk(ss, prof, 3)

    def test_profile_mass_weights_the_prompts(self):
        batch, theta = overlap_pair()
        ss = sample_actions(theta, batch, 10, seed=1)
        skewed = SuccessProfile([0.5, 0.5], [0.25, 0.75], ss.ids)
        want = weighted_row_sum(skewed.mass * wk_array(skewed.probs, 3), ss.table.grads)
        assert_same_bits(mc_grad_passk(ss, skewed, 3), want)

    def test_sampled_conflict_report(self):
        # a sample set's table and empirical profile are a conflict_report
        # input; the report's direct route is the mc estimate itself
        batch = sample_prompts(BanditConfig(seed=7), 300)
        ss = sample_actions(reference_theta(), batch, 64, seed=5)
        emp = empirical_profile(ss)
        report = conflict_report(ss.table, emp, 10)  # raises if a check fails
        assert_same_bits(report.grad_k, mc_grad_passk(ss, emp, 10))

    def test_scored_means_reduced_once_per_set(self, monkeypatch):
        batch, theta = overlap_pair()
        ss = sample_actions(theta, batch, 50, seed=3)
        emp = empirical_profile(ss)
        exact = SuccessProfile.uniform(success_probs(theta, batch), ids=batch.ids)
        reduce = mc._reward_score_means
        calls = []
        monkeypatch.setattr(
            mc, "_reward_score_means", lambda s: calls.append(s) or reduce(s)
        )
        mc_grad_passk(ss, emp, 3)
        mc_grad_passk(ss, exact, 3)
        assert calls == [ss]
        with pytest.raises(ValueError):
            ss.table.grads[0, 0] = 1.0

    def test_inverse_sqrt_rate(self):
        # squared-error RMS over 50 seeds should halve when n quadruples
        batch, theta = overlap_pair()
        prof = SuccessProfile.uniform(success_probs(theta, batch), ids=batch.ids)
        table = GradientTable.uniform(grad_success_probs(theta, batch), ids=batch.ids)
        exact = assemble_passk_gradient(table, prof, 10)

        def rms_error(n):
            errs = [
                np.linalg.norm(
                    mc_grad_passk(sample_actions(theta, batch, n, seed=s), prof, 10)
                    - exact
                )
                ** 2
                for s in range(100, 150)
            ]
            return np.sqrt(np.mean(errs))

        ratio = rms_error(8000) / rms_error(2000)
        assert 0.4 <= ratio <= 0.625


class TestPluginWeightBias:
    def test_bias_positive_and_shrinking_in_n(self):
        # exact binomial enumeration of E[w_k(c/n)]: the plug-in weight is
        # biased upward (w_k convex in p) and the bias shrinks with n
        import math

        from passklab import wk

        p, k = 0.10, 10

        def exact_bias(n):
            mean = sum(
                math.comb(n, c) * p**c * (1 - p) ** (n - c) * wk(c / n, k)
                for c in range(n + 1)
            )
            return mean - wk(p, k)

        bias_small = exact_bias(20)
        bias_large = exact_bias(320)
        assert bias_small > 0
        assert bias_large > 0
        assert bias_large < bias_small / 4


class TestStreams:
    def test_streams_keyed_by_id_not_position(self):
        # the same prompt id yields the same draws regardless of batch makeup
        cfg = BanditConfig(seed=17)
        batch = sample_prompts(cfg, 6)
        theta = np.array([0.2, -0.2])
        full = sample_actions(theta, batch, 50, seed=99)
        subset = PromptBatch(
            ids=batch.ids[2:4],
            features=batch.features[2:4],
            labels=batch.labels[2:4],
            correct_actions=batch.correct_actions[2:4],
        )
        partial = sample_actions(theta, subset, 50, seed=99)
        for pid in subset.ids:
            np.testing.assert_array_equal(full[pid].actions, partial[pid].actions)

    # keys across the one-word / two-word boundary; the seeds give one,
    # two, three and four entropy words (3 + 2 > 4 puts the key's high word
    # past SeedSequence's pool, and 4 + 2 both key words)
    EDGE_KEYS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)

    @staticmethod
    def key_stream(seed, key, n):
        return np.random.default_rng(np.random.SeedSequence([seed, key])).random(n)

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 5, 2**96 + 7])
    @pytest.mark.parametrize("key", EDGE_KEYS)
    def test_edge_key_one_long_stream(self, seed, key):
        # the kernel itself: _uniform_draws reads so short a batch from prompt_rng
        got = np.empty((1, 1000))
        mc._pcg64_doubles(mc._pcg64_seeds(seed, np.array([key], dtype=np.uint64)), got)
        assert_same_bits(got[0], self.key_stream(seed, key, 1000))

    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 5, 2**96 + 7])
    def test_edge_keys_many_short_streams(self, seed):
        # one- and two-word keys interleave across the batch of one mix
        keys = [self.EDGE_KEYS[i % len(self.EDGE_KEYS)] for i in range(1500)]
        got = np.empty((len(keys), 1))
        mc._pcg64_doubles(mc._pcg64_seeds(seed, np.array(keys, dtype=np.uint64)), got)
        for key, row in zip(keys, got):
            assert_same_bits(row, self.key_stream(seed, key, 1))

    def test_edge_keys_through_sample_actions(self, monkeypatch):
        # sample_actions reads the keys of its ids, the reference each id's key
        def key(pid):
            return self.EDGE_KEYS[int(pid) % len(self.EDGE_KEYS)]

        monkeypatch.setattr(mc, "_stream_key", key)
        monkeypatch.setattr(
            mc, "_stream_keys", lambda ids: np.array(list(map(key, ids)), dtype=np.uint64)
        )
        batch = sample_prompts(BanditConfig(seed=4), 12)
        theta = np.array([0.3, -0.7])
        ss = sample_actions(theta, batch, 9, seed=2**64 + 5)
        ref = reference_sample_actions(theta, batch, 9, seed=2**64 + 5)
        assert_same_bits(ss.actions, np.concatenate([b.actions for b in ref.blocks]))

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_draw_count_below_one(self, n):
        batch, theta = overlap_pair()
        with pytest.raises(DomainError, match=f"n must be >= 1, got {n}"):
            sample_actions(theta, batch, n, 0)

    @pytest.mark.parametrize("n", [2.0, True, "4"])
    def test_rejects_draw_count_that_is_not_an_integer(self, n):
        # 2.0 and "4" raised a bare TypeError; True drew one action each
        batch, theta = overlap_pair()
        with pytest.raises(DomainError, match=f"n must be an integer, got {n!r}"):
            sample_actions(theta, batch, n, 0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_rejects_bad_seed(self, seed):
        batch = sample_prompts(BanditConfig(seed=4), 3)
        with pytest.raises(DomainError, match="seed"):
            sample_actions(np.array([0.3, -0.7]), batch, 4, seed=seed)

    @pytest.mark.parametrize("seed", [-1, True])
    def test_prompt_rng_rejects_bad_seed(self, seed):
        with pytest.raises(DomainError, match=f"seed must be an integer >= 0, got {seed!r}"):
            prompt_rng(seed, "p")

    def test_numpy_integer_seed(self):
        batch = sample_prompts(BanditConfig(seed=4), 3)
        theta = np.array([0.3, -0.7])
        a = sample_actions(theta, batch, 4, seed=np.uint64(7))
        assert_same_bits(a.actions, sample_actions(theta, batch, 4, seed=7).actions)

    @pytest.mark.parametrize("pid", [5, None, b"p"])
    def test_prompt_rng_rejects_id_that_is_not_a_str(self, pid):
        with pytest.raises(DomainError) as info:
            prompt_rng(0, pid)
        assert str(info.value) == f"prompt_id must be a string, got {pid!r}"

    def test_prompt_rng_deterministic(self):
        a = prompt_rng(5, "abc").random(4)
        b = prompt_rng(5, "abc").random(4)
        np.testing.assert_array_equal(a, b)
        c = prompt_rng(5, "abd").random(4)
        assert not np.array_equal(a, c)


MASK128 = 2**128 - 1


def pcg64_ints(state, inc, steps):
    """The LCG x -> M x + inc stepped ``steps`` times, in Python integers."""
    for _ in range(steps):
        state = (state * mc.PCG64_MULT + inc) & MASK128
    return state


def xsl_rr_int(state):
    hi, lo = state >> 64, state & mc.MASK64
    v, rot = hi ^ lo, hi >> 58
    return ((v >> rot) | (v << (64 - rot))) & mc.MASK64


def as_words(values) -> tuple:
    """Python ints below 2**128 as a (hi, lo) pair of uint64 arrays."""
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & mc.MASK64 for v in values], dtype=np.uint64),
    )


def kernel_words(states, inc=0) -> np.ndarray:
    """The kernel's (7, p) word array: states, inc and garbage scratch rows."""
    words = np.full((7, len(states)), 0xDEADBEEF, dtype=np.uint64)
    words[0], words[1] = as_words(states)
    words[2], words[3] = as_words([inc] * len(states))
    return words


def word_ints(hi, lo):
    return [(int(h) << 64) | int(l) for h, l in zip(np.ravel(hi), np.ravel(lo))]


class TestStreamKernel:
    # (state, inc) pairs at the edges of the (hi, lo) word arithmetic: a low
    # word of all ones (a carry out of it whenever a low product is added),
    # inc with bit 127 set, states at and near 2**128 - 1, a zero high word
    # (rotation by 0) and a high word with its top 6 bits set (rotation by 63)
    EDGES = [
        (2**64 - 1, 2**64 - 1),
        (2**64 - 1, 2**127 | 1),
        (2**128 - 1, 2**127 | 1),
        (2**128 - 2, 2**128 - 1),
        (2**128 - 2**64, 2**127 + 2**64 - 1),
        (0, 1),
        (12345, 2**64 + 1),
        (0xFC00000000000000 << 64 | 7, 3),
    ]

    def test_muladd_matches_python_ints(self):
        rng = np.random.default_rng(3)
        extra = [int(v) << 64 | int(w) for v, w in rng.integers(0, 2**63, (6, 2))]
        values = [v for pair in self.EDGES for v in pair] + extra
        carry = np.empty(len(values), dtype=bool)
        for a in (mc.PCG64_MULT, 2**128 - 1, 2**64 + 3, 2**64 - 1, 1):
            for c in (0, 2**64 - 1, 2**128 - 1, 2**127 | 1):
                words = kernel_words(values, c)
                mc._muladd(mc._multiplier(a), words, carry)
                want = [(a * x + c) & MASK128 for x in values]
                assert word_ints(words[0], words[1]) == want
                assert word_ints(words[2], words[3]) == [c] * len(values)

    def test_output_matches_python_ints(self):
        states = [s for pair in self.EDGES for s in pair]
        words = kernel_words(states)
        got = mc._xsl_rr(words)
        assert got.tolist() == [xsl_rr_int(s) for s in states]
        assert word_ints(words[0], words[1]) == states

    def test_kernel_matches_numpy_bit_generator(self):
        # seed words (initstate, initseq) at the edges
        pairs = [(2**128 - 1, 2**127 - 1), (2**128 - 1, 2**126), (0, 2**127 | 5)]
        pairs += [(s, q >> 1) for s, q in self.EDGES]
        seeds = np.array(
            [[s >> 64, s & mc.MASK64, q >> 64, q & mc.MASK64] for s, q in pairs],
            dtype=np.uint64,
        ).T
        out = np.empty((len(pairs), 37))
        mc._pcg64_doubles(seeds, out)
        bitgen = np.random.PCG64(0)
        for row, (initstate, initseq) in zip(out, pairs):
            inc = (initseq << 1 | 1) & MASK128
            config = bitgen.state
            config["state"] = {"state": pcg64_ints(initstate + inc, inc, 1), "inc": inc}
            bitgen.state = config
            assert_same_bits(row, np.random.Generator(bitgen).random(37))

    @pytest.mark.parametrize(
        "n_prompts,draws",
        [(3, 5000), (700, 9), (1, 1), (6000, 1), (63, 64), (64, 64), (65, 64),
         (mc.LANES + 1, 2)],
    )
    def test_uniform_draws_match_prompt_rng(self, n_prompts, draws):
        ids = tuple(f"p{i}" for i in range(n_prompts))
        got = mc._uniform_draws(9, ids, draws)
        for pid, row in zip(ids, got):
            assert_same_bits(row, prompt_rng(9, pid).random(draws))

    def test_cached_keys_are_shared_and_read_only(self):
        ids = ("a", "b")
        keys = mc._stream_keys(ids)
        assert mc._stream_keys(tuple(["a", "b"])) is keys
        assert keys.tolist() == [mc._stream_key(p) for p in ids]
        with pytest.raises(ValueError):
            keys[0] = 1

    def test_temporaries_do_not_scale_with_draws(self):
        # the kernel's arrays are bounded by LANES, so past the (P, n)
        # output the traced peak is the same at 64 and at 1024 draws
        ids = tuple(str(i) for i in range(6000))

        def peak_past_output(draws):
            mc._uniform_draws(0, ids, draws)  # fills the key and table caches
            tracemalloc.start()
            try:
                mc._uniform_draws(0, ids, draws)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - len(ids) * draws * 8

        small, large = peak_past_output(64), peak_past_output(1024)
        assert large <= small + 64 * 1024, (small, large)


class TestSampleIO:
    def test_round_trip(self, tmp_path):
        batch, theta = overlap_pair()
        ss = sample_actions(theta, batch, 25, seed=77)
        path = tmp_path / "samples.jsonl"
        export_samples(ss, path)
        loaded = import_samples(path)
        assert loaded.ids == ss.ids
        for pid in ss.ids:
            np.testing.assert_array_equal(loaded[pid].actions, ss[pid].actions)
            np.testing.assert_array_equal(loaded[pid].rewards, ss[pid].rewards)
            np.testing.assert_allclose(loaded[pid].scores, ss[pid].scores, rtol=0)

    def test_bad_line_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"prompt_id": "a", "action": 1}\n')
        with pytest.raises(DomainError, match="line 1"):
            import_samples(path)

    @pytest.mark.parametrize("key", ["action", "reward", "score"])
    def test_missing_key_named(self, tmp_path, key):
        path = tmp_path / "missing.jsonl"
        record = {"prompt_id": "a", "action": 0, "reward": 0, "score": [0.5, 0.1]}
        del record[key]
        path.write_text(
            '{"prompt_id": "a", "action": 1, "reward": 1, "score": [0.5, 0.1]}\n'
            + json.dumps(record) + "\n"
        )
        with pytest.raises(DomainError) as exc:
            import_samples(path)
        assert str(exc.value) == f"{path}: line 2: missing key {key!r}"

    def test_action_outside_zero_one_names_line(self, tmp_path):
        path = tmp_path / "action.jsonl"
        path.write_text(
            '{"prompt_id": "a", "action": 1, "reward": 1, "score": [0.5, 0.1]}\n'
            '{"prompt_id": "a", "action": 7, "reward": 0, "score": [0.5, 0.1]}\n'
        )
        with pytest.raises(DomainError, match="line 2: action must be 0 or 1"):
            import_samples(path)

    def test_ragged_scores_name_line(self, tmp_path):
        path = tmp_path / "ragged.jsonl"
        path.write_text(
            '{"prompt_id": "a", "action": 1, "reward": 1, "score": [0.5, 0.1]}\n'
            '{"prompt_id": "a", "action": 0, "reward": 0, "score": [0.5]}\n'
        )
        with pytest.raises(DomainError, match="line 2: score dimension 1"):
            import_samples(path)

    def test_reward_outside_zero_one_names_line(self, tmp_path):
        path = tmp_path / "reward.jsonl"
        path.write_text(
            '{"prompt_id": "a", "action": 1, "reward": 1, "score": [0.5, 0.1]}\n'
            '{"prompt_id": "a", "action": 0, "reward": 2, "score": [0.5, 0.1]}\n'
        )
        with pytest.raises(DomainError, match="line 2: reward must be 0 or 1, got 2"):
            import_samples(path)

    def test_nan_score_names_line(self, tmp_path):
        path = tmp_path / "nan.jsonl"
        path.write_text(
            '{"prompt_id": "a", "action": 1, "reward": 1, "score": [0.5, 0.1]}\n'
            '{"prompt_id": "b", "action": 0, "reward": 0, "score": [NaN, 0.1]}\n'
        )
        with pytest.raises(DomainError, match="line 2: score entries must be finite"):
            import_samples(path)

    @pytest.mark.parametrize("key", ["action", "reward"])
    @pytest.mark.parametrize("value", ["true", '"1"', "null"])
    def test_boolean_action_names_line(self, tmp_path, key, value):
        # the value is named as the file writes it
        path = tmp_path / "bool.jsonl"
        record = {"prompt_id": "a", "action": 1, "reward": 1, "score": [0.5, 0.1]}
        path.write_text(json.dumps(record).replace(f'"{key}": 1', f'"{key}": {value}'))
        with pytest.raises(DomainError) as exc:
            import_samples(path)
        assert str(exc.value) == f"{path}: line 1: {key} must be 0 or 1, got {value}"

    def test_boolean_score_entry_names_line(self, tmp_path):
        path = tmp_path / "bool_score.jsonl"
        path.write_text(
            '{"prompt_id": "a", "action": 1, "reward": 1, "score": [0.5, 0.1]}\n'
            '{"prompt_id": "a", "action": 0, "reward": 0, "score": [true, 0.5]}\n'
        )
        with pytest.raises(
            DomainError, match="line 2: score entries must be finite numbers, got true"
        ):
            import_samples(path)

    def test_empty_score_names_line(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text('{"prompt_id": "a", "action": 1, "reward": 1, "score": []}\n')
        with pytest.raises(
            DomainError, match=r"line 1: score must be a nonempty list of numbers, got \[\]"
        ):
            import_samples(path)

    def test_export_matches_per_record_reference(self, tmp_path):
        # one json.dumps per draw over numpy scalars, as a plain loop would
        batch = sample_prompts(BanditConfig(seed=8), 30)
        sampled = sample_actions(np.array([0.3, -0.7]), batch, 7, seed=12)
        # ids that JSON escapes (and a % that a format string must not read),
        # scores whose shortest repr has a sign, a subnormal or an exponent
        edge = SampleSet(
            ['a"b', "back\\slash", "\u00e9", "tab\there", "50%d"],
            [0, 2, 3, 4, 5, 8],
            [0, 1, 1, 0, 1, 0, 0, 1],
            [1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0],
            [
                [-0.0, 5e-324],
                [1e-5, 1e16],
                [5e-324, -0.0],
                [1e16, 1e-5],
                [-1e16, -5e-324],
                [0.1, -1e-5],
                [-0.0, -0.0],
                [1e16, 5e-324],
            ],
        )
        for name, ss in (("sampled", sampled), ("edge", edge)):
            expected = "".join(
                json.dumps(
                    {
                        "prompt_id": b.prompt_id,
                        "action": int(b.actions[j]),
                        "reward": int(b.rewards[j]),
                        "score": [float(v) for v in b.scores[j]],
                    }
                )
                + "\n"
                for b in ss.blocks
                for j in range(b.n)
            )
            path = tmp_path / f"{name}.jsonl"
            export_samples(ss, path)
            assert path.read_bytes() == expected.encode()
            assert import_samples(path).ids == ss.ids


def per_record_reference(samples) -> bytes:
    """A sample file as one json.dumps per draw over numpy scalars."""
    return "".join(
        json.dumps(
            {
                "prompt_id": b.prompt_id,
                "action": int(b.actions[j]),
                "reward": int(b.rewards[j]),
                "score": [float(v) for v in b.scores[j]],
            }
        )
        + "\n"
        for b in samples.blocks
        for j in range(b.n)
    ).encode()


def assert_same_set(loaded, expected):
    """loaded (a SampleSet) holds expected's (ids, offsets, actions, rewards,
    scores), each array with its dtype and bits."""
    ids, *arrays = expected
    assert loaded.ids == ids
    for got, want in zip(
        (loaded.offsets, loaded.actions, loaded.rewards, loaded.scores), arrays
    ):
        assert_same_bits(got, want)


# draws of prompt "a" (two with one record in two texts) and of "b"
A1 = '{"prompt_id": "a", "action": 1, "reward": 1, "score": [0.5, -0.0]}'
A1_SPACED = '  {"prompt_id":"a","action":1,"reward":1,"score":[0.5,-0.0]}'
A2 = '{"prompt_id": "a", "action": 0, "reward": 0.0, "score": [0.0, 2]}'
A3 = '{"prompt_id": "a", "action": 1, "reward": 1.0, "score": [0.5, 0.0]}'
B1 = '{"prompt_id": "b", "action": 0, "reward": 1, "score": [1e-5, 3]}'
B2 = '{"prompt_id": "b", "action": 1, "reward": 0, "score": [5e-324, -1e16]}'

# each refused draw of TestSampleIO, as its own line, with its message
BAD_DRAWS = [
    ('{"prompt_id": "a", "action": 1}', "missing key 'reward'"),
    ('{"prompt_id": "a", "reward": 0, "score": [0.5, 0.1]}', "missing key 'action'"),
    ('{"prompt_id": "a", "action": 0, "reward": 0}', "missing key 'score'"),
    ('{"prompt_id": "a", "action": 7, "reward": 0, "score": [0.5, 0.1]}',
     "action must be 0 or 1, got 7"),
    ('{"prompt_id": "a", "action": 0, "reward": 0, "score": [0.5]}',
     "score dimension 1 differs from 2"),
    ('{"prompt_id": "a", "action": 0, "reward": 2, "score": [0.5, 0.1]}',
     "reward must be 0 or 1, got 2"),
    ('{"prompt_id": "a", "action": 0, "reward": 0, "score": [NaN, 0.1]}',
     "score entries must be finite numbers, got NaN"),
    ('{"prompt_id": "a", "action": true, "reward": 1, "score": [0.5, 0.1]}',
     "action must be 0 or 1, got true"),
    ('{"prompt_id": "a", "action": 1, "reward": "1", "score": [0.5, 0.1]}',
     'reward must be 0 or 1, got "1"'),
    ('{"prompt_id": "a", "action": null, "reward": 1, "score": [0.5, 0.1]}',
     "action must be 0 or 1, got null"),
    ('{"prompt_id": "a", "action": 0, "reward": 0, "score": [true, 0.5]}',
     "score entries must be finite numbers, got true"),
    ('{"prompt_id": "a", "action": 1, "reward": 1, "score": []}',
     "score must be a nonempty list of numbers, got []"),
    ('{"prompt_id": "a", "action": 1, "reward": 1, "score": [0.5, 0.1]',
     "invalid JSON (Expecting ',' delimiter: line 1 column 65 (char 64))"),
    ('{"prompt_id": 1, "action": 1, "reward": 1, "score": [0.5, 0.1]}',
     "prompt_id must be a JSON string, got 1"),
]


class TestSampleFileWork:
    """export_samples formats each distinct draw of a prompt once, and
    import_samples parses each distinct line of a prompt's run once; the
    bytes, arrays and errors are those of one line at a time."""

    def test_export_keys_on_bits(self, tmp_path):
        wide = np.array([[0.5, 9.0, -0.0], [0.75, 9.0, 1e-5], [-0.0, 9.0, 5e-324]])
        sets = {
            # one action and reward: a key of float values merges the rows
            "signed zero": SampleSet(
                ["z"], [0, 3], [1, 1, 1], [1.0, 1.0, 1.0],
                [[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]],
            ),
            "all distinct": SampleSet(
                ["d"], [0, 4], [0, 1, 0, 1], [0.0, 1.0, 1.0, 0.0],
                [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]],
            ),
            "column slice": SampleSet(["c1", "c2"], [0, 2, 3], [0, 0, 1],
                                      [1.0, 1.0, 0.0], wide[:, ::2]),
            "fortran": SampleSet(["f1", "f2"], [0, 1, 3], [1, 1, 1],
                                 [0.0, 0.0, 0.0], np.asfortranarray(wide)),
        }
        for name, ss in sets.items():
            if name in ("column slice", "fortran"):
                assert not ss.scores.flags.c_contiguous
            path = tmp_path / f"{name}.jsonl"
            export_samples(ss, path)
            assert path.read_bytes() == per_record_reference(ss), name

    def test_import_matches_per_line_oracle(self, tmp_path):
        sampled = tmp_path / "sampled.jsonl"
        batch = sample_prompts(BanditConfig(seed=3), 40)
        export_samples(sample_actions(np.array([0.3, -0.7]), batch, 12, seed=5), sampled)
        # runs of one prompt, prompts whose lines are not adjacent, a line
        # that repeats one of an earlier run of its prompt, one record in
        # two texts, and blank lines
        mixed = tmp_path / "mixed.jsonl"
        mixed.write_text("\n".join(
            [A1, A1, A2, A1, B1, B1, "", A1, A3, A1_SPACED, B2, A2, B1, A1, "  "]
        ) + "\n")
        rng = np.random.default_rng(9)
        pool = [A1, A1_SPACED, A2, A3, B1, B2, ""]
        shuffled = tmp_path / "shuffled.jsonl"
        shuffled.write_text("\n".join(rng.choice(pool, 400).tolist() + [B2]) + "\n")
        for path in (sampled, mixed, shuffled):
            assert_same_set(import_samples(path), import_samples_per_line(path))

    @pytest.mark.parametrize("bad,message", BAD_DRAWS, ids=[m for _, m in BAD_DRAWS])
    def test_error_after_valid_lines_names_its_line(self, tmp_path, bad, message):
        # the bad line follows a run of its prompt, with its valid lines parsed
        # and repeated, and is itself repeated: the first copy is named
        path = tmp_path / "late.jsonl"
        path.write_text("\n".join([A1, A2, A1, A1, A2, bad, bad, A1]) + "\n")
        with pytest.raises(DomainError) as exc:
            import_samples(path)
        assert str(exc.value) == f"{path}: line 6: {message}"

    def test_empty_file_message(self, tmp_path):
        for text in ("", "\n  \n\n"):
            path = tmp_path / "empty.jsonl"
            path.write_text(text)
            with pytest.raises(DomainError) as exc:
                import_samples(path)
            assert str(exc.value) == f"{path}: empty file, no records"

    def test_import_memory_is_one_prompts_lines(self, tmp_path):
        # no line repeats, and each is long (its id), so a memo that kept the
        # lines of the whole file would hold about the file's size; the memo
        # holds one prompt's lines, and each parsed draw keeps its numbers only
        prompts, draws = 25, 80
        path = tmp_path / "distinct.jsonl"
        with path.open("w") as fh:
            for i in range(prompts):
                pid = f"p{i}-" + "x" * 4000
                for j in range(draws):
                    fh.write(json.dumps({"prompt_id": pid, "action": j % 2,
                                         "reward": 1, "score": [i + j / draws]}) + "\n")
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded = import_samples(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.scores.shape == (prompts * draws, 1)
        assert len(set(path.read_text().splitlines())) == prompts * draws
        one_prompt = size // prompts
        assert peak < 2 * one_prompt + 500 * prompts * draws, (peak, size)


def reference_sample_actions(theta, batch, n, seed):
    """Prompt-by-prompt sampling: one stream, comparison and score per prompt."""
    sigs = expit(batch.features @ theta).tolist()
    actions, rewards, scores = [], [], []
    for i, pid in enumerate(batch.ids):
        sig = sigs[i]
        actions.append((prompt_rng(seed, pid).random(n) < sig).astype(int))
        rewards.append((actions[-1] == batch.correct_actions[i]).astype(float))
        coef = np.where(actions[-1] == 1, 1.0 - sig, -sig)
        scores.append(coef[:, None] * batch.features[i][None, :])
    return SampleSet(
        batch.ids,
        np.arange(len(batch) + 1) * n,
        np.concatenate(actions),
        np.concatenate(rewards),
        np.concatenate(scores),
    )


def reference_estimates(samples, profile, k):
    """Per-prompt means, one block at a time, then the weighted row sum."""
    probs = np.array([b.rewards.mean() for b in samples.blocks])
    grads = np.stack([block_mean_grad(samples, pid) for pid in samples.ids])
    return probs, weighted_row_sum(profile.mass * wk_array(profile.probs, k), grads)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# one mc estimate in a fresh process, after its batch and exact profile are
# built: prints the modules that the estimate imports
WARM_ESTIMATE_CHILD = """
import sys
import numpy as np
from passklab import (BanditConfig, SuccessProfile, empirical_profile, mc_grad_passk,
                      reference_theta, sample_actions, sample_prompts, success_probs)
from passklab.objectives import unbiased_pass_at_k
batch = sample_prompts(BanditConfig(seed=0), 6000)
theta = reference_theta()
exact = SuccessProfile.uniform(success_probs(theta, batch), ids=batch.ids)
before = set(sys.modules)
samples = sample_actions(theta, batch, 64, 0)
empirical = empirical_profile(samples)
mc_grad_passk(samples, empirical, 5)
mc_grad_passk(samples, exact, 5)
counts = np.rint(empirical.probs * 64).astype(np.int64)
[unbiased_pass_at_k(64, int(c), 5) for c in counts]
print(*sorted(set(sys.modules) - before))
"""


class TestVectorisedEstimators:
    # sha256 of the concatenated actions (little-endian int64) of
    # sample_actions([0.3, -0.7], sample_prompts(BanditConfig(seed=11), 40),
    # 16, seed=2024), recorded from the prompt-by-prompt sampler
    STREAM_SHA256 = "526bbcfb5ac03a4ada83b58f606db15b2447007e880e7c38105b4cd347705441"

    def test_streams_are_pinned(self):
        batch = sample_prompts(BanditConfig(seed=11), 40)
        ss = sample_actions(np.array([0.3, -0.7]), batch, 16, seed=2024)
        actions = np.concatenate([b.actions for b in ss.blocks]).astype("<i8")
        assert hashlib.sha256(actions.tobytes()).hexdigest() == self.STREAM_SHA256

    # sha256 of sample_actions' actions, rewards, scores and offsets
    # (little-endian int64, float64, float64, int64, in that order) for
    # sample_prompts(BanditConfig(seed=11), prompts), theta [0.3, -0.7] and
    # seed 2024, recorded with the row-major stream kernel (4101 prompts)
    # and with the draw-major kernel at LANES = 4096 (16389 prompts).
    # 16389 = LANES + 5 prompts take two kernel passes, 4101 one, and 3
    # prompts read prompt_rng row by row.  The scores carry numpy's exp,
    # whose bits on x86-64 depend on whether it dispatches X86_V4
    # (AVX-512), so each shape pins both levels.
    SAMPLE_SHA256 = {
        (4101, 64): {
            True: "742a63fd1806c86a811b8b805ab57343e9e097d9a42bc2de8aff83ddc3460b87",
            False: "96692c8f79728e92cd7e53910c9635146d25897a7c1bd94a7af435e607401366",
        },
        (16389, 64): {
            True: "d19c37e5220c5ce3ba973067d58c28b342a4813b6503c3bba7b73a563b1f3e6f",
            False: "0c2c1fafaa04f961408a9cc3a3b2793bdd4dd01c19352a12f04c61696f51041d",
        },
        (3, 100): {
            True: "a57decb3d78edf2809620390f6c416313c37ceacae4835ef22e975758a757374",
            False: "a57decb3d78edf2809620390f6c416313c37ceacae4835ef22e975758a757374",
        },
    }

    @pytest.mark.parametrize("prompts,draws", sorted(SAMPLE_SHA256))
    def test_sample_arrays_are_pinned(self, prompts, draws):
        batch = sample_prompts(BanditConfig(seed=11), prompts)
        ss = sample_actions(np.array([0.3, -0.7]), batch, draws, seed=2024)
        digest = hashlib.sha256()
        for array, dtype in zip(
            (ss.actions, ss.rewards, ss.scores, ss.offsets), ("<i8", "<f8", "<f8", "<i8")
        ):
            digest.update(array.astype(dtype).tobytes())
        level = bool(__cpu_features__.get("X86_V4"))
        assert digest.hexdigest() == self.SAMPLE_SHA256[prompts, draws][level]

    def test_sample_temporaries_grow_by_two_bytes_per_draw(self):
        # past the arrays the set holds, the traced peak may grow with the
        # draws by 2 bytes a draw: the bool temporaries of the set's checks,
        # such as isfinite over the two score columns.  A (P, n) gather
        # index (8 bytes a draw), a copy of the draws alive through the
        # gather, or rewards copied by a reshape of the draw-major buffer
        # while the set is built, adds more.
        batch = sample_prompts(BanditConfig(seed=11), 6000)
        theta = np.array([0.3, -0.7])

        def peak_past_set(draws):
            sample_actions(theta, batch, draws, seed=0)  # fills the key cache
            tracemalloc.start()
            try:
                ss = sample_actions(theta, batch, draws, seed=0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            arrays = (ss.actions, ss.rewards, ss.scores, ss.offsets)
            return peak - sum(a.nbytes for a in arrays)

        small, large = peak_past_set(64), peak_past_set(1024)
        assert large - small <= len(batch) * (1024 - 64) * 2 + 64 * 1024, (small, large)

    def test_warm_estimate_imports_nothing(self):
        # a module imported on first use is paid by the first step of every
        # run: np.unique's first call imported numpy.ma (~13 ms)
        proc = subprocess.run(
            [sys.executable, "-c", WARM_ESTIMATE_CHILD],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(mc.__file__).parent.parent)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    @pytest.mark.parametrize(
        "n_prompts,draws", [(7, 1), (CHUNK_PROMPTS + 88, 1), (1100, 9)]
    )
    def test_matches_prompt_by_prompt_reference(self, n_prompts, draws):
        batch = sample_prompts(BanditConfig(seed=21), n_prompts)
        theta = np.array([0.3, -0.7])
        ss = sample_actions(theta, batch, draws, seed=33)
        ref = reference_sample_actions(theta, batch, draws, seed=33)
        assert ss.ids == ref.ids
        for got, want in zip(ss.blocks, ref.blocks):
            assert_same_bits(got.actions, want.actions)
            assert_same_bits(got.rewards, want.rewards)
            assert_same_bits(got.scores, want.scores)
        emp = empirical_profile(ss)
        exact = SuccessProfile.uniform(success_probs(theta, batch), ids=batch.ids)
        for prof in (emp, exact):
            probs, grad = reference_estimates(ref, prof, 5)
            assert_same_bits(emp.probs, probs)
            assert_same_bits(mc_grad_passk(ss, prof, 5), grad)

    @pytest.mark.parametrize("d", [1, 2, 5, 17, 64])
    def test_scored_means_are_each_blocks_mean(self, d):
        # numpy's block mean sums 40 draws pairwise at d = 1 and one at a
        # time at d > 1; normal scores tell the two orders apart.  Every
        # third prompt has no reward, so its products in the negative first
        # score column are all -0.0, and the mean's +0.0 start shows.
        rng = np.random.default_rng(8 + d)
        p, n = CHUNK_PROMPTS + 40, 40
        rewards = rng.integers(0, 2, (p, n)).astype(float)
        rewards[::3] = 0.0
        scores = rng.normal(size=(p * n, d))
        scores[:, 0] = -np.abs(scores[:, 0])
        ss = SampleSet(
            [f"q{i}" for i in range(p)],
            np.arange(p + 1) * n,
            rng.integers(0, 2, p * n),
            rewards.reshape(-1),
            scores,
        )
        want = np.stack([block_mean_grad(ss, pid) for pid in ss.ids])
        assert_same_bits(ss.table.grads, want)

    def test_unequal_draw_counts_interleaved(self):
        # draw counts cycle 3, 1, 20, so every group spans the whole set and
        # takes more than one chunk; normal scores at 20 draws tell a
        # sequential sum from numpy's pairwise one
        rng = np.random.default_rng(6)
        counts = np.resize([3, 1, 20], 3 * CHUNK_PROMPTS + 30)
        total = int(counts.sum())
        ss = SampleSet(
            [f"q{i}" for i in range(counts.size)],
            np.concatenate([[0], np.cumsum(counts)]),
            rng.integers(0, 2, total),
            rng.integers(0, 2, total).astype(float),
            rng.normal(size=(total, 3)),
        )
        emp = empirical_profile(ss)
        for k in (1, 4):
            probs, grad = reference_estimates(ss, emp, k)
            assert_same_bits(emp.probs, probs)
            assert_same_bits(mc_grad_passk(ss, emp, k), grad)
