"""Monte Carlo estimation of success probabilities and their gradients.

Estimates are score-function based: the gradient of a prompt's success
probability is the expectation of reward times score, so averaging
reward * score over sampled actions is unbiased.  Per-prompt sample
streams are keyed by (seed, prompt id), so adding prompts to a run never
perturbs existing streams.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bandit import PromptBatch, _check_theta, expit
from .errors import DomainError
from .objectives import SuccessProfile, weighted_row_sum, wk_array


@dataclass(frozen=True)
class PromptSamples:
    prompt_id: str
    actions: np.ndarray  # (n,) of {0, 1}
    rewards: np.ndarray  # (n,) of {0, 1}
    scores: np.ndarray  # (n, d) score vectors

    def __post_init__(self):
        actions = np.asarray(self.actions, dtype=int)
        rewards = np.asarray(self.rewards, dtype=float)
        scores = np.asarray(self.scores, dtype=float)
        n = actions.shape[0]
        if n < 1:
            raise DomainError("each prompt needs at least one sample")
        if rewards.shape != (n,) or scores.ndim != 2 or scores.shape[0] != n:
            raise DomainError("need actions (n,), rewards (n,) and scores (n, d)")
        if not ((rewards == 0.0) | (rewards == 1.0)).all():
            raise DomainError("rewards must be exactly 0 or 1")
        object.__setattr__(self, "prompt_id", str(self.prompt_id))
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "scores", scores)

    @property
    def n(self) -> int:
        return self.actions.shape[0]


@dataclass(frozen=True)
class SampleSet:
    blocks: tuple

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if not blocks:
            raise DomainError("sample set must contain at least one prompt")
        d = blocks[0].scores.shape[1]
        for b in blocks:
            if b.scores.shape[1] != d:
                raise DomainError(
                    f"prompt {b.prompt_id}: score dimension {b.scores.shape[1]} "
                    f"differs from {d}"
                )
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "_by_id", {b.prompt_id: b for b in blocks})

    @property
    def dim(self) -> int:
        return self.blocks[0].scores.shape[1]

    @property
    def ids(self) -> tuple:
        return tuple(b.prompt_id for b in self.blocks)

    def __getitem__(self, prompt_id: str) -> PromptSamples:
        try:
            return self._by_id[str(prompt_id)]
        except KeyError:
            raise DomainError(f"unknown prompt id {prompt_id!r}") from None


def _stream_key(prompt_id: str) -> int:
    """Stable 64-bit key for a prompt id, independent of batch position."""
    digest = hashlib.sha256(str(prompt_id).encode()).digest()
    return int.from_bytes(digest[:8], "little")


def prompt_rng(seed: int, prompt_id: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _stream_key(prompt_id)]))


def sample_actions(theta, batch: PromptBatch, n: int, seed: int) -> SampleSet:
    """Draw n policy actions per prompt with rewards and score vectors.

    For the logistic policy the score of action 1 is (1 - sigma) * psi
    and of action 0 is -sigma * psi.  Only the uniform draws are taken
    prompt by prompt, each from its own stream; everything else is one
    array pass over the batch, and every block holds row views of those
    arrays.
    """
    theta = _check_theta(theta)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    sig = expit(batch.features @ theta)[:, None]
    uniform = np.empty((len(batch), n))
    for i, pid in enumerate(batch.ids):
        uniform[i] = prompt_rng(seed, pid).random(n)
    actions = (uniform < sig).astype(int)
    del uniform  # spent: free it before the rewards and scores are allocated
    rewards = (actions == batch.correct_actions[:, None]).astype(float)
    # each prompt has two score vectors; picking them per draw gives the
    # products a per-draw coefficient would, with no (P, n) temporary
    score1 = ((1.0 - sig) * batch.features)[:, None, :]
    score0 = (-sig * batch.features)[:, None, :]
    scores = np.where((actions == 1)[:, :, None], score1, score0)
    return SampleSet(
        blocks=tuple(
            PromptSamples(prompt_id=pid, actions=a, rewards=r, scores=s)
            for pid, a, r, s in zip(batch.ids, actions, rewards, scores)
        )
    )


def mc_grad_pass1(samples: SampleSet, prompt_id: str) -> np.ndarray:
    """Unbiased per-prompt gradient estimate: mean of reward * score."""
    block = samples[prompt_id]
    return (block.rewards[:, None] * block.scores).mean(axis=0)


# Prompts reduced per array pass: bounds the (chunk, n, d) temporaries, so
# memory does not grow with the number of prompts.
CHUNK_PROMPTS = 512


def _prompt_means(samples: SampleSet, scored: bool) -> np.ndarray:
    """Per-prompt mean of the rewards, or of reward * score when scored.

    Prompts with equal draw counts are stacked CHUNK_PROMPTS at a time and
    reduced along the draw axis, bit for bit what each block's own mean
    gives; rows come back in block order.
    """
    blocks = samples.blocks
    out = np.empty((len(blocks), samples.dim) if scored else len(blocks))
    groups: dict[int, list] = {}  # draw count -> block indices, ascending
    for i, b in enumerate(blocks):
        groups.setdefault(b.n, []).append(i)
    for n, idx in groups.items():
        for lo in range(0, len(idx), CHUNK_PROMPTS):
            chunk = idx[lo : lo + CHUNK_PROMPTS]
            shape = (len(chunk), n, samples.dim)
            r = np.concatenate([blocks[i].rewards for i in chunk]).reshape(shape[:2])
            if scored:
                s = np.concatenate([blocks[i].scores for i in chunk]).reshape(shape)
                out[chunk] = (r[:, :, None] * s).mean(axis=1)
            else:
                out[chunk] = r.mean(axis=1)
    return out


def empirical_profile(samples: SampleSet) -> SuccessProfile:
    """Plug-in success probabilities c/n per prompt, uniform prompt mass."""
    return SuccessProfile.uniform(_prompt_means(samples, scored=False), ids=samples.ids)


def mc_grad_passk(samples: SampleSet, profile: SuccessProfile, k: int) -> np.ndarray:
    """Plug-in estimate of the k-attempt population gradient.

    Mass-weighted sum over prompts of w_k(p_hat) times the per-prompt
    gradient estimate; the caller chooses whether profile carries
    empirical or exact probabilities.  With empirical probabilities the
    weight factor is biased upward at finite n (w_k is convex in p for
    k >= 3, so E[w_k(c/n)] >= w_k(p)); the bias vanishes as n grows and
    is measured in the test suite.
    """
    if tuple(profile.ids) != samples.ids:
        raise DomainError("profile ids must match the sample set ids in order")
    grads = _prompt_means(samples, scored=True)
    return weighted_row_sum(profile.mass * wk_array(profile.probs, k), grads)


def export_samples(samples: SampleSet, path) -> None:
    """One JSON record per sampled action: {prompt_id, action, reward, score}."""
    path = Path(path)
    with path.open("w") as fh:
        for block in samples.blocks:
            pid = block.prompt_id
            for action, reward, score in zip(
                block.actions.tolist(), block.rewards.tolist(), block.scores.tolist()
            ):
                rec = {
                    "prompt_id": pid,
                    "action": action,
                    "reward": int(reward),
                    "score": score,
                }
                fh.write(json.dumps(rec) + "\n")


def import_samples(path) -> SampleSet:
    """Read a sample set written by export_samples (order-preserving).

    action must be the JSON integer 0 or 1, reward the number 0 or 1, and
    score a nonempty list of finite numbers of one length throughout; a
    bad record raises DomainError naming its line.
    """
    path = Path(path)
    acc: dict[str, list] = {}  # prompt_id -> rows, in first-seen order
    dim: int | None = None
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                pid = str(rec["prompt_id"])
                action, reward, score = rec["action"], rec["reward"], rec["score"]
                if type(score) is not list:
                    raise TypeError(f"score must be a list, got {type(score).__name__}")
                # one C pass over the row: a non-number entry raises TypeError
                # here, and only a sum that is not finite needs the entrywise test
                finite = math.isfinite(sum(score)) or all(map(math.isfinite, score))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DomainError(f"line {lineno}: bad sample record ({exc})") from exc
            if type(action) is not int or action not in (0, 1):
                raise DomainError(f"line {lineno}: action must be 0 or 1, got {action!r}")
            if type(reward) not in (int, float) or reward not in (0, 1):
                raise DomainError(f"line {lineno}: reward must be 0 or 1, got {reward!r}")
            if not score:
                raise DomainError(f"line {lineno}: score must be nonempty")
            if not finite:
                raise DomainError(f"line {lineno}: score entries must be finite")
            if dim is None:
                dim = len(score)
            elif len(score) != dim:
                raise DomainError(
                    f"line {lineno}: score dimension {len(score)} differs from {dim}"
                )
            acc.setdefault(pid, []).append((action, float(reward), score))
    if not acc:
        raise DomainError(f"{path}: empty sample file")
    return SampleSet(
        blocks=tuple(
            PromptSamples(
                prompt_id=pid,
                actions=np.array([r[0] for r in rows]),
                rewards=np.array([r[1] for r in rows]),
                scores=np.array([r[2] for r in rows], dtype=float),
            )
            for pid, rows in acc.items()
        )
    )
