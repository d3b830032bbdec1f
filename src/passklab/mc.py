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
from functools import cached_property, lru_cache
from itertools import islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bandit import PromptBatch, _check_theta, _id_index, expit
from .errors import DomainError
from .objectives import SuccessProfile, weighted_row_sum, wk_array


class PromptSamples(NamedTuple):
    """One prompt's draws: views of its rows in a SampleSet's arrays."""

    prompt_id: str
    actions: np.ndarray  # (n,) of {0, 1}
    rewards: np.ndarray  # (n,) of {0, 1}
    scores: np.ndarray  # (n, d) score vectors

    @property
    def n(self) -> int:
        return self.actions.shape[0]


class SampleSet:
    """The draws of a set of prompts, stored as whole arrays.

    Row j of ``actions`` (N,), ``rewards`` (N,) and ``scores`` (N, d) is one
    draw; prompt ``ids[i]`` owns rows ``offsets[i]:offsets[i + 1]``, so prompts
    may have different draw counts, and no id may repeat.  The arrays are
    checked once, when the set is built; ``blocks`` and ``set[prompt_id]``
    are views of them.  They are not to be changed afterwards: the
    per-prompt means that ``mc_grad_passk`` reads are reduced once per set
    and kept.
    """

    def __init__(self, ids, offsets, actions, rewards, scores):
        ids = tuple(map(str, ids))
        try:
            offsets = np.asarray(offsets, dtype=np.int64)
            actions = np.asarray(actions, dtype=int)
            rewards = np.asarray(rewards, dtype=float)
            scores = np.asarray(scores, dtype=float)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"bad sample arrays ({exc})") from exc
        if not ids:
            raise DomainError("sample set must contain at least one prompt")
        if actions.ndim != 1 or rewards.shape != actions.shape:
            raise DomainError("need actions (N,) and rewards (N,) over all draws")
        if scores.ndim != 2 or scores.shape[0] != actions.shape[0]:
            raise DomainError(
                "scores must be (N, d): one score dimension for all draws"
            )
        if (
            offsets.shape != (len(ids) + 1,)
            or offsets[0] != 0
            or offsets[-1] != actions.shape[0]
            or (np.diff(offsets) < 1).any()
        ):
            raise DomainError(
                "offsets must rise from 0 to the number of draws, "
                "with at least one sample per prompt"
            )
        if not ((rewards == 0.0) | (rewards == 1.0)).all():
            raise DomainError("rewards must be exactly 0 or 1")
        index = _id_index(ids)
        self.ids, self.offsets, self._index = ids, offsets, index
        self.actions, self.rewards, self.scores = actions, rewards, scores

    @property
    def dim(self) -> int:
        return self.scores.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def _block(self, i: int) -> PromptSamples:
        rows = slice(self.offsets[i], self.offsets[i + 1])
        return PromptSamples(
            self.ids[i], self.actions[rows], self.rewards[rows], self.scores[rows]
        )

    @property
    def blocks(self) -> tuple:
        return tuple(map(self._block, range(len(self.ids))))

    @cached_property
    def _scored_means(self) -> np.ndarray:
        """(P, d) per-prompt mean of reward * score, reduced once per set and
        read-only, so every estimate over the set shares it."""
        means = _reward_score_means(self)
        means.flags.writeable = False
        return means

    def __getitem__(self, prompt_id: str) -> PromptSamples:
        try:
            return self._block(self._index[str(prompt_id)])
        except KeyError:
            raise DomainError(f"unknown prompt id {prompt_id!r}") from None


# Prompts per array pass in the chunked loops: bounds their temporaries, so
# memory does not grow with the number of prompts.
CHUNK_PROMPTS = 512
# PCG64 lanes per array pass of the stream kernel: bounds its temporaries, so
# memory grows with neither the number of prompts nor the number of draws.
LANES = 1 << 12


def _stream_key(prompt_id: str) -> int:
    """Stable 64-bit key for a prompt id, independent of batch position."""
    digest = hashlib.sha256(str(prompt_id).encode()).digest()
    return int.from_bytes(digest[:8], "little")


@lru_cache(maxsize=8)
def _stream_keys(ids: tuple, key) -> np.ndarray:
    """Read-only uint64 array of key(pid) for pid in ids, hashed once per
    ids tuple and shared by every seed.  Callers pass the current
    _stream_key, so replacing it takes effect."""
    keys = np.array([key(pid) for pid in ids], dtype=np.uint64)
    keys.flags.writeable = False
    return keys


def prompt_rng(seed: int, prompt_id: str) -> np.random.Generator:
    """The stream of one prompt: the definition sample_actions reproduces."""
    return np.random.default_rng(np.random.SeedSequence([seed, _stream_key(prompt_id)]))


# SeedSequence's hash constants (pool of 4 uint32 words) and PCG64's LCG
# multiplier, as numpy defines them; tests check the result against
# prompt_rng bit for bit.
POOL_WORDS = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK32, MASK64, MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _words(x: int) -> list:
    """SeedSequence's split of an integer >= 0 into 32-bit words, low first."""
    words = [x & MASK32]
    while x > MASK32:
        x >>= 32
        words.append(x & MASK32)
    return words


def _seed_states(entropy: list) -> list:
    """SeedSequence(entropy).generate_state(8, uint32) for many columns.

    ``entropy`` holds one (P,) uint32 array per entropy word.  The hash
    constants depend only on the number of words, so the mix is the same
    uint32 arithmetic for every column and runs as array operations.
    """
    h = INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = h * MULT_A & MASK32
        value = value * np.uint32(h)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [
        hashmix(entropy[i] if i < len(entropy) else zero) for i in range(POOL_WORDS)
    ]
    for src in range(POOL_WORDS):
        for dst in range(POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_WORDS:]:
        for dst in range(POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = INIT_B
    state = []
    for i in range(8):
        value = pool[i % POOL_WORDS] ^ np.uint32(h)
        h = h * MULT_B & MASK32
        value = value * np.uint32(h)
        state.append(value ^ (value >> np.uint32(16)))
    return state


def _pcg64_seeds(seed: int, ids) -> np.ndarray:
    """(4, P) uint64 whose column i is SeedSequence([seed, key_i])
    .generate_state(4, uint64), the words that seed prompt i's PCG64.

    The mix runs over all prompts at once, grouped by entropy word count:
    a key below 2**32 has one word, not two.
    """
    keys = _stream_keys(tuple(ids), _stream_key)
    key_words = [
        (keys & np.uint64(MASK32)).astype(np.uint32),
        (keys >> np.uint64(32)).astype(np.uint32),
    ]
    seed_words = _words(seed)
    out = np.empty((4, keys.size), dtype=np.uint64)
    two = key_words[1] != 0
    for group, count in ((~two, 1), (two, 2)):
        if not group.any():
            continue
        entropy = [np.full(int(group.sum()), w, dtype=np.uint32) for w in seed_words]
        entropy += [kw[group] for kw in key_words[:count]]
        state = [s.astype(np.uint64) for s in _seed_states(entropy)]
        for j in range(4):
            out[j, group] = state[2 * j] | (state[2 * j + 1] << np.uint64(32))
    return out


# PCG64 in uint64 words.  numpy has no 128-bit integers, so a 128-bit value
# is a (hi, lo) pair of uint64 arrays or scalars, and the high half of a
# 64 x 64-bit product is assembled from 32-bit limbs.
_U1, _U11, _U32, _U58, _U63, _U64 = map(np.uint64, (1, 11, 32, 58, 63, 64))
_LOW32 = np.uint64(MASK32)
_ZERO = (np.uint64(0), np.uint64(0))


def _mulhi(a, b):
    """High 64 bits of the 128-bit product of uint64 a and b."""
    a0, a1 = a & _LOW32, a >> _U32
    b0, b1 = b & _LOW32, b >> _U32
    t = a1 * b0 + (a0 * b0 >> _U32)
    w = (t & _LOW32) + a0 * b1
    return a1 * b1 + (t >> _U32) + (w >> _U32)


def _muladd(a, x, c):
    """(a * x + c) mod 2**128 for (hi, lo) pairs; the words broadcast."""
    (a_hi, a_lo), (x_hi, x_lo), (c_hi, c_lo) = a, x, c
    lo = a_lo * x_lo + c_lo
    hi = _mulhi(a_lo, x_lo) + a_lo * x_hi + a_hi * x_lo + c_hi + (lo < c_lo)
    return hi, lo


def _xsl_rr(hi, lo):
    """PCG64's output word of a state: hi ^ lo rotated right by hi's top 6 bits."""
    v = hi ^ lo
    rot = hi >> _U58
    return (v >> rot) | (v << ((_U64 - rot) & _U63))


def _as_words(values) -> tuple:
    """Python ints below 2**128 as a (hi, lo) pair of read-only uint64 arrays."""
    words = (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & MASK64 for v in values], dtype=np.uint64),
    )
    for w in words:
        w.flags.writeable = False
    return words


@lru_cache(maxsize=32)
def _jump_tables(phases: int) -> tuple:
    """Jump-ahead coefficients of the LCG x -> M x + inc for ``phases`` lanes.

    j steps take x to A_j x + C_j inc, with A_j = M**j and
    C_j = sum_{i<j} M**i (mod 2**128).  Returns (A_{j+2}, C_{j+2}) for
    j < phases, which start the lanes, and (A_phases, C_phases), which
    advance them, all as (hi, lo) words.
    """
    a, c, table = 1, 0, []
    for _ in range(phases + 2):
        table.append((a, c))
        a, c = a * PCG64_MULT & MASK128, (c * PCG64_MULT + 1) & MASK128
    a_step, c_step = table[phases]
    starts = table[2:]
    return (
        _as_words([a for a, _ in starts]),
        _as_words([c for _, c in starts]),
        _as_words([a_step]),
        _as_words([c_step]),
    )


def _pcg64_doubles(seeds: np.ndarray, out: np.ndarray) -> None:
    """Fill the (p, n) ``out`` with the doubles of the p PCG64 streams that
    ``seeds`` (4, p) seeds, as Generator.random(n) makes them.

    Lane (i, j) runs stream i from its draw j, J draws apart, so one array
    pass advances all p * J lanes and yields columns tJ..tJ + J - 1.
    Seeding (pcg_setseq_128_srandom_r) sets inc = (initseq << 1) | 1 and
    leaves the state one LCG step past y = inc + initstate, and each draw
    steps first, so draw j is the output of A_{j+2} y + C_{j+2} inc.
    """
    p, n = out.shape
    phases = min(n, -(-LANES // p))
    start_a, start_c, step_a, step_c = _jump_tables(phases)
    s_hi, s_lo, q_hi, q_lo = seeds[:, :, None]
    inc = ((q_hi << _U1) | (q_lo >> _U63), (q_lo << _U1) | _U1)
    y_lo = inc[1] + s_lo
    y = (inc[0] + s_hi + (y_lo < s_lo), y_lo)
    lanes = _muladd(start_a, y, _muladd(start_c, inc, _ZERO))
    step_inc = _muladd(step_c, inc, _ZERO)
    for t in range(0, n, phases):
        w = min(phases, n - t)
        raw = _xsl_rr(*lanes)[:, :w]
        np.multiply(raw >> _U11, 2.0**-53, out=out[:, t : t + w], casting="unsafe")
        if t + phases < n:
            lanes = _muladd(step_a, lanes, step_inc)


def _uniform_draws(seed: int, ids, n: int) -> np.ndarray:
    """(P, n) array whose row i is prompt_rng(seed, ids[i]).random(n), bit for bit.

    Prompts are taken LANES at a time; a batch of p of them runs
    J = min(n, ceil(LANES / p)) lanes per prompt, so each array pass covers
    about LANES draws however few prompts or many draws there are.
    """
    seeds = _pcg64_seeds(seed, ids)
    out = np.empty((len(ids), n))
    for lo in range(0, len(ids), LANES):
        rows = slice(lo, lo + LANES)
        _pcg64_doubles(seeds[:, rows], out[rows])
    return out


def _check_seed(seed) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    return int(seed)


def sample_actions(theta, batch: PromptBatch, n: int, seed: int) -> SampleSet:
    """Draw n policy actions per prompt with rewards and score vectors.

    For the logistic policy the score of action 1 is (1 - sigma) * psi
    and of action 0 is -sigma * psi.  Prompt i's uniform draws are
    prompt_rng(seed, prompt id).random(n), computed for the whole batch in
    arrays; the actions, rewards and scores are one array pass each, and
    the set stores those arrays.  seed must be an integer >= 0.
    """
    theta = _check_theta(theta)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    seed = _check_seed(seed)
    sig = expit(batch.features @ theta)[:, None]
    uniform = _uniform_draws(seed, batch.ids, n)
    actions = (uniform < sig).astype(int)
    # written over the spent uniform draws: one (P, n) array fewer
    rewards = np.equal(actions, batch.correct_actions[:, None], out=uniform)
    del uniform
    # each prompt has two score vectors, rows 2i and 2i + 1 of the table;
    # taking one per draw gives the products a per-draw coefficient would
    p = len(batch)
    table = np.stack([-sig * batch.features, (1.0 - sig) * batch.features], axis=1)
    scores = np.take(
        table.reshape(2 * p, -1), actions + 2 * np.arange(p)[:, None], axis=0
    )
    return SampleSet(
        batch.ids,
        np.arange(p + 1) * n,
        actions.reshape(p * n),
        rewards.reshape(p * n),
        scores.reshape(p * n, -1),
    )


def mc_grad_pass1(samples: SampleSet, prompt_id: str) -> np.ndarray:
    """Unbiased per-prompt gradient estimate: mean of reward * score."""
    block = samples[prompt_id]
    return (block.rewards[:, None] * block.scores).mean(axis=0)


def _reward_score_means(samples: SampleSet) -> np.ndarray:
    """(P, d) per-prompt mean of reward * score.

    Prompts with equal draw counts are taken CHUNK_PROMPTS at a time as
    (chunk, n, d) rows and reduced along the draw axis, bit for bit what each
    block's own mean gives.  A chunk of consecutive prompts is a slice of
    the stored arrays; any other chunk is gathered.
    """
    offsets, d = samples.offsets, samples.dim
    counts = np.diff(offsets)
    out = np.empty((len(samples), d))
    for n in np.unique(counts).tolist():
        idx = np.flatnonzero(counts == n)
        for lo in range(0, idx.size, CHUNK_PROMPTS):
            chunk = idx[lo : lo + CHUNK_PROMPTS]
            if chunk[-1] - chunk[0] == chunk.size - 1:
                rows = slice(offsets[chunk[0]], offsets[chunk[-1] + 1])
            else:
                rows = (offsets[chunk, None] + np.arange(n)).reshape(-1)
            r = samples.rewards[rows].reshape(chunk.size, n)
            s = samples.scores[rows].reshape(chunk.size, n, d)
            out[chunk] = (r[:, :, None] * s).mean(axis=1)
    return out


def empirical_profile(samples: SampleSet) -> SuccessProfile:
    """Plug-in success probabilities c/n per prompt, uniform prompt mass."""
    # the sums c are exact integers, so c/n has each block's mean's bits
    c = np.add.reduceat(samples.rewards, samples.offsets[:-1])
    return SuccessProfile.uniform(c / np.diff(samples.offsets), ids=samples.ids)


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
    return weighted_row_sum(
        profile.mass * wk_array(profile.probs, k), samples._scored_means
    )


def export_samples(samples: SampleSet, path) -> None:
    """One JSON record per sampled action: {prompt_id, action, reward, score}.

    Each line holds the bytes json.dumps gives for the record: a per-prompt
    prefix with the JSON-escaped id, then repr of each score, which is how
    json writes a finite float.  Scores must be finite, as import_samples
    requires.
    """
    if not np.isfinite(samples.scores).all():
        raise DomainError("score entries must be finite")
    path = Path(path)
    rows = zip(
        samples.actions.tolist(),
        samples.rewards.astype(int).tolist(),
        samples.scores.tolist(),
    )
    score = ", ".join(["%r"] * samples.dim)
    fields = ', "action": %d, "reward": %d, "score": [' + score + "]}\n"
    with path.open("w") as fh:
        for pid, count in zip(samples.ids, np.diff(samples.offsets).tolist()):
            # a % in the id is doubled, so the format reads it as text
            line = '{"prompt_id": ' + json.dumps(pid).replace("%", "%%") + fields
            fh.write("".join([line % (a, r, *s) for a, r, s in islice(rows, count)]))


def import_samples(path) -> SampleSet:
    """Read a sample set written by export_samples (order-preserving).

    action must be the JSON integer 0 or 1, reward the number 0 or 1, and
    score a nonempty list of finite numbers (not true/false) of one length
    throughout; a bad record raises DomainError naming its line.  Prompts
    come in order of first appearance, each with its draws in file order.
    """
    path = Path(path)
    index: dict[str, int] = {}  # prompt_id -> position, in first-seen order
    owner, actions, rewards, scores = [], [], [], []
    dim: int | None = None
    with path.open("rb") as fh:  # each line is decoded, so a bad byte names it
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line.decode())
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
            if bool in map(type, score):
                raise DomainError(
                    f"line {lineno}: score entries must be numbers, not true/false"
                )
            if dim is None:
                dim = len(score)
            elif len(score) != dim:
                raise DomainError(
                    f"line {lineno}: score dimension {len(score)} differs from {dim}"
                )
            owner.append(index.setdefault(pid, len(index)))
            actions.append(action)
            rewards.append(reward)
            scores.append(score)
    if not index:
        raise DomainError(f"{path}: empty sample file")
    owner = np.array(owner)
    order = np.argsort(owner, kind="stable")  # group each prompt's draws
    return SampleSet(
        index,
        np.concatenate([[0], np.cumsum(np.bincount(owner))]),
        np.array(actions)[order],
        np.array(rewards, dtype=float)[order],
        np.array(scores, dtype=float)[order],
    )
