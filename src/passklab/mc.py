"""Monte Carlo estimation of success probabilities and their gradients.

Estimates are score-function based: the gradient of a prompt's success
probability is the expectation of reward times score, so averaging
reward * score over sampled actions is unbiased.  Per-prompt sample
streams are keyed by (seed, prompt id), so adding prompts to a run never
perturbs existing streams.
"""

import hashlib
import json
import struct
from functools import cached_property, lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .bandit import PromptBatch, _sigmoid
from .conflict import assemble_passk_gradient
from .errors import DomainError
from .interference import GradientTable
from .objectives import (
    SuccessProfile,
    _check_int,
    _check_prompt_ids,
    _check_seed,
    _column,
    _index_ids,
    _reals,
    _shown,
    _str_ids,
)
from .serialization import line_error, no_records, number_list, parse_record, read_lines


class PromptSamples(NamedTuple):
    """One prompt's draws: views of its rows in a SampleSet's arrays."""

    prompt_id: str
    actions: np.ndarray  # (n,) of {0, 1}
    rewards: np.ndarray  # (n,) of {0, 1}
    scores: np.ndarray  # (n, d) score vectors

    @property
    def n(self) -> int:
        return self.actions.shape[0]


def _holds_bool(given) -> bool:
    """Whether a list holds a bool of any kind: numpy reads [0, True] as integers."""
    return not hasattr(given, "dtype") and bool in (getattr(v, "dtype", type(v)) for v in given)


class SampleSet:
    """The draws of a set of prompts, stored as whole arrays.

    Row j of ``actions`` (N,), ``rewards`` (N,) and finite ``scores`` (N, d)
    is one draw; prompt ``ids[i]``, a str, owns rows ``offsets[i]:offsets[i + 1]``
    of the integer ``offsets``, so prompts may have different draw counts, and
    no id may repeat.  The arrays are checked once, when the set is built, and
    the ids once per tuple; ``blocks`` and ``set[prompt_id]`` are views of
    them, and ``set[prompt_id]`` builds its id-to-row index on first use.
    They are not to be changed afterwards: the per-prompt means that
    ``mc_grad_passk`` reads are reduced once per set and kept.
    """

    def __init__(self, ids, offsets, actions, rewards, scores):
        ids = _column("ids", tuple, ids)
        offsets, given = _column("offsets", np.asarray, offsets, np.int64), (offsets, actions)
        actions = _column("actions", np.asarray, actions)
        rewards, scores = _reals("reward", rewards), _reals("score", scores)
        if not ids:
            raise DomainError("sample set must contain at least one prompt")
        if actions.ndim != 1 or rewards.shape != actions.shape:
            raise DomainError("need actions (N,) and rewards (N,) over all draws")
        if scores.ndim != 2 or scores.shape[:1] != actions.shape or not scores.shape[1]:
            raise DomainError(
                "scores must be (N, d), d >= 1: one score dimension for all draws"
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
        # one pass: the bitwise OR of integers is 0 or 1 exactly when each is
        if actions.dtype.kind not in "iu" or np.bitwise_or.reduce(actions) | 1 != 1:
            raise DomainError("actions must be the integers 0 or 1")
        _check_prompt_ids(ids)
        # last, so an input that a rule above refuses keeps its message
        dtype = np.asarray(given[0]).dtype
        if dtype.kind in "iu" and _holds_bool(given[0]):
            dtype = np.dtype(bool)
        if dtype.kind not in "iu":
            raise DomainError(f"offsets must be integers, not {dtype}")
        if _holds_bool(given[1]):
            raise DomainError("actions must be the integers 0 or 1")
        self.ids, self.offsets = ids, offsets
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
    def _index(self) -> dict:
        return _index_ids(self.ids)

    @cached_property
    def table(self) -> GradientTable:
        """Row i is prompt i's mean of reward * score; built once per set with
        read-only rows, so every estimate over the set shares it."""
        table = GradientTable(_reward_score_means(self), self.ids)
        table.grads.flags.writeable = False
        return table

    def __getitem__(self, prompt_id: str) -> PromptSamples:
        try:
            return self._block(self._index[prompt_id])
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise DomainError(f"unknown prompt id {prompt_id!r}") from None


# Prompts per array pass in the chunked loops: bounds their temporaries, so
# memory does not grow with the number of prompts.
CHUNK_PROMPTS = 512
# Prompts per array pass of the stream kernel: bounds its (7, LANES) word
# array, so memory grows with neither the number of prompts nor the number
# of draws.  Every pass pays about 30 ufunc calls per draw column, so LANES
# is large enough for a 6000-prompt batch to take one pass.
LANES = 1 << 14


def _stream_key(prompt_id: str) -> int:
    """Stable 64-bit key for a prompt id, independent of batch position:
    the first 8 bytes of its sha256, read little-endian."""
    digest = hashlib.sha256(prompt_id.encode()).digest()
    return int.from_bytes(digest[:8], "little")


@lru_cache(maxsize=8)
def _stream_keys(ids: tuple) -> np.ndarray:
    """Read-only uint64 _stream_key(pid) for pid in ids, hashed once per ids
    tuple for every seed: of the joined 32-byte digests, every fourth
    little-endian word, each digest's first, read at once."""
    digests = b"".join([hashlib.sha256(pid.encode()).digest() for pid in ids])
    keys = np.frombuffer(digests, dtype="<u8")[::4].copy()
    keys.flags.writeable = False
    return keys


def prompt_rng(seed: int, prompt_id: str) -> np.random.Generator:
    """The stream of one prompt: the definition sample_actions reproduces."""
    seed = _check_seed(seed)
    _str_ids((prompt_id,))  # a str, as every prompt id
    return np.random.default_rng(np.random.SeedSequence([seed, _stream_key(prompt_id)]))


# SeedSequence's hash constants (pool of 4 uint32 words) and PCG64's LCG
# multiplier, as numpy defines them; tests check the result against
# prompt_rng bit for bit.
POOL_WORDS = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
MASK32, MASK64 = 2**32 - 1, 2**64 - 1


def _seed_states(entropy: list) -> list:
    """SeedSequence(entropy).generate_state(8, uint32) for many columns.

    ``entropy`` holds one (P,) uint32 array per entropy word.  The hash
    constants depend only on the number of words, so the mix is the same
    uint32 arithmetic for every column and runs as array operations.  A
    column whose last word is 0 mixes as if that word were absent: the pool
    pads with 0 anyway, and past the pool that word's round is skipped.
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
    for i in range(POOL_WORDS, len(entropy)):
        keep = entropy[i] != 0 if i == len(entropy) - 1 else True
        pool = [np.where(keep, mix(v, hashmix(entropy[i])), v) for v in pool]
    h = INIT_B
    state = []
    for i in range(8):
        value = pool[i % POOL_WORDS] ^ np.uint32(h)
        h = h * MULT_B & MASK32
        value = value * np.uint32(h)
        state.append(value ^ (value >> np.uint32(16)))
    return state


def _pcg64_seeds(seed: int, keys: np.ndarray) -> np.ndarray:
    """(4, P) uint64 whose column i is SeedSequence([seed, keys[i]])
    .generate_state(4, uint64), the words that seed prompt i's PCG64.

    The mix runs over all P uint64 keys in one pass, each as two words, low
    first: the zero high word of a key below 2**32 mixes as the absent one.
    """
    # the seed's 32-bit words as SeedSequence splits it (0 is one word),
    # then the key's two; astype keeps the low 32 bits of each shift
    shifts = range(0, max(seed.bit_length(), 1), 32)
    entropy = [np.full(keys.size, seed >> s & MASK32, dtype=np.uint32) for s in shifts]
    entropy += [(keys >> np.uint64(s)).astype(np.uint32) for s in (0, 32)]
    state = [word.astype(np.uint64) for word in _seed_states(entropy)]
    return np.stack([state[j] | (state[j + 1] << np.uint64(32)) for j in (0, 2, 4, 6)])


# PCG64 in uint64 words.  numpy has no 128-bit integers, so a 128-bit value
# is a (hi, lo) pair of uint64 rows, and the high half of a 64 x 64-bit
# product is assembled from 32-bit limbs.  The kernel keeps its p streams in
# one (7, p) array of words, rows state hi, state lo, inc hi, inc lo and
# three scratch rows, which every step updates in place.
_U1, _U11, _U32, _U58, _U63, _U64 = map(np.uint64, (1, 11, 32, 58, 63, 64))
_LOW32 = np.uint64(MASK32)


def _multiplier(a: int) -> tuple:
    """A 128-bit multiplier as uint64 scalars: its high word, its low word
    and the low word's two 32-bit limbs, low first."""
    return tuple(map(np.uint64, (a >> 64, a & MASK64, a & MASK32, a >> 32 & MASK32)))


_ONE, _MULT = _multiplier(1), _multiplier(PCG64_MULT)


def _muladd(mult: tuple, words: np.ndarray, carry: np.ndarray) -> None:
    """state = (mult * state + inc) mod 2**128 in place on ``words`` (7, p);
    ``carry`` is a (p,) bool buffer.

    The high word sums a_lo * hi, a_hi * lo, inc's high word, the high half
    of a_lo * lo and the carry out of the low word, each mod 2**64.
    """
    a_hi, a_lo, m0, m1 = mult
    hi, lo, inc_hi, inc_lo, x0, x1, t = words
    np.multiply(lo, a_hi, out=t)
    np.bitwise_and(lo, _LOW32, out=x0)
    np.right_shift(lo, _U32, out=x1)
    state = words[:2]
    state *= a_lo
    state += words[2:4]  # hi: a_lo * hi + inc_hi; lo: the new low word
    np.less(lo, inc_lo, out=carry)
    hi += carry
    hi += t
    # the high half of a_lo * lo from lo's 32-bit limbs x0, x1 and a_lo's m0, m1
    np.multiply(x1, m1, out=t)
    hi += t
    np.multiply(x0, m0, out=t)
    t >>= _U32
    x0 *= m1
    x1 *= m0
    x1 += t  # x1 * m0 + (x0 * m0 >> 32): below 2**64
    np.right_shift(x1, _U32, out=t)
    hi += t
    x1 &= _LOW32
    x1 += x0
    x1 >>= _U32
    hi += x1


def _xsl_rr(words: np.ndarray) -> np.ndarray:
    """PCG64's output word of the state in ``words`` (7, p): hi ^ lo rotated
    right by hi's top 6 bits, written to scratch row 4, which is returned."""
    hi, lo, _, _, v, rot, t = words
    np.bitwise_xor(hi, lo, out=v)
    np.right_shift(hi, _U58, out=rot)
    np.right_shift(v, rot, out=t)
    np.subtract(_U64, rot, out=rot)
    rot &= _U63
    v <<= rot
    v |= t
    return v


def _pcg64_doubles(seeds: np.ndarray, out: np.ndarray) -> None:
    """Fill the (p, n) ``out`` with the doubles of the p PCG64 streams that
    ``seeds`` (4, p) seeds, as Generator.random(n) makes them.

    The streams step in lockstep, one LCG step per draw column ``out[:, j]``;
    _uniform_draws passes the transpose of a draw-major (n, p) array, so
    each column is written as one contiguous row.  Every step works in place
    on one (7, p) word array and one carry mask, allocated once per call, so
    no step allocates.  Seeding (pcg_setseq_128_srandom_r) sets
    inc = (initseq << 1) | 1 and leaves the state one LCG step past
    inc + initstate, which is 1 * initstate + inc; each draw steps first.
    """
    words = np.empty((7, seeds.shape[1]), dtype=np.uint64)
    carry = np.empty(seeds.shape[1], dtype=bool)
    words[:2] = seeds[:2]
    np.left_shift(seeds[2:], _U1, out=words[2:4])
    words[2] |= seeds[3] >> _U63
    words[3] |= _U1
    _muladd(_ONE, words, carry)
    _muladd(_MULT, words, carry)
    for j in range(out.shape[1]):
        _muladd(_MULT, words, carry)
        v = _xsl_rr(words)
        v >>= _U11
        np.multiply(v, 2.0**-53, out=out[:, j], casting="unsafe")


def _uniform_draws(seed: int, ids, n: int) -> np.ndarray:
    """(P, n) array whose row i is prompt_rng(seed, ids[i]).random(n), bit for bit.

    With fewer prompts than draws each C-ordered row is read from prompt_rng
    itself.  Otherwise the kernel runs the streams LANES prompts per array
    pass into a draw-major (n, P) array, writing each draw column of a pass
    as one contiguous row, and the result is that array's transpose view.
    """
    if len(ids) < n:
        out = np.empty((len(ids), n))
        for pid, row in zip(ids, out):
            prompt_rng(seed, pid).random(out=row)
        return out
    # before the seed mix's temporaries: allocated after them, glibc placed
    # the buffer in fresh pages on every call of a repeated mc run
    out = np.empty((n, len(ids)))
    seeds = _pcg64_seeds(seed, _stream_keys(tuple(ids)))
    for lo in range(0, len(ids), LANES):
        lanes = slice(lo, lo + LANES)
        _pcg64_doubles(seeds[:, lanes], out[:, lanes].T)
    return out.T


def sample_actions(theta, batch: PromptBatch, n: int, seed: int) -> SampleSet:
    """Draw n policy actions per prompt with rewards and score vectors.

    For the logistic policy the score of action 1 is (1 - sigma) * psi
    and of action 0 is -sigma * psi.  Prompt i's uniform draws are
    prompt_rng(seed, prompt id).random(n) (_uniform_draws); the actions,
    rewards and scores are one array pass each, and the set stores those
    arrays.  seed must be an integer >= 0.
    """
    sig = _sigmoid(theta, batch.features)[:, None]
    n = _check_int("n", n, 1)
    seed = _check_seed(seed)
    p = len(batch)
    uniform = _uniform_draws(seed, batch.ids, n)
    actions = np.less(uniform, sig, out=np.empty((p, n), dtype=int))
    # written over the spent uniform draws, in either of their layouts, as
    # a C-ordered (P, n) view: one (P, n) array fewer
    rewards = uniform.ravel(order="K").reshape(p, n)
    np.equal(actions, batch.correct_actions[:, None], out=rewards)
    del uniform
    # each prompt has two score vectors, rows 2i and 2i + 1 of the table;
    # taking one per draw gives the products a per-draw coefficient would.
    # The row offsets 2i are added to the actions in place for the gather
    # and taken off again, so no (P, n) index array is made.
    table = np.stack([-sig * batch.features, (1.0 - sig) * batch.features], axis=1)
    rows = 2 * np.arange(p)[:, None]
    actions += rows
    scores = np.take(table.reshape(2 * p, -1), actions, axis=0)
    actions -= rows
    return SampleSet(
        batch.ids,
        np.arange(p + 1) * n,
        actions.reshape(p * n),
        rewards.reshape(p * n),
        scores.reshape(p * n, -1),
    )


def _reward_score_means(samples: SampleSet) -> np.ndarray:
    """(P, d) per-prompt mean of reward * score.

    Prompts with equal draw counts are taken CHUNK_PROMPTS at a time as
    (chunk, n, d) rows and reduced along the draw axis, bit for bit what each
    block's own mean gives.  A chunk of consecutive prompts is a slice of
    the stored arrays; any other chunk is gathered.

    Each reward is repeated d times, so reward * score is one contiguous
    product.  For d > 1 numpy's mean adds the draws one at a time, starting
    from +0.0, so adding the n draw rows of a chunk in a loop and dividing
    gives its bits.  The rows are added transposed into a (d, chunk) total,
    so each add runs one inner loop over the chunk, not one of length d per
    prompt.  d == 1 keeps the mean: there the draw axis is the contiguous
    one and numpy sums it pairwise.
    """
    offsets, d = samples.offsets, samples.dim
    counts = np.diff(offsets)
    out = np.empty((len(samples), d))
    # not np.unique, whose first call imports numpy.ma
    for n in sorted(set(counts.tolist())):
        idx = np.flatnonzero(counts == n)
        for lo in range(0, idx.size, CHUNK_PROMPTS):
            chunk = idx[lo : lo + CHUNK_PROMPTS]
            if chunk[-1] - chunk[0] == chunk.size - 1:
                rows = slice(offsets[chunk[0]], offsets[chunk[-1] + 1])
            else:
                rows = (offsets[chunk, None] + np.arange(n)).reshape(-1)
            products = np.repeat(samples.rewards[rows], d).reshape(chunk.size, n, d)
            products *= samples.scores[rows].reshape(chunk.size, n, d)
            if d == 1:
                out[chunk] = products.mean(axis=1)
                continue
            total = np.zeros((d, chunk.size))
            for j in range(n):
                total += products[:, j].T
            out[chunk] = total.T / n
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
    is measured in the test suite.  This is assemble_passk_gradient over
    samples.table: the profile's mass weights the set's prompts, and the
    profile must carry the set's ids (AlignmentError otherwise).
    """
    return assemble_passk_gradient(samples.table, profile, k)


def export_samples(samples: SampleSet, path) -> None:
    """One JSON record per sampled action: {prompt_id, action, reward, score}.

    Each line holds the bytes json.dumps gives for the record: a per-prompt
    prefix with the JSON-escaped id, then repr of each score, which is how
    json writes a finite float (a SampleSet's scores are finite).  A prompt's
    distinct (action, reward, score bits) are formatted once each: bits, as
    0.0 == -0.0 but their reprs differ.
    """
    score = ", ".join(["%r"] * samples.dim)
    fields = ', "action": %d, "reward": %d, "score": [' + score + "]}\n"
    row_bits = np.dtype((np.void, 8 * samples.dim))
    unpack = struct.Struct("%dd" % samples.dim).unpack
    offsets = samples.offsets.tolist()
    with Path(path).open("w", encoding="utf-8") as fh:
        for pid, lo, hi in zip(samples.ids, offsets, offsets[1:]):
            # a % in the id is doubled, so the format reads it as text
            line = '{"prompt_id": ' + json.dumps(pid).replace("%", "%%") + fields
            bits = np.ascontiguousarray(samples.scores[lo:hi]).view(row_bits)[:, 0]
            acts, rews = samples.actions[lo:hi].tolist(), samples.rewards[lo:hi].tolist()
            keys = list(zip(acts, rews, bits.tolist()))  # %d writes 1.0 as 1
            texts = dict.fromkeys(keys)
            for key in texts:
                texts[key] = line % (key[0], key[1], *unpack(key[2]))
            fh.write("".join(map(texts.__getitem__, keys)))


def _parse_draw(path, lineno: int, line: str, dim: int) -> tuple:
    """(prompt_id, action, reward, score) of a sample file's nonblank line;
    dim is the score length of the file's first record, 0 before it."""
    rec = parse_record(path, lineno, line)
    try:
        action, reward = rec["action"], rec["reward"]
        score = number_list(rec["score"], "score")
    except (KeyError, DomainError, OverflowError) as exc:
        raise line_error(path, lineno, exc) from exc
    if type(action) is not int or action not in (0, 1):
        raise line_error(path, lineno, f"action must be 0 or 1, got {_shown(action)}")
    if type(reward) not in (int, float) or reward not in (0, 1):
        raise line_error(path, lineno, f"reward must be 0 or 1, got {_shown(reward)}")
    if dim and len(score) != dim:
        raise line_error(path, lineno, f"score dimension {len(score)} differs from {dim}")
    return rec["prompt_id"], action, reward, score


def import_samples(path) -> SampleSet:
    """Read a sample set written by export_samples (order-preserving).

    action must be the JSON integer 0 or 1, reward the number 0 or 1, and
    score a nonempty list of finite JSON numbers (serialization.number_list)
    of one length throughout; a bad record raises DomainError naming its
    line.  Prompts come in order of first appearance, each with its draws
    in file order.  A line is parsed once per run of its prompt's lines; the
    memo keeps valid lines only, so an error names its first line, and it is
    cleared when a parsed line starts another prompt.
    """
    index: dict[str, int] = {}  # prompt_id -> position, in first-seen order
    owner, actions, rewards, scores = [], [], [], []  # per distinct valid line
    memo: dict[str, int] = {}  # line text -> its distinct row, for the current prompt
    rows = []  # the distinct row of each line
    current, dim = None, 0  # the last parsed line's prompt; the first score length
    for lineno, line in read_lines(path):
        row = memo.get(line)
        if row is None:
            if not line:
                continue
            pid, action, reward, score = _parse_draw(path, lineno, line, dim)
            dim = len(score)
            if pid != current:
                current = pid
                memo.clear()
            row = memo[line] = len(owner)
            owner.append(index.setdefault(pid, len(index)))
            actions.append(action)
            rewards.append(reward)
            scores.append(score)
        rows.append(row)
    if not rows:
        raise no_records(path)
    rows = np.array(rows)
    owner = np.array(owner)[rows]
    rows = rows[np.argsort(owner, kind="stable")]  # group each prompt's draws
    return SampleSet(
        index,
        np.concatenate([[0], np.cumsum(np.bincount(owner))]),
        np.array(actions)[rows],
        np.array(rewards, dtype=float)[rows],
        np.array(scores, dtype=float)[rows],
    )
