"""Reference forms that the package's fast forms must match bit for bit.

Scalar closed forms of the bandit: a prompt here is its feature row
psi = [1, s] and its label.  The policy picks action 1 with probability
sigma(theta . psi); the correct action is 0 for an easy prompt and 1 for
a hard one.  Each function is the one-prompt form of
`bandit.success_probs` or `bandit.grad_success_probs`, computed with the
same `bandit.expit`.

Two forms of each objective transform, and the allocating form of
`objectives.ordered_dot`.  A masked transform computes only the entries of
its own branch (a boolean gather and scatter); a whole-array transform
runs both routes over every entry, each route's input clamped to its own
side of 0.5, and `np.where` picks one per entry.  Each extraction pass of
the allocating form allocates its arrays.  The package's split
transforms and in-place ordered_dot give the same bits.

`block_mean_grad`: one prompt's Monte Carlo gradient from its own block
of draws, the per-prompt form of `SampleSet.table`.

`reference_state`: one trajectory step from these forms alone, the plain
definition that `optimizer.evaluate_state` must match bit for bit.

`import_samples_per_line`: a valid sample file read as the README states
its rules, one `json.loads` and one set of checks per line, the plain
definition that `mc.import_samples` must match.
"""

import json
import math

import numpy as np

from passklab import SuccessProfile, pass_at_k, success_probs
from passklab.bandit import EASY, HARD, expit
from passklab.objectives import (
    EXTRACT_LIMIT,
    EXTRACT_PASSES,
    _split,
    fk_array,
    ordered_dot,
    wk_array,
)


def slope(theta, psi):
    """z = sigma(u) * (1 - sigma(u)) at u = psi @ theta, for one feature row
    or an (n, 2) array of them; in (0, 1/4]."""
    sig = expit(np.asarray(psi, dtype=float) @ np.asarray(theta, dtype=float))
    return sig * (1.0 - sig)


def action_prob(theta, psi, action: int) -> float:
    """Probability the logistic policy picks `action` on the prompt psi."""
    p1 = float(expit(np.asarray(theta, dtype=float) @ np.asarray(psi, dtype=float)))
    return p1 if action == 1 else 1.0 - p1


def success_prob(theta, psi, label: str) -> float:
    """Probability of picking the correct action for the prompt."""
    return action_prob(theta, psi, 0 if label == EASY else 1)


def grad_success_prob(theta, psi, label: str) -> np.ndarray:
    """Gradient of success_prob in theta: -z*psi for easy, +z*psi for hard."""
    psi = np.asarray(psi, dtype=float)
    z = float(slope(theta, psi))
    sign = -1.0 if label == EASY else 1.0
    return sign * z * psi


def batch_objective(theta, batch, k: int) -> float:
    """Mass-uniform k-attempt objective over the batch (exact closed form)."""
    return pass_at_k(SuccessProfile.uniform(success_probs(theta, batch)), k)


def block_mean_grad(samples, prompt_id: str) -> np.ndarray:
    """One prompt's mean of reward * score over its own block of draws, the
    row that `SampleSet.table` must hold for it."""
    block = samples[prompt_id]
    return (block.rewards[:, None] * block.scores).mean(axis=0)


def import_samples_per_line(path) -> tuple:
    """(ids, offsets, actions, rewards, scores) of a valid sample file: every
    nonblank line is parsed and checked on its own; prompts in order of first
    appearance, each with its draws in file order.  An invalid line fails an
    assert."""
    draws = {}  # prompt_id -> [(action, reward, score)], in first-seen order
    dim = None
    with open(path, "rb") as fh:
        for raw in fh:
            line = raw.strip().decode("utf-8")
            if not line:
                continue
            rec = json.loads(line)
            assert type(rec) is dict and type(rec["prompt_id"]) is str
            action, reward, score = rec["action"], rec["reward"], rec["score"]
            assert type(action) is int and action in (0, 1)
            assert type(reward) in (int, float) and reward in (0, 1)
            assert type(score) is list and score
            assert all(type(v) in (int, float) and math.isfinite(v) for v in score)
            dim = dim or len(score)
            assert len(score) == dim
            draws.setdefault(rec["prompt_id"], []).append((action, reward, score))
    assert draws, "empty file"
    rows = [draw for block in draws.values() for draw in block]
    return (
        tuple(draws),
        np.cumsum([0] + [len(block) for block in draws.values()]),
        np.array([a for a, _, _ in rows]),
        np.array([r for _, r, _ in rows], dtype=float),
        np.array([s for _, _, s in rows], dtype=float),
    )


def masked_pow_one_minus(p, n: int) -> np.ndarray:
    """(1 - p)**n: log1p route on the entries p < 0.5, power on the rest."""
    p = np.asarray(p, dtype=float)
    if n == 0:
        return np.ones_like(p)
    out = np.empty_like(p)
    lo = p < 0.5
    out[lo] = np.exp(n * np.log1p(-p[lo]))
    out[~lo] = (1.0 - p[~lo]) ** n
    return out


def masked_fk_array(p, k: int) -> np.ndarray:
    """1 - (1 - p)**k: expm1 route on the entries p < 0.5, power on the rest."""
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    lo = p < 0.5
    out[lo] = -np.expm1(k * np.log1p(-p[lo]))
    out[~lo] = 1.0 - (1.0 - p[~lo]) ** k
    return out


def masked_wk_array(p, k: int) -> np.ndarray:
    return k * masked_pow_one_minus(p, k - 1)


def where_pow_one_minus(p, n: int) -> np.ndarray:
    """(1 - p)**n: both routes over every entry, np.where picks per entry."""
    p = np.asarray(p, dtype=float)
    lo = np.exp(n * np.log1p(-np.minimum(p, 0.5)))
    hi = (1.0 - np.maximum(p, 0.5)) ** n
    return np.where(p < 0.5, lo, hi)


def where_fk_array(p, k: int) -> np.ndarray:
    """1 - (1 - p)**k: both routes over every entry, np.where picks per entry."""
    p = np.asarray(p, dtype=float)
    lo = -np.expm1(k * np.log1p(-np.minimum(p, 0.5)))
    hi = 1.0 - (1.0 - np.maximum(p, 0.5)) ** k
    return np.where(p < 0.5, lo, hi)


def where_wk_array(p, k: int):
    return k * where_pow_one_minus(p, k - 1)


def allocating_ordered_dot(a, b) -> float:
    """The extraction of `objectives.ordered_dot`, top from np.max(np.abs)
    and new arrays for every (sigma + x) - sigma and every pass's test."""
    x = np.asarray(a, dtype=float) * np.asarray(b, dtype=float)
    top = float(np.max(np.abs(x), initial=0.0))
    if not 0.0 < top < EXTRACT_LIMIT:
        return math.fsum(memoryview(x))
    shift = (x.size + 1).bit_length()
    sigma = math.ldexp(1.0, max(shift + math.frexp(top)[1], -1022))
    parts = []
    for _ in range(EXTRACT_PASSES):
        q = (sigma + x) - sigma
        x -= q
        parts.append(float(q.sum()))
        if np.count_nonzero(x) == 0:
            break
        sigma = max(math.ldexp(sigma, shift - 53), 2.0**-1022)
    return math.fsum(parts + x[x != 0].tolist())


# The doubles at and around the branch point 0.5, at both ends of [0, 1]
# and the smallest subnormal.
EDGE_PROBS = (0.0, 5e-324, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0),
              1.0 - 2.0**-53, 1.0)


def random_probs(rng, size: int) -> np.ndarray:
    """The edge probabilities, then size draws split between uniform on
    [0, 1), log-uniform down to 1e-300, and 1 - 10**-u up to 1 - 1e-16."""
    third = size // 3
    return np.concatenate([
        EDGE_PROBS,
        rng.random(size - 2 * third),
        10.0 ** rng.uniform(-300.0, 0.0, third),
        1.0 - 10.0 ** rng.uniform(-16.0, 0.0, third),
    ])


def _hex_or_error(dot, a, b) -> str:
    """The sum's hex, or the error it raises (fsum raises on inf - inf)."""
    try:
        return dot(a, b).hex()
    except (ValueError, OverflowError) as exc:
        return repr(exc)


def ordered_dot_cases(rng, lengths) -> list:
    """(a, b) pairs with signed zeros, inf and nan, products >= 2**960,
    subnormal products and empty input, then one random pair of each of
    the given lengths."""
    cases = [(np.zeros(0), np.zeros(0)),
             (np.array([0.0, -0.0]), np.array([-1.0, 1.0])),
             (np.array([-0.0, -0.0]), np.array([1.0, 1.0])),
             (np.array([1.0, np.inf, -2.0]), np.ones(3)),
             (np.array([np.inf, -np.inf]), np.ones(2)),
             (np.array([1.0, np.nan]), np.ones(2)),
             (np.array([2.0**500, 3.0, -2.0**500]), np.array([2.0**460, 1.0, 2.0**460])),
             (np.array([2.0**960, 1.0]), np.array([1.0, 1.0])),
             (np.array([5e-324, -5e-324, 3e-320]), np.array([1.0, 1.0, 0.5])),
             (np.array([1e-200, 3e-170, -1e-160]), np.array([1e-130, 1e-160, 1e-170]))]
    top = max(lengths, default=0)
    a = rng.random(top)
    a[rng.random(top) < 0.1] = rng.choice([0.0, -0.0])
    b = np.ldexp(rng.normal(size=top), rng.integers(-40, 40, size=top))
    cases.extend((a[:n] / n, b[:n]) for n in lengths)
    return cases


def exact_form_mismatches(seed: int, size: int, ks, lengths) -> list:
    """Where the package's transforms and ordered_dot differ in any bit
    from the masked, whole-array and allocating forms above; empty when
    they agree.

    Transforms are compared as int64 views at every k in ks on
    random_probs(size): fk_array and wk_array, each call on its own split,
    and f_k, w_k and (1 - p)**k at every k finished from one shared,
    read-only split, as a SuccessProfile keeps it; ordered_dot against
    math.fsum and allocating_ordered_dot on ordered_dot_cases(lengths).
    """
    rng = np.random.default_rng(seed)
    p = random_probs(rng, size)
    shared = _split(p)
    bad = []
    for k in ks:
        fk_want, wk_want = masked_fk_array(p, k), masked_wk_array(p, k)
        pow_want = masked_pow_one_minus(p, k)
        pairs = (("fk_array", fk_array(p, k), fk_want),
                 ("wk_array", wk_array(p, k), wk_want),
                 ("shared fk", shared.fk(k), fk_want),
                 ("shared wk", shared.wk(k), wk_want),
                 ("shared one_minus_pow", shared.one_minus_pow(k), pow_want),
                 ("where_fk_array", where_fk_array(p, k), fk_want),
                 ("where_wk_array", where_wk_array(p, k), wk_want),
                 ("where_pow_one_minus", where_pow_one_minus(p, k), pow_want))
        for name, got, want in pairs:
            differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
            if differ.size:
                i = differ[0]
                bad.append(f"{name} k={k} p={p[i]!r}: {got[i].hex()} != {want[i].hex()}")
    for a, b in ordered_dot_cases(rng, lengths):
        want = _hex_or_error(lambda a, b: math.fsum((a * b).tolist()), a, b)
        for dot in (ordered_dot, allocating_ordered_dot):
            got = _hex_or_error(dot, a, b)
            if got != want:
                bad.append(f"{dot.__name__} n={a.size}: {got} != {want}")
    return bad


def reference_state(theta, batch, k: int, margin: float = 1e-6) -> dict:
    """The fields of evaluate_state(theta, batch, k, margin), each from its
    plain definition over arrays built afresh from the batch's columns:
    the logit as psi_0 theta_0 + psi_1 theta_1, the masked transforms,
    math.fsum for every expectation and an ascending loop for every
    mass-weighted sum of gradient rows (as weighted_row_sum adds them)."""
    theta = np.asarray(theta, dtype=float)
    psi, labels = batch.features, batch.labels.tolist()
    sig = expit(psi[:, 0] * theta[0] + psi[:, 1] * theta[1])
    hard = np.array([label == HARD for label in labels])
    p = np.where(hard, sig, 1.0 - sig)
    grads = (np.where(hard, 1.0, -1.0) * (sig * (1.0 - sig)))[:, None] * psi
    mass = np.full(len(labels), 1.0 / len(labels))

    def expect(coef, values):
        return math.fsum((coef * values).tolist())

    def row_sum(coef, vectors):
        total = np.zeros(vectors.shape[1])
        for c, v in zip(coef, vectors):
            total += c * v
        return total

    f1, fk, wk = masked_fk_array(p, 1), masked_fk_array(p, k), masked_wk_array(p, k)
    state = {"step": 0, "theta": theta,
             "j1_pop": expect(mass, f1), "jk_pop": expect(mass, fk)}
    for label in (EASY, HARD):
        idx = [i for i, name in enumerate(labels) if name == label]
        coef = np.full(len(idx), 1.0 / max(len(idx), 1))
        state[f"j1_{label}"] = expect(coef, f1[idx]) if idx else math.nan
        state[f"jk_{label}"] = expect(coef, fk[idx]) if idx else math.nan
    mean_grad = row_sum(mass, grads)
    state["grad_k"] = row_sum(mass * wk, grads)
    state["inner_product"] = expect(state["grad_k"], mean_grad)
    scores = np.array([g[0] * mean_grad[0] + g[1] * mean_grad[1] for g in grads])
    neg = scores <= -margin
    w_minus = expect(mass, np.where(neg, wk, 0.0))
    w_plus = expect(mass, np.where(neg, 0.0, wk))
    g2 = f = (1.0 + max(s * s for _, s in batch.features.tolist())) / 4.0
    delta = margin * w_minus - g2 * w_plus
    state["delta_bound"] = delta
    state["eta_max"] = None
    if delta > 0:
        lk, c2 = k * k * g2 + k * f, k * k * g2 * (g2 + f) / 2.0
        state["eta_max"] = min(delta / c2, 1.0 / lk)
    return state
