"""Two-action contextual bandit with closed-form success probabilities.

Prompts are drawn from a two-component Gaussian mixture over a scalar
feature; an "easy" prompt has correct action 0 and a "hard" prompt has
correct action 1.  The policy is logistic in the 2-d feature
[1, s], so success probabilities and their gradients have exact closed
forms, which is what makes this environment usable as a ground-truth
oracle for every estimator and bound in the package.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .objectives import (_check_int, _check_prompt_ids, _check_seed, _column, _real, _reals,
                         check_mass)

EASY, HARD = "easy", "hard"

DEFAULT_SEPARATION = 0.2
DEFAULT_HARD_FRACTION = 0.3
DEFAULT_SEED = 7


@dataclass(frozen=True)
class BanditConfig:
    separation: float = DEFAULT_SEPARATION
    hard_fraction: float = DEFAULT_HARD_FRACTION
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not 0 < _real("separation", self.separation) < math.inf:
            raise DomainError(f"separation must be finite and > 0, got {self.separation}")
        if not 0.0 <= _real("hard_fraction", self.hard_fraction) <= 1.0:
            raise DomainError(
                f"hard_fraction must lie in [0, 1], got {self.hard_fraction}"
            )
        _check_seed(self.seed)


@dataclass(frozen=True)
class PromptBatch:
    """Column-oriented batch of prompts.

    Row i is one prompt: features [1.0, s] with s and s**2 finite, a label
    EASY or HARD, and correct action 0 for easy and 1 for hard.  Ids are
    unique strings.  features, labels and correct_actions are read-only
    copies, so a write to the caller's arrays cannot leave what is derived
    from them stale.  Derived once, when built, as read-only fields: the uniform
    mass (check_mass passed), each label's row indices with 1/size
    coefficients, and policy_regularity_constants.
    """

    ids: tuple
    features: np.ndarray  # (n, 2)
    labels: np.ndarray  # (n,) of EASY/HARD
    correct_actions: np.ndarray  # (n,) of {0, 1}
    mass: np.ndarray = field(init=False, repr=False, compare=False)
    label_rows: tuple = field(init=False, repr=False, compare=False)  # (label, idx, coef)
    constants: tuple = field(init=False, repr=False, compare=False)  # (g2, f)

    def __post_init__(self):
        feats = _reals("features", self.features).copy()
        labels = _column("labels", np.array, self.labels)
        actions = _column("correct_actions", np.asarray, self.correct_actions)
        object.__setattr__(self, "ids", _column("ids", tuple, self.ids))
        n = len(self.ids)
        if feats.shape != (n, 2) or labels.shape != (n,) or actions.shape != (n,):
            raise DomainError("batch columns must share length n")
        if n == 0:
            raise DomainError("batch must be nonempty")
        if np.any(feats[:, 0] != 1.0):
            raise DomainError("features[:, 0] must be exactly 1")
        hard = labels == HARD
        unknown = np.flatnonzero(~hard & (labels != EASY))
        if unknown.size:
            raise DomainError(
                f"label must be easy or hard, got {str(labels[unknown[0]])!r}"
            )
        if not np.array_equal(actions, hard):
            raise DomainError("correct_action must be 1 iff label is hard")
        correct = hard.astype(int)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "correct_actions", correct)
        _check_prompt_ids(self.ids)
        mass = np.full(n, 1.0 / n)
        check_mass(mass)
        idx = np.flatnonzero(~hard), np.flatnonzero(hard)
        coef = [np.full(i.size, 1.0 / max(i.size, 1)) for i in idx]  # empty if no row
        for array in (feats, labels, correct, mass, *idx, *coef):
            array.flags.writeable = False
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "label_rows", tuple(zip((EASY, HARD), idx, coef)))
        object.__setattr__(self, "constants", policy_regularity_constants(self))

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def hard_mask(self) -> np.ndarray:
        return self.correct_actions == 1  # equals labels == HARD, checked when built


def expit(u):
    """Logistic sigmoid 1 / (1 + exp(-u)); exp only sees -|u|, so it
    never overflows."""
    u = np.asarray(u, dtype=float)
    e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def logit(p):
    """Inverse of expit: log(p / (1 - p)), elementwise."""
    p = np.asarray(p, dtype=float)
    return np.log(p) - np.log1p(-p)


def _check_theta(theta) -> np.ndarray:
    theta = _reals("theta", theta)
    if theta.shape != (2,):
        raise DomainError("theta must be a 1-d vector of length 2")
    return theta


def sample_prompts(config: BanditConfig, n: int) -> PromptBatch:
    """Draw n prompts: label ~ Bernoulli(hard_fraction), then the scalar
    feature from N(+sep/2, 1) for hard and N(-sep/2, 1) for easy.

    Deterministic for a given config.seed.
    """
    n = _check_int("n", n, 1)
    rng = np.random.default_rng(config.seed)
    hard = rng.random(n) < config.hard_fraction
    centers = np.where(hard, config.separation / 2.0, -config.separation / 2.0)
    s = rng.normal(centers)
    return PromptBatch(
        ids=tuple(str(i) for i in range(n)),
        features=np.stack([np.ones(n), s], axis=1),
        labels=np.where(hard, HARD, EASY),
        correct_actions=hard.astype(int),
    )


def _sigmoid(theta, features) -> np.ndarray:
    """sigma(u) at the logits u = theta_0 + s * theta_1 of a batch's rows
    [1, s], elementwise and so free of BLAS: P(action 1), per row."""
    theta_0, theta_1 = _check_theta(theta)
    return expit(features[:, 1] * theta_1 + theta_0)


def _success_and_grad(theta, batch: PromptBatch) -> tuple[np.ndarray, np.ndarray]:
    """p and its (n, 2) gradient in theta from one logit vector: the success
    probability per prompt, and -z*psi for easy rows, +z*psi for hard, with
    z = sigma * (1 - sigma).  One multiply per feature column gives the bits
    of the (n, 2) broadcast without building it."""
    sig = _sigmoid(theta, batch.features)
    hard = batch.hard_mask
    z = sig * (1.0 - sig)
    signed = np.where(hard, z, -z)
    grads = np.empty(batch.features.shape)
    for j in range(grads.shape[1]):
        np.multiply(signed, batch.features[:, j], out=grads[:, j])
    return np.where(hard, sig, 1.0 - sig), grads


def success_probs(theta, batch: PromptBatch) -> np.ndarray:
    """Probability of picking the correct action, per prompt of the batch."""
    return _success_and_grad(theta, batch)[0]


def grad_success_probs(theta, batch: PromptBatch) -> np.ndarray:
    """(n, 2) matrix of per-prompt gradients of success_probs in theta:
    -z*psi for easy, +z*psi for hard."""
    return _success_and_grad(theta, batch)[1]


# Feature rows of the overlap pair's easy and hard prompt.
OVERLAP_FEATURES = ((1.0, -0.1), (1.0, 0.1))


def derive_reference_theta(p_easy_target: float, p_hard_target: float) -> np.ndarray:
    """Solve for the 2-d parameter hitting the two target success rates on
    the overlap pair.

    The easy prompt succeeds with probability 1 - sigma(theta . psi_easy)
    and the hard one with sigma(theta . psi_hard), so the targets pin a
    2x2 linear system in logit space, solved exactly.
    """
    for name, p in (("p_easy_target", p_easy_target), ("p_hard_target", p_hard_target)):
        if not 0.0 < _real(name, p) < 1.0:
            raise DomainError(f"{name} must lie strictly inside (0, 1), got {p}")
    b = np.array([logit(1.0 - p_easy_target), logit(p_hard_target)])
    return np.linalg.solve(np.array(OVERLAP_FEATURES), b)


def reference_theta() -> np.ndarray:
    """The default easy-biased starting parameter (0.86 easy / 0.10 hard)."""
    return derive_reference_theta(0.86, 0.10)


def overlap_pair() -> tuple[PromptBatch, np.ndarray]:
    """The canonical two-prompt batch from the overlap region, with the
    reference parameter.

    One easy prompt at feature -0.1 and one hard prompt at +0.1, with
    nearly identical representations and hence strongly opposed success
    gradients under any parameter.
    """
    batch = PromptBatch(
        ids=("x_e", "x_h"),
        features=np.array(OVERLAP_FEATURES),
        labels=np.array([EASY, HARD]),
        correct_actions=np.array([0, 1]),
    )
    return batch, reference_theta()


def policy_regularity_constants(batch: PromptBatch) -> tuple[float, float]:
    """Uniform-in-theta bounds (g2, f) for the logistic policy on a batch.

    The expected squared score norm and the expected score-Hessian norm
    both equal z * ||psi||**2 in closed form, and z <= 1/4 for every
    parameter, so max ||psi||**2 / 4 bounds both quantities at any theta.
    Using the uniform bound keeps smoothness certificates valid along
    whole update segments, not just at the current iterate.  Every psi is
    [1, s], and rounding is monotone, so max ||psi||**2 is 1 + max s**2.
    A batch computes this once, when it is built (PromptBatch.constants),
    and so refuses an s whose square leaves the float range (DomainError).
    """
    top = float(np.max(np.abs(batch.features[:, 1])))
    if not top * top < math.inf:
        raise DomainError(f"features up to |s| = {top!r} square past the float range")
    bound = (1.0 + top * top) / 4.0
    return bound, bound
