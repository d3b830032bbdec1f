"""Two-action contextual bandit with closed-form success probabilities.

Prompts are drawn from a two-component Gaussian mixture over a scalar
feature; an "easy" prompt has correct action 0 and a "hard" prompt has
correct action 1.  The policy is logistic in the 2-d feature
[1, s], so success probabilities and their gradients have exact closed
forms, which is what makes this environment usable as a ground-truth
oracle for every estimator and bound in the package.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

EASY, HARD = "easy", "hard"

DEFAULT_SEPARATION = 0.2
DEFAULT_HARD_FRACTION = 0.3
DEFAULT_SEED = 7


@dataclass(frozen=True)
class BanditConfig:
    separation: float = DEFAULT_SEPARATION
    hard_fraction: float = DEFAULT_HARD_FRACTION
    feature_std: float = 1.0
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if not self.separation > 0:
            raise DomainError(f"separation must be > 0, got {self.separation}")
        if not 0.0 <= self.hard_fraction <= 1.0:
            raise DomainError(
                f"hard_fraction must lie in [0, 1], got {self.hard_fraction}"
            )
        if not self.feature_std > 0:
            raise DomainError(f"feature_std must be > 0, got {self.feature_std}")


@dataclass(frozen=True)
class PromptBatch:
    """Column-oriented batch of prompts.

    Row i is one prompt: features [1.0, s] with s finite, a label EASY or
    HARD, and correct action 0 for easy and 1 for hard.  Ids are unique.
    """

    ids: tuple
    features: np.ndarray  # (n, 2)
    labels: np.ndarray  # (n,) of EASY/HARD
    correct_actions: np.ndarray  # (n,) of {0, 1}

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels)
        actions = np.asarray(self.correct_actions)
        object.__setattr__(self, "ids", tuple(self.ids))
        n = len(self.ids)
        if feats.shape != (n, 2) or labels.shape != (n,) or actions.shape != (n,):
            raise DomainError("batch columns must share length n")
        if n == 0:
            raise DomainError("batch must be nonempty")
        if np.any(feats[:, 0] != 1.0):
            raise DomainError("features[:, 0] must be exactly 1")
        if not np.all(np.isfinite(feats)):
            raise DomainError("features must be finite")
        hard = labels == HARD
        unknown = np.flatnonzero(~hard & (labels != EASY))
        if unknown.size:
            raise DomainError(
                f"label must be easy or hard, got {str(labels[unknown[0]])!r}"
            )
        if not np.array_equal(actions, hard):
            raise DomainError("correct_action must be 1 iff label is hard")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "correct_actions", hard.astype(int))
        _id_index(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def hard_mask(self) -> np.ndarray:
        return self.labels == HARD


def _id_index(ids: tuple) -> dict:
    """Map each id to its position, rejecting an id that appears twice."""
    index = {pid: i for i, pid in enumerate(ids)}
    if len(index) < len(ids):
        # index keeps each id's last position, so the first mismatch is a repeat
        dup = next(pid for i, pid in enumerate(ids) if index[pid] != i)
        raise DomainError(f"prompt id {dup!r} appears more than once")
    return index


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
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or np.any(~np.isfinite(theta)):
        raise DomainError("theta must be a finite 1-d vector")
    return theta


def sample_prompts(config: BanditConfig, n: int) -> PromptBatch:
    """Draw n prompts: label ~ Bernoulli(hard_fraction), then the scalar
    feature from N(+sep/2, std) for hard and N(-sep/2, std) for easy.

    Deterministic for a given config.seed.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(config.seed)
    hard = rng.random(n) < config.hard_fraction
    centers = np.where(hard, config.separation / 2.0, -config.separation / 2.0)
    s = rng.normal(centers, config.feature_std)
    return PromptBatch(
        ids=tuple(str(i) for i in range(n)),
        features=np.stack([np.ones(n), s], axis=1),
        labels=np.where(hard, HARD, EASY),
        correct_actions=hard.astype(int),
    )


def success_probs(theta, batch: PromptBatch) -> np.ndarray:
    """Probability of picking the correct action, per prompt of the batch."""
    theta = _check_theta(theta)
    p1 = expit(batch.features @ theta)
    return np.where(batch.hard_mask, p1, 1.0 - p1)


def sigmoid_slope(theta, features) -> np.ndarray:
    """z = sigma(u) * (1 - sigma(u)) at u = theta . features; in (0, 1/4]."""
    u = np.asarray(features, dtype=float) @ _check_theta(theta)
    sig = expit(u)
    return sig * (1.0 - sig)


def grad_success_probs(theta, batch: PromptBatch) -> np.ndarray:
    """(n, 2) matrix of per-prompt gradients of success_probs in theta:
    -z*psi for easy, +z*psi for hard."""
    z = sigmoid_slope(theta, batch.features)
    signs = np.where(batch.hard_mask, 1.0, -1.0)
    return (signs * z)[:, None] * batch.features


def derive_reference_theta(
    p_easy_target: float,
    p_hard_target: float,
    psi_easy=(1.0, -0.1),
    psi_hard=(1.0, 0.1),
) -> np.ndarray:
    """Solve for the 2-d parameter hitting the two target success rates.

    The easy prompt succeeds with probability 1 - sigma(theta . psi_easy)
    and the hard one with sigma(theta . psi_hard), so the targets pin a
    2x2 linear system in logit space, solved exactly.
    """
    for name, p in (("p_easy_target", p_easy_target), ("p_hard_target", p_hard_target)):
        if not 0.0 < p < 1.0:
            raise DomainError(f"{name} must lie strictly inside (0, 1), got {p}")
    a = np.array([np.asarray(psi_easy, float), np.asarray(psi_hard, float)])
    if abs(np.linalg.det(a)) < 1e-12:
        raise DomainError("psi_easy and psi_hard are collinear; system is singular")
    b = np.array([logit(1.0 - p_easy_target), logit(p_hard_target)])
    return np.linalg.solve(a, b)


def reference_theta() -> np.ndarray:
    """The default easy-biased starting parameter (0.86 easy / 0.10 hard)."""
    return derive_reference_theta(0.86, 0.10)


def overlap_pair(theta=None) -> tuple[PromptBatch, np.ndarray]:
    """The canonical two-prompt batch from the overlap region.

    One easy prompt at feature +(-0.1) and one hard prompt at +0.1, with
    nearly identical representations and hence strongly opposed success
    gradients under any parameter.
    """
    if theta is None:
        theta = reference_theta()
    batch = PromptBatch(
        ids=("x_e", "x_h"),
        features=np.array([[1.0, -0.1], [1.0, 0.1]]),
        labels=np.array([EASY, HARD]),
        correct_actions=np.array([0, 1]),
    )
    return batch, np.asarray(theta, dtype=float)


def policy_regularity_constants(batch: PromptBatch) -> tuple[float, float]:
    """Uniform-in-theta bounds (g2, f) for the logistic policy on a batch.

    The expected squared score norm and the expected score-Hessian norm
    both equal z * ||psi||**2 in closed form, and z <= 1/4 for every
    parameter, so max ||psi||**2 / 4 bounds both quantities at any theta.
    Using the uniform bound keeps smoothness certificates valid along
    whole update segments, not just at the current iterate.
    """
    norm_sq = np.max(np.sum(batch.features**2, axis=1))
    bound = float(norm_sq / 4.0)
    return bound, bound
