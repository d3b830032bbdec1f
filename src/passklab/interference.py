"""Prompt-similarity kernel, agreement scores, and interfering-set masses.

Two prompts interfere through the inner product of their per-prompt
success-probability gradients: positive means an update helping one
tends to help the other, negative means it tends to hurt it.  The
agreement score of a prompt is the same inner product taken against the
population mean gradient.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, DomainError, IdentityCheckError
from .objectives import (
    SuccessProfile,
    check_mass,
    ordered_dot,
    weighted_row_sum,
    wk_array,
)
from .serialization import write_csv

ZERO_NORM = 1e-15


@dataclass(frozen=True)
class GradientTable:
    """Per-prompt gradient rows, the prompt distribution, and their mean."""

    grads: np.ndarray  # (n, d)
    mass: np.ndarray  # (n,)
    ids: tuple
    mean_grad: np.ndarray = field(init=False)  # mass-weighted row sum

    def __post_init__(self):
        grads = np.asarray(self.grads, dtype=float)
        mass = np.asarray(self.mass, dtype=float)
        ids = tuple(self.ids)
        if grads.ndim != 2 or grads.shape[0] == 0:
            raise DomainError("grads must be a nonempty (n, d) matrix")
        n = grads.shape[0]
        if mass.shape != (n,) or len(ids) != n:
            raise DomainError("grads, mass, and ids must share length n")
        if np.any(~np.isfinite(grads)):
            raise DomainError("gradient entries must be finite")
        check_mass(mass)
        object.__setattr__(self, "grads", grads)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "mean_grad", weighted_row_sum(mass, grads))

    def __len__(self) -> int:
        return self.grads.shape[0]

    @property
    def dim(self) -> int:
        return self.grads.shape[1]

    @classmethod
    def uniform(cls, grads, ids=None) -> "GradientTable":
        grads = np.asarray(grads, dtype=float)
        n = grads.shape[0]
        if ids is None:
            ids = tuple(str(i) for i in range(n))
        return cls(grads=grads, mass=np.full(n, 1.0) / n, ids=tuple(ids))


def kernel_matrix(table: GradientTable, normalize: bool = False) -> np.ndarray:
    """Full pairwise kernel; cosine-normalized rows when normalize is set.

    Rows with norm below 1e-15 carry no update direction, so their
    normalized entries are defined as 0.
    """
    raw = table.grads @ table.grads.T
    if not normalize:
        return raw
    norms = np.linalg.norm(table.grads, axis=1)
    safe = np.where(norms < ZERO_NORM, 1.0, norms)
    cos = raw / np.outer(safe, safe)
    dead = norms < ZERO_NORM
    cos[dead, :] = 0.0
    cos[:, dead] = 0.0
    np.fill_diagonal(cos, np.where(dead, 0.0, 1.0))  # self-similarity is exact
    return cos


def agreement_scores(table: GradientTable) -> np.ndarray:
    """Inner product of each gradient row with the population mean gradient."""
    return table.grads @ table.mean_grad


@dataclass(frozen=True)
class AgreementProfile:
    """Agreement scores, pass@k weights, and the margin-m negatively
    interfering set: the population state at one point.

    mean_score is the mass-weighted mean agreement; neg_set holds indices
    with score <= -margin; q is their probability mass; w_minus / w_plus
    aggregate the pass@k weights inside and outside the set.
    """

    scores: np.ndarray
    weights: np.ndarray
    mean_score: float
    margin: float
    k: int
    neg_set: tuple
    q: float
    w_minus: float
    w_plus: float


def classify_interference(
    table: GradientTable, profile: SuccessProfile, margin: float, k: int
) -> AgreementProfile:
    """Split the prompt distribution by agreement sign at the given margin.

    Also verifies the identity that the mass-weighted mean agreement
    equals the squared norm of the mean gradient.
    """
    if not margin > 0:
        raise DomainError(f"margin must be > 0, got {margin}")
    if tuple(profile.ids) != tuple(table.ids):
        raise AlignmentError("profile and table must list the same prompt ids")
    scores = agreement_scores(table)
    mean_score = ordered_dot(table.mass, scores)
    norm_sq = float(table.mean_grad @ table.mean_grad)
    scale = max(abs(norm_sq), ordered_dot(table.mass, np.abs(scores)), 1e-300)
    if abs(mean_score - norm_sq) > 1e-10 * scale:
        raise IdentityCheckError(
            f"mean agreement {mean_score} != ||mean grad||^2 {norm_sq}"
        )
    neg = scores <= -margin
    weights = wk_array(profile.probs, k)
    q = ordered_dot(table.mass, neg.astype(float))
    w_minus = ordered_dot(table.mass, np.where(neg, weights, 0.0))
    w_plus = ordered_dot(table.mass, np.where(neg, 0.0, weights))
    return AgreementProfile(
        scores=scores,
        weights=weights,
        mean_score=mean_score,
        margin=float(margin),
        k=int(k),
        neg_set=tuple(np.flatnonzero(neg).tolist()),
        q=q,
        w_minus=w_minus,
        w_plus=w_plus,
    )


def kernel_matrix_to_csv(matrix: np.ndarray, ids, path) -> None:
    """Matrix CSV with ids as both the header row and the leading column."""
    ids = list(ids)
    header = ["id", *ids]
    rows = ([ids[i], *matrix[i]] for i in range(len(ids)))
    write_csv(path, header, rows)
