"""Prompt-similarity kernel and agreement scores.

Two prompts interfere through the inner product of their per-prompt
success-probability gradients: positive means an update helping one
tends to help the other, negative means it tends to hurt it.  The
agreement score of a prompt is the same inner product taken against the
population mean gradient.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .objectives import check_mass, weighted_row_sum
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
        n = grads.shape[0] if grads.ndim else 0  # a scalar fails the constructor
        if ids is None:
            ids = tuple(str(i) for i in range(n))
        return cls(grads=grads, mass=np.full(n, 1.0) / n, ids=tuple(ids))


def kernel_matrix(table: GradientTable) -> np.ndarray:
    """Full pairwise cosine kernel of the gradient rows.

    Rows with norm below 1e-15 carry no update direction, so their
    entries are defined as 0.
    """
    raw = table.grads @ table.grads.T
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


def kernel_matrix_to_csv(matrix: np.ndarray, ids, path) -> None:
    """Matrix CSV with ids as both the header row and the leading column."""
    ids = list(ids)
    header = ["id", *ids]
    rows = ([ids[i], *matrix[i]] for i in range(len(ids)))
    write_csv(path, header, rows)
