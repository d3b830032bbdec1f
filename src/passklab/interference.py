"""Prompt-similarity kernel and agreement scores.

Two prompts interfere through the inner product of their per-prompt
success-probability gradients: positive means an update helping one
tends to help the other, negative means it tends to hurt it.  The
agreement score of a prompt is the same inner product taken against the
population mean gradient.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .objectives import _column, _reals
from .serialization import write_csv

ZERO_NORM = 1e-15


@dataclass(frozen=True)
class GradientTable:
    """Per-prompt gradient rows and their prompt ids.  The prompt
    distribution that weights them is a SuccessProfile's."""

    grads: np.ndarray  # (n, d)
    ids: tuple

    def __post_init__(self):
        grads = _reals("grads", self.grads)
        object.__setattr__(self, "grads", grads)
        object.__setattr__(self, "ids", _column("ids", tuple, self.ids))
        if grads.ndim != 2 or grads.shape[0] == 0:
            raise DomainError("grads must be a nonempty (n, d) matrix")
        if len(self.ids) != grads.shape[0]:
            raise DomainError("grads and ids must share length n")

    @classmethod
    def uniform(cls, grads, ids=None) -> "GradientTable":
        """The table with ids "0" to "n-1" unless ids are given."""
        grads = _reals("grads", grads)
        n = grads.shape[0] if grads.ndim else 0  # a scalar fails the constructor
        return cls(grads, tuple(map(str, range(n))) if ids is None else ids)


def _check_row_products(table: GradientTable) -> None:
    """Refuse d * max|entry|**2 above 2**510 (DomainError): it bounds each
    squared row norm M, so no product of two rows (<= M) overflows."""
    d, top = table.grads.shape[1], float(max(table.grads.max(), -table.grads.min()))
    if not d * top * top <= 2.0**510:
        raise DomainError(f"gradient entries up to {top!r} are too large at d = {d}")


def kernel_matrix(table: GradientTable) -> np.ndarray:
    """Full pairwise cosine kernel of the gradient rows.

    Rows with norm below 1e-15 carry no update direction, so their
    entries are defined as 0.  Rows too large for conflict_report are refused.
    """
    _check_row_products(table)
    norms = np.sqrt(np.einsum("ij,ij->i", table.grads, table.grads))
    dead = norms < ZERO_NORM
    safe = np.where(dead, 1.0, norms)
    cos = np.einsum("ij,kj->ik", table.grads, table.grads) / np.outer(safe, safe)
    cos[dead, :] = 0.0
    cos[:, dead] = 0.0
    np.fill_diagonal(cos, np.where(dead, 0.0, 1.0))  # self-similarity is exact
    return cos


def agreement_scores(table: GradientTable, direction: np.ndarray) -> np.ndarray:
    """Inner product of each gradient row with direction, the population
    mean gradient."""
    return np.einsum("ij,j->i", table.grads, direction)


def kernel_matrix_to_csv(matrix: np.ndarray, ids, path) -> None:
    """Matrix CSV with ids as both the header row and the leading column."""
    ids = list(ids)
    header = ["id", *ids]
    rows = ([ids[i], *matrix[i]] for i in range(len(ids)))
    write_csv(path, header, rows)
