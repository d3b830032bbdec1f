"""Pass@k objective transforms, weights, bounds, and the sample estimator.

The central quantities are the per-prompt success transform
``f_k(p) = 1 - (1 - p)**k`` (probability that at least one of k
independent attempts succeeds) and its derivative
``w_k(p) = k * (1 - p)**(k - 1)``, the implicit reweighting factor that
multi-attempt objectives put on each prompt.  Everything here is a pure
function over immutable inputs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

# Powers become meaningless (and slow) long before this; no experiment
# in this package needs k beyond a few dozen.
MAX_K = 10**6


def _check_k(k: int) -> int:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise DomainError(f"k must be an integer, got {k!r}")
    if k < 1 or k > MAX_K:
        raise DomainError(f"k must be in [1, {MAX_K}], got {k}")
    return int(k)


def _check_prob(p: float, name: str = "p") -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {p}")
    return p


def _pow_one_minus(p: np.ndarray, n: int) -> np.ndarray:
    """Elementwise (1 - p)**n without spurious underflow for small p.

    For p < 0.5 the log1p route keeps tiny results (down to ~1e-300)
    representable instead of flushing them through a cancelled 1 - p.
    For p >= 0.5, 1 - p is exact in floating point and a plain power is
    the more accurate route.
    """
    p = np.asarray(p, dtype=float)
    if n == 0:
        return np.ones_like(p)
    out = np.empty_like(p)
    lo = p < 0.5
    out[lo] = np.exp(n * np.log1p(-p[lo]))
    out[~lo] = (1.0 - p[~lo]) ** n
    return out


def fk(p: float, k: int) -> float:
    """Success probability of the best of k attempts: 1 - (1 - p)**k."""
    k = _check_k(k)
    p = _check_prob(p)
    return float(fk_array(np.array([p]), k)[0])


def wk(p: float, k: int) -> float:
    """Prompt weight k * (1 - p)**(k - 1); the derivative of fk in p."""
    k = _check_k(k)
    p = _check_prob(p)
    return float(wk_array(np.array([p]), k)[0])


def fk_array(probs: np.ndarray, k: int) -> np.ndarray:
    """Vectorized fk over an array of probabilities.

    expm1 keeps small values accurate where 1 - (1 - p)**k would cancel.
    """
    k = _check_k(k)
    p = np.asarray(probs, dtype=float)
    out = np.empty_like(p)
    lo = p < 0.5
    out[lo] = -np.expm1(k * np.log1p(-p[lo]))
    out[~lo] = 1.0 - (1.0 - p[~lo]) ** k
    return out


def wk_array(probs: np.ndarray, k: int) -> np.ndarray:
    """Vectorized wk over an array of probabilities."""
    k = _check_k(k)
    return k * _pow_one_minus(np.asarray(probs, dtype=float), k - 1)


def ordered_dot(a, b) -> float:
    """Correctly rounded sum of a[i] * b[i], for every scalar expectation.

    math.fsum (Shewchuk 1997) rounds the exact sum once, so the result is
    the same in any summation order, vector width or thread count.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DomainError(f"need two equal-length vectors, got {a.shape}, {b.shape}")
    return math.fsum((a * b).tolist())


def weighted_row_sum(coef, rows) -> np.ndarray:
    """sum_i coef[i] * rows[i], for every mass-weighted gradient sum.

    einsum without optimize adds the rows in ascending index order, bit
    for bit like a scalar loop and with no (n, d) temporary; a BLAS
    product (coef @ rows) may group the sum by thread count.
    """
    return np.einsum("i,ij->j", coef, rows)


def check_mass(mass: np.ndarray) -> None:
    """Mass must be finite, nonnegative, and fsum to 1 within 1e-12."""
    if np.any(~np.isfinite(mass)) or np.any(mass < 0):
        raise DomainError("mass entries must be finite and nonnegative")
    if abs(ordered_dot(mass, np.ones_like(mass)) - 1.0) > 1e-12:
        raise DomainError("mass must sum to 1 within 1e-12")


@dataclass(frozen=True)
class SuccessProfile:
    """Per-prompt success probabilities plus the prompt distribution.

    probs and mass are aligned with ids; mass must be a probability
    vector (nonnegative, summing to 1 within 1e-12).
    """

    probs: np.ndarray
    mass: np.ndarray
    ids: tuple

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        mass = np.asarray(self.mass, dtype=float)
        ids = tuple(self.ids)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "ids", ids)
        if probs.ndim != 1 or probs.size == 0:
            raise DomainError("probs must be a nonempty 1-d vector")
        if probs.shape != mass.shape or len(ids) != probs.size:
            raise DomainError("probs, mass, and ids must have equal length")
        if np.any(~np.isfinite(probs)) or np.any(probs < 0) or np.any(probs > 1):
            raise DomainError("every success probability must lie in [0, 1]")
        check_mass(mass)

    def __len__(self) -> int:
        return self.probs.size

    @classmethod
    def uniform(cls, probs, ids=None) -> "SuccessProfile":
        """Profile with equal mass on every prompt."""
        probs = np.asarray(probs, dtype=float)
        n = probs.size
        if ids is None:
            ids = tuple(str(i) for i in range(n))
        return cls(probs=probs, mass=np.full(n, 1.0 / n), ids=tuple(ids))


def pass_at_k(profile: SuccessProfile, k: int) -> float:
    """Population objective: mass-weighted mean of fk over the profile."""
    values = fk_array(profile.probs, k)
    return ordered_dot(profile.mass, values)


def pass_at_k_bounds(j1: float, k: int) -> tuple[float, float]:
    """Jensen sandwich for the k-attempt objective given the 1-attempt value.

    The lower bound is j1 itself; the upper bound is fk applied to j1
    (capped at 1), by concavity of fk.
    """
    j1 = _check_prob(j1, name="j1")
    k = _check_k(k)
    return j1, min(1.0, fk(j1, k))


def unbiased_pass_at_k(n: int, c: int, k: int) -> float:
    """Unbiased estimate of fk(p, k) from c successes in n samples.

    Computes 1 - C(n - c, k) / C(n, k) via the running product
    1 - prod(1 - k / i) for i in (n - c, n], which never forms large
    factorials.  Returns 1 exactly when fewer than k failures exist.
    """
    for name, v in (("n", n), ("c", c), ("k", k)):
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise DomainError(f"{name} must be an integer, got {v!r}")
    if n < 1 or not 0 <= c <= n or not 1 <= k <= n:
        raise DomainError(
            f"require 0 <= c <= n and 1 <= k <= n, got n={n} c={c} k={k}"
        )
    if n - c < k:
        return 1.0
    return float(1.0 - np.prod(1.0 - k / np.arange(n - c + 1, n + 1, dtype=float)))
