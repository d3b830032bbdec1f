"""Pass@k objective transforms, weights, bounds, and the sample estimator.

The central quantities are the per-prompt success transform
``f_k(p) = 1 - (1 - p)**k`` (probability that at least one of k
independent attempts succeeds) and its derivative
``w_k(p) = k * (1 - p)**(k - 1)``, the implicit reweighting factor that
multi-attempt objectives put on each prompt.  Everything here is a pure
function over immutable inputs.
"""

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError

# Powers become meaningless (and slow) long before this; no experiment
# in this package needs k beyond a few dozen.
MAX_K = 10**6

# ordered_dot: extraction passes before fsum takes the remainder, and the
# product size beyond which the extraction's sigma could overflow.
EXTRACT_PASSES = 3
EXTRACT_LIMIT = 2.0**960


def _check_int(name: str, value, least=None) -> int:
    """value as an int: bools, non-integers and values below least are refused."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _check_seed(seed) -> int:
    """seed as an int: bools, non-integers and negative values are refused."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    return int(seed)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _shown(value) -> str:
    """value as JSON writes it, as the number-list rule names a bad entry
    (null, "0.05"), a numpy scalar as its Python value; repr for a value
    that JSON cannot write."""
    if isinstance(value, np.generic):
        value = value.item()
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


def _real(name: str, value) -> float:
    """value as a float: text, null, true/false, an int past the float range
    and anything else that is not a real number (numpy's are) are refused."""
    if not _is_real(value):
        got = "true/false" if isinstance(value, bool) else _shown(value)
        raise DomainError(f"{name} must be a number, not {got}")
    try:
        return float(value)
    except OverflowError as exc:
        raise DomainError(f"bad {name} ({exc})") from exc


def _column(name: str, convert, *args):
    """convert(*args), such as np.asarray(actions) or tuple(ids); a value
    that it cannot convert is one DomainError naming the column."""
    try:
        return convert(*args)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"bad {name} ({exc})") from exc


def _reals(name: str, value) -> np.ndarray:
    """value as a float array of finite numbers under _real's rule, the first
    bad entry named as JSON writes it, as in a file's number list.  A float or
    integer array takes one isfinite pass, anything else an object scan; an
    integer past the float range, or a value numpy cannot build, is _column's."""
    if isinstance(value, np.ndarray) and value.dtype.kind in "fiu":
        value = np.asarray(value, dtype=float)
        if np.isfinite(value).all():
            return value
    raw = _column(name, np.array, value, object)
    bad = [v for v in raw.flat if not (_is_real(v) and abs(v) < math.inf)]
    if bad:
        raise DomainError(f"{name} entries must be finite numbers, got {_shown(bad[0])}")
    return _column(name, np.asarray, raw, float)


def _check_k(k: int) -> int:
    k = _check_int("k", k)
    if k < 1 or k > MAX_K:
        raise DomainError(f"k must be in [1, {MAX_K}], got {k}")
    return k


def _once_per_tuple(rule):
    """rule(ids), run once per ids tuple: a tuple among the 8 that passed it
    last is not checked again.  Kept by object, not by value, so a tuple
    equal to a kept one but made of other ids is checked; each kept tuple
    is held, so its id() is not reused while kept.  A refused tuple raises
    before it is kept."""
    passed = {}  # id(ids) -> ids, least recently checked first

    def check(ids: tuple) -> None:
        if passed.pop(id(ids), None) is not ids:
            rule(ids)
        passed[id(ids)] = ids
        if len(passed) > 8:
            del passed[next(iter(passed))]

    return check


def _index_ids(ids: tuple) -> dict:
    """Map each id to its position, rejecting an id that appears twice."""
    try:
        index = {pid: i for i, pid in enumerate(ids)}
    except TypeError as exc:  # an unhashable id
        raise DomainError(f"prompt ids must be hashable ({exc})") from None
    if len(index) < len(ids):
        # index keeps each id's last position, so the first mismatch is a repeat
        dup = next(pid for i, pid in enumerate(ids) if index[pid] != i)
        raise DomainError(f"prompt id {dup!r} appears more than once")
    return index


_unique_ids = _once_per_tuple(_index_ids)


def _str_ids(ids: tuple) -> None:
    """Reject a prompt id that is not a str."""
    for pid in ids:
        if not isinstance(pid, str):
            raise DomainError(f"prompt_id must be a string, got {pid!r}")


@_once_per_tuple
def _check_prompt_ids(ids: tuple) -> None:
    """Reject a prompt id that is not a str or that appears twice."""
    _str_ids(ids)
    _unique_ids(ids)


def _check_prob(p: float, name: str = "p") -> float:
    p = _real(name, p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {p}")
    return p


class _Split(NamedTuple):
    """probs split once at 0.5: the flat indices lo of p < 0.5 with log1p(-p)
    there, which keeps (1 - p)**n down to ~1e-300 where 1 - p would cancel,
    and hi of all other entries (NaN too) with 1 - p there, exact for p >= 0.5.
    No route sees the other's entries (no log1p(-1)); arrays are read-only."""

    shape: tuple
    lo: np.ndarray
    hi: np.ndarray
    log1m: np.ndarray
    one_minus: np.ndarray

    def _joined(self, low, high) -> np.ndarray:
        out = np.empty(self.lo.size + self.hi.size)
        out[self.lo], out[self.hi] = low, high
        return out.reshape(self.shape)

    def fk(self, k: int) -> np.ndarray:
        """expm1 keeps small values accurate where 1 - (1 - p)**k would cancel."""
        return self._joined(-np.expm1(k * self.log1m), 1.0 - self.one_minus**k)

    def one_minus_pow(self, n: int) -> np.ndarray:
        return self._joined(np.exp(n * self.log1m), self.one_minus**n)

    def wk(self, k: int) -> np.ndarray:
        return k * self.one_minus_pow(k - 1)


def _split(probs) -> _Split:
    p = np.asarray(probs, dtype=float)
    below = p < 0.5
    lo, hi = np.flatnonzero(below), np.flatnonzero(~below)
    parts = (lo, hi, np.log1p(-p.take(lo)), 1.0 - p.take(hi))
    for array in parts:
        array.flags.writeable = False
    return _Split(p.shape, *parts)


def fk(p: float, k: int) -> float:
    """Success probability of the best of k attempts: 1 - (1 - p)**k."""
    k = _check_k(k)
    return float(_split(_check_prob(p)).fk(k))


def wk(p: float, k: int) -> float:
    """Prompt weight k * (1 - p)**(k - 1); the derivative of fk in p."""
    k = _check_k(k)
    return float(_split(_check_prob(p)).wk(k))


def fk_array(probs: np.ndarray, k: int) -> np.ndarray:
    """Vectorized fk over an array of probabilities, any shape; no range
    check, so NaN and values outside [0, 1] pass through the formulas."""
    k = _check_k(k)
    return _split(probs).fk(k)


def wk_array(probs: np.ndarray, k: int) -> np.ndarray:
    """Vectorized wk over an array of probabilities, as fk_array."""
    k = _check_k(k)
    return _split(probs).wk(k)


def ordered_dot(a, b) -> float:
    """Correctly rounded sum of a[i] * b[i], for every scalar expectation.

    The exact sum is rounded once, bit for bit as math.fsum (Shewchuk
    1997) rounds it, so the result is the same in any summation order,
    vector width or thread count.

    Up to EXTRACT_PASSES error-free extractions (Rump, Ogita and Oishi,
    "Accurate floating-point summation, part I", 2008) split the
    products x into q + x'.  Let sigma = 2**e >= 2**-1022, 2**M >= n + 2
    and max|x| <= sigma / 2**M.  Then s = sigma + x lies in [sigma / 2,
    2 sigma), so q = fl(s) - sigma (Sterbenz) and x' = x - q = s - fl(s)
    are exact, |q| <= sigma / 2**M (rounding is monotone), every q and
    partial sum of them is a multiple of ulp(sigma) / 2 below n sigma /
    2**M < sigma, and numpy sums them exactly in any order.  Doubles in
    [sigma / 2, 2 sigma) are at most ulp(sigma) apart, so |x'| <= 2**-53
    sigma = sigma' / 2**M for sigma' = 2**(M - 53) sigma: as in AccSum,
    each next pass takes that sigma' (at least 2**-1022) without a look
    at x', and the bound's equality case needs nothing looser.  The first
    sigma is 2**M times the power of two above max|x|.

    Pass 1 then tries AccSum's stop.  head = sum(q) is exact, and tail =
    fl(sum(x')), in any order, is within gamma_(n-1) n 2**-53 sigma <= B =
    2**(2M - 105) sigma of the exact sum of the x' for n <= 2**52 (Higham
    2002, ch. 4).  Underflow keeps B: an x' below 2**-1074 is 0, a sum below
    2**-1021 is exact, and a B that ldexp rounds below 2**-1074 bounds an
    error that is a multiple of 2**-1074, so 0.  TwoSum gives head + tail =
    r + e exactly, so the exact sum is r + e + d with |d| <= B.  Let g be
    r's half-gap on e's side: ulp(r) / 2, halved when r is a power of two
    and e points toward zero.  If |e| + 2B < g, fsum returns r: the sum is
    within |e| + B < g of r on e's side and B < g / 2 <= ulp(r) / 4 on the
    other, so not on a tie either.  |e| and 2B are exact, g is exact or
    rounded down (to 0 for r = 0 and subnormal r), and rounding is
    monotone, so the float test implies the real one.  Otherwise the passes
    go on, x' is tested for zero from pass 2 on, and fsum rounds the pass
    sums plus the few nonzero remainders.  Empty, all-zero (fsum picks the
    sign of zero), non-finite and huge (>= 2**960, where sigma could
    overflow) products go to fsum whole.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DomainError(f"need two equal-length vectors, got {a.shape}, {b.shape}")
    x = a * b
    q = np.empty_like(x)  # |x| for max|x|, then each pass's q
    top = float(np.maximum.reduce(np.abs(x, out=q))) if x.size else 0.0
    if not 0.0 < top < EXTRACT_LIMIT:
        return math.fsum(memoryview(x))
    shift = (x.size + 1).bit_length()  # ceil(log2(n + 2))
    sigma = math.ldexp(1.0, max(shift + math.frexp(top)[1], -1022))
    parts = []
    for i in range(EXTRACT_PASSES):
        np.add(x, sigma, out=q)
        q -= sigma
        x -= q
        parts.append(float(np.add.reduce(q)))
        if i == 0:  # TwoSum: head + tail = r + e exactly
            head, tail = parts[0], float(np.add.reduce(x))
            r = head + tail
            t = r - head
            e = (head - (r - t)) + (tail - t)
            below = abs(math.frexp(r)[0]) == 0.5 and e and (e < 0) != (r < 0)
            gap = math.ulp(r) / (4 if below else 2)  # r's half-gap on e's side
            if abs(e) + math.ldexp(sigma, 2 * shift - 104) < gap:
                return r
        elif not x.any():
            return math.fsum(parts)
        sigma = max(math.ldexp(sigma, shift - 53), 2.0**-1022)
    return math.fsum(parts + x[x != 0].tolist())


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
    # no sum of entries <= 2 overflows; an entry above 2 fails the test anyway
    if np.any(mass > 2.0) or abs(ordered_dot(mass, np.ones_like(mass)) - 1.0) > 1e-12:
        raise DomainError("mass must sum to 1 within 1e-12")


@dataclass(frozen=True)
class SuccessProfile:
    """Per-prompt success probabilities plus the prompt distribution.

    probs and mass are aligned with ids, and no id may repeat; mass must be
    a probability vector (nonnegative, summing to 1 within 1e-12).  probs
    and mass are read-only copies, and the split of probs is built on first
    read and kept, so every f_k and w_k over the profile finishes from one
    log1p.
    """

    probs: np.ndarray
    mass: np.ndarray
    ids: tuple

    def __post_init__(self):
        self._set_columns(self.probs, self.mass, self.ids)
        _unique_ids(self.ids)
        check_mass(self.mass)

    @classmethod
    def _on_checked_mass(cls, probs, mass, ids) -> "SuccessProfile":
        """A profile over a mass vector that check_mass has already passed
        and ids already checked for repeats, such as a PromptBatch's: every
        other check runs."""
        profile = object.__new__(cls)
        profile._set_columns(probs, mass, ids)
        return profile

    def _set_columns(self, probs, mass, ids) -> None:
        probs, mass = _reals("probs", probs).copy(), _reals("mass", mass).copy()
        # the cached split must stay its split, and mass the one checked
        probs.flags.writeable = mass.flags.writeable = False
        ids = _column("ids", tuple, ids)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "ids", ids)
        if probs.ndim != 1 or probs.size == 0:
            raise DomainError("probs must be a nonempty 1-d vector")
        if probs.shape != mass.shape or len(ids) != probs.size:
            raise DomainError("probs, mass, and ids must have equal length")
        if np.any(probs < 0) or np.any(probs > 1):
            raise DomainError("every success probability must lie in [0, 1]")

    def __len__(self) -> int:
        return self.probs.size

    @cached_property
    def split(self) -> _Split:
        return _split(self.probs)

    @classmethod
    def uniform(cls, probs, ids=None) -> "SuccessProfile":
        """Profile with equal mass on every prompt."""
        probs = _reals("probs", probs)
        n = probs.size
        if ids is None:
            ids = tuple(str(i) for i in range(n))
        return cls(probs=probs, mass=np.full(n, 1.0) / n, ids=ids)


def pass_at_k(profile: SuccessProfile, k: int) -> float:
    """Population objective: mass-weighted mean of fk over the profile."""
    return ordered_dot(profile.mass, profile.split.fk(_check_k(k)))


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
    try:
        return _unbiased_pass_at_k(n, c, k)
    except TypeError:  # unhashable: the uncached body's check rejects it
        return _unbiased_pass_at_k.__wrapped__(n, c, k)


def _check_counts(n, c, k) -> None:
    for name, v in (("n", n), ("c", c), ("k", k)):
        _check_int(name, v)
    if n < 1 or not 0 <= c <= n or not 1 <= k <= n:
        raise DomainError(
            f"require 0 <= c <= n and 1 <= k <= n, got n={n} c={c} k={k}"
        )


@lru_cache(maxsize=4096, typed=True)
def _unbiased_pass_at_k(n, c, k) -> float:
    """unbiased_pass_at_k, checked and memoised: the n draws of a sample set
    give at most n + 1 distinct counts, however many prompts it has.  A
    bad call raises and so is never cached, and typed keys keep True and
    1.0 out of the entry for 1, so a cache hit needs no check."""
    _check_counts(n, c, k)
    n, c, k = int(n), int(c), int(k)
    if n - c < k:
        return 1.0
    return float(1.0 - np.prod(1.0 - k / np.arange(n - c + 1, n + 1, dtype=float)))
