"""Quantitative conflict machinery for multi-attempt vs single-attempt ascent.

The central identity: the inner product between the k-attempt population
gradient and the 1-attempt population gradient equals the expectation of
weight times agreement score, which decomposes into an always-nonnegative
mean term plus the covariance between weights and agreement.  A negative
inner product (gradient conflict) therefore requires that covariance to
be sufficiently negative: the objective's hardness reweighting must
concentrate on prompts whose gradients oppose the population direction.

Everything is computed by multiple independent routes and cross-checked;
a route disagreement raises IdentityCheckError rather than returning a
silently wrong report.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AlignmentError, DomainError, IdentityCheckError
from .interference import GradientTable, _check_row_products, agreement_scores
from .objectives import (
    SuccessProfile,
    _check_k,
    _real,
    _split,
    ordered_dot,
    weighted_row_sum,
)

ROUTE_RTOL = 1e-10
SIGMA_FLOOR = 1e-14


@dataclass(frozen=True)
class ConflictReport:
    """All conflict diagnostics at one (table, profile, k, margin) point.

    inner_product, weighted_form, and cov_form are three routes to the
    same quantity and agree within ROUTE_RTOL of the computation scale.
    grad_k is the population k-attempt gradient of the direct route: the
    ascent direction at this point.  The other two routes read the
    per-prompt agreement scores and pass@k weights, and mean_score, the
    mass-weighted mean agreement.  neg_set holds the indices with score
    <= -margin, q their mass, and w_minus / w_plus the weights inside and
    outside it.  The certified step eta_max is None when no Hessian-norm
    bound f was supplied (e.g. external gradient logs) or delta_bound <= 0.
    No step reads sigma_w, sigma_a, correlation, neg_set or q, so each is
    computed from the fields and the profile's mass on first read.
    """

    margin: float
    inner_product: float  # direct dot of assembled population gradients
    weighted_form: float  # E[w * a]
    cov_form: float  # E[w] * ||mean grad||^2 + cov(w, a)
    mean_weight: float
    covariance: float
    norm_sq_mean_grad: float
    reweighted_mean_agreement: float
    w_minus: float
    w_plus: float
    delta_bound: float
    eta_max: float | None
    grad_k: np.ndarray
    scores: np.ndarray
    weights: np.ndarray
    mean_score: float
    mass: np.ndarray = field(repr=False)  # the profile's, by reference

    @cached_property
    def sigma_w(self) -> float:
        return math.sqrt(
            max(ordered_dot(self.mass, (self.weights - self.mean_weight) ** 2), 0.0)
        )

    @cached_property
    def sigma_a(self) -> float:
        return math.sqrt(
            max(ordered_dot(self.mass, (self.scores - self.mean_score) ** 2), 0.0)
        )

    @cached_property
    def correlation(self) -> float | None:
        if self.sigma_w > SIGMA_FLOOR and self.sigma_a > SIGMA_FLOOR:
            return self.covariance / (self.sigma_w * self.sigma_a)
        return None

    @cached_property
    def neg_set(self) -> tuple:
        return tuple(np.flatnonzero(self.scores <= -self.margin).tolist())

    @cached_property
    def q(self) -> float:
        return ordered_dot(self.mass.take(self.neg_set), np.ones(len(self.neg_set)))


def default_score_bound_sq(table: GradientTable) -> float:
    """Fallback g2 when no policy is available: max squared row norm.

    Valid because every agreement score is bounded by the product of a
    row norm and the mean-gradient norm, both at most the max row norm.
    Floored at the smallest normal double, so that it stays a positive
    bound when every row is zero (and every score with it).
    """
    row_sq = np.einsum("ij,ij->i", table.grads, table.grads)
    return float(max(np.max(row_sq), np.finfo(float).tiny))


def assemble_passk_gradient(
    table: GradientTable, profile: SuccessProfile, k: int
) -> np.ndarray:
    """Population k-attempt gradient: sum of the profile's mass * w_k * row.
    The profile must list the table's ids (AlignmentError otherwise)."""
    return _weighted_gradient(table, profile, profile.split.wk(_check_k(k)))


def _weighted_gradient(
    table: GradientTable, profile: SuccessProfile, weights: np.ndarray
) -> np.ndarray:
    """sum_i profile.mass_i * weights_i * row_i, once the profile is seen to
    list the table's ids; conflict_report's direct route calls it."""
    if profile.ids is not table.ids and profile.ids != table.ids:
        raise AlignmentError("profile and table must list the same prompt ids")
    return weighted_row_sum(profile.mass * weights, table.grads)


def conflict_report(
    table: GradientTable,
    profile: SuccessProfile,
    k: int,
    margin: float = 1e-6,
    constants: tuple[float, float] | None = None,
) -> ConflictReport:
    """Compute the full conflict diagnostic, cross-checking all routes.

    The profile's mass weights every sum, the mean gradient's too, and the
    mean agreement must equal ||mean grad||^2 (IdentityCheckError
    otherwise).  w_k is taken once, as an input that all three routes
    read, not an intermediate of the identity they check: the direct route
    assembles grad_k from it, the other two reduce the scores against it,
    so the routes stay independent.  A table with d * max|entry|**2 above
    2**510 is refused (DomainError).
    constants, when given, is the (g2, f) pair bounding the expected
    squared score norm and expected score-Hessian norm; g2 defaults to
    the max squared gradient row norm and f to None (eta_max then stays
    None).
    """
    margin = _real("margin", margin)
    if not 0 < margin < math.inf:
        raise DomainError(f"margin must be finite and > 0, got {margin}")
    _check_row_products(table)  # squared score deviations <= 4 M**2 <= 2**1022
    weights = profile.split.wk(_check_k(k))
    grad_k = _weighted_gradient(table, profile, weights)
    mass = profile.mass
    mean_grad = weighted_row_sum(mass, table.grads)
    scores = agreement_scores(table, mean_grad)
    mean_score = ordered_dot(mass, scores)
    norm_sq = ordered_dot(mean_grad, mean_grad)
    abs_scores = np.abs(scores)
    identity_scale = max(abs(norm_sq), ordered_dot(mass, abs_scores), 1e-300)
    if not abs(mean_score - norm_sq) <= 1e-10 * identity_scale:
        raise IdentityCheckError(
            f"mean agreement {mean_score} != ||mean grad||^2 {norm_sq}"
        )
    # over the interfering set and its complement: the products dropped are 0
    neg = scores <= -margin
    inside, outside = np.flatnonzero(neg), np.flatnonzero(~neg)
    w_minus = ordered_dot(mass.take(inside), weights.take(inside))
    w_plus = ordered_dot(mass.take(outside), weights.take(outside))

    mean_weight = ordered_dot(mass, weights)
    if mean_weight == 0.0:
        raise DomainError(
            "all pass@k weights are zero (every success probability is 1); "
            "the reweighted distribution is undefined"
        )

    weighted_form = ordered_dot(mass, weights * scores)
    inner_product = ordered_dot(grad_k, mean_grad)
    covariance = ordered_dot(
        mass, (weights - mean_weight) * (scores - mean_score)
    )
    cov_form = mean_weight * norm_sq + covariance

    scale = max(
        abs(inner_product),
        abs(weighted_form),
        abs(cov_form),
        ordered_dot(mass, weights * abs_scores),
        1e-300,
    )
    # max - min is the widest pair; ptp propagates a NaN where max/min skip it
    if not np.ptp([inner_product, weighted_form, cov_form]) <= ROUTE_RTOL * scale:
        raise IdentityCheckError(
            f"inner-product routes disagree: direct={inner_product!r} "
            f"weighted={weighted_form!r} cov={cov_form!r} (scale {scale!r})"
        )

    reweighted_mean = weighted_form / mean_weight

    if constants is None:
        g2, f = default_score_bound_sq(table), None
    else:  # delta_bound and smoothness_constants check each as a number
        try:
            g2, f = constants
        except (TypeError, ValueError):
            raise DomainError(
                f"constants must be a (g2, f) pair, got {constants!r}"
            ) from None
    delta = delta_bound(margin, w_minus, w_plus, g2)

    eta_max = None
    if f is not None:
        _, lk, c2 = smoothness_constants(g2, f, k)
        if delta > 0:
            eta_max = max_safe_step(delta, c2, lk)

    return ConflictReport(
        margin=margin,
        inner_product=inner_product,
        weighted_form=weighted_form,
        cov_form=cov_form,
        mean_weight=mean_weight,
        covariance=covariance,
        norm_sq_mean_grad=norm_sq,
        reweighted_mean_agreement=reweighted_mean,
        w_minus=w_minus,
        w_plus=w_plus,
        delta_bound=delta,
        eta_max=eta_max,
        grad_k=grad_k,
        scores=scores,
        weights=weights,
        mean_score=mean_score,
        mass=mass,
    )


def delta_bound(margin: float, w_minus: float, w_plus: float, g2: float) -> float:
    """Conflict certificate margin*W- - g2*W+.

    When positive, the population inner product is at most its negative,
    so the k-attempt and 1-attempt gradients provably conflict.
    """
    g2 = _real("g2", g2)
    if not 0.0 < g2 < math.inf:
        raise DomainError(f"g2 must be finite and > 0, got {g2}")
    return margin * w_minus - g2 * w_plus


def conflict_bound(
    k: int, eps: float, delta_sep: float, q: float, m: float, g2: float
) -> float:
    """Lower bound on conflict strength under the success-separation model:
    k * ((1-eps)**(k-1) * m * q - (1-delta_sep)**(k-1) * g2 * (1-q)).

    Positive means the inner product is guaranteed negative at this k.
    """
    k = _check_k(k)
    _check_separation_args(eps, delta_sep, q, m, g2)
    _check_some_population(q, m, g2)
    lo, hi = _split([eps, delta_sep]).one_minus_pow(k - 1).tolist()
    return k * (lo * m * q - hi * g2 * (1.0 - q))


def _check_separation_args(eps, delta_sep, q, m, g2) -> None:
    names = ("eps", "delta_sep", "q", "m", "g2")
    for name, value in zip(names, (eps, delta_sep, q, m, g2)):
        _real(name, value)
    if not (0.0 <= eps < delta_sep <= 1.0):
        raise DomainError(
            f"require 0 <= eps < delta_sep <= 1, got eps={eps} delta_sep={delta_sep}"
        )
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie strictly inside (0, 1), got {q}")
    if not (0.0 < m < math.inf and 0.0 < g2 < math.inf):
        raise DomainError(f"m and g2 must be finite and > 0, got m={m} g2={g2}")


def _check_some_population(q, m, g2) -> None:
    """The k = 1 bound q*m - (1-q)*g2 must not make ||grad J1||^2 negative."""
    if q * m > (1.0 - q) * g2:
        raise DomainError(f"no population has q*m > (1-q)*g2, got q={q} m={m} g2={g2}")


def k_star(eps: float, delta_sep: float, q: float, m: float, g2: float) -> float:
    """Threshold attempt count beyond which conflict is guaranteed:
    1 + log((1-q)*g2 / (q*m)) / log((1-eps)/(1-delta_sep)).

    Callers compare integer k strictly greater than the returned value.
    A log argument that overflows or is below 1 is refused (DomainError).
    A denominator that rounds to 0 gives inf, as a quotient that overflows does.
    """
    _check_separation_args(eps, delta_sep, q, m, g2)
    ratio = (1.0 - q) * g2 / (q * m) if q * m else math.inf
    if not 0.0 < ratio < math.inf:
        raise DomainError(
            f"(1-q)*g2/(q*m) leaves the float range at q={q} m={m} g2={g2}"
        )
    _check_some_population(q, m, g2)
    numerator = math.log(ratio)
    if delta_sep == 1.0:
        return 1.0  # denominator is +inf, any k >= 2 conflicts
    denominator = math.log1p(-eps) - math.log1p(-delta_sep)
    if denominator == 0.0:  # below every positive double: inf, or 1 at numerator 0
        return math.inf if numerator else 1.0
    return 1.0 + numerator / denominator


def smoothness_constants(g2: float, f: float, k: int) -> tuple[float, float, float]:
    """(l1, lk, c2): gradient-Lipschitz constants of the 1- and k-attempt
    objectives plus the quadratic coefficient of the one-step bound.
    Finite g2 and f whose lk or c2 passes the float range are refused
    (DomainError), as a certificate could not use them."""
    g2, f = _real("g2", g2), _real("f", f)
    if not (0.0 < g2 < math.inf and 0.0 < f < math.inf):
        raise DomainError(f"g2 and f must be finite and > 0, got g2={g2} f={f}")
    k = _check_k(k)
    l1 = g2 + f
    lk = k * k * g2 + k * f
    c2 = k * k * g2 * l1 / 2.0
    if not (lk < math.inf and c2 < math.inf):  # an inf l1 makes c2 inf
        raise DomainError(f"smoothness constants overflow at g2={g2} f={f} k={k}")
    return l1, lk, c2


def max_safe_step(delta_theta: float, c2: float, lk: float) -> float:
    """Largest step size certified to decrease the 1-attempt objective
    while increasing the k-attempt objective: min(delta/c2, 1/lk)."""
    if not _real("delta_theta", delta_theta) > 0:
        raise DomainError(
            f"no degradation certificate exists for delta <= 0, got {delta_theta}"
        )
    c2, lk = _real("c2", c2), _real("lk", lk)
    if not (0.0 < c2 < math.inf and 0.0 < lk < math.inf):
        raise DomainError(f"c2 and lk must be finite and > 0, got c2={c2} lk={lk}")
    return min(delta_theta / c2, 1.0 / lk)
