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
from dataclasses import dataclass, fields

import numpy as np

from .errors import AlignmentError, DomainError, IdentityCheckError
from .interference import GradientTable, agreement_scores
from .objectives import (
    SuccessProfile,
    ordered_dot,
    weighted_row_sum,
    wk_array,
    _pow_one_minus,
)
from .serialization import write_json

ROUTE_RTOL = 1e-10
SIGMA_FLOOR = 1e-14
# Kernel rows per block of the double-sum route in inner_product_k_m.
KERNEL_BLOCK_ROWS = 256


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
    outside it.  scores, weights, mean_score, neg_set and grad_k stay out
    of to_dict.  Smoothness-dependent fields, among them the certified
    step eta_max, are None when no Hessian-norm bound f was supplied
    (e.g. external gradient logs).
    """

    k: int
    margin: float
    inner_product: float  # direct dot of assembled population gradients
    weighted_form: float  # E[w * a]
    cov_form: float  # E[w] * ||mean grad||^2 + cov(w, a)
    mean_weight: float
    covariance: float
    correlation: float | None
    sigma_w: float
    sigma_a: float
    norm_sq_mean_grad: float
    reweighted_mean_agreement: float
    q: float
    w_minus: float
    w_plus: float
    delta_bound: float
    g2: float
    f: float | None
    l1: float | None
    lk: float | None
    c2: float | None
    eta_max: float | None
    grad_k: np.ndarray
    scores: np.ndarray
    weights: np.ndarray
    mean_score: float
    neg_set: tuple

    def to_dict(self) -> dict:
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("grad_k", "scores", "weights", "mean_score", "neg_set")
        }

    def to_json(self, path) -> None:
        write_json(path, self.to_dict())


def default_score_bound_sq(table: GradientTable) -> float:
    """Fallback g2 when no policy is available: max squared row norm.

    Valid because every agreement score is bounded by the product of a
    row norm and the mean-gradient norm, both at most the max row norm.
    Floored at the smallest normal double, so that it stays a positive
    bound when every row is zero (and every score with it).
    """
    return float(max(np.max(np.sum(table.grads**2, axis=1)), np.finfo(float).tiny))


def _routes_agree(values: dict[str, float], scale: float) -> None:
    names = list(values)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if abs(values[a] - values[b]) > ROUTE_RTOL * scale:
                raise IdentityCheckError(
                    f"inner-product routes disagree: {a}={values[a]!r} "
                    f"{b}={values[b]!r} (scale {scale!r})"
                )


def _check_aligned(table: GradientTable, profile: SuccessProfile) -> None:
    """Same prompt ids and mass; one shared mass array skips the compare."""
    if profile.ids is not table.ids and profile.ids != table.ids:
        raise AlignmentError("profile and table must list the same prompt ids")
    if profile.mass is not table.mass and not np.array_equal(profile.mass, table.mass):
        raise AlignmentError("profile and table must carry the same prompt mass")


def assemble_passk_gradient(
    table: GradientTable, profile: SuccessProfile, k: int
) -> np.ndarray:
    """Population k-attempt gradient: mass-weighted sum of w_k * row."""
    return weighted_row_sum(table.mass * wk_array(profile.probs, k), table.grads)


def conflict_report(
    table: GradientTable,
    profile: SuccessProfile,
    k: int,
    margin: float = 1e-6,
    constants: tuple[float, float] | None = None,
) -> ConflictReport:
    """Compute the full conflict diagnostic, cross-checking all routes.

    The mass-weighted mean agreement must equal ||mean grad||^2
    (IdentityCheckError otherwise).  The direct route assembles grad_k
    with its own weights, so the three routes stay independent.
    constants, when given, is the (g2, f) pair bounding the expected
    squared score norm and expected score-Hessian norm; g2 defaults to
    the max squared gradient row norm and f to None (smoothness fields
    then stay None).
    """
    if not 0 < margin < math.inf:
        raise DomainError(f"margin must be finite and > 0, got {margin}")
    _check_aligned(table, profile)
    margin, mass = float(margin), table.mass
    scores = agreement_scores(table)
    mean_score = ordered_dot(mass, scores)
    norm_sq = float(table.mean_grad @ table.mean_grad)
    identity_scale = max(abs(norm_sq), ordered_dot(mass, np.abs(scores)), 1e-300)
    if abs(mean_score - norm_sq) > 1e-10 * identity_scale:
        raise IdentityCheckError(
            f"mean agreement {mean_score} != ||mean grad||^2 {norm_sq}"
        )
    neg = scores <= -margin
    weights = wk_array(profile.probs, k)
    q = ordered_dot(mass, neg.astype(float))
    w_minus = ordered_dot(mass, np.where(neg, weights, 0.0))
    w_plus = ordered_dot(mass, np.where(neg, 0.0, weights))

    mean_weight = ordered_dot(mass, weights)
    if mean_weight == 0.0:
        raise DomainError(
            "all pass@k weights are zero (every success probability is 1); "
            "the reweighted distribution is undefined"
        )

    weighted_form = ordered_dot(mass, weights * scores)
    grad_k = assemble_passk_gradient(table, profile, k)
    inner_product = float(grad_k @ table.mean_grad)
    covariance = ordered_dot(
        mass, (weights - mean_weight) * (scores - mean_score)
    )
    cov_form = mean_weight * norm_sq + covariance

    scale = max(
        abs(inner_product),
        abs(weighted_form),
        abs(cov_form),
        ordered_dot(mass, weights * np.abs(scores)),
        1e-300,
    )
    _routes_agree(
        {"direct": inner_product, "weighted": weighted_form, "cov": cov_form},
        scale,
    )

    sigma_w = math.sqrt(max(ordered_dot(mass, (weights - mean_weight) ** 2), 0.0))
    sigma_a = math.sqrt(max(ordered_dot(mass, (scores - mean_score) ** 2), 0.0))
    correlation = None
    if sigma_w > SIGMA_FLOOR and sigma_a > SIGMA_FLOOR:
        correlation = covariance / (sigma_w * sigma_a)

    reweighted_mean = weighted_form / mean_weight

    if constants is None:
        g2, f = default_score_bound_sq(table), None
    else:
        g2, f = float(constants[0]), float(constants[1])
    delta = delta_bound(margin, w_minus, w_plus, g2)

    l1 = lk = c2 = eta_max = None
    if f is not None:
        l1, lk, c2 = smoothness_constants(g2, f, k)
        if delta > 0:
            eta_max = max_safe_step(delta, c2, lk)

    return ConflictReport(
        k=int(k),
        margin=margin,
        inner_product=inner_product,
        weighted_form=weighted_form,
        cov_form=cov_form,
        mean_weight=mean_weight,
        covariance=covariance,
        correlation=correlation,
        sigma_w=sigma_w,
        sigma_a=sigma_a,
        norm_sq_mean_grad=norm_sq,
        reweighted_mean_agreement=reweighted_mean,
        q=q,
        w_minus=w_minus,
        w_plus=w_plus,
        delta_bound=delta,
        g2=g2,
        f=f,
        l1=l1,
        lk=lk,
        c2=c2,
        eta_max=eta_max,
        grad_k=grad_k,
        scores=scores,
        weights=weights,
        mean_score=mean_score,
        neg_set=tuple(np.flatnonzero(neg).tolist()),
    )


def reweighted_distribution(profile: SuccessProfile, k: int) -> np.ndarray:
    """Prompt mass tilted by the pass@k weights: mass_i * w_i / sum."""
    weights = wk_array(profile.probs, k)
    tilted = profile.mass * weights
    total = ordered_dot(profile.mass, weights)
    if total == 0.0:
        raise DomainError(
            "all pass@k weights are zero; the reweighted distribution "
            "has a zero denominator"
        )
    return tilted / total


def delta_bound(margin: float, w_minus: float, w_plus: float, g2: float) -> float:
    """Conflict certificate margin*W- - g2*W+.

    When positive, the population inner product is at most its negative,
    so the k-attempt and 1-attempt gradients provably conflict.
    """
    if not g2 > 0:
        raise DomainError(f"g2 must be > 0, got {g2}")
    return margin * w_minus - g2 * w_plus


def conflict_bound(
    k: int, eps: float, delta_sep: float, q: float, m: float, g2: float
) -> float:
    """Lower bound on conflict strength under the success-separation model:
    k * ((1-eps)**(k-1) * m * q - (1-delta_sep)**(k-1) * g2 * (1-q)).

    Positive means the inner product is guaranteed negative at this k.
    """
    _check_separation_args(eps, delta_sep, q, m, g2)
    lo = float(_pow_one_minus(np.asarray(eps, float), k - 1))
    hi = float(_pow_one_minus(np.asarray(delta_sep, float), k - 1))
    return k * (lo * m * q - hi * g2 * (1.0 - q))


def _check_separation_args(eps, delta_sep, q, m, g2) -> None:
    if not (0.0 <= eps < delta_sep <= 1.0):
        raise DomainError(
            f"require 0 <= eps < delta_sep <= 1, got eps={eps} delta_sep={delta_sep}"
        )
    if not 0.0 < q < 1.0:
        raise DomainError(f"q must lie strictly inside (0, 1), got {q}")
    if not m > 0:
        raise DomainError(f"margin m must be > 0, got {m}")
    if not g2 > 0:
        raise DomainError(f"g2 must be > 0, got {g2}")


def k_star(eps: float, delta_sep: float, q: float, m: float, g2: float) -> float:
    """Threshold attempt count beyond which conflict is guaranteed:
    1 + log((1-q)*g2 / (q*m)) / log((1-eps)/(1-delta_sep)).

    Callers compare integer k strictly greater than the returned value.
    """
    _check_separation_args(eps, delta_sep, q, m, g2)
    numerator = math.log((1.0 - q) * g2 / (q * m))
    if delta_sep == 1.0:
        return 1.0  # denominator is +inf, any k >= 2 conflicts
    denominator = math.log1p(-eps) - math.log1p(-delta_sep)
    return 1.0 + numerator / denominator


def smoothness_constants(g2: float, f: float, k: int) -> tuple[float, float, float]:
    """(l1, lk, c2): gradient-Lipschitz constants of the 1- and k-attempt
    objectives plus the quadratic coefficient of the one-step bound."""
    if not (g2 > 0 and f > 0):
        raise DomainError(f"g2 and f must be > 0, got g2={g2} f={f}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    l1 = g2 + f
    lk = k * k * g2 + k * f
    c2 = k * k * g2 * l1 / 2.0
    return l1, lk, c2


def max_safe_step(delta_theta: float, c2: float, lk: float) -> float:
    """Largest step size certified to decrease the 1-attempt objective
    while increasing the k-attempt objective: min(delta/c2, 1/lk)."""
    if not delta_theta > 0:
        raise DomainError(
            f"no degradation certificate exists for delta <= 0, got {delta_theta}"
        )
    return min(delta_theta / c2, 1.0 / lk)


@dataclass(frozen=True)
class KernelInnerProduct:
    """Both routes to the inner product of two population gradients."""

    double_sum: float
    direct: float


def inner_product_k_m(
    table: GradientTable, profile: SuccessProfile, k: int, m_order: int
) -> KernelInnerProduct:
    """Inner product between the k- and m-attempt population gradients.

    The double-sum route contracts the pairwise kernel against both
    weight vectors, KERNEL_BLOCK_ROWS kernel rows at a time so memory
    stays O(KERNEL_BLOCK_ROWS * n); the direct route assembles each
    gradient and dots them.  Both are returned so callers can audit the
    agreement.  The double sum still forms every kernel entry, so its
    time is O(n^2 * d): an audit for subsamples, not for n = 10^6
    (where only the direct route, O(n * d), is affordable).
    """
    _check_aligned(table, profile)
    wk_w = wk_array(profile.probs, k) * table.mass
    wm_w = wk_array(profile.probs, m_order) * table.mass
    grads, blocks = table.grads, []
    for start in range(0, len(table), KERNEL_BLOCK_ROWS):
        rows = slice(start, start + KERNEL_BLOCK_ROWS)
        blocks.append(float(wk_w[rows] @ (grads[rows] @ grads.T) @ wm_w))
    double_sum = math.fsum(blocks)
    direct = float(
        assemble_passk_gradient(table, profile, k)
        @ assemble_passk_gradient(table, profile, m_order)
    )
    return KernelInnerProduct(double_sum=double_sum, direct=direct)
