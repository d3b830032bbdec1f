"""Gradient ascent on the k-attempt objective over a fixed toy batch.

Each step evaluates the population once at the pre-update point: both
objectives and their per-label restrictions, plus one conflict report
that supplies the conflict diagnostics, the exact population k-attempt
gradient the step moves along, and the certified step size.
"""

from dataclasses import dataclass

import numpy as np

from .bandit import (
    BanditConfig,
    PromptBatch,
    _check_theta,
    grad_success_probs,
    policy_regularity_constants,
    reference_theta,
    sample_prompts,
    success_probs,
)
from .conflict import conflict_report
from .errors import DomainError
from .interference import GradientTable
from .objectives import SuccessProfile, fk_array, ordered_dot
from .serialization import write_csv

TRAJECTORY_COLUMNS = (
    "step",
    "j1_pop",
    "jk_pop",
    "j1_easy",
    "j1_hard",
    "jk_easy",
    "jk_hard",
    "inner_product",
    "delta_bound",
)


@dataclass(frozen=True)
class TrajectoryRecord:
    step: int
    theta: np.ndarray
    grad_k: np.ndarray  # population k-attempt gradient: the ascent direction
    j1_pop: float
    jk_pop: float
    j1_easy: float
    j1_hard: float
    jk_easy: float
    jk_hard: float
    inner_product: float
    delta_bound: float
    eta_max: float | None  # certified step size; None once delta_bound <= 0

    def row(self) -> tuple:
        return tuple(getattr(self, name) for name in TRAJECTORY_COLUMNS)


def _label_mean(values: np.ndarray, mask: np.ndarray) -> float:
    if not mask.any():
        return float("nan")
    sub = values[mask]
    return ordered_dot(np.full(sub.size, 1.0 / sub.size), sub)


def evaluate_state(
    theta, batch: PromptBatch, k: int, margin: float = 1e-6, step: int = 0
) -> TrajectoryRecord:
    """All trajectory metrics at one parameter vector."""
    theta = _check_theta(theta)
    p = success_probs(theta, batch)
    f1 = fk_array(p, 1)
    fkv = fk_array(p, k)
    n = len(batch)
    mass = np.full(n, 1.0 / n)
    hard = batch.hard_mask
    table = GradientTable(
        grads=grad_success_probs(theta, batch), mass=mass, ids=batch.ids
    )
    profile = SuccessProfile(probs=p, mass=mass, ids=batch.ids)
    report = conflict_report(
        table, profile, k, margin=margin,
        constants=policy_regularity_constants(batch),
    )
    return TrajectoryRecord(
        step=step,
        theta=theta.copy(),
        grad_k=report.grad_k,
        j1_pop=ordered_dot(mass, f1),
        jk_pop=ordered_dot(mass, fkv),
        j1_easy=_label_mean(f1, ~hard),
        j1_hard=_label_mean(f1, hard),
        jk_easy=_label_mean(fkv, ~hard),
        jk_hard=_label_mean(fkv, hard),
        inner_product=report.inner_product,
        delta_bound=report.delta_bound,
        eta_max=report.eta_max,
    )


def run_trajectory(
    config: BanditConfig | None = None,
    theta0=None,
    k: int = 5,
    eta: float | None = 1.0,
    steps: int = 100,
    n: int = 6000,
    margin: float = 1e-6,
    batch: PromptBatch | None = None,
) -> list[TrajectoryRecord]:
    """Iterate ascent from theta0 (default: the derived reference parameter)
    on one seeded batch, recording every visited parameter.

    eta=None runs in certified mode: each step uses the report's eta_max,
    the largest step size whose one-step degradation certificate holds,
    stopping early once the certificate margin delta is no longer positive.
    Without a pre-built batch, n prompts are sampled from config
    (default BanditConfig()); with one, config is not read.
    """
    if steps < 1:
        raise DomainError(f"steps must be >= 1, got {steps}")
    if eta is not None and not 0 < eta < np.inf:
        raise DomainError(f"eta must be > 0 and finite, got {eta}")
    if batch is None:
        batch = sample_prompts(BanditConfig() if config is None else config, n)
    theta = reference_theta() if theta0 is None else _check_theta(theta0)

    records: list[TrajectoryRecord] = []
    for t in range(steps):
        record = evaluate_state(theta, batch, k, margin=margin, step=t)
        records.append(record)
        if eta is None and record.eta_max is None:
            return records
        theta = record.theta + (record.eta_max if eta is None else eta) * record.grad_k
    records.append(evaluate_state(theta, batch, k, margin=margin, step=steps))
    return records


def trajectory_to_csv(records, path) -> None:
    write_csv(path, TRAJECTORY_COLUMNS, (r.row() for r in records))
