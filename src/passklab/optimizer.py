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
    _success_and_grad,
    reference_theta,
    sample_prompts,
)
from .conflict import conflict_report
from .errors import DomainError
from .interference import GradientTable
from .objectives import SuccessProfile, _check_int, _check_k, _real, ordered_dot
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


def _objective_values(profile: SuccessProfile, k: int, batch: PromptBatch) -> dict:
    """j1 and jk, from the profile's split, over the population and over each
    label's prompts (NaN for a label with none): the batch's mass and rows."""
    f1, fkv = profile.split.fk(1), profile.split.fk(k)
    values = {"j1_pop": ordered_dot(batch.mass, f1), "jk_pop": ordered_dot(batch.mass, fkv)}
    for label, idx, coef in batch.label_rows:
        if not idx.size:
            values[f"j1_{label}"] = values[f"jk_{label}"] = float("nan")
            continue
        values[f"j1_{label}"] = ordered_dot(coef, f1.take(idx))
        values[f"jk_{label}"] = ordered_dot(coef, fkv.take(idx))
    return values


def evaluate_state(
    theta, batch: PromptBatch, k: int, margin: float = 1e-6, step: int = 0
) -> TrajectoryRecord:
    """All trajectory metrics at one parameter vector."""
    theta, k = _check_theta(theta), _check_k(k)
    p, grads = _success_and_grad(theta, batch)
    profile = SuccessProfile._on_checked_mass(p, batch.mass, batch.ids)
    # before the report, so that none of their temporaries adds to its peak
    values = _objective_values(profile, k, batch)
    table = GradientTable(grads, batch.ids)
    report = conflict_report(table, profile, k, margin=margin, constants=batch.constants)
    return TrajectoryRecord(
        step=step,
        theta=theta.copy(),
        grad_k=report.grad_k,
        **values,
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
    steps = _check_int("steps", steps, 1)
    if eta is not None and not 0 < _real("eta", eta) < np.inf:
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
