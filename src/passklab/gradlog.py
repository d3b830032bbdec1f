"""Diagnostics over externally produced per-prompt gradient logs.

A log is line-delimited JSON, one record per prompt:

    {"prompt_id": str, "pass1": float, "grad": [float, ...], "label": str?}

The pipeline filters prompts into hard/easy bands by their single-attempt
success rate, computes agreement scores against the mean gradient of the
filtered set, applies the k-attempt weights, and reports how the weighted
mean agreement shifts relative to the unweighted one.  Producing the
gradients themselves is out of scope; any model or process may write them.
"""

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .conflict import conflict_report
from .errors import DomainError, GradLogError
from .interference import GradientTable
from .objectives import SuccessProfile, ordered_dot
from .serialization import write_csv, write_json

ANTI_ALIGNMENT = 3.0  # synthetic log: hard-gradient scale against the easy one
NOISE = 0.05  # synthetic log: per-entry gradient noise


@dataclass(frozen=True)
class GradLogRecord:
    prompt_id: str
    pass1: float
    grad: np.ndarray
    label: str | None = None
    mass: float | None = None  # optional prompt weight; uniform when absent

    def __post_init__(self):
        if type(self.pass1) is bool:
            raise DomainError("pass1 must be a number, not true/false")
        if type(self.mass) is bool:
            raise DomainError("mass must be a number, not true/false")
        grad = np.asarray(self.grad, dtype=float)
        object.__setattr__(self, "prompt_id", str(self.prompt_id))
        object.__setattr__(self, "pass1", float(self.pass1))
        object.__setattr__(self, "grad", grad)
        if not 0.0 <= self.pass1 <= 1.0:
            raise DomainError(f"pass1 must lie in [0, 1], got {self.pass1}")
        if grad.ndim != 1 or grad.size == 0 or np.any(~np.isfinite(grad)):
            raise DomainError("grad must be a nonempty finite vector")
        if self.mass is not None:
            mass = float(self.mass)
            object.__setattr__(self, "mass", mass)
            if not (np.isfinite(mass) and mass >= 0):
                raise DomainError(f"mass must be finite and >= 0, got {mass}")


@dataclass(frozen=True)
class FilterSpec:
    delta1: float  # easy threshold: keep pass1 > delta1
    delta2: float  # hard threshold: keep pass1 < delta2

    def __post_init__(self):
        if not 0.0 < self.delta2 < self.delta1 < 1.0:
            raise DomainError(
                f"require 0 < delta2 < delta1 < 1, "
                f"got delta1={self.delta1} delta2={self.delta2}"
            )


@dataclass(frozen=True)
class FilteredLog:
    records: tuple  # GradLogRecord, original order
    tags: tuple  # "hard" / "easy", aligned with records
    n_hard: int
    n_easy: int

    @property
    def ratio(self) -> float:
        """Easy-to-hard count ratio (inf when nothing is hard)."""
        return self.n_easy / self.n_hard if self.n_hard else math.inf

    def counts_summary(self) -> str:
        ratio = f"{self.ratio:.1f}" if self.n_hard else "inf"
        return (
            f"{len(self.records)} prompts: {self.n_hard} hard, "
            f"{self.n_easy} easy, ratio {ratio}:1"
        )


@dataclass(frozen=True)
class DiagReport:
    k: int
    n_hard: int
    n_easy: int
    ratio: float
    unweighted_mean_agreement: float
    weighted_mean_agreement: float
    mean_shift: float
    mean_weight: float
    inner_product: float
    rows: tuple  # (prompt_id, pass1, agreement, weight, contribution, tag)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "rows"}


def load_gradlog(path) -> list[GradLogRecord]:
    """Parse and validate a gradient log, reporting offending line numbers."""
    path = Path(path)
    records: list[GradLogRecord] = []
    first_line: dict[str, int] = {}  # prompt_id -> line it first appeared on
    dim: int | None = None
    with path.open("rb") as fh:  # each line is decoded, so a bad byte names it
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line.decode())
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, long int
                raise GradLogError(f"{path}: line {lineno}: invalid JSON ({exc})")
            if not isinstance(obj, dict):
                raise GradLogError(f"{path}: line {lineno}: record must be an object")
            try:
                rec = GradLogRecord(
                    prompt_id=obj["prompt_id"],
                    pass1=obj["pass1"],
                    grad=obj["grad"],
                    label=obj.get("label"),
                    mass=obj.get("mass"),
                )
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise GradLogError(f"{path}: line {lineno}: {exc}") from exc
            if dim is None:
                dim = rec.grad.size
            elif rec.grad.size != dim:
                raise GradLogError(
                    f"{path}: line {lineno}: gradient dimension {rec.grad.size} "
                    f"differs from {dim}"
                )
            if rec.prompt_id in first_line:
                raise GradLogError(
                    f"{path}: line {lineno}: duplicate prompt_id "
                    f"{rec.prompt_id!r} (first on line {first_line[rec.prompt_id]})"
                )
            first_line[rec.prompt_id] = lineno
            records.append(rec)
    if not records:
        raise GradLogError(f"{path}: empty gradient log")
    return records


def export_gradlog(records, path) -> None:
    path = Path(path)
    with path.open("w") as fh:
        for rec in records:
            obj = {
                "prompt_id": rec.prompt_id,
                "pass1": rec.pass1,
                "grad": rec.grad.tolist(),
            }
            if rec.label is not None:
                obj["label"] = rec.label
            if rec.mass is not None:
                obj["mass"] = rec.mass
            fh.write(json.dumps(obj) + "\n")


def filter_by_difficulty(records, spec: FilterSpec) -> FilteredLog:
    """Keep hard (pass1 < delta2) and easy (pass1 > delta1) records,
    dropping the middle band."""
    kept, tags = [], []
    for rec in records:
        if rec.pass1 < spec.delta2:
            kept.append(rec)
            tags.append("hard")
        elif rec.pass1 > spec.delta1:
            kept.append(rec)
            tags.append("easy")
    return FilteredLog(
        records=tuple(kept),
        tags=tuple(tags),
        n_hard=tags.count("hard"),
        n_easy=tags.count("easy"),
    )


def _prompt_masses(records) -> np.ndarray:
    """Normalized prompt masses; uniform unless every record carries one."""
    supplied = [rec.mass for rec in records if rec.mass is not None]
    n = len(records)
    if not supplied:
        return np.full(n, 1.0 / n)
    if len(supplied) != n:
        raise DomainError(
            "either every filtered record must carry a mass or none may"
        )
    mass = np.array(supplied, dtype=float)
    total = ordered_dot(mass, np.ones_like(mass))
    if total <= 0:
        raise DomainError("record masses must not all be zero")
    return mass / total


def diagnose(filtered: FilteredLog, k: int) -> DiagReport:
    """Agreement/weight/contribution view of one conflict_report.

    The filtered records become one table and profile (uniform mass
    unless the log carries explicit masses), so the report inherits
    conflict_report's cross-checks: three inner-product routes and the
    mean-agreement identity.  The reference direction is the mean
    gradient of the filtered records; the weighted mean agreement is
    the mean of weight times agreement divided by the mean weight.
    """
    n = len(filtered.records)
    if n < 2:
        raise DomainError(f"diagnose needs at least 2 records, got {n}")
    ids = tuple(rec.prompt_id for rec in filtered.records)
    pass1 = np.array([rec.pass1 for rec in filtered.records])
    mass = _prompt_masses(filtered.records)
    table = GradientTable(np.stack([rec.grad for rec in filtered.records]), mass, ids)
    report = conflict_report(table, SuccessProfile(pass1, mass, ids), k)
    agreements, weights = report.scores, report.weights
    contributions = weights * agreements

    # expectations normalized by the float mass total, so constant weights
    # give a mean of exactly 1 and the k=1 shift is exactly zero
    denom = ordered_dot(mass, np.ones(n))
    unweighted = report.mean_score / denom
    mean_weight = report.mean_weight / denom
    inner_product = report.weighted_form / denom
    weighted = inner_product / mean_weight

    rows = tuple(
        (
            rec.prompt_id,
            float(pass1[i]),
            float(agreements[i]),
            float(weights[i]),
            float(contributions[i]),
            filtered.tags[i],
        )
        for i, rec in enumerate(filtered.records)
    )
    return DiagReport(
        k=int(k),
        n_hard=filtered.n_hard,
        n_easy=filtered.n_easy,
        ratio=filtered.ratio,
        unweighted_mean_agreement=unweighted,
        weighted_mean_agreement=weighted,
        mean_shift=weighted - unweighted,
        mean_weight=mean_weight,
        inner_product=inner_product,
        rows=rows,
    )


def scatter_export(filtered: FilteredLog, k: int, path) -> None:
    """Diagnose the filtered log and write its scatter CSV."""
    report_scatter_to_csv(diagnose(filtered, k), path)


def report_scatter_to_csv(report: DiagReport, path) -> None:
    """CSV backing a weight-vs-agreement scatter, one row per record."""
    rows = (
        (pid, agreement, weight, p1, tag)
        for pid, p1, agreement, weight, _, tag in report.rows
    )
    write_csv(path, ("prompt_id", "agreement", "weight", "pass1", "tag"), rows)


def report_rows_to_csv(report: DiagReport, path) -> None:
    write_csv(
        path,
        ("prompt_id", "pass1", "agreement", "weight", "weighted_contribution", "tag"),
        report.rows,
    )


def report_to_json(report: DiagReport, path) -> None:
    write_json(path, report.to_dict())


def make_synthetic_conflict_log(
    n: int = 600, d: int = 64, seed: int = 0, hard_fraction: float = 0.15
) -> list[GradLogRecord]:
    """Construct a log whose hard minority provably flips the weighted mean.

    Easy records (majority) have high pass1 and gradients clustered along
    a common direction; hard records have low pass1 and gradients
    anti-aligned with that direction, scaled by ANTI_ALIGNMENT; every
    gradient gets Gaussian noise of scale NOISE.  The mean
    gradient stays aligned with the easy cluster, so easy agreements are
    positive, hard agreements negative, and the k-attempt weights (which
    concentrate on low pass1) drag the weighted mean below zero.
    """
    if n < 10:
        raise DomainError(f"n must be >= 10, got {n}")
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    n_hard = int(round(n * hard_fraction))
    if not 0 < n_hard < n:
        raise DomainError("hard_fraction must leave both groups nonempty")
    records = []
    for i in range(n):
        hard = i < n_hard
        if hard:
            pass1 = rng.uniform(0.002, 0.08)
            grad = -ANTI_ALIGNMENT * direction + NOISE * rng.normal(size=d)
        else:
            pass1 = rng.uniform(0.86, 0.995)
            grad = direction + NOISE * rng.normal(size=d)
        records.append(
            GradLogRecord(
                prompt_id=f"p{i:04d}",
                pass1=float(pass1),
                grad=grad,
                label="hard" if hard else "easy",
            )
        )
    return records
