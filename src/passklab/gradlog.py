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
from .errors import DomainError
from .interference import GradientTable
from .objectives import (SuccessProfile, _check_int, _check_prob, _check_seed, _real, _reals,
                         _shown, _str_ids, ordered_dot)
from .serialization import (line_error, no_records, number_list, parse_record, read_lines,
                            write_csv, write_json)

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
        _str_ids((self.prompt_id,))
        if self.label is not None and not isinstance(self.label, str):
            raise DomainError(f"label must be a string, got {_shown(self.label)}")
        object.__setattr__(self, "grad", _reals("grad", self.grad))
        object.__setattr__(self, "pass1", _check_prob(self.pass1, "pass1"))
        if self.grad.ndim != 1 or self.grad.size == 0:
            raise DomainError("grad must be a nonempty 1-d vector")
        if self.mass is not None:
            mass = _real("mass", self.mass)
            object.__setattr__(self, "mass", mass)
            if not (np.isfinite(mass) and mass >= 0):
                raise DomainError(f"mass must be finite and >= 0, got {mass}")


@dataclass(frozen=True)
class FilterSpec:
    delta1: float  # easy threshold: keep pass1 > delta1
    delta2: float  # hard threshold: keep pass1 < delta2

    def __post_init__(self):
        delta1, delta2 = _real("delta1", self.delta1), _real("delta2", self.delta2)
        if not 0.0 < delta2 < delta1 < 1.0:
            raise DomainError(
                f"require 0 < delta2 < delta1 < 1, "
                f"got delta1={self.delta1} delta2={self.delta2}"
            )


@dataclass(frozen=True)
class FilteredLog:
    records: tuple  # GradLogRecord, original order
    tags: tuple  # "hard" / "easy", aligned with records

    @property
    def n_hard(self) -> int:
        return self.tags.count("hard")

    @property
    def n_easy(self) -> int:
        return self.tags.count("easy")

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
    ratio: float | None  # None when no prompt is hard: JSON has no Infinity
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
    records: list[GradLogRecord] = []
    first_line: dict[str, int] = {}  # prompt_id -> line it first appeared on
    dim = 0  # gradient length, set by the first record
    for lineno, line in read_lines(path):
        if not line:
            continue
        obj = parse_record(path, lineno, line)
        try:
            for key, kind in (("label", "a string, got"), ("mass", "a number, not")):
                if key in obj and obj[key] is None:  # a record's None means absent
                    raise DomainError(f"{key} must be {kind} null")
            rec = GradLogRecord(
                prompt_id=obj["prompt_id"],
                pass1=obj["pass1"],
                grad=np.array(number_list(obj["grad"], "grad"), dtype=float),
                label=obj.get("label"),
                mass=obj.get("mass"),
            )
            dim = dim or len(rec.grad)
            if len(rec.grad) != dim:
                raise DomainError(f"gradient dimension {len(rec.grad)} differs from {dim}")
            if rec.prompt_id in first_line:
                raise DomainError(
                    f"duplicate prompt_id {rec.prompt_id!r} "
                    f"(first on line {first_line[rec.prompt_id]})"
                )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise line_error(path, lineno, exc) from exc
        first_line[rec.prompt_id] = lineno
        records.append(rec)
    if not records:
        raise no_records(path)
    return records


def export_gradlog(records, path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
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
    return FilteredLog(records=tuple(kept), tags=tuple(tags))


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
    try:
        total = ordered_dot(mass, np.ones_like(mass))
    except OverflowError:
        raise DomainError("record masses sum past the float range") from None
    if total <= 0:
        raise DomainError("record masses must not all be zero")
    return mass / total


def diagnose(filtered: FilteredLog, k: int) -> DiagReport:
    """Agreement/weight/contribution view of one conflict_report.

    The filtered records become one table and a profile (its mass uniform
    unless they carry masses), so the report inherits
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
    table = GradientTable(np.stack([rec.grad for rec in filtered.records]), ids)
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

    columns = (pass1, agreements, weights, contributions)
    rows = tuple(zip(ids, *(c.tolist() for c in columns), filtered.tags, strict=True))
    return DiagReport(
        k=int(k),
        n_hard=filtered.n_hard,
        n_easy=filtered.n_easy,
        ratio=filtered.ratio if filtered.n_hard else None,
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
    n, d = _check_int("n", n, 10), _check_int("d", d, 1)
    if not 0 < _real("hard_fraction", hard_fraction) < 1:
        raise DomainError(f"hard_fraction must lie in (0, 1), got {hard_fraction}")
    rng = np.random.default_rng(_check_seed(seed))
    direction = rng.normal(size=d)
    direction /= math.sqrt(ordered_dot(direction, direction))
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
