"""Scaling-curve fitting over (total model bits, metric) observations.

Observations are grouped by precision and each group is fit with a
piecewise-linear interpolation over log2(total bits). Bivariate power laws
fit this kind of data poorly, while the per-precision interpolations run
almost parallel, so a budget can be answered by evaluating every curve at
that abscissa and taking the best value. No curve is ever extrapolated
beyond its observed range.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    DisjointDomainError,
    EmptyInputError,
    InsufficientDataError,
    InvalidSpecError,
    OutOfRangeError,
    ParseError,
)


class MetricKind(str, Enum):
    ACCURACY = "accuracy"
    PERPLEXITY = "perplexity"

    @property
    def higher_is_better(self) -> bool:
        return self is MetricKind.ACCURACY


@dataclass(frozen=True)
class ScalingRecord:
    """One (model, precision) observation."""

    family: str
    n_params: int
    precision_bits: float
    total_bits: float
    metric_kind: MetricKind
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "metric_kind", MetricKind(self.metric_kind))
        for name in ("precision_bits", "total_bits", "value"):  # nan and inf would print as such
            if not math.isfinite(vars(self)[name]):
                raise InvalidSpecError(f"{name} must be finite, got {vars(self)[name]}")
        if self.total_bits <= 0:
            raise InvalidSpecError(f"total_bits must be positive, got {self.total_bits}")
        if self.metric_kind is MetricKind.ACCURACY and not 0.0 <= self.value <= 1.0:
            raise InvalidSpecError(f"accuracy must be in [0, 1], got {self.value}")
        if self.metric_kind is MetricKind.PERPLEXITY and self.value <= 0:
            raise InvalidSpecError(f"perplexity must be positive, got {self.value}")


@dataclass(frozen=True)
class ScalingCurve:
    """Piecewise-linear metric trend for one precision, over log2 bits."""

    precision: float
    metric_kind: MetricKind
    knots_x: np.ndarray
    knots_y: np.ndarray

    @property
    def x_range(self) -> tuple[float, float]:
        return float(self.knots_x[0]), float(self.knots_x[-1])

    def covers(self, x: float) -> bool:
        return self.knots_x[0] <= x <= self.knots_x[-1]

    def evaluate_log2(self, x) -> np.ndarray | float:
        xs = np.asarray(x, dtype=np.float64)
        if not np.all(np.isfinite(xs)):
            raise OutOfRangeError("query abscissa must be finite")
        if np.any(xs < self.knots_x[0]) or np.any(xs > self.knots_x[-1]):
            raise OutOfRangeError(
                f"query outside fitted range [{self.knots_x[0]:.4f}, {self.knots_x[-1]:.4f}] "
                f"in log2 bits; extrapolation is refused"
            )
        out = np.interp(xs, self.knots_x, self.knots_y)
        return float(out) if xs.ndim == 0 else out

    def evaluate(self, total_bits) -> np.ndarray | float:
        bits = np.asarray(total_bits, dtype=np.float64)
        if np.any(bits <= 0):
            raise OutOfRangeError("total_bits must be positive")
        return self.evaluate_log2(np.log2(bits))


def fit_curves(records) -> dict[float, ScalingCurve]:
    """Fit one curve per precision group.

    Repeated observations at the same total-bit count are averaged before
    fitting (zero-shot metrics are noisy); a group must retain at least two
    distinct abscissae afterwards.
    """
    records = list(records)
    if not records:
        raise EmptyInputError("no records to fit")
    kinds = {r.metric_kind for r in records}
    if len(kinds) > 1:
        raise InvalidSpecError(f"records mix metric kinds: {sorted(k.value for k in kinds)}")
    metric = kinds.pop()

    groups: dict[float, list[ScalingRecord]] = {}
    for r in records:
        groups.setdefault(float(r.precision_bits), []).append(r)

    curves: dict[float, ScalingCurve] = {}
    for precision in sorted(groups):
        xs = np.log2([r.total_bits for r in groups[precision]])
        ys = np.array([r.value for r in groups[precision]])
        knots_x, inverse = np.unique(xs, return_inverse=True)
        if knots_x.size < 2:
            raise InsufficientDataError(
                f"precision {precision} has {knots_x.size} distinct total-bit value(s); "
                "need at least 2 to interpolate"
            )
        knots_y = np.bincount(inverse, weights=ys) / np.bincount(inverse)
        curves[precision] = ScalingCurve(precision, metric, knots_x, knots_y)
    return curves


def pareto_optimal_precision(curves: dict[float, ScalingCurve], budgets) -> list[float]:
    """Best precision per bit budget, ties going to the lower precision.

    Only curves whose fitted range covers a budget compete for it; a budget
    outside every range is an error.
    """
    if not curves:
        raise EmptyInputError("no curves given")
    metric = next(iter(curves.values())).metric_kind
    best_per_budget = []
    for budget in budgets:
        if not budget > 0:
            raise OutOfRangeError(f"budgets must be positive bit counts, got {budget}")
        x = math.log2(budget)
        best: tuple[float, float] | None = None
        for precision in sorted(curves):
            curve = curves[precision]
            if not curve.covers(x):
                continue
            value = curve.evaluate_log2(x)
            score = value if metric.higher_is_better else -value
            if best is None or score > best[0]:
                best = (score, precision)
        if best is None:
            raise OutOfRangeError(f"budget {budget} lies outside every fitted curve range")
        best_per_budget.append(best[1])
    return best_per_budget


@dataclass(frozen=True)
class OffsetStats:
    """A curve's mean offset from the pooled mean curve, and its spread."""

    offset: float
    dispersion: float


def parallelism_offsets(
    curves: dict[float, ScalingCurve], grid_points: int = 65
) -> dict[float, OffsetStats]:
    """Quantify how parallel the per-precision curves are.

    Every curve is evaluated on a shared uniform grid over the overlapping
    abscissa range; each curve's deviation from the pointwise mean curve is
    summarized by its mean (the offset) and its population std (the
    dispersion). Exactly parallel curves have zero dispersion.
    """
    if not curves:
        raise EmptyInputError("no curves given")
    lo = max(c.x_range[0] for c in curves.values())
    hi = min(c.x_range[1] for c in curves.values())
    if lo > hi:
        raise DisjointDomainError("curves share no overlapping total-bits range")
    grid = np.linspace(lo, hi, grid_points)
    table = np.vstack([curves[p].evaluate_log2(grid) for p in sorted(curves)])
    pooled = table.mean(axis=0)
    deviations = table - pooled
    return {
        precision: OffsetStats(
            offset=float(deviations[i].mean()),
            dispersion=float(deviations[i].std()),
        )
        for i, precision in enumerate(sorted(curves))
    }


CSV_COLUMNS = ("family", "n_params", "precision_bits", "total_bits", "metric_kind", "value")


def read_records_csv(path) -> list[ScalingRecord]:
    """Parse scaling records from CSV with a mandatory header row."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: empty file, expected header {','.join(CSV_COLUMNS)}")
            if [h.strip() for h in header] != list(CSV_COLUMNS):
                raise ParseError(
                    f"{path}: line 1: expected header {','.join(CSV_COLUMNS)}, "
                    f"got {','.join(header)}"
                )
            records = []
            bad_lines = []
            for row in reader:
                if not row:
                    continue
                try:
                    records.append(
                        ScalingRecord(
                            family=row[0].strip(),
                            n_params=int(row[1]),
                            precision_bits=float(row[2]),
                            total_bits=float(row[3]),
                            metric_kind=MetricKind(row[4].strip()),
                            value=float(row[5]),
                        )
                    )
                except (IndexError, ValueError, InvalidSpecError) as exc:
                    bad_lines.append(f"line {reader.line_num}: {exc}")
            if bad_lines:
                raise ParseError(f"{path}: " + "; ".join(bad_lines))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    return records


def scaling_report(records, budgets) -> dict:
    """Fit curves and assemble the JSON-ready analysis report."""
    curves = fit_curves(records)
    report = {
        "metric_kind": next(iter(curves.values())).metric_kind.value,
        "curves": {
            str(p): {
                "knots_log2_bits": curves[p].knots_x.tolist(),
                "values": curves[p].knots_y.tolist(),
            }
            for p in sorted(curves)
        },
        "pareto": [
            {"budget": float(b), "best_precision": p}
            for b, p in zip(budgets, pareto_optimal_precision(curves, budgets))
        ],
        "parallelism": {
            str(p): {"offset": stats.offset, "dispersion": stats.dispersion}
            for p, stats in parallelism_offsets(curves).items()
        },
    }
    return report
