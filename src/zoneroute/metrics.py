"""Evaluation protocol: per-route errors, MAPE, aggregate statistics, and
groupings by clusters visited and by stop count, with JSON/CSV reports."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, astuple, dataclass

import numpy as np

from .dataio import write_csv, write_json
from .errors import DomainError

QUANTILES = (0.25, 0.5, 0.75, 0.9)
# each bin but the last holds the values up to its edge, inclusive
CLUSTER_BINS = ("1", "2", "3", "4+")
CLUSTER_EDGES = (1, 2, 3)
STOP_BINS = ("<=100", "101-120", "121-140", "141-160", "161-180", "181-200", ">200")
STOP_EDGES = (100, 120, 140, 160, 180, 200)

STRATEGIES = ("general", "zoned")

CSV_COLUMNS = ("route_id", "n_stops", "clusters_visited",
               "actual_s", "pred_general_s", "pred_zoned_s")


@dataclass
class RouteRow:
    route_id: str
    n_stops: int
    clusters_visited: int
    actual_s: float
    pred_general_s: float
    pred_zoned_s: float

    def predicted(self, strategy: str) -> float:
        return self.pred_general_s if strategy == "general" else self.pred_zoned_s


def mape(actual, predicted) -> float:
    """Mean absolute percentage error, in percent."""
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if actual.size == 0 or actual.shape != predicted.shape:
        raise DomainError("mape: inputs must be equal-length and non-empty")
    if np.any(actual <= 0):
        raise DomainError("mape: actual lengths must be positive")
    return float(100.0 * np.mean(np.abs(predicted - actual) / actual))


def error_stats(errors) -> dict:
    """Mean/max/min and linearly interpolated quantiles of absolute errors."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise DomainError("error_stats: empty input")
    out = {
        "mean": float(errors.mean()),
        "max": float(errors.max()),
        "min": float(errors.min()),
    }
    for p in QUANTILES:
        out[f"q{p}"] = float(np.quantile(errors, p))
    return out


def cluster_bin(clusters: int) -> str:
    return CLUSTER_BINS[bisect_left(CLUSTER_EDGES, clusters)]


def stop_bin(n_stops: int) -> str:
    return STOP_BINS[bisect_left(STOP_EDGES, n_stops)]


def _bin_block(rows: list[RouteRow]) -> dict:
    block = {"n_routes": len(rows)}
    if not rows:
        block.update({"mean_actual_s": None})
        for strategy in STRATEGIES:
            block[f"mean_pred_{strategy}_s"] = None
            block[f"mape_{strategy}"] = None
        return block
    actual = [r.actual_s for r in rows]
    block["mean_actual_s"] = float(np.mean(actual))
    for strategy in STRATEGIES:
        preds = [r.predicted(strategy) for r in rows]
        block[f"mean_pred_{strategy}_s"] = float(np.mean(preds))
        block[f"mape_{strategy}"] = mape(actual, preds)
    return block


def group_reports(rows: list[RouteRow]) -> dict:
    """Per-bin aggregates over clusters-visited and stop-count groupings."""
    by_cluster = {b: [] for b in CLUSTER_BINS}
    by_stops = {b: [] for b in STOP_BINS}
    for row in rows:
        by_cluster[cluster_bin(row.clusters_visited)].append(row)
        by_stops[stop_bin(row.n_stops)].append(row)
    return {
        "by_clusters_visited": {b: _bin_block(by_cluster[b]) for b in CLUSTER_BINS},
        "by_stop_count": {b: _bin_block(by_stops[b]) for b in STOP_BINS},
    }


def build_report(rows: list[RouteRow]) -> dict:
    """Full evaluation report: per-route rows, per-strategy aggregates, groupings."""
    if not rows:
        raise DomainError("build_report: no rows")
    ids = [r.route_id for r in rows]
    if len(set(ids)) != len(ids):
        raise DomainError("build_report: duplicate route ids")
    actual = [r.actual_s for r in rows]
    aggregates = {}
    for strategy in STRATEGIES:
        preds = [r.predicted(strategy) for r in rows]
        errors = [abs(p - a) for p, a in zip(preds, actual)]
        aggregates[strategy] = {"mape": mape(actual, preds),
                                "mean_pred_s": float(np.mean(preds)),
                                "errors": error_stats(errors)}
    return {
        "rows": [asdict(r) for r in rows],
        "aggregates": aggregates,
        "groups": group_reports(rows),
    }


def save_report_json(report: dict, path) -> None:
    write_json(path, report, indent=1)


def save_report_csv(rows: list[RouteRow], path) -> None:
    write_csv(path, CSV_COLUMNS, map(astuple, rows))


def save_plot_data_csv(rows: list[RouteRow], path) -> None:
    """Per-route (index, actual, predicted) series for external plotting."""
    write_csv(path, ["index", "actual_s", "pred_general_s", "pred_zoned_s"],
              ([i, r.actual_s, r.pred_general_s, r.pred_zoned_s] for i, r in enumerate(rows)))
