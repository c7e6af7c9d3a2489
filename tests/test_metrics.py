import csv
import json

import numpy as np
import pytest

from zoneroute.dataio import read_json
from zoneroute.errors import DomainError
from zoneroute.metrics import (
    RouteRow,
    build_report,
    cluster_bin,
    error_stats,
    group_reports,
    mape,
    save_plot_data_csv,
    save_report_csv,
    save_report_json,
    stop_bin,
)


def row(i, n_stops=120, clusters=2, actual=100.0, gen=150.0, zoned=110.0):
    return RouteRow(route_id=f"R{i}", n_stops=n_stops, clusters_visited=clusters,
                    actual_s=actual, pred_general_s=gen, pred_zoned_s=zoned)


def test_mape_hand_value():
    actual = [100.0, 200.0, 50.0, 400.0, 10.0]
    pred = [110.0, 150.0, 75.0, 400.0, 30.0]
    # |err|/actual: 0.10, 0.25, 0.50, 0.00, 2.00 -> mean 0.57 -> 57%
    assert mape(actual, pred) == pytest.approx(57.0, rel=1e-12)


def test_mape_rejects_zero_actual():
    with pytest.raises(DomainError):
        mape([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(DomainError):
        mape([], [])


def test_error_stats_interpolated_quantiles():
    stats = error_stats(list(range(1, 11)))
    assert stats["q0.5"] == pytest.approx(5.5)
    assert stats["q0.25"] == pytest.approx(3.25)
    assert stats["q0.9"] == pytest.approx(9.1)
    assert stats["mean"] == pytest.approx(5.5)
    assert stats["min"] == 1.0 and stats["max"] == 10.0


def test_bins():
    assert cluster_bin(1) == "1"
    assert cluster_bin(3) == "3"
    assert cluster_bin(4) == "4+"
    assert cluster_bin(9) == "4+"
    assert stop_bin(100) == "<=100"
    assert stop_bin(101) != "<=100"
    assert stop_bin(201) == ">200"


def test_bin_edges():
    assert [cluster_bin(c) for c in range(6)] == ["1", "1", "2", "3", "4+", "4+"]
    labels = ["<=100", "101-120", "121-140", "141-160", "161-180", "181-200", ">200"]
    for i, edge in enumerate((100, 120, 140, 160, 180, 200)):
        assert stop_bin(edge) == labels[i]
        assert stop_bin(edge + 1) == labels[i + 1]


def test_grouped_mape_identity_100_routes():
    rng = np.random.default_rng(0)
    rows = []
    for i in range(100):
        rows.append(RouteRow(route_id=f"R{i}",
                             n_stops=int(rng.integers(50, 260)),
                             clusters_visited=int(rng.integers(1, 7)),
                             actual_s=float(rng.uniform(1000, 30000)),
                             pred_general_s=float(rng.uniform(1000, 60000)),
                             pred_zoned_s=float(rng.uniform(1000, 60000))))
    groups = group_reports(rows)
    for kind, binner in (("by_clusters_visited",
                          lambda r: cluster_bin(r.clusters_visited)),
                         ("by_stop_count", lambda r: stop_bin(r.n_stops))):
        for label, stats in groups[kind].items():
            members = [r for r in rows if binner(r) == label]
            assert stats["n_routes"] == len(members)
            if not members:
                assert stats["mape_general"] is None
                continue
            for key, pred in (("mape_general", lambda r: r.pred_general_s),
                              ("mape_zoned", lambda r: r.pred_zoned_s)):
                expected = mape([r.actual_s for r in members],
                                [pred(r) for r in members])
                assert abs(stats[key] - expected) < 1e-12


def test_build_report_schema_and_roundtrip(tmp_path):
    rows = [row(0), row(1, clusters=5, gen=90.0), row(2, n_stops=250)]
    report = build_report(rows)
    assert len(report["rows"]) == 3
    assert set(report["aggregates"]) == {"general", "zoned"}
    agg = report["aggregates"]["general"]
    assert {"mape", "mean_pred_s", "errors"} <= set(agg)
    assert {"by_clusters_visited", "by_stop_count"} <= set(report["groups"])
    path = tmp_path / "report.json"
    save_report_json(report, path)
    assert read_json(path) == report


def test_report_csv_columns(tmp_path):
    rows = [row(0), row(1)]
    path = tmp_path / "rows.csv"
    save_report_csv(rows, path)
    with open(path) as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["route_id", "n_stops", "clusters_visited",
                      "actual_s", "pred_general_s", "pred_zoned_s"]
    assert len(got) == 3 and got[1][0] == "R0"


def test_plot_data_csv(tmp_path):
    rows = [row(i, actual=100.0 + i, gen=120.0 + i, zoned=105.0 + i)
            for i in range(4)]
    path = tmp_path / "plot.csv"
    save_plot_data_csv(rows, path)
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 5  # header + 4 rows
