#!/usr/bin/env python3
"""Zone-based vs. general training, end to end on synthetic data.

Generates a small synthetic metro with three delivery neighborhoods and
holds out a fifth of its routes.  On the other routes it clusters the stop
cells into zones, trains one general policy on whole routes and one small
policy per zone on its sub-routes.  On each fold it then compares
greedy-decoded tour lengths against the ground-truth sequences and the
nearest-neighbor heuristic.

Runs on CPU in a couple of minutes:

    python3 demos/compare_strategies.py
"""

import time

import numpy as np

from zoneroute import dataio, metrics, pipeline
from zoneroute.baselines import nearest_neighbor
from zoneroute.routegraph import tour_length
from zoneroute.zoning import clusters_visited, collect_cells, kmeans

# ---------------------------------------------------------------------------
# data: 60 routes of 8-12 stops spread over 3 neighborhoods, 80% of them
# for training and the rest held out

cfg = dataio.SynthConfig(n_routes=60, stops_min=8, stops_max=12,
                         n_neighborhoods=3, seed=21)
routes = dataio.generate_synthetic(cfg)
train, held_out = dataio.split(routes, 0.8, seed=21)
spec = pipeline.default_grid_spec(train)
print(f"generated {len(routes)} routes, "
      f"{sum(r.n for r in routes)} stops total; "
      f"{len(train)} train, {len(held_out)} held out")

# ---------------------------------------------------------------------------
# zones: hex cells of the training routes at resolution 7, k-means into 5 zones

cells = collect_cells(train, 7, spec)
zoning = kmeans(cells, 5, seed=21, spec=spec, resolution=7)
spans = np.array([clusters_visited(r, zoning) for r in routes])
print(f"clustered {len(cells)} cells into {zoning.k} zones; "
      f"routes span {spans.min()}-{spans.max()} zones (mean {spans.mean():.1f})")

# ---------------------------------------------------------------------------
# training on the training fold: one general model, one model per zone

train_cfg = pipeline.TrainConfig(epochs=4, seed=21)
t0 = time.time()
general, _ = pipeline.train_general(
    train, pipeline.TrainConfig(epochs=4, seed=pipeline.derive_seed(21, 0)), spec)
print(f"general model trained in {time.time() - t0:.0f}s")

t0 = time.time()
zoned = pipeline.train_zone_models(train, zoning, train_cfg, jobs=1)
print(f"{len(zoned.models)} zone models trained in {time.time() - t0:.0f}s")

# ---------------------------------------------------------------------------
# evaluation on each fold: greedy decode vs. ground truth and nearest neighbor


def evaluate(fold: str, fold_routes) -> None:
    rows = []
    nn_lens = []
    for r in fold_routes:
        gres = pipeline.infer_general(r, general, spec)
        zres = pipeline.infer_zoned(r, zoned)
        nn_lens.append(tour_length(nearest_neighbor(r.travel, r.start_index), r.travel))
        rows.append(metrics.RouteRow(
            route_id=r.id, n_stops=r.n, clusters_visited=int(clusters_visited(r, zoning)),
            actual_s=tour_length(r.actual_order, r.travel),
            pred_general_s=gres.length, pred_zoned_s=zres.length))

    report = metrics.build_report(rows)
    agg = report["aggregates"]
    print(f"\n{fold} fold, {len(rows)} routes")
    print(f"{'':>24}  {'mean tour (s)':>13}  {'MAPE vs actual':>14}")
    print(f"{'actual (ground truth)':>24}  {np.mean([x.actual_s for x in rows]):>13.1f}")
    print(f"{'nearest neighbor':>24}  {np.mean(nn_lens):>13.1f}")
    print(f"{'general policy':>24}  {agg['general']['mean_pred_s']:>13.1f}  "
          f"{agg['general']['mape']:>13.1f}%")
    print(f"{'zoned policies':>24}  {agg['zoned']['mean_pred_s']:>13.1f}  "
          f"{agg['zoned']['mape']:>13.1f}%")

    print("by zones visited:")
    for label, bin_ in report["groups"]["by_clusters_visited"].items():
        if bin_["n_routes"] == 0:
            continue
        print(f"  {label:>3} zones  n={bin_['n_routes']:>2}  "
              f"general {bin_['mean_pred_general_s']:>7.1f}s  "
              f"zoned {bin_['mean_pred_zoned_s']:>7.1f}s")


evaluate("train", train)
evaluate("held-out", held_out)
