"""Per-layer metrics from the spans the traced stages wrote.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict

STAGES = ("synth", "zones", "train_general", "train_zoned", "infer_general", "infer_zoned", "eval")
SELF_S = ("autodiff.backward", "autodiff.adam_step", "model.encode", "model.decode_tape",
          "model.reinforce_loss", "routegraph.build_graph", "pipeline.train_general",
          "baselines.two_opt", "baselines.nearest_neighbor", "hexgrid.cell_of", "zoning.kmeans",
          "zoning.collect_cells", "zoning.zone_of_stop", "dataio.load_routes",
          "dataio.save_routes", "dataio.generate_synthetic", "metrics.build_report")
CALLS = ("autodiff.backward", "model.encode", "routegraph.build_graph", "baselines.two_opt",
         "hexgrid.cell_of", "zoning.zone_of_stop", "dataio.load_routes")
COUNTS = ("autodiff.tensors", "routegraph.tour_length.calls", "hexgrid.project.calls")
TOTAL_S = ("model.ModelParams.save", "model.ModelParams.load")
POOL_WORKERS = 2  # the --jobs of the untraced zoned training

# node-count ranges around the rows n=11 and n=151 of the ROADMAP's one-route
# baseline table (hidden size 64): ms for encode, sampled decode and backward
BASELINE_MS = {(9, 13): (6, 13, 13), (141, 161): (377, 155, 684)}


def quantile(values, q: float) -> float:
    """Linear interpolation between order statistics, as numpy's default."""
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def read_spans(path):
    with open(path) as fh:
        head = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    return head, spans


def pool_idle_share(durations, workers: int) -> float:
    """Idle share of `workers` processes taking tasks in submission order,
    each task going to the first worker that frees up (pool.map)."""
    free_at = [0.0] * workers
    for d in durations:
        i = free_at.index(min(free_at))
        free_at[i] += d
    makespan = max(free_at)
    return 1.0 - sum(durations) / (workers * makespan) if makespan > 0 else 0.0


def _bucket(n: int):
    return next((r for r in BASELINE_MS if r[0] <= n <= r[1]), None)


def layer_metrics(stage_traces: dict, stage_wall: dict):
    """stage_traces maps stage -> (head, spans); stage_wall maps stage -> wall s.
    Returns (metrics, detail): metrics name -> (value, unit)."""
    self_s, calls, durations = defaultdict(float), defaultdict(int), defaultdict(list)
    counts = defaultdict(int)
    zone_train, infer_ms = [], defaultdict(list)
    decode_steps, fallbacks = 0, 0
    # per-route timings for the baseline cross-check, bucketed by node count
    per_route = defaultdict(lambda: defaultdict(list))
    startups = []
    for stage in STAGES:
        head, spans = stage_traces[stage]
        startups.append(head["startup_s"])
        for name, value in head["counts"].items():
            counts[name] += value
        child_s = defaultdict(float)
        for sid, parent, name, t0, t1, attrs in spans:
            if parent is not None:
                child_s[parent] += t1 - t0
        pending_n = []  # node counts of sampled decodes since the last backward
        for sid, parent, name, t0, t1, attrs in spans:
            dur = t1 - t0
            self_s[name] += dur - child_s[sid]
            calls[name] += 1
            durations[name].append(dur)
            if name == "pipeline.zone_train":
                zone_train.append((attrs["zone"], dur))
            elif name in ("pipeline.infer_general", "pipeline.infer_zoned"):
                infer_ms[name].append(1000.0 * dur)
            elif name == "model.decode_tape":
                decode_steps += attrs["n"] - 1
                if not attrs["greedy"]:
                    pending_n.append(attrs["n"])
                    per_route[_bucket(attrs["n"])]["decode_sampled"].append(1000.0 * dur)
            elif name == "model.encode":
                per_route[_bucket(attrs["n"])]["encode"].append(1000.0 * dur)
            elif name == "autodiff.backward" and pending_n:
                # one backward covers the batch: share it evenly over its routes
                for n in pending_n:
                    per_route[_bucket(n)]["backward"].append(1000.0 * dur / len(pending_n))
                pending_n = []
            elif name == "baselines.nearest_neighbor" and parent is not None \
                    and spans[parent][2] == "pipeline.infer_zoned":
                fallbacks += 1

    m = {}
    for name in SELF_S:
        m[f"{name}.self_s"] = (self_s[name], "s")
    for name in CALLS:
        m[f"{name}.calls"] = (calls[name], "count")
    for name in COUNTS:
        m[name] = (counts[name], "count")
    for name in TOTAL_S:
        m[f"{name}.s"] = (sum(durations[name]), "s")
    m["model.decode_steps"] = (decode_steps, "count")
    zone_s = [d for _, d in sorted(zone_train, key=lambda zd: zd[0])]
    m["pipeline.zone_train.s.p50"] = (quantile(zone_s, 0.5), "s")
    m["pipeline.zone_train.s.max"] = (max(zone_s), "s")
    m["pipeline.pool_idle_share"] = (pool_idle_share(zone_s, POOL_WORKERS), "ratio")
    for name in ("pipeline.infer_general", "pipeline.infer_zoned"):
        m[f"{name}.route_ms.p50"] = (quantile(infer_ms[name], 0.5), "ms")
        m[f"{name}.route_ms.p90"] = (quantile(infer_ms[name], 0.9), "ms")
    m["pipeline.zoned_fallbacks"] = (fallbacks, "count")
    m["cli.startup.s"] = (quantile(startups, 0.5), "s")
    for stage in STAGES:
        m[f"cli.{stage}.s"] = (stage_wall[stage], "s")

    crosscheck = {}
    for (lo, hi), (enc, dec, bwd) in BASELINE_MS.items():
        got = per_route.get((lo, hi))
        if got:
            crosscheck[f"n={lo}..{hi}"] = {
                part: {"median_ms": quantile(got[part], 0.5), "samples": len(got[part]),
                       "baseline_ms": base}
                for part, base in (("encode", enc), ("decode_sampled", dec), ("backward", bwd))
                if got[part]}
    detail = {"zone_train_s": dict(sorted(zone_train)), "baseline_crosscheck": crosscheck}
    return m, detail
