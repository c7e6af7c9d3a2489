"""Run one `zoneroute` CLI stage with spans recorded around the library's
public functions, patched from outside where the program looks them up.

Usage: python3 perfbench/traced_stage.py SPANS_JSONL SPAWN_MONOTONIC -- ARGS...

Spans stay in memory and are written as JSONL when the stage ends. The first
line holds the start-up time (process start to `zoneroute.cli` imported,
against the parent's monotonic spawn time) and the counters; every further
line is one span: [id, parent id, name, start, end, attributes].
Functions called hundreds of thousands of times only count calls, so the
trace stays small.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            rec = [len(self.spans), self.stack[-1] if self.stack else None, name, 0.0, 0.0,
                   attrs(*args, **kwargs) if attrs else None]
            self.spans.append(rec)
            self.stack.append(rec[0])
            rec[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                self.stack.pop()
        return traced

    def count(self, name, fn):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points in every namespace that calls them."""
    from zoneroute import (autodiff, baselines, cli, dataio, hexgrid, metrics, model,
                           pipeline, routegraph, zoning)

    def patch(modules, attr, wrapper_for):
        wrapped = wrapper_for(getattr(modules[0], attr))
        for module in modules:
            setattr(module, attr, wrapped)

    span, count = tracer.span, tracer.count
    patch([autodiff], "backward", lambda f: span("autodiff.backward", f))
    patch([autodiff], "adam_step", lambda f: span("autodiff.adam_step", f))
    tensor_init = autodiff.Tensor.__init__
    autodiff.Tensor.__init__ = count("autodiff.tensors", tensor_init)

    patch([pipeline], "encode", lambda f: span("model.encode", f, lambda g, *a, **k: {"n": g.n}))
    patch([pipeline, model], "decode_tape", lambda f: span(
        "model.decode_tape", f,
        lambda E, start, params, greedy, *a, **k: {"n": E.shape[0], "greedy": bool(greedy)}))
    patch([pipeline], "reinforce_loss", lambda f: span("model.reinforce_loss", f))
    model.ModelParams.save = span("model.ModelParams.save", model.ModelParams.save)
    model.ModelParams.load = classmethod(
        span("model.ModelParams.load", model.ModelParams.__dict__["load"].__func__))

    patch([pipeline], "build_graph", lambda f: span("routegraph.build_graph", f))
    patch([routegraph, pipeline, model, baselines, cli], "tour_length",
          lambda f: count("routegraph.tour_length.calls", f))

    patch([pipeline], "train_general", lambda f: span("pipeline.train_general", f))
    patch([pipeline], "_train_zone_worker",
          lambda f: span("pipeline.zone_train", f, lambda task: {"zone": task[0]}))
    patch([pipeline], "infer_general", lambda f: span("pipeline.infer_general", f))
    patch([pipeline], "infer_zoned", lambda f: span("pipeline.infer_zoned", f))

    patch([dataio], "two_opt", lambda f: span("baselines.two_opt", f))
    patch([dataio, pipeline], "nearest_neighbor", lambda f: span("baselines.nearest_neighbor", f))

    patch([hexgrid, zoning, routegraph], "project", lambda f: count("hexgrid.project.calls", f))
    patch([zoning, dataio], "cell_of", lambda f: span("hexgrid.cell_of", f))

    patch([cli], "kmeans", lambda f: span("zoning.kmeans", f))
    patch([cli], "collect_cells", lambda f: span("zoning.collect_cells", f))
    patch([zoning, pipeline], "zone_of_stop", lambda f: span("zoning.zone_of_stop", f))

    patch([dataio], "load_routes", lambda f: span("dataio.load_routes", f))
    patch([dataio], "save_routes", lambda f: span("dataio.save_routes", f))
    patch([dataio], "generate_synthetic", lambda f: span("dataio.generate_synthetic", f))
    patch([metrics], "build_report", lambda f: span("metrics.build_report", f))


def main(argv) -> int:
    spans_path, spawn_t, sep, *cli_args = argv
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 1
    from zoneroute import cli
    startup_s = time.monotonic() - float(spawn_t)
    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            fh.write(json.dumps({"startup_s": startup_s, "counts": tracer.counts}) + "\n")
            for rec in tracer.spans:
                fh.write(json.dumps(rec) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
