"""Command-line entry point: synth / zones / train / infer / eval.

Exit codes: 0 success, 1 usage error, 2 data or domain error, 3 numeric
error.  All randomness flows from explicit seeds, so every subcommand is
byte-identical across repeated runs with the same inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import dataio, metrics, pipeline
from .dataio import SynthConfig
from .errors import DataError, DomainError, NumericError
from .parallel import usable_cpus
from .pipeline import TrainConfig
from .routegraph import tour_length
from .zoning import clusters_visited, collect_cells, kmeans, load_zoning, save_zoning

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


def _parse_config_file(path, cls):
    """Flat `key = value` config; keys must match the dataclass fields."""
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in fields:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise UsageError(f"{path}:{lineno}: config key {key!r} given twice")
        try:
            if fields[key] in ("int", int):
                values[key] = int(raw)
            else:
                values[key] = float(raw)
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {raw!r}") from exc
    with dataio.data_errors(path):
        return cls(**values)


def _tours_of(payload) -> dict:
    if not isinstance(payload["tours"], dict):
        raise TypeError("'tours' is not an object")
    return payload["tours"]


def _tour_indices(tours: dict, path, route) -> list[int]:
    """Stop indices of `route`'s tour in a tours file; the entry must be a
    dict whose `order` is a permutation of the route's stop ids."""
    index_of = {s.id: i for i, s in enumerate(route.stops)}
    with dataio.data_errors(f"{path}: route {route.id}"):
        indices = [index_of[sid] for sid in tours[route.id]["order"]]
        if sorted(indices) != list(range(route.n)):
            raise ValueError(f"order is not a permutation of its {route.n} stops")
    return indices


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    cfg = _parse_config_file(args.config, SynthConfig)
    routes = dataio.generate_synthetic(cfg)
    dataio.save_routes(routes, args.out)
    print(f"wrote {len(routes)} synthetic routes to {args.out}")
    return EXIT_OK


def cmd_zones(args) -> int:
    routes = dataio.load_routes(args.routes)
    spec = pipeline.default_grid_spec(routes)
    cells = collect_cells(routes, args.resolution, spec)
    zoning = kmeans(cells, args.k, args.seed, spec, resolution=args.resolution)
    save_zoning(zoning, args.out)
    print(f"clustered {len(cells)} cells into {zoning.k} zones -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    if args.strategy == "general" and args.zones:
        raise UsageError("--zones is for train --strategy zoned only")
    if args.strategy == "zoned" and not args.zones:
        raise UsageError("train --strategy zoned requires --zones")
    routes = dataio.load_routes(args.routes)
    cfg = _parse_config_file(args.config, TrainConfig)
    if args.strategy == "general":
        spec = pipeline.default_grid_spec(routes)
        params, log_rows = pipeline.train_general(routes, cfg, spec, jobs=args.jobs)
        pipeline.save_general(params, log_rows, args.out, spec)
        print(f"general model trained for {cfg.epochs} epochs -> {args.out}")
    else:
        zoning = load_zoning(args.zones)
        zms = pipeline.train_zone_models(routes, zoning, cfg, jobs=args.jobs)
        pipeline.save_zoned(zms, args.out)
        print(f"trained {len(zms.models)} zone models -> {args.out}")
    return EXIT_OK


def cmd_infer(args) -> int:
    routes = dataio.load_routes(args.routes)
    if args.strategy == "general":
        params, spec = pipeline.load_general(args.ckpt)
        infer = functools.partial(pipeline.infer_general, params=params, spec=spec)
    else:
        infer = functools.partial(pipeline.infer_zoned, zms=pipeline.load_zoned(args.ckpt))
    tours = {}
    for route in routes:
        res = infer(route)
        tours[route.id] = {"order": [route.stops[i].id for i in res.tour],
                           "length_s": res.length, "log_prob": res.log_prob}
    dataio.write_json(args.out, {"strategy": args.strategy, "tours": tours}, sort_keys=True)
    print(f"inferred {len(tours)} tours -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    routes = dataio.load_routes(args.routes)
    zoning = load_zoning(args.zones)
    tours_general = dataio.read_json(args.tours_general, _tours_of)
    tours_zoned = dataio.read_json(args.tours_zoned, _tours_of)

    rows = []
    for route in routes:
        if route.n == 1:  # a station alone: no tour, so no error to measure
            continue
        if route.actual_order is None:
            raise DataError(f"{args.routes}: route {route.id}: "
                            f"no ground-truth sequence for evaluation")
        actual = tour_length(route.actual_order, route.travel)
        if actual <= 0:
            # MAPE divides by the ground-truth length
            raise DataError(f"{args.routes}: route {route.id}: ground-truth sequence has "
                            f"length {actual} s; evaluation needs a positive length")
        preds = {strategy: tour_length(_tour_indices(tours, path, route), route.travel)
                 for strategy, tours, path in (("general", tours_general, args.tours_general),
                                               ("zoned", tours_zoned, args.tours_zoned))}
        rows.append(metrics.RouteRow(route_id=route.id, n_stops=route.n,
                                     clusters_visited=clusters_visited(route, zoning),
                                     actual_s=actual,
                                     pred_general_s=preds["general"],
                                     pred_zoned_s=preds["zoned"]))

    if not rows:
        raise DataError(f"{args.routes}: no route of two or more stops to evaluate")
    report = metrics.build_report(rows)
    metrics.save_report_json(report, args.out)
    if args.csv:
        metrics.save_report_csv(rows, args.csv)
    if args.plot_data:
        metrics.save_plot_data_csv(rows, args.plot_data)
    print(f"evaluated {len(rows)} routes ({len(routes) - len(rows)} one-stop left out): "
          f"general MAPE {report['aggregates']['general']['mape']:.2f}% / "
          f"zoned MAPE {report['aggregates']['zoned']['mape']:.2f}% -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # no `--res` for `--resolution`, in subcommands too
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zoneroute",
                     description="Zone-based vs. general route-policy training")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic route files")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("zones", help="collect hex cells and cluster into zones")
    p.add_argument("--routes", required=True)
    p.add_argument("--resolution", type=int, default=7)
    p.add_argument("--k", type=int, default=57)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_zones)

    p = sub.add_parser("train", help="train a general or zoned policy")
    p.add_argument("--strategy", choices=("general", "zoned"), required=True)
    p.add_argument("--routes", required=True)
    p.add_argument("--zones")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=_positive_int, default=len(usable_cpus()))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="greedy inference over routes")
    p.add_argument("--strategy", choices=("general", "zoned"), required=True)
    p.add_argument("--routes", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("eval", help="evaluate tours against ground truth")
    p.add_argument("--routes", required=True)
    p.add_argument("--tours-general", required=True)
    p.add_argument("--tours-zoned", required=True)
    p.add_argument("--zones", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv")
    p.add_argument("--plot-data")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # no numpy warning for each overflow, in forked workers too (they
        # inherit the setting); the tape's nodes check for non-finite values
        with np.errstate(all="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, DataError, IOError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        print(f"data error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
