"""Route loading (challenge-style three-file layout), synthetic generation,
fold splitting, and the one read/write path every zoneroute file uses.

The on-disk layout mirrors the public last-mile challenge data so that real
files drop in unchanged: route_data.json (stops with coordinates, zone ids,
and a Station start), travel_times.json (complete asymmetric matrices), and
optionally actual_sequences.json (ground-truth visiting order).
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .autodiff import make_rng
from .baselines import nearest_neighbor, two_opt
from .errors import DataError, DomainError, NumericError, json_float, json_int
from .hexgrid import GeoPoint, GridSpec, cell_of, format_cell_id, unproject, ProjectedPoint
from .routegraph import Route, Stop

SYNTH_ORIGIN = GeoPoint(33.98, -118.25)
SYNTH_ZONE_RESOLUTION = 9


@contextlib.contextmanager
def data_errors(name):
    """Turn a LookupError, TypeError, AttributeError, ValueError or
    OverflowError (`int` of a JSON `Infinity`) met while interpreting the
    content of `name` (a file, or a part of one) into one DataError whose
    message starts with `name`.  DataError and DomainError are ValueErrors, so
    nested blocks prefix their names; NumericError and OSError pass through
    unchanged."""
    try:
        yield
    except (LookupError, TypeError, AttributeError, ValueError, OverflowError) as exc:
        detail = f"key {exc} not found" if isinstance(exc, KeyError) else exc
        raise DataError(f"{name}: {detail}") from exc


def read_json(path, parse=None):
    """The JSON value in `path`, read as UTF-8 (RFC 8259) whatever the locale,
    passed through `parse` when given; malformed JSON, JSON nested deeper
    than the decoder recurses, or a fault `parse` meets in the content, is
    one DataError naming `path`."""
    with open(path, encoding="utf-8") as fh, data_errors(path):
        try:
            payload = json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"JSON nested too deeply: {exc}") from exc
        return payload if parse is None else parse(payload)


@contextlib.contextmanager
def _atomic_open(path, **open_kwargs):
    """A UTF-8 text file open for writing at a temp path beside `path`,
    renamed over `path` when the block ends, so an interrupted write leaves
    the previous file as it was.  An OSError opening or renaming the temp
    file names `path`."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            # name the file asked for, not the temp file beside it
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def write_json(path, payload, **dumps_kwargs) -> None:
    """Write `payload` as JSON to `path` atomically.  A NaN or infinity in it
    is one NumericError naming `path`, and nothing is written."""
    try:
        # json.dumps runs the C encoder; json.dump would use the pure-Python one
        text = json.dumps(payload, allow_nan=False, **dumps_kwargs)
    except ValueError as exc:
        raise NumericError(f"{path}: cannot write a non-finite number ({exc})") from exc
    with _atomic_open(path) as fh:
        fh.write(text)


def write_csv(path, header, rows) -> None:
    """Write `header` and then `rows` to `path` in the default csv dialect,
    atomically."""
    with _atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def load_routes(dir_path) -> list[Route]:
    """Parse the three-file layout into Route values with a deterministic
    (sorted stop id) index order.  A fault in a route's content is one
    DataError naming the directory and the route id, and so is a directory
    without a route."""
    route_path = os.path.join(dir_path, "route_data.json")
    travel_path = os.path.join(dir_path, "travel_times.json")
    seq_path = os.path.join(dir_path, "actual_sequences.json")
    if not os.path.isfile(route_path) or not os.path.isfile(travel_path):
        raise IOError(f"missing route_data.json or travel_times.json in {dir_path}")
    route_data = read_json(route_path)
    travel_data = read_json(travel_path)
    sequences = read_json(seq_path) if os.path.isfile(seq_path) else None

    routes = []
    with data_errors(dir_path):
        for route_id in sorted(route_data):
            with data_errors(f"route {route_id}"):
                stops, travel, actual_order = _parse_route(route_id, route_data[route_id],
                                                           travel_data, sequences)
            # Route checks its own fields, naming the route
            routes.append(Route(id=route_id, stops=stops, travel=travel,
                                actual_order=actual_order))
        if not routes:
            raise DataError("route_data.json holds no routes")
    return routes


def _parse_route(route_id, entry, travel_data, sequences):
    """(stops, travel matrix, actual order or None) of one route's entries.
    `Route` checks the start stop and the matrix values, and a missing key
    is a DataError through `data_errors`."""
    stops_raw = entry["stops"]
    stop_ids = sorted(stops_raw)
    stops = []
    for sid in stop_ids:
        raw = stops_raw[sid]
        with data_errors(f"stop {sid}"):
            if not isinstance(raw.get("zone_id"), (str, type(None))):
                raise TypeError(f"zone_id must be a string or null, got {raw['zone_id']!r}")
            stops.append(Stop(id=sid, geo=GeoPoint(json_float(raw["lat"], "lat"),
                                                   json_float(raw["lng"], "lng")),
                              zone_label=raw.get("zone_id"),
                              is_start=raw.get("type") == "Station"))
    matrix_raw = travel_data[route_id]
    travel = np.array([[0.0 if a == b else json_float(matrix_raw[a][b], "a travel time")
                        for b in stop_ids] for a in stop_ids])

    actual_order = None
    if sequences is not None and route_id in sequences:
        order_map = sequences[route_id].get("actual", {})
        if sorted(order_map) != stop_ids:
            raise DataError("actual sequence stop set mismatch")
        # Route sees only the order, so a rank of -1 or a repeat is caught here
        ranks = [json_int(order_map[sid], f"the rank of stop {sid}") for sid in stop_ids]
        if sorted(ranks) != list(range(len(ranks))):
            raise DataError("duplicate or gapped sequence order")
        actual_order = sorted(range(len(ranks)), key=ranks.__getitem__)

    return stops, travel, actual_order


def save_routes(routes: list[Route], dir_path) -> None:
    """Write routes back out in the same three-file layout."""
    os.makedirs(dir_path, exist_ok=True)
    route_data, travel_data, sequences = {}, {}, {}
    for route in routes:
        stops = {}
        for stop in route.stops:
            stops[stop.id] = {"lat": stop.geo.lat, "lng": stop.geo.lng,
                              "zone_id": stop.zone_label,
                              "type": "Station" if stop.is_start else "Dropoff"}
        route_data[route.id] = {"station_code": route.stops[route.start_index].id,
                                "stops": stops}
        matrix = {}
        for i, a in enumerate(route.stops):
            matrix[a.id] = {b.id: float(route.travel[i, j])
                            for j, b in enumerate(route.stops) if j != i}
        travel_data[route.id] = matrix
        if route.actual_order is not None:
            sequences[route.id] = {"actual": {route.stops[idx].id: rank
                                              for rank, idx in enumerate(route.actual_order)}}
    write_json(os.path.join(dir_path, "route_data.json"), route_data, sort_keys=True)
    write_json(os.path.join(dir_path, "travel_times.json"), travel_data, sort_keys=True)
    if sequences:
        write_json(os.path.join(dir_path, "actual_sequences.json"), sequences, sort_keys=True)


@dataclass
class SynthConfig:
    n_routes: int = 100
    stops_min: int = 8
    stops_max: int = 12
    n_neighborhoods: int = 6
    metro_radius_m: float = 8000.0
    speed_mps: float = 9.0
    asym: float = 0.2
    noise: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.asym < 1.0 and 0.0 <= self.noise < 1.0):
            raise DomainError("asym and noise must lie in [0, 1)")
        # at 0.1 m/s or faster, every travel time in a metro of 1e6 m stays finite
        if not 0.1 <= self.speed_mps < math.inf:
            raise DomainError(f"speed_mps must be finite and at least 0.1, got {self.speed_mps}")
        if self.n_routes < 1 or self.stops_min < 1 or self.stops_max < self.stops_min:
            raise DomainError("bad synthetic size parameters")
        # up to 1e6 m keeps a stop 6 sigma out within about 15 degrees of the origin
        if not 0.0 < self.metro_radius_m <= 1e6:
            raise DomainError(f"metro_radius_m must lie in (0, 1e6], got {self.metro_radius_m}")
        if self.n_neighborhoods < 1:
            raise DomainError("bad neighborhood parameters")


def generate_synthetic(cfg: SynthConfig) -> list[Route]:
    """Seeded synthetic metro: Gaussian stop clusters around uniform-disk
    neighborhoods, a fixed depot, and controlled travel-time asymmetry.

    The ground-truth order is a strong classical construction
    (2-opt-improved nearest neighbor), standing in for driver trajectories.
    """
    rng = make_rng(cfg.seed)
    spec = GridSpec(origin=SYNTH_ORIGIN)

    angles = rng.uniform(0, 2 * math.pi, cfg.n_neighborhoods)
    radii = cfg.metro_radius_m * np.sqrt(rng.uniform(0, 1, cfg.n_neighborhoods))
    hoods = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    scatter = cfg.metro_radius_m / 20.0

    routes = []
    for ridx in range(cfg.n_routes):
        n_stops = int(rng.integers(cfg.stops_min, cfg.stops_max + 1))
        n_hoods = int(rng.integers(1, min(3, cfg.n_neighborhoods) + 1))
        picked = rng.choice(cfg.n_neighborhoods, size=n_hoods, replace=False)
        points = [np.zeros(2)]  # depot at the metro center
        for _ in range(n_stops):
            hood = hoods[picked[int(rng.integers(n_hoods))]]
            points.append(hood + rng.normal(0.0, scatter, 2))
        points = np.array(points)
        n = len(points)

        dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
        u = rng.uniform(0, 1, (n, n))
        s_upper = rng.uniform(-1, 1, (n, n))
        s = np.triu(s_upper, 1) - np.triu(s_upper, 1).T
        travel = (dist / cfg.speed_mps) * (1 + cfg.noise * u) * (1 + cfg.asym * s)
        np.fill_diagonal(travel, 0.0)

        stops = []
        for i, (x, y) in enumerate(points):
            geo = unproject(ProjectedPoint(float(x), float(y)), spec)
            cell = cell_of(ProjectedPoint(float(x), float(y)), SYNTH_ZONE_RESOLUTION, spec)
            stops.append(Stop(id=f"S{ridx:04d}_{i:03d}", geo=geo,
                              zone_label=format_cell_id(cell), is_start=(i == 0)))

        actual = two_opt(nearest_neighbor(travel, 0), travel)
        routes.append(Route(id=f"R{ridx:04d}", stops=stops, travel=travel,
                            actual_order=actual))
    return routes


def split(routes: list[Route], train_fraction: float, seed: int):
    """Seeded shuffle then disjoint, exhaustive train/test split."""
    if not 0.0 < train_fraction < 1.0:
        raise DomainError(f"train_fraction {train_fraction} out of (0, 1)")
    n_train = int(round(len(routes) * train_fraction))
    if n_train < 1 or n_train >= len(routes):
        raise DomainError("split: a fold would be empty")
    order = list(range(len(routes)))
    make_rng(seed).shuffle(order)
    train = [routes[i] for i in order[:n_train]]
    test = [routes[i] for i in order[n_train:]]
    return train, test
