"""Seeded benchmark inputs: CLI configs, the paper-scale route generator and
the route-id split, all written in the three-file route layout.

Nothing here imports zoneroute: the program under test sees only the files.
The paper generator uses the same metro model as `zoneroute synth` (Gaussian
stop clusters around uniform-disk neighbourhoods, a depot at the centre,
noisy asymmetric travel times), and draws its neighbourhoods exactly as synth
does for the same seed, so generated and synthesised routes share one metro.
Its ground-truth order is nearest neighbour, which costs nothing next to
synth's 2-opt.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

ORIGIN_LAT, ORIGIN_LNG = 33.98, -118.25  # the synth metro's centre
EARTH_RADIUS_M = 6_371_008.8
METRO_RADIUS_M = 8000.0
SPEED_MPS = 9.0
ASYM = 0.2
NOISE = 0.1
ROUTE_FILES = ("route_data.json", "travel_times.json", "actual_sequences.json")


def write_config(path, **values) -> None:
    with open(path, "w") as fh:
        for key, val in values.items():
            fh.write(f"{key} = {val}\n")


def rng_for(seed: int) -> np.random.Generator:
    """The generator zoneroute seeds everything with (Philox)."""
    return np.random.Generator(np.random.Philox(seed))


def neighbourhoods(seed: int, n_hoods: int) -> np.ndarray:
    """Neighbourhood centres in metres, drawn as `zoneroute synth` draws them."""
    rng = rng_for(seed)
    angles = rng.uniform(0, 2 * math.pi, n_hoods)
    radii = METRO_RADIUS_M * np.sqrt(rng.uniform(0, 1, n_hoods))
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


def nearest_neighbour_order(travel: np.ndarray) -> list[int]:
    n = travel.shape[0]
    free = np.ones(n, dtype=bool)
    free[0] = False
    order = [0]
    for _ in range(n - 1):
        row = np.where(free, travel[order[-1]], np.inf)
        nxt = int(row.argmin())
        free[nxt] = False
        order.append(nxt)
    return order


def generate_paper_routes(seed: int, prefix: str, n_routes: int, stops_per_hood: int,
                          n_hoods: int) -> dict:
    """Routes of n_hoods * stops_per_hood stops plus the depot, each visiting
    every neighbourhood, in the three-file layout (as three dicts)."""
    hoods = neighbourhoods(seed, n_hoods)
    rng = rng_for(seed + 0x5EED)  # a stream of its own, apart from synth's
    scatter = METRO_RADIUS_M / 20.0
    lat0 = math.radians(ORIGIN_LAT)
    route_data, travel_data, sequences = {}, {}, {}
    for ridx in range(n_routes):
        route_id = f"{prefix}{ridx:03d}"
        offsets = rng.normal(0.0, scatter, (n_hoods * stops_per_hood, 2))
        points = np.vstack([np.zeros((1, 2)), np.repeat(hoods, stops_per_hood, axis=0) + offsets])
        n = len(points)
        dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
        u = rng.uniform(0, 1, (n, n))
        s = np.triu(rng.uniform(-1, 1, (n, n)), 1)
        travel = (dist / SPEED_MPS) * (1 + NOISE * u) * (1 + ASYM * (s - s.T))
        np.fill_diagonal(travel, 0.0)

        ids = [f"{route_id}_{i:03d}" for i in range(n)]
        stops = {}
        for i, (x, y) in enumerate(points):
            stops[ids[i]] = {
                "lat": ORIGIN_LAT + math.degrees(y / EARTH_RADIUS_M),
                "lng": ORIGIN_LNG + math.degrees(x / (EARTH_RADIUS_M * math.cos(lat0))),
                "zone_id": f"G{int(x // 500)}.{int(y // 500)}",
                "type": "Station" if i == 0 else "Dropoff",
            }
        route_data[route_id] = {"station_code": ids[0], "stops": stops}
        travel_data[route_id] = {a: {b: float(travel[i, j]) for j, b in enumerate(ids) if j != i}
                                 for i, a in enumerate(ids)}
        order = nearest_neighbour_order(travel)
        sequences[route_id] = {"actual": {ids[idx]: rank for rank, idx in enumerate(order)}}
    return {"route_data.json": route_data, "travel_times.json": travel_data,
            "actual_sequences.json": sequences}


def read_route_files(dir_path) -> dict:
    files = {}
    for name in ROUTE_FILES:
        with open(os.path.join(dir_path, name)) as fh:
            files[name] = json.load(fh)
    return files


def write_route_files(dir_path, files: dict) -> None:
    os.makedirs(dir_path, exist_ok=True)
    for name in ROUTE_FILES:
        with open(os.path.join(dir_path, name), "w") as fh:
            json.dump(files[name], fh, sort_keys=True)


def subset(files: dict, route_ids) -> dict:
    return {name: {rid: files[name][rid] for rid in route_ids} for name in ROUTE_FILES}


def merge(*parts: dict) -> dict:
    return {name: {rid: entry for part in parts for rid, entry in part[name].items()}
            for name in ROUTE_FILES}


def split_ids(route_ids, n_held_out: int, seed: int):
    """Seeded split of route ids into (train, held_out), both sorted."""
    ids = sorted(route_ids)
    held = set(rng_for(seed + 0x5917).choice(len(ids), size=n_held_out, replace=False).tolist())
    return ([r for i, r in enumerate(ids) if i not in held],
            [r for i, r in enumerate(ids) if i in held])
