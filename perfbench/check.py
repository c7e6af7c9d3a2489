"""Output checks for the CLI chain, computed from the route files alone.

Each check returns a list of problems; an empty list means the output holds.
`self_test` proves that the checks, and the runner's exit-code check, count
the failures they exist to catch.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

from inputs import read_route_files, write_route_files

REL_TOL = 1e-9


def sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_digest(path) -> str:
    """sha256 of a file, or of every file under a directory with its name."""
    if os.path.isfile(path):
        return sha256(path)
    digest = hashlib.sha256()
    for base, dirs, names in os.walk(path):
        dirs.sort()
        for name in sorted(names):
            full = os.path.join(base, name)
            digest.update(os.path.relpath(full, path).encode() + b"\0" + sha256(full).encode())
    return digest.hexdigest()


def path_length(order, travel: dict) -> float:
    total = 0.0
    for a, b in zip(order[:-1], order[1:]):
        total += float(travel[a][b])
    return total


def actual_order(files: dict, route_id: str) -> list[str]:
    ranks = files["actual_sequences.json"][route_id]["actual"]
    return sorted(ranks, key=ranks.get)


def check_routes(files: dict) -> list[str]:
    """Each route has one Station, a complete travel matrix and a ground-truth
    order that visits every stop once, starting at the Station."""
    problems = []
    for route_id, route in sorted(files["route_data.json"].items()):
        stops = sorted(route["stops"])
        stations = [s for s in stops if route["stops"][s]["type"] == "Station"]
        travel = files["travel_times.json"].get(route_id, {})
        if stations != [route["station_code"]]:
            problems.append(f"route {route_id}: Station is not the one station_code names")
        elif any(sorted(travel.get(a, {})) != [b for b in stops if b != a] for a in stops):
            problems.append(f"route {route_id}: travel matrix is not complete")
        elif route_id not in files["actual_sequences.json"] \
                or sorted(actual_order(files, route_id)) != stops \
                or actual_order(files, route_id)[0] != stations[0]:
            problems.append(f"route {route_id}: ground-truth order is not a tour from the Station")
    return problems


def check_zones(path, k: int) -> list[str]:
    with open(path) as fh:
        zoning = json.load(fh)
    zones = set(zoning["cells"].values())
    if zoning["k"] != k or len(zoning["centroids"]) != k or not zones <= set(range(k)):
        return [f"{path}: not a zoning into {k} zones"]
    return []


def check_tours(path, files: dict):
    """Every route has a tour that is a permutation of its stops, starts at the
    Station and reports the length recomputed from travel_times.json.
    Returns (problems, {route_id: recomputed length})."""
    problems, lengths = [], {}
    try:
        with open(path) as fh:
            tours = json.load(fh)["tours"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path}: unreadable tours file ({exc})"], lengths
    for route_id, route in sorted(files["route_data.json"].items()):
        tour = tours.get(route_id)
        if tour is None:
            problems.append(f"{path}: no tour for route {route_id}")
            continue
        order = tour.get("order", [])
        if sorted(order) != sorted(route["stops"]):
            problems.append(f"{path}: route {route_id} tour is not a permutation of its stops")
            continue
        if order[0] != route["station_code"]:
            problems.append(f"{path}: route {route_id} tour does not start at the Station")
            continue
        length = path_length(order, files["travel_times.json"][route_id])
        if not math.isclose(tour.get("length_s", math.nan), length, rel_tol=REL_TOL):
            problems.append(f"{path}: route {route_id} length_s {tour.get('length_s')} != {length}")
        lengths[route_id] = length
    return problems, lengths


def mape(actual: dict, predicted: dict) -> float:
    return 100.0 * sum(abs(predicted[r] - actual[r]) / actual[r] for r in actual) / len(actual)


def check_report(path, files: dict, predicted: dict):
    """The report's aggregate MAPEs equal those recomputed from the tours.
    `predicted` maps strategy -> {route_id: length}. Returns (problems, mapes)."""
    actual = {r: path_length(actual_order(files, r), files["travel_times.json"][r])
              for r in files["route_data.json"]}
    mapes = {s: mape(actual, lengths) for s, lengths in predicted.items()
             if set(lengths) == set(actual)}
    try:
        with open(path) as fh:
            aggregates = json.load(fh)["aggregates"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{path}: unreadable report ({exc})"], mapes
    problems = []
    for strategy, value in sorted(mapes.items()):
        reported = aggregates.get(strategy, {}).get("mape", math.nan)
        if not math.isclose(reported, value, rel_tol=REL_TOL):
            problems.append(f"{path}: {strategy} MAPE {reported} != recomputed {value}")
    if len(mapes) != len(predicted):
        problems.append(f"{path}: cannot recompute MAPE, a tours file misses routes")
    return problems, mapes


def self_test(work_dir, run_stage) -> list[str]:
    """Returns the cases the checks failed to catch; empty when all are caught.

    `run_stage(argv, log_path)` runs one CLI stage and returns the number of
    failed operations the runner counted for it.
    """
    routes_dir = os.path.join(work_dir, "routes")
    stops = ["A", "B", "C"]
    files = {
        "route_data.json": {"R1": {"station_code": "A", "stops": {
            s: {"lat": 33.98, "lng": -118.25 + 0.001 * i, "zone_id": "z",
                "type": "Station" if s == "A" else "Dropoff"} for i, s in enumerate(stops)}}},
        "travel_times.json": {"R1": {a: {b: 1.0 + i + 2 * j for j, b in enumerate(stops) if b != a}
                                     for i, a in enumerate(stops)}},
        "actual_sequences.json": {"R1": {"actual": {"A": 0, "B": 1, "C": 2}}},
    }
    write_route_files(routes_dir, files)
    files = read_route_files(routes_dir)

    def tours_file(name, order, length):
        path = os.path.join(work_dir, name)
        with open(path, "w") as fh:
            json.dump({"tours": {"R1": {"order": order, "length_s": length}}}, fh)
        return path

    good_len = path_length(["A", "C", "B"], files["travel_times.json"]["R1"])
    good = tours_file("good.json", ["A", "C", "B"], good_len)
    dup = tours_file("dup.json", ["A", "C", "C"], good_len)
    actual = path_length(["A", "B", "C"], files["travel_times.json"]["R1"])
    report = os.path.join(work_dir, "report.json")
    value = 100.0 * abs(good_len - actual) / actual
    with open(report, "w") as fh:
        json.dump({"aggregates": {"general": {"mape": value}, "zoned": {"mape": value * 1.01}}}, fh)

    missed = []
    if check_tours(good, files)[0]:
        missed.append("a valid tours file was reported as failed")
    if not check_tours(dup, files)[0]:
        missed.append("a tours file with a duplicated stop id passed")
    predicted = {"general": {"R1": good_len}, "zoned": {"R1": good_len}}
    problems, _ = check_report(report, files, predicted)
    if len(problems) != 1 or "zoned" not in problems[0]:
        missed.append("a report with an altered aggregate was not caught exactly")
    failed = run_stage(["eval", "--routes", os.path.join(work_dir, "absent"), "--tours-general", good,
                        "--tours-zoned", good, "--zones", os.path.join(work_dir, "absent.json"),
                        "--out", os.path.join(work_dir, "r.json")],
                       os.path.join(work_dir, "failing_stage.log"))
    if failed != 1:
        missed.append("a stage that exits non-zero was counted as a success")
    return missed
