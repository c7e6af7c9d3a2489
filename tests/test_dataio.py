import csv
import io
import json
import os

import numpy as np
import pytest

from zoneroute.dataio import (
    SynthConfig,
    generate_synthetic,
    load_routes,
    read_json,
    save_routes,
    split,
    write_csv,
    write_json,
)
from zoneroute.errors import DataError, DomainError, NumericError
from zoneroute.routegraph import tour_length


def write_fixture(dir_path, route_data, travel, sequences=None):
    os.makedirs(dir_path, exist_ok=True)
    with open(os.path.join(dir_path, "route_data.json"), "w") as fh:
        json.dump(route_data, fh)
    with open(os.path.join(dir_path, "travel_times.json"), "w") as fh:
        json.dump(travel, fh)
    if sequences is not None:
        with open(os.path.join(dir_path, "actual_sequences.json"), "w") as fh:
            json.dump(sequences, fh)


def two_route_fixture(tmp_path):
    d = str(tmp_path / "data")
    route_data = {
        "RouteB": {"stops": {
            "S1": {"lat": 34.0, "lng": -118.0, "type": "Dropoff", "zone_id": "B-2"},
            "S0": {"lat": 34.01, "lng": -118.01, "type": "Station"},
        }},
        "RouteA": {"stops": {
            "A": {"lat": 33.9, "lng": -118.1, "type": "Station"},
            "B": {"lat": 33.91, "lng": -118.11, "type": "Dropoff", "zone_id": "A-1"},
            "C": {"lat": 33.92, "lng": -118.12, "type": "Dropoff", "zone_id": "A-2"},
        }},
    }
    travel = {
        "RouteB": {"S0": {"S0": 0.0, "S1": 10.0}, "S1": {"S0": 12.0, "S1": 0.0}},
        "RouteA": {"A": {"A": 0.0, "B": 5.0, "C": 7.0},
                   "B": {"A": 6.0, "B": 0.0, "C": 2.0},
                   "C": {"A": 8.0, "B": 3.0, "C": 0.0}},
    }
    sequences = {"RouteA": {"actual": {"A": 0, "C": 1, "B": 2}},
                 "RouteB": {"actual": {"S0": 0, "S1": 1}}}
    write_fixture(d, route_data, travel, sequences)
    return d


def test_load_two_route_fixture(tmp_path):
    routes = load_routes(two_route_fixture(tmp_path))
    assert [r.id for r in routes] == ["RouteA", "RouteB"]  # sorted
    ra = routes[0]
    assert [s.id for s in ra.stops] == ["A", "B", "C"]  # sorted stop ids
    assert ra.start_index == 0
    assert np.array_equal(ra.travel, [[0, 5, 7], [6, 0, 2], [8, 3, 0]])
    assert ra.actual_order == [0, 2, 1]
    assert ra.stops[1].zone_label == "A-1"
    rb = routes[1]
    assert [s.id for s in rb.stops] == ["S0", "S1"]
    assert rb.travel[0, 1] == 10.0 and rb.travel[1, 0] == 12.0


def test_load_missing_files_raises_ioerror(tmp_path):
    with pytest.raises(IOError):
        load_routes(str(tmp_path / "nope"))


def test_load_requires_exactly_one_station(tmp_path):
    d = str(tmp_path / "bad")
    write_fixture(d, {"R": {"stops": {
        "A": {"lat": 34.0, "lng": -118.0, "type": "Dropoff"},
        "B": {"lat": 34.0, "lng": -118.0, "type": "Dropoff"}}}},
        {"R": {"A": {"A": 0, "B": 1}, "B": {"A": 1, "B": 0}}})
    with pytest.raises(DataError):
        load_routes(d)


def test_load_rejects_incomplete_matrix(tmp_path):
    d = str(tmp_path / "bad2")
    write_fixture(d, {"R": {"stops": {
        "A": {"lat": 34.0, "lng": -118.0, "type": "Station"},
        "B": {"lat": 34.0, "lng": -118.0, "type": "Dropoff"}}}},
        {"R": {"A": {"A": 0, "B": 1}}})
    with pytest.raises(DataError):
        load_routes(d)


def test_load_rejects_bad_coordinates(tmp_path):
    d = str(tmp_path / "bad3")
    write_fixture(d, {"R": {"stops": {
        "A": {"lat": 134.0, "lng": -118.0, "type": "Station"},
        "B": {"lat": 34.0, "lng": -118.0, "type": "Dropoff"}}}},
        {"R": {"A": {"A": 0, "B": 1}, "B": {"A": 1, "B": 0}}})
    with pytest.raises(DataError):
        load_routes(d)


def test_save_load_roundtrip(tmp_path):
    routes = generate_synthetic(SynthConfig(n_routes=5, stops_min=4, stops_max=7, seed=1))
    d = str(tmp_path / "out")
    save_routes(routes, d)
    back = load_routes(d)
    assert [r.id for r in back] == [r.id for r in routes]
    for a, b in zip(routes, back):
        assert np.allclose(a.travel, b.travel)
        assert a.actual_order == b.actual_order
        assert [s.id for s in a.stops] == [s.id for s in b.stops]
        assert [s.zone_label for s in a.stops] == [s.zone_label for s in b.stops]
        assert a.start_index == b.start_index


def test_generate_synthetic_basic_properties():
    cfg = SynthConfig(n_routes=20, stops_min=5, stops_max=9, seed=3)
    routes = generate_synthetic(cfg)
    assert len(routes) == 20
    for r in routes:
        assert 5 + 1 <= r.n <= 9 + 1  # deliveries plus the depot
        assert np.all(np.diag(r.travel) == 0.0)
        off = r.travel[~np.eye(r.n, dtype=bool)]
        assert np.all(off > 0.0) and np.all(np.isfinite(off))
        assert sorted(r.actual_order) == list(range(r.n))
        assert r.actual_order[0] == r.start_index
        assert all(s.zone_label for s in r.stops if not s.is_start)


def test_generate_synthetic_deterministic():
    cfg = SynthConfig(n_routes=6, stops_min=4, stops_max=6, seed=11)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    for ra, rb in zip(a, b):
        assert ra.id == rb.id and np.array_equal(ra.travel, rb.travel)
        assert [s.geo for s in ra.stops] == [s.geo for s in rb.stops]


def test_asymmetry_grows_with_parameter():
    means = []
    for asym in (0.0, 0.1, 0.3):
        routes = generate_synthetic(SynthConfig(
            n_routes=100, stops_min=5, stops_max=8, seed=17, asym=asym, noise=0.0))
        vals = []
        for r in routes:
            t = r.travel
            mask = ~np.eye(r.n, dtype=bool)
            num = np.abs(t - t.T)[mask]
            den = (t + t.T)[mask]
            vals.append(float((num / den).mean()))
        means.append(np.mean(vals))
    assert means[0] < means[1] < means[2]
    assert means[0] == pytest.approx(0.0, abs=1e-12)


def test_actual_order_is_two_opt_of_nn():
    # ground truth is a sensible heuristic tour, never worse than raw NN
    from zoneroute.baselines import nearest_neighbor
    routes = generate_synthetic(SynthConfig(n_routes=10, stops_min=5, stops_max=8, seed=23))
    for r in routes:
        nn = nearest_neighbor(r.travel, r.start_index)
        assert tour_length(r.actual_order, r.travel) <= tour_length(nn, r.travel) + 1e-9


def test_split_disjoint_and_deterministic():
    routes = generate_synthetic(SynthConfig(n_routes=30, stops_min=4, stops_max=5, seed=29))
    train, test = split(routes, 0.7, seed=5)
    assert len(train) == 21 and len(test) == 9
    assert {r.id for r in train}.isdisjoint({r.id for r in test})
    train2, test2 = split(routes, 0.7, seed=5)
    assert [r.id for r in train2] == [r.id for r in train]
    with pytest.raises(DomainError):
        split(routes, 1.5, seed=0)


def test_write_json_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "f.json"
    write_json(path, {"a": 1})
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        write_json(path, {"a": 2})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["f.json"]


def test_write_csv_is_atomic(tmp_path, monkeypatch):
    path = tmp_path / "f.csv"
    rows = [(1, 2.5, "a,b"), (2, -0.0, None)]
    write_csv(path, ("n", "x", "s"), rows)
    before = path.read_bytes()
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(("n", "x", "s"))
    writer.writerows(rows)
    assert before == expected.getvalue().encode()

    def failing_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        write_csv(path, ("n",), [(3,)])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["f.csv"]


def test_write_json_bytes_match_json_dumps(tmp_path):
    payload = {"b": [1.5, -0.0, 1e-300], "a": {"z": None, "y": "s"}}
    for kwargs in ({}, {"sort_keys": True}, {"indent": 1}):
        write_json(tmp_path / "f.json", payload, **kwargs)
        assert (tmp_path / "f.json").read_text() == json.dumps(payload, **kwargs)
        assert read_json(tmp_path / "f.json") == payload


def test_read_json_maps_content_faults_to_one_data_error(tmp_path):
    path = tmp_path / "p.json"
    write_json(path, {"a": [1]})

    def numeric(payload):
        raise NumericError("overflow")

    for parse in (lambda p: p["b"], lambda p: p["a"][3], lambda p: int("x"),
                  lambda p: p.get_x, lambda p: p + 1, lambda p: int(float("inf"))):
        with pytest.raises(DataError) as info:
            read_json(path, parse)
        assert str(info.value).startswith(f"{path}: ")
    with pytest.raises(NumericError):
        read_json(path, numeric)
    with pytest.raises(FileNotFoundError):
        read_json(tmp_path / "absent.json")
    path.write_text('{"a": ')
    with pytest.raises(DataError) as info:
        read_json(path)
    assert str(path) in str(info.value)
