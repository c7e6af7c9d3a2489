import concurrent.futures
import json
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest

from zoneroute import model, pipeline, routegraph
from zoneroute import zoning as zoning_module
from zoneroute.baselines import nearest_neighbor
from zoneroute.dataio import SynthConfig, generate_synthetic
from zoneroute.errors import DataError, DomainError
from zoneroute.hexgrid import project
from zoneroute.pipeline import (
    TrainConfig,
    ZoneModelSet,
    default_grid_spec,
    derive_seed,
    extract_zone_subroutes,
    infer_general,
    infer_zoned,
    load_general,
    load_zoned,
    save_general,
    save_zoned,
    train_general,
    train_zone_models,
)
from zoneroute.routegraph import Route, tour_length
from zoneroute.zoning import Zoning, collect_cells, kmeans, stops_by_zone, zone_of_stop

import tape_reference
from conftest import make_route, symmetric_travel


def line_zoning(spec, lng_centers, lat=33.98):
    """Zoning whose zones are nearest-centroid regions around given longitudes."""
    centroids = []
    for lng in lng_centers:
        p = project(type(spec.origin)(lat, lng), spec)
        centroids.append([p.x, p.y])
    return Zoning(spec=spec, resolution=7, k=len(lng_centers), seed=0,
                  centroids=np.array(centroids), cell_to_zone={})


def three_cluster_route(spec):
    """Seven stops in three west-to-east clusters; start is the westmost stop."""
    coords = [(33.98, -118.25), (33.98, -118.249), (33.98, -118.248),   # zone 0
              (33.98, -118.20), (33.98, -118.199),                      # zone 1
              (33.98, -118.15), (33.98, -118.149)]                      # zone 2
    pts = [project(type(spec.origin)(lat, lng), spec) for lat, lng in coords]
    travel = symmetric_travel([(p.x, p.y) for p in pts])
    route = make_route("R3C", coords, travel, start=0)
    zoning = line_zoning(spec, [-118.249, -118.1995, -118.1495])
    assert [zone_of_stop(s, zoning) for s in route.stops] == [0, 0, 0, 1, 1, 2, 2]
    return route, zoning


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "params") == derive_seed(7, "params")
    assert derive_seed(7, "params") != derive_seed(7, "train")
    assert derive_seed(7, 0) != derive_seed(8, 0)
    for token in ("params", "train", 0, 1):
        assert 0 <= derive_seed(3, token) < 2 ** 63


def test_train_config_validation():
    with pytest.raises(DomainError):
        TrainConfig(epochs=0)
    with pytest.raises(DomainError):
        TrainConfig(baseline_decay=1.0)
    for bad in (dict(lr=float("nan")), dict(lr=0.0), dict(lr=float("inf")),
                dict(max_grad_norm=float("nan")), dict(max_grad_norm=-1.0),
                dict(hidden_dim=0), dict(hidden_dim=-5), dict(dropout=1.0)):
        with pytest.raises(DomainError):
            TrainConfig(**bad)
    assert TrainConfig(max_grad_norm=0.0).max_grad_norm == 0.0  # clipping off


def test_extract_zone_subroutes_hand_split(spec):
    route, zoning = three_cluster_route(spec)
    subs = extract_zone_subroutes([route], zoning)
    assert sorted(subs) == [0, 1, 2]
    assert subs[0][0].parent_indices == [0, 1, 2]
    assert subs[1][0].parent_indices == [3, 4]
    assert subs[2][0].parent_indices == [5, 6]
    for zone, inst in ((0, subs[0][0]), (1, subs[1][0]), (2, subs[2][0])):
        sub = inst.route
        idx = inst.parent_indices
        assert not inst.full
        assert sub.id == f"R3C#z{zone}"
        assert np.array_equal(sub.travel, route.travel[np.ix_(idx, idx)])
        assert [s.id for s in sub.stops] == [route.stops[i].id for i in idx]
    # start stop lies in zone 0, so that sub-route keeps it as start
    assert subs[0][0].route.start_index == 0
    # other zones get a nominal start at their first stop
    assert subs[1][0].route.start_index == 0
    assert subs[1][0].route.stops[0].id == "S3"


def test_extract_skips_singleton_zones(spec):
    coords = [(33.98, -118.25), (33.98, -118.249), (33.98, -118.20)]
    pts = [project(type(spec.origin)(lat, lng), spec) for lat, lng in coords]
    route = make_route("RS", coords, symmetric_travel([(p.x, p.y) for p in pts]))
    zoning = line_zoning(spec, [-118.2495, -118.20])
    subs = extract_zone_subroutes([route], zoning)
    assert sorted(subs) == [0]  # the one-stop zone is not trainable


def test_full_route_subinstance_keeps_id(spec):
    coords = [(33.98, -118.25), (33.98, -118.249), (33.98, -118.248)]
    pts = [project(type(spec.origin)(lat, lng), spec) for lat, lng in coords]
    route = make_route("RF", coords, symmetric_travel([(p.x, p.y) for p in pts]))
    zoning = line_zoning(spec, [-118.249, -118.10])
    subs = extract_zone_subroutes([route], zoning)
    inst = subs[0][0]
    assert inst.full
    assert inst.route.id == "RF"
    assert inst.route.start_index == route.start_index


def small_routes(n_routes=8, seed=33):
    return generate_synthetic(SynthConfig(n_routes=n_routes, stops_min=4,
                                          stops_max=6, seed=seed))


def test_train_general_smoke_and_determinism():
    routes = small_routes()
    spec = default_grid_spec(routes)
    cfg = TrainConfig(epochs=2, seed=9)
    params, log = train_general(routes, cfg, spec)
    assert len(log) == 2
    for epoch, sampled, greedy, baseline in log:
        assert np.isfinite([sampled, greedy, baseline]).all()
    params2, log2 = train_general(routes, cfg, spec)
    for name in params.names():
        assert np.array_equal(params[name].data, params2[name].data)
    assert log == log2
    with pytest.raises(DomainError):
        train_general([], cfg, spec)


def test_training_is_byte_identical_to_the_tape_composition(monkeypatch):
    # minibatches of two routes with two sampled rollouts each, one route
    # with a random start, dropout on: the fused encoder and decoder nodes
    # must hand every gradient the bits of the one-node-per-operation tape
    routes = small_routes()
    spec = default_grid_spec(routes)
    cfg = TrainConfig(epochs=2, batch_size=2, samples_per_route=2, hidden_dim=8,
                      dropout=0.2, seed=6)
    random_starts = frozenset({2})
    fused, fused_log = train_general(routes, cfg, spec, random_starts=random_starts)
    monkeypatch.setattr(pipeline, "encode", tape_reference.encode)
    monkeypatch.setattr(model, "_run_decoder", tape_reference.run_decoder)
    taped, taped_log = train_general(routes, cfg, spec, random_starts=random_starts)
    assert fused_log == taped_log
    for name in fused.names():
        assert np.array_equal(fused[name].data, taped[name].data), name


def test_zoned_k1_matches_general_bit_exactly():
    routes = small_routes()
    spec = default_grid_spec(routes)
    cells = collect_cells(routes, 7, spec)
    zoning = kmeans(cells, 1, seed=0, spec=spec)
    cfg = TrainConfig(epochs=2, seed=4)

    zms = train_zone_models(routes, zoning, cfg)
    assert list(zms.models) == [0]
    general_cfg = TrainConfig(epochs=2, seed=derive_seed(4, 0))
    ref, _ = train_general(routes, general_cfg, spec)
    for name in ref.names():
        assert np.array_equal(zms.models[0][name].data, ref[name].data)
    for r in routes[:3]:
        assert infer_zoned(r, zms).tour == infer_general(r, ref, spec).tour


def test_zone_training_is_independent(spec):
    # retraining with extra routes confined to zone 1 must not move zone 0's model
    route, zoning = three_cluster_route(spec)
    extra_coords = [(33.981, -118.20), (33.981, -118.199), (33.979, -118.1995)]
    pts = [project(type(spec.origin)(lat, lng), spec) for lat, lng in extra_coords]
    extra = make_route("REX", extra_coords, symmetric_travel([(p.x, p.y) for p in pts]))
    assert all(zone_of_stop(s, zoning) == 1 for s in extra.stops)

    cfg = TrainConfig(epochs=2, seed=6)
    zms_a = train_zone_models([route], zoning, cfg)
    zms_b = train_zone_models([route, extra], zoning, cfg)
    for name in zms_a.models[0].names():
        assert np.array_equal(zms_a.models[0][name].data, zms_b.models[0][name].data)
        assert np.array_equal(zms_a.models[2][name].data, zms_b.models[2][name].data)
    assert any(not np.array_equal(zms_a.models[1][name].data,
                                  zms_b.models[1][name].data)
               for name in zms_a.models[1].names())


def test_zone_sub_route_ids_cannot_collide_with_route_ids(spec):
    # "R0000#z0" lies wholly in zone 0, so it keeps its id, which is also
    # the id of R0000's cut zone-0 sub-route; training must not mix them up
    def route_at(route_id, coords):
        pts = [project(type(spec.origin)(lat, lng), spec) for lat, lng in coords]
        return make_route(route_id, coords, symmetric_travel([(p.x, p.y) for p in pts]))

    zoning = line_zoning(spec, [-118.249, -118.1995])
    route = route_at("R0000", [(33.98, -118.25), (33.98, -118.249), (33.98, -118.248),
                               (33.98, -118.20), (33.98, -118.199)])
    assert [zone_of_stop(s, zoning) for s in route.stops] == [0, 0, 0, 1, 1]
    twin_coords = [(33.981, -118.25), (33.981, -118.249), (33.979, -118.2485),
                   (33.979, -118.2495)]
    cfg = TrainConfig(epochs=2, hidden_dim=8, seed=6)
    runs = []
    for twin_id in ("R0000#z0", "TWIN"):
        twin = route_at(twin_id, twin_coords)
        assert all(zone_of_stop(s, zoning) == 0 for s in twin.stops)
        runs.append(train_zone_models([route, twin], zoning, cfg))
    colliding, apart = runs
    assert sorted(colliding.models) == sorted(apart.models) == [0, 1]
    for zone in colliding.models:
        for name in colliding.models[zone].names():
            assert np.array_equal(colliding.models[zone][name].data,
                                  apart.models[zone][name].data), (zone, name)


def test_train_zone_models_jobs_parity():
    routes = small_routes(n_routes=6, seed=41)
    spec = default_grid_spec(routes)
    zoning = kmeans(collect_cells(routes, 8, spec), 3, seed=1, spec=spec)
    cfg = TrainConfig(epochs=1, seed=2)
    seq = train_zone_models(routes, zoning, cfg, jobs=1)
    par = train_zone_models(routes, zoning, cfg, jobs=3)
    assert sorted(seq.models) == sorted(par.models)
    for zone in seq.models:
        for name in seq.models[zone].names():
            assert np.array_equal(seq.models[zone][name].data,
                                  par.models[zone][name].data)
        assert seq.logs[zone] == par.logs[zone]


@pytest.mark.parametrize("jobs", [0, -3])
def test_train_zone_models_rejects_jobs_below_one(jobs):
    routes = small_routes(n_routes=4, seed=12)
    spec = default_grid_spec(routes)
    zoning = kmeans(collect_cells(routes, 7, spec), 1, seed=0, spec=spec)
    with pytest.raises(DomainError, match="jobs"):
        train_zone_models(routes, zoning, TrainConfig(epochs=1, seed=2), jobs=jobs)


def test_single_zone_training_runs_without_a_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    routes = small_routes(n_routes=4, seed=12)
    spec = default_grid_spec(routes)
    zoning = kmeans(collect_cells(routes, 7, spec), 1, seed=0, spec=spec)
    zms = train_zone_models(routes, zoning, TrainConfig(epochs=1, seed=2), jobs=4)
    assert list(zms.models) == [0]


def test_infer_zoned_decodes_each_zone_like_infer_general():
    routes = small_routes(n_routes=6, seed=41)
    spec = default_grid_spec(routes)
    zoning = kmeans(collect_cells(routes, 8, spec), 3, seed=1, spec=spec)
    zms = train_zone_models(routes, zoning, TrainConfig(epochs=1, seed=2))
    decoded = 0
    for route in routes:
        res = infer_zoned(route, zms)
        log_prob, pos = 0.0, 0
        by_zone = stops_by_zone(route, zoning)
        while pos < route.n:
            # the zone segment that starts at the entry stop tour[pos]
            zone = next(z for z, idx in by_zone.items() if res.tour[pos] in idx)
            idx = by_zone[zone]
            segment = res.tour[pos:pos + len(idx)]
            assert sorted(segment) == idx
            if len(idx) > 1 and zone in zms.models:
                sub = Route(id="sub", travel=route.travel[np.ix_(idx, idx)],
                            stops=[replace(route.stops[i], is_start=(i == segment[0]))
                                   for i in idx])
                alone = infer_general(sub, zms.models[zone], spec)
                assert [idx[i] for i in alone.tour] == segment
                log_prob += alone.log_prob
                decoded += 1
            pos += len(idx)
        assert res.log_prob == pytest.approx(log_prob, rel=1e-12, abs=1e-12)
    assert decoded >= len(routes)


def test_infer_zoned_projects_each_stop_once(monkeypatch):
    # the stops' projections serve the zone lookup and every zone's graph
    routes = small_routes(n_routes=6, seed=41)
    spec = default_grid_spec(routes)
    zoning = kmeans(collect_cells(routes, 8, spec), 3, seed=1, spec=spec)
    zms = train_zone_models(routes, zoning, TrainConfig(epochs=1, seed=2))
    calls = []

    def counted(p, grid):
        calls.append(p)
        return project(p, grid)

    for module in (routegraph, zoning_module):
        monkeypatch.setattr(module, "project", counted)
    for route in routes:
        calls.clear()
        infer_zoned(route, zms)
        assert len(calls) == route.n


def test_infer_zoned_stitches_zones_in_nearest_order(spec):
    route, zoning = three_cluster_route(spec)
    zms = ZoneModelSet(zoning=zoning)  # no models: nearest-neighbor fallback
    res = infer_zoned(route, zms)
    # zone 0 first (holds the start), then zone 1 (nearer), then zone 2;
    # within each zone the stops run west to east under NN from the entry stop
    assert res.tour == [0, 1, 2, 3, 4, 5, 6]
    assert res.length == pytest.approx(tour_length(res.tour, route.travel))
    assert res.log_prob == 0.0


def test_infer_zoned_singleton_zone_and_entry_stop(spec):
    # start sits alone in its zone; the other zone is entered at its nearest stop
    coords = [(33.98, -118.25), (33.98, -118.20), (33.98, -118.199),
              (33.98, -118.198)]
    pts = [project(type(spec.origin)(lat, lng), spec) for lat, lng in coords]
    route = make_route("RSG", coords, symmetric_travel([(p.x, p.y) for p in pts]))
    zoning = line_zoning(spec, [-118.25, -118.199])
    res = infer_zoned(route, ZoneModelSet(zoning=zoning))
    assert res.tour == [0, 1, 2, 3]
    assert res.tour[0] == route.start_index


def test_infer_zoned_nn_fallback_matches_oracle(spec):
    route, zoning = three_cluster_route(spec)
    res = infer_zoned(route, ZoneModelSet(zoning=zoning))
    sub = route.travel[np.ix_([0, 1, 2], [0, 1, 2])]
    assert res.tour[:3] == [[0, 1, 2][i] for i in nearest_neighbor(sub, 0)]


def test_general_checkpoint_roundtrip(tmp_path):
    routes = small_routes(n_routes=4, seed=55)
    spec = default_grid_spec(routes)
    cfg = TrainConfig(epochs=1, seed=3)
    params, log = train_general(routes, cfg, spec)
    save_general(params, log, str(tmp_path), spec)
    back, back_spec = load_general(str(tmp_path))
    for name in params.names():
        assert np.array_equal(params[name].data, back[name].data)
    assert back_spec.origin == spec.origin
    for r in routes:
        assert infer_general(r, back, back_spec).tour == infer_general(r, params, spec).tour
    with pytest.raises(DataError):
        load_general(str(tmp_path / "missing"))


def test_zoned_checkpoint_roundtrip(tmp_path):
    routes = small_routes(n_routes=6, seed=77)
    spec = default_grid_spec(routes)
    zoning = kmeans(collect_cells(routes, 8, spec), 2, seed=0, spec=spec)
    zms = train_zone_models(routes, zoning, TrainConfig(epochs=1, seed=1))
    save_zoned(zms, str(tmp_path))
    back = load_zoned(str(tmp_path))
    assert sorted(back.models) == sorted(zms.models)
    for zone in zms.models:
        for name in zms.models[zone].names():
            assert np.array_equal(zms.models[zone][name].data,
                                  back.models[zone][name].data)
    for r in routes:
        assert infer_zoned(r, back).tour == infer_zoned(r, zms).tour
    with pytest.raises(DataError):
        load_zoned(str(tmp_path / "missing"))


def test_zoned_checkpoint_loads_the_manifest_zones(tmp_path):
    routes = small_routes(n_routes=6, seed=77)
    spec = default_grid_spec(routes)
    zoning = kmeans(collect_cells(routes, 8, spec), 2, seed=0, spec=spec)
    zms = train_zone_models(routes, zoning, TrainConfig(epochs=1, seed=1))
    save_zoned(zms, str(tmp_path))
    zone_dir = tmp_path / "zones"
    with open(zone_dir / "manifest.json") as fh:
        assert json.load(fh) == {"zones": sorted(zms.models)}
    # a stray file in zones/ is not a zone
    shutil.copy(zone_dir / "zone_0.ckpt.json", zone_dir / "zone_x.ckpt.json")
    assert sorted(load_zoned(str(tmp_path)).models) == sorted(zms.models)
    # without the manifest the directory holds no zoned checkpoint
    os.remove(zone_dir / "manifest.json")
    with pytest.raises(DataError, match="no zoned checkpoint"):
        load_zoned(str(tmp_path))
