import itertools
import json
import multiprocessing
import os
import shutil
import threading
from dataclasses import replace

import numpy as np
import pytest

from zoneroute import model, parallel, pipeline, routegraph
from zoneroute import zoning as zoning_module
from zoneroute.autodiff import make_rng
from zoneroute.baselines import nearest_neighbor
from zoneroute.dataio import SynthConfig, generate_synthetic
from zoneroute.errors import DataError, DomainError
from zoneroute.hexgrid import GeoPoint, GridSpec, project
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
    # each sub-route's parent indices, recovered from its stop ids
    index_of = {s.id: i for i, s in enumerate(route.stops)}
    parent_indices = [[index_of[s.id] for s in subs[z][0].route.stops] for z in range(3)]
    assert parent_indices == [[0, 1, 2], [3, 4], [5, 6]]
    for zone, inst in ((0, subs[0][0]), (1, subs[1][0]), (2, subs[2][0])):
        sub = inst.route
        idx = parent_indices[zone]
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


def _assert_agree(run, ref):
    """Two (params, log rows) results agree to 1e-8, relative to each
    parameter's and each log column's largest |value|."""
    (params, log), (ref_params, ref_log) = run, ref
    for name in params.names():
        a, b = params[name].data, ref_params[name].data
        assert np.abs(a - b).max() <= 1e-8 * np.abs(b).max(), name
    a, b = np.array(log), np.array(ref_log)
    assert a.shape == b.shape
    assert (np.abs(a - b) <= 1e-8 * np.abs(b).max(axis=0)).all()


def _assert_identical(run, ref):
    (params, log), (ref_params, ref_log) = run, ref
    assert log == ref_log
    for name in params.names():
        assert params[name].data.tobytes() == ref_params[name].data.tobytes(), name


def test_training_is_byte_identical_to_the_tape_composition(monkeypatch):
    # minibatches of two routes with two sampled rollouts each, one route
    # with a random start, dropout on: training with the fused encoder and
    # decoder nodes agrees with the one-node-per-operation tape to rounding,
    # since a decoder weight sums its per-step contributions as one product
    routes = small_routes()
    spec = default_grid_spec(routes)
    cfg = TrainConfig(epochs=2, batch_size=2, samples_per_route=2, hidden_dim=8,
                      dropout=0.2, seed=6)
    random_starts = frozenset({2})
    fused = train_general(routes, cfg, spec, random_starts=random_starts)
    monkeypatch.setattr(pipeline, "encode", tape_reference.encode)
    monkeypatch.setattr(model, "_run_decoder", tape_reference.run_decoder)
    _assert_agree(fused, train_general(routes, cfg, spec, random_starts=random_starts))


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_training_has_the_bits_of_the_tape_composition_for_any_jobs(
        monkeypatch, forked_workers, jobs):
    # minibatches of three routes, cut into chunks of one and two routes
    # over two processes or of one route each over three; two sampled
    # rollouts per route, one route with a random start, dropout on: any
    # process count gives the bits of one process, which agree with the
    # one-node-per-operation tape to rounding
    routes = small_routes()
    spec = default_grid_spec(routes)
    cfg = TrainConfig(epochs=2, batch_size=3, samples_per_route=2, hidden_dim=8,
                      dropout=0.2, seed=6)
    random_starts = frozenset({2})
    with monkeypatch.context() as tape:
        tape.setattr(pipeline, "encode", tape_reference.encode)
        tape.setattr(model, "_run_decoder", tape_reference.run_decoder)
        taped = train_general(routes, cfg, spec, random_starts=random_starts)
    one = train_general(routes, cfg, spec, random_starts=random_starts)
    cpus = parallel.usable_cpus()
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus + cpus)  # 3 processes on 2 CPUs
    fused = train_general(routes, cfg, spec, random_starts=random_starts, jobs=jobs)
    assert forked_workers == [0, 0, jobs - 1]
    _assert_identical(fused, one)
    _assert_agree(fused, taped)
    assert multiprocessing.active_children() == []


def test_a_routes_gradient_row_does_not_depend_on_its_company():
    # the row a route's backward writes into the share's shared rows is the
    # same alone in its chunk and beside the batch's other routes, at any
    # batch position: dropout on, two sampled rollouts per route, one route
    # with a random start
    routes = small_routes()
    cfg = TrainConfig(batch_size=3, samples_per_route=2, hidden_dim=8, dropout=0.2, seed=6)
    params = model.ModelParams.init(cfg.model_config(), seed=5)
    graphs = [routegraph.build_graph(r, default_grid_spec(routes)) for r in routes]
    share = pipeline._Share(routes, graphs, params, cfg.samples_per_route, cfg.batch_size)
    rng = make_rng(9)
    items = []
    for i in (4, 1, 6):
        start = int(rng.integers(routes[i].n)) if i == 1 else routes[i].start_index
        items.append((i, start, rng.bit_generator.state))
        rng.random(model.training_draws(routes[i].n, params.config, cfg.samples_per_route))
    rollouts = len(items) * cfg.samples_per_route
    alone = []
    for item in items:
        share.rollouts([(0, *item)], 40.0, rollouts)
        alone.append(share.rows[0].tobytes())
    for order in itertools.permutations(range(len(items))):
        share.rows.fill(np.nan)
        share.rollouts([(b, *items[k]) for b, k in enumerate(order)], 40.0, rollouts)
        assert [share.rows[order.index(k)].tobytes() for k in range(len(items))] == alone
    assert len(set(alone)) == len(items)


def test_each_minibatch_after_the_first_is_one_exchange_with_a_worker(monkeypatch,
                                                                     forked_workers):
    # the first batch's baseline is its own mean, so its backward waits for
    # every length; each later batch sends its rollouts and backward at once
    sent = []
    run = parallel.Team.run
    monkeypatch.setattr(parallel.Team, "run", lambda team, requests, here:
                        sent.extend(r[0] for r in requests[1:]) or run(team, requests, here))
    routes = small_routes()  # 8 routes: 4 batches of 2 an epoch, all 8 evaluated
    train_general(routes, TrainConfig(epochs=2, hidden_dim=8, seed=2),
                  default_grid_spec(routes), jobs=2)
    assert forked_workers == [1]
    epoch = ["rollouts"] * 4 + ["greedy_lengths"]
    assert sent == epoch[:1] + ["backward"] + epoch[1:] + epoch


def test_a_receive_polls_then_waits_for_the_message_or_the_end_of_the_pipe(monkeypatch):
    monkeypatch.setattr(parallel, "POLL_S", 0.01)
    here, there = multiprocessing.Pipe()
    late = threading.Timer(0.1, there.send, args=("late",))
    late.start()
    assert parallel._receive(here) == "late"  # sent after the polling ended
    late.join()
    there.close()
    with pytest.raises(EOFError):
        parallel._receive(here)


def test_general_training_runs_in_one_process_where_workers_cannot(monkeypatch):
    started = []
    enter = parallel.Team.__enter__
    monkeypatch.setattr(parallel.Team, "__enter__",
                        lambda team: started.append(team.size) or enter(team))
    monkeypatch.setattr(parallel, "single_threaded", lambda: False)
    routes = small_routes(n_routes=4, seed=12)
    train_general(routes, TrainConfig(epochs=1, hidden_dim=8, seed=2),
                  default_grid_spec(routes), jobs=4)
    assert started == [0]
    with pytest.raises(DomainError, match="jobs"):
        train_general(routes, TrainConfig(epochs=1, seed=2), default_grid_spec(routes), jobs=0)


def _leaves(value):
    """The arrays in `value`, a nest of tuples and dicts, depth first."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def test_a_worker_reply_arrives_with_the_dtype_shape_and_bits_sent(forked_workers):
    # Fortran-ordered, reversed, empty, int32 and nested arrays, in a reply
    # many times the size of a pipe's buffer and in a smaller one after it,
    # each arrive with the dtype, shape and bits sent, and keep them after
    # the Team exits
    rng = np.random.default_rng(7)
    replies = [
        {"c": rng.standard_normal((400, 250)),
         "nested": (np.asfortranarray(rng.standard_normal((300, 200))),
                    {"reversed": rng.standard_normal((40, 30))[::-1, ::-1]}),
         "empty": np.empty((0, 4)), "one": np.full((1, 1), 2.5)},
        (np.arange(12, dtype=np.int32).reshape(3, 4), rng.standard_normal((5, 2))[::-1]),
    ]

    def same(sent, got):
        return [(a.dtype, a.shape, a.tobytes()) for a in _leaves(sent)] == \
            [(b.dtype, b.shape, b.tobytes()) for b in _leaves(got)]

    backs = []
    with parallel.Team(2, replies.__getitem__) as team:
        for k, reply in enumerate(replies):
            backs.append(team.run([None, k], lambda _: None)[1])
            assert same(reply, backs[-1])
    assert forked_workers == [1]
    assert all(same(reply, back) for reply, back in zip(replies, backs))


def test_a_worker_result_that_cannot_be_pickled_is_raised_here(forked_workers):
    # a worker whose result cannot be pickled answers with the pickling
    # error, and keeps serving
    with parallel.Team(2, lambda request: request or (lambda: None)) as team:
        with pytest.raises(Exception, match="pickle"):
            team.run([None, None], lambda _: None)
        assert team.run([None, 7], lambda _: None) == [None, 7]
    assert forked_workers == [1]


def test_no_general_training_reply_crosses_the_pipe_holding_an_array(monkeypatch,
                                                                     forked_workers):
    # a worker writes its gradient rows into the share's shared mapping, so
    # its replies hold lengths alone: rows pickled over the pipe would make
    # the worker block on the pipe's buffer
    received = []
    receive = parallel._receive
    monkeypatch.setattr(parallel, "_receive",
                        lambda conn: received.append(receive(conn)) or received[-1])
    routes = small_routes()  # 8 routes: 4 batches of 2 an epoch, all 8 evaluated
    train_general(routes, TrainConfig(epochs=2, hidden_dim=8, seed=2),
                  default_grid_spec(routes), jobs=2)
    assert forked_workers == [1]
    assert len(received) == 1 + 2 * 5  # the first batch's backward, then 5 an epoch
    assert not [leaf for reply in received for leaf in _leaves(reply)
                if isinstance(leaf, np.ndarray)]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's /proc")
def test_a_second_thread_makes_the_process_unfit_to_fork():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert not parallel.single_threaded()
        assert not parallel.supported()
    finally:
        release.set()
        thread.join()


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


def test_train_zone_models_jobs_parity(forked_workers):
    routes = small_routes(n_routes=6, seed=41)
    spec = default_grid_spec(routes)
    zoning = kmeans(collect_cells(routes, 8, spec), 3, seed=1, spec=spec)
    costs = {zone: sum(s.route.n ** 2 for s in subs)
             for zone, subs in extract_zone_subroutes(routes, zoning).items()}
    # zones are dealt costliest first, so not in zone order
    assert sorted(costs, key=costs.get, reverse=True) == [2, 0, 1]
    cfg = TrainConfig(epochs=1, seed=2)
    seq = train_zone_models(routes, zoning, cfg, jobs=1)
    started = len(forked_workers)
    par = train_zone_models(routes, zoning, cfg, jobs=3)
    assert forked_workers[0] == 0
    assert forked_workers[started] == min(3, len(parallel.usable_cpus())) - 1
    assert list(seq.models) == list(par.models) == [0, 1, 2]
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


def test_single_zone_training_runs_without_a_pool(forked_workers):
    routes = small_routes(n_routes=4, seed=12)
    spec = default_grid_spec(routes)
    zoning = kmeans(collect_cells(routes, 7, spec), 1, seed=0, spec=spec)
    zms = train_zone_models(routes, zoning, TrainConfig(epochs=1, seed=2), jobs=4)
    assert list(zms.models) == [0]
    assert forked_workers == [0, 0]  # the zones' Team, then the zone's training


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


def test_infer_zoned_singleton_zone_and_entry_stop(spec, monkeypatch):
    # start sits alone in its zone; the other zone is entered at its nearest stop
    coords = [(33.98, -118.25), (33.98, -118.20), (33.98, -118.199),
              (33.98, -118.198)]
    pts = [project(type(spec.origin)(lat, lng), spec) for lat, lng in coords]
    route = make_route("RSG", coords, symmetric_travel([(p.x, p.y) for p in pts]))
    zoning = line_zoning(spec, [-118.25, -118.199])
    res = infer_zoned(route, ZoneModelSet(zoning=zoning))
    assert res.tour == [0, 1, 2, 3]
    assert res.tour[0] == route.start_index
    # with a model for each zone, only the three-stop zone is encoded: the
    # one-stop zone costs no model call
    params = model.ModelParams.init(model.ModelConfig(hidden_dim=8), seed=3)
    encoded = []
    encode = pipeline.encode
    monkeypatch.setattr(pipeline, "encode",
                        lambda g, *args, **kw: encoded.append(g.n) or encode(g, *args, **kw))
    res = infer_zoned(route, ZoneModelSet(zoning=zoning, models={0: params, 1: params}))
    assert encoded == [3]
    assert res.tour[0] == route.start_index and sorted(res.tour) == [0, 1, 2, 3]


def test_infer_zoned_breaks_stitching_ties_by_lowest_zone_id_then_stop_index():
    # offsets of exactly 1/8 degree from an origin of whole degrees project to
    # coordinates that are exact negatives, so the squared distances tie
    spec = GridSpec(origin=GeoPoint(34.0, -118.0))
    zoning = line_zoning(spec, [-118.125, -118.0, -117.875], lat=34.0)  # west, origin, east

    def stitched(coords):
        pts = [project(GeoPoint(lat, lng), spec) for lat, lng in coords]
        d2 = [(p.x - pts[0].x) ** 2 + (p.y - pts[0].y) ** 2 for p in pts[1:]]
        assert d2[0] == d2[1]
        route = make_route("RT", coords, symmetric_travel([(p.x, p.y) for p in pts]))
        return stops_by_zone(route, zoning), infer_zoned(route, ZoneModelSet(zoning=zoning)).tour

    # the east zone appears first in the route, yet the west zone, of the
    # lower id, is as near to the start and comes first
    by_zone, tour = stitched([(34.0, -118.0), (34.0, -117.875), (34.0, -118.125)])
    assert by_zone == {1: [0], 2: [1], 0: [2]}
    assert tour == [0, 2, 1]
    # both stops of the east zone are as near to the start: the lower index enters
    by_zone, tour = stitched([(34.0, -118.0), (34.125, -117.875), (33.875, -117.875)])
    assert by_zone == {1: [0], 2: [1, 2]}
    assert tour == [0, 1, 2]


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
