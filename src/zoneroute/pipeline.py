"""Training strategies and inference.

General training fits one policy on whole routes.  Zone-based training fits
an independent policy per zone on the stop subsets falling inside it; at
inference the per-zone sub-tours are stitched: zones are visited in
nearest-stop-centroid order starting from the zone holding the route start,
entering each zone at its stop nearest the current position.
"""

from __future__ import annotations

import hashlib
import mmap
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import parallel
from .autodiff import AdamState, make_rng
from .baselines import nearest_neighbor
from .dataio import read_json, write_csv, write_json
from .errors import DataError, DomainError, json_int
from .hexgrid import GeoPoint, GridSpec
from .model import (DecodeResult, ModelConfig, ModelParams, decode,
                    decode_tape, encode, reinforce_loss, training_draws)
from .routegraph import Route, build_graph, project_stops, tour_length
from .zoning import Zoning, _nearest, load_zoning, save_zoning, stops_by_zone


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 2
    lr: float = 2e-3
    hidden_dim: int = 64
    dropout: float = 0.1
    seed: int = 0
    baseline_decay: float = 0.9
    max_grad_norm: float = 1.0
    samples_per_route: int = 1

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.samples_per_route < 1:
            raise DomainError("epochs, batch_size and samples_per_route must be >= 1")
        if not 0.0 <= self.baseline_decay < 1.0:
            raise DomainError("baseline_decay must lie in [0, 1)")
        if not 0.0 < self.lr < float("inf"):
            raise DomainError(f"lr must be positive and finite, got {self.lr}")
        if not self.max_grad_norm >= 0.0:
            raise DomainError(f"max_grad_norm {self.max_grad_norm} is not >= 0 (0: no clipping)")
        if self.seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {self.seed}")
        self.model_config()  # checks hidden_dim and dropout

    def model_config(self) -> ModelConfig:
        return ModelConfig(hidden_dim=self.hidden_dim, dropout=self.dropout)


def derive_seed(seed: int, token) -> int:
    """Stable 63-bit stream seed for a named sub-task."""
    digest = hashlib.sha256(f"{seed}:{token}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def default_grid_spec(routes: list[Route]) -> GridSpec:
    """Grid anchored at the mean stop location of the given routes."""
    lats = [s.geo.lat for r in routes for s in r.stops]
    lngs = [s.geo.lng for r in routes for s in r.stops]
    return GridSpec(origin=GeoPoint(float(np.mean(lats)), float(np.mean(lngs))))


LOG_COLUMNS = ("epoch", "mean_sampled_len", "greedy_eval_len", "baseline")


def write_log_csv(rows, path) -> None:
    write_csv(path, LOG_COLUMNS, rows)


# ---------------------------------------------------------------------------
# general training

def train_general(routes: list[Route], cfg: TrainConfig, spec: GridSpec,
                  random_starts: frozenset[int] = frozenset(), jobs: int = 1):
    """Minibatch REINFORCE with an EMA baseline and Adam; deterministic per seed.

    The routes at the positions in `random_starts` get a fresh uniformly
    random start node each epoch (used for zone sub-instances, which must be
    start-agnostic).  Routes are told apart by position, never by id, so
    equal ids are harmless.  Each minibatch, and each epoch's greedy eval,
    is split over up to `jobs` processes (as many as `parallel.Team` can
    run, see `_train_batch`); every result has the same bits for any `jobs`.
    Returns (params, log_rows).
    """
    if not routes:
        raise DomainError("train_general: no routes")
    if jobs < 1:
        raise DomainError(f"train_general: jobs must be >= 1, got {jobs}")
    params = ModelParams.init(cfg.model_config(), seed=derive_seed(cfg.seed, "params"))
    rng = make_rng(derive_seed(cfg.seed, "train"))

    n_train = len(routes)
    eval_positions = range(n_train)
    if len(routes) >= 10:
        n_train -= max(1, min(50, len(routes) // 10))
        eval_positions = range(n_train, len(routes))

    graphs = [build_graph(r, spec) for r in routes]
    # workers see each Adam step through the state's shared parameter buffer,
    # and this process sees their gradient rows through the share's
    state = AdamState(params.as_list())
    share = _Share(routes, graphs, params, cfg.samples_per_route, min(cfg.batch_size, n_train))
    baseline = None
    log_rows = []

    with parallel.Team(min(jobs, cfg.batch_size, n_train), share.run) as team:
        for epoch in range(1, cfg.epochs + 1):
            order = np.arange(n_train)
            rng.shuffle(order)
            sampled_lengths = []
            for chunk_start in range(0, len(order), cfg.batch_size):
                batch = [int(i) for i in order[chunk_start:chunk_start + cfg.batch_size]]
                lengths, baseline = _train_batch(batch, share, team, state, baseline,
                                                 cfg, rng, random_starts)
                sampled_lengths.extend(lengths)
            greedy_lengths = [x for part in _in_chunks(team, "greedy_lengths", list(eval_positions))
                              for x in part]
            log_rows.append((epoch, float(np.mean(sampled_lengths)),
                             float(np.mean(greedy_lengths)), baseline))
    return params, log_rows


class _Share:
    """One process's share of general training: the sampled rollouts of some
    routes of a minibatch, their backward, and greedy eval decodes.  This
    process and every worker hold one over the same routes and graphs, over
    parameters whose data they share, and over `rows`, a (`batch_size`, P)
    array of gradient rows in an anonymous shared mapping."""

    def __init__(self, routes, graphs, params: ModelParams, samples: int, batch_size: int):
        self.routes, self.graphs, self.params, self.samples = routes, graphs, params, samples
        size = sum(p.data.size for p in params.as_list())
        self.rows = np.frombuffer(mmap.mmap(-1, 8 * batch_size * size)).reshape(batch_size, size)
        self.rng = make_rng(0)  # each route restores its own snapshot
        self.log_probs, self.lengths = [], []  # one list per route

    def backward(self, items, baseline: float, rollouts: int) -> None:
        """Writes the gradient rows of the routes of the last
        `rollouts(items, ...)` call: the route at batch position b fills row b
        of `rows` with every parameter's gradient, in `ModelParams.names()`
        order, from the backward of its share of the REINFORCE loss of a batch
        of `rollouts` rollouts.  Frees their tapes."""
        plist = self.params.as_list()
        for (b, *_), log_probs, lengths in zip(items, self.log_probs, self.lengths):
            loss = reinforce_loss(log_probs, lengths, baseline, rollouts)
            np.concatenate([g.reshape(-1) for g in ad.backward(loss, plist)], out=self.rows[b])
        for p in plist:
            p.grad = None
        self.log_probs = []

    def rollouts(self, items, baseline, rollouts: int) -> list[float]:
        """Sampled rollouts of (batch position, route position, start, rng
        state) items, each route drawing from a Generator in its state.
        Returns their tour lengths, after their `backward` unless the baseline
        is still None."""
        self.log_probs, self.lengths = [], []
        for _, i, start, rng_state in items:
            self.rng.bit_generator.state = rng_state
            E = encode(self.graphs[i], self.params, training=True, rng=self.rng)
            self.log_probs.append([])
            self.lengths.append([])
            for _ in range(self.samples):
                tour, logp = decode_tape(E, start, self.params, greedy=False, rng=self.rng)
                self.log_probs[-1].append(logp)
                self.lengths[-1].append(tour_length(tour, self.routes[i].travel))
        if baseline is not None:
            self.backward(items, baseline, rollouts)
        return [x for route in self.lengths for x in route]

    def greedy_lengths(self, positions) -> list[float]:
        return [_greedy(self.graphs[i], self.routes[i], self.params).length for i in positions]

    def run(self, request):
        """The answer to (method name, *args): the method's result."""
        op, *args = request
        return getattr(self, op)(*args)


def _in_chunks(team: parallel.Team, op: str, items, *args) -> list:
    """The team's answers, in chunk order, to `(op, chunk, *args)` for `items`
    cut into at most `team.size + 1` contiguous non-empty chunks of sizes
    differing by at most one, the later chunks taking the larger: this
    process runs the first, worker k the (k + 1)-th."""
    parts = max(1, min(team.size + 1, len(items)))
    small, larger = divmod(len(items), parts)
    bounds = np.cumsum([0] + [small] * (parts - larger) + [small + 1] * larger)
    return team.run([(op, items[a:b], *args) for a, b in zip(bounds[:-1], bounds[1:])])


def _train_batch(batch, share: _Share, team: parallel.Team, state, baseline, cfg, rng,
                 random_starts):
    """One minibatch of route positions: sampled rollouts, REINFORCE loss,
    backward and Adam.  Returns (sampled lengths, updated baseline); the
    batch's tape and every gradient, the parameters' included, are freed on
    return.

    For each route in batch order, `rng` draws its random start, if it has
    one, and is then copied and moved past the draws the route's training
    pass takes (`training_draws`); the route runs on a Generator in the copied
    state, wherever it runs.  `_in_chunks` cuts the batch into contiguous
    chunks of routes, the first for this process and the others for the
    workers.  Each process runs its chunk's rollouts and the backward of each
    route's share of the loss, in one request; only the first batch, whose
    baseline is its own mean, asks for the backward in a second request.
    Each route's backward writes one gradient row, which depends on nothing
    but the route, its rng state and the parameters, at the route's batch
    position in `share.rows`, whichever process runs it; only lengths cross
    the pipe.  The rows are added in batch order into `state.grad`, the flat
    gradient Adam steps from, before the next request is sent, so any number
    of processes gives the same bits."""
    routes, config = share.routes, share.params.config
    items = []
    for b, i in enumerate(batch):
        route = routes[i]
        start = int(rng.integers(route.n)) if i in random_starts else route.start_index
        items.append((b, i, start, rng.bit_generator.state))
        rng.random(training_draws(route.n, config, cfg.samples_per_route))
    rollouts = len(items) * cfg.samples_per_route
    lengths = [x for part in _in_chunks(team, "rollouts", items, baseline, rollouts)
               for x in part]
    batch_mean = float(np.mean(lengths))
    if baseline is None:
        baseline = batch_mean
        _in_chunks(team, "backward", items, baseline, rollouts)
    state.grad.fill(0.0)
    for row in share.rows[:len(items)]:
        state.grad += row
    ad.adam_step(state, cfg.lr, max_grad_norm=cfg.max_grad_norm)
    return lengths, cfg.baseline_decay * baseline + (1 - cfg.baseline_decay) * batch_mean


def _greedy(graph, route: Route, params: ModelParams) -> DecodeResult:
    """Greedy decode of `route`, whose graph is `graph`, from its start stop."""
    return decode(encode(graph, params, training=False), route.start_index, route.travel,
                  params, greedy=True)


# ---------------------------------------------------------------------------
# zone sub-instances

@dataclass
class SubInstance:
    route: Route
    full: bool  # covers every stop of the parent route


def _sub_route(route: Route, indices: list[int], zone: int, start: int) -> Route:
    """The stops `indices` of `route` (`start` among them, as the start stop)
    with their travel submatrix; a route's id is kept when nothing is cut."""
    stops = [replace(route.stops[i], is_start=(i == start)) for i in indices]
    sub_id = route.id if len(indices) == route.n else f"{route.id}#z{zone}"
    return Route(id=sub_id, stops=stops, travel=route.travel[np.ix_(indices, indices)].copy())


def extract_zone_subroutes(routes: list[Route], zoning: Zoning) -> dict[int, list[SubInstance]]:
    """Per-zone training sub-instances: for each route and each zone holding
    at least two of its stops, the stop subset with its travel submatrix,
    started at the route's start when the zone holds it, else at its first stop."""
    out: dict[int, list[SubInstance]] = {}
    for route in routes:
        for zone, indices in sorted(stops_by_zone(route, zoning).items()):
            if len(indices) < 2:
                continue
            start = route.start_index if route.start_index in indices else indices[0]
            out.setdefault(zone, []).append(SubInstance(
                route=_sub_route(route, indices, zone, start), full=len(indices) == route.n))
    return out


@dataclass
class ZoneModelSet:
    zoning: Zoning
    models: dict[int, ModelParams] = field(default_factory=dict)
    logs: dict[int, list] = field(default_factory=dict)


def _train_zone_worker(args):
    zone, routes, random_starts, cfg, spec = args
    return (zone, *train_general(routes, cfg, spec, random_starts=random_starts))


def train_zone_models(routes: list[Route], zoning: Zoning, cfg: TrainConfig,
                      jobs: int = 1) -> ZoneModelSet:
    """Independent per-zone training with hashed per-zone seeds.

    Zones are dealt over up to `jobs` processes (as many as `parallel.Team`
    can run), this one included, and taken back in zone order: results are
    identical for any jobs count.
    """
    if jobs < 1:
        raise DomainError(f"train_zone_models: jobs must be >= 1, got {jobs}")
    subroutes = extract_zone_subroutes(routes, zoning)
    if not subroutes:
        raise DomainError("train_zone_models: no zone has a trainable sub-instance")
    tasks, costs = [], []
    for zone in sorted(subroutes):
        subs = subroutes[zone]
        zone_routes = [s.route for s in subs]
        random_starts = frozenset(i for i, s in enumerate(subs) if not s.full)
        zone_cfg = replace(cfg, seed=derive_seed(cfg.seed, zone))
        tasks.append((zone, zone_routes, random_starts, zone_cfg, zoning.spec))
        costs.append(sum(r.n ** 2 for r in zone_routes))
    def serve(positions):
        return [_train_zone_worker(tasks[i]) for i in positions]

    with parallel.Team(min(jobs, len(tasks)), serve) as team:
        # the longest-processing-time rule: costliest zone (by the sum of n²
        # over its sub-routes) first, each to the process with the least so far
        shares, loads = [[] for _ in range(team.size + 1)], [0] * (team.size + 1)
        for i in sorted(range(len(tasks)), key=lambda i: -costs[i]):
            least = loads.index(min(loads))
            shares[least].append(i)
            loads[least] += costs[i]
        results = [r for part in team.run(shares) for r in part]

    zms = ZoneModelSet(zoning=zoning)
    for zone, params, log_rows in sorted(results, key=lambda result: result[0]):
        zms.models[zone] = params
        zms.logs[zone] = log_rows
    return zms


# ---------------------------------------------------------------------------
# inference

def infer_general(route: Route, params: ModelParams, spec: GridSpec) -> DecodeResult:
    return _greedy(build_graph(route, spec), route, params)


def infer_zoned(route: Route, zms: ZoneModelSet) -> DecodeResult:
    """Greedy zone stitching: order zones by nearest stop centroid from the
    current position, enter each at its stop nearest that position (ties, by
    `_nearest`, to the lowest zone id and stop index), and decode each zone's
    sub-instance with its own model.  Each stop is projected once."""
    zoning = zms.zoning
    points = project_stops(route, zoning.spec)
    by_zone = stops_by_zone(route, zoning, points)
    zone_centroids = {z: points[idx].mean(axis=0) for z, idx in by_zone.items()}

    entry = route.start_index
    zone = next(z for z, idx in by_zone.items() if entry in idx)
    order: list[int] = []
    total_log_prob = 0.0
    while by_zone:
        if order:
            position = points[order[-1]][None]
            zones = sorted(by_zone)
            zone = zones[_nearest(position, np.array([zone_centroids[z] for z in zones]))[0]]
            entry = by_zone[zone][_nearest(position, points[by_zone[zone]])[0]]
        indices = by_zone.pop(zone)
        sub = _sub_route(route, indices, zone, entry)
        params = zms.models.get(zone)
        if params is None:
            sub_tour = nearest_neighbor(sub.travel, sub.start_index)
        elif len(indices) == 1:  # a one-stop zone needs no model call
            sub_tour = [0]
        else:
            res = _greedy(build_graph(sub, zoning.spec, points[indices]), sub, params)
            sub_tour = res.tour
            total_log_prob += res.log_prob
        order.extend(indices[i] for i in sub_tour)

    return DecodeResult(tour=order, log_prob=total_log_prob,
                        length=tour_length(order, route.travel))


# ---------------------------------------------------------------------------
# checkpoint directory layout

GENERAL_CKPT = "general.ckpt.json"
GENERAL_LOG = "train_log.csv"
GENERAL_GRID = "grid.json"
ZONES_SUBDIR = "zones"
ZONES_FILE = "zones.json"
ZONES_MANIFEST = "manifest.json"


def save_general(params: ModelParams, log_rows, ckpt_dir, spec: GridSpec) -> None:
    os.makedirs(ckpt_dir, exist_ok=True)
    params.save(os.path.join(ckpt_dir, GENERAL_CKPT))
    write_log_csv(log_rows, os.path.join(ckpt_dir, GENERAL_LOG))
    write_json(os.path.join(ckpt_dir, GENERAL_GRID), spec.to_dict())


def load_general(ckpt_dir):
    """Returns (params, grid_spec) for a general checkpoint directory."""
    path = os.path.join(ckpt_dir, GENERAL_CKPT)
    if not os.path.isfile(path):
        raise DataError(f"no general checkpoint at {path}")
    spec = read_json(os.path.join(ckpt_dir, GENERAL_GRID), GridSpec.from_dict)
    return ModelParams.load(path), spec


def save_zoned(zms: ZoneModelSet, ckpt_dir) -> None:
    """Write the zoning, each zone's checkpoint and log, then the manifest:
    a directory without the manifest holds no zoned checkpoint."""
    zone_dir = os.path.join(ckpt_dir, ZONES_SUBDIR)
    os.makedirs(zone_dir, exist_ok=True)
    save_zoning(zms.zoning, os.path.join(ckpt_dir, ZONES_FILE))
    zones = sorted(zms.models)
    for zone in zones:
        zms.models[zone].save(os.path.join(zone_dir, f"zone_{zone}.ckpt.json"))
        write_log_csv(zms.logs.get(zone, []),
                      os.path.join(zone_dir, f"zone_{zone}.log.csv"))
    write_json(os.path.join(zone_dir, ZONES_MANIFEST), {"zones": zones})


def _listed_zones(payload, k: int) -> list[int]:
    zones = [json_int(z, "a zone id") for z in payload["zones"]]
    if not zones or any(not 0 <= z < k for z in zones):
        raise ValueError(f"'zones' must be a non-empty list of zone ids in [0, {k})")
    return zones


def load_zoned(ckpt_dir) -> ZoneModelSet:
    """The zoning and the models of exactly the zones the manifest lists."""
    zones_path = os.path.join(ckpt_dir, ZONES_FILE)
    zone_dir = os.path.join(ckpt_dir, ZONES_SUBDIR)
    manifest = os.path.join(zone_dir, ZONES_MANIFEST)
    if not os.path.isfile(zones_path) or not os.path.isfile(manifest):
        raise DataError(f"no zoned checkpoint layout in {ckpt_dir}")
    zms = ZoneModelSet(zoning=load_zoning(zones_path))
    for zone in read_json(manifest, lambda payload: _listed_zones(payload, zms.zoning.k)):
        zms.models[zone] = ModelParams.load(os.path.join(zone_dir, f"zone_{zone}.ckpt.json"))
    return zms
