"""Delivery routes and their complete-digraph representation.

Each route becomes a dense graph: 19 geometric node features (3 normalized
distance scalars + 16 positional-encoding dims), a hashed zone-label index
per node, and travel times normalized into [0, 1] as directed edge weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DomainError
from .hexgrid import GeoPoint, GridSpec, project

ZONE_LABEL_BUCKETS = 1024
N_FEATURES = 19


@dataclass(frozen=True)
class Stop:
    id: str
    geo: GeoPoint
    zone_label: str | None = None
    is_start: bool = False


@dataclass
class Route:
    id: str
    stops: list[Stop]
    travel: np.ndarray  # seconds, n x n
    actual_order: list[int] | None = None

    def __post_init__(self):
        n = len(self.stops)
        if n < 1:
            raise DomainError(f"route {self.id}: no stops")
        ids = {s.id for s in self.stops}
        if len(ids) != n:
            raise DataError(f"route {self.id}: duplicate stop ids")
        starts = [i for i, s in enumerate(self.stops) if s.is_start]
        if len(starts) != 1:
            raise DataError(f"route {self.id}: expected exactly one start stop, got {len(starts)}")
        self.travel = np.asarray(self.travel, dtype=np.float64)
        if self.travel.shape != (n, n):
            raise DataError(f"route {self.id}: travel matrix shape {self.travel.shape} != ({n}, {n})")
        if not np.all(np.isfinite(self.travel)):
            raise DataError(f"route {self.id}: non-finite travel time")
        if np.any(self.travel < 0) or np.any(np.diag(self.travel) != 0):
            raise DataError(f"route {self.id}: travel times must be non-negative with zero diagonal")
        if self.actual_order is not None:
            if sorted(self.actual_order) != list(range(n)):
                raise DataError(f"route {self.id}: actual_order is not a permutation")
            if self.actual_order[0] != starts[0]:
                raise DataError(f"route {self.id}: actual_order does not begin at the start stop")

    @property
    def n(self) -> int:
        return len(self.stops)

    @property
    def start_index(self) -> int:
        return next(i for i, s in enumerate(self.stops) if s.is_start)


@dataclass
class RouteGraph:
    n: int
    features: np.ndarray        # n x 19
    zone_label_idx: np.ndarray  # n ints in [0, ZONE_LABEL_BUCKETS)
    edge_w: np.ndarray          # n x n in [0, 1]


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1


def hash_zone_label(label: str | None) -> int:
    """Stable FNV-1a 64-bit hash of the label string, folded into buckets."""
    if label is None:
        return 0
    h = _FNV_OFFSET
    for b in label.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & _U64
    return h % ZONE_LABEL_BUCKETS


def project_stops(route: Route, spec: GridSpec) -> np.ndarray:
    """n x 2 array of projected stop coordinates in meters."""
    pts = [project(s.geo, spec) for s in route.stops]
    return np.array([[p.x, p.y] for p in pts], dtype=np.float64)


def positional_encoding(points: np.ndarray) -> np.ndarray:
    """16-dim sin/cos encoding of bounding-box-normalized coordinates."""
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = hi - lo
    norm = np.zeros_like(points)
    for axis in range(2):
        if span[axis] > 0:
            norm[:, axis] = (points[:, axis] - lo[axis]) / span[axis]
    pe = np.empty((points.shape[0], 16))
    for k in range(4):
        freq = (2.0 ** k) * math.pi
        pe[:, 4 * k + 0] = np.sin(freq * norm[:, 0])
        pe[:, 4 * k + 1] = np.cos(freq * norm[:, 0])
        pe[:, 4 * k + 2] = np.sin(freq * norm[:, 1])
        pe[:, 4 * k + 3] = np.cos(freq * norm[:, 1])
    return pe


def build_graph(route: Route, spec: GridSpec, points: np.ndarray | None = None) -> RouteGraph:
    """The route's graph; `points` are its stops' projections
    (`project_stops`) when the caller already has them."""
    n = route.n
    pts = project_stops(route, spec) if points is None else points

    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    d_max = dist.max()
    scale = d_max if d_max > 0 else 1.0

    # a lone stop's nearest other stop is taken to be at distance 0
    off_diag = dist + np.diag(np.full(n, np.inf))
    f1 = off_diag.min(axis=1) / scale if n > 1 else np.zeros(1)
    f2 = dist.max(axis=1) / scale
    center = pts.mean(axis=0)
    f3 = np.sqrt(((pts - center) ** 2).sum(axis=1)) / scale

    features = np.column_stack([f1, f2, f3, positional_encoding(pts)])

    zone_idx = np.array([hash_zone_label(s.zone_label) for s in route.stops], dtype=np.int64)

    t_max = route.travel.max()
    edge_w = route.travel / t_max if t_max > 0 else np.zeros_like(route.travel)

    return RouteGraph(n=n, features=features, zone_label_idx=zone_idx, edge_w=edge_w)


def tour_length(order, travel: np.ndarray, closed: bool = False) -> float:
    """Total travel time of a stop ordering; open path unless closed=True."""
    travel = np.asarray(travel, dtype=np.float64)
    n = travel.shape[0]
    if sorted(order) != list(range(n)):
        raise DomainError("order is not a permutation of the stop indices")
    total = 0.0
    for a, b in zip(order[:-1], order[1:]):
        total += travel[a, b]
    if closed and n > 1:
        total += travel[order[-1], order[0]]
    return float(total)
