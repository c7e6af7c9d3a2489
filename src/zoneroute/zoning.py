"""Spatial zones: k-means over the hex cells that contain training stops.

Cells at a fixed resolution are collected from training routes and clustered
with seeded k-means++ / Lloyd iterations on their projected centroids.  Any
stop maps to a zone: by cell lookup when its cell was seen in training,
otherwise by nearest centroid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import make_rng
from .dataio import read_json, write_json
from .errors import DomainError, json_float, json_int
from .hexgrid import (_COORD_LIMIT, EARTH_RADIUS_M, GridSpec, HexCellId, ProjectedPoint,
                      cell_of, centroid, format_cell_id, parse_cell_id, project)
from .routegraph import Route, Stop

KMEANS_MAX_ITER = 300


@dataclass
class Zoning:
    spec: GridSpec
    resolution: int
    k: int
    seed: int
    centroids: np.ndarray              # k x 2 projected meters
    cell_to_zone: dict[HexCellId, int]

    def __post_init__(self):
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.k < 1 or self.centroids.shape != (self.k, 2):
            raise DomainError(f"zoning: expected {self.k} x 2 centroids, got {self.centroids.shape}")
        if not np.all(np.isfinite(self.centroids)):
            raise DomainError("zoning: non-finite centroid")
        if any(not 0 <= zone < self.k for zone in self.cell_to_zone.values()):
            raise DomainError(f"zoning: a cell's zone id lies outside [0, {self.k})")
        if any(cell.resolution != self.resolution for cell in self.cell_to_zone):
            raise DomainError(f"zoning: a cell's resolution differs from resolution "
                              f"{self.resolution}")
        # `cell_of` divides projected metres, at most 2 pi R from the origin,
        # by the edge, and its |q| and |r| stay below 3/4 of that quotient
        # plus one; below `_COORD_LIMIT`, every stop has an addressable cell
        edge = self.spec.edge_m(self.resolution)
        if not (0.0 < edge < math.inf and 2 * math.pi * EARTH_RADIUS_M / edge < _COORD_LIMIT):
            raise DomainError(f"zoning: a cell edge of {edge} m at resolution "
                              f"{self.resolution} cannot address the grid's cells")


def collect_cells(routes: list[Route], resolution: int, spec: GridSpec) -> set[HexCellId]:
    """All grid cells containing at least one stop of any training route."""
    if not routes:
        raise DomainError("collect_cells: no routes")
    cells = set()
    for route in routes:
        for stop in route.stops:
            cells.add(cell_of(project(stop.geo, spec), resolution, spec))
    return cells


def _nearest(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid per point; ties go to the lowest index."""
    d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            idx = int(rng.choice(n, p=probs))
        else:
            idx = int(rng.integers(n))
        chosen.append(idx)
        d2 = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=1))
    return points[chosen].copy()


def kmeans(cells: set[HexCellId], k: int, seed: int, spec: GridSpec,
           resolution: int | None = None) -> Zoning:
    """Lloyd's algorithm on cell centroids, deterministic per (cells, k, seed)."""
    if not cells:
        raise DomainError("kmeans: empty cell set")
    if k < 1 or k > len(cells):
        raise DomainError(f"kmeans: k={k} out of [1, {len(cells)}]")
    # sort for a deterministic point order regardless of set iteration order
    cell_list = sorted(cells, key=lambda c: (c.resolution, c.q, c.r))
    if resolution is None:
        resolution = cell_list[0].resolution
    points = np.array([[p.x, p.y] for p in (centroid(c, spec) for c in cell_list)])

    rng = make_rng(seed)
    centers = _kmeanspp_init(points, k, rng)
    assign = _nearest(points, centers)
    for _ in range(KMEANS_MAX_ITER):
        for z in range(k):
            members = points[assign == z]
            if len(members) == 0:
                # reseed the empty cluster with the point farthest from its centroid
                dist = np.sqrt(((points - centers[assign]) ** 2).sum(axis=1))
                far = int(dist.argmax())
                centers[z] = points[far]
                assign[far] = z
            else:
                centers[z] = members.mean(axis=0)
        new_assign = _nearest(points, centers)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign

    cell_to_zone = {c: int(z) for c, z in zip(cell_list, assign)}
    return Zoning(spec=spec, resolution=resolution, k=k, seed=seed,
                  centroids=centers, cell_to_zone=cell_to_zone)


def zone_of_stop(s: Stop, z: Zoning, p: ProjectedPoint | None = None) -> int:
    """Zone of a stop: cell lookup, falling back to nearest centroid.  `p`
    is the stop's projection when the caller already has it."""
    if p is None:
        p = project(s.geo, z.spec)
    cell = cell_of(p, z.resolution, z.spec)
    if cell in z.cell_to_zone:
        return z.cell_to_zone[cell]
    return int(_nearest(np.array([[p.x, p.y]]), z.centroids)[0])


def stops_by_zone(route: Route, z: Zoning,
                  points: np.ndarray | None = None) -> dict[int, list[int]]:
    """Stop indices of `route` grouped by zone, in order of first appearance.
    `points` are the stops' projections (`project_stops`) when the caller
    already has them."""
    by_zone: dict[int, list[int]] = {}
    for i, stop in enumerate(route.stops):
        p = None if points is None else ProjectedPoint(float(points[i, 0]), float(points[i, 1]))
        by_zone.setdefault(zone_of_stop(stop, z, p), []).append(i)
    return by_zone


def clusters_visited(route: Route, z: Zoning) -> int:
    return len(stops_by_zone(route, z))


# ---------------------------------------------------------------------------
# zones file

def save_zoning(z: Zoning, path) -> None:
    write_json(path, {
        "grid": z.spec.to_dict(),
        "resolution": z.resolution,
        "k": z.k,
        "seed": z.seed,
        "centroids": [[float(x), float(y)] for x, y in z.centroids],
        "cells": {format_cell_id(c): zone
                  for c, zone in sorted(z.cell_to_zone.items(),
                                        key=lambda kv: (kv[0].q, kv[0].r))},
    })


def load_zoning(path) -> Zoning:
    return read_json(path, lambda payload: Zoning(
        spec=GridSpec.from_dict(payload["grid"]), k=json_int(payload["k"], "k"),
        resolution=json_int(payload["resolution"], "resolution"),
        seed=json_int(payload["seed"], "seed"),
        centroids=[[json_float(x, "a centroid coordinate") for x in centroid]
                   for centroid in payload["centroids"]],
        cell_to_zone={parse_cell_id(cid): json_int(zone, f"the zone of cell {cid}")
                      for cid, zone in payload["cells"].items()}))
