import numpy as np
import pytest

from conftest import make_route, symmetric_travel
from zoneroute import zoning
from zoneroute.errors import DomainError
from zoneroute.hexgrid import (GeoPoint, GridSpec, HexCellId, cell_of, centroid, project,
                               unproject)
from zoneroute.routegraph import Stop
from zoneroute.zoning import (
    Zoning,
    clusters_visited,
    collect_cells,
    kmeans,
    load_zoning,
    save_zoning,
    zone_of_stop,
)

ORIGIN = GeoPoint(33.98, -118.25)


def zone_sizes(z):
    """The number of cells in each zone, empty zones included."""
    return np.bincount(list(z.cell_to_zone.values()), minlength=z.k).tolist()


def route_at(route_id, latlngs, start=0):
    n = len(latlngs)
    travel = np.ones((n, n)) - np.eye(n)
    return make_route(route_id, latlngs, travel, start=start)


def test_collect_cells_hand_placement(spec):
    # five hand-picked cells; put one stop at each centroid across 3 routes
    cells = [HexCellId(7, 0, 0), HexCellId(7, 3, 0), HexCellId(7, 0, 3),
             HexCellId(7, -3, 1), HexCellId(7, 2, -4)]
    latlngs = [(g.lat, g.lng) for g in
               (unproject(centroid(c, spec), spec) for c in cells)]
    routes = [route_at("R1", latlngs[:2]), route_at("R2", latlngs[2:4]),
              route_at("R3", [latlngs[4], latlngs[0]])]
    got = collect_cells(routes, 7, spec)
    assert got == set(cells)


def two_triple_cells(spec):
    near = [HexCellId(7, 0, 0), HexCellId(7, 1, 0), HexCellId(7, 0, 1)]
    far = [HexCellId(7, 40, 0), HexCellId(7, 41, 0), HexCellId(7, 40, 1)]
    return near, far


def test_kmeans_two_separated_triples(spec):
    near, far = two_triple_cells(spec)
    z = kmeans(set(near) | set(far), k=2, seed=7, spec=spec, resolution=7)
    zones_near = {z.cell_to_zone[c] for c in near}
    zones_far = {z.cell_to_zone[c] for c in far}
    assert len(zones_near) == 1 and len(zones_far) == 1
    assert zones_near != zones_far
    assert sorted(zone_sizes(z)) == [3, 3]


def test_kmeans_deterministic(spec):
    near, far = two_triple_cells(spec)
    cells = set(near) | set(far)
    z1 = kmeans(cells, k=2, seed=3, spec=spec, resolution=7)
    z2 = kmeans(cells, k=2, seed=3, spec=spec, resolution=7)
    assert np.array_equal(z1.centroids, z2.centroids)
    assert z1.cell_to_zone == z2.cell_to_zone


def test_kmeans_reseeds_an_empty_cluster(spec, monkeypatch):
    # k copies of one centre far from every cell: zone 0 takes all the cells,
    # and no other zone is ever nearest to any cell unless it is reseeded
    monkeypatch.setattr(zoning, "_kmeanspp_init",
                        lambda points, k, rng: np.full((k, 2), 1e9))
    near, far = two_triple_cells(spec)
    cells = set(near) | set(far)
    z1 = kmeans(cells, k=3, seed=3, spec=spec, resolution=7)
    z2 = kmeans(cells, k=3, seed=3, spec=spec, resolution=7)
    assert min(zone_sizes(z1)) > 0
    assert np.array_equal(z1.centroids, z2.centroids)
    assert z1.cell_to_zone == z2.cell_to_zone


def test_kmeans_assignment_is_nearest_centroid(spec):
    rng = np.random.default_rng(5)
    cells = {HexCellId(7, int(q), int(r))
             for q, r in rng.integers(-20, 20, size=(40, 2))}
    z = kmeans(cells, k=4, seed=1, spec=spec, resolution=7)
    for cell, zone in z.cell_to_zone.items():
        c = centroid(cell, spec)
        d = ((z.centroids - np.array([c.x, c.y])) ** 2).sum(axis=1)
        assert d[zone] == pytest.approx(d.min(), rel=1e-12)


def test_kmeans_rejects_bad_k(spec):
    near, _ = two_triple_cells(spec)
    with pytest.raises(DomainError):
        kmeans(set(near), k=0, seed=0, spec=spec, resolution=7)
    with pytest.raises(DomainError):
        kmeans(set(near), k=4, seed=0, spec=spec, resolution=7)


def test_zoning_rejects_zone_ids_outside_k(spec):
    for zone in (-1, 1, 99):
        with pytest.raises(DomainError, match="zone id"):
            Zoning(spec=spec, resolution=7, k=1, seed=0, centroids=np.zeros((1, 2)),
                   cell_to_zone={HexCellId(7, 0, 0): zone})


def test_zoning_rejects_cells_of_another_resolution(spec):
    with pytest.raises(DomainError, match="resolution"):
        Zoning(spec=spec, resolution=8, k=1, seed=0, centroids=np.zeros((1, 2)),
               cell_to_zone={HexCellId(7, 0, 0): 0})


def test_zone_of_point_unmapped_cell_falls_back(spec):
    near, far = two_triple_cells(spec)
    z = kmeans(set(near) | set(far), k=2, seed=7, spec=spec, resolution=7)
    # a stop way beyond the far triple still lands in the far zone
    c = centroid(HexCellId(7, 60, 0), spec)
    stop = Stop("beyond", unproject(c, spec))
    assert cell_of(c, 7, spec) not in z.cell_to_zone
    assert zone_of_stop(stop, z, c) == z.cell_to_zone[far[0]]


def test_clusters_visited_straddles_two(spec):
    near, far = two_triple_cells(spec)
    z = kmeans(set(near) | set(far), k=2, seed=7, spec=spec, resolution=7)
    g1 = unproject(centroid(near[0], spec), spec)
    g2 = unproject(centroid(far[0], spec), spec)
    route = route_at("R", [(g1.lat, g1.lng), (g2.lat, g2.lng)])
    assert clusters_visited(route, z) == 2


def test_save_load_roundtrip(tmp_path, spec):
    near, far = two_triple_cells(spec)
    z = kmeans(set(near) | set(far), k=2, seed=7, spec=spec, resolution=7)
    path = tmp_path / "zones.json"
    save_zoning(z, path)
    back = load_zoning(path)
    assert back.k == z.k and back.seed == z.seed and back.resolution == z.resolution
    assert np.allclose(back.centroids, z.centroids)
    assert back.cell_to_zone == z.cell_to_zone
    assert back.spec.origin == z.spec.origin
    assert back.spec.ref_edge_m == z.spec.ref_edge_m
