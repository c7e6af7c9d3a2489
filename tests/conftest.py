import numpy as np
import pytest

from zoneroute import parallel
from zoneroute.hexgrid import GeoPoint, GridSpec
from zoneroute.routegraph import Route, Stop


@pytest.fixture
def spec():
    return GridSpec(origin=GeoPoint(33.98, -118.25))


@pytest.fixture
def forked_workers(monkeypatch):
    """Lets general training fork workers although this process may run a
    BLAS's threads, and returns the list of worker counts each training run
    started.  Skips where workers cannot run or fewer than 2 CPUs are usable."""
    monkeypatch.setattr(parallel, "single_threaded", lambda: True)
    if not parallel.supported() or len(parallel.usable_cpus()) < 2:
        pytest.skip("needs fork, CPU affinity, memfd and 2 usable CPUs")
    started = []
    enter = parallel.Team.__enter__

    def counted(team):
        started.append(team.size)
        return enter(team)

    monkeypatch.setattr(parallel.Team, "__enter__", counted)
    return started


def make_route(route_id, coords, travel, start=0, zone_labels=None,
               actual_order=None):
    """Build a Route from (lat, lng) pairs and a travel matrix."""
    stops = []
    for i, (lat, lng) in enumerate(coords):
        label = zone_labels[i] if zone_labels else None
        stops.append(Stop(id=f"S{i}", geo=GeoPoint(lat, lng),
                          zone_label=label, is_start=(i == start)))
    return Route(id=route_id, stops=stops, travel=np.asarray(travel, dtype=float),
                 actual_order=actual_order)


def symmetric_travel(points_xy, speed=10.0):
    """Euclidean travel matrix from planar coordinates, seconds at `speed` m/s."""
    pts = np.asarray(points_xy, dtype=float)
    d = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    return d / speed
