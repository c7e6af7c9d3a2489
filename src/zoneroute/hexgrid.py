"""Planar aperture-7 hexagonal grid indexing.

A pointy-top hexagonal lattice over a local equirectangular projection.
Consecutive resolutions are related by an index-7 sublattice, so cell edge
length scales by sqrt(7) (cell area by 7) per resolution step.  Cells are
addressed by (resolution, q, r) axial coordinates and pack into a single
64-bit integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, json_int

EARTH_RADIUS_M = 6_371_008.8

MAX_RESOLUTION = 15
# axial coordinates must fit a 28-bit two's-complement field
_COORD_LIMIT = 1 << 27
_FIELD_MASK = (1 << 28) - 1


@dataclass(frozen=True)
class GeoPoint:
    lat: float
    lng: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lng)):
            raise DomainError(f"non-finite coordinates ({self.lat}, {self.lng})")
        if not (-90.0 <= self.lat <= 90.0 and -180.0 <= self.lng <= 180.0):
            raise DomainError(f"coordinates out of range ({self.lat}, {self.lng})")


@dataclass(frozen=True)
class ProjectedPoint:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError(f"non-finite projected point ({self.x}, {self.y})")


@dataclass(frozen=True)
class HexCellId:
    resolution: int
    q: int
    r: int

    def __post_init__(self):
        if not 0 <= self.resolution <= MAX_RESOLUTION:
            raise DomainError(f"resolution {self.resolution} out of [0, {MAX_RESOLUTION}]")
        if abs(self.q) >= _COORD_LIMIT or abs(self.r) >= _COORD_LIMIT:
            raise DomainError(f"axial coordinate overflow (q={self.q}, r={self.r})")


@dataclass(frozen=True)
class GridSpec:
    """Projection origin plus the edge length anchoring the resolution ladder."""

    origin: GeoPoint
    ref_resolution: int = 7
    ref_edge_m: float = 1406.0

    def __post_init__(self):
        if not (math.isfinite(self.ref_edge_m) and self.ref_edge_m > 0):
            raise DomainError(f"ref_edge_m must be positive, got {self.ref_edge_m}")
        if not 0 <= self.ref_resolution <= MAX_RESOLUTION:
            raise DomainError(f"ref_resolution {self.ref_resolution} out of range")

    def to_dict(self) -> dict:
        """The grid block of `grid.json` and `zones.json`, in file key order."""
        return {"origin_lat": self.origin.lat, "origin_lng": self.origin.lng,
                "ref_resolution": self.ref_resolution, "ref_edge_m": self.ref_edge_m}

    @classmethod
    def from_dict(cls, grid) -> "GridSpec":
        """Inverse of `to_dict`; a missing key or a value of the wrong type
        raises KeyError, TypeError or ValueError."""
        return cls(origin=GeoPoint(float(grid["origin_lat"]), float(grid["origin_lng"])),
                   ref_resolution=json_int(grid["ref_resolution"], "ref_resolution"),
                   ref_edge_m=float(grid["ref_edge_m"]))

    def edge_m(self, resolution: int) -> float:
        if not 0 <= resolution <= MAX_RESOLUTION:
            raise DomainError(f"resolution {resolution} out of range")
        return self.ref_edge_m * 7.0 ** ((self.ref_resolution - resolution) / 2.0)


def project(p: GeoPoint, spec: GridSpec) -> ProjectedPoint:
    """Equirectangular local projection around the spec origin."""
    lat0 = math.radians(spec.origin.lat)
    x = EARTH_RADIUS_M * math.radians(p.lng - spec.origin.lng) * math.cos(lat0)
    y = EARTH_RADIUS_M * math.radians(p.lat - spec.origin.lat)
    return ProjectedPoint(x, y)


def unproject(p: ProjectedPoint, spec: GridSpec) -> GeoPoint:
    lat0 = math.radians(spec.origin.lat)
    lat = spec.origin.lat + math.degrees(p.y / EARTH_RADIUS_M)
    lng = spec.origin.lng + math.degrees(p.x / (EARTH_RADIUS_M * math.cos(lat0)))
    return GeoPoint(lat, lng)


def _cube_round(qf: float, rf: float) -> tuple[int, int]:
    """Round fractional axial coordinates to the nearest lattice point.

    Standard cube rounding: round all three cube coordinates, then reset the
    one with the largest residual so they sum to zero.
    """
    xf, zf = qf, rf
    yf = -xf - zf
    rx, ry, rz = round(xf), round(yf), round(zf)
    dx, dy, dz = abs(rx - xf), abs(ry - yf), abs(rz - zf)
    if dx > dy and dx > dz:
        rx = -ry - rz
    elif dy > dz:
        ry = -rx - rz
    else:
        rz = -rx - ry
    return int(rx), int(rz)


def cell_of(p: ProjectedPoint, resolution: int, spec: GridSpec) -> HexCellId:
    """Cell whose center is nearest to p on the pointy-top lattice."""
    e = spec.edge_m(resolution)
    rf = p.y / (1.5 * e)
    qf = (p.x - (math.sqrt(3.0) / 2.0) * e * rf) / (math.sqrt(3.0) * e)
    q, r = _cube_round(qf, rf)
    return HexCellId(resolution, q, r)


def centroid(c: HexCellId, spec: GridSpec) -> ProjectedPoint:
    e = spec.edge_m(c.resolution)
    x = math.sqrt(3.0) * e * c.q + (math.sqrt(3.0) / 2.0) * e * c.r
    y = 1.5 * e * c.r
    return ProjectedPoint(x, y)


def parent(c: HexCellId, spec: GridSpec) -> HexCellId:
    """Ancestor cell one resolution coarser on the index-7 sublattice.

    The coarse basis is u' = 2u + v, v' = -u + 3v; containment of children is
    only approximate.
    """
    if c.resolution < 1:
        raise DomainError("resolution-0 cell has no parent")
    qf = (3.0 * c.q + c.r) / 7.0
    rf = (-c.q + 2.0 * c.r) / 7.0
    q, r = _cube_round(qf, rf)
    return HexCellId(c.resolution - 1, q, r)


def pack(c: HexCellId) -> int:
    """Pack a cell id into 64 bits: resolution in bits 60-63, q in 30-57, r in 0-27."""
    # HexCellId invariants already guarantee packability
    return (c.resolution << 60) | ((c.q & _FIELD_MASK) << 30) | (c.r & _FIELD_MASK)


def unpack(i: int) -> HexCellId:
    if not 0 <= i < (1 << 64):
        raise DomainError(f"packed id {i} outside 64-bit range")
    resolution = (i >> 60) & 0xF
    q = (i >> 30) & _FIELD_MASK
    r = i & _FIELD_MASK
    if q >= _COORD_LIMIT:
        q -= 1 << 28
    if r >= _COORD_LIMIT:
        r -= 1 << 28
    return HexCellId(resolution, q, r)


def format_cell_id(c: HexCellId) -> str:
    """Packed id as 16-digit uppercase hexadecimal."""
    return f"{pack(c):016X}"


def parse_cell_id(s: str) -> HexCellId:
    return unpack(int(s, 16))
