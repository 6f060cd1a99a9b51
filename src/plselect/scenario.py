"""Synthetic propagation scenes and environment feature extraction.

A Scene holds a transmitter, a receiver route, and a set of box scatterers.
Ground-truth path loss comes from a free-space + knife-edge diffraction +
log-normal shadowing oracle, and ten environment features are derived from
the geometry per receiver point:

    f1  D_txrx        3D Tx-Rx distance
    f2  H_txrx        signed Tx-Rx height difference
    f3  H_ts_avg      mean Tx-scatterer height difference (effective set)
    f4  D_ts_avg      mean 2D Tx-scatterer distance (effective set)
    f5  D_rs_mean     mean 2D Rx-scatterer distance (effective set)
    f6  V_eff_mean    mean scatterer volume (effective set)
    f7  Min_D_dev_eff minimum perpendicular offset to the Tx-Rx line
    f8  Blockage_eff  count of boxes intersecting the direct 3D segment
    f9  Ref_WEK       sum of exp(-reflection detour excess / D_txrx)
    f10 Dif_WEK       Fresnel parameter of the dominant blocker

"Effective" scatterers are those whose footprint center lies within a
corridor radius of the 2D Tx-Rx segment.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

# Free-space path loss constant: 20*log10(4*pi/c) for d in meters, f in Hz.
FSPL_CONSTANT_DB = -147.55

# Per-edge diffraction loss cap in dB.
KNIFE_EDGE_CAP_DB = 40.0

DEFAULT_CORRIDOR_RADIUS = 50.0
DEFAULT_SHADOWING_SIGMA = 3.0

FEATURE_SYMBOLS = (
    "D_txrx",
    "H_txrx",
    "H_ts_avg",
    "D_ts_avg",
    "D_rs_mean",
    "V_eff_mean",
    "Min_D_dev_eff",
    "Blockage_eff",
    "Ref_WEK",
    "Dif_WEK",
)

FEATURE_CATEGORIES = (
    "Geometry",
    "Geometry",
    "Geometry",
    "Geometry",
    "Geometry",
    "Structure",
    "Structure",
    "Structure",
    "Knowledge",
    "Knowledge",
)


class SceneGenerationError(RuntimeError):
    """Raised when scatterer placement cannot satisfy its constraints."""


@dataclass(frozen=True)
class FeatureCatalog:
    """Ordered catalog of the candidate environment features."""

    symbols: tuple = FEATURE_SYMBOLS
    categories: tuple = FEATURE_CATEGORIES

    def __post_init__(self):
        if len(self.symbols) != len(self.categories):
            raise ValueError("symbols and categories must align")

    @property
    def n_features(self) -> int:
        return len(self.symbols)

    def indices_for_category(self, category: str) -> list:
        """1-based feature indices belonging to a category."""
        return [i + 1 for i, c in enumerate(self.categories) if c == category]


@dataclass(frozen=True)
class Scatterer:
    """Axis-aligned box scatterer standing on the ground plane."""

    center: tuple  # (x, y) in meters
    width: float
    depth: float
    height: float

    def __post_init__(self):
        if self.width <= 0 or self.depth <= 0 or self.height <= 0:
            raise ValueError("scatterer dimensions must be strictly positive")

    @property
    def volume(self) -> float:
        return self.width * self.depth * self.height

    @property
    def bounds(self) -> tuple:
        """(xmin, ymin, zmin, xmax, ymax, zmax) of the box."""
        cx, cy = self.center
        return (
            cx - self.width / 2.0,
            cy - self.depth / 2.0,
            0.0,
            cx + self.width / 2.0,
            cy + self.depth / 2.0,
            self.height,
        )

    def footprint_contains(self, point_xy, margin: float = 0.0):
        """Whether the footprint grown by margin contains a 2D point; for an
        (n, 2+) array of points, one flag per point."""
        xmin, ymin, _, xmax, ymax, _ = self.bounds
        p = np.asarray(point_xy, dtype=float)
        x, y = p[..., 0], p[..., 1]
        return (
            (xmin - margin <= x) & (x <= xmax + margin)
            & (ymin - margin <= y) & (y <= ymax + margin)
        )


@dataclass(frozen=True)
class Scene:
    """Transmitter, scatterers, and a receiver route inside a bounded area."""

    tx_position: tuple  # (x, y, z) meters
    scatterers: tuple  # tuple of Scatterer
    rx_route: tuple  # tuple of (x, y, z) meters, route order is significant
    carrier_frequency: float  # Hz
    area_bounds: tuple  # (xmin, ymin, xmax, ymax)
    seed: int

    def __post_init__(self):
        if len(self.rx_route) < 2:
            raise ValueError("rx_route needs at least 2 points")
        # np.allclose of each consecutive pair, in one array step.
        r = np.asarray(self.rx_route, dtype=float)
        if np.isclose(r[:-1], r[1:]).all(axis=1).any():
            raise ValueError("consecutive route points must be distinct")
        if self.tx_position[2] <= 0:
            raise ValueError("tx height must be positive")
        xmin, ymin, xmax, ymax = self.area_bounds
        for s in self.scatterers:
            bxmin, bymin, _, bxmax, bymax, _ = s.bounds
            if bxmin < xmin or bymin < ymin or bxmax > xmax or bymax > ymax:
                raise ValueError("scatterer footprint outside area bounds")

    @property
    def n_route_points(self) -> int:
        return len(self.rx_route)

    def to_json(self) -> str:
        doc = {
            "tx_position": list(self.tx_position),
            "scatterers": [
                {
                    "center": list(s.center),
                    "width": s.width,
                    "depth": s.depth,
                    "height": s.height,
                }
                for s in self.scatterers
            ],
            "rx_route": [list(p) for p in self.rx_route],
            "carrier_frequency": self.carrier_frequency,
            "area_bounds": list(self.area_bounds),
            "seed": self.seed,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scene":
        """Inverse of to_json. Text that is not a JSON object, or a key
        that is missing or malformed, raises ValueError naming the key."""
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("scene JSON must be an object")

        def scatterer(s):
            if not isinstance(s, dict):
                raise ValueError(f"expected an object, got {s!r}")
            missing = {"center", "width", "depth", "height"} - set(s)
            if missing:
                raise ValueError(f"a scatterer has no {sorted(missing)}")
            return Scatterer(
                center=_numbers(s["center"], 2),
                width=_number(s["width"]),
                depth=_number(s["depth"]),
                height=_number(s["height"]),
            )

        parsers = {
            "tx_position": lambda v: _numbers(v, 3),
            "scatterers": lambda v: tuple(scatterer(s) for s in _list(v)),
            "rx_route": lambda v: tuple(_numbers(p, 3) for p in _list(v)),
            "carrier_frequency": _number,
            "area_bounds": lambda v: _numbers(v, 4),
            "seed": _integer,
        }
        values = {}
        for key, parse in parsers.items():
            if key not in doc:
                raise ValueError(f"scene JSON has no key {key!r}")
            try:
                values[key] = parse(doc[key])
            except ValueError as exc:
                raise ValueError(f"scene JSON key {key!r}: {exc}") from None
        return cls(**values)


def _list(value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected an array, got {value!r}")
    return value


def _number(value):
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"expected a finite number, got {value!r}")
    return value


def _integer(value) -> int:
    if type(value) is not int:
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _numbers(value, n: int) -> tuple:
    if len(_list(value)) != n:
        raise ValueError(f"expected {n} numbers, got {value!r}")
    return tuple(_number(v) for v in value)


@dataclass
class SceneConfig:
    """Parameters for procedural scene generation."""

    area_size: tuple = (400.0, 400.0)  # meters (width, depth)
    scatterer_count: tuple = (20, 30)  # inclusive range (min, max)
    scatterer_height: tuple = (5.0, 25.0)
    scatterer_width: tuple = (8.0, 20.0)
    scatterer_depth: tuple = (8.0, 20.0)
    route_points: int = 100
    carrier_frequency: float = 3.5e9
    tx_height: float = 10.0
    rx_height: float = 1.5
    layout: str = "uniform"  # uniform | intersection | square
    corridor_width: float = 30.0
    max_placement_retries: int = 200
    seed: int = 0

    def __post_init__(self):
        def bad(name, rule):
            return ValueError(f"SceneConfig.{name} must {rule}, "
                              f"got {getattr(self, name)!r}")

        pairs = ("area_size", "scatterer_count", "scatterer_height",
                 "scatterer_width", "scatterer_depth")
        for name in pairs:
            if len(getattr(self, name)) != 2:
                raise bad(name, "have 2 entries")
        for name in ("carrier_frequency", "area_size", "scatterer_height",
                     "scatterer_width", "scatterer_depth"):
            if not all(0 < v < math.inf
                       for v in np.atleast_1d(getattr(self, name))):
                raise bad(name, "be finite and > 0")
        for name in pairs[1:]:
            lo, hi = getattr(self, name)
            if not 0 <= lo <= hi:
                raise bad(name, "be a (min, max) pair with 0 <= min <= max")
        if self.route_points < 2:
            raise bad("route_points", "be >= 2")


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------

def point_segment_distance_2d(point, seg_a, seg_b) -> float:
    """Distance from a 2D point to a 2D segment."""
    p = np.asarray(point, dtype=float)[:2]
    a = np.asarray(seg_a, dtype=float)[:2]
    b = np.asarray(seg_b, dtype=float)[:2]
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


def point_line_distance_2d(point, line_a, line_b) -> float:
    """Perpendicular distance from a 2D point to the infinite line a-b."""
    p = np.asarray(point, dtype=float)[:2]
    a = np.asarray(line_a, dtype=float)[:2]
    b = np.asarray(line_b, dtype=float)[:2]
    ab = b - a
    norm = float(np.linalg.norm(ab))
    if norm == 0.0:
        return float(np.linalg.norm(p - a))
    ap = p - a
    return abs(float(ab[0] * ap[1] - ab[1] * ap[0])) / norm


def segment_box_intersection(p0, p1, bounds) -> Optional[tuple]:
    """Parametric [t_enter, t_exit] of segment p0->p1 inside the box, or None.

    Slab clipping over the three axes; t is measured along the segment in
    [0, 1].
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    lo = np.array(bounds[:3], dtype=float)
    hi = np.array(bounds[3:], dtype=float)
    d = p1 - p0
    t_min, t_max = 0.0, 1.0
    # A tiny d[axis] can overflow t0 and t1 to +-inf; the clip stays right.
    with np.errstate(over="ignore"):
        for axis in range(3):
            if d[axis] == 0.0:
                if p0[axis] < lo[axis] or p0[axis] > hi[axis]:
                    return None
                continue
            t0 = (lo[axis] - p0[axis]) / d[axis]
            t1 = (hi[axis] - p0[axis]) / d[axis]
            if t0 > t1:
                t0, t1 = t1, t0
            t_min = max(t_min, t0)
            t_max = min(t_max, t1)
            if t_min > t_max:
                return None
    return (t_min, t_max)


def knife_edge_loss_db(nu: float) -> float:
    """Single knife-edge diffraction loss from the Fresnel parameter.

    Uses the standard approximation J(nu) = 6.9 + 20*log10(sqrt((nu-0.1)^2+1)
    + nu - 0.1) for nu > -0.78, zero below, capped at KNIFE_EDGE_CAP_DB.
    """
    if nu <= -0.78:
        return 0.0
    loss = 6.9 + 20.0 * np.log10(np.sqrt((nu - 0.1) ** 2 + 1.0) + nu - 0.1)
    return float(min(max(loss, 0.0), KNIFE_EDGE_CAP_DB))


def fresnel_parameter(clearance: float, d1: float, d2: float,
                      wavelength: float) -> float:
    """Fresnel diffraction parameter for an edge between two path nodes.

    clearance > 0 means the edge protrudes above the line of sight.
    Broadcasts over arrays.
    """
    d1 = np.maximum(d1, 1e-6)
    d2 = np.maximum(d2, 1e-6)
    return clearance * np.sqrt(2.0 * (d1 + d2) / (wavelength * d1 * d2))


def _blocker_edges(scene: Scene, rx_index: int):
    """Edges of scatterers cut by the direct 3D segment, sorted along it.

    Returns a list of (t_along, edge_height) where t is the parametric
    midpoint of the box crossing and edge_height is the box top.
    """
    tx = np.asarray(scene.tx_position, dtype=float)
    rx = np.asarray(scene.rx_route[rx_index], dtype=float)
    edges = []
    for s in scene.scatterers:
        hit = segment_box_intersection(tx, rx, s.bounds)
        if hit is not None:
            t_mid = 0.5 * (hit[0] + hit[1])
            edges.append((t_mid, s.height))
    edges.sort(key=lambda e: e[0])
    return edges


def free_space_path_loss_db(distance_m, frequency_hz: float):
    """FSPL in dB; broadcasts over an array of distances."""
    if np.any(np.asarray(distance_m) <= 0):
        raise ValueError("distance must be positive")
    return (
        20.0 * np.log10(distance_m)
        + 20.0 * np.log10(frequency_hz)
        + FSPL_CONSTANT_DB
    )


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def ground_truth_path_loss(
    scene: Scene,
    rx_index: int,
    shadowing_sigma: float = DEFAULT_SHADOWING_SIGMA,
) -> float:
    """Synthetic ground-truth path loss in dB for one route point.

    FSPL + Epstein-Peterson cascade of knife-edge losses over blockers cut
    by the direct segment + zero-mean Gaussian shadowing seeded from
    (scene.seed, rx_index). Deterministic per (scene, rx_index, sigma).
    """
    if not 0 <= rx_index < scene.n_route_points:
        raise IndexError(f"rx_index {rx_index} out of range")
    tx = np.asarray(scene.tx_position, dtype=float)
    rx = np.asarray(scene.rx_route[rx_index], dtype=float)
    d = float(np.linalg.norm(rx - tx))
    if d == 0.0:
        raise ValueError("receiver coincides with transmitter")

    return _diffraction_and_shadowing(
        free_space_path_loss_db(d, scene.carrier_frequency),
        d,
        _blocker_edges(scene, rx_index),
        tx[2],
        rx[2],
        SPEED_OF_LIGHT / scene.carrier_frequency,
        scene.seed,
        rx_index,
        shadowing_sigma,
    )


def _diffraction_and_shadowing(pl, d, edges, tx_z, rx_z, wavelength, seed,
                               rx_index, shadowing_sigma) -> float:
    """Add the knife-edge cascade over edges and the seeded shadowing draw
    to the free-space loss pl of one route point.

    edges are (t_along, edge_height) pairs sorted along the Tx-Rx segment
    of 3D length d, as _blocker_edges returns them.
    """
    # Epstein-Peterson: each edge sees the neighboring nodes (previous edge
    # or Tx, next edge or Rx) as its terminals.
    nodes_t = [0.0] + [t for t, _ in edges] + [1.0]
    for j, (t_edge, edge_height) in enumerate(edges):
        d1 = (t_edge - nodes_t[j]) * d
        d2 = (nodes_t[j + 2] - t_edge) * d
        z_prev = edges[j - 1][1] if j > 0 else tx_z
        z_next = edges[j + 1][1] if j + 1 < len(edges) else rx_z
        # Line of sight between the neighboring nodes at the edge abscissa.
        span = nodes_t[j + 2] - nodes_t[j]
        frac = (t_edge - nodes_t[j]) / span if span > 0 else 0.5
        z_los = z_prev + frac * (z_next - z_prev)
        nu = fresnel_parameter(edge_height - z_los, d1, d2, wavelength)
        pl += knife_edge_loss_db(nu)

    if shadowing_sigma > 0:
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), int(rx_index)])
        )
        pl += float(rng.normal(0.0, shadowing_sigma))
    return float(pl)


# ---------------------------------------------------------------------------
# Feature extraction
# ---------------------------------------------------------------------------

def extract_features(
    scene: Scene,
    rx_index: int,
    corridor_radius: float = DEFAULT_CORRIDOR_RADIUS,
) -> np.ndarray:
    """The ten environment features for one route point.

    Empty effective-scatterer sets produce 0 sentinels for the aggregate
    features so the vector stays finite.
    """
    if not 0 <= rx_index < scene.n_route_points:
        raise IndexError(f"rx_index {rx_index} out of range")
    tx = np.asarray(scene.tx_position, dtype=float)
    rx = np.asarray(scene.rx_route[rx_index], dtype=float)
    d_txrx = float(np.linalg.norm(rx - tx))
    wavelength = SPEED_OF_LIGHT / scene.carrier_frequency

    effective = [
        s
        for s in scene.scatterers
        if point_segment_distance_2d(s.center, tx, rx) <= corridor_radius
    ]

    f = np.zeros(len(FEATURE_SYMBOLS))
    f[0] = d_txrx
    f[1] = tx[2] - rx[2]

    if effective:
        centers = np.array([s.center for s in effective], dtype=float)
        heights = np.array([s.height for s in effective], dtype=float)
        f[2] = float(np.mean(tx[2] - heights))
        f[3] = float(np.mean(np.linalg.norm(centers - tx[:2], axis=1)))
        f[4] = float(np.mean(np.linalg.norm(centers - rx[:2], axis=1)))
        f[5] = float(np.mean([s.volume for s in effective]))
        f[6] = float(
            min(point_line_distance_2d(s.center, tx, rx) for s in effective)
        )
        # First-order reflection detour excess via the half-height point.
        detour = 0.0
        for s in effective:
            p = np.array([s.center[0], s.center[1], s.height / 2.0])
            excess = (
                np.linalg.norm(p - tx) + np.linalg.norm(rx - p) - d_txrx
            )
            detour += np.exp(-excess / d_txrx)
        f[8] = float(detour)

    blockers = []
    for s in scene.scatterers:
        hit = segment_box_intersection(tx, rx, s.bounds)
        if hit is not None:
            blockers.append((s, hit))
    f[7] = float(len(blockers))

    if blockers:
        best_nu = -np.inf
        for s, hit in blockers:
            t_mid = 0.5 * (hit[0] + hit[1])
            d1 = t_mid * d_txrx
            d2 = (1.0 - t_mid) * d_txrx
            z_los = tx[2] + t_mid * (rx[2] - tx[2])
            nu = fresnel_parameter(s.height - z_los, d1, d2, wavelength)
            best_nu = max(best_nu, nu)
        f[9] = float(best_nu)

    return f


# ---------------------------------------------------------------------------
# Batch path: every route point of a scene at once
# ---------------------------------------------------------------------------

# Route points per block. Keeps each (points x boxes x 3) temporary near
# 75 kB for a scene of 100 boxes, so building a dataset adds little to the
# peak memory of the process.
_POINT_BLOCK = 32


def scene_features_and_path_loss(
    scene: Scene,
    shadowing_sigma: float = DEFAULT_SHADOWING_SIGMA,
    corridor_radius: float = DEFAULT_CORRIDOR_RADIUS,
) -> tuple:
    """Features (points x N) and ground-truth path loss (points,) for every
    route point, bit for bit equal to extract_features and
    ground_truth_path_loss called point by point.

    For each block of route points, one slab-test table (Kay & Kajiya,
    1986) and one corridor-distance table over (points x boxes) feed both
    the extractor and the oracle. Only the Epstein-Peterson cascade over a
    point's blockers and its shadowing draw run per point.

    The tables repeat the scalar arithmetic operation for operation. The
    scalar 1-D dot products and norms go through BLAS ddot, whose rounding
    differs from an elementwise sum, so _dot takes them from the same
    kernel. Means sum each compacted row as np.mean sums the scalar 1-D
    array, and the f9 detour sum keeps its sequential order.
    """
    tx = np.asarray(scene.tx_position, dtype=float)
    route = np.asarray(scene.rx_route, dtype=float)
    boxes = scene.scatterers
    bounds = np.array([s.bounds for s in boxes], dtype=float).reshape(-1, 6)
    centers = np.array([s.center for s in boxes], dtype=float).reshape(-1, 2)
    heights = np.array([s.height for s in boxes], dtype=float)
    volumes = np.array([s.volume for s in boxes], dtype=float)
    # Reflection points at half height, and per-box terms that do not
    # depend on the receiver.
    mids = np.column_stack([centers, heights / 2.0])
    tx_to_mid = np.sqrt(_dot(mids - tx, mids - tx))
    tx_to_center = np.linalg.norm(centers - tx[:2], axis=1)
    wavelength = SPEED_OF_LIGHT / scene.carrier_frequency

    n_points = len(route)
    features = np.zeros((n_points, len(FEATURE_SYMBOLS)))
    path_loss = np.empty(n_points)
    for start in range(0, n_points, _POINT_BLOCK):
        rx = route[start:start + _POINT_BLOCK]
        seg = rx - tx
        d = np.sqrt(_dot(seg, seg))
        if np.any(d == 0.0):
            raise ValueError("receiver coincides with transmitter")
        hit, t_enter, t_exit = _slab_table(
            tx, seg, bounds[:, :3], bounds[:, 3:]
        )
        t_mid = 0.5 * (t_enter + t_exit)
        seg_dist, line_dist = _corridor_tables(tx[:2], seg[:, :2], centers)
        effective = seg_dist <= corridor_radius

        f = features[start:start + len(rx)]
        f[:, 0] = d
        f[:, 1] = tx[2] - rx[:, 2]
        f[:, 2] = _masked_mean(tx[2] - heights, effective)
        f[:, 3] = _masked_mean(tx_to_center, effective)
        f[:, 4] = _masked_mean(
            np.linalg.norm(centers - rx[:, None, :2], axis=-1), effective
        )
        f[:, 5] = _masked_mean(volumes, effective)
        f[:, 6] = np.where(
            effective.any(axis=1),
            np.min(np.where(effective, line_dist, np.inf), axis=1,
                   initial=np.inf),
            0.0,
        )
        rx_to_mid = rx[:, None, :] - mids
        excess = tx_to_mid + np.sqrt(_dot(rx_to_mid, rx_to_mid)) - d[:, None]
        detour = np.where(effective, np.exp(-excess / d[:, None]), 0.0)
        if len(boxes):
            # Sequential like the scalar loop; add.reduce would sum pairwise.
            f[:, 8] = np.cumsum(detour, axis=1)[:, -1]
        f[:, 7] = hit.sum(axis=1)
        # Off the hit mask t_mid may be infinite; those entries are dropped.
        with np.errstate(invalid="ignore", over="ignore"):
            nu = fresnel_parameter(
                heights - (tx[2] + t_mid * (rx[:, 2, None] - tx[2])),
                t_mid * d[:, None],
                (1.0 - t_mid) * d[:, None],
                wavelength,
            )
        f[:, 9] = np.where(
            hit.any(axis=1),
            np.max(np.where(hit, nu, -np.inf), axis=1, initial=-np.inf),
            0.0,
        )

        fspl = free_space_path_loss_db(d, scene.carrier_frequency)
        for i in range(len(rx)):
            # Sorted along the ray as _blocker_edges sorts them: stably.
            edges = sorted(
                zip(t_mid[i, hit[i]].tolist(), heights[hit[i]].tolist()),
                key=lambda e: e[0],
            )
            path_loss[start + i] = _diffraction_and_shadowing(
                fspl[i], d[i], edges, tx[2], rx[i, 2], wavelength,
                scene.seed, start + i, shadowing_sigma,
            )
    return features, path_loss


def _dot(a, b):
    """Dot products over the last axis, each rounded as the 1-D a @ b or
    np.linalg.norm of the scalar path rounds it: a stacked (1 x k) @ (k x 1)
    product calls the same BLAS ddot."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _slab_table(p0, seg, lo, hi):
    """Slab tests of the segments p0 -> p0 + seg[i] against the boxes
    [lo[j], hi[j]], operation for operation as segment_box_intersection.

    Returns (hit, t_enter, t_exit) tables of shape (segments, boxes);
    t_enter and t_exit are meaningful where hit is set.
    """
    shape = (len(seg), len(lo))
    t_enter = np.zeros(shape)
    t_exit = np.ones(shape)
    miss = np.zeros(shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for axis in range(3):
            da = seg[:, axis, None]
            flat = da == 0.0
            outside = (p0[axis] < lo[:, axis]) | (p0[axis] > hi[:, axis])
            miss |= flat & outside
            t0 = (lo[:, axis] - p0[axis]) / da
            t1 = (hi[:, axis] - p0[axis]) / da
            swap = t0 > t1
            t0, t1 = np.where(swap, t1, t0), np.where(swap, t0, t1)
            # max(t_enter, t0) and min(t_exit, t1) keep their first argument
            # on ties, as Python's max and min do.
            t_enter = np.where(~flat & (t0 > t_enter), t0, t_enter)
            t_exit = np.where(~flat & (t1 < t_exit), t1, t_exit)
    # The scalar test stops at the first axis where t_enter > t_exit;
    # later axes only raise t_enter and lower t_exit, so checking once at
    # the end gives the same verdict.
    return ~(miss | (t_enter > t_exit)), t_enter, t_exit


def _corridor_tables(a, ab, points):
    """2D distances (segments x points) from points to the segments
    a -> a + ab[i] and to their lines, as point_segment_distance_2d and
    point_line_distance_2d compute them."""
    ap = points - a
    ap_norm = np.sqrt(_dot(ap, ap))
    denom = _dot(ab, ab)[:, None]
    degenerate = denom == 0.0
    ab = ab[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(_dot(ap, ab) / denom, 0.0, 1.0)
        off = points - (a + t[..., None] * ab)
        seg_dist = np.where(degenerate, ap_norm, np.sqrt(_dot(off, off)))
        cross = np.abs(ab[..., 0] * ap[:, 1] - ab[..., 1] * ap[:, 0])
        line_dist = np.where(degenerate, ap_norm, cross / np.sqrt(denom))
    return seg_dist, line_dist


def _masked_mean(values, mask):
    """Mean of values over each row's True mask entries, 0 for none.

    Rows are grouped by count so that each mean sums a compacted row in
    the same pairwise order as np.mean over the scalar 1-D array.
    """
    values = np.broadcast_to(values, mask.shape)
    counts = mask.sum(axis=1)
    out = np.zeros(len(mask))
    for k in set(counts[counts > 0].tolist()):
        rows = np.flatnonzero(counts == k)
        out[rows] = values[rows][mask[rows]].reshape(-1, k).mean(axis=1)
    return out


# ---------------------------------------------------------------------------
# Scene generation
# ---------------------------------------------------------------------------

def generate_scene(config: SceneConfig) -> Scene:
    """Build a Scene procedurally; deterministic for a fixed config."""
    rng = np.random.default_rng(np.random.SeedSequence([int(config.seed)]))
    w, h = config.area_size
    bounds = (0.0, 0.0, float(w), float(h))

    if config.layout == "intersection":
        tx, route = _intersection_tx_route(config)
        scatterers = _intersection_scatterers(config, rng, tx, route)
    elif config.layout == "square":
        tx, route = _square_tx_route(config)
        scatterers = _random_scatterers(
            config, rng, tx, route, keepout_center=True
        )
    elif config.layout == "uniform":
        tx, route = _uniform_tx_route(config, rng)
        scatterers = _random_scatterers(config, rng, tx, route)
    else:
        raise ValueError(f"unknown layout {config.layout!r}")

    return Scene(
        tx_position=tx,
        scatterers=tuple(scatterers),
        rx_route=tuple(route),
        carrier_frequency=config.carrier_frequency,
        area_bounds=bounds,
        seed=int(config.seed),
    )


def _route_along_waypoints(waypoints, n_points, rx_height):
    """Equally spaced points along a polyline, at receiver height."""
    waypoints = [np.asarray(p, dtype=float) for p in waypoints]
    seg_lengths = [
        np.linalg.norm(b - a) for a, b in zip(waypoints[:-1], waypoints[1:])
    ]
    total = float(sum(seg_lengths))
    route = []
    for k in range(n_points):
        target = total * k / (n_points - 1)
        acc = 0.0
        for a, b, L in zip(waypoints[:-1], waypoints[1:], seg_lengths):
            if target <= acc + L or (a is waypoints[-2] and b is waypoints[-1]):
                frac = (target - acc) / L if L > 0 else 0.0
                frac = min(max(frac, 0.0), 1.0)
                p = a + frac * (b - a)
                route.append((float(p[0]), float(p[1]), float(rx_height)))
                break
            acc += L
    return route


def _uniform_tx_route(config, rng):
    w, h = config.area_size
    tx = (w / 2.0, h / 2.0, config.tx_height)
    margin = 0.05 * min(w, h)
    start = (margin, margin + rng.uniform(0, 0.1 * h))
    end = (w - margin, h - margin - rng.uniform(0, 0.1 * h))
    route = _route_along_waypoints(
        [start, end], config.route_points, config.rx_height
    )
    return tx, route


def _intersection_tx_route(config):
    # Two orthogonal corridors crossing at the center; Tx sits at the east
    # end of the horizontal corridor, the route runs west arm -> center ->
    # north arm so the far leg is shadowed by corner blocks.
    w, h = config.area_size
    cx, cy = w / 2.0, h / 2.0
    margin = 0.04 * min(w, h)
    tx = (w - margin, cy, config.tx_height)
    waypoints = [(margin, cy), (cx, cy), (cx, h - margin)]
    route = _route_along_waypoints(
        waypoints, config.route_points, config.rx_height
    )
    return tx, route


def _square_tx_route(config):
    # Open central plaza, Tx at center; the route is a ring through the
    # perimeter scatterer belt, so radials cross belt boxes intermittently.
    w, h = config.area_size
    tx = (w / 2.0, h / 2.0, config.tx_height)
    radius = 0.38 * min(w, h)
    angles = np.linspace(0.0, 2.0 * np.pi, config.route_points, endpoint=False)
    route = [
        (
            float(w / 2.0 + radius * np.cos(a)),
            float(h / 2.0 + radius * np.sin(a)),
            float(config.rx_height),
        )
        for a in angles
    ]
    return tx, route


def _sample_box(config, rng, cx, cy):
    width = rng.uniform(*config.scatterer_width)
    depth = rng.uniform(*config.scatterer_depth)
    height = rng.uniform(*config.scatterer_height)
    return Scatterer(center=(cx, cy), width=width, depth=depth, height=height)


def _box_clear_of(box, tx, route, margin=1.0):
    """route is the (n, 3) array of route points."""
    return not (
        box.footprint_contains(tx, margin)
        or box.footprint_contains(route, margin).any()
    )


def _random_scatterers(config, rng, tx, route, keepout_center=False):
    w, h = config.area_size
    lo, hi = config.scatterer_count
    count = int(rng.integers(lo, hi + 1))
    max_w = config.scatterer_width[1]
    max_d = config.scatterer_depth[1]
    plaza_radius = 0.28 * min(w, h)
    route = np.asarray(route)
    scatterers = []
    for k in range(count):
        for attempt in range(config.max_placement_retries):
            cx = rng.uniform(max_w / 2.0, w - max_w / 2.0)
            cy = rng.uniform(max_d / 2.0, h - max_d / 2.0)
            if keepout_center:
                r = np.hypot(cx - w / 2.0, cy - h / 2.0)
                if r < plaza_radius:
                    continue
            box = _sample_box(config, rng, cx, cy)
            bxmin, bymin, _, bxmax, bymax, _ = box.bounds
            if bxmin < 0 or bymin < 0 or bxmax > w or bymax > h:
                continue
            if _box_clear_of(box, tx, route):
                scatterers.append(box)
                break
        else:
            raise SceneGenerationError(
                f"could not place scatterer {k}: clearance from tx/route "
                f"failed after {config.max_placement_retries} retries"
            )
    return scatterers


def _intersection_scatterers(config, rng, tx, route):
    # Dense grid of blocks filling the four quadrants outside the two
    # corridors; grid cells touching tx or the route are skipped.
    w, h = config.area_size
    cx, cy = w / 2.0, h / 2.0
    half_corr = config.corridor_width / 2.0
    cell = max(config.scatterer_width[1], config.scatterer_depth[1]) * 1.6
    route = np.asarray(route)
    scatterers = []
    xs = np.arange(cell / 2.0, w - cell / 2.0 + 1e-9, cell)
    ys = np.arange(cell / 2.0, h - cell / 2.0 + 1e-9, cell)
    for gx in xs:
        for gy in ys:
            if abs(gx - cx) < half_corr + cell / 2.0:
                continue
            if abs(gy - cy) < half_corr + cell / 2.0:
                continue
            box = _sample_box(config, rng, float(gx), float(gy))
            if _box_clear_of(box, tx, route):
                scatterers.append(box)
    return scatterers
