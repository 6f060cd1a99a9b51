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
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import streams

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


LAYOUTS = ("uniform", "intersection", "square")


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


# The shape of each float column of a Scene; None is any number of rows.
SCENE_COLUMNS = {"tx_position": (3,), "rx_route": (None, 3), "boxes": (None, 5)}


@dataclass(frozen=True, eq=False)
class Scene:
    """Transmitter, box scatterers and a receiver route inside a bounded
    area, held as read-only float columns:

        tx_position  (3,)          x, y, z in meters
        rx_route     (points, 3)   x, y, z of each point, in route order
        boxes        (boxes, 5)    center x, center y, width, depth, height
                                   of each axis-aligned box on the ground
    """

    tx_position: np.ndarray
    rx_route: np.ndarray
    boxes: np.ndarray
    carrier_frequency: float  # Hz
    area_bounds: tuple  # (xmin, ymin, xmax, ymax)
    seed: int

    def __post_init__(self):
        for name, shape in SCENE_COLUMNS.items():
            column = np.array(getattr(self, name), dtype=float, order="C")
            if column.size == 0 and len(shape) == 2:
                column = column.reshape(0, shape[1])
            if column.ndim != len(shape) or column.shape[-1] != shape[-1]:
                raise ValueError(f"{name} must have shape {shape}, "
                                 f"got {column.shape}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        if len(self.rx_route) < 2:
            raise ValueError("rx_route needs at least 2 points")
        # np.allclose of each consecutive pair, in one array step. A
        # difference of finite points may overflow to inf: not close.
        r = self.rx_route
        with np.errstate(over="ignore"):
            repeat = np.isclose(r[:-1], r[1:]).all(axis=1).any()
        if repeat:
            raise ValueError("consecutive route points must be distinct")
        if self.tx_position[2] <= 0:
            raise ValueError("tx height must be positive")
        if (self.boxes[:, 2:] <= 0).any():
            raise ValueError("scatterer dimensions must be strictly positive")
        xmin, ymin, xmax, ymax = self.area_bounds
        b = self.bounds
        if ((b[:, 0] < xmin) | (b[:, 1] < ymin)
                | (b[:, 3] > xmax) | (b[:, 4] > ymax)).any():
            raise ValueError("scatterer footprint outside area bounds")

    @property
    def n_route_points(self) -> int:
        return len(self.rx_route)

    @property
    def bounds(self) -> np.ndarray:
        """(boxes, 6) table of xmin, ymin, zmin, xmax, ymax, zmax."""
        x, y, w, d, h = self.boxes.T
        return np.column_stack([x - w / 2.0, y - d / 2.0, np.zeros_like(h),
                                x + w / 2.0, y + d / 2.0, h])

    @property
    def volumes(self) -> np.ndarray:
        w, d, h = self.boxes[:, 2:].T
        return (w * d) * h

    def to_json(self) -> str:
        """The scene's fields as json.dumps(indent=2, sort_keys=True)
        writes them, byte for byte, each box as {"center": [x, y],
        "depth", "height", "width"}. json's indented encoder is pure
        Python, so the route points and boxes go through one %-template
        each; the scalar fields go through json.dumps itself.
        """
        boxes = _json_floats(_JSON_BOX, self.boxes[:, [0, 1, 3, 4, 2]])
        return _JSON_SCENE % (
            *map(json.dumps, self.area_bounds),
            json.dumps(self.carrier_frequency),
            _json_floats(_JSON_POINT, self.rx_route),
            boxes + "\n  " if boxes else "",
            json.dumps(self.seed),
            _json_floats(_JSON_TX, self.tx_position[None]),
        )


# Scene.to_json's layout, as json.dumps(indent=2, sort_keys=True) writes it.
_JSON_SCENE = (
    '{\n  "area_bounds": [\n    %s,\n    %s,\n    %s,\n    %s\n  ],\n'
    '  "carrier_frequency": %s,\n  "rx_route": [%s\n  ],\n'
    '  "scatterers": [%s],\n  "seed": %s,\n  "tx_position": [%s\n  ]\n}'
)
_JSON_TX = "\n    %r,\n    %r,\n    %r"
_JSON_POINT = "\n    [\n      %r,\n      %r,\n      %r\n    ]"
_JSON_BOX = ('\n    {\n      "center": [\n        %r,\n        %r\n      ],'
             '\n      "depth": %r,\n      "height": %r,\n      "width": %r'
             '\n    }')


def _json_floats(template, rows) -> str:
    """Each row of a float array through template, joined by commas. The
    rows' Python floats print by float.__repr__, as json prints them, and
    json's Infinity and NaN replace repr's inf and nan."""
    text = ",".join([template % tuple(row) for row in rows.tolist()])
    return text.replace("inf", "Infinity").replace("nan", "NaN")


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
    layout: str = "uniform"  # one of LAYOUTS
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
        for name in ("carrier_frequency", "tx_height", "area_size",
                     "scatterer_height", "scatterer_width", "scatterer_depth"):
            if not all(0 < v < math.inf
                       for v in np.atleast_1d(getattr(self, name))):
                raise bad(name, "be finite and > 0")
        for name in pairs[1:]:
            lo, hi = getattr(self, name)
            if not 0 <= lo <= hi:
                raise bad(name, "be a (min, max) pair with 0 <= min <= max")
        if self.route_points < 2:
            raise bad("route_points", "be >= 2")
        if self.max_placement_retries < 1:
            raise bad("max_placement_retries", "be >= 1")
        if self.layout not in LAYOUTS:
            raise bad("layout", f"be one of {LAYOUTS}")
        if not math.isfinite(self.rx_height):
            raise bad("rx_height", "be finite")
        if not 0 <= self.corridor_width < math.inf:
            raise bad("corridor_width", "be finite and >= 0")
        for name, axis in (("scatterer_width", 0), ("scatterer_depth", 1)):
            if getattr(self, name)[1] > self.area_size[axis]:
                raise bad(name, f"have a max of at most area_size[{axis}] = "
                          f"{self.area_size[axis]}")


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
    tx = scene.tx_position
    rx = scene.rx_route[rx_index]
    edges = []
    for bounds in scene.bounds:
        hit = segment_box_intersection(tx, rx, bounds)
        if hit is not None:
            t_mid = 0.5 * (hit[0] + hit[1])
            edges.append((t_mid, bounds[5]))
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
    tx = scene.tx_position
    rx = scene.rx_route[rx_index]
    d = float(np.linalg.norm(rx - tx))
    if d == 0.0:
        raise ValueError("receiver coincides with transmitter")

    pl = _knife_edge_cascade(
        free_space_path_loss_db(d, scene.carrier_frequency), d,
        _blocker_edges(scene, rx_index), tx[2], rx[2],
        SPEED_OF_LIGHT / scene.carrier_frequency,
    )
    if shadowing_sigma > 0:
        pl += _shadowing(scene.seed, rx_index, shadowing_sigma)
    return float(pl)


def _knife_edge_cascade(pl, d, edges, tx_z, rx_z, wavelength):
    """The free-space loss pl of one route point plus the knife-edge loss
    of each of its edges, added in turn.

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
    return pl


def _shadowing(seed, rx_index, shadowing_sigma) -> float:
    """The shadowing draw of route point rx_index: one zero-mean Gaussian
    from a generator seeded with (seed, rx_index). The batch path takes the
    same draws from streams.seed_states."""
    seq = np.random.SeedSequence([int(seed), int(rx_index)])
    return float(np.random.default_rng(seq).normal(0.0, shadowing_sigma))


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
    tx = scene.tx_position
    rx = scene.rx_route[rx_index]
    d_txrx = float(np.linalg.norm(rx - tx))
    wavelength = SPEED_OF_LIGHT / scene.carrier_frequency

    effective = [
        j
        for j, center in enumerate(scene.boxes[:, :2])
        if point_segment_distance_2d(center, tx, rx) <= corridor_radius
    ]

    f = np.zeros(len(FEATURE_SYMBOLS))
    f[0] = d_txrx
    f[1] = tx[2] - rx[2]

    if effective:
        centers = scene.boxes[effective, :2]
        heights = scene.boxes[effective, 4]
        f[2] = float(np.mean(tx[2] - heights))
        f[3] = float(np.mean(np.linalg.norm(centers - tx[:2], axis=1)))
        f[4] = float(np.mean(np.linalg.norm(centers - rx[:2], axis=1)))
        f[5] = float(np.mean(scene.volumes[effective]))
        f[6] = float(
            min(point_line_distance_2d(c, tx, rx) for c in centers)
        )
        # First-order reflection detour excess via the half-height point.
        detour = 0.0
        for (cx, cy), height in zip(centers, heights):
            p = np.array([cx, cy, height / 2.0])
            excess = (
                np.linalg.norm(p - tx) + np.linalg.norm(rx - p) - d_txrx
            )
            detour += np.exp(-excess / d_txrx)
        f[8] = float(detour)

    edges = _blocker_edges(scene, rx_index)
    f[7] = float(len(edges))
    # The edges are sorted along the ray; their max is the same in any order.
    nus = []
    for t_mid, height in edges:
        z_los = tx[2] + t_mid * (rx[2] - tx[2])
        nus.append(fresnel_parameter(height - z_los, t_mid * d_txrx,
                                     (1.0 - t_mid) * d_txrx, wavelength))
    if nus:
        f[9] = float(max(nus))

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
    the extractor and the oracle. Per point there remain the shadowing
    draw, from a generator state hashed for all points at once and added
    last as in ground_truth_path_loss, and, where the ray hits a box, the
    Epstein-Peterson cascade over its blockers.

    The tables repeat the scalar arithmetic operation for operation. The
    scalar 1-D dot products and norms go through BLAS ddot, whose rounding
    differs from an elementwise sum, so _dot takes them from the same
    kernel. Means sum each compacted row as np.mean sums the scalar 1-D
    array, and the f9 detour sum keeps its sequential order.
    """
    tx = scene.tx_position
    route = scene.rx_route
    bounds = scene.bounds
    centers = scene.boxes[:, :2]
    heights = scene.boxes[:, 4]
    volumes = scene.volumes
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
        f[:, 2:6] = _masked_means(
            [tx[2] - heights, tx_to_center,
             np.linalg.norm(centers - rx[:, None, :2], axis=-1), volumes],
            effective,
        ).T
        f[:, 6] = np.where(
            effective.any(axis=1),
            np.min(np.where(effective, line_dist, np.inf), axis=1,
                   initial=np.inf),
            0.0,
        )
        rx_to_mid = rx[:, None, :] - mids
        excess = tx_to_mid + np.sqrt(_dot(rx_to_mid, rx_to_mid)) - d[:, None]
        detour = np.where(effective, np.exp(-excess / d[:, None]), 0.0)
        if len(heights):
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
        path_loss[start:start + len(rx)] = fspl
        for i in np.flatnonzero(hit.any(axis=1)).tolist():
            # Sorted along the ray as _blocker_edges sorts them: stably.
            edges = sorted(
                zip(t_mid[i, hit[i]].tolist(), heights[hit[i]].tolist()),
                key=lambda e: e[0],
            )
            path_loss[start + i] = _knife_edge_cascade(
                fspl[i], d[i], edges, tx[2], rx[i, 2], wavelength
            )
    if shadowing_sigma > 0:
        # _shadowing's draws, from one generator set to each point's state.
        path_loss += [rng.normal(0.0, shadowing_sigma) for rng in
                      streams.generators(streams.seed_states(
                          scene.seed, np.arange(n_points)))]
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


def _masked_means(tables, mask):
    """(tables x rows) means of each table, broadcast to mask's shape,
    over each row's True mask entries, 0 for none.

    Rows are grouped by count so that each mean sums a compacted row in
    the same pairwise order as np.mean over the scalar 1-D array; take
    keeps each compacted row contiguous, as fancy indexing would not.
    """
    flat = np.stack(np.broadcast_arrays(*tables, mask)[:-1]).reshape(
        len(tables), mask.size)
    counts = mask.sum(axis=1)
    out = np.zeros((len(tables), len(mask)))
    for k in set(counts[counts > 0].tolist()):
        rows = np.flatnonzero(counts == k)
        cols = np.nonzero(mask[rows])[1].reshape(-1, k)
        out[:, rows] = flat.take(rows[:, None] * mask.shape[1] + cols,
                                 axis=1).mean(axis=-1)
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
        boxes = _intersection_boxes(config, rng, tx, route)
    elif config.layout == "square":
        tx, route = _square_tx_route(config)
        boxes = _random_boxes(config, rng, tx, route, keepout_center=True)
    elif config.layout == "uniform":
        tx, route = _uniform_tx_route(config, rng)
        boxes = _random_boxes(config, rng, tx, route)
    else:
        raise ValueError(f"unknown layout {config.layout!r}")

    return Scene(
        tx_position=tx,
        rx_route=route,
        boxes=boxes,
        carrier_frequency=config.carrier_frequency,
        area_bounds=bounds,
        seed=int(config.seed),
    )


def _route_along_waypoints(waypoints, n_points, rx_height):
    """(n_points, 3) equally spaced points along a polyline, at receiver
    height."""
    a = np.array(waypoints[:-1], dtype=float)
    ab = np.array(waypoints[1:], dtype=float) - a
    lengths = np.sqrt(_dot(ab, ab))
    ends = np.cumsum(lengths)
    targets = ends[-1] * np.arange(n_points) / (n_points - 1)
    # Each target lies on the first segment that ends at or past it, or on
    # the last segment.
    seg = np.minimum(np.searchsorted(ends, targets), len(ab) - 1)
    start = np.concatenate([[0.0], ends[:-1]])[seg]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = np.where(lengths[seg] > 0,
                        (targets - start) / lengths[seg], 0.0)
    xy = a[seg] + np.clip(frac, 0.0, 1.0)[:, None] * ab[seg]
    return np.column_stack([xy, np.full(n_points, float(rx_height))])


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
    route = np.column_stack([
        w / 2.0 + radius * np.cos(angles),
        h / 2.0 + radius * np.sin(angles),
        np.full(config.route_points, float(config.rx_height)),
    ])
    return tx, route


def _sample_box(config, rng, cx, cy):
    """A (x, y, width, depth, height) box row centered at (cx, cy)."""
    width = rng.uniform(*config.scatterer_width)
    depth = rng.uniform(*config.scatterer_depth)
    height = rng.uniform(*config.scatterer_height)
    return (cx, cy, width, depth, height)


def _box_clear_of(box, tx, route, margin=1.0):
    """Whether the box's footprint grown by margin holds neither tx nor
    any point of the (n, 3) route."""
    x, y, w, d, _ = box
    points = np.vstack([tx, route])
    px, py = points[:, 0], points[:, 1]
    return not (
        (x - w / 2.0 - margin <= px) & (px <= x + w / 2.0 + margin)
        & (y - d / 2.0 - margin <= py) & (py <= y + d / 2.0 + margin)
    ).any()


def _random_boxes(config, rng, tx, route, keepout_center=False):
    w, h = config.area_size
    lo, hi = config.scatterer_count
    count = int(rng.integers(lo, hi + 1))
    max_w = config.scatterer_width[1]
    max_d = config.scatterer_depth[1]
    plaza_radius = 0.28 * min(w, h)
    boxes = []
    for k in range(count):
        for attempt in range(config.max_placement_retries):
            cx = rng.uniform(max_w / 2.0, w - max_w / 2.0)
            cy = rng.uniform(max_d / 2.0, h - max_d / 2.0)
            if keepout_center:
                r = np.hypot(cx - w / 2.0, cy - h / 2.0)
                if r < plaza_radius:
                    continue
            box = _sample_box(config, rng, cx, cy)
            _, _, bw, bd, _ = box
            if (cx - bw / 2.0 < 0 or cy - bd / 2.0 < 0
                    or cx + bw / 2.0 > w or cy + bd / 2.0 > h):
                continue
            if _box_clear_of(box, tx, route):
                boxes.append(box)
                break
        else:
            raise SceneGenerationError(
                f"could not place scatterer {k}: clearance from tx/route "
                f"failed after {config.max_placement_retries} retries"
            )
    return boxes


def _intersection_boxes(config, rng, tx, route):
    # Dense grid of blocks filling the four quadrants outside the two
    # corridors; grid cells touching tx or the route are skipped.
    w, h = config.area_size
    cx, cy = w / 2.0, h / 2.0
    half_corr = config.corridor_width / 2.0
    cell = max(config.scatterer_width[1], config.scatterer_depth[1]) * 1.6
    boxes = []
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
                boxes.append(box)
    return boxes
