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
from functools import partial

import numpy as np

from . import streams

SPEED_OF_LIGHT = 299_792_458.0

# Free-space path loss constant: 20*log10(4*pi/c) for d in meters, f in Hz.
FSPL_CONSTANT_DB = -147.55

# Per-edge diffraction loss cap in dB.
KNIFE_EDGE_CAP_DB = 40.0

DEFAULT_CORRIDOR_RADIUS = 50.0
DEFAULT_SHADOWING_SIGMA = 3.0
MAX_PLACEMENT_RETRIES = 200  # draws per scatterer before placement fails

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
        # Only an exact repeat: a tolerance relative to the coordinates
        # would merge distinct points far from the origin.
        r = self.rx_route
        if (r[:-1] == r[1:]).all(axis=1).any():
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


@dataclass(frozen=True)
class SceneConfig:
    """Parameters for procedural scene generation, checked once, at
    construction; a changed config is a new one (dataclasses.replace).
    Only the uniform and square layouts draw scatterer_count boxes, and
    only the intersection grid, one box per cell, reads corridor_width.
    """

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
        if not math.isfinite(self.rx_height):
            raise bad("rx_height", "be finite")
        if not 0 <= self.corridor_width < math.inf:
            raise bad("corridor_width", "be finite and >= 0")
        for name, axis in (("scatterer_width", 0), ("scatterer_depth", 1)):
            if getattr(self, name)[1] > self.area_size[axis]:
                raise bad(name, f"have a max of at most area_size[{axis}] = "
                          f"{self.area_size[axis]}")
        # An unknown layout, or fields that ask for a scene over
        # MAX_SCENE_TABLE_ENTRIES, counted before anything is built.
        if self.layout not in LAYOUTS:
            raise bad("layout", f"be one of {tuple(LAYOUTS)}")
        boxes, box_fields = LAYOUTS[self.layout][2](self)
        points = self.route_points
        for count, fields, what in (
                (boxes, box_fields, "boxes"),
                (points, "route_points", "route points"),
                (boxes * (points + 1), f"{box_fields} and route_points",
                 "clearance table entries, boxes x (route points + 1),")):
            if count > MAX_SCENE_TABLE_ENTRIES:
                raise ValueError(
                    f"SceneConfig.{fields} must ask for at most "
                    f"{MAX_SCENE_TABLE_ENTRIES} {what} in a scene of layout "
                    f"{self.layout!r}, got {count}")


# ---------------------------------------------------------------------------
# Propagation formulas
# ---------------------------------------------------------------------------

def knife_edge_loss_db(nu):
    """Single knife-edge diffraction loss from the Fresnel parameter.

    Uses the standard approximation J(nu) = 6.9 + 20*log10(sqrt((nu-0.1)^2+1)
    + nu - 0.1) for nu > -0.78, zero below, capped at KNIFE_EDGE_CAP_DB.
    Broadcasts over arrays. The square is C pow, as numpy's scalar **
    takes it; an array's ** 2 multiplies, which rounds differently.
    """
    nu = np.asarray(nu, dtype=float)
    # Far below the cut the formula may overflow or take the log of 0;
    # those entries are dropped.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        loss = 6.9 + 20.0 * np.log10(
            np.sqrt(np.float_power(nu - 0.1, 2.0) + 1.0) + nu - 0.1)
    loss = np.minimum(np.maximum(loss, 0.0), KNIFE_EDGE_CAP_DB)
    return np.where(nu <= -0.78, 0.0, loss)[()]


def fresnel_parameter(clearance: float, d1: float, d2: float,
                      wavelength: float) -> float:
    """Fresnel diffraction parameter for an edge between two path nodes.

    clearance > 0 means the edge protrudes above the line of sight.
    Broadcasts over arrays.
    """
    d1 = np.maximum(d1, 1e-6)
    d2 = np.maximum(d2, 1e-6)
    return clearance * np.sqrt(2.0 * (d1 + d2) / (wavelength * d1 * d2))


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
# Batch path: every route point of a scene at once
# ---------------------------------------------------------------------------

# Point x box table entries per block of route points: a block holds
# TABLE_BLOCK_ENTRIES // boxes points (at least one), 122 for a scene of
# 100 boxes. Its tables span (points x kept boxes), the boxes that some
# point of the block can reach (see scene_features_and_path_loss), and
# its (points x kept boxes x 3) temporaries then peak below 2 MB however
# long the route, so building a dataset adds little to the peak memory
# of the process, while numpy's per-call overhead is spread over enough
# entries not to dominate. On the default config's scenes (seeds 0-2)
# the kept tables hold 11.5% of the intersection's (points x boxes)
# entries and 39-44% of the square's.
TABLE_BLOCK_ENTRIES = 3 << 12

# The reach slack, relative to 1 + the largest coordinate of the scene.
REACH_SLACK = 1e-6


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def scene_features_and_path_loss(
    scene: Scene,
    shadowing_sigma: float = DEFAULT_SHADOWING_SIGMA,
    corridor_radius: float = DEFAULT_CORRIDOR_RADIUS,
) -> tuple:
    """Features (points x N) and ground-truth path loss (points,) for every
    route point, bit for bit equal to the scalar reference in
    tests/reference_scene.py, whose extract_features and
    ground_truth_path_loss take one point at a time.

    For each block of route points, one slab-test table (Kay & Kajiya,
    1986) and one corridor-distance table over (points x kept boxes) feed
    both the extractor and the oracle, and the Epstein-Peterson cascade
    runs over every blocked point of the block at once. Per point there
    remains only the shadowing draw, from a generator state hashed for
    all points at once and added last, as the reference adds it.

    A box is kept in a block when some point of the block can reach it:
    when its center lies within the box's reach of some point's Tx-Rx
    segment in xy. The reach is max(corridor_radius, half the diagonal of
    the footprint) plus a slack of REACH_SLACK * (1 + the largest |value|
    of Tx, route and box bounds). First the boxes whose center lies more
    than its reach outside (in x or in y) the xy bounding box of Tx and
    the block's points are dropped; the corridor table is built over the
    rest, and of those a box is dropped only where every point's corridor
    distance is finite and above its reach. On the default config's
    scenes (seeds 0-2) a block keeps 8-19 of the intersection's 100
    boxes and 2-27 of the square's 40-44, in each block exactly the boxes
    that some point's corridor holds or ray hits.

    Why no box that a point needs is dropped. A point needs the boxes in
    its corridor and the boxes its ray hits. A corridor box has a computed
    corridor distance of at most corridor_radius <= reach, and the second
    test reads those very entries; the first test is passed too, as each
    segment lies in the bounding box, and the rounding of either distance
    is a few ulps of the scene's largest value, far below the slack. A
    ray that hits a box passes the x and y slab tests at a common t in
    [0, 1], so a point of its xy segment lies in the footprint, within
    half the diagonal of the center, again up to a few ulps. A distance
    that overflows is not finite and keeps its box; a non-finite value in
    the scene makes the slack, so every reach, inf or nan, and nothing is
    dropped.

    Why the bits stay the same. Every table entry is computed from its own
    point and box alone, and the kept columns stay in box order. The
    masked means, the minimum, the maximum and the stable edge sort read
    only corridor or hit entries, in box order; the f9 detour sum loses
    only its + 0.0 terms for boxes outside every corridor.

    The tables repeat the scalar arithmetic operation for operation. The
    scalar 1-D dot products and norms go through BLAS ddot, whose rounding
    differs from an elementwise sum, so _dot takes them from the same
    kernel. Means sum each compacted row as np.mean sums the scalar 1-D
    array, and the f9 detour sum and the cascade keep their sequential
    order. numpy's float warnings are off: the non-finite intermediates
    of misses, degenerate segments and huge values are dropped by masks,
    and a non-finite row is refused by dataset.check_rows.
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
    # np.max, unlike Python's max, keeps a nan.
    scale = np.abs(np.concatenate([tx, route.ravel(), bounds.ravel()])).max()
    reach = (np.maximum(corridor_radius,
                        0.5 * np.hypot(scene.boxes[:, 2], scene.boxes[:, 3]))
             + REACH_SLACK * (1.0 + scale))

    n_points = len(route)
    block = max(1, TABLE_BLOCK_ENTRIES // max(1, len(heights)))
    features = np.zeros((n_points, len(FEATURE_SYMBOLS)))
    path_loss = np.empty(n_points)
    for start in range(0, n_points, block):
        rx = route[start:start + block]
        seg = rx - tx
        d = np.sqrt(_dot(seg, seg))
        if np.any(d == 0.0):
            raise ValueError("receiver coincides with transmitter")
        # The boxes some point of the block can reach: those near the xy
        # bounding box of Tx and the block's points, and of those, the
        # ones near some point's segment.
        xy = np.vstack([tx[:2], rx[:, :2]])
        outside = np.maximum(xy.min(axis=0) - centers,
                             centers - xy.max(axis=0)).max(axis=1)
        near = np.flatnonzero(_in_reach(outside[None], reach))
        seg_dist, line_dist = _corridor_tables(tx[:2], seg[:, :2],
                                               centers[near])
        kept = _in_reach(seg_dist, reach[near])
        box = near[kept]
        seg_dist, line_dist = seg_dist[:, kept], line_dist[:, kept]
        c, h = centers[box], heights[box]
        effective = seg_dist <= corridor_radius
        hit, t_enter, t_exit = _slab_table(
            tx, seg, bounds[box, :3], bounds[box, 3:]
        )
        t_mid = 0.5 * (t_enter + t_exit)

        f = features[start:start + len(rx)]
        f[:, 0] = d
        f[:, 1] = tx[2] - rx[:, 2]
        f[:, 2:6] = _masked_means(
            [tx[2] - h, tx_to_center[box],
             np.linalg.norm(c - rx[:, None, :2], axis=-1), volumes[box]],
            effective,
        ).T
        f[:, 6] = np.where(
            effective.any(axis=1),
            np.min(np.where(effective, line_dist, np.inf), axis=1,
                   initial=np.inf),
            0.0,
        )
        rx_to_mid = rx[:, None, :] - mids[box]
        excess = (tx_to_mid[box] + np.sqrt(_dot(rx_to_mid, rx_to_mid))
                  - d[:, None])
        detour = np.where(effective, np.exp(-excess / d[:, None]), 0.0)
        if len(box):
            # Sequential like the scalar loop; add.reduce would sum pairwise.
            f[:, 8] = np.cumsum(detour, axis=1)[:, -1]
        f[:, 7] = hit.sum(axis=1)
        # Off the hit mask t_mid may be infinite; those entries are dropped.
        nu = fresnel_parameter(
            h - (tx[2] + t_mid * (rx[:, 2, None] - tx[2])),
            t_mid * d[:, None],
            (1.0 - t_mid) * d[:, None],
            wavelength,
        )
        f[:, 9] = np.where(
            hit.any(axis=1),
            np.max(np.where(hit, nu, -np.inf), axis=1, initial=-np.inf),
            0.0,
        )

        path_loss[start:start + len(rx)] = _cascade_table(
            free_space_path_loss_db(d, scene.carrier_frequency), d, hit,
            t_mid, h, tx[2], rx[:, 2], wavelength,
        )
    if shadowing_sigma > 0:
        # The reference's per-point draws, from one generator set to each
        # point's state.
        path_loss += [rng.normal(0.0, shadowing_sigma) for rng in
                      streams.generators(scene.seed, np.arange(n_points))]
    return features, path_loss


def _in_reach(dist, reach):
    """Which boxes, the columns of a (rows x boxes) table of distances
    from each box's center, to keep: those with some distance at most the
    box's reach, or not finite."""
    return ~((dist > reach) & np.isfinite(dist)).all(axis=0)


def _dot(a, b):
    """Dot products over the last axis, each rounded as the 1-D a @ b or
    np.linalg.norm of the scalar path rounds it: a stacked (1 x k) @ (k x 1)
    product calls the same BLAS ddot."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _cascade_table(pl, d, hit, t_mid, heights, tx_z, rx_z, wavelength):
    """The free-space losses pl of a block of route points plus, for each,
    the knife-edge loss of every box its ray hits, as the reference's
    cascade (tests/reference_scene.py) adds them one point at a time.

    hit and t_mid are the block's (points x boxes) slab-test tables; d,
    rx_z and pl hold one entry per point. pl is updated in place.
    """
    counts = hit.sum(axis=1)
    n_edges = counts.max(initial=0)
    # Each point's edges along its ray, sorted stably as the reference
    # sorts them; the misses sort last and are cut off.
    order = np.argsort(np.where(hit, t_mid, np.inf), axis=1,
                       kind="stable")[:, :n_edges]
    # nodes[:, k + 1] is edge k, node 0 the Tx and node counts + 1 the Rx;
    # the nodes after the Rx repeat it.
    after_rx = np.arange(n_edges + 2) > counts[:, None]
    nodes_t = np.where(after_rx, 1.0, np.pad(
        np.take_along_axis(t_mid, order, axis=1), ((0, 0), (1, 1))))
    nodes_z = np.where(after_rx, rx_z[:, None], np.pad(
        heights[order], ((0, 0), (1, 1)), constant_values=tx_z))
    # Each edge k between its neighbouring nodes k and k + 2.
    t_prev, t_edge, t_next = nodes_t[:, :-2], nodes_t[:, 1:-1], nodes_t[:, 2:]
    z_prev, z_next = nodes_z[:, :-2], nodes_z[:, 2:]
    d1 = (t_edge - t_prev) * d[:, None]
    d2 = (t_next - t_edge) * d[:, None]
    # Line of sight between the neighbouring nodes at the edge abscissa.
    span = t_next - t_prev
    frac = np.where(span > 0, (t_edge - t_prev) / span, 0.5)
    z_los = z_prev + frac * (z_next - z_prev)
    loss = knife_edge_loss_db(
        fresnel_parameter(nodes_z[:, 1:-1] - z_los, d1, d2, wavelength))
    # In edge order; a point with fewer edges adds nothing.
    for k in range(n_edges):
        np.add(pl, loss[:, k], out=pl, where=k < counts)
    return pl


def _slab_table(p0, seg, lo, hi):
    """Slab tests of the segments p0 -> p0 + seg[i] against the boxes
    [lo[j], hi[j]], operation for operation as the reference's scalar
    slab test in tests/reference_scene.py.

    Returns (hit, t_enter, t_exit) tables of shape (segments, boxes);
    t_enter and t_exit are meaningful where hit is set.
    """
    shape = (len(seg), len(lo))
    t_enter = np.zeros(shape)
    t_exit = np.ones(shape)
    miss = np.zeros(shape, dtype=bool)
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
    a -> a + ab[i] and to their lines, as the reference's scalar distances
    in tests/reference_scene.py compute them."""
    ap = points - a
    ap_norm = np.sqrt(_dot(ap, ap))
    denom = _dot(ab, ab)[:, None]
    degenerate = denom == 0.0
    ab = ab[:, None, :]
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

# The most boxes, route points and entries of the (boxes x (route points
# + 1)) clearance table that a SceneConfig may ask for. The default
# scenes' largest table, the intersection's 144 cells x 601 points, holds
# 86,544 entries. Since route_points >= 2, an intersection grid holds at
# most a third of the limit in cells, and building it peaks near 250 MB;
# without a bound, a config of tiny boxes could ask for terabytes.
MAX_SCENE_TABLE_ENTRIES = 1 << 22


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def generate_scene(config: SceneConfig) -> Scene:
    """Build a Scene procedurally; deterministic for a fixed config, which
    SceneConfig has checked. numpy's float warnings are off: a huge but
    accepted config may overflow to non-finite scene values, whose rows
    dataset.check_rows refuses."""
    tx_route, place_boxes, _ = LAYOUTS[config.layout]
    rng = np.random.default_rng(np.random.SeedSequence([int(config.seed)]))
    tx, route = tx_route(config, rng)
    boxes = place_boxes(config, rng, np.vstack([tx, route])[:, :2])
    return Scene(tx_position=tx, rx_route=route, boxes=boxes,
                 carrier_frequency=config.carrier_frequency,
                 area_bounds=(0.0, 0.0, *map(float, config.area_size)),
                 seed=int(config.seed))


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
    return tx, _route_along_waypoints([start, end], config.route_points,
                                      config.rx_height)


def _intersection_tx_route(config, rng):
    # Two orthogonal corridors crossing at the center; Tx sits at the east
    # end of the horizontal corridor, the route runs west arm -> center ->
    # north arm so the far leg is shadowed by corner blocks.
    w, h = config.area_size
    cx, cy = w / 2.0, h / 2.0
    margin = 0.04 * min(w, h)
    tx = (w - margin, cy, config.tx_height)
    waypoints = [(margin, cy), (cx, cy), (cx, h - margin)]
    return tx, _route_along_waypoints(waypoints, config.route_points,
                                      config.rx_height)


def _square_tx_route(config, rng):
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


def _size_ranges(config):
    """The (lows, highs) arrays of box width, depth and height. One
    rng.uniform(lows, highs, size) call draws (width, depth, height)
    rows, in C order, with the doubles of one scalar call per value."""
    return np.array([config.scatterer_width, config.scatterer_depth,
                     config.scatterer_height]).T


def _clear(boxes, points):
    """Which (x, y, width, depth, height) box rows have a footprint that,
    grown by 1 m, holds none of the (n, 2) xy points: one test over a
    (boxes x points) table."""
    half = boxes[:, 2:4] / 2.0
    xmin, ymin = (boxes[:, :2] - half - 1.0).T[..., None]
    xmax, ymax = (boxes[:, :2] + half + 1.0).T[..., None]
    px, py = points.T
    return ~((xmin <= px) & (px <= xmax)
             & (ymin <= py) & (py <= ymax)).any(axis=1)


def _random_boxes(config, rng, points, keepout):
    """A drawn count of boxes, each at a uniform center, drawn again
    until it lies inside the area, clears the points and, when keepout >
    0, has its center at least keepout times the area's smaller side from
    the area's center. A loop, not arrays: each attempt's draws follow
    the rejections before it."""
    w, h = config.area_size
    lo, hi = config.scatterer_count
    count = int(rng.integers(lo, hi + 1))
    lows, highs = _size_ranges(config)
    max_w, max_d, _ = highs.tolist()
    boxes = []
    for k in range(count):
        for attempt in range(MAX_PLACEMENT_RETRIES):
            cx = rng.uniform(max_w / 2.0, w - max_w / 2.0)
            cy = rng.uniform(max_d / 2.0, h - max_d / 2.0)
            if np.hypot(cx - w / 2.0, cy - h / 2.0) < keepout * min(w, h):
                continue
            bw, bd, bh = rng.uniform(lows, highs).tolist()
            if (cx - bw / 2.0 < 0 or cy - bd / 2.0 < 0
                    or cx + bw / 2.0 > w or cy + bd / 2.0 > h):
                continue
            if _clear(np.array([[cx, cy, bw, bd, bh]]), points)[0]:
                boxes.append((cx, cy, bw, bd, bh))
                break
        else:
            raise SceneGenerationError(
                f"could not place scatterer {k}: clearance from tx/route "
                f"failed after {MAX_PLACEMENT_RETRIES} retries")
    return boxes


def _drawn_boxes(config):
    """The most boxes _random_boxes places, and the field that sets it."""
    return config.scatterer_count[1], "scatterer_count"


def _grid_axes(config):
    """The intersection grid's cell side and the np.arange (start, stop)
    of its cell centers along x and along y."""
    cell = max(config.scatterer_width[1], config.scatterer_depth[1]) * 1.6
    return cell, [(cell / 2.0, side - cell / 2.0 + 1e-9)
                  for side in config.area_size]


def _grid_cells(config):
    """The intersection grid's cell count, and the fields that set it,
    without building the grid: np.arange(start, stop, step) has
    ceil((stop - start) / step) entries, or none. Cells so small that an
    axis holds inf of them count as inf."""
    cell, axes = _grid_axes(config)
    counts = [(stop - start) / cell for start, stop in axes]
    fields = "scatterer_width and scatterer_depth"
    if math.inf in counts:
        return math.inf, fields
    return math.prod(math.ceil(n) if n > 0 else 0 for n in counts), fields


def _grid_boxes(config, rng, points):
    # Dense grid of blocks filling the four quadrants outside the two
    # corridors. Every such cell draws a box, in x-major order; the boxes
    # that do not clear the points are dropped.
    w, h = config.area_size
    cell, axes = _grid_axes(config)
    gx, gy = np.meshgrid(*(np.arange(start, stop, cell)
                           for start, stop in axes), indexing="ij")
    reach = config.corridor_width / 2.0 + cell / 2.0
    keep = (np.abs(gx - w / 2.0) >= reach) & (np.abs(gy - h / 2.0) >= reach)
    sizes = rng.uniform(*_size_ranges(config), (keep.sum(), 3))
    boxes = np.column_stack([gx[keep], gy[keep], sizes])
    return boxes[_clear(boxes, points)]


# Each layout's Tx/route function, called with the config and the scene's
# generator; its box placer, called with those and the (n, 2) xy points
# of Tx and the route; and the most boxes that placer can make, with the
# fields that set it, counted from the config alone. The square keeps an
# open plaza of 0.28 times the area's smaller side around its center; a
# keepout of 0 rejects nothing.
LAYOUTS = {
    "uniform": (_uniform_tx_route, partial(_random_boxes, keepout=0.0),
                _drawn_boxes),
    "intersection": (_intersection_tx_route, _grid_boxes, _grid_cells),
    "square": (_square_tx_route, partial(_random_boxes, keepout=0.28),
               _drawn_boxes),
}
