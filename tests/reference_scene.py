"""The scalar scene reference: features and ground-truth path loss of one
route point at a time.

plselect.scenario.scene_features_and_path_loss builds every route point
of a scene from shared (points x boxes) tables; tests/test_scene_batch.py
checks it bit for bit against extract_features and ground_truth_path_loss
here. The reference keeps its own copies of the propagation formulas and
their constants (the speed of light, the free-space constant and the
knife-edge cap), written operation for operation as in scenario.py, so a
changed constant or operand in either copy fails that test.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from plselect.scenario import (
    DEFAULT_CORRIDOR_RADIUS,
    DEFAULT_SHADOWING_SIGMA,
    FEATURE_SYMBOLS,
    Scene,
)

SPEED_OF_LIGHT = 299_792_458.0

# Free-space path loss constant: 20*log10(4*pi/c) for d in meters, f in Hz.
FSPL_CONSTANT_DB = -147.55

# Per-edge diffraction loss cap in dB.
KNIFE_EDGE_CAP_DB = 40.0


# ---------------------------------------------------------------------------
# Propagation formulas
# ---------------------------------------------------------------------------

def knife_edge_loss_db(nu):
    """Single knife-edge diffraction loss from the Fresnel parameter.

    Uses the standard approximation J(nu) = 6.9 + 20*log10(sqrt((nu-0.1)^2+1)
    + nu - 0.1) for nu > -0.78, zero below, capped at KNIFE_EDGE_CAP_DB.
    The square is C pow, as numpy's scalar ** takes it.
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
    """
    d1 = np.maximum(d1, 1e-6)
    d2 = np.maximum(d2, 1e-6)
    return clearance * np.sqrt(2.0 * (d1 + d2) / (wavelength * d1 * d2))


def free_space_path_loss_db(distance_m, frequency_hz: float):
    """FSPL in dB."""
    if np.any(np.asarray(distance_m) <= 0):
        raise ValueError("distance must be positive")
    return (
        20.0 * np.log10(distance_m)
        + 20.0 * np.log10(frequency_hz)
        + FSPL_CONSTANT_DB
    )


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
    if not 0 <= rx_index < len(scene.rx_route):
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
    same draws from streams.generators."""
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
    if not 0 <= rx_index < len(scene.rx_route):
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
