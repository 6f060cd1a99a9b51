"""The scalar path-loss oracle against physics rather than against code.

tests/test_scene_batch.py checks that the batch path repeats the scalar
reference bit for bit; a fault the two shared would pass there. These
checks share no code with the oracle's cascade.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plselect.harness import default_config
from plselect.scenario import (
    Scene,
    SceneConfig,
    generate_scene,
    scene_features_and_path_loss,
)
from reference_scene import ground_truth_path_loss


def swap_tx_and_rx(scene, rx_index):
    """The scene with route point rx_index as its transmitter and the
    transmitter as its first route point."""
    tx = scene.tx_position
    return Scene(
        tx_position=scene.rx_route[rx_index],
        rx_route=[tx, tx + (1.0, 0.0, 0.0)],
        boxes=scene.boxes,
        carrier_frequency=scene.carrier_frequency,
        area_bounds=scene.area_bounds,
        seed=scene.seed,
    )


@pytest.mark.parametrize("name", ["intersection", "square"])
def test_swapping_tx_and_rx_keeps_path_loss(name):
    """Reciprocity: the Epstein-Peterson cascade (Epstein & Peterson,
    1953) is symmetric in each edge's distances to its neighbouring
    nodes, so the noiseless path loss of every blocked route point of the
    default scene stays within 1e-12 dB when Tx and Rx swap."""
    scene = generate_scene(default_config(0).scenarios[name])
    blockers = scene_features_and_path_loss(scene)[0][:, 7]
    # Several edges per ray, where the cascade's choice of neighbours
    # shows.
    assert (blockers >= 2).sum() >= 10
    for i in np.flatnonzero(blockers).tolist():
        forth = ground_truth_path_loss(scene, i, shadowing_sigma=0.0)
        back = ground_truth_path_loss(swap_tx_and_rx(scene, i), 0,
                                      shadowing_sigma=0.0)
        assert abs(back - forth) <= 1e-12, (i, forth, back)


C = 299_792_458.0  # m/s
F = 3.5e9  # Hz, the default carrier
AREA = (-1000.0, -1000.0, 1000.0, 1000.0)


def noiseless_path_loss(scene):
    """The scalar oracle's and the batch path's noiseless path loss at
    every route point."""
    scalar = [ground_truth_path_loss(scene, i, shadowing_sigma=0.0)
              for i in range(len(scene.rx_route))]
    batch = scene_features_and_path_loss(scene, shadowing_sigma=0.0)[1]
    return scalar, batch.tolist()


def friis_db(d, f):
    """Free-space path loss 20*log10(4*pi*d*f/c) (Friis, 1946)."""
    return 20.0 * math.log10(4.0 * math.pi * d * f / C)


def itu_knife_edge_db(nu):
    """ITU-R P.526's single knife-edge loss J(nu), for nu > -0.78."""
    return 6.9 + 20.0 * math.log10(
        math.sqrt((nu - 0.1) ** 2 + 1.0) + nu - 0.1)


def test_no_boxes_gives_free_space_loss():
    """With nothing in the way, path loss is Friis's within 0.005 dB: the
    oracle's -147.55 dB constant rounds 20*log10(4*pi/c) = -147.552 dB."""
    route = [(3.0, 4.0, 1.5), (60.0, -80.0, 1.5), (-700.0, 500.0, 1.5),
             (0.5, 0.0, 9.0)]
    scene = Scene(tx_position=(0.0, 0.0, 10.0), rx_route=route,
                  boxes=np.empty((0, 5)), carrier_frequency=F,
                  area_bounds=AREA, seed=0)
    for got in noiseless_path_loss(scene):
        for (x, y, z), pl in zip(route, got):
            d = math.sqrt(x * x + y * y + (z - 10.0) ** 2)
            assert abs(pl - friis_db(d, F)) <= 0.005, (d, pl)


@pytest.mark.parametrize("wall_height", [6.0, 8.0, 20.0])
def test_one_thin_wall_adds_the_knife_edge_loss(wall_height):
    """A thin wall halfway along the ray, across it and wider than any
    detour, adds J(nu) to Friis's loss, with nu from the geometry by hand.

    Tx at (0, 0, 10) and Rx at (100, 0, 1.5) are 100 m apart on the
    ground, so the 3-D ray has length d = sqrt(100**2 + 8.5**2) and
    crosses the wall, 0.2 m thick at x = 50, at half its length:
    d1 = d2 = d / 2, where the line of sight is at 5.75 m. The edge
    clears it by h = wall_height - 5.75, and nu = h * sqrt((2 / lambda)
    * (1 / d1 + 1 / d2)) (ITU-R P.526).
    """
    scene = Scene(tx_position=(0.0, 0.0, 10.0),
                  rx_route=[(100.0, 0.0, 1.5), (100.0, 300.0, 1.5)],
                  boxes=[(50.0, 0.0, 0.2, 40.0, wall_height)],
                  carrier_frequency=F, area_bounds=AREA, seed=0)
    d = math.sqrt(100.0 ** 2 + 8.5 ** 2)
    d1 = d2 = d / 2.0
    h = wall_height - 5.75
    nu = h * math.sqrt((2.0 / (C / F)) * (1.0 / d1 + 1.0 / d2))
    assert 0.0 < itu_knife_edge_db(nu) < 40.0  # below the oracle's cap
    for got in noiseless_path_loss(scene):
        assert abs(got[0] - (friis_db(d, F) + itu_knife_edge_db(nu))) \
            <= 0.005, (nu, got[0])
        # The second point's ray passes beside the wall.
        assert abs(got[1] - friis_db(math.hypot(100.0, 300.0, 8.5), F)) \
            <= 0.005


# Generated scenes of every layout, with short routes.
scenes = st.builds(
    lambda layout, seed, points: generate_scene(SceneConfig(
        layout=layout, seed=seed, route_points=points)),
    st.sampled_from(["uniform", "intersection", "square"]),
    st.integers(0, 2 ** 32), st.integers(2, 30))


def moved(scene, tx, route, boxes, area_bounds):
    """scene with new columns and area; its seed and carrier stay."""
    return Scene(tx_position=tx, rx_route=route, boxes=boxes,
                 carrier_frequency=scene.carrier_frequency,
                 area_bounds=area_bounds, seed=scene.seed)


def translated(scene, dx, dy):
    xmin, ymin, xmax, ymax = scene.area_bounds
    return moved(scene, scene.tx_position + (dx, dy, 0.0),
                 scene.rx_route + (dx, dy, 0.0),
                 scene.boxes + (dx, dy, 0.0, 0.0, 0.0),
                 (xmin + dx, ymin + dy, xmax + dx, ymax + dy))


def mirrored(scene):
    """scene mirrored across the plane x = 0."""
    xmin, ymin, xmax, ymax = scene.area_bounds
    flip = np.array([-1.0, 1.0, 1.0])
    return moved(scene, scene.tx_position * flip, scene.rx_route * flip,
                 scene.boxes * (-1.0, 1.0, 1.0, 1.0, 1.0),
                 (-xmax, ymin, -xmin, ymax))


def rotated(scene):
    """scene turned 90 degrees about the z axis, (x, y) -> (-y, x): each
    box's width and depth swap."""
    xmin, ymin, xmax, ymax = scene.area_bounds
    turn = [1, 0, 2]
    tx, route = scene.tx_position[turn], scene.rx_route[:, turn]
    tx[0] *= -1.0
    route[:, 0] *= -1.0
    x, y, width, depth, height = scene.boxes.T
    return moved(scene, tx, route,
                 np.column_stack([-y, x, depth, width, height]),
                 (-ymax, xmin, -ymin, xmax))


def permuted(scene, order):
    return moved(scene, scene.tx_position, scene.rx_route,
                 scene.boxes[order], scene.area_bounds)


def noiseless(scene):
    return scene_features_and_path_loss(scene, shadowing_sigma=0.0)


coordinate = st.floats(-1000.0, 1000.0)
TRANSFORMS = {
    "translation": lambda scene, draw: translated(scene, draw(coordinate),
                                                  draw(coordinate)),
    "x_mirror": lambda scene, draw: mirrored(scene),
    "quarter_turn": lambda scene, draw: rotated(scene),
    "box_order": lambda scene, draw: permuted(scene, draw(
        st.permutations(range(len(scene.boxes))))),
}


@pytest.mark.parametrize("transform", TRANSFORMS)
@settings(max_examples=40, deadline=None)
@given(scene=scenes, data=st.data())
def test_transform_keeps_features_and_path_loss(transform, scene, data):
    """Path loss and the ten features depend only on the distances and
    heights of the scene: moving it by a translation, a mirror image or a
    quarter turn, or listing its boxes in another order, changes none of
    them beyond 1e-9, relative or absolute. Rounding alone moved them by
    at most 3.1e-12 over 300 generated scenes per transform."""
    other = TRANSFORMS[transform](scene, data.draw)
    for got, want in zip(noiseless(other), noiseless(scene)):
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(scene=scenes, side=st.sampled_from(["east", "west", "north",
                                          "south"]),
       box=st.tuples(st.floats(0.0, 50.0), st.floats(-60.0, 60.0),
                     st.floats(0.5, 30.0), st.floats(0.5, 30.0),
                     st.floats(0.5, 60.0)))
def test_a_box_no_ray_crosses_changes_no_path_loss(scene, side, box):
    """Locality: a box beyond the bounding rectangle of Tx and the route
    lies off every Tx-Rx segment, so it leaves the noiseless path loss of
    every route point exactly as it was, in the scalar oracle and the
    batch path."""
    gap, along, width, depth, height = box
    xy = np.vstack([scene.tx_position, scene.rx_route])[:, :2]
    (xmin, ymin), (xmax, ymax) = xy.min(axis=0), xy.max(axis=0)
    # The box's near face is gap + 0.1 m beyond the rectangle; along
    # slides it past the rectangle's ends.
    offset = gap + 0.1
    x, y = {
        "east": (xmax + offset + width / 2, (ymin + ymax) / 2 + along),
        "west": (xmin - offset - width / 2, (ymin + ymax) / 2 + along),
        "north": ((xmin + xmax) / 2 + along, ymax + offset + depth / 2),
        "south": ((xmin + xmax) / 2 + along, ymin - offset - depth / 2),
    }[side]
    far = 1e4
    extra = moved(scene, scene.tx_position, scene.rx_route,
                  np.vstack([scene.boxes, (x, y, width, depth, height)]),
                  (-far, -far, far, far))
    assert noiseless_path_loss(extra) == noiseless_path_loss(scene)
