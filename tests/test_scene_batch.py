"""The batch path against the scalar reference, bit for bit.

scene_features_and_path_loss must return exactly what extract_features and
ground_truth_path_loss return point by point: the dataset CSVs, and every
result derived from them, depend on each bit.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plselect.scenario import (
    Scatterer,
    Scene,
    SceneConfig,
    extract_features,
    generate_scene,
    ground_truth_path_loss,
    scene_features_and_path_loss,
)


def scalar_reference(scene, shadowing_sigma, corridor_radius):
    points = range(scene.n_route_points)
    features = np.array([
        extract_features(scene, i, corridor_radius=corridor_radius)
        for i in points
    ])
    path_loss = np.array([
        ground_truth_path_loss(scene, i, shadowing_sigma=shadowing_sigma)
        for i in points
    ])
    return features, path_loss


def assert_batch_matches_scalar(scene, shadowing_sigma=3.0,
                                corridor_radius=50.0):
    features, path_loss = scene_features_and_path_loss(
        scene, shadowing_sigma=shadowing_sigma,
        corridor_radius=corridor_radius,
    )
    ref_features, ref_path_loss = scalar_reference(
        scene, shadowing_sigma, corridor_radius
    )
    assert features.shape == ref_features.shape
    assert path_loss.shape == ref_path_loss.shape
    np.testing.assert_array_equal(
        features.view(np.int64), ref_features.view(np.int64)
    )
    np.testing.assert_array_equal(
        path_loss.view(np.int64), ref_path_loss.view(np.int64)
    )
    return features, path_loss


@pytest.mark.parametrize("layout", ["intersection", "square", "uniform"])
@pytest.mark.parametrize("seed", range(5))
def test_generated_scenes_bitwise(layout, seed):
    scene = generate_scene(SceneConfig(layout=layout, seed=seed))
    assert_batch_matches_scalar(scene)


# ---------------------------------------------------------------------------
# Small hand-made scenes for the branches the generator rarely reaches
# ---------------------------------------------------------------------------

AREA = (0.0, 0.0, 100.0, 100.0)


def make_scene(route, boxes=(), tx=(50.0, 50.0, 10.0), seed=7):
    return Scene(
        tx_position=tx,
        scatterers=tuple(boxes),
        rx_route=tuple(route),
        carrier_frequency=3.5e9,
        area_bounds=AREA,
        seed=seed,
    )


LINE = [(10.0, 50.0, 1.5), (20.0, 50.0, 1.5), (30.0, 55.0, 1.5)]
WALL = Scatterer(center=(40.0, 60.0), width=4.0, depth=30.0, height=20.0)
LOW_WALL = Scatterer(center=(35.0, 62.0), width=2.0, depth=30.0, height=5.0)
FAR_BOX = Scatterer(center=(90.0, 10.0), width=6.0, depth=6.0, height=12.0)

NO_SCATTERERS = make_scene(LINE)
# Receivers at the Tx height: the direct ray has d_z == 0 and takes the
# flat branch of the slab test, which passes WALL and skips LOW_WALL.
LEVEL_RAYS = make_scene(
    [(x, y, 10.0) for x, y, _ in LINE], boxes=(WALL, LOW_WALL, FAR_BOX)
)
# With corridor radius 1 no box center lies in any point's corridor.
BLOCKED = make_scene(LINE, boxes=(WALL, LOW_WALL, FAR_BOX))


def test_zero_scatterers_give_empty_tables():
    features, _ = assert_batch_matches_scalar(NO_SCATTERERS)
    assert np.all(features[:, 2:] == 0.0)


def test_level_rays_take_the_flat_slab_branch():
    features, _ = assert_batch_matches_scalar(LEVEL_RAYS)
    assert np.all(features[:, 1] == 0.0)
    assert np.all(features[:, 7] == 1.0)  # WALL only


def test_empty_corridor_sets():
    features, _ = assert_batch_matches_scalar(BLOCKED, corridor_radius=1.0)
    assert np.all(features[:, [2, 3, 4, 5, 6, 8]] == 0.0)
    assert np.all(features[:, 7] >= 1.0)


def test_without_shadowing():
    _, plain = assert_batch_matches_scalar(BLOCKED, shadowing_sigma=0.0)
    _, shadowed = assert_batch_matches_scalar(BLOCKED, shadowing_sigma=3.0)
    assert not np.array_equal(plain, shadowed)


def test_receiver_on_transmitter_rejected():
    scene = make_scene([(50.0, 50.0, 10.0), (20.0, 50.0, 1.5)])
    with pytest.raises(ValueError):
        scene_features_and_path_loss(scene)


# ---------------------------------------------------------------------------
# Property test on small random scenes
# ---------------------------------------------------------------------------

# Whole-meter coordinates make rays graze box faces and share coordinates
# with the Tx, so ties in the slab test and zero direction components occur.
coordinate = st.one_of(
    st.integers(0, 100).map(float),
    st.floats(0.0, 100.0, allow_nan=False),
)


@st.composite
def boxes(draw):
    width = draw(st.sampled_from([2.0, 5.0, 10.0, 16.0]))
    depth = draw(st.sampled_from([2.0, 5.0, 10.0, 16.0]))
    cx = draw(st.floats(8.0, 92.0))
    cy = draw(st.floats(8.0, 92.0))
    height = draw(st.sampled_from([1.5, 5.0, 10.0, 25.0]))
    return Scatterer(center=(cx, cy), width=width, depth=depth, height=height)


@st.composite
def random_scenes(draw):
    tx = (draw(coordinate), draw(coordinate),
          draw(st.sampled_from([1.5, 10.0, 30.0])))
    point = st.tuples(coordinate, coordinate,
                      st.sampled_from([0.0, 1.5, tx[2]]))
    route = draw(st.lists(point, min_size=2, max_size=8))
    assume(not any(np.allclose(p, tx) for p in route))
    assume(not any(np.allclose(a, b) for a, b in zip(route, route[1:])))
    scatterers = draw(st.lists(boxes(), max_size=6))
    return make_scene(route, boxes=scatterers, tx=tx,
                      seed=draw(st.integers(0, 2**31)))


@settings(max_examples=200, deadline=None)
@given(
    scene=random_scenes(),
    corridor_radius=st.sampled_from([0.0, 5.0, 30.0, 500.0]),
    shadowing_sigma=st.sampled_from([0.0, 3.0]),
)
@example(scene=NO_SCATTERERS, corridor_radius=50.0, shadowing_sigma=3.0)
@example(scene=LEVEL_RAYS, corridor_radius=50.0, shadowing_sigma=3.0)
@example(scene=BLOCKED, corridor_radius=1.0, shadowing_sigma=3.0)
@example(scene=BLOCKED, corridor_radius=50.0, shadowing_sigma=0.0)
def test_random_scenes_bitwise(scene, corridor_radius, shadowing_sigma):
    assert_batch_matches_scalar(scene, shadowing_sigma, corridor_radius)
