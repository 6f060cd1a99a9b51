"""The batch path against the scalar reference, bit for bit.

scene_features_and_path_loss must return exactly what extract_features and
ground_truth_path_loss return point by point: the dataset CSVs, and every
result derived from them, depend on each bit.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plselect import scenario
from plselect.scenario import (
    Scene,
    SceneConfig,
    generate_scene,
    scene_features_and_path_loss,
)
from reference_scene import (
    _blocker_edges,
    extract_features,
    ground_truth_path_loss,
)


def scalar_reference(scene, shadowing_sigma, corridor_radius):
    points = range(len(scene.rx_route))
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
# 2**32 + 5: SeedSequence splits the scene seed into two 32-bit words.
@pytest.mark.parametrize("seed", [*range(5), 2**32 + 5])
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
        rx_route=route,
        boxes=boxes,
        carrier_frequency=3.5e9,
        area_bounds=AREA,
        seed=seed,
    )


LINE = [(10.0, 50.0, 1.5), (20.0, 50.0, 1.5), (30.0, 55.0, 1.5)]
# Box rows: center x, center y, width, depth, height.
WALL = (40.0, 60.0, 4.0, 30.0, 20.0)
LOW_WALL = (35.0, 62.0, 2.0, 30.0, 5.0)
FAR_BOX = (90.0, 10.0, 6.0, 6.0, 12.0)

NO_SCATTERERS = make_scene(LINE)
# Receivers at the Tx height: the direct ray has d_z == 0 and takes the
# flat branch of the slab test, which passes WALL and skips LOW_WALL.
LEVEL_RAYS = make_scene(
    [(x, y, 10.0) for x, y, _ in LINE], boxes=(WALL, LOW_WALL, FAR_BOX)
)
# With corridor radius 1 no box center lies in any point's corridor.
BLOCKED = make_scene(LINE, boxes=(WALL, LOW_WALL, FAR_BOX))
# No ray hits a box: every point takes only the free-space loss and its
# shadowing draw.
UNBLOCKED = make_scene(LINE, boxes=(FAR_BOX,))
# Boxes of one footprint and different heights, all cut over the same
# span of each ray from a low Tx, so their edges share t_mid and only a
# stable sort orders them as the scalar path does. With three edges the
# order changes the cascade: heights 20, 5, 12 cost 40 dB more than
# 20, 12, 5.
TWINS = make_scene(LINE, tx=(50.0, 50.0, 3.0),
                   boxes=[WALL[:4] + (height,) for height in (20.0, 5.0)])
TRIPLETS = make_scene(LINE, tx=(50.0, 50.0, 3.0), boxes=[
    WALL[:4] + (height,) for height in (20.0, 5.0, 12.0)])
# A table budget that splits these small scenes into blocks of a few
# points: TABLE_BLOCK_ENTRIES // boxes points each, at least one.
SMALL_BUDGET = 8
# Under SMALL_BUDGET, a route of several point blocks whose rays hit the
# one box only after the first block; without the box, a route of several
# blocks with nothing to hit.
LATE_ROUTE = [(10.0 + 2.0 * k, 20.0, 1.5) for k in range(40)]
LATE_BLOCKERS = make_scene(LATE_ROUTE, boxes=((70.0, 30.0, 6.0, 4.0, 20.0),))
OPEN_ROUTE = make_scene(LATE_ROUTE)
# Six thin walls of different heights between a low Tx and a route along
# the same line: the rays from the Tx cross 6, 5, ..., 0 of them, so one
# block holds rows of every edge count up to 6.
LADDER = make_scene(
    [(x, 50.0, 1.5) for x in (12.0, 22.0, 27.0, 32.0, 37.0, 42.0, 47.0)],
    tx=(50.0, 50.0, 3.0),
    boxes=[(x, 50.0, 1.0, 10.0, height) for x, height in
           zip((20.0, 25.0, 30.0, 35.0, 40.0, 45.0),
               (20.0, 5.0, 12.0, 8.0, 15.0, 4.0))],
)


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


def test_oracle_examples_reach_their_cases():
    def edges(scene):
        return [_blocker_edges(scene, i) for i in range(len(scene.rx_route))]

    assert not any(edges(UNBLOCKED))
    for scene, count in ((TWINS, 2), (TRIPLETS, 3)):
        assert all(len(e) == count and len({t for t, _ in e}) == 1
                   for e in edges(scene))
    assert [len(e) for e in edges(LADDER)] == [6, 5, 4, 3, 2, 1, 0]

    # The blocks scene_features_and_path_loss builds under SMALL_BUDGET.
    blocks = []
    slab_table = scenario._slab_table

    def record_block(p0, seg, lo, hi):
        blocks.append(len(seg))
        return slab_table(p0, seg, lo, hi)

    with patch.object(scenario, "TABLE_BLOCK_ENTRIES", SMALL_BUDGET), \
            patch.object(scenario, "_slab_table", record_block):
        scene_features_and_path_loss(LATE_BLOCKERS)
        late = len(blocks)
        scene_features_and_path_loss(OPEN_ROUTE)
    blocked = [i for i, e in enumerate(edges(LATE_BLOCKERS)) if e]
    assert late > 2 and blocked and min(blocked) >= blocks[0]
    assert len(blocks) - late > 1 and len(OPEN_ROUTE.boxes) == 0


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
    return (cx, cy, width, depth, height)


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
@example(scene=UNBLOCKED, corridor_radius=50.0, shadowing_sigma=3.0)
@example(scene=TWINS, corridor_radius=50.0, shadowing_sigma=3.0)
@example(scene=TRIPLETS, corridor_radius=50.0, shadowing_sigma=0.0)
@example(scene=LATE_BLOCKERS, corridor_radius=50.0, shadowing_sigma=3.0)
@example(scene=OPEN_ROUTE, corridor_radius=50.0, shadowing_sigma=3.0)
@example(scene=LADDER, corridor_radius=50.0, shadowing_sigma=0.0)
def test_random_scenes_bitwise(scene, corridor_radius, shadowing_sigma):
    """At the default table budget a small scene is one block; under
    SMALL_BUDGET its route spans blocks of a few points each."""
    assert_batch_matches_scalar(scene, shadowing_sigma, corridor_radius)
    with patch.object(scenario, "TABLE_BLOCK_ENTRIES", SMALL_BUDGET):
        assert_batch_matches_scalar(scene, shadowing_sigma, corridor_radius)
