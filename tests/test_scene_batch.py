"""The batch path against the scalar reference, bit for bit.

scene_features_and_path_loss must return exactly what extract_features and
ground_truth_path_loss return point by point: the dataset CSVs, and every
result derived from them, depend on each bit.
"""

import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plselect import scenario
from plselect.harness import default_config
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

# The array cascade (pow for **, where and minimum against Python's min
# and max) and the culled tables must keep the reference's bits at the
# numpy floor.
pytestmark = pytest.mark.numpy_floor


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


def keep_every_box(dist, reach):
    """scenario._in_reach with nothing culled."""
    return np.ones(dist.shape[1], dtype=bool)


def assert_culling_keeps_bits(scene, shadowing_sigma=3.0,
                              corridor_radius=50.0):
    """The batch path gives the same bits as with every box kept."""
    culled = scene_features_and_path_loss(scene, shadowing_sigma,
                                          corridor_radius)
    with patch.object(scenario, "_in_reach", keep_every_box):
        full = scene_features_and_path_loss(scene, shadowing_sigma,
                                            corridor_radius)
    for got, want in zip(culled, full):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def translated(scene, shift):
    """scene moved by shift meters in x and in y."""
    move = np.array([shift, shift, 0.0, 0.0, 0.0])
    xmin, ymin, xmax, ymax = scene.area_bounds
    return Scene(tx_position=scene.tx_position + move[:3],
                 rx_route=scene.rx_route + move[:3],
                 boxes=scene.boxes + move,
                 carrier_frequency=scene.carrier_frequency,
                 area_bounds=(xmin + shift, ymin + shift,
                              xmax + shift, ymax + shift),
                 seed=scene.seed)


@pytest.mark.parametrize("layout", ["intersection", "square", "uniform"])
# 2**32 + 5: SeedSequence splits the scene seed into two 32-bit words.
@pytest.mark.parametrize("seed", [*range(5), 2**32 + 5])
def test_generated_scenes_bitwise(layout, seed):
    scene = generate_scene(SceneConfig(layout=layout, seed=seed))
    assert_batch_matches_scalar(scene)


@pytest.mark.parametrize("layout", ["intersection", "square", "uniform"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("corridor_radius", [0.0, 5.0, 50.0, 200.0])
def test_culling_keeps_the_bits(layout, seed, corridor_radius):
    scene = generate_scene(SceneConfig(layout=layout, seed=seed,
                                       route_points=300))
    assert_culling_keeps_bits(scene, corridor_radius=corridor_radius)


@pytest.mark.parametrize("layout", ["intersection", "square", "uniform"])
def test_scenes_far_from_the_origin_bitwise(layout):
    # 1e6 m out, a coordinate's rounding is about 1e-10 m. A 21-point
    # route has one point on the intersection's corner; the published
    # scenes of that layout, 600 points whose steps go down to 0.43 m
    # (intersection) and 1.59 m (square), are moved out whole.
    configs = [SceneConfig(layout=layout, route_points=21)] + [
        sc for sc in default_config().scenarios.values()
        if sc.layout == layout]
    for config in configs:
        scene = translated(generate_scene(config), 1e6)
        assert_batch_matches_scalar(scene)
        assert_culling_keeps_bits(scene)


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

# A box of 20 x 44 m whose center lies 20 m from each ray, beyond a
# corridor radius of 0 or 5 m, while every ray crosses its footprint.
WIDE_BOX = make_scene(LINE[:2], boxes=((30.0, 70.0, 20.0, 44.0, 20.0),),
                      tx=(50.0, 50.0, 3.0))


def grazing_scene(shift):
    """A 2.6 m square box whose corner the first ray passes at a right
    angle to the diagonal: the ray grazes the box at the corner, and its
    distance from the center is the half diagonal, up to rounding."""
    center = shift + 50.0
    corner = center + 1.3
    return Scene(tx_position=(corner + 10.0, corner - 10.0, 10.0),
                 rx_route=[(corner - 10.0, corner + 10.0, 1.5),
                           (corner - 10.0, corner + 100.0, 1.5)],
                 boxes=[(center, center, 2.6, 2.6, 20.0)],
                 carrier_frequency=3.5e9,
                 area_bounds=(shift, shift, shift + 200.0, shift + 200.0),
                 seed=1)


# 1e6 m from the origin the grazing ray's rounding reaches 1e-10 m.
GRAZING = grazing_scene(1e6)


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


def test_culling_examples_reach_their_cases():
    """The culled tables hold no box in some block and every box in
    another, and the hand scenes reach the hits that only the half
    diagonal or the slack keeps."""
    columns = []
    slab_table = scenario._slab_table

    def record_columns(p0, seg, lo, hi):
        columns.append(len(lo))
        return slab_table(p0, seg, lo, hi)

    def blocks(scene, corridor_radius):
        columns.clear()
        with patch.object(scenario, "TABLE_BLOCK_ENTRIES", SMALL_BUDGET), \
                patch.object(scenario, "_slab_table", record_columns):
            scene_features_and_path_loss(scene,
                                         corridor_radius=corridor_radius)
        return list(columns)

    # The first blocks of LATE_ROUTE lie over 5 m from the box in x.
    late = blocks(LATE_BLOCKERS, 5.0)
    assert late[0] == 0 and 1 in late
    assert set(blocks(LADDER, 50.0)) == {len(LADDER.boxes)}
    for corridor_radius in (0.0, 5.0):
        features, _ = assert_batch_matches_scalar(
            WIDE_BOX, corridor_radius=corridor_radius)
        assert np.all(features[:, 7] == 1.0)
        assert np.all(features[:, 2:7] == 0.0)
    for shift in (0.0, 1e6):
        features, _ = assert_batch_matches_scalar(
            grazing_scene(shift), corridor_radius=0.0)
        assert features[:, 7].tolist() == [1.0, 0.0]


# A box 4.2e154 m long whose footprint holds every ray, with its center
# 2e154 m out: the square of that distance overflows, so every corridor
# distance is inf, and only the rule that keeps a box of a non-finite
# distance keeps the hit.
FAR_GIANT = Scene(tx_position=(0.0, 0.0, 10.0),
                  rx_route=[(1.0, 0.0, 1.5), (2.0, 0.0, 1.5)],
                  boxes=[(2e154, 0.0, 4.2e154, 10.0, 20.0)],
                  carrier_frequency=3.5e9,
                  area_bounds=(-1e155, -100.0, 1e155, 100.0), seed=3)


# The scalar reference in tests/reference_scene.py overflows on this
# scene; the batch path does not warn (test_entry_points_do_not_warn).
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_distances_keep_their_boxes():
    features, _ = assert_batch_matches_scalar(FAR_GIANT,
                                              corridor_radius=5.0)
    assert np.all(features[:, 7] == 1.0)
    assert_culling_keeps_bits(FAR_GIANT, corridor_radius=5.0)


def test_entry_points_do_not_warn():
    """generate_scene and scene_features_and_path_loss each run under one
    floating-point scope, so a scene whose values overflow warns of
    nothing: its non-finite entries are masked, or its rows refused by
    check_rows."""
    # Cells wider than the area: no boxes, and a route that overflows.
    huge = SceneConfig(layout="intersection", area_size=(1.7e308, 1.7e308),
                       scatterer_width=(1e308, 1.1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scene_features_and_path_loss(FAR_GIANT, corridor_radius=5.0)
        generate_scene(huge)


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
@example(scene=WIDE_BOX, corridor_radius=0.0, shadowing_sigma=3.0)
@example(scene=WIDE_BOX, corridor_radius=5.0, shadowing_sigma=0.0)
@example(scene=LATE_BLOCKERS, corridor_radius=5.0, shadowing_sigma=3.0)
@example(scene=GRAZING, corridor_radius=0.0, shadowing_sigma=3.0)
def test_random_scenes_bitwise(scene, corridor_radius, shadowing_sigma):
    """At the default table budget a small scene is one block; under
    SMALL_BUDGET its route spans blocks of a few points each. At both,
    culling boxes changes no bit."""
    assert_batch_matches_scalar(scene, shadowing_sigma, corridor_radius)
    assert_culling_keeps_bits(scene, shadowing_sigma, corridor_radius)
    with patch.object(scenario, "TABLE_BLOCK_ENTRIES", SMALL_BUDGET):
        assert_batch_matches_scalar(scene, shadowing_sigma, corridor_radius)
        assert_culling_keeps_bits(scene, shadowing_sigma, corridor_radius)
