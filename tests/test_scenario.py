import dataclasses
import json
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plselect import scenario
from plselect.harness import default_config
from plselect.scenario import (
    FSPL_CONSTANT_DB,
    LAYOUTS,
    MAX_SCENE_TABLE_ENTRIES,
    FeatureCatalog,
    Scene,
    SceneConfig,
    SceneGenerationError,
    generate_scene,
)
from reference_scene import (
    extract_features,
    ground_truth_path_loss,
    segment_box_intersection,
)


def make_scene(boxes=(), tx=(0.0, 0.0, 10.0), route=None,
               frequency=3.5e9, bounds=(-2000.0, -2000.0, 2000.0, 2000.0),
               seed=0):
    """A Scene of box rows (center x, center y, width, depth, height)."""
    if route is None:
        route = ((100.0, 0.0, 1.5), (200.0, 0.0, 1.5))
    return Scene(
        tx_position=tx,
        rx_route=route,
        boxes=boxes,
        carrier_frequency=frequency,
        area_bounds=bounds,
        seed=seed,
    )


class TestCatalog:
    def test_symbols_and_categories(self):
        cat = FeatureCatalog()
        assert cat.n_features == 10
        assert cat.symbols[0] == "D_txrx"
        assert cat.symbols[-1] == "Dif_WEK"
        assert cat.categories == (("Geometry",) * 5 + ("Structure",) * 3
                                  + ("Knowledge",) * 2)

    def test_unequal_tuples_refused(self):
        with pytest.raises(ValueError, match="must align"):
            FeatureCatalog(symbols=("a", "b"), categories=("Generic",))


class TestGenerateScene:
    def test_empty_scene(self):
        cfg = SceneConfig(scatterer_count=(0, 0), route_points=10, seed=7)
        scene = generate_scene(cfg)
        assert scene.boxes.shape == (0, 5)
        assert len(scene.rx_route) == 10

    def test_determinism(self):
        cfg = SceneConfig(scatterer_count=(10, 20), route_points=30, seed=3)
        assert generate_scene(cfg).to_json() == generate_scene(cfg).to_json()

    def test_count_range_and_containment(self):
        cfg = SceneConfig(scatterer_count=(20, 30), route_points=40, seed=1)
        scene = generate_scene(cfg)
        assert 20 <= len(scene.boxes) <= 30
        xmin, ymin, xmax, ymax = scene.area_bounds
        for bxmin, bymin, _, bxmax, bymax, _ in scene.bounds:
            assert bxmin >= xmin and bymin >= ymin
            assert bxmax <= xmax and bymax <= ymax

    def test_placement_failure(self):
        cfg = SceneConfig(
            area_size=(50.0, 50.0),
            scatterer_count=(5, 5),
            scatterer_width=(45.0, 45.0),
            scatterer_depth=(45.0, 45.0),
            route_points=30,
            seed=0,
        )
        with pytest.raises(SceneGenerationError):
            generate_scene(cfg)

    def test_layout_set_after_construction_is_named(self):
        """Refused at construction; an assignment afterwards is refused
        because the config is frozen."""
        with pytest.raises(ValueError, match=r"^SceneConfig\.layout must be "
                           r"one of \('uniform', 'intersection', 'square'\), "
                           r"got 'hexagon'$"):
            SceneConfig(layout="hexagon")
        cfg = SceneConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.layout = "hexagon"


@st.composite
def small_configs(draw):
    """SceneConfigs of every layout, small enough to build by the
    hundred."""
    def pair(lo, hi):
        return sorted(draw(st.tuples(st.floats(lo, hi), st.floats(lo, hi))))

    return SceneConfig(
        layout=draw(st.sampled_from(["uniform", "intersection", "square"])),
        area_size=(draw(st.floats(100.0, 300.0)),
                   draw(st.floats(100.0, 300.0))),
        scatterer_count=tuple(sorted(draw(st.tuples(st.integers(0, 15),
                                                    st.integers(0, 15))))),
        scatterer_width=tuple(pair(2.0, 25.0)),
        scatterer_depth=tuple(pair(2.0, 25.0)),
        route_points=draw(st.integers(2, 60)),
        corridor_width=draw(st.floats(0.0, 40.0)),
        seed=draw(st.integers(0, 2 ** 32)),
    )


class TestPlacement:
    @settings(max_examples=150, deadline=None)
    @given(cfg=small_configs())
    @example(cfg=SceneConfig(layout="square", seed=2))
    @example(cfg=SceneConfig(layout="intersection", corridor_width=0.0))
    def test_boxes_clear_tx_and_route_and_keep_open_space(self, cfg):
        """Each box's footprint, grown by 1 m, lies inside the area and
        holds neither Tx nor any route point (less 1 nm, for rounding).
        The square's box centers keep 0.28 times the area's smaller side
        from its center; the intersection's footprints lie outside both
        corridors."""
        try:
            scene = generate_scene(cfg)
        except SceneGenerationError:
            assume(False)
        w, h = cfg.area_size
        px, py, _ = np.vstack([scene.tx_position, scene.rx_route]).T
        for x, y, width, depth, _ in scene.boxes.tolist():
            assert 0 <= x - width / 2 and x + width / 2 <= w
            assert 0 <= y - depth / 2 and y + depth / 2 <= h
            reach_x, reach_y = width / 2 + 1 - 1e-9, depth / 2 + 1 - 1e-9
            assert not ((abs(px - x) < reach_x)
                        & (abs(py - y) < reach_y)).any()
            if cfg.layout == "square":
                assert math.hypot(x - w / 2, y - h / 2) >= 0.28 * min(w, h)
            if cfg.layout == "intersection":
                assert abs(x - w / 2) - width / 2 >= cfg.corridor_width / 2
                assert abs(y - h / 2) - depth / 2 >= cfg.corridor_width / 2


def json_dumps_scene(scene):
    """The scene document as json.dumps writes it."""
    doc = {
        "tx_position": scene.tx_position.tolist(),
        "scatterers": [
            {"center": [x, y], "width": w, "depth": d, "height": h}
            for x, y, w, d, h in scene.boxes.tolist()
        ],
        "rx_route": scene.rx_route.tolist(),
        "carrier_frequency": scene.carrier_frequency,
        "area_bounds": list(scene.area_bounds),
        "seed": scene.seed,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


# Non-finite coordinates, which json spells Infinity and NaN, and numbers
# of every size and sign.
any_float = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def json_scenes(draw):
    size = st.floats(1e-3, 40.0)
    boxes = st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
                      size, size, size)
    bound = st.one_of(st.integers(100, 10**6), st.floats(100.0, 1e300))
    try:
        return Scene(
            tx_position=draw(st.tuples(any_float, any_float, any_float)),
            rx_route=draw(st.lists(st.tuples(any_float, any_float,
                                             any_float), min_size=2,
                                   max_size=6)),
            boxes=draw(st.lists(boxes, max_size=4)),
            carrier_frequency=draw(st.one_of(
                st.floats(1e6, 1e12), st.floats(1e6, 1e12).map(np.float64),
                st.integers(1, 10**12))),
            area_bounds=(-draw(bound), -draw(bound), draw(bound), draw(bound)),
            seed=draw(st.integers(0, 2**80)),
        )
    except ValueError:
        assume(False)


class TestSceneJson:
    @settings(max_examples=200, deadline=None)
    @given(scene=json_scenes())
    @example(scene=generate_scene(SceneConfig(layout="intersection", seed=1)))
    @example(scene=generate_scene(SceneConfig(layout="square", seed=2)))
    # No boxes: json writes "scatterers": [] on one line.
    @example(scene=generate_scene(SceneConfig(scatterer_count=(0, 0))))
    @example(scene=make_scene(
        tx=(np.inf, np.nan, 10.0), route=[(-np.inf, 0.0, 1.5), (np.nan, 1, 2)],
        frequency=np.float64(3.5e9), bounds=(-100, -100, 100, 100),
        seed=2**70))
    # Finite route points whose difference overflows.
    @example(scene=make_scene(route=[(1e308, 0.0, 1.0), (-1e308, 0.0, 1.0)]))
    def test_to_json_is_json_dumps(self, scene):
        assert scene.to_json() == json_dumps_scene(scene)


class TestSceneColumns:
    def test_columns_are_read_only_copies(self):
        tx = np.array([0.0, 0.0, 10.0])
        route = np.array([[100.0, 0.0, 1.5], [200.0, 0.0, 1.5]])
        boxes = np.array([[50.0, 20.0, 4.0, 6.0, 8.0]])
        scene = make_scene(boxes=boxes, tx=tx, route=route)
        for name, given in (("tx_position", tx), ("rx_route", route),
                            ("boxes", boxes)):
            column = getattr(scene, name)
            assert column.dtype == float and not column.flags.writeable
            assert np.array_equal(column, given)
            given += 1.0
            assert not np.array_equal(column, given)
            with pytest.raises(ValueError):
                column[0] = 0.0

    def test_bounds_and_volumes_follow_the_box_rows(self):
        scene = make_scene(boxes=[(50.0, 20.0, 4.0, 6.0, 8.0),
                                  (-30.0, 5.0, 1.0, 3.0, 2.5)])
        assert scene.bounds.tolist() == [
            [48.0, 17.0, 0.0, 52.0, 23.0, 8.0],
            [-30.5, 3.5, 0.0, -29.5, 6.5, 2.5],
        ]
        assert scene.volumes.tolist() == [192.0, 7.5]

    @pytest.mark.parametrize("columns, message", [
        (dict(route=[(100.0, 0.0), (200.0, 0.0)]), "rx_route must have shape"),
        (dict(route=[100.0, 0.0, 1.5, 200.0, 0.0, 1.5]),
         "rx_route must have shape"),
        (dict(boxes=[(50.0, 20.0, 4.0, 6.0)]), "boxes must have shape"),
        (dict(boxes=[50.0, 20.0, 4.0, 6.0, 8.0]), "boxes must have shape"),
        (dict(tx=(0.0, 10.0)), "tx_position must have shape"),
        (dict(route=[(100.0, 0.0, 1.5)]), "at least 2 points"),
        (dict(tx=(0.0, 0.0, 0.0)), "tx height must be positive"),
    ])
    def test_malformed_columns_raise(self, columns, message):
        with pytest.raises(ValueError, match=message):
            make_scene(**columns)

    @pytest.mark.parametrize("column", [2, 3, 4])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_non_positive_dimension_raises(self, column, value):
        box = [50.0, 20.0, 4.0, 6.0, 8.0]
        box[column] = value
        with pytest.raises(ValueError, match="strictly positive"):
            make_scene(boxes=[box])

    @pytest.mark.parametrize("box", [
        (1.0, 50.0, 4.0, 4.0, 5.0),
        (50.0, 1.0, 4.0, 4.0, 5.0),
        (99.0, 50.0, 4.0, 4.0, 5.0),
        (50.0, 99.0, 4.0, 4.0, 5.0),
    ])
    def test_footprint_outside_area_raises(self, box):
        with pytest.raises(ValueError, match="outside area bounds"):
            make_scene(boxes=[box], bounds=(0.0, 0.0, 100.0, 100.0))
        inside = (50.0, 50.0) + box[2:]
        make_scene(boxes=[inside], bounds=(0.0, 0.0, 100.0, 100.0))


def scalar_waypoint_route(waypoints, n_points, rx_height):
    """The point-by-point walk along the polyline that the array
    _route_along_waypoints must reproduce bit for bit."""
    waypoints = [np.asarray(p, dtype=float) for p in waypoints]
    segments = list(zip(waypoints[:-1], waypoints[1:]))
    lengths = [np.linalg.norm(b - a) for a, b in segments]
    total = float(sum(lengths))
    route = []
    for k in range(n_points):
        target = total * k / (n_points - 1)
        acc = 0.0
        for i, ((a, b), length) in enumerate(zip(segments, lengths)):
            if target <= acc + length or i == len(segments) - 1:
                frac = (target - acc) / length if length > 0 else 0.0
                p = a + min(max(frac, 0.0), 1.0) * (b - a)
                route.append((float(p[0]), float(p[1]), float(rx_height)))
                break
            acc += length
    return route


class TestRouteOracle:
    # Whole-meter coordinates repeat often, giving zero-length segments.
    coordinate = st.one_of(st.integers(0, 3).map(float),
                           st.floats(0.0, 1000.0, allow_nan=False))

    @settings(max_examples=300, deadline=None)
    @given(waypoints=st.lists(st.tuples(coordinate, coordinate),
                              min_size=2, max_size=6),
           n_points=st.integers(2, 80))
    @example(waypoints=[(0.0, 0.0), (0.0, 0.0)], n_points=5)
    @example(waypoints=[(1.0, 1.0), (1.0, 1.0), (3.0, 1.0)], n_points=7)
    def test_waypoint_route_matches_scalar_walk(self, waypoints, n_points):
        route = scenario._route_along_waypoints(waypoints, n_points, 1.5)
        expected = np.array(scalar_waypoint_route(waypoints, n_points, 1.5))
        assert route.shape == (n_points, 3)
        np.testing.assert_array_equal(route.view(np.int64),
                                      expected.view(np.int64))

    @pytest.mark.parametrize("area_size", [(400.0, 400.0), (250.0, 310.0)])
    @pytest.mark.parametrize("route_points", [2, 3, 7, 53, 100, 600])
    def test_square_ring_matches_scalar_trigonometry(self, area_size,
                                                     route_points):
        cfg = SceneConfig(area_size=area_size, route_points=route_points)
        _, route = scenario._square_tx_route(cfg, None)
        w, h = area_size
        radius = 0.38 * min(w, h)
        angles = np.linspace(0.0, 2.0 * np.pi, route_points, endpoint=False)
        expected = np.array([(float(w / 2.0 + radius * np.cos(a)),
                              float(h / 2.0 + radius * np.sin(a)), 1.5)
                             for a in angles])
        np.testing.assert_array_equal(route.view(np.int64),
                                      expected.view(np.int64))


# np.allclose's default tolerances, near which a route's points are drawn:
# Scene refuses only an exact repeat, so points a tolerance apart are kept.
RTOL, ATOL = 1e-5, 1e-8


@st.composite
def routes_with_near_repeats(draw):
    """Routes built backward from their last point: each coordinate of a
    point is the next point's, moved by a multiple of the np.allclose
    tolerance there, from an exact repeat through just inside and just
    outside to far outside."""
    coordinate = st.floats(-1e4, 1e4, allow_nan=False)
    factor = st.sampled_from([0.0, 0.5, 1 - 1e-9, 1 + 1e-9, 2.0, 1e6])
    sign = st.sampled_from([-1.0, 1.0])
    route = [tuple(draw(coordinate) for _ in range(3))]
    for _ in range(draw(st.integers(1, 5))):
        route.insert(0, tuple(
            b + draw(sign) * draw(factor) * (ATOL + RTOL * abs(b))
            for b in route[0]))
    return tuple(route)


class TestRouteDistinctness:
    @staticmethod
    def has_repeat(route):
        # The per-pair check the array step must agree with: only exactly
        # equal consecutive points are one point.
        return any(np.array_equal(a, b)
                   for a, b in zip(route[:-1], route[1:]))

    @settings(max_examples=300, deadline=None)
    @given(route=routes_with_near_repeats())
    @example(route=((1.0, 2.0, 1.5), (1.0, 2.0, 1.5)))
    @example(route=((0.0, 0.0, 1.5), (ATOL * (1 - 1e-9), 0.0, 1.5)))
    @example(route=((0.0, 0.0, 1.5), (ATOL * (1 + 1e-9), 0.0, 1.5)))
    @example(route=((100.0, 0.0, 1.5), (200.0, 0.0, 1.5),
                    (200.0, 0.0, 1.5 + RTOL * 1.5 * (1 - 1e-9))))
    # Finite points whose difference overflows.
    @example(route=((1e308, 0.0, 1.0), (-1e308, 0.0, 1.0)))
    def test_matches_per_pair_array_equal(self, route):
        if self.has_repeat(route):
            with pytest.raises(ValueError, match="^consecutive route points"
                               " must be distinct$"):
                make_scene(route=route)
        else:
            assert np.array_equal(make_scene(route=route).rx_route, route)

    def test_repeat_is_found_at_any_position(self):
        route = [(float(i), 0.0, 1.5) for i in range(6)]
        for i in range(5):
            repeated = route[:i + 1] + route[i:]
            assert self.has_repeat(repeated)
            with pytest.raises(ValueError, match="must be distinct"):
                make_scene(route=repeated)


class TestSceneConfigRanges:
    @pytest.mark.parametrize("field, value", [
        ("carrier_frequency", 0.0),
        ("carrier_frequency", -3.5e9),
        ("carrier_frequency", float("inf")),
        ("area_size", (0.0, 0.0)),
        ("area_size", (400.0, float("nan"))),
        ("area_size", (400.0,)),
        ("scatterer_height", (0.0, 25.0)),
        ("scatterer_height", (25.0, 5.0)),
        ("scatterer_width", (8.0, float("inf"))),
        ("scatterer_depth", (-8.0, 20.0)),
        ("scatterer_count", (30, 20)),
        ("scatterer_count", (-1, 2)),
        ("route_points", 1),
        ("tx_height", 0.0),
        ("tx_height", float("nan")),
        ("rx_height", float("inf")),
        ("rx_height", float("nan")),
        ("corridor_width", -1.0),
        ("corridor_width", float("nan")),
        ("scatterer_width", (8.0, 400.5)),
        ("scatterer_depth", (500.0, 500.0)),
        ("layout", "hexagon"),
    ])
    def test_out_of_range_value_names_field(self, field, value):
        with pytest.raises(ValueError, match=f"SceneConfig.{field} must"):
            SceneConfig(**{field: value})

    def test_edge_values_accepted(self):
        SceneConfig(scatterer_count=(0, 0), scatterer_height=(5.0, 5.0),
                    route_points=2, area_size=(1e-3, 1e6),
                    scatterer_width=(1e-3, 1e-3), corridor_width=0.0)


class TestSceneTableBound:
    @settings(max_examples=60, deadline=None)
    @given(cfg=small_configs())
    # Cells of 32 m: the x axis fits one cell only by the arange's 1e-9
    # slack, the y axis two; an area narrower than a cell fits none.
    @example(cfg=SceneConfig(area_size=(32.0, 64.0),
                             scatterer_width=(8.0, 20.0)))
    @example(cfg=SceneConfig(area_size=(20.0, 400.0),
                             scatterer_width=(8.0, 20.0)))
    def test_grid_cells_counted_without_building(self, cfg):
        """_grid_cells counts the cells whose arange axes _grid_boxes
        hands to np.meshgrid."""
        axes = []
        meshgrid = np.meshgrid

        def record(xs, ys, **kwargs):
            axes.append((len(xs), len(ys)))
            return meshgrid(xs, ys, **kwargs)

        with patch.object(np, "meshgrid", record):
            scenario._grid_boxes(cfg, np.random.default_rng(0),
                                 np.zeros((1, 2)))
        [(nx, ny)] = axes
        assert scenario._grid_cells(cfg) == (
            nx * ny, "scatterer_width and scatterer_depth")

    @pytest.mark.parametrize("cfg", [
        *(SceneConfig(layout=layout) for layout in LAYOUTS),
        *default_config(0).scenarios.values(),
    ])
    def test_default_layouts_within_bound(self, cfg):
        boxes, _ = LAYOUTS[cfg.layout][2](cfg)
        assert boxes * (cfg.route_points + 1) <= MAX_SCENE_TABLE_ENTRIES
        generate_scene(cfg)

    @pytest.mark.parametrize("changes, fields, count", [
        # 250,000 cells a side on the default 400 m area.
        ({"layout": "intersection", "scatterer_width": (1e-3, 1e-3),
          "scatterer_depth": (1e-3, 1e-3)},
         "scatterer_width and scatterer_depth", "62500000000"),
        # Cells of 1.6 x the smallest double: inf of them a side.
        ({"layout": "intersection", "scatterer_width": (5e-324, 5e-324),
          "scatterer_depth": (5e-324, 5e-324)},
         "scatterer_width and scatterer_depth", "inf"),
        ({"scatterer_count": (0, MAX_SCENE_TABLE_ENTRIES + 1)},
         "scatterer_count", str(MAX_SCENE_TABLE_ENTRIES + 1)),
        ({"layout": "square", "route_points": MAX_SCENE_TABLE_ENTRIES + 1},
         "route_points", str(MAX_SCENE_TABLE_ENTRIES + 1)),
        ({"scatterer_count": (0, MAX_SCENE_TABLE_ENTRIES // 2),
          "route_points": 2},
         "scatterer_count and route_points",
         str(MAX_SCENE_TABLE_ENTRIES // 2 * 3)),
    ])
    def test_oversized_scene_refused_before_building(self, changes, fields,
                                                     count):
        """Refused at construction with no array built; the fields cannot
        be set afterwards, because the config is frozen."""
        message = (rf"^SceneConfig\.{fields} must ask for at most "
                   rf"{MAX_SCENE_TABLE_ENTRIES} .*, got {count}$")
        cfg = SceneConfig()
        built = AssertionError("a scene array was built")
        with patch.object(np, "meshgrid", side_effect=built), \
                patch.object(np, "arange", side_effect=built):
            with pytest.raises(ValueError, match=message):
                SceneConfig(**changes)
        for name, value in changes.items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, value)


class TestPathLoss:
    def test_fspl_value(self):
        scene = make_scene(route=((1000.0, 0.0, 10.0), (1001.0, 0.0, 10.0)))
        expected = 20 * np.log10(1000) + 20 * np.log10(3.5e9) + FSPL_CONSTANT_DB
        got = ground_truth_path_loss(scene, 0, shadowing_sigma=0.0)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(103.33, abs=0.01)

    def test_distance_doubling(self):
        scene = make_scene(
            route=((500.0, 0.0, 10.0), (1000.0, 0.0, 10.0))
        )
        a = ground_truth_path_loss(scene, 0, shadowing_sigma=0.0)
        b = ground_truth_path_loss(scene, 1, shadowing_sigma=0.0)
        assert b - a == pytest.approx(20 * np.log10(2), abs=1e-9)

    def test_blocker_adds_loss(self):
        blocker = (100.0, 0.0, 10, 10, 30)
        route = ((200.0, 0.0, 1.5), (210.0, 0.0, 1.5))
        blocked = make_scene(boxes=[blocker], route=route)
        clear = make_scene(route=route)
        assert ground_truth_path_loss(
            blocked, 0, shadowing_sigma=0.0
        ) > ground_truth_path_loss(clear, 0, shadowing_sigma=0.0)

    def test_zero_distance_refused(self):
        with pytest.raises(ValueError, match="distance must be positive"):
            scenario.free_space_path_loss_db(0, 3.5e9)

    def test_rx_at_tx_raises(self):
        scene = make_scene(route=((0.0, 0.0, 10.0), (10.0, 0.0, 10.0)))
        with pytest.raises(ValueError):
            ground_truth_path_loss(scene, 0)

    def test_monotonic_radial_route(self):
        route = tuple((float(d), 0.0, 1.5) for d in range(50, 500, 25))
        scene = make_scene(route=route)
        losses = [
            ground_truth_path_loss(scene, i, shadowing_sigma=0.0)
            for i in range(len(route))
        ]
        assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_shadowing_deterministic_per_point(self):
        scene = make_scene(route=((100.0, 0.0, 1.5), (200.0, 0.0, 1.5)))
        a = ground_truth_path_loss(scene, 0, shadowing_sigma=3.0)
        b = ground_truth_path_loss(scene, 0, shadowing_sigma=3.0)
        assert a == b
        # different route points draw different shadowing
        base0 = ground_truth_path_loss(scene, 0, shadowing_sigma=0.0)
        base1 = ground_truth_path_loss(scene, 1, shadowing_sigma=0.0)
        s0 = ground_truth_path_loss(scene, 0, shadowing_sigma=3.0) - base0
        s1 = ground_truth_path_loss(scene, 1, shadowing_sigma=3.0) - base1
        assert s0 != s1


class TestExtractFeatures:
    def test_345_triangle(self):
        scene = make_scene(
            tx=(0.0, 0.0, 3.0), route=((3.0, 4.0, 3.0), (6.0, 8.0, 3.0))
        )
        assert extract_features(scene, 0)[0] == pytest.approx(5.0)

    def test_height_difference_signed(self):
        scene = make_scene(tx=(0.0, 0.0, 10.0),
                           route=((50.0, 0.0, 1.5), (60.0, 0.0, 1.5)))
        assert extract_features(scene, 0)[1] == pytest.approx(8.5)

    def test_empty_scene_sentinels(self):
        scene = make_scene()
        f = extract_features(scene, 0)
        assert f[7] == 0.0  # blockage
        assert f[8] == 0.0  # reflection contribution
        assert f[9] == 0.0  # diffraction parameter
        assert f[2] == f[3] == f[4] == f[5] == f[6] == 0.0

    def test_finite_and_ranges_random_scenes(self):
        for seed in range(10):
            cfg = SceneConfig(scatterer_count=(10, 25), route_points=20,
                              seed=seed)
            scene = generate_scene(cfg)
            for i in range(len(scene.rx_route)):
                f = extract_features(scene, i)
                assert np.all(np.isfinite(f))
                assert f[0] > 0
                assert f[5] >= 0
                assert f[7] >= 0 and f[7] == int(f[7])

    def test_determinism(self):
        cfg = SceneConfig(scatterer_count=(10, 20), route_points=15, seed=9)
        scene = generate_scene(cfg)
        a = extract_features(scene, 7)
        b = extract_features(scene, 7)
        assert np.array_equal(a, b)


class TestSegmentBoxIntersection:
    def brute_force_hit(self, p0, p1, bounds, n=10_000):
        t = np.linspace(0.0, 1.0, n)[:, None]
        pts = np.asarray(p0) + t * (np.asarray(p1) - np.asarray(p0))
        lo = np.asarray(bounds[:3])
        hi = np.asarray(bounds[3:])
        inside = np.all((pts >= lo) & (pts <= hi), axis=1)
        return bool(inside.any())

    def test_matches_brute_force_over_random_scenes(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            p0 = rng.uniform(-50, 450, size=3)
            p1 = rng.uniform(-50, 450, size=3)
            center = rng.uniform(0, 400, size=2)
            box = (*center, rng.uniform(5, 60), rng.uniform(5, 60),
                   rng.uniform(5, 60))
            bounds = make_scene(boxes=[box]).bounds[0]
            fast = segment_box_intersection(p0, p1, bounds) is not None
            brute = self.brute_force_hit(p0, p1, bounds)
            if fast != brute:
                # sampling can miss a sliver crossing; re-check densely
                brute = self.brute_force_hit(p0, p1, bounds, n=2_000_000)
            assert fast == brute

    def test_blockage_count_matches_brute_force(self):
        # 100 random scenes, 10,000 sample points per segment.
        rng = np.random.default_rng(7)
        t = np.linspace(0.0, 1.0, 10_000)[:, None]
        for seed in range(100):
            cfg = SceneConfig(scatterer_count=(10, 20), route_points=10,
                              seed=seed)
            scene = generate_scene(cfg)
            i = int(rng.integers(len(scene.rx_route)))
            f8 = extract_features(scene, i)[7]
            p0 = scene.tx_position
            p1 = scene.rx_route[i]
            pts = p0 + t * (p1 - p0)
            brute = 0
            for bounds in scene.bounds:
                lo, hi = bounds[:3], bounds[3:]
                brute += bool(
                    np.all((pts >= lo) & (pts <= hi), axis=1).any()
                )
            assert f8 == brute
