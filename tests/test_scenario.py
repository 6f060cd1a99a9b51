import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plselect.scenario import (
    FSPL_CONSTANT_DB,
    FeatureCatalog,
    Scatterer,
    Scene,
    SceneConfig,
    SceneGenerationError,
    extract_features,
    generate_scene,
    ground_truth_path_loss,
    segment_box_intersection,
)


def make_scene(scatterers=(), tx=(0.0, 0.0, 10.0), route=None,
               frequency=3.5e9, bounds=(-2000.0, -2000.0, 2000.0, 2000.0),
               seed=0):
    if route is None:
        route = ((100.0, 0.0, 1.5), (200.0, 0.0, 1.5))
    return Scene(
        tx_position=tx,
        scatterers=tuple(scatterers),
        rx_route=tuple(route),
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
        assert cat.indices_for_category("Geometry") == [1, 2, 3, 4, 5]
        assert cat.indices_for_category("Structure") == [6, 7, 8]
        assert cat.indices_for_category("Knowledge") == [9, 10]


class TestGenerateScene:
    def test_empty_scene(self):
        cfg = SceneConfig(scatterer_count=(0, 0), route_points=10, seed=7)
        scene = generate_scene(cfg)
        assert len(scene.scatterers) == 0
        assert scene.n_route_points == 10

    def test_determinism(self):
        cfg = SceneConfig(scatterer_count=(10, 20), route_points=30, seed=3)
        assert generate_scene(cfg).to_json() == generate_scene(cfg).to_json()

    def test_count_range_and_containment(self):
        cfg = SceneConfig(scatterer_count=(20, 30), route_points=40, seed=1)
        scene = generate_scene(cfg)
        assert 20 <= len(scene.scatterers) <= 30
        xmin, ymin, xmax, ymax = scene.area_bounds
        for s in scene.scatterers:
            bxmin, bymin, _, bxmax, bymax, _ = s.bounds
            assert bxmin >= xmin and bymin >= ymin
            assert bxmax <= xmax and bymax <= ymax

    def test_placement_failure(self):
        cfg = SceneConfig(
            area_size=(50.0, 50.0),
            scatterer_count=(5, 5),
            scatterer_width=(45.0, 45.0),
            scatterer_depth=(45.0, 45.0),
            route_points=30,
            max_placement_retries=20,
            seed=0,
        )
        with pytest.raises(SceneGenerationError):
            generate_scene(cfg)

    def test_json_round_trip(self):
        cfg = SceneConfig(scatterer_count=(5, 8), route_points=12, seed=11)
        scene = generate_scene(cfg)
        assert Scene.from_json(scene.to_json()) == scene


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)

VALID_SCENE = json.loads(generate_scene(
    SceneConfig(scatterer_count=(2, 3), route_points=4, seed=5)).to_json())


@st.composite
def mutated_scene_docs(draw):
    """A valid scene document with one entry, at any depth, deleted or
    replaced by an arbitrary JSON value."""
    doc = json.loads(json.dumps(VALID_SCENE))
    node = doc
    while True:
        key = draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(JSON_VALUES)
        return doc


class TestSceneFromJson:
    @pytest.mark.parametrize("text, message", [
        ("{}", "no key 'tx_position'"),
        ("[]", "must be an object"),
        ("3", "must be an object"),
        ('{"tx_position": [1, 2]}', "'tx_position': expected 3 numbers"),
    ])
    def test_bad_document_names_key(self, text, message):
        with pytest.raises(ValueError, match=message):
            Scene.from_json(text)

    @pytest.mark.parametrize("key, value, message", [
        ("seed", 1.5, "'seed': expected an integer"),
        ("carrier_frequency", "3.5e9", "'carrier_frequency': expected a"),
        ("carrier_frequency", float("nan"), "'carrier_frequency': expected"),
        ("rx_route", {"a": 1}, "'rx_route': expected an array"),
        ("scatterers", [{"center": [1, 2]}], "'scatterers': a scatterer has"),
        ("area_bounds", [0, 0, True, 400], "'area_bounds': expected a"),
    ])
    def test_malformed_key_named(self, key, value, message):
        doc = dict(VALID_SCENE, **{key: value})
        with pytest.raises(ValueError, match=message):
            Scene.from_json(json.dumps(doc))

    @settings(max_examples=300, deadline=None)
    @given(doc=JSON_VALUES | mutated_scene_docs())
    @example(doc=dict(VALID_SCENE, tx_position=[10 ** 400, 0, 1]))
    def test_any_document_loads_or_raises_value_error(self, doc):
        try:
            scene = Scene.from_json(json.dumps(doc))
        except ValueError:
            return
        assert Scene.from_json(scene.to_json()) == scene


# np.allclose's default tolerances.
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
        # The per-pair check the array step must agree with.
        return any(np.allclose(a, b) for a, b in zip(route[:-1], route[1:]))

    @settings(max_examples=300, deadline=None)
    @given(route=routes_with_near_repeats())
    @example(route=((1.0, 2.0, 1.5), (1.0, 2.0, 1.5)))
    @example(route=((0.0, 0.0, 1.5), (ATOL * (1 - 1e-9), 0.0, 1.5)))
    @example(route=((0.0, 0.0, 1.5), (ATOL * (1 + 1e-9), 0.0, 1.5)))
    @example(route=((100.0, 0.0, 1.5), (200.0, 0.0, 1.5),
                    (200.0, 0.0, 1.5 + RTOL * 1.5 * (1 - 1e-9))))
    def test_matches_per_pair_allclose(self, route):
        if self.has_repeat(route):
            with pytest.raises(ValueError, match="^consecutive route points"
                               " must be distinct$"):
                make_scene(route=route)
        else:
            assert make_scene(route=route).rx_route == route

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
    ])
    def test_out_of_range_value_names_field(self, field, value):
        with pytest.raises(ValueError, match=f"SceneConfig.{field} must"):
            SceneConfig(**{field: value})

    def test_edge_values_accepted(self):
        SceneConfig(scatterer_count=(0, 0), scatterer_height=(5.0, 5.0),
                    route_points=2, area_size=(1e-3, 1e6))


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
        blocker = Scatterer(center=(100.0, 0.0), width=10, depth=10, height=30)
        route = ((200.0, 0.0, 1.5), (210.0, 0.0, 1.5))
        blocked = make_scene(scatterers=[blocker], route=route)
        clear = make_scene(route=route)
        assert ground_truth_path_loss(
            blocked, 0, shadowing_sigma=0.0
        ) > ground_truth_path_loss(clear, 0, shadowing_sigma=0.0)

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
            for i in range(scene.n_route_points):
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
            box = Scatterer(
                center=tuple(center),
                width=rng.uniform(5, 60),
                depth=rng.uniform(5, 60),
                height=rng.uniform(5, 60),
            )
            fast = segment_box_intersection(p0, p1, box.bounds) is not None
            brute = self.brute_force_hit(p0, p1, box.bounds)
            if fast != brute:
                # sampling can miss a sliver crossing; re-check densely
                brute = self.brute_force_hit(p0, p1, box.bounds, n=2_000_000)
            assert fast == brute

    def test_blockage_count_matches_brute_force(self):
        # 100 random scenes, 10,000 sample points per segment.
        rng = np.random.default_rng(7)
        t = np.linspace(0.0, 1.0, 10_000)[:, None]
        for seed in range(100):
            cfg = SceneConfig(scatterer_count=(10, 20), route_points=10,
                              seed=seed)
            scene = generate_scene(cfg)
            i = int(rng.integers(scene.n_route_points))
            f8 = extract_features(scene, i)[7]
            p0 = np.asarray(scene.tx_position)
            p1 = np.asarray(scene.rx_route[i])
            pts = p0 + t * (p1 - p0)
            brute = 0
            for s in scene.scatterers:
                lo = np.asarray(s.bounds[:3])
                hi = np.asarray(s.bounds[3:])
                brute += bool(
                    np.all((pts >= lo) & (pts <= hi), axis=1).any()
                )
            assert f8 == brute
