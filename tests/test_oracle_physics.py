"""The scalar path-loss oracle against physics rather than against code.

tests/test_scene_batch.py checks that the batch path repeats the scalar
reference bit for bit; a fault the two shared would pass there. These
checks share no code with the oracle's cascade.
"""

import numpy as np
import pytest

from plselect.harness import default_config
from plselect.scenario import (
    Scene,
    generate_scene,
    ground_truth_path_loss,
    scene_features_and_path_loss,
)


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
