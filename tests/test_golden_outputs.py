"""Byte identity of the default pipeline's outputs and of each scene layout.

tests/golden_outputs.json holds three tables of sha256 digests:

- "outputs": every file that `generate`, `run` and `report` write for
  master seed 0 with the default config;
- "sweep": every file that `sweep` writes for 2 seeds from master seed 0
  with the default config, sweep_summary.csv included;
- "scenes": for each layout and seeds 0-4 of the default SceneConfig, the
  scene's `to_json()` followed by the bytes of the features and path loss
  that `scene_features_and_path_loss` computes for it.

To record them again, after a change that is meant to alter the outputs, run

    PYTHONPATH=src python tests/test_golden_outputs.py > tests/golden_outputs.json
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from plselect.harness import (cmd_generate, cmd_report, cmd_run, cmd_sweep,
                              default_config)
from plselect.scenario import (SceneConfig, generate_scene,
                               scene_features_and_path_loss)

GOLDEN = Path(__file__).with_name("golden_outputs.json")

LAYOUTS = ("uniform", "intersection", "square")
SCENE_SEEDS = range(5)
SWEEP_SEEDS = 2


def tree_digests(root) -> dict:
    """sha256 of every file under root, by path relative to it."""
    root = Path(root)
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def output_digests(out_dir) -> dict:
    """Digests of every file that generate, run and report write under
    out_dir."""
    cfg = default_config(master_seed=0, out_dir=str(out_dir))
    cmd_generate(cfg)
    cmd_run(cfg)
    cmd_report(cfg.out_dir)
    return tree_digests(out_dir)


def sweep_digests(out_dir) -> dict:
    """Digests of every file that sweep writes under out_dir."""
    cmd_sweep(default_config(master_seed=0, out_dir=str(out_dir)),
              SWEEP_SEEDS)
    return tree_digests(out_dir)


def scene_digests() -> dict:
    """sha256 of each layout's scene JSON, features and path loss, by
    "<layout>/seed<k>"."""
    digests = {}
    for layout in LAYOUTS:
        for seed in SCENE_SEEDS:
            scene = generate_scene(SceneConfig(layout=layout, seed=seed))
            X, y = scene_features_and_path_loss(scene)
            h = hashlib.sha256(scene.to_json().encode())
            h.update(X.tobytes())
            h.update(y.tobytes())
            digests[f"{layout}/seed{seed}"] = h.hexdigest()
    return digests


def test_default_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())["outputs"]
    assert output_digests(tmp_path / "out") == golden


def test_sweep_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())["sweep"]
    assert sweep_digests(tmp_path / "out") == golden


# One Generator.uniform call with array bounds must draw the scalar
# calls' doubles, in C order, at the numpy floor.
@pytest.mark.numpy_floor
def test_layout_scenes_match_golden_digests():
    assert scene_digests() == json.loads(GOLDEN.read_text())["scenes"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {"outputs": output_digests(Path(tmp) / "out"),
                  "sweep": sweep_digests(Path(tmp) / "sweep"),
                  "scenes": scene_digests()}
    json.dump(golden, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
