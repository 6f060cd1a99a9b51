"""Byte identity of the default pipeline's outputs.

tests/golden_outputs.json holds the sha256 of every file that `generate`,
`run` and `report` write for master seed 0 with the default config. To
record it again, after a change that is meant to alter the outputs, run

    PYTHONPATH=src python tests/test_golden_outputs.py > tests/golden_outputs.json
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from plselect.harness import cmd_generate, cmd_report, cmd_run, default_config

GOLDEN = Path(__file__).with_name("golden_outputs.json")


def output_digests(out_dir) -> dict:
    """sha256 of every file that generate, run and report write under
    out_dir, by path relative to it."""
    cfg = default_config(master_seed=0, out_dir=str(out_dir))
    cmd_generate(cfg)
    cmd_run(cfg)
    cmd_report(cfg.out_dir)
    root = Path(out_dir)
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_default_outputs_match_golden_digests(tmp_path):
    assert output_digests(tmp_path / "out") == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(output_digests(Path(tmp) / "out"), sys.stdout, indent=2,
                  sort_keys=True)
        sys.stdout.write("\n")
