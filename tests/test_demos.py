"""The demos print the same text as when their digests were recorded.

Demos 01-06 run in a subprocess each and their stdout is compared by
SHA-256.  Demo 07 is left out: it rewrites demos/07_existence_map.pgm,
and test_grid_golden_labels already pins its labels.
"""

import hashlib
import pathlib
import subprocess
import sys

import pytest

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"

STDOUT_SHA256 = {
    "01_transform_algebra.py": "f1d61799c55204d9faaa21c1451f37abea4bbb7e36f9386da8a6d98710a43bc7",
    "02_expansion_geometry.py": "7449d43eaf8bab67bbb7e89249f27797fdc25f1a168cde0df52539782fa832dd",
    "03_verify_systems.py": "d2d41cfb5e4dfbbec28a0a23b265403335cbaf301cfcab6a6b57b83fd62cc990",
    "04_encode_decode.py": "968db48653caf4d56f2d8ca8807bc88c73c87a89350873a84c471a40681ee716",
    "05_expansion_bounds.py": "7ddf152690d548615b7cd12bc0f19f03cce5c8ca0832a7dd06ac1b3c3be63c31",
    "06_sofic_automaton.py": "d4d7c979f76427639d4d7dea713f3af54935cba5c314c586e7af1ce150d5608d",
}


@pytest.mark.parametrize("demo", sorted(STDOUT_SHA256))
def test_demo_output_unchanged(demo):
    run = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True,
                         timeout=120, check=True)
    assert hashlib.sha256(run.stdout).hexdigest() == STDOUT_SHA256[demo], run.stdout.decode()
