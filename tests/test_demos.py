"""Golden output of the demos.

Each `demos/*.py` runs in a fresh interpreter, and its stdout must equal
`golden/demos/<name>.txt` byte for byte.  The demos are deterministic, so
any difference is a change in what the package computes or prints.
Regenerate the files only for a change that is meant to alter that output,
and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_demos.py
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "golden" / "demos"


def run_demo(path: Path) -> bytes:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run(
        [sys.executable, str(path)], cwd=ROOT, env=env, capture_output=True, check=True
    )
    return done.stdout


def test_every_demo_has_a_golden_file():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_is_unchanged(demo):
    assert run_demo(demo) == (GOLDEN / f"{demo.stem}.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        (GOLDEN / f"{demo.stem}.txt").write_bytes(run_demo(demo))
