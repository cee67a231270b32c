"""Golden digests of long fiber walks on the demo tables.

`golden/walk_digests.json` holds, for each case, the SHA-256 of the states
a 20,000-step walk emits, each written as its row-major counts joined by
spaces and ended by a newline.  The walks are long enough to outlast the
walk's probe: on `demos/table3.csv` the walk keeps its proposal tables to
the end, on `demos/table5.csv` it drops them, so the digests pin the random
stream on both sides of the switch.  `golden/walk_stream.json` pins only
200-state walks.  The digests were recorded with the kernel that interned
its states up to a fixed count; regenerate them only for a change that is
meant to alter the stream, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_walk_digest_golden.py > tests/golden/walk_digests.json
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from diagonal_effect import (
    ModelFamily,
    ModelForm,
    ModelSpec,
    Stationary,
    WalkConfig,
    fiber_walk,
    moves_for_model,
)
from diagonal_effect.cli import parse_count_table

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "walk_digests.json"

FAMILIES = {"diag": ModelFamily.DIAGONAL_EFFECT, "common": ModelFamily.COMMON_DIAGONAL_EFFECT}
STEPS = 20_000
SEED = 1
# (demo table, family, stationary law, thinning)
CASES = [
    (table, family, law, thinning)
    for table in ("table3", "table5")
    for family, law, thinning in [("common", "hypergeometric", 1), ("common", "uniform", 1),
                                  ("diag", "hypergeometric", 3)]
]


def _walk(table: str, family: str, law: str, thinning: int) -> list:
    start = parse_count_table((ROOT / "demos" / f"{table}.csv").read_text())
    model = ModelSpec(family=FAMILIES[family], form=ModelForm.TORIC, size=start.size)
    config = WalkConfig(steps=STEPS, thinning=thinning, seed=SEED, stationary=Stationary(law))
    return list(fiber_walk(start, moves_for_model(model), config))


def digest(states: list) -> str:
    h = hashlib.sha256()
    for s in states:
        h.update((" ".join(str(x) for row in s.cells for x in row) + "\n").encode())
    return h.hexdigest()


def _key(*parts) -> str:
    return ":".join(str(p) for p in parts)


def record() -> dict:
    return {_key(*c): digest(_walk(*c)) for c in CASES}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES, ids=lambda c: _key(*c))
def test_long_walk_digest(golden, case):
    states = _walk(*case)
    assert len(states) == -(-STEPS // case[3])
    assert digest(states) == golden[_key(*case)]
    by_cells = {s.cells: s for s in states}
    if case[0] == "table3":  # the walk keeps its tables: a revisit is the same object
        assert all(s is by_cells[s.cells] for s in states)
    else:  # it drops them within the burn-in: each change builds a new table
        changes = sum(a is not b for a, b in zip(states, states[1:]))
        assert len(by_cells) < 1 + changes == len({id(s) for s in states})


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1)
    sys.stdout.write("\n")
