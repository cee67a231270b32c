"""Golden exact p-values of the enumeration test and golden fiber orders.

`exact_test(method="enumerate")` returns a p-value that is exact up to one
final rounding, so any change to fiber enumeration or to the weighting must
return the same float bit for bit.  `golden/enumeration_pvalues.json` holds,
for every table below, `repr(p_value)`, `repr(statistic_observed)` and
`samples_used`.  The tables are the `fibers` benchmark's nine base tables
(fibers of 4 to 9,480 tables) and the 20 table/model pairs of acceptance
criterion 9.  For three of the fibers the file also holds the SHA-256 of
the JSON list of `to_lists()` of `enumerate_fiber(...).tables`, which pins
the sorted order that `enumerate-fiber` prints.  Regenerate the file only
for a change that is meant to alter these values, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_enumeration_golden.py > tests/golden/enumeration_pvalues.json
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from diagonal_effect import (
    CountTable,
    ModelFamily,
    ModelForm,
    ModelSpec,
    enumerate_fiber,
    exact_test,
    sufficient_statistic,
)

GOLDEN = Path(__file__).parent / "golden" / "enumeration_pvalues.json"

FAMILIES = {"diag": ModelFamily.DIAGONAL_EFFECT, "common": ModelFamily.COMMON_DIAGONAL_EFFECT}

# the `fibers` benchmark's base tables, before its seeded relabelling
FIBER_TABLES = [
    ("common", [[1, 0, 3], [2, 1, 0], [3, 0, 2]]),
    ("diag", [[0, 0, 1, 2], [1, 0, 0, 0], [2, 0, 0, 0], [0, 0, 1, 1]]),
    ("common", [[0, 0, 0, 0, 1], [0, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 1, 0, 0, 0], [0, 0, 0, 0, 0]]),
    ("common", [[1, 4, 4], [4, 2, 2], [2, 2, 3]]),
    ("diag", [[0, 1, 2, 0], [1, 1, 1, 7], [0, 0, 2, 1], [2, 1, 1, 2]]),
    ("common", [[1, 3, 0, 0], [0, 2, 3, 0], [0, 1, 3, 1], [1, 2, 0, 1]]),
    ("common", [[1, 0, 2, 2], [2, 2, 0, 2], [2, 2, 0, 3], [0, 1, 0, 1]]),
    ("diag", [[0, 0, 1, 2, 2], [1, 0, 0, 0, 0], [2, 1, 1, 0, 1], [0, 0, 2, 1, 0], [0, 1, 1, 0, 0]]),
    ("common", [[0, 0, 1, 2, 0], [0, 0, 2, 0, 1], [2, 0, 0, 1, 0], [1, 0, 0, 0, 2], [0, 3, 0, 0, 0]]),
]
ORDER_PINNED = ("fiber0", "fiber1", "fiber7")


def calibration_tables() -> list:
    """Criterion 9's tables, drawn from its seeded generator."""
    rng = random.Random("acceptance-calibration")
    cases = []
    for trial in range(10):
        n = rng.randint(4, 8)
        cells = [[0] * 3 for _ in range(3)]
        for _ in range(n):
            cells[rng.randrange(3)][rng.randrange(3)] += 1
        for family in FAMILIES:
            cases.append((f"calib{trial}:{family}", family, cells))
    return cases


CASES = {f"fiber{k}": (family, cells) for k, (family, cells) in enumerate(FIBER_TABLES)}
CASES.update({key: (family, cells) for key, family, cells in calibration_tables()})


def case(key: str) -> tuple:
    family, cells = CASES[key]
    return CountTable.from_rows(cells), ModelSpec(FAMILIES[family], ModelForm.TORIC, len(cells))


def record(key: str) -> dict:
    table, model = case(key)
    result = exact_test(table, model, method="enumerate", node_budget=10_000_000)
    return {"p_value": repr(result.p_value), "statistic": repr(result.statistic_observed),
            "samples_used": result.samples_used}


def order_hash(key: str) -> str:
    table, model = case(key)
    fiber = enumerate_fiber(sufficient_statistic(table, model), model)
    text = json.dumps([t.to_lists() for t in fiber.tables], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", list(CASES))
def test_enumeration_p_value(golden, key):
    assert record(key) == golden["tests"][key]


@pytest.mark.parametrize("key", list(CASES))
def test_fiber_tables_pass_the_checks(key):
    # a fiber's tables are built without the checks: each must equal the
    # checked table, lie in the fiber and be distinct; fiber8 is
    # demos/table5.csv, whose fiber of 9,480 tables is the largest here
    table, model = case(key)
    stat = sufficient_statistic(table, model)
    fiber = enumerate_fiber(stat, model)
    for t in fiber.tables:
        checked = CountTable(size=t.size, cells=t.cells)
        assert (t, hash(t), repr(t)) == (checked, hash(checked), repr(checked))
        assert sufficient_statistic(t, model) == stat
    assert len(set(fiber.tables)) == len(fiber.tables) == len(fiber)


@pytest.mark.parametrize("key", ORDER_PINNED)
def test_fiber_order(golden, key):
    assert order_hash(key) == golden["order_sha256"][key]


if __name__ == "__main__":
    out = {"tests": {key: record(key) for key in CASES},
           "order_sha256": {key: order_hash(key) for key in ORDER_PINNED}}
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
