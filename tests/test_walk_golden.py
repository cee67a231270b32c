"""Golden random stream of the fiber walk and of the MCMC exact tests.

`golden/walk_stream.json` pins, for fixed seeds, the first states the walk
emits under each stationary law and the `repr` of the p-value and standard
error of `exact_test(method="mcmc")` and `exact_test_chains`.  Comparing two
runs of the same code cannot catch a changed stream; these values can.
They were recorded with the Fraction-based acceptance kernel and must not
change when the kernel is rewritten.  Regenerate them only for a change that
is meant to alter the stream, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_walk_golden.py > tests/golden/walk_stream.json
"""

import json
import sys
from pathlib import Path

import pytest

from diagonal_effect import (
    CountTable,
    ModelFamily,
    ModelForm,
    ModelSpec,
    Stationary,
    WalkConfig,
    exact_test,
    exact_test_chains,
    fiber_walk,
    moves_for_model,
)

GOLDEN = Path(__file__).parent / "golden" / "walk_stream.json"

FAMILIES = {"diag": ModelFamily.DIAGONAL_EFFECT, "common": ModelFamily.COMMON_DIAGONAL_EFFECT}

TABLES = {
    ("diag", 3): [[2, 5, 3], [4, 1, 6], [5, 3, 2]],
    ("common", 3): [[2, 3, 1], [1, 3, 2], [3, 1, 2]],
    ("diag", 4): [[1, 3, 0, 2], [2, 0, 1, 3], [1, 2, 2, 0], [3, 1, 0, 1]],
    ("common", 4): [[1, 2, 1, 0], [0, 2, 2, 1], [2, 0, 1, 2], [1, 1, 0, 2]],
    ("diag", 5): [[1, 0, 2, 1, 0], [0, 2, 1, 0, 1], [1, 1, 0, 2, 1], [2, 0, 1, 1, 0], [0, 1, 1, 0, 2]],
    ("common", 5): [[0, 1, 1, 0, 1], [1, 1, 0, 2, 0], [0, 1, 1, 1, 1], [2, 0, 0, 1, 1], [1, 1, 1, 0, 0]],
}

TEST_STEPS = 4_000
CHAIN_STEPS = 2_000
CHAINS = 3
# (family, size, stationary law, burn-in, thinning); 200 states each
WALKS = [
    ("diag", 4, "uniform", 0, 1),
    ("diag", 4, "hypergeometric", 0, 1),
    ("common", 4, "uniform", 0, 1),
    ("common", 4, "hypergeometric", 0, 1),
    ("common", 3, "hypergeometric", 7, 3),
]
WALK_STATES = 200

TEST_CASES = [(f, I, seed) for (f, I) in TABLES for seed in (1, 2)]
CHAIN_CASES = [("diag", 3, 5), ("common", 3, 5)]


def _setup(family: str, size: int):
    model = ModelSpec(family=FAMILIES[family], form=ModelForm.TORIC, size=size)
    return CountTable.from_rows(TABLES[(family, size)]), model


def _summary(result) -> dict:
    return {"p_value": repr(result.p_value), "monte_carlo_stderr": repr(result.monte_carlo_stderr)}


def compute_test(family: str, size: int, seed: int) -> dict:
    table, model = _setup(family, size)
    return _summary(exact_test(table, model, WalkConfig(steps=TEST_STEPS, seed=seed), method="mcmc"))


def compute_chains(family: str, size: int, seed: int) -> dict:
    table, model = _setup(family, size)
    return _summary(exact_test_chains(table, model, WalkConfig(steps=CHAIN_STEPS, seed=seed), CHAINS))


def compute_walk(family: str, size: int, law: str, burn_in: int, thinning: int) -> list:
    """Emitted states, each as its cells in row-major order."""
    table, model = _setup(family, size)
    config = WalkConfig(
        steps=WALK_STATES * thinning, burn_in=burn_in, thinning=thinning,
        seed=size, stationary=Stationary(law),
    )
    states = [" ".join(str(x) for row in s.cells for x in row)
              for s in fiber_walk(table, moves_for_model(model), config)]
    assert len(states) == WALK_STATES
    return states


def _key(*parts) -> str:
    return ":".join(str(p) for p in parts)


def record() -> dict:
    return {
        "exact_test": {_key(*c): compute_test(*c) for c in TEST_CASES},
        "exact_test_chains": {_key(*c): compute_chains(*c) for c in CHAIN_CASES},
        "fiber_walk": {_key(*c): compute_walk(*c) for c in WALKS},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", TEST_CASES, ids=lambda c: _key(*c))
def test_exact_test_stream(golden, case):
    assert compute_test(*case) == golden["exact_test"][_key(*case)]


@pytest.mark.parametrize("case", CHAIN_CASES, ids=lambda c: _key(*c))
def test_exact_test_chains_stream(golden, case):
    assert compute_chains(*case) == golden["exact_test_chains"][_key(*case)]


@pytest.mark.parametrize("case", WALKS, ids=lambda c: _key(*c))
def test_fiber_walk_stream(golden, case):
    assert compute_walk(*case) == golden["fiber_walk"][_key(*case)]


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1)
    sys.stdout.write("\n")
