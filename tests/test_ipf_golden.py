"""Golden fitted tables of the iterative proportional fit.

`golden/ipf_fits.json` pins the `repr` of every cell of
`quasi_independence_fit` and `common_diagonal_fit` (or the
`ConvergenceError` message) on a fixed set of tables at I = 2..7, including
the boundary-support tables of `tests/test_params.py`.  The values were
recorded with the numpy implementation of the fit; a rewrite must reproduce
them bit for bit.  Regenerate them only for a change that is meant to alter
the fitted values, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_ipf_golden.py > tests/golden/ipf_fits.json
"""

import json
import random
import sys
from pathlib import Path

import pytest

from diagonal_effect import (
    ConvergenceError,
    CountTable,
    common_diagonal_fit,
    quasi_independence_fit,
)

GOLDEN = Path(__file__).parent / "golden" / "ipf_fits.json"

BOUNDARY_TABLES = [
    [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
    [[0, 1, 1], [2, 0, 0], [0, 0, 1]],
    [[2, 0], [0, 1]],
    [[0, 3], [0, 0]],
    [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
]
TABLES_PER_SIZE = 8
# Share of zero cells per random table: dense, mixed, sparse.
ZERO_SHARES = (0.0, 0.4, 0.7)


def _random_tables() -> list:
    rng = random.Random("ipf-golden")
    tables = []
    for size in range(2, 8):
        for k in range(TABLES_PER_SIZE):
            zeros = ZERO_SHARES[k % len(ZERO_SHARES)]
            tables.append([[0 if rng.random() < zeros else rng.randint(1, 9)
                            for _ in range(size)] for _ in range(size)])
    return tables


TABLES = BOUNDARY_TABLES + _random_tables()
FITS = {"quasi": quasi_independence_fit, "common": common_diagonal_fit}


def compute_fit(kind: str, rows: list):
    try:
        fit = FITS[kind](CountTable.from_rows(rows))
    except ConvergenceError as exc:
        return f"ConvergenceError: {exc}"
    return [[repr(x) for x in row] for row in fit]


def _key(rows: list) -> str:
    return "/".join(" ".join(str(x) for x in row) for row in rows)


CASES = [(kind, rows) for rows in TABLES for kind in FITS]


def record() -> dict:
    return {kind: {_key(rows): compute_fit(kind, rows) for rows in TABLES} for kind in FITS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}:{_key(c[1])}")
def test_fit_bits(golden, case):
    kind, rows = case
    assert compute_fit(kind, rows) == golden[kind][_key(rows)]


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1)
    sys.stdout.write("\n")
