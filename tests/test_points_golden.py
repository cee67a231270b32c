"""Golden exact model points: parameters, probability cells and normalizers.

`random_rational_point` feeds every exact check in the package, and
`toric_point` and `mixture_point` turn its parameters into the probability
tables that the invariants are evaluated at.  `golden/rational_points.json`
holds, for each (family, form, I, seed), the `repr` of the parameters, the
`repr` of the table's cells and, for the toric form, the `repr` of its
`Normalizers`; each must match byte for byte, so a change to how the points
are computed must keep every value, its type and its reduced form.
Regenerate the file only for a change that is meant to alter the points,
and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_points_golden.py > tests/golden/rational_points.json
"""

import json
import sys
from pathlib import Path

import pytest

from diagonal_effect import (
    ModelFamily,
    ModelForm,
    ModelSpec,
    ProbTable,
    mixture_point,
    random_rational_point,
    toric_point,
)

GOLDEN = Path(__file__).parent / "golden" / "rational_points.json"

SIZES = range(2, 7)
SEEDS = range(5)

KEYS = [f"{family.value}/{form.value}/{I}/{seed}"
        for family in ModelFamily for form in ModelForm for I in SIZES for seed in SEEDS]


def point(key: str):
    """The parameters, the table and, for the toric form, the normalizers
    (else None) of the point `key`."""
    family, form, I, seed = key.split("/")
    params = random_rational_point(ModelSpec(ModelFamily(family), ModelForm(form), int(I)), int(seed))
    if form == ModelForm.TORIC.value:
        return (params, *toric_point(params))
    return params, mixture_point(params), None


def entry(key: str) -> dict:
    params, table, norms = point(key)
    out = {"params": repr(params)}
    if norms is not None:
        out["normalizers"] = repr(norms)
    out["cells"] = repr(table.cells)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_point_is_pinned(golden):
    assert sorted(golden) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_rational_point(golden, key):
    assert entry(key) == golden[key]


@pytest.mark.parametrize("key", KEYS)
def test_point_passes_the_checked_constructor(key):
    # toric_point and mixture_point build their tables without the checks
    _, table, _ = point(key)
    assert ProbTable(size=table.size, cells=table.cells) == table


if __name__ == "__main__":
    json.dump({key: entry(key) for key in KEYS}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
