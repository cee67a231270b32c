"""Golden `nonvanishing_variants_report()`: every field of both entries.

The report backs the two single-sign choices in the generator lists with
the rejected variant of each, its polynomial and its value beside the
emitted ones.  Other tests check only that the variant values are nonzero
and the emitted ones zero; this pins the whole report, each field as its
`str`, at the report's default point and at three common-diagonal mixture
points.  Regenerate the file only for a change that is meant to alter the
report, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_variants_golden.py > tests/golden/variants_report.json
"""

import json
import sys
from pathlib import Path

import pytest

from diagonal_effect import (
    ModelFamily,
    ModelForm,
    ModelSpec,
    mixture_point,
    nonvanishing_variants_report,
    random_rational_point,
)

GOLDEN = Path(__file__).parent / "golden" / "variants_report.json"

KEYS = ["default"] + [f"common/mixture/3/{seed}" for seed in (0, 1, 2)]


def report(key: str) -> list:
    point = None
    if key != "default":
        seed = int(key.rsplit("/", 1)[1])
        model = ModelSpec(ModelFamily.COMMON_DIAGONAL_EFFECT, ModelForm.MIXTURE, 3)
        point = mixture_point(random_rational_point(model, seed))
    return [{field: str(value) for field, value in entry.items()}
            for entry in nonvanishing_variants_report(point)]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", KEYS)
def test_variants_report(golden, key):
    assert report(key) == golden[key]


if __name__ == "__main__":
    json.dump({key: report(key) for key in KEYS}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
