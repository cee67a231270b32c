"""Golden exact values of every invariant family at model points.

`check_vanishing` reports the exact value of each polynomial, and the CLI
prints those values, so a change to polynomial evaluation must return the
same `Fraction` for every polynomial, zero or not.  `golden/vanishing_values.json`
holds, for each (family, form, I, seed) point, the number of entries and the
SHA-256 of the JSON list of `(name, repr(value))` pairs for one batch: the
independence minors, the diagonal-effect generators, the common-diagonal
mixture families, both move families' binomials and, at I = 3, the listed
generators.  Most values at toric points of the common family are nonzero,
which makes those points the strongest check.  Regenerate the file only for
a change that is meant to alter the values, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_vanishing_golden.py > tests/golden/vanishing_values.json
"""

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from diagonal_effect import (
    ModelFamily,
    ModelForm,
    ModelSpec,
    check_vanishing,
    invariants,
    markov,
    mixture_point,
    random_rational_point,
    toric_point,
)
from diagonal_effect.invariants import Invariant

GOLDEN = Path(__file__).parent / "golden" / "vanishing_values.json"

FAMILIES = {"diag": ModelFamily.DIAGONAL_EFFECT, "common": ModelFamily.COMMON_DIAGONAL_EFFECT}
SIZES = (3, 4, 5)
SEEDS = (0, 1, 2)


@lru_cache(maxsize=None)
def batch(I: int) -> tuple:
    gens = invariants.gens_independence(I) + invariants.gens_diag_effect(I)
    gens += invariants.gens_common_mixture_families(I)
    if I == 3:
        gens += invariants.gens_common_toric_listed3() + invariants.gens_common_mixture_listed3()
    for moves in (markov.moves_diag_effect(I), markov.moves_common_diag(I)):
        gens += [Invariant(f"move-binomial[{m.label}]", p)
                 for m, p in zip(moves, invariants.moves_to_binomials(moves))]
    return tuple(gens)


def point(family: str, form: str, I: int, seed: int):
    params = random_rational_point(ModelSpec(FAMILIES[family], ModelForm(form), I), seed)
    return toric_point(params)[0] if form == "toric" else mixture_point(params)


KEYS = [f"{family}/{form}/{I}/{seed}"
        for family in FAMILIES for form in ("toric", "mixture") for I in SIZES for seed in SEEDS]


def values(key: str) -> list:
    family, form, I, seed = key.split("/")
    report = check_vanishing(batch(int(I)), point(family, form, int(I), int(seed)))
    return [[name, repr(value)] for name, value in report.entries]


def fingerprint(entries: list) -> dict:
    text = json.dumps(entries, separators=(",", ":"))
    nonzero = sum(1 for _, value in entries if value != "Fraction(0, 1)")
    return {"count": len(entries), "nonzero": nonzero,
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", KEYS)
def test_vanishing_values(golden, key):
    assert fingerprint(values(key)) == golden[key]


if __name__ == "__main__":
    json.dump({key: fingerprint(values(key)) for key in KEYS}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
