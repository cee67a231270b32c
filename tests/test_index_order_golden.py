"""Golden order of every generator source and move family.

The moves feed the walk's random stream by their position, and the
invariants are printed in order by the CLI, so the index sets they are built
over must keep their order.  `golden/index_order.json` holds, for each
source and size, the number of entries and the SHA-256 of the JSON list of
entries: `(name, str(poly))` for invariants, `(label, cells)` for moves and
`str(poly)` for move binomials.  The I = 5 mixture families alone print
2870 polynomials (11,890 at I = 6), hence digests rather than the lists.  Regenerate the file
only for a change that is meant to reorder or rewrite a family, and say so
in CHANGES.md:

    PYTHONPATH=src python tests/test_index_order_golden.py > tests/golden/index_order.json
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from diagonal_effect import invariants
from diagonal_effect.moves import moves_common_diag, moves_diag_effect

GOLDEN = Path(__file__).parent / "golden" / "index_order.json"


def _gens(gens) -> list:
    return [[g.name, str(g.poly)] for g in gens]


def _moves(moves) -> list:
    return [[m.label, [list(row) for row in m.cells]] for m in moves]


def _binomials(moves) -> list:
    return [str(p) for p in invariants.moves_to_binomials(moves)]


SOURCES = {
    "gens_common_toric_listed3": lambda: _gens(invariants.gens_common_toric_listed3()),
    "gens_common_mixture_listed3": lambda: _gens(invariants.gens_common_mixture_listed3()),
}
for _I in (2, 3, 4, 5):
    SOURCES[f"gens_independence/{_I}"] = lambda I=_I: _gens(invariants.gens_independence(I))
for _I in (3, 4, 5, 6):
    SOURCES[f"gens_diag_effect/{_I}"] = lambda I=_I: _gens(invariants.gens_diag_effect(I))
    SOURCES[f"gens_common_mixture_families/{_I}"] = (
        lambda I=_I: _gens(invariants.gens_common_mixture_families(I))
    )
for _I in (3, 4, 5, 6):
    SOURCES[f"moves_diag_effect/{_I}"] = lambda I=_I: _moves(moves_diag_effect(I))
    SOURCES[f"moves_common_diag/{_I}"] = lambda I=_I: _moves(moves_common_diag(I))
    SOURCES[f"moves_to_binomials/diag/{_I}"] = lambda I=_I: _binomials(moves_diag_effect(I))
    SOURCES[f"moves_to_binomials/common/{_I}"] = lambda I=_I: _binomials(moves_common_diag(I))


def fingerprint(entries: list) -> dict:
    text = json.dumps(entries, separators=(",", ":"))
    return {"count": len(entries), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def record() -> dict:
    return {key: fingerprint(source()) for key, source in SOURCES.items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("key", sorted(SOURCES))
def test_index_order(golden, key):
    assert fingerprint(SOURCES[key]()) == golden[key]


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
