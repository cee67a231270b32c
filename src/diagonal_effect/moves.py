"""Markov-basis move families of the two diagonal-effect models.

The factories list each move once up to sign, as a canonical
representative whose first nonzero cell in row-major order is positive;
the opposite orientation of every move is reached by applying it with
sign -1.  `_move_deltas` gives the moves in both signs, as the fiber
searches, the walk and the connectivity sweep take them.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .errors import InputError
from .tables import (
    ModelFamily,
    ModelForm,
    ModelSpec,
    Move,
    _unchecked,
    rectangle_indices,
    require_instance,
    require_int,
    require_moves,
    require_sized,
    triple_indices,
)


def _family(I: int, candidates: Iterable[Tuple[str, Dict[Tuple[int, int], int]]]) -> List[Move]:
    """One Move per candidate, in order and with its label: the factories
    list each move once up to sign.  A candidate is a label and a balanced
    move's nonzero entries {(i, j): v}, 1-based; its sign is fixed by its
    first nonzero cell in row-major order, which the move makes positive."""
    moves = []
    for label, candidate in candidates:
        entries = sorted([(I * i + j - I - 1, v) for (i, j), v in candidate.items()])
        if entries[0][1] < 0:
            entries = [(k, -v) for k, v in entries]
        # a balanced candidate: its positive and negative parts each sum to degree
        moves.append(_unchecked(Move, size=I, entries=tuple(entries), label=label,
                                degree=sum(map(abs, candidate.values())) // 2))
    return moves


def _with_transposes(label: str, candidates: List[dict]) -> List[Tuple[str, dict]]:
    """The candidates under `label`, then their transposes under `label^T`."""
    return [(label, e) for e in candidates] + [
        (label + "^T", {(j, i): v for (i, j), v in e.items()}) for e in candidates]


def _diag_effect_candidates(I: int) -> Iterator[Tuple[str, dict]]:
    for i, k, j, h in rectangle_indices(I):
        yield "rect", {(i, j): 1, (i, h): -1, (k, j): -1, (k, h): 1}
    for a, b, c in triple_indices(I):
        yield "cycle", {
            (a, b): 1, (a, c): -1,
            (b, a): -1, (b, c): 1,
            (c, a): 1, (c, b): -1,
        }


def moves_diag_effect(I: int) -> List[Move]:
    """Minimal move family of the diagonal-effect model.

    Degree-2 rectangle swaps over four pairwise distinct indices (I >= 4)
    and one degree-3 cycle per unordered triple (I >= 3).  No move touches
    a diagonal cell: diagonal counts are part of the sufficient statistic.
    """
    require_int(I, "table size", 3)
    return _family(I, _diag_effect_candidates(I))


def moves_common_diag(I: int) -> List[Move]:
    """Move family of the common-diagonal-effect model.

    The two diagonal-effect families plus four families that shift counts
    along the diagonal while preserving its total: degree-3 diagonal shifts
    on a triple (three variants), degree-3 shifts over four indices
    (I >= 4), degree-4 moves with a +-2 column, and degree-4 moves on a
    2 x 4 block (I >= 4); the last two come with their transposes.
    """
    require_int(I, "table size", 3)
    candidates = list(_diag_effect_candidates(I))
    idx = range(1, I + 1)

    for (a, b, c) in combinations(idx, 3):
        # the three diagonal-shift variants on rows/columns (a, b, c); on
        # any other order of the triple each is one of these up to sign
        candidates.append(("diag-shift", {
            (a, a): 1, (a, c): -1,
            (b, b): -1, (b, c): 1,
            (c, a): -1, (c, b): 1,
        }))
        candidates.append(("diag-shift", {
            (a, a): 1, (a, b): -1,
            (b, a): -1, (b, c): 1,
            (c, b): 1, (c, c): -1,
        }))
        candidates.append(("diag-shift", {
            (a, b): -1, (a, c): 1,
            (b, a): -1, (b, b): 1,
            (c, a): 1, (c, c): -1,
        }))

    for i, k in combinations(idx, 2):
        for j, h in permutations([x for x in idx if x not in (i, k)], 2):
            # rows (i, k, h), columns (i, k, j); swapping i and k negates it
            candidates.append(("diag-shift-rect", {
                (i, i): 1, (i, j): -1,
                (k, k): -1, (k, j): 1,
                (h, i): -1, (h, k): 1,
            }))

    candidates += _with_transposes("diag-double", [
        {
            (i, i): 1, (i, k): 1, (i, j): -2,
            (k, i): -1, (k, k): -1, (k, j): 2,
        }
        for i, k in combinations(idx, 2) for j in idx if j not in (i, k)
    ])
    candidates += _with_transposes("diag-quad", [
        {
            (i, i): 1, (i, k): 1, (i, j): -1, (i, h): -1,
            (k, i): -1, (k, k): -1, (k, j): 1, (k, h): 1,
        }
        for i, k, j, h in rectangle_indices(I)
    ])
    return _family(I, candidates)


def moves_for_model(model: ModelSpec) -> List[Move]:
    if require_instance(model, ModelSpec, "model").form is not ModelForm.TORIC:
        raise InputError("move families exist only for toric-form models")
    if model.family is ModelFamily.DIAGONAL_EFFECT:
        return moves_diag_effect(model.size)
    if model.family is ModelFamily.COMMON_DIAGONAL_EFFECT:
        return moves_common_diag(model.size)
    raise InputError(f"no move factory for {model.family.value}")


def _move_deltas(moves: Sequence[Move], I: int) -> List[tuple]:
    """Each move's `entries`, followed by the same entries negated:
    deltas[2k] and deltas[2k + 1] are move k in its two signs, so
    deltas[::2] holds one sign of every move."""
    deltas = []
    for m in require_moves(moves):
        entries = require_sized(m, Move, "move", I, "table").entries
        deltas.append(entries)
        deltas.append(tuple([(k, -v) for k, v in entries]))
    return deltas
