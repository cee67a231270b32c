"""Cross-module contract checks that don't belong to a single module."""

import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import diagonal_effect
from diagonal_effect import (
    CountTable,
    InputError,
    ModelFamily,
    ModelForm,
    ModelSpec,
    apply_move,
    enumerate_fiber,
    gens_independence,
    independence_factorize,
    random_rational_point,
    sufficient_statistic,
    toric_point,
)
from diagonal_effect.cli import parse_count_table, parse_params
from diagonal_effect.markov import moves_common_diag, moves_diag_effect

from conftest import model, random_count_table


class TestMovePreservation:
    def test_statistic_preserved_up_to_size_6(self):
        rng = random.Random("preserve-6")
        for I in (4, 5, 6):
            for family, moves in (
                (ModelFamily.DIAGONAL_EFFECT, moves_diag_effect(I)),
                (ModelFamily.COMMON_DIAGONAL_EFFECT, moves_common_diag(I)),
            ):
                m = model(family, I)
                for _ in range(5):
                    t = random_count_table(rng, I, rng.randint(4, 12))
                    before = sufficient_statistic(t, m)
                    for move in moves:
                        out = apply_move(t, move, 1)
                        if out is not None:
                            assert sufficient_statistic(out, m) == before

    def test_apply_then_undo(self):
        rng = random.Random("undo")
        moves = moves_common_diag(3)
        for _ in range(30):
            t = random_count_table(rng, 3, rng.randint(3, 9))
            for move in moves:
                mid = apply_move(t, move, 1)
                if mid is not None:
                    assert apply_move(mid, move, -1) == t


class TestStructuralZeroDiagonal:
    def test_flag_only_for_diag_effect(self):
        ModelSpec(ModelFamily.DIAGONAL_EFFECT, ModelForm.TORIC, 3, structural_zero_diagonal=True)
        with pytest.raises(InputError):
            ModelSpec(
                ModelFamily.COMMON_DIAGONAL_EFFECT, ModelForm.TORIC, 3,
                structural_zero_diagonal=True,
            )

    def test_statistic_rejects_positive_diagonal(self):
        m = ModelSpec(ModelFamily.DIAGONAL_EFFECT, ModelForm.TORIC, 3,
                      structural_zero_diagonal=True)
        with pytest.raises(InputError):
            sufficient_statistic(CountTable.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]]), m)

    def test_fiber_never_touches_diagonal(self):
        m = ModelSpec(ModelFamily.DIAGONAL_EFFECT, ModelForm.TORIC, 3,
                      structural_zero_diagonal=True)
        t = CountTable.from_rows([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        fiber = enumerate_fiber(sufficient_statistic(t, m), m)
        assert len(fiber) >= 1
        for member in fiber.tables:
            assert member.diag_vector() == (0, 0, 0)


class TestUnitGammaIsIndependence:
    def test_all_minors_vanish_and_table_factors(self):
        for seed in range(20):
            params = random_rational_point(model(ModelFamily.INDEPENDENCE, 3), seed)
            assert params.zeta_g == (1, 1, 1)
            table, _ = toric_point(params)
            for inv in gens_independence(3):
                assert inv.poly.evaluate(table) == 0
            r, c = independence_factorize(table)
            assert all(
                r[i] * c[j] == table.cells[i][j] for i in range(3) for j in range(3)
            )


class TestSerializationRoundTrips:
    def test_csv_round_trip(self):
        rng = random.Random("csv")
        for _ in range(10):
            t = random_count_table(rng, 3, rng.randint(0, 12))
            text = "\n".join(",".join(str(x) for x in row) for row in t.cells)
            assert parse_count_table(text) == t

    def test_params_json_round_trip(self):
        mix = parse_params(json.dumps(
            {"alpha": "3/4", "r": ["1/3"] * 3, "c": ["1/3"] * 3, "d": ["1/3"] * 3}
        ))
        text = json.dumps({
            "alpha": str(mix.alpha),
            "r": [str(x) for x in mix.r],
            "c": [str(x) for x in mix.c],
            "d": [str(x) for x in mix.d],
        })
        assert parse_params(text) == mix
        toric = parse_params(json.dumps(
            {"zeta_r": ["2", "1", "1"], "zeta_c": [1, 1, 3], "zeta_gamma": ["1/2", "2", "1"]}
        ))
        text = json.dumps({
            "zeta_r": [str(x) for x in toric.zeta_r],
            "zeta_c": [str(x) for x in toric.zeta_c],
            "zeta_gamma": [str(x) for x in toric.zeta_g],
        })
        assert parse_params(text) == toric


def test_import_leaves_numpy_unloaded():
    # The package and its CLI depend on the standard library only.
    src = str(Path(diagonal_effect.__file__).resolve().parents[1])
    code = "import sys, diagonal_effect, diagonal_effect.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_groebner_resolves_to_the_engine_module():
    # no package export shadows the submodule of the same name
    assert diagonal_effect.groebner is importlib.import_module("diagonal_effect.groebner")
    for removed in ("GroebnerBasis", "in_ideal"):
        assert not hasattr(diagonal_effect, removed)
    assert not hasattr(diagonal_effect.groebner, "normal_form")
