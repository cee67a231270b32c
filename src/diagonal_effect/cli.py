"""Command-line interface: CSV/JSON parsing and reproducible run records.

Every command prints one RunRecord JSON document echoing its full effective
configuration (including every seed), so a record can be replayed
bit for bit.  Exact rationals serialize as "num/den" strings; only
p-values and standard errors are decimal floats.  This module alone shapes
RunRecords; the library returns values only.

Exit codes: 0 success, 1 output pipe closed before the output was written,
2 input error, 3 budget or convergence error, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Union

from . import __version__
from .errors import (
    BudgetExceededError,
    ConvergenceError,
    InputError,
    InvariantViolationError,
)
from .tables import (
    DEFAULT_NODE_BUDGET,
    CountTable,
    ModelFamily,
    ModelForm,
    ModelSpec,
    normalize,
    sufficient_statistic,
)

if TYPE_CHECKING:
    from .params import MixtureParams, ToricParams

# Each command imports the modules it runs inside its handler, so a command
# loads only those: an exact test never compiles the algebra modules.

# ASCII digits only, with an optional minus sign kept to name negative
# entries, for table entries and integer flags alike; int() alone would
# also take "1_0", "+1", " 1 " and non-ASCII digits
_COUNT = re.compile(r"(-?)[0-9]+")
# the documented rational forms, "3/4" or an integer, in the same digits
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")

_FAMILIES = {
    "indep": ModelFamily.INDEPENDENCE,
    "diag": ModelFamily.DIAGONAL_EFFECT,
    "common": ModelFamily.COMMON_DIAGONAL_EFFECT,
}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _integer(text: str) -> int:
    """The value of an integer flag, in the digits `_COUNT` allows."""
    if _COUNT.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    try:
        return int(text)
    except ValueError:  # past the interpreter's digit limit
        raise argparse.ArgumentTypeError(f"{len(text)} digits are too many") from None


def parse_count_table(text: str) -> CountTable:
    """CSV of I lines with I comma-separated nonnegative integers."""
    lines = [line.strip() for line in text.strip().splitlines() if line.strip()]
    if not lines:
        raise InputError("empty table input")
    expected = len(lines)
    rows = []
    for ln, line in enumerate(lines, 1):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != expected:
            raise InputError(
                f"line {ln}: ragged row with {len(parts)} entries, expected {expected}"
            )
        row = []
        for col, part in enumerate(parts, 1):
            match = _COUNT.fullmatch(part)
            if match is None:
                raise InputError(f"line {ln}, column {col}: {part!r} is not an integer")
            if match.group(1):
                raise InputError(f"line {ln}, column {col}: negative entry {part}")
            try:
                row.append(int(part))
            except ValueError:  # past the interpreter's digit limit
                raise InputError(f"line {ln}, column {col}: {len(part)} digits are too many") from None
        rows.append(row)
    return CountTable.from_rows(rows)


def _parse_rational(value, field: str) -> Fraction:
    if type(value) is not int and not (isinstance(value, str) and _RATIONAL.fullmatch(value)):
        raise InputError(f"{field}: rationals must be integers or 'num/den' strings, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError):  # a zero denominator, or past the digit limit
        raise InputError(f"{field}: cannot parse rational from {value!r}") from None


def _parse_vector(data, field: str) -> tuple:
    if not isinstance(data, list) or not data:
        raise InputError(f"{field}: expected a nonempty list")
    return tuple(_parse_rational(x, f"{field}[{k}]") for k, x in enumerate(data))


def parse_params(
    text: str, model: Optional[ModelSpec] = None
) -> Union[ToricParams, MixtureParams]:
    """JSON parameters: toric keys zeta_r/zeta_c/zeta_gamma, or mixture keys
    alpha/r/c/d (d may be omitted for the common-diagonal model)."""
    from .params import MixtureParams, ToricParams

    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, digit limit, deep nesting
        raise InputError(f"parameter JSON is malformed: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("parameter JSON must be an object")

    common = model is not None and model.family is ModelFamily.COMMON_DIAGONAL_EFFECT
    if {"zeta_r", "zeta_c", "zeta_gamma"} <= set(data):
        diagonal = "zeta_gamma"
        params = ToricParams(
            zeta_r=_parse_vector(data["zeta_r"], "zeta_r"),
            zeta_c=_parse_vector(data["zeta_c"], "zeta_c"),
            zeta_g=_parse_vector(data["zeta_gamma"], "zeta_gamma"),
        )
    elif {"alpha", "r", "c"} <= set(data):
        diagonal = "d"
        alpha = _parse_rational(data["alpha"], "alpha")
        r = _parse_vector(data["r"], "r")
        c = _parse_vector(data["c"], "c")
        if "d" in data:
            d = _parse_vector(data["d"], "d")
        elif common:
            d = tuple(Fraction(1, len(r)) for _ in r)
        else:
            raise InputError("d: missing (only the common-diagonal model defaults it to uniform)")
        params = MixtureParams(alpha=alpha, r=r, c=c, d=d)
    else:
        raise InputError(
            "parameter JSON needs keys {zeta_r, zeta_c, zeta_gamma} or {alpha, r, c[, d]}"
        )
    if common and not params.has_common_diagonal():
        raise InputError(f"{diagonal}: the common-diagonal model needs all entries equal")
    return params


def _read_file(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path!r}: {exc}") from None


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------

def _record(command: str, config: dict, outputs: dict) -> dict:
    return {
        "command": command,
        "config": config,
        "outputs": outputs,
        "versions": __version__,
    }


def _emit(record: dict):
    json.dump(record, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _table_and_model(args) -> tuple:
    """The --table counts and the --model spec at the table's size."""
    table = parse_count_table(_read_file(args.table, "table"))
    return table, ModelSpec(family=_FAMILIES[args.model], form=ModelForm.TORIC, size=table.size)


def _listed(model: ModelSpec) -> list:
    """The transcribed generator lists of the common model, which exist at size 3 only."""
    from .invariants import gens_common_mixture_listed3, gens_common_toric_listed3

    if model.family is not ModelFamily.COMMON_DIAGONAL_EFFECT or model.size != 3:
        raise InputError("listed generators exist only for the common model at size 3")
    if model.form is ModelForm.TORIC:
        return gens_common_toric_listed3()
    return gens_common_mixture_listed3()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_invariants(args) -> dict:
    from .invariants import (
        Invariant,
        check_vanishing,
        gens_common_mixture_families,
        gens_diag_effect,
        moves_to_binomials,
    )

    model = ModelSpec(family=_FAMILIES[args.model], form=ModelForm(args.form), size=args.size)
    if args.listed:
        gens = _listed(model)
    elif model.family is ModelFamily.DIAGONAL_EFFECT:
        # toric and mixture forms of this family share their invariants
        gens = gens_diag_effect(args.size)
    elif model.form is ModelForm.TORIC:
        from .markov import moves_for_model

        gens = [
            Invariant(f"move-binomial #{k}", poly)
            for k, poly in enumerate(moves_to_binomials(moves_for_model(model)), 1)
        ]
    else:
        gens = gens_common_mixture_families(args.size)

    outputs = {
        "count": len(gens),
        "generators": [{"name": g.name, "polynomial": str(g.poly)} for g in gens],
    }
    if args.evaluate:
        from .params import ToricParams, mixture_point, toric_point

        params = parse_params(_read_file(args.evaluate, "parameters"), model)
        if isinstance(params, ToricParams):
            point, _ = toric_point(params)
        else:
            point = mixture_point(params)
        if point.size != args.size:
            raise InputError(f"parameters have size {point.size}, expected {args.size}")
        report = check_vanishing(gens, point)
        outputs["vanishing"] = {
            "all_zero": report.all_zero,
            "values": [{"name": n, "value": str(v)} for n, v in report.entries],
        }
    return outputs


def _cmd_classify(args) -> dict:
    from .membership import classify_toric_point
    from .params import ToricParams

    params = parse_params(_read_file(args.params, "parameters"))
    if not isinstance(params, ToricParams):
        raise InputError("classify expects toric parameters (zeta_r, zeta_c, zeta_gamma)")
    verdict = classify_toric_point(params)
    outputs = {
        "verdict": verdict.kind.value,
        "case": verdict.case.value if verdict.case else None,
        "N": str(verdict.norms.N),
        "N_T": str(verdict.norms.N_T),
    }
    if verdict.witness is not None:
        outputs["witness"] = {
            "alpha": str(verdict.witness.alpha),
            "r": [str(x) for x in verdict.witness.r],
            "c": [str(x) for x in verdict.witness.c],
            "d": [str(x) for x in verdict.witness.d],
        }
    return outputs


def _cmd_boundary_check(args) -> dict:
    from .membership import boundary_membership_check

    table = parse_count_table(_read_file(args.table, "table"))
    report = boundary_membership_check(normalize(table))
    return {
        "verdict": report.verdict.value,
        "invariants_vanish": report.invariants_vanish,
        "toric_exclusions": [list(x) for x in report.toric_exclusions],
        "mixture_exclusions": list(report.mixture_exclusions),
    }


def _cmd_sample(args) -> dict:
    from .markov import Stationary, WalkConfig, fiber_walk, moves_for_model

    table, model = _table_and_model(args)
    config = WalkConfig(
        steps=args.steps,
        burn_in=args.burnin,
        thinning=args.thinning,
        seed=args.seed,
        stationary=Stationary(args.stationary),
    )
    moves = moves_for_model(model)
    record = _record(
        "sample",
        {"model": args.model, "table": table.to_lists(), **config.to_dict()},
        {"stream": "one JSON line per emitted table follows"},
    )
    _emit(record)
    for k, state in enumerate(fiber_walk(table, moves, config)):
        sys.stdout.write(json.dumps({"index": k, "table": state.to_lists()}) + "\n")
    return {}


def _cmd_exact_test(args) -> dict:
    from .markov import Stationary, WalkConfig, exact_test, exact_test_chains

    table, model = _table_and_model(args)
    config = WalkConfig(steps=args.samples, seed=args.seed, stationary=Stationary.HYPERGEOMETRIC)
    if args.enumerate:
        if args.chains != 1:
            raise InputError("--chains cannot be combined with --enumerate")
        result = exact_test(table, model, config, method="enumerate",
                            node_budget=DEFAULT_NODE_BUDGET)
    else:
        result = exact_test_chains(table, model, config, args.chains)
    return asdict(result)


def _cmd_enumerate_fiber(args) -> dict:
    from .markov import enumerate_fiber

    table, model = _table_and_model(args)
    fiber = enumerate_fiber(sufficient_statistic(table, model), model, args.budget)
    return {
        "size": len(fiber),
        "tables": [t.to_lists() for t in fiber.tables],
    }


def _cmd_markov_moves(args) -> dict:
    from .markov import moves_for_model

    model = ModelSpec(family=_FAMILIES[args.model], form=ModelForm.TORIC, size=args.size)
    moves = moves_for_model(model)
    return {
        "count": len(moves),
        "moves": [
            {"label": m.label, "degree": m.degree, "cells": [list(r) for r in m.cells]}
            for m in moves
        ],
    }


def _cmd_toric_ideal(args) -> dict:
    from .toricideal import ideal_equal, toric_ideal

    model = ModelSpec(family=_FAMILIES[args.model], form=ModelForm.TORIC, size=args.size)
    verify = args.verify_against == "listed"
    # the common model's list is checked before a saturation that can take
    # seconds; the others are built once toric_ideal has accepted the size
    common = model.family is ModelFamily.COMMON_DIAGONAL_EFFECT
    listed = _listed(model) if verify and common else None
    gens = toric_ideal(model, method=args.method)
    outputs = {
        "count": len(gens),
        "generators": [str(g) for g in gens],
        "method": args.method,
    }
    if verify:
        from .invariants import gens_diag_effect, gens_independence

        if model.family is ModelFamily.INDEPENDENCE:
            listed = gens_independence(args.size)
        elif model.family is ModelFamily.DIAGONAL_EFFECT:
            listed = gens_diag_effect(args.size)
        equal = ideal_equal(gens, [inv.poly for inv in listed])
        outputs["verify_against"] = "listed"
        outputs["ideal_equal"] = equal
        outputs["verdict"] = "EQUAL" if equal else "NOT EQUAL"
    return outputs


def _cmd_check_connectivity(args) -> dict:
    from .markov import verify_connectivity

    report = verify_connectivity(_FAMILIES[args.model], args.size, args.max_n)
    return {
        "fibers_checked": report.fibers_checked,
        "tables_seen": report.tables_seen,
        "largest_fiber": report.largest_fiber,
        "all_connected": report.all_connected,
        "disconnected": [
            {"stat": repr(stat), "component_sizes": list(sizes)}
            for stat, sizes in report.disconnected
        ],
    }


# ---------------------------------------------------------------------------
# argument parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagonal-effect",
        description="Diagonal-effect models for square contingency tables: "
        "invariants, membership, Markov-basis sampling, toric ideals.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("invariants", help="print model invariants, optionally evaluated")
    p.add_argument("--model", choices=["diag", "common"], required=True)
    p.add_argument("--form", choices=["toric", "mixture"], required=True)
    p.add_argument("--size", type=_integer, required=True)
    p.add_argument("--listed", action="store_true", help="use the fixed size-3 generator lists")
    p.add_argument("--evaluate", metavar="PARAMS_JSON", help="evaluate at this parameter point")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("classify", help="membership verdict for a toric parameter point")
    p.add_argument("--params", required=True, metavar="PARAMS_JSON")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("boundary-check", help="support-pattern checks for a normalized table")
    p.add_argument("--table", required=True, metavar="TABLE_CSV")
    p.set_defaults(func=_cmd_boundary_check)

    p = sub.add_parser("sample", help="stream fiber-walk samples as JSON lines")
    p.add_argument("--model", choices=["diag", "common"], required=True)
    p.add_argument("--table", required=True, metavar="TABLE_CSV")
    p.add_argument("--steps", type=_integer, required=True)
    p.add_argument("--burnin", type=_integer, default=None)
    p.add_argument("--thinning", type=_integer, default=1)
    p.add_argument("--seed", type=_integer, required=True)
    p.add_argument("--stationary", choices=["uniform", "hypergeometric"], default="hypergeometric")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("exact-test", help="exact conditional chi-square test on the fiber")
    p.add_argument("--model", choices=["diag", "common"], required=True)
    p.add_argument("--table", required=True, metavar="TABLE_CSV")
    p.add_argument("--samples", type=_integer, default=50_000)
    p.add_argument("--seed", type=_integer, required=True)
    p.add_argument("--enumerate", action="store_true", help="exact p-value by total enumeration")
    p.add_argument("--chains", type=_integer, default=1)
    p.set_defaults(func=_cmd_exact_test)

    p = sub.add_parser("enumerate-fiber", help="list every table sharing the sufficient statistic")
    p.add_argument("--model", choices=["diag", "common"], required=True)
    p.add_argument("--table", required=True, metavar="TABLE_CSV")
    p.add_argument("--budget", type=_integer, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=_cmd_enumerate_fiber)

    p = sub.add_parser("markov-moves", help="print the move family of a model")
    p.add_argument("--model", choices=["diag", "common"], required=True)
    p.add_argument("--size", type=_integer, required=True)
    p.set_defaults(func=_cmd_markov_moves)

    p = sub.add_parser("toric-ideal", help="toric ideal generators from the design matrix")
    p.add_argument("--model", choices=["indep", "diag", "common"], required=True)
    p.add_argument("--size", type=_integer, required=True)
    p.add_argument("--method", choices=["saturation", "elimination"], default="saturation")
    p.add_argument("--verify-against", choices=["listed"], default=None)
    p.set_defaults(func=_cmd_toric_ideal)

    p = sub.add_parser("check-connectivity", help="exhaustive desk-scale fiber connectivity sweep")
    p.add_argument("--model", choices=["diag", "common"], required=True)
    p.add_argument("--size", type=_integer, required=True)
    p.add_argument("--max-n", type=_integer, required=True)
    p.set_defaults(func=_cmd_check_connectivity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "subcommand")
    }
    try:
        outputs = args.func(args)
        if outputs:
            _emit(_record(args.subcommand, config, outputs))
        sys.stdout.flush()  # a pipe closed early raises here, not at exit
    except BrokenPipeError:
        # the rest goes to the null device, so the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, ConvergenceError) as exc:
        print(f"budget/convergence error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolationError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
