"""Golden RunRecords of the console script.

`golden/cli_runrecords.json` pins, for each command in COMMANDS, the bytes
`diagonal-effect` writes to stdout and its exit code; stderr is not pinned.
Each stdout is pinned by its length and SHA-256, and is also kept verbatim
when it has at most INLINE_MAX bytes (the I = 4 and 5 mixture invariants
print about 0.9 MB between them).
This file is the one home of the console script's output pins: every
subcommand at the acceptance sizes and on the demo inputs, the largest
outputs (the I = 5 sweeps and moves, the 9,480 tables of demos/table5.csv,
the size-4 toric ideals, the 11,890 invariants of size 6 and two
5,000-step sample streams), the listed-generator checks, two exit-2 cases
and one exit-3 case.  Each runs in-process from the repository root with
repo-relative paths, because the RunRecord config echoes the paths it was
given.
Regenerate the file only for a change that is meant to alter a RunRecord,
and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli_runrecords.json
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from diagonal_effect.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "cli_runrecords.json"
INLINE_MAX = 16_384

COMMANDS = [
    # each subcommand at the acceptance sizes, on the demo inputs and past them
    "markov-moves --model diag --size 3",
    "markov-moves --model common --size 5",
    "markov-moves --model diag --size 5",
    "check-connectivity --model diag --size 3 --max-n 4",
    "check-connectivity --model common --size 3 --max-n 6",
    "check-connectivity --model diag --size 4 --max-n 5",
    "check-connectivity --model common --size 4 --max-n 5",
    "check-connectivity --model diag --size 5 --max-n 4",
    "check-connectivity --model common --size 5 --max-n 4",
    "enumerate-fiber --model common --table demos/table3.csv",
    "enumerate-fiber --model common --table demos/table5.csv",
    "toric-ideal --model common --size 3 --verify-against listed",
    "toric-ideal --model common --size 3 --method elimination",
    "toric-ideal --model common --size 4",
    "toric-ideal --model indep --size 4",
    "toric-ideal --model diag --size 4",
    "toric-ideal --model diag --size 4 --verify-against listed",
    "invariants --model diag --form toric --size 3",
    "invariants --model common --form mixture --size 4",
    "invariants --model common --form mixture --size 4 --evaluate demos/mixture4.json",
    "invariants --model common --form mixture --size 5 --evaluate demos/mixture5.json",
    "invariants --model common --form mixture --size 6",
    "invariants --model common --form toric --size 4",
    "exact-test --model common --table demos/table3.csv --samples 2000 --seed 1",
    "exact-test --model common --table demos/table3.csv --samples 2000 --seed 1 --chains 2",
    "exact-test --model common --table demos/table5.csv --samples 2000 --seed 1",
    "exact-test --model common --table demos/table3.csv --seed 1 --enumerate",
    "exact-test --model common --table demos/table5.csv --enumerate --seed 0",
    "exact-test --model common --table demos/table3.csv --samples 20000 --seed 1",
    "sample --model common --table demos/table3.csv --steps 50 --seed 1",
    # on table3 the walk keeps its proposal tables, on table5 it drops them
    "sample --model common --table demos/table3.csv --steps 5000 --thinning 3 --seed 1",
    "sample --model common --table demos/table5.csv --steps 5000 --thinning 3 --seed 1",
    "sample --model diag --table demos/table3.csv --steps 50 --seed 1 --stationary uniform",
    # the other commands and record shapes
    "classify --params tests/golden/cli_toric3.json",
    "boundary-check --table demos/table3.csv",
    "toric-ideal --model indep --size 3 --verify-against listed",
    "toric-ideal --model diag --size 3 --verify-against listed",
    "invariants --model common --form toric --size 3 --listed --evaluate tests/golden/cli_toric3.json",
    "invariants --model common --form mixture --size 3 --listed",
    # input errors (no listed generators for diag, mixture parameters) and a budget error
    "invariants --model diag --form toric --size 3 --listed",
    "classify --params demos/mixture4.json",
    "enumerate-fiber --model common --table demos/table5.csv --budget 10",
]


def run(command: str) -> dict:
    """Exit code and stdout pin of one command, run from the repository root."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(command.split())
    finally:
        os.chdir(cwd)
    data = out.getvalue().encode()
    pin = {"exit_code": code, "stdout_bytes": len(data),
           "stdout_sha256": hashlib.sha256(data).hexdigest()}
    if len(data) <= INLINE_MAX:
        pin["stdout"] = out.getvalue()
    return pin


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("command", COMMANDS)
def test_runrecord(golden, command):
    assert run(command) == golden[command]


def test_mcmc_p_values_near_the_exact_p(golden):
    # one chain and two pooled chains, each within 0.05 + 4 stderr of the exact p
    def outputs(command):
        return json.loads(golden[command]["stdout"])["outputs"]

    exact = outputs("exact-test --model common --table demos/table3.csv --seed 1 --enumerate")
    for command in ("exact-test --model common --table demos/table3.csv --samples 20000 --seed 1",
                    "exact-test --model common --table demos/table3.csv --samples 2000 --seed 1 --chains 2"):
        mcmc = outputs(command)
        assert abs(mcmc["p_value"] - exact["p_value"]) <= 0.05 + 4 * mcmc["monte_carlo_stderr"]


def test_golden_pins_exactly_these_commands(golden):
    assert list(golden) == COMMANDS


if __name__ == "__main__":
    json.dump({command: run(command) for command in COMMANDS}, sys.stdout, indent=1)
    sys.stdout.write("\n")
