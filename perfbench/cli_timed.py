"""Runs `python3 -m diagonal_effect.cli ARGS` inside calibration units:

    python3 perfbench/cli_timed.py ARGS

Stdout and the exit code are the command's own.  The last line of stderr
is a JSON object with the seconds of the calibration units run before and
after the command, in this process and so on its core.
"""

import json
import runpy
import sys

import calibrate

before = calibrate.unit()
sys.argv = ["diagonal_effect.cli", *sys.argv[1:]]
try:
    runpy.run_module("diagonal_effect.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
after = calibrate.unit()
print(json.dumps({"calibration_s": [before, after]}), file=sys.stderr)
sys.exit(code)
