"""One set-up measurement in a fresh interpreter.

    python3 perfbench/probe.py --workload mcmc --seed 1 --passes 6 --launched <t>

`t` is the parent's `time.perf_counter()` just before it launched this
process (the clock is system-wide on Linux).  Prints one JSON line:
`setup_s`, from launch to the first job being ready (import, input
generation, loading the references), `import_s`, the package import
alone, and `calibration_s`, a calibration unit run after the set-up.
"""

import time
import argparse
import json
import tempfile
from pathlib import Path

import calibrate
import checkout


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--launched", type=float, required=True)
    args = parser.parse_args()
    checkout.use_checkout_source()
    start = time.perf_counter()
    import diagonal_effect  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    refs = workloads.load_refs()
    with tempfile.TemporaryDirectory(dir=checkout.TMP) as tmp:
        workloads.build(args.workload, args.seed, args.passes, Path(tmp), refs)
        ready = time.perf_counter()
    print(json.dumps({"setup_s": ready - args.launched, "import_s": import_s,
                      "calibration_s": calibrate.unit()}))


if __name__ == "__main__":
    main()
