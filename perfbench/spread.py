"""Run-to-run spread of the end-to-end metrics, the evidence for the bounds
in BENCHMARK.json:

    python3 perfbench/spread.py --workload mcmc --workload toric --seeds 1-10 \
        --label first --out perfbench/spread.json

Runs `run.py --trace 0` once per seed and workload, one run at a time, and
records for each metric its values, median, and the distance between the
first and third quartiles (`statistics.quantiles(values, n=4)`) as a share
of the median.  With several labels in one file, it also records how far
each label's median lies from the first label's.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

import checkout


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    for workload in args.workload:
        values: dict = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(checkout.BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=checkout.ROOT, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()), file=sys.stderr)
        entry = {}
        for name, vs in values.items():
            q = quantiles(vs, n=4)
            entry[name] = {"median": median(vs), "iqr_share": (q[2] - q[0]) / median(vs), "values": vs}
        runs = record.setdefault(workload, {})
        runs[args.label] = {"seeds": args.seeds, "seconds": args.seconds, "metrics": entry}
        first = next(iter(runs.values()))
        for name, stats in entry.items():
            if name in first["metrics"]:
                stats["median_vs_first"] = stats["median"] / first["metrics"][name]["median"] - 1
        print(json.dumps({workload: {n: round(s["iqr_share"], 4) for n, s in entry.items()}}),
              file=sys.stderr)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
