"""Run alternating parent/change pairs of the benchmark and record one row.

    python3 tools/bench_pairs.py --workload fibers --seeds 11 12 13 --seconds 25

The change is the commit `HEAD` and the parent a commit named by `--parent`
(default `HEAD^`).  Each is exported with `git archive` into its own
temporary directory, removed afterwards, so both sides are committed trees
and the row names the commits it measured; uncommitted edits are not
measured.  Each seed is one pair: both checkouts run their own
`perfbench/run.py` for the workload and seed, parent first in even pairs
and change first in odd ones.  The script appends one row to
`BENCH_<workload>.json` at the repository root: the commits, the seeds and
pairs, `--seconds`, the parent's and the change's median and quartiles for
every end-to-end metric of BENCHMARK.json, the pairs the change won, the
attempted and failed counts, and the harness fingerprint.  Standard
library only.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
# the fingerprint fields that describe the machine rather than one run
MACHINE = ("nproc", "cpu_count", "machine", "python", "numpy")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True).stdout.strip()


def export(commit: str, dest: Path) -> Path:
    """The tree of `commit`, extracted from `git archive` into `dest`."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit], capture_output=True,
                             check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest


def run_bench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced run of `checkout`'s own harness: its result line, with
    the fingerprint from its details line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True)
    details_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    result["fingerprint"] = json.loads(details_line)["details"]["fingerprint"]
    return result


def summary(values: List[float]) -> dict:
    q1, mid, q3 = quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3, "values": values}


def build_row(commit: str, parent: str, workload: str, seeds: List[int], seconds: int,
              runs: Dict[str, List[dict]]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    metrics = {}
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        if not all(name in r["metrics"] for side in runs.values() for r in side):
            continue
        sides = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        won = sum((c < p) if lower else (c > p) for p, c in zip(sides["parent"], sides["change"]))
        metrics[name] = {"unit": m["unit"], "better": m["better"], "won": won,
                         **{side: summary(values) for side, values in sides.items()}}
    fingerprint = runs["change"][0]["fingerprint"]
    return {
        "commit": commit,
        "parent": parent,
        "workload": workload,
        "seeds": seeds,
        "pairs": len(seeds),
        "seconds": seconds,
        "metrics": metrics,
        "attempted": {side: [r["attempted"] for r in runs[side]] for side in runs},
        "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
        "fingerprint": {k: fingerprint.get(k) for k in MACHINE},
        "backfilled": False,
    }


def append_row(workload: str, row: dict) -> Path:
    path = ROOT / f"BENCH_{workload}.json"
    rows = json.loads(path.read_text()) if path.exists() else []
    rows.append(row)
    path.write_text(json.dumps(rows, indent=1) + "\n")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--parent", default="HEAD^", help="the parent commit (default HEAD^)")
    args = parser.parse_args()

    commit, parent = git("rev-parse", "HEAD"), git("rev-parse", args.parent)
    runs: Dict[str, List[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        order = [("parent", export(parent, Path(tmp, "parent"))),
                 ("change", export(commit, Path(tmp, "change")))]
        for k, seed in enumerate(args.seeds):
            for side, checkout in order if k % 2 == 0 else order[::-1]:
                runs[side].append(run_bench(checkout, args.workload, seed, args.seconds))
                print(f"pair {k + 1}/{len(args.seeds)} seed {seed} {side}: "
                      f"{json.dumps(runs[side][-1]['metrics'])}", file=sys.stderr, flush=True)
    row = build_row(commit, parent, args.workload, args.seeds, args.seconds, runs)
    print(f"appended a row to {append_row(args.workload, row)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
