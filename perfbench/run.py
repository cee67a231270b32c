"""Benchmark of the diagonal_effect package, run from the repository root:

    python3 perfbench/run.py --workload mcmc --seed 1 --seconds 25 --trace 0

Workloads (BENCHMARK.json says why each was chosen): mcmc, fibers, toric,
invariants.  toric-large, the saturations of independence and
common-diagonal I = 4 (about a minute), is kept out of the timed set and
runs only when named.

One process, one thread, a closed loop: one job at a time, and the CLI
subprocesses one at a time too.  A run
  1. launches the set-up probe (probe.py) five times in fresh interpreters;
  2. builds the seeded inputs and loads refs.json in this process;
  3. with --trace 0, runs a fixed number of passes over the jobs, then a
     fixed number of rounds of the workload's CLI commands, and reports
     the end-to-end metrics;
     with --trace 1, runs untraced passes, then traced passes (module
     boundary spans, see layers.py), and reports the per-layer metrics.
The numbers of passes and rounds follow from --seconds alone, so every run
of a workload does the same work; only in a spell slow enough to overrun
--seconds by a fifth does a run stop early.  Every output is checked against the
reference; a job or command that raises or differs counts as failed.

End-to-end times are calibrated (calibrate.py): each job, CLI command and
set-up probe runs between calibration units on its own core, and its time
is scaled to a reference machine speed.  Per-layer times are raw, with
`bench.speed_factor` beside them.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
The line before it holds the details: the machine fingerprint, the raw
times, the tail percentile and job count, per-job medians and failures.
Both, and the traced run's spans, are also written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

import calibrate
import checkout
from spans import clock

SETUP_PROBES = 5
# Seconds of one pass and of one CLI round on a 2-core x86 sandbox in its
# slower spells.  They fix how many passes and rounds fit in --seconds, as
# constants, so that both sides of a comparison do the same work.
NOMINAL_PASS_S = {"mcmc": 3.0, "fibers": 2.7, "toric": 0.77, "invariants": 1.2, "toric-large": 65.0}
NOMINAL_CLI_S = {"mcmc": 1.2, "fibers": 0.8, "toric": 1.0, "invariants": 1.0, "toric-large": 1.0}
PASS_SHARE = 0.65       # untraced run: job passes
CLI_SHARE = 0.22        # untraced run: CLI rounds
UNTRACED_SHARE = 0.3    # traced run: untraced passes
TRACED_SHARE = 0.5      # traced run: traced passes
CLI_TIMEOUT_S = 120
# In a spell so slow that the fixed work would run past this many times
# --seconds, the run stops starting passes and rounds (keeping at least two
# passes and three rounds), so that the whole benchmark keeps its time.
DEADLINE_FACTOR = 1.2


def repeats(seconds: int, share: float, nominal: float, least: int) -> int:
    return max(least, round(seconds * share / nominal))


class Outcomes:
    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, what: str, error: Optional[str]) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{what}: {error}")


def run_pass(workload, k: int, outcomes: Outcomes) -> List[tuple]:
    """Pass `k` over the jobs, with a calibration unit between jobs;
    returns (job id, raw seconds, speed factor) per job.  Outputs are
    checked after the pass, outside the timed region."""
    import workloads

    outputs = []
    unit = calibrate.unit()
    for job in workload.passes[k]:
        t = clock()
        try:
            out, error = job.run(), None
        except Exception as exc:  # a failed job is counted, the run goes on
            out, error = None, f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc()
        raw = clock() - t
        next_unit = calibrate.unit()
        outputs.append((job, out, error, raw, calibrate.factor(unit, next_unit)))
        unit = next_unit
    for job, out, error, _, _ in outputs:
        if error is None:
            error = workloads.mismatch(job.kind, job.summary(out), workload.refs[job.id])
        outcomes.record(job.id, error)
    return [(job.id, raw, factor) for job, _, _, raw, factor in outputs]


def run_cli_round(workload, outcomes: Outcomes, cwd: Path, times: Dict[str, List[tuple]]) -> None:
    """Each CLI command once; appends (raw, calibrated) seconds per command."""
    import workloads

    env = dict(os.environ, PYTHONPATH=str(checkout.SRC))
    for cmd in workload.cli:
        t = clock()
        proc = subprocess.run(
            [sys.executable, str(checkout.BENCH / "cli_timed.py"), *cmd.argv],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        wall = clock() - t
        try:
            units = json.loads(proc.stderr.strip().splitlines()[-1])["calibration_s"]
        except (ValueError, KeyError, IndexError) as exc:
            outcomes.record(f"cli {cmd.id}", f"no calibration from the command: {exc!r}")
            continue
        raw = wall - sum(units)
        times.setdefault(cmd.id, []).append((raw, raw * calibrate.factor(*units)))
        if proc.returncode != 0:
            error = f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
        else:
            try:
                error = workloads.check_cli(cmd, json.loads(proc.stdout)["outputs"], workload.refs)
            except (ValueError, KeyError, TypeError) as exc:
                error = f"unreadable RunRecord: {exc!r}"
        outcomes.record(f"cli {cmd.id}", error)


def setup_probe(workload: str, seed: int, passes: int) -> dict:
    launched = clock()
    proc = subprocess.run(
        [sys.executable, str(checkout.BENCH / "probe.py"), "--workload", workload,
         "--seed", str(seed), "--passes", str(passes), "--launched", repr(launched)],
        capture_output=True, text=True, timeout=CLI_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: List[float]) -> Optional[tuple]:
    """(value, percentile): the highest percentile with at least ten jobs
    beyond it, or None with too few jobs."""
    n = len(times)
    if n <= 10:
        return None
    return sorted(times)[n - 11], 100.0 * (n - 10) / n


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(checkout.ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(checkout.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def fingerprint(load_start: tuple) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def pass_counts(args) -> tuple:
    """(untraced, traced) numbers of passes."""
    nominal = NOMINAL_PASS_S[args.workload]
    if not args.trace:
        return repeats(args.seconds, PASS_SHARE, nominal, 2), 0
    return (repeats(args.seconds, UNTRACED_SHARE, nominal, 1),
            repeats(args.seconds, TRACED_SHARE, nominal, 1))


def untraced_run(workload, args, outcomes, probes, deadline) -> tuple:
    walls, raw_walls = [], []
    job_times: Dict[str, List[float]] = {}
    for k in range(len(workload.passes)):
        if k >= 2 and clock() > deadline - CLI_SHARE * args.seconds:
            break
        jobs = run_pass(workload, k, outcomes)
        walls.append(sum(raw * factor for _, raw, factor in jobs))
        raw_walls.append(sum(raw for _, raw, _ in jobs))
        for job_id, raw, factor in jobs:
            job_times.setdefault(job_id, []).append(raw * factor)
    cli_times: Dict[str, List[tuple]] = {}
    n_rounds = repeats(args.seconds, CLI_SHARE, NOMINAL_CLI_S[args.workload], 3)
    with tempfile.TemporaryDirectory(dir=checkout.TMP) as cwd:
        for r in range(n_rounds if workload.cli else 0):
            if r >= 3 and clock() > deadline:
                break
            run_cli_round(workload, outcomes, Path(cwd), cli_times)
    all_times = [t for ts in job_times.values() for t in ts]
    setup = [p["setup_s"] * calibrate.factor(p["calibration_s"]) for p in probes]
    metrics = {
        "setup_s": metric(median(setup), "s"),
        "run_s": metric(median(walls), "s"),
        "job_p50_ms": metric(1e3 * median(all_times), "ms"),
    }
    details = {"passes": len(walls), "jobs": len(all_times), "pass_s": walls,
               "raw": {"setup_s": median(p["setup_s"] for p in probes),
                       "run_s": median(raw_walls), "pass_s": raw_walls}}
    tail_of = tail(all_times)
    if tail_of is not None:
        metrics["job_tail_ms"] = metric(1e3 * tail_of[0], "ms")
        details["job_tail_percentile"] = tail_of[1]
    if cli_times:
        # each command's median, summed over the workload's commands
        metrics["cli_s"] = metric(sum(median(c for _, c in ts) for ts in cli_times.values()), "s")
        details["cli_s"] = {k: [c for _, c in ts] for k, ts in cli_times.items()}
        details["raw"]["cli_s"] = sum(median(r for r, _ in ts) for ts in cli_times.values())
    metrics["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    details["job_median_ms"] = {k: 1e3 * median(v) for k, v in sorted(job_times.items())}
    return metrics, details, None


def traced_run(workload, args, outcomes, probes, deadline) -> tuple:
    import layers
    from spans import Tracer

    n_untraced, n_traced = pass_counts(args)
    job_times: Dict[str, List[float]] = {}
    untraced, factors = [], []
    for k in range(n_untraced):
        jobs = run_pass(workload, k, outcomes)
        untraced.append(sum(raw for _, raw, _ in jobs))
        for job_id, raw, factor in jobs:
            job_times.setdefault(job_id, []).append(raw)
            factors.append(factor)
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        traced = []
        for k in range(n_untraced, n_untraced + n_traced):
            if k > n_untraced and clock() > deadline:
                break
            jobs = run_pass(workload, k, outcomes)
            traced.append(sum(raw for _, raw, _ in jobs))
            factors.extend(factor for _, _, factor in jobs)
    finally:
        tracer.restore()
    failed_frac = len(outcomes.failures) / outcomes.attempted
    values = layers.layer_values(tracer, traced, untraced, job_times,
                                 median(p["import_s"] for p in probes), failed_frac)
    values["bench.speed_factor"] = median(factors)
    metrics = {name: metric(values[name], unit) for name, unit in layers.METRICS}
    details = {"untraced_passes": len(untraced), "traced_passes": len(traced),
               "untraced_pass_s": untraced, "traced_pass_s": traced}
    return metrics, details, tracer.to_json()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(NOMINAL_PASS_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    checkout.use_checkout_source()
    deadline = clock() + DEADLINE_FACTOR * args.seconds
    load_start = os.getloadavg()
    passes = sum(pass_counts(args))
    probes = [setup_probe(args.workload, args.seed, passes) for _ in range(SETUP_PROBES)]

    import workloads

    refs = workloads.load_refs()
    outcomes = Outcomes()
    with tempfile.TemporaryDirectory(dir=checkout.TMP) as tmp:
        workload = workloads.build(args.workload, args.seed, passes, Path(tmp), refs)
        run = traced_run if args.trace else untraced_run
        metrics, details, spans = run(workload, args, outcomes, probes, deadline)

    result = {
        "correct": not outcomes.failures,
        "attempted": outcomes.attempted,
        "failed": len(outcomes.failures),
        "metrics": metrics,
    }
    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        failed_frac=len(outcomes.failures) / outcomes.attempted,
        failures=outcomes.failures[:20], setup_probes=probes,
        fingerprint=fingerprint(load_start),
    )
    checkout.RESULTS.mkdir(exist_ok=True)
    out_path = checkout.RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"result": result, "details": details, "trace": spans}) + "\n")
    for failure in outcomes.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
