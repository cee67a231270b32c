"""Regenerate perfbench/refs.json from the package in this checkout:

    python3 perfbench/make_refs.py [workload ...]

Each job runs once on its base instance (no relabelling) and its summary
becomes the reference.  For the mcmc jobs the reference is instead the
exact p-value of the base table, by total enumeration.  The references are
then checked against three relabelled seeds, which must all pass.  All
workloads take about six minutes, most of it common-diagonal I = 4
saturation (toric-large).  Named workloads are updated in place.
"""

import json
import sys
import tempfile
from pathlib import Path

import checkout

checkout.use_checkout_source()

import workloads  # noqa: E402
from diagonal_effect import markov  # noqa: E402
from diagonal_effect.tables import CountTable  # noqa: E402


def reference(job) -> dict:
    out = job.run()
    if job.kind != "mcmc":
        return dict(job.summary(out), input=job.input)
    family, size = job.id.split(":")[1], int(job.id.split(":")[2])
    exact = markov.exact_test(CountTable.from_rows(json.loads(job.input)),
                              workloads.model(family, size), method="enumerate",
                              node_budget=10_000_000)
    return {"p_exact": exact.p_value, "statistic": exact.statistic_observed,
            "samples": out.samples_used, "fiber": exact.samples_used, "input": job.input}


def main() -> int:
    names = sys.argv[1:] or list(workloads.BUILDERS)
    path = workloads.REFS_PATH
    refs = json.loads(path.read_text()) if path.exists() else {}
    bad = 0
    with tempfile.TemporaryDirectory(dir=checkout.TMP) as tmp:
        for name in names:
            base = workloads.build(name, None, 1, Path(tmp), None)
            refs[name] = {job.id: reference(job) for job in base.passes[0]}
            for seed in (1, 2, 3):
                relabelled = workloads.build(name, seed, 1, Path(tmp), refs)
                for job in relabelled.passes[0]:
                    error = workloads.mismatch(job.kind, job.summary(job.run()), refs[name][job.id])
                    if error:
                        bad += 1
                        print(f"{name} seed {seed} {job.id}: {error}", file=sys.stderr)
            print(f"{name}: {len(refs[name])} references", file=sys.stderr)
    if bad:
        print(f"{bad} relabelled jobs disagree with their base instance; refs.json not written",
              file=sys.stderr)
        return 1
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
