"""The benchmark's four workloads: seeded inputs, timed jobs, CLI commands.

Every input is a base instance relabelled by the seed: rows and columns
are permuted together and the table may be transposed.  All three model
families are invariant under that relabelling, so each job's answer is the
answer for its base instance, which `refs.json` holds, and its cost stays
close to the base instance's cost.  Seeds therefore vary the inputs without
varying the amount of work much, which keeps run-to-run spread small.

A job calls the package only through module attributes (`markov.exact_test`
and so on), so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from diagonal_effect import invariants, markov, membership, params, toricideal
from diagonal_effect.tables import CountTable, ModelFamily, ModelForm, ModelSpec, normalize

REFS_PATH = Path(__file__).resolve().parent / "refs.json"

FAMILIES = {
    "indep": ModelFamily.INDEPENDENCE,
    "diag": ModelFamily.DIAGONAL_EFFECT,
    "common": ModelFamily.COMMON_DIAGONAL_EFFECT,
}
TORIC, MIXTURE = ModelForm.TORIC, ModelForm.MIXTURE

# mcmc: fibers of 10 to 7000 tables, so each exact p-value is enumerable
MCMC_TABLES = [
    ("diag", [[3, 6, 4], [5, 2, 7], [6, 4, 1]]),
    ("common", [[1, 4, 4], [4, 2, 2], [2, 2, 3]]),
    ("diag", [[1, 2, 1, 0], [3, 1, 1, 2], [1, 3, 2, 1], [0, 1, 2, 3]]),
    ("common", [[0, 2, 3, 1], [2, 2, 2, 0], [0, 1, 2, 1], [1, 2, 0, 3]]),
    ("diag", [[0, 0, 1, 0, 1], [1, 0, 0, 0, 2], [1, 2, 2, 2, 1], [1, 1, 0, 0, 1], [3, 0, 0, 0, 1]]),
    ("common", [[1, 0, 0, 0, 1], [1, 0, 1, 0, 1], [2, 2, 0, 0, 0], [0, 1, 0, 1, 0], [1, 0, 0, 2, 0]]),
]
CHAIN_TABLES = [
    ("common", [[3, 1, 4], [0, 3, 4], [4, 3, 2]]),
]
MCMC_STEPS = 10_000
CLI_STEPS = 5_000
CHAIN_STEPS = 4_000
CHAINS = 3
# A correct sampler on any random stream lands within this of the exact
# p-value: a fixed floor plus four of its own standard errors.
MCMC_TOL_ABS = 0.05
MCMC_TOL_SE = 4.0

# fibers: from 4 tables to about 10^4 tables
FIBER_TABLES = [
    ("common", [[1, 0, 3], [2, 1, 0], [3, 0, 2]]),
    ("diag", [[0, 0, 1, 2], [1, 0, 0, 0], [2, 0, 0, 0], [0, 0, 1, 1]]),
    ("common", [[0, 0, 0, 0, 1], [0, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 1, 0, 0, 0], [0, 0, 0, 0, 0]]),
    ("common", [[1, 4, 4], [4, 2, 2], [2, 2, 3]]),
    ("diag", [[0, 1, 2, 0], [1, 1, 1, 7], [0, 0, 2, 1], [2, 1, 1, 2]]),
    ("common", [[1, 3, 0, 0], [0, 2, 3, 0], [0, 1, 3, 1], [1, 2, 0, 1]]),
    ("common", [[1, 0, 2, 2], [2, 2, 0, 2], [2, 2, 0, 3], [0, 1, 0, 1]]),
    ("diag", [[0, 0, 1, 2, 2], [1, 0, 0, 0, 0], [2, 1, 1, 0, 1], [0, 0, 2, 1, 0], [0, 1, 1, 0, 0]]),
    # equal row and column sums: every relabelling has the same statistic,
    # so this largest job costs the same for every seed
    ("common", [[0, 0, 1, 2, 0], [0, 0, 2, 0, 1], [2, 0, 0, 1, 0], [1, 0, 0, 0, 2], [0, 3, 0, 0, 0]]),
]
# the acceptance suite's connectivity sweep sizes: (family, I, max n)
SWEEPS = [("diag", 3, 6), ("diag", 4, 5), ("common", 3, 6), ("common", 4, 5)]
# relabelling changes the enumeration's node count by up to about 2x
ENUMERATION_BUDGET = 5_000_000

# toric: every supported (family, I) but the two large ideals, independence
# I = 4 (about 3 s) and common-diagonal I = 4 (about a minute).  One of
# them would fill most of a pass and leave too few passes for steady
# medians, so they run only in the separate `toric-large` workload.
SATURATION = [("indep", 2), ("indep", 3), ("diag", 3), ("diag", 4), ("common", 3)]
ELIMINATION = [("indep", 2), ("indep", 3), ("diag", 3), ("common", 3)]
LARGE = [("indep", 4), ("common", 4)]

# invariants
POINT_SEED = 7
CLASSIFY_POINTS = 20
SIZES = (3, 4, 5)


def model(family: str, size: int, form: ModelForm = TORIC) -> ModelSpec:
    return ModelSpec(FAMILIES[family], form, size)


@dataclass(frozen=True)
class Relabel:
    """Simultaneous row/column permutation, then an optional transpose."""

    perm: tuple
    transpose: bool

    @classmethod
    def draw(cls, rng: Optional[random.Random], size: int) -> "Relabel":
        perm = list(range(size))
        if rng is None:
            return cls(tuple(perm), False)
        rng.shuffle(perm)
        return cls(tuple(perm), rng.random() < 0.5)

    def vector(self, v) -> tuple:
        out = [None] * len(v)
        for i, x in enumerate(v):
            out[self.perm[i]] = x
        return tuple(out)

    def grid(self, cells) -> List[list]:
        size = len(cells)
        out = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(size):
                a, b = self.perm[i], self.perm[j]
                if self.transpose:
                    a, b = b, a
                out[a][b] = cells[i][j]
        return out

    def table(self, cells) -> CountTable:
        return CountTable.from_rows(self.grid(cells))

    def toric(self, p: params.ToricParams) -> params.ToricParams:
        r, c = self.vector(p.zeta_r), self.vector(p.zeta_c)
        if self.transpose:
            r, c = c, r
        return params.ToricParams(zeta_r=r, zeta_c=c, zeta_g=self.vector(p.zeta_g))

    def mixture(self, p: params.MixtureParams) -> params.MixtureParams:
        r, c = self.vector(p.r), self.vector(p.c)
        if self.transpose:
            r, c = c, r
        return params.MixtureParams(alpha=p.alpha, r=r, c=c, d=self.vector(p.d))


@dataclass
class Job:
    """One timed unit of work.  `run` makes the calls into the package;
    `summary` turns its output into the JSON facts compared with the
    reference; `kind` names the comparison ("exact" or "mcmc")."""

    id: str
    input: str
    run: Callable[[], object]
    summary: Callable[[object], dict]
    kind: str = "exact"


@dataclass
class CliCommand:
    id: str
    argv: List[str]
    ref_id: str  # the job whose reference the RunRecord is checked against
    summary: Callable[[dict], dict]  # RunRecord outputs -> facts compared with the reference
    kind: str = "exact"


@dataclass
class Workload:
    name: str
    passes: List[List[Job]]  # the jobs of each pass, in order
    cli: List[CliCommand]
    refs: Dict[str, dict]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def mismatch(kind: str, got: dict, ref: dict) -> Optional[str]:
    """None when `got` agrees with the reference, else a description."""
    if kind == "mcmc":
        tol = MCMC_TOL_ABS + MCMC_TOL_SE * got["stderr"]
        if abs(got["p_value"] - ref["p_exact"]) > tol:
            return f"p-value {got['p_value']} is not within {tol:.4f} of exact {ref['p_exact']}"
        if got["samples"] != ref["samples"]:
            return f"samples {got['samples']} != {ref['samples']}"
        return _statistic_mismatch(got, ref)
    for key, want in ref.items():
        if key in ("input", "statistic"):
            continue
        if got.get(key) != want:
            return f"{key}: got {got.get(key)!r}, reference {want!r}"
    return _statistic_mismatch(got, ref)


def _statistic_mismatch(got: dict, ref: dict) -> Optional[str]:
    # the Pearson statistic is a float sum, so relabelling moves its last bits
    if "statistic" in ref and abs(got["statistic"] - ref["statistic"]) > 1e-9 * (1 + abs(ref["statistic"])):
        return f"statistic {got['statistic']} != {ref['statistic']}"
    return None


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# jobs and CLI commands; `rng` None gives the base instances themselves
# ---------------------------------------------------------------------------

def _seed(rng) -> int:
    return rng.randrange(2**31) if rng else 0


def _test_summary(result) -> dict:
    return {"p_value": result.p_value, "statistic": result.statistic_observed,
            "samples": result.samples_used, "method": result.method}


def _mcmc_summary(result) -> dict:
    return dict(_test_summary(result), stderr=result.monte_carlo_stderr)


def _write_table(tmp: Path, name: str, table: CountTable) -> str:
    path = tmp / name
    path.write_text("\n".join(",".join(str(x) for x in row) for row in table.cells) + "\n")
    return str(path)


def mcmc_jobs(rng) -> List[Job]:
    jobs = []
    for family, cells in MCMC_TABLES:
        size = len(cells)
        table = Relabel.draw(rng, size).table(cells)
        config = markov.WalkConfig(steps=MCMC_STEPS, seed=_seed(rng))

        def run(table=table, m=model(family, size), config=config):
            return markov.exact_test(table, m, config, method="mcmc")

        jobs.append(Job(f"mcmc:{family}:{size}", json.dumps(cells), run, _mcmc_summary, "mcmc"))
    for family, cells in CHAIN_TABLES:
        size = len(cells)
        table = Relabel.draw(rng, size).table(cells)
        config = markov.WalkConfig(steps=CHAIN_STEPS, seed=_seed(rng))

        def run(table=table, m=model(family, size), config=config):
            return markov.exact_test_chains(table, m, config, CHAINS)

        jobs.append(Job(f"chains:{family}:{size}", json.dumps(cells), run, _mcmc_summary, "mcmc"))
    return jobs


def mcmc_cli(rng, tmp: Path) -> List[CliCommand]:
    cli = []
    for k in (1, 2):  # common I = 3 and diag I = 4
        family, cells = MCMC_TABLES[k]
        job_id = f"mcmc:{family}:{len(cells)}"
        path = _write_table(tmp, f"mcmc{k}.csv", Relabel.draw(rng, len(cells)).table(cells))
        cli.append(CliCommand(
            f"exact-test:{family}:{len(cells)}",
            ["exact-test", "--model", family, "--table", path,
             "--samples", str(CLI_STEPS), "--seed", str(_seed(rng))],
            job_id,
            lambda out: {"p_value": out["p_value"], "stderr": out["monte_carlo_stderr"],
                         "statistic": out["statistic_observed"], "samples": out["samples_used"]},
            "mcmc",
        ))
    return cli


def _sweep_summary(report) -> dict:
    return {"all_connected": report.all_connected, "fibers": report.fibers_checked,
            "tables_seen": report.tables_seen, "largest_fiber": report.largest_fiber}


def fibers_jobs(rng) -> List[Job]:
    jobs = []
    for k, (family, cells) in enumerate(FIBER_TABLES):
        size = len(cells)
        table = Relabel.draw(rng, size).table(cells)

        def run(table=table, m=model(family, size)):
            return markov.exact_test(table, m, method="enumerate", node_budget=ENUMERATION_BUDGET)

        jobs.append(Job(f"enumerate{k}:{family}:{size}", json.dumps(cells), run, _test_summary))
    for family, size, max_n in SWEEPS:
        def run(f=FAMILIES[family], size=size, max_n=max_n):
            return markov.verify_connectivity(f, size, max_n)

        jobs.append(Job(f"sweep:{family}:{size}:{max_n}", f"{family}:{size}:{max_n}", run, _sweep_summary))
    return jobs


def fibers_cli(rng, tmp: Path) -> List[CliCommand]:
    k = 5  # 506 tables: within the CLI's default node budget under any relabelling
    family, cells = FIBER_TABLES[k]
    path = _write_table(tmp, "fiber.csv", Relabel.draw(rng, len(cells)).table(cells))
    return [
        CliCommand(
            f"exact-test-enumerate:{family}:{len(cells)}",
            ["exact-test", "--model", family, "--table", path, "--enumerate", "--seed", "0"],
            f"enumerate{k}:{family}:{len(cells)}",
            lambda out: {"p_value": out["p_value"], "statistic": out["statistic_observed"],
                         "samples": out["samples_used"], "method": out["method"]},
        ),
        CliCommand(
            "check-connectivity:diag:3:6",
            ["check-connectivity", "--model", "diag", "--size", "3", "--max-n", "6"],
            "sweep:diag:3:6",
            lambda out: {"all_connected": out["all_connected"], "fibers": out["fibers_checked"],
                         "tables_seen": out["tables_seen"], "largest_fiber": out["largest_fiber"]},
        ),
    ]


def listed_generators(family: str, size: int):
    if family == "common":
        return [inv.poly for inv in invariants.gens_common_toric_listed3()] if size == 3 else None
    if family == "diag":
        return [inv.poly for inv in invariants.gens_diag_effect(size)]
    return [inv.poly for inv in invariants.gens_independence(size)] if size == 2 else None


def _toric_summary(output) -> dict:
    gens, equal = output
    return {"generators": [str(g) for g in gens], "ideal_equal": equal}


def saturation_job(family: str, size: int, rng) -> Job:
    listed = listed_generators(family, size)
    if listed is not None and rng is not None:
        # signs are free; the order is kept, since it steers Buchberger
        listed = [-g if rng.random() < 0.5 else g for g in listed]

    def run(m=model(family, size)):
        gens = toricideal.toric_ideal(m, method="saturation")
        return gens, toricideal.ideal_equal(gens, listed) if listed is not None else None

    return Job(f"saturation:{family}:{size}", f"{family}:{size}", run, _toric_summary)


def toric_jobs(rng) -> List[Job]:
    jobs = [saturation_job(family, size, rng) for family, size in SATURATION]
    for family, size in ELIMINATION:
        def run(m=model(family, size)):
            return toricideal.toric_ideal(m, method="elimination"), None

        jobs.append(Job(f"elimination:{family}:{size}", f"{family}:{size}", run, _toric_summary))
    if rng is not None:
        rng.shuffle(jobs)
    return jobs


def toric_cli(rng, tmp: Path) -> List[CliCommand]:
    return [
        CliCommand(
            f"toric-ideal:{family}:{size}",
            ["toric-ideal", "--model", family, "--size", str(size), "--verify-against", "listed"],
            f"saturation:{family}:{size}",
            lambda out: {"generators": out["generators"],
                         "ideal_equal": out["ideal_equal"] and out["verdict"] == "EQUAL"},
        )
        for family, size in (("common", 3), ("diag", 4))
    ]


def toric_large_jobs(rng) -> List[Job]:
    return [saturation_job(family, size, rng) for family, size in LARGE]


def _vanishing_summary(report) -> dict:
    return {"all_zero": report.all_zero, "evaluations": len(report.entries)}


def _eval_job(job_id: str, point_params, form: ModelForm, gens_fn) -> Job:
    point_fn = (lambda: params.toric_point(point_params)[0]) if form is TORIC else (
        lambda: params.mixture_point(point_params))

    def run():
        return invariants.check_vanishing(gens_fn(), point_fn())

    return Job(job_id, job_id, run, _vanishing_summary)


def _common_toric_gens(size: int):
    gens = invariants.moves_to_binomials(markov.moves_for_model(model("common", size)))
    if size == 3:
        gens = gens + [inv.poly for inv in invariants.gens_common_toric_listed3()]
    return gens


def _common_mixture_gens(size: int):
    gens = invariants.gens_common_mixture_families(size)
    if size == 3:
        gens = gens + invariants.gens_common_mixture_listed3()
    return gens


def boundary_tables(size: int) -> List[List[list]]:
    """All-ones tables with a zero diagonal cell, a zero off-diagonal cell,
    both, or neither."""
    out = []
    for zeros in ([(0, 0)], [(0, 1)], [(0, 0), (1, 2)], []):
        cells = [[1] * size for _ in range(size)]
        for i, j in zeros:
            cells[i][j] = 0
        out.append(cells)
    return out


def _tally(kinds) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for k in kinds:
        out[k] = out.get(k, 0) + 1
    return dict(sorted(out.items()))


def _point(rng, family: str, size: int, form: ModelForm, seed: int):
    base = params.random_rational_point(model(family, size, form), seed)
    relabel = Relabel.draw(rng, size)
    return relabel.toric(base) if form is TORIC else relabel.mixture(base)


def invariants_jobs(rng) -> List[Job]:
    variants_point = _point(rng, "common", 3, MIXTURE, POINT_SEED)

    def variants(point_params=variants_point):
        return invariants.nonvanishing_variants_report(params.mixture_point(point_params))

    jobs = [Job("variants:3", "variants:3", variants, lambda reports: {
        "names": [r["name"] for r in reports],
        "variants_nonzero": [r["variant_value"] != 0 for r in reports],
        "emitted_zero": [r["emitted_value"] == 0 for r in reports],
    })]
    for size in SIZES:
        for family in ("diag", "common"):
            for form in (TORIC, MIXTURE):
                point = _point(rng, family, size, form, POINT_SEED)
                job_id = f"eval:{family}:{form.value}:{size}"
                if family == "diag":
                    jobs.append(_eval_job(job_id, point, form, lambda s=size: invariants.gens_diag_effect(s)))
                elif form is TORIC:
                    jobs.append(_eval_job(job_id, point, form, lambda s=size: _common_toric_gens(s)))
                    # the mixture families do not vanish on the toric model
                    jobs.append(_eval_job(f"eval:common-mixture-families:toric:{size}", point, form,
                                          lambda s=size: _common_mixture_gens(s)))
                else:
                    jobs.append(_eval_job(job_id, point, form, lambda s=size: _common_mixture_gens(s)))

        toric_points = [_point(rng, "diag", size, TORIC, k) for k in range(CLASSIFY_POINTS)]

        def classify(points=toric_points):
            return [membership.classify_toric_point(p) for p in points]

        jobs.append(Job(f"classify:{size}", f"classify:{size}", classify, lambda verdicts: {
            "verdicts": [[v.kind.value, v.case.value if v.case else None] for v in verdicts],
            "tally": _tally(v.kind.value for v in verdicts),
        }))

        mixture_points = [_point(rng, "diag", size, MIXTURE, k) for k in range(CLASSIFY_POINTS)]

        def round_trip(points=mixture_points):
            out = []
            for p in points:
                table, norms = params.toric_point(membership.mixture_to_toric(p))
                out.append(table == params.mixture_point(p) and norms.N_T == 1)
            return out

        jobs.append(Job(f"round-trip:{size}", f"round-trip:{size}", round_trip,
                        lambda ok: {"round_trips": sum(ok), "points": len(ok)}))

        tables = [normalize(Relabel.draw(rng, size).table(c)) for c in boundary_tables(size)]

        def boundary(tables=tables):
            return [membership.boundary_membership_check(t) for t in tables]

        jobs.append(Job(f"boundary:{size}", f"boundary:{size}", boundary, lambda reports: {
            "verdicts": [[r.verdict.value, r.invariants_vanish, len(r.toric_exclusions),
                          len(r.mixture_exclusions)] for r in reports],
        }))
    return jobs


def invariants_cli(rng, tmp: Path) -> List[CliCommand]:
    mix = _point(rng, "common", 4, MIXTURE, POINT_SEED)
    mix_path = tmp / "mixture.json"
    mix_path.write_text(json.dumps({"alpha": str(mix.alpha), "r": [str(x) for x in mix.r],
                                    "c": [str(x) for x in mix.c], "d": [str(x) for x in mix.d]}))
    tor = _point(rng, "diag", 4, TORIC, 0)  # the first point of the classify:4 job
    tor_path = tmp / "toric.json"
    tor_path.write_text(json.dumps({"zeta_r": [str(x) for x in tor.zeta_r],
                                    "zeta_c": [str(x) for x in tor.zeta_c],
                                    "zeta_gamma": [str(x) for x in tor.zeta_g]}))
    return [
        CliCommand(
            "invariants-evaluate:common:mixture:4",
            ["invariants", "--model", "common", "--form", "mixture", "--size", "4",
             "--evaluate", str(mix_path)],
            "eval:common:mixture:4",
            lambda out: {"all_zero": out["vanishing"]["all_zero"], "evaluations": out["count"]},
        ),
        CliCommand(
            "classify:diag:4",
            ["classify", "--params", str(tor_path)],
            "classify:4",
            lambda out: {"verdict": [out["verdict"], out["case"]]},
            "first-verdict",
        ),
    ]


BUILDERS = {
    "mcmc": (mcmc_jobs, mcmc_cli),
    "fibers": (fibers_jobs, fibers_cli),
    "toric": (toric_jobs, toric_cli),
    "invariants": (invariants_jobs, invariants_cli),
    "toric-large": (toric_large_jobs, lambda rng, tmp: []),
}


def build(name: str, seed: Optional[int], passes: int, tmp: Path, refs: Optional[dict]) -> Workload:
    """Inputs for `passes` passes and the CLI commands, whose files go to
    `tmp`.  Each pass draws its own relabelling from the seed, so a run
    covers several inputs of each base instance.  Seed None gives the base
    instances (used to write the references)."""
    make_jobs, make_cli = BUILDERS[name]

    def rng(part: str):
        return random.Random(f"perfbench|{name}|{seed}|{part}") if seed is not None else None

    pass_jobs = [make_jobs(rng(f"pass{k}")) for k in range(passes)]
    cli = make_cli(rng("cli"), tmp)
    mine = {}
    if refs is not None:
        mine = refs[name]
        for job in pass_jobs[0]:
            if job.id not in mine or mine[job.id]["input"] != job.input:
                raise RuntimeError(f"refs.json is stale for {name}/{job.id}; rerun perfbench/make_refs.py")
    return Workload(name, pass_jobs, cli, mine)


def check_cli(cmd: CliCommand, outputs: dict, refs: Dict[str, dict]) -> Optional[str]:
    got = cmd.summary(outputs)
    ref = refs[cmd.ref_id]
    if cmd.kind == "first-verdict":
        want = ref["verdicts"][0]
        return None if got["verdict"] == want else f"verdict {got['verdict']} != {want}"
    if cmd.kind == "mcmc":
        ref = dict(ref, samples=CLI_STEPS)
    return mismatch(cmd.kind, got, ref)
