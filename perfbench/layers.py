"""Which package calls the traced run wraps, and the per-layer metrics.

Span names are `<layer>.<call>`, the layer being the package module that
does the work (`tables` gets no row: only other layers call it).  The
wrappers sit at the module boundaries the benchmark's jobs cross, and at
the internal bindings those calls go through, e.g. `markov.expected_counts`
inside `exact_test`.
"""

from __future__ import annotations

import importlib
from statistics import median
from typing import Dict, List

from diagonal_effect import invariants, markov, membership, params, polynomials, toricideal

from spans import Tracer
from workloads import MCMC_STEPS

# the package exports a function named `groebner`, which hides the module
groebner = importlib.import_module("diagonal_effect.groebner")

LAYERS = ("markov", "params", "invariants", "membership", "toricideal", "groebner")

GENERATOR_SOURCES = (
    "gens_diag_effect",
    "gens_common_mixture_families",
    "gens_common_mixture_listed3",
    "gens_common_toric_listed3",
    "gens_independence",
    "moves_to_binomials",
)


def _by_method(prefix: str, default: str):
    return lambda args, kwargs: f"{prefix}[{kwargs.get('method', default)}]"


def _walk_start(tracer, args, kwargs):
    config = args[2] if len(args) > 2 else kwargs["config"]
    tracer.count("walk_steps", config.burn_in + config.steps)
    return [None]


def _walk_item(tracer, state, table):
    tracer.count("walk_emitted")
    if state[0] is not None:
        tracer.count("walk_compared")
        if table.cells != state[0]:
            tracer.count("walk_moved")
    state[0] = table.cells


def instrument(t: Tracer) -> None:
    """Install the wrappers; `t.restore()` removes them."""
    t.patch(markov, "exact_test", _by_method("markov.exact_test", "auto"))
    t.patch(markov, "exact_test_chains", "markov.exact_test_chains")
    t.patch(markov, "expected_counts", "params.expected_counts")
    t.patch(markov, "enumerate_fiber", "markov.enumerate_fiber",
            on_result=lambda tr, a, k, fiber: tr.count("fiber_tables", len(fiber)))
    t.patch(markov, "pearson_statistic", "markov.pearson_statistic", record=False)
    t.patch(markov, "moves_for_model", "markov.moves_for_model")
    t.patch_generator(markov, "fiber_walk", "markov.fiber_walk", _walk_start, _walk_item)

    def sweep_counts(tr, args, kwargs, report):
        tr.count("sweep_tables_seen", report.tables_seen)
        tr.count("sweep_fibers", report.fibers_checked)

    t.patch(markov, "verify_connectivity", "markov.verify_connectivity", on_result=sweep_counts)

    for module in (params, membership):
        t.patch(module, "toric_point", "params.toric_point")
        t.patch(module, "mixture_point", "params.mixture_point")

    for name in GENERATOR_SOURCES:
        t.patch(invariants, name, f"invariants.{name}")
    t.patch(membership, "gens_diag_effect", "invariants.gens_diag_effect")
    for module in (invariants, membership):
        t.patch(module, "check_vanishing", "invariants.check_vanishing",
                on_result=lambda tr, a, k, report: tr.count("evaluations", len(report.entries)))

    t.patch(membership, "classify_toric_point", "membership.classify_toric_point")
    t.patch(membership, "mixture_to_toric", "membership.mixture_to_toric")
    t.patch(membership, "boundary_membership_check", "membership.boundary_membership_check")

    t.patch(toricideal, "toric_ideal", _by_method("toricideal.toric_ideal", "saturation"))
    t.patch(toricideal, "ideal_equal", "toricideal.ideal_equal")
    t.patch(toricideal, "buchberger", "groebner.buchberger",
            on_result=lambda tr, a, k, basis: tr.count("basis_size", len(basis)))
    for module in (toricideal, groebner):
        t.patch(module, "reduce_basis", "groebner.reduce_basis")
    t.count_calls(polynomials.TermOrder, "key", "order_key_calls")


# (name, unit) of every per-layer metric, in output order
METRICS = [
    ("cli.import_s", "s"),
    ("markov.walk_s", "s"),
    ("markov.walk_steps_per_s", "1/s"),
    ("markov.walk_steps", "count"),
    ("markov.walk_moved_frac", "ratio"),
    ("markov.pearson_s", "s"),
    ("markov.pearson_calls", "count"),
    ("markov.moves_s", "s"),
    ("markov.common3_100k_steps_s", "s"),
    ("markov.enumerate_s", "s"),
    ("markov.enumerate_tables_per_s", "1/s"),
    ("markov.fiber_tables", "count"),
    ("markov.weighting_s", "s"),
    ("markov.sweep_s", "s"),
    ("markov.sweep_tables_per_s", "1/s"),
    ("markov.sweep_tables_seen", "count"),
    ("markov.sweep_fibers", "count"),
    ("params.ipf_s", "s"),
    ("params.ipf_calls", "count"),
    ("params.point_s", "s"),
    ("invariants.gens_s", "s"),
    ("invariants.vanishing_s", "s"),
    ("invariants.evaluations_per_s", "1/s"),
    ("invariants.evaluations", "count"),
    ("membership.classify_s", "s"),
    ("membership.classify_per_s", "1/s"),
    ("toricideal.saturation_s", "s"),
    ("toricideal.elimination_s", "s"),
    ("toricideal.verify_s", "s"),
    ("groebner.buchberger_s", "s"),
    ("groebner.buchberger_calls", "count"),
    ("groebner.reduce_basis_s", "s"),
    ("groebner.basis_size", "count"),
    ("polynomials.order_key_calls", "count"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("bench.traced_run_s", "s"),
    ("bench.untraced_run_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.failed_frac", "ratio"),
    ("bench.speed_factor", "ratio"),
]


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_values(
    t: Tracer,
    traced_walls: List[float],
    untraced_walls: List[float],
    untraced_job_times: Dict[str, List[float]],
    import_s: float,
    failed_frac: float,
) -> Dict[str, float]:
    """Per-pass values of METRICS from the traced passes, whose wall times
    are `traced_walls`.  Times are totals over the passes divided by their
    number; counts repeat exactly from pass to pass, so they divide
    exactly.  The run_s rows are medians of pass wall times."""
    passes = len(traced_walls)
    traced_run_s = median(traced_walls)
    untraced_run_s = median(untraced_walls)

    def per_pass(x: float) -> float:
        return x / passes

    def count(name: str) -> int:
        return t.counts.get(name, 0) // passes

    walk_s = per_pass(t.total("markov.fiber_walk"))
    enumerate_s = per_pass(t.total("markov.enumerate_fiber"))
    sweep_s = per_pass(t.total("markov.verify_connectivity"))
    vanishing_s = per_pass(t.total("invariants.check_vanishing"))
    classify_s = per_pass(t.total("membership.classify_toric_point"))
    common3 = untraced_job_times.get("mcmc:common:3")
    burn_in = markov.WalkConfig(steps=MCMC_STEPS).burn_in
    layer_self = t.layer_self_times()

    values = {
        "cli.import_s": import_s,
        "markov.walk_s": walk_s,
        "markov.walk_steps_per_s": _rate(count("walk_steps"), walk_s),
        "markov.walk_steps": count("walk_steps"),
        "markov.walk_moved_frac": _rate(t.counts.get("walk_moved", 0), t.counts.get("walk_compared", 0)),
        "markov.pearson_s": per_pass(t.total("markov.pearson_statistic")),
        "markov.pearson_calls": t.calls("markov.pearson_statistic") // passes,
        "markov.moves_s": per_pass(t.total("markov.moves_for_model")),
        # whole exact_test time per 100k walk steps (burn-in included), untraced
        "markov.common3_100k_steps_s": median(common3) * 1e5 / (MCMC_STEPS + burn_in) if common3 else 0.0,
        "markov.enumerate_s": enumerate_s,
        "markov.enumerate_tables_per_s": _rate(count("fiber_tables"), enumerate_s),
        "markov.fiber_tables": count("fiber_tables"),
        "markov.weighting_s": per_pass(t.self_time("markov.exact_test[enumerate]")),
        "markov.sweep_s": sweep_s,
        "markov.sweep_tables_per_s": _rate(count("sweep_tables_seen"), sweep_s),
        "markov.sweep_tables_seen": count("sweep_tables_seen"),
        "markov.sweep_fibers": count("sweep_fibers"),
        "params.ipf_s": per_pass(t.total("params.expected_counts")),
        "params.ipf_calls": t.calls("params.expected_counts") // passes,
        "params.point_s": per_pass(t.total("params.toric_point", "params.mixture_point")),
        "invariants.gens_s": per_pass(t.total(*(f"invariants.{n}" for n in GENERATOR_SOURCES))),
        "invariants.vanishing_s": vanishing_s,
        "invariants.evaluations_per_s": _rate(count("evaluations"), vanishing_s),
        "invariants.evaluations": count("evaluations"),
        "membership.classify_s": classify_s,
        "membership.classify_per_s": _rate(t.calls("membership.classify_toric_point") // passes, classify_s),
        "toricideal.saturation_s": per_pass(t.total("toricideal.toric_ideal[saturation]")),
        "toricideal.elimination_s": per_pass(t.total("toricideal.toric_ideal[elimination]")),
        "toricideal.verify_s": per_pass(t.total("toricideal.ideal_equal")),
        "groebner.buchberger_s": per_pass(t.total("groebner.buchberger")),
        "groebner.buchberger_calls": t.calls("groebner.buchberger") // passes,
        "groebner.reduce_basis_s": per_pass(t.total("groebner.reduce_basis")),
        "groebner.basis_size": count("basis_size"),
        "polynomials.order_key_calls": count("order_key_calls"),
        "bench.traced_run_s": traced_run_s,
        "bench.untraced_run_s": untraced_run_s,
        "bench.trace_overhead_s": traced_run_s - untraced_run_s,
        "bench.unattributed_s": per_pass(sum(traced_walls) - sum(layer_self.values())),
        "bench.failed_frac": failed_frac,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = per_pass(layer_self.get(layer, 0.0))
    return values
