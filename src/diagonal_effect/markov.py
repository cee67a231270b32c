"""Exact conditional tests on a fiber, and the connectivity sweep.

The exact test sums a fiber's row network (`fibers.enumerate_fiber`)
forward, from partial Pearson sums to integer weights, without building a
table, or estimates the p-value by the fiber walk (`walk.fiber_walk`) over
the model's move family (`moves.moves_for_model`).  The connectivity sweep
builds every table of a bounded total row by row as an int, files the
tables by statistic and checks each fiber's connectivity with the int
searches of `fibers`.  It holds the callers of the fit, the enumeration,
the move factory and the walk, and binds each callee under its own name,
so a patch of `markov.enumerate_fiber` reaches every call of the test.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import chain, permutations
from operator import add, getitem, itemgetter, lshift
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import BudgetExceededError, InputError, InvariantViolationError, SizeMismatchError
from .fibers import Fiber, _components, _encoding, enumerate_fiber
from .moves import _move_deltas, moves_for_model
from .params import expected_counts
from .tables import (
    DEFAULT_NODE_BUDGET,
    CountTable,
    ModelFamily,
    ModelForm,
    ModelSpec,
    Move,
    _unchecked,
    require_instance,
    require_int,
    require_sequence,
    sufficient_statistic,
)
from .walk import _CELL_BUDGET, Stationary, WalkConfig, fiber_walk


# ---------------------------------------------------------------------------
# exact tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestResult:
    statistic_observed: float
    p_value: float
    monte_carlo_stderr: float
    samples_used: int
    method: str  # "MCMC" | "Enumeration"
    config: dict = field(default_factory=dict)


def pearson_statistic(cells, expected) -> float:
    """Pearson chi-square against fitted expected counts.

    Cells with zero expectation contribute nothing when observed is zero
    and infinity otherwise; within a fiber the margins rule the latter out.
    Grids of different shapes raise SizeMismatchError; an observed count
    that is not an int >= 0, or an expected count that is not a float or
    an int, raises InputError.
    """
    if len(require_sequence(cells, "observed grid")) != len(require_sequence(expected, "expected grid")) or any(
            len(require_sequence(o, "observed row")) != len(require_sequence(e, "expected row"))
            for o, e in zip(cells, expected)):
        raise SizeMismatchError("observed and expected grids differ in shape")
    chi2 = 0.0
    for orow, erow in zip(cells, expected):
        for o, e in zip(orow, erow):
            require_int(o, "observed count", 0)
            if isinstance(e, bool) or not isinstance(e, (int, float)):
                raise InputError(f"expected count must be a float or an int, got {e!r}")
            chi2 += _pearson_term(o, e)
    return chi2


def _pearson_term(o: int, e: float) -> float:
    """One cell's term of `pearson_statistic`; adding inf to the running sum
    keeps it inf."""
    if e > 0.0:
        return (o - e) ** 2 / e
    return 0.0 if o == 0 else math.inf


def _pearson_flat(terms: Sequence[dict], flat: Iterable[int]) -> float:
    """`pearson_statistic` of a flat row-major table, from one dict of
    `_pearson_term`s per cell, summed left to right in the same order.  A
    count whose term its cell's dict lacks raises KeyError (`_add_terms`)."""
    chi2 = 0.0
    for term, o in zip(terms, flat):
        chi2 += term[o]
    return chi2


def _add_terms(fit: Sequence[float], terms: List[dict], counts: Iterable[int]) -> List[dict]:
    """`terms`, each cell's dict given the `_pearson_term` of its count in
    `counts` against its fit if it lacks it: the one place a term is made."""
    for e, term, o in zip(fit, terms, counts):
        if o not in term:
            term[o] = _pearson_term(o, e)
    return terms


def _tail_weights(fiber: Fiber, fit: Sequence[float], terms: List[dict], threshold: float) -> Tuple[int, int]:
    """The total weight of the fiber's tables whose Pearson statistic is at
    least `threshold`, and that of all its tables, a table weighing
    prod_i r_i!/prod_j f_ij! for row sums r_i.

    These weights are n!/prod f! times the constant prod_i r_i!/n!, so the
    two totals stand in the ratio of the hypergeometric law.  The network
    is summed forward row by row, each state holding a dict from partial
    statistic to weight: a row adds its cells' `terms` (`_add_terms`) left
    to right and multiplies by its row's factor r_i!/prod_j f_ij!, both made
    once for each distinct row of a layer.  Every table's statistic takes
    the float operations of `_pearson_flat` on its flat tuple, and equal
    partial sums are merged exactly, so each table meets the threshold
    exactly when it does table by table.
    """
    I, rows = fiber.stat.size, fiber.stat.rows
    fact = math.factorial
    last = len(fiber.layers) - 1
    dists: Dict[tuple, Dict[float, int]] = {root: {0.0: 1} for root in fiber.layers[0]}
    hit = total = 0
    for i, layer in enumerate(fiber.layers):
        row_fit, row_terms = fit[i * I:], terms[i * I:]
        # the last layer's rows run through rows i and i + 1, to no state
        numerator = fact(rows[i]) * fact(rows[i + 1]) if i == last else fact(rows[i])
        below: Dict[tuple, Dict[float, int]] = {}
        made: Dict[tuple, tuple] = {}  # row -> (its cells' terms, its factor)
        for state, edges in layer.items():
            dist = dists[state]
            for row, child in edges:
                kept = made.get(row)
                if kept is None:
                    try:
                        added = tuple(map(getitem, row_terms, row))
                    except KeyError:
                        added = tuple(map(getitem, _add_terms(row_fit, row_terms, row), row))
                    kept = made[row] = added, numerator // math.prod(map(fact, row))
                added, factor = kept
                if child is None:
                    total += sum(dist.values()) * factor
                    for chi2, w in dist.items():
                        if reduce(add, added, chi2) >= threshold:
                            hit += w * factor
                    continue
                out = below.get(child)
                if out is None:
                    out = below[child] = {}
                for chi2, w in dist.items():
                    chi2 = reduce(add, added, chi2)
                    out[chi2] = out.get(chi2, 0) + w * factor
        dists = below
    return hit, total


def _chi2_threshold(observed: float) -> float:
    if math.isinf(observed):
        return observed
    return observed - 1e-9 * (1.0 + abs(observed))


def exact_test(
    table: CountTable,
    model: ModelSpec,
    config: Optional[WalkConfig] = None,
    method: str = "auto",
    node_budget: int = 200_000,
) -> TestResult:
    """Exact conditional goodness-of-fit test on the model's fiber.

    The statistic is Pearson chi-square against the model fit, which
    depends only on the sufficient statistic and is therefore constant
    across the fiber.  The p-value is the hypergeometric-law probability of
    a statistic at least as large as observed: exact by total enumeration
    when the fiber is within `node_budget`, otherwise estimated by the
    fiber walk with a batch-means Monte Carlo standard error.  Both score
    tables from per-cell lookups: each cell's Pearson term is computed once
    per value.  Enumeration sums the fiber's row network forward
    (`_tail_weights`) and builds no table; each table's statistic is
    the float `_pearson_flat` gives it, and the p-value is the correctly
    rounded ratio of integer weights, as when each table was weighted by
    n!/prod f!.  `samples_used` is the number of tables and
    `nodes_visited` the cell-by-cell search's node count.
    """
    require_instance(table, CountTable, "table")
    require_instance(model, ModelSpec, "model")
    if config is not None:
        require_instance(config, WalkConfig, "config")
    if method not in ("auto", "mcmc", "enumerate"):
        raise InputError(f"unknown method {method!r}")
    require_int(node_budget, "node_budget", 0)
    fit, terms, observed_stat = _fit_terms(table, model)

    if method in ("auto", "enumerate"):
        try:
            fiber = enumerate_fiber(sufficient_statistic(table, model), model, node_budget)
        except BudgetExceededError:
            if method == "enumerate":
                raise
            fiber = None
        if fiber is not None:
            hit_weight, total_weight = _tail_weights(fiber, fit, terms, _chi2_threshold(observed_stat))
            p = hit_weight / total_weight  # int true division rounds correctly
            return TestResult(
                statistic_observed=observed_stat,
                p_value=p,
                monte_carlo_stderr=0.0,
                samples_used=len(fiber),
                method="Enumeration",
                config={"node_budget": node_budget, "nodes_visited": fiber.nodes},
            )

    if config is None:
        config = WalkConfig(steps=50_000, stationary=Stationary.HYPERGEOMETRIC)
    return _mcmc_test(table, model, fit, terms, observed_stat, [config])


def _fit_terms(table: CountTable, model: ModelSpec) -> Tuple[List[float], List[dict], float]:
    """The model fit as a flat row-major list, one dict of Pearson terms per
    cell holding the table's terms (`_add_terms`), and the table's
    statistic from them."""
    if table.n == 0:
        raise InputError("exact test needs a nonzero table")
    fit = list(chain.from_iterable(expected_counts(table, model)))
    terms = _add_terms(fit, [{} for _ in fit], table.flat)
    return fit, terms, _pearson_flat(terms, table.flat)


def _mcmc_test(table: CountTable, model: ModelSpec, fit: List[float], terms: List[dict],
               observed_stat: float, configs: Sequence[WalkConfig]) -> TestResult:
    """The MCMC test pooled over one walk per configuration, all of one
    length and from one fit (`fit`, `terms`) and one move family: the
    indicator of each state's statistic reaching the observed one, averaged over every
    walk, with the batch-means standard error of all walks together.  Each
    distinct table is scored once per call while the memo has room: its
    indicator is kept by its `flat` for all the walks, one lookup per state
    change, and the memo is dropped for good at the first miss once it
    holds `_CELL_BUDGET` // I^2 tables.  The result echoes the first
    configuration."""
    if any(c.stationary is not Stationary.HYPERGEOMETRIC for c in configs):
        raise InputError("the sampling test requires the hypergeometric stationary law")
    threshold = _chi2_threshold(observed_stat)
    moves = moves_for_model(model)
    scores: Optional[dict] = {}
    most = max(1, _CELL_BUDGET // (table.size * table.size))
    walks = []
    for config in configs:
        indicators = []
        last = indicator = None
        for state in fiber_walk(table, moves, config):
            # the walk re-emits an unmoved state as the same object
            if state is not last:
                last = state
                flat = state.flat
                indicator = None if scores is None else scores.get(flat)
                if indicator is None:
                    try:
                        chi2 = _pearson_flat(terms, flat)
                    except KeyError:
                        chi2 = _pearson_flat(_add_terms(fit, terms, flat), flat)
                    indicator = 1.0 if chi2 >= threshold else 0.0
                    if scores is not None:
                        if len(scores) < most:
                            scores[flat] = indicator
                        else:
                            scores = None
            indicators.append(indicator)
        walks.append(indicators)
    samples = sum(map(len, walks))
    return TestResult(
        statistic_observed=observed_stat,
        p_value=sum(map(sum, walks)) / samples,
        monte_carlo_stderr=_batch_means_stderr(walks),
        samples_used=samples,
        method="MCMC",
        config=configs[0].to_dict(),
    )


def exact_test_chains(
    table: CountTable,
    model: ModelSpec,
    config: WalkConfig,
    chains: int,
) -> TestResult:
    """The MCMC test of `exact_test` pooled over independent chains.

    Chain k reuses the base configuration with seed + k, and the model is
    fitted and its move family built once for all chains.  The p-value is
    the share of all the chains' indicators that reach the observed
    statistic, with the batch-means standard error of all chains together
    (`_batch_means_stderr`).  One chain gives exactly
    `exact_test(method="mcmc")`; more add `"chains"` to the echoed config.
    """
    require_instance(table, CountTable, "table")
    require_instance(model, ModelSpec, "model")
    require_instance(config, WalkConfig, "config")
    require_int(chains, "chains", 1)
    fit, terms, observed_stat = _fit_terms(table, model)
    result = _mcmc_test(table, model, fit, terms, observed_stat,
                        [replace(config, seed=config.seed + k) for k in range(chains)])
    return result if chains == 1 else replace(result, config=dict(result.config, chains=chains))


def _batch_means_stderr(walks: Sequence[Sequence[float]]) -> float:
    """Standard error of the mean of all values of equal-length correlated
    walks via batch means: each walk is cut into min(64, max(8, n // 500))
    batches of n // batches values, the rest left out, and the error is
    that of the mean of all the batches.  A walk shorter than its batch
    count gives the binomial error instead, and fewer than 2 values 0.0."""
    n = sum(map(len, walks))
    if n < 2:
        return 0.0
    batches = min(64, max(8, len(walks[0]) // 500))
    length = len(walks[0]) // batches
    if length < 1:
        mean = sum(map(sum, walks)) / n
        return math.sqrt(max(mean * (1 - mean), 0.0) / n)
    means = [sum(w[b * length:(b + 1) * length]) / length for w in walks for b in range(batches)]
    grand = sum(means) / len(means)
    var = sum((m - grand) ** 2 for m in means) / (len(means) - 1)
    return math.sqrt(var / len(means))


# ---------------------------------------------------------------------------
# desk-scale connectivity verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepReport:
    family: ModelFamily
    size: int
    max_n: int
    fibers_checked: int
    tables_seen: int
    largest_fiber: int
    disconnected: tuple  # of (stat, component sizes)

    @property
    def all_connected(self) -> bool:
        return not self.disconnected


def _rows_by_sum(I: int, max_n: int) -> List[List[tuple]]:
    """Every nonnegative integer row of length I with sum at most max_n,
    filed by sum, each sum's rows in lexicographic order."""
    rows = [()]
    for _ in range(I):
        rows = [r + (v,) for r in rows for v in range(max_n - sum(r) + 1)]
    by_sum: List[List[tuple]] = [[] for _ in range(max_n + 1)]
    for row in rows:
        by_sum[sum(row)].append(row)
    return by_sum


def _relabel_flat(perm: tuple, I: int) -> itemgetter:
    """The relabelling `perm` of range(I) on flat tables: it takes t to the
    table whose cell (i, j) is t[perm[i]][perm[j]]."""
    return itemgetter(*(perm[i] * I + perm[j] for i in range(I) for j in range(I)))


def _symmetric(deltas: Sequence[tuple], I: int, shifts: Sequence[int], coded: set) -> bool:
    """Whether the simultaneous row/column relabellings keep the
    `_move_deltas` `deltas` (coded `coded` by `shifts`).  Only the adjacent
    swaps, which generate S_I, are checked, on one sign of each move: swaps
    commute with negation."""
    for i in range(I - 1):
        swap = list(range(I))
        swap[i], swap[i + 1] = i + 1, i
        moved = [shifts[swap[k // I] * I + swap[k % I]] for k in range(I * I)]
        if not all(sum([v << moved[k] for k, v in d]) in coded for d in deltas[::2]):
            return False
    return True


def _file_tables(fibers, levels, descending, max_n) -> None:
    """File every table of total at most max_n: its code under its row
    sums, then under its key, the rest of its statistic.  A row's sum is at
    most what is left of max_n and, when `descending`, at most the previous
    row's, so only tables with non-increasing row sums are built.
    levels[k][s] holds the codes and keys of row k's choices of sum s; a
    table's code and key are the sums of its rows', built row by row over
    the prefixes of each row-sum vector."""
    I = len(levels)
    prefixes = {(): ([0], [0])}  # row sums -> the codes and the keys of the rows with them
    for k in range(I):
        grown = {}
        for sums, (codes, keys) in prefixes.items():
            left = max_n - sum(sums)
            for s in range((min(sums[-1], left) if descending and sums else left) + 1):
                row_codes, row_keys = levels[k][s]
                if k < I - 1:
                    grown[sums + (s,)] = ([c + r for c in codes for r in row_codes],
                                          [x + r for x in keys for r in row_keys])
                    continue
                bucket = fibers[sums + (s,)]
                for c, x in zip(row_codes, row_keys):
                    for code, key in zip(codes, keys):
                        bucket[key + x].append(code + c)
        prefixes = grown


def verify_connectivity(
    family: ModelFamily,
    I: int,
    max_n: int,
    moves: Optional[Sequence[Move]] = None,
) -> SweepReport:
    """Exhaustively check that every fiber arising from tables with total
    count up to max_n is connected under the family's moves.

    Grouping tables by sufficient statistic yields each complete fiber
    directly, independently of `enumerate_fiber`; a disconnected fiber is
    reported with its component sizes, never patched.  Tables, moves and
    the rest of each statistic are ints (`_encoding`), w bits a cell with
    2^w > max_n + s for move entries up to s, so a table's int plus a
    move's is another table's only when the move takes the one to the
    other; only a disconnected fiber's tables are decoded.  A sweep of more
    than DEFAULT_NODE_BUDGET tables raises BudgetExceededError before any
    is built.

    A simultaneous row/column relabelling maps the fiber of a statistic
    onto the fiber of the relabelled statistic, and it keeps adjacency when
    it keeps the move deltas (both signs).  When the I - 1 adjacent swaps
    keep them, the group is all of S_I and only tables with non-increasing
    row sums are built; row sums are part of the statistic, so each built
    fiber is complete.  Otherwise the group is the identity and every table
    is built.  A built fiber with row sums r stands for I!/prod m_v!
    fibers (1 under the identity), m_v counting the entries of r equal to
    v: `fibers_checked` and `tables_seen` are the weighted counts, and a
    weighted table count other than C(max_n + I*I, I*I) raises
    InvariantViolationError.  Each disconnected fiber is reported under
    every relabelling, once per statistic, ordered by total and then by
    lexicographically least member: the order in which a sweep of every
    table, by total and then lexicographically, first meets them.
    """
    require_int(max_n, "max_n", 0)
    model = ModelSpec(family=family, form=ModelForm.TORIC, size=I)
    # the tables number C(max_n + I*I, I*I) = C(max_n + I*I, min(max_n, I*I)):
    # build it up factor by factor, and stop at the budget, not at a huge number
    cells, count = I * I, 1
    for k in range(1, min(cells, max_n) + 1):
        count = count * (cells + max_n - k + 1) // k
        if count > DEFAULT_NODE_BUDGET:
            raise BudgetExceededError(
                f"a connectivity sweep of C({max_n} + {cells}, {cells}) tables exceeds "
                f"the {DEFAULT_NODE_BUDGET}-table budget")
    if moves is None:
        moves = moves_for_model(model)
    signed = _move_deltas(moves, I)
    shifts, steps, deltas = _encoding(signed, I, max_n)
    symmetric = _symmetric(signed, I, shifts, deltas)

    # a key codes the rest of a statistic as a table: the column sums in row 0, in row 1
    # the diagonal, its sum at cell (1, 0) for the common diagonal, or nothing (independence)
    common = family is ModelFamily.COMMON_DIAGONAL_EFFECT
    on_diag = family is not ModelFamily.INDEPENDENCE
    by_sum = _rows_by_sum(I, max_n)
    tops = [[sum(map(lshift, row, shifts)) for row in rows] for rows in by_sum]  # each row coded as row 0
    levels = [[([top >> (shifts[0] - shifts[k * I]) for top in row_tops],
                [top + (row[k] * on_diag << shifts[I + (0 if common else k)]) for top, row in zip(row_tops, rows)])
               for row_tops, rows in zip(tops, by_sum)] for k in range(I)]
    fibers: Dict[tuple, Dict[int, List[int]]] = defaultdict(lambda: defaultdict(list))
    _file_tables(fibers, levels, symmetric, max_n)

    relabels = [] if symmetric else [tuple]  # tuple: the identity; S_I's at the first disconnected fiber
    mask = (1 << shifts[-2]) - 1  # a cell's w bits
    fibers_checked = tables_seen = largest = 0
    found: Dict[tuple, tuple] = {}  # least member of a disconnected fiber -> component sizes
    for row_sums, bucket in fibers.items():
        weight = (math.factorial(I) // math.prod(map(math.factorial, Counter(row_sums).values()))
                  if symmetric else 1)  # I!/prod m_v!: the distinct rearrangements of row_sums
        sizes = list(map(len, bucket.values()))
        fibers_checked += weight * len(sizes)
        tables_seen += weight * sum(sizes)
        largest = max(largest, *sizes)
        for members in bucket.values():
            if len(members) > 1:
                components = _components(members, steps, deltas)
                if len(components) > 1:
                    flats = [tuple([m >> s & mask for s in shifts]) for m in members]
                    relabels = relabels or [_relabel_flat(p, I) for p in permutations(range(I))]
                    for relabel in relabels:
                        found[min(map(relabel, flats))] = tuple(sorted(map(len, components)))
    if tables_seen != count:
        raise InvariantViolationError(
            f"the sweep weighted {tables_seen} tables, not C({max_n} + {cells}, {cells}) = {count}")

    disconnected = []
    for least in sorted(found, key=lambda t: (sum(t), t)):
        # a swept table: nonnegative counts
        table = _unchecked(CountTable, size=I, flat=least, n=sum(least))
        stat = sufficient_statistic(table, model)
        disconnected.append(((stat.rows, stat.cols, stat.diag), found[least]))

    return SweepReport(
        family=family,
        size=I,
        max_n=max_n,
        fibers_checked=fibers_checked,
        tables_seen=tables_seen,
        largest_fiber=largest,
        disconnected=tuple(disconnected),
    )
