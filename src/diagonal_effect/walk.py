"""The Metropolis fiber walk over a move family, and its configuration.

`fiber_walk` checks its arguments and the moves; its kernel `_walk` draws
moves and signs, keeps proposal tables while they pay (the memo rule of
`_PROBE`, `_PROBE_HITS`, `_ENTRY_BUDGET` and `_CELL_BUDGET`), and goes on
without them in a plain kernel that draws the same numbers.  The MCMC
test of `markov` bounds its scores memo by the same `_CELL_BUDGET`.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional, Sequence

from .errors import InputError
from .moves import _move_deltas
from .tables import CountTable, Move, _unchecked, require_instance, require_int


class Stationary(Enum):
    UNIFORM = "uniform"
    HYPERGEOMETRIC = "hypergeometric"


@dataclass(frozen=True)
class WalkConfig:
    """Chain length, burn-in, thinning, seed, and target stationary law.

    The default burn-in of 10 * sqrt(steps) is an arbitrary, documented
    default; every result echoes the configuration actually used.
    """

    steps: int
    burn_in: Optional[int] = None
    thinning: int = 1
    seed: int = 0
    stationary: Stationary = Stationary.HYPERGEOMETRIC

    def __post_init__(self):
        require_int(self.steps, "steps", 1)
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", int(10 * math.isqrt(self.steps)))
        require_int(self.burn_in, "burn_in", 0)
        require_int(self.thinning, "thinning", 1)
        require_int(self.seed, "seed")
        require_instance(self.stationary, Stationary, "stationary")

    def to_dict(self) -> dict:
        return dict(asdict(self), stationary=self.stationary.value)


def _walk_plans(moves: Sequence[Move], I: int) -> List[tuple]:
    """One plan (downs, ups, delta) per signed move, in the order of
    `_move_deltas`; delta holds the move's (cell, change) entries.  A
    count f that the move lowers by d gives downs the factors (cell, 0),
    ..., (cell, d - 1), and one it raises by u gives ups (cell, 1), ...,
    (cell, u): the products of f - j over downs and of f + j over ups are
    prod f!/f'! over the lowered counts and prod f'!/f! over the raised
    ones.  The factors of each (cell, change) are built once per call and
    shared by every plan that holds it."""
    shared: Dict[tuple, tuple] = {}
    plans = []
    for delta in _move_deltas(moves, I):
        downs, ups = [], []
        for entry in delta:
            k, v = entry
            factors = shared.get(entry)
            if factors is None:
                factors = shared[entry] = tuple([(k, j) for j in (range(-v) if v < 0 else range(1, v + 1))])
            (downs if v < 0 else ups).extend(factors)
        plans.append((tuple(downs), tuple(ups), delta))
    return plans


# The walk's proposal tables (`fiber_walk`) and the MCMC test's scores
# (`_mcmc_test`) are memos that pay only when the walk revisits.  The walk
# keeps its tables while at least `_PROBE_HITS` of its first `_PROBE`
# proposals hit and within `_ENTRY_BUDGET` entries.  `_CELL_BUDGET` bounds
# both the walk's numbered states and the test's scores.  A memo past its
# rule is dropped for good.
_PROBE = 1024
_PROBE_HITS = 112  # 11%: the measured break-even of the walk's tables
_ENTRY_BUDGET = 1 << 14  # proposal entries the walk's tables may hold
_CELL_BUDGET = 1 << 13  # counts (I * I per table) either memo may hold tables of
_SURE = 2.0  # the chance of a proposal accepted without a draw
_STAY = (0.0, None)  # the entry of an infeasible proposal, which draws nothing


def _chance(num: int, den: int) -> float:
    """For 0 < num < den, the float c such that a draw x = rng.random()
    accepts a proposal of ratio num / den (`fiber_walk`) exactly when
    x < c: ceil(num * 2^53 / den) / 2^53.  A draw is m / 2^53 for an
    integer m, and m < num * 2^53 / den exactly when
    m < ceil(num * 2^53 / den), an integer of at most 2^53 and so exact
    as a float, as is its quotient by 2^53."""
    return -((-num << 53) // den) / (1 << 53)


def fiber_walk(start: CountTable, moves: Sequence[Move], config: WalkConfig) -> Iterator[CountTable]:
    """Metropolis fiber walk; emits post-burn-in, thinned states.

    Proposals draw a move and a sign uniformly, with the draws of
    `Random.randrange` made inline: `getrandbits` of the count's bit
    length, drawn again until it falls below the count.  An infeasible
    proposal is a stay-in-place step, which keeps the proposal kernel
    symmetric.  The counts a proposal lowers are checked first, by their
    product num = prod f!/f'! (`_walk_plans`), which is 0 exactly when one
    of them would go negative; the raised counts are read only for a
    feasible proposal.  Under the uniform law every feasible proposal is
    accepted, den being 1.  Under the hypergeometric law the ratio
    prod f! / prod f'! over the touched cells is num / den: the proposal
    is accepted without a draw when num >= den, and otherwise when
    rng.random() < `_chance`(num, den), the exact comparison of the
    uniform draw with the ratio.  Both phases below accept by this one
    rule and draw the same numbers.

    The walk starts with proposal tables.  It numbers each state it
    reaches and gives it a table from draw r to (chance, target id),
    filled the first time r is drawn there (`_chance`: the draw accepts
    when rng.random() < chance), the target id when that proposal is
    first accepted.  A state's CountTable is built at its first emission
    and emitted again at every revisit.  A repeated proposal is then one
    lookup, about a sixth of a plain step, and a first one, which may
    number a new state, costs 1.3 to 2 plain steps.  A walk's hit rate
    rises as its tables fill: of three sets of 27 walks of 10,000 steps
    (I = 3 to 6, both families, Python 3.11), the ones that hit in 12% or
    more of their first 1,024 proposals ran faster with the tables kept to
    the end, and the ones at 10% or less slower.  So the walk drops every table for
    good once more than `_PROBE` - `_PROBE_HITS` of its first `_PROBE` =
    1,024 proposals have missed (fewer than `_PROBE_HITS` = 112 hits,
    11%), or at the first miss once its tables hold `_ENTRY_BUDGET`
    entries or its numbered states more than `_CELL_BUDGET` counts, and
    goes on from the same state with the same draw in the plain kernel: it
    moves one flat list and builds a CountTable only when the emitted
    state changes.  In both phases an unmoved state is emitted again as
    the very same object.

    The arguments, the moves and their sizes are checked at the call, before
    the kernel (`_walk`) draws anything.
    """
    require_instance(start, CountTable, "start")
    require_instance(config, WalkConfig, "config")
    if not moves:
        raise InputError("fiber_walk needs at least one move")
    return _walk(start, _walk_plans(moves, start.size), config)


def _walk(start: CountTable, plans: List[tuple], config: WalkConfig) -> Iterator[CountTable]:
    """The kernel of `fiber_walk`, on checked arguments and the moves' plans."""
    I, n = start.size, start.n
    rng = random.Random(f"fiber-walk|{config.seed}")
    getrandbits, rand, count = rng.getrandbits, rng.random, len(plans)
    bits = count.bit_length()
    hypergeometric = config.stationary is Stationary.HYPERGEOMETRIC
    total, thinning = config.burn_in + config.steps, config.thinning
    until_emit = config.burn_in

    # with tables: flats, props and built are indexed by state id
    flats = [start.flat]
    ids = {flats[0]: 0}
    props: List[dict] = [{}]
    built: List[Optional[CountTable]] = [None]
    # a miss past `limit` entries checks the probe and the budgets
    probe, limit = _PROBE, _PROBE - _PROBE_HITS
    most_entries, most_states = _ENTRY_BUDGET, max(1, _CELL_BUDGET // (I * I))
    sid, prop, entries, state = 0, props[0], 0, None
    for step in range(total):
        r = getrandbits(bits)
        while r >= count:
            r = getrandbits(bits)
        entry = prop.get(r)
        if entry is None:
            if entries >= limit:
                if step < probe or entries >= most_entries:
                    break  # r is this step's draw: the plain kernel takes it
                limit = most_entries
            entries += 1
            downs, ups, _ = plans[r]
            flat = flats[sid]
            num = 1
            for k, j in downs:
                num *= flat[k] - j
            if num:
                chance = _SURE
                if hypergeometric:
                    den = 1
                    for k, j in ups:
                        den *= flat[k] + j
                    if num < den:
                        chance = _chance(num, den)
                entry = (chance, None)
                if chance <= 1.0:  # else accepted below, where the entry is stored with its target
                    prop[r] = entry
            else:
                entry = prop[r] = _STAY
        chance, target = entry
        if chance and (chance > 1.0 or rand() < chance):  # else a stay-in-place step
            if target is None:
                out = list(flats[sid])
                for k, v in plans[r][2]:
                    out[k] += v
                out = tuple(out)
                target = ids.setdefault(out, len(flats))
                if target == len(flats):
                    flats.append(out)
                    props.append({})
                    built.append(None)
                    if target == most_states:
                        # the states pass their budget: the next step, a
                        # miss at this new state, drops the tables
                        limit = most_entries = 0
                prop[r] = (chance, target)
            sid, prop = target, props[target]
        if until_emit:
            until_emit -= 1
            continue
        until_emit = thinning - 1
        state = built[sid]
        if state is None:
            # accepted moves keep every count nonnegative and the total
            state = built[sid] = _unchecked(CountTable, size=I, flat=flats[sid], n=n)
        yield state
    else:
        return

    # without tables, from state sid with the draw r pending
    flat = list(flats[sid])
    last = None if state is None else state.flat
    flats = ids = props = built = prop = None
    moved = True
    for step in range(step, total):
        downs, ups, delta = plans[r]
        num = 1
        for k, j in downs:
            num *= flat[k] - j
        if num:  # else infeasible: a stay-in-place step
            den = 1
            if hypergeometric:
                for k, j in ups:
                    den *= flat[k] + j
            if num >= den or rand() < _chance(num, den):
                for k, v in delta:
                    flat[k] += v
                moved = True
        if until_emit:
            until_emit -= 1
        else:
            until_emit = thinning - 1
            if moved:
                out = tuple(flat)
                if out != last:
                    last = out
                    # accepted moves keep every count nonnegative and the total
                    state = _unchecked(CountTable, size=I, flat=out, n=n)
                moved = False
            yield state
        # the next step's draw; the one after the last step goes unused
        r = getrandbits(bits)
        while r >= count:
            r = getrandbits(bits)

