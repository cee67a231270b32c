"""Buchberger's algorithm for binomial ideals, on integer exponent vectors.

Every ideal this package computes is generated by binomials x^a - x^b
(lattice ideals, and t * prod - 1 on the elimination route), and the
engine accepts only such generators.  Inside, a monic binomial is a pair
of dense exponent tuples over the term order's variables, so S-polynomials
and reductions are tuple arithmetic with no Fraction; each term's order
key is computed once, and each lead's support bitmask filters divisibility
tests.  `CellPolynomial` stays the type at the boundary: `_encode` counts
each monomial's variable ids into an exponent vector over the order's
positions, and `_decode` expands each vector back into sorted ids.  `saturate`
keeps the toric ideals' per-variable steps inside.  Pairs follow the
normal selection strategy with the Gebauer-Moller criteria, and the
S-pair budget `MAX_PAIRS` turns a runaway computation into a loud error
rather than silent truncation.
"""

from __future__ import annotations

import heapq
from operator import add, le, sub
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import BudgetExceededError, InputError, InvariantViolationError, SizeMismatchError
from .polynomials import CellPolynomial, Monomial, TermOrder

MAX_PAIRS = 100_000  # S-pairs one basis computation may process

Exponents = Tuple[int, ...]


class _Binomial(NamedTuple):
    """x^lead - x^tail, with `lead` the larger term; step = tail - lead."""

    mask: int  # support of lead, one bit per variable position
    lead: Exponents
    tail: Exponents
    step: Exponents


def _binomial(a: Exponents, b: Exponents, order: TermOrder) -> Optional[_Binomial]:
    """The monic binomial of x^a - x^b, or None when it is zero."""
    if a == b:
        return None
    if order.dense_key(a) < order.dense_key(b):
        a, b = b, a
    return _Binomial(_support(a), a, b, tuple(map(sub, b, a)))


def _support(m: Exponents) -> int:
    mask = 0
    for k, e in enumerate(m):
        if e:
            mask |= 1 << k
    return mask


def _exponents(m: Monomial, slot: Dict[int, int]) -> Exponents:
    """Exponent vector of `m`, counting each id into its position `slot[id]`."""
    dense = [0] * len(slot)
    for v in m:
        if v not in slot:
            raise InputError(f"variable {v} is outside the term order")
        dense[slot[v]] += 1
    return tuple(dense)


def _encode(polys: Sequence[CellPolynomial], order: TermOrder, size: int) -> List[_Binomial]:
    """Monic binomials of the nonzero `polys`, which must be c * (x^a - x^b)
    over `size` x `size` tables."""
    slot = {v: k for k, v in enumerate(order.variables)}
    out = []
    for p in polys:
        if p.size != size:
            raise SizeMismatchError(f"polynomial over {p.size}x{p.size} cells, expected {size}x{size}")
        if p.is_zero():
            continue
        if p.num_terms() != 2 or sum(p.terms.values()) != 0:
            raise InputError(f"not a binomial c*(x^a - x^b): {p}")
        a, b = p.terms
        out.append(_binomial(_exponents(a, slot), _exponents(b, slot), order))
    return out


def _monomial(dense: Exponents, order: TermOrder) -> Monomial:
    return tuple(sorted(v for v, e in zip(order.variables, dense) for _ in range(e)))


def _decode(basis: Sequence[_Binomial], order: TermOrder, size: int) -> List[CellPolynomial]:
    return [CellPolynomial(size, {_monomial(g.lead, order): 1, _monomial(g.tail, order): -1})
            for g in basis]


def _reduce(m: Exponents, basis: Sequence[_Binomial]) -> Exponents:
    """Normal form of the monomial x^m: while the lead of a basis element
    divides it, the first such element in basis order replaces that lead
    by its tail."""
    while True:
        mask = _support(m)
        for g_mask, lead, _, step in basis:
            if g_mask & mask == g_mask and all(map(le, lead, m)):
                m = tuple(map(add, m, step))
                break
        else:
            return m


def _s_remainder(
    f: _Binomial, g: _Binomial, basis: Sequence[_Binomial], order: TermOrder
) -> Optional[_Binomial]:
    """Normal form of the S-polynomial of f and g modulo `basis`, or None
    when it is zero.  The lcm terms cancel, leaving each lcm with its lead
    replaced by its tail; a binomial basis reduces each term on its own."""
    lcm = tuple(map(max, f.lead, g.lead))
    u = _reduce(tuple(map(add, lcm, f.step)), basis)
    return _binomial(u, _reduce(tuple(map(add, lcm, g.step)), basis), order)


def buchberger(gens: Sequence[CellPolynomial], order: TermOrder) -> List[CellPolynomial]:
    """Reduced Groebner basis of the ideal generated by `gens`.

    Each generator must be c*(x^a - x^b), over one table size, in the
    variables of `order`; otherwise InputError (SizeMismatchError for the
    size) is raised.  Pairs are processed in increasing lcm degree (normal
    strategy) and pruned with the Gebauer-Moller criteria (coprimality,
    chain, and equal-lcm dedup).  Processing more than `MAX_PAIRS` S-pairs
    raises BudgetExceededError.
    """
    if not gens:
        return []
    size = gens[0].size
    return _decode(_groebner(_encode(gens, order, size), order), order, size)


def _groebner(basis: List[_Binomial], order: TermOrder) -> List[_Binomial]:
    """The reduced basis of `basis`, which Buchberger's loop extends in place."""
    heap: List[tuple] = []
    alive = {}  # (i, j) -> (lcm, its support mask), pairs not yet discarded

    def add_generator_pairs(t: int):
        t_mask, lt, _, _ = basis[t]
        lcms = [(tuple(map(max, g.lead, lt)), g.mask | t_mask) for g in basis[:t]]
        # chain criterion on existing pairs: (i, j) is redundant once the
        # new leading term divides its lcm and both flanking pairs differ
        for (i, j), (lcm_ij, mask_ij) in list(alive.items()):
            if t_mask & mask_ij == t_mask and all(map(le, lt, lcm_ij)):
                if lcm_ij not in (lcms[i][0], lcms[j][0]):
                    del alive[(i, j)]
        keep: List[int] = []
        for i, (lcm_i, mask_i) in enumerate(lcms):
            if not basis[i].mask & t_mask:
                continue  # coprime leads: the S-polynomial reduces to zero
            if any(
                mask_j & mask_i == mask_j and lcm_j != lcm_i and all(map(le, lcm_j, lcm_i))
                for lcm_j, mask_j in lcms
            ):
                continue  # properly divisible lcm: covered by a smaller pair
            if any(lcms[j][0] == lcm_i for j in keep):
                continue  # one representative per lcm
            keep.append(i)
        for i in keep:
            lcm_i = lcms[i][0]
            alive[(i, t)] = lcms[i]
            heapq.heappush(heap, (sum(lcm_i), order.dense_key(lcm_i), i, t))

    for t in range(len(basis)):
        add_generator_pairs(t)

    processed = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        if alive.pop((i, j), None) is None:
            continue  # pruned after scheduling
        processed += 1
        if processed > MAX_PAIRS:
            raise BudgetExceededError(f"S-pair budget of {MAX_PAIRS} pairs exceeded")
        r = _s_remainder(basis[i], basis[j], basis, order)
        if r is not None:
            basis.append(r)
            add_generator_pairs(len(basis) - 1)

    return _reduced(basis, order)


def saturate(gens: Sequence[CellPolynomial], variables: Sequence[int]) -> List[CellPolynomial]:
    """Reduced grevlex basis of the saturation of a homogeneous binomial
    ideal by the product of `variables`: a basis with one variable last,
    divided by that variable's powers, spans the saturation by it (Sturmfels,
    Groebner Bases and Convex Polytopes, ch. 12).  `MAX_PAIRS` holds per step."""
    if not gens:
        return []
    size = gens[0].size
    order = TermOrder.grevlex(variables)
    basis = _encode(gens, order, size)
    if any(sum(g.lead) != sum(g.tail) for g in basis):
        raise InvariantViolationError("saturation shortcut requires homogeneous generators")
    for v in variables:
        last = TermOrder.grevlex_last(variables, v)
        slots = [order.variables.index(u) for u in last.variables]
        basis = [_binomial(tuple(g.lead[k] for k in slots), tuple(g.tail[k] for k in slots), last)
                 for g in basis]
        order = last
        basis = _groebner(basis, order)
        # a homogeneous grevlex lead has the lower power of the last variable
        basis = [_binomial(g.lead[:-1] + (0,), g.tail[:-1] + (g.tail[-1] - g.lead[-1],), order)
                 for g in basis]
    return _decode(_reduced(basis, order), order, size)  # order is grevlex(variables)


def reduce_basis(basis: Sequence[CellPolynomial], order: TermOrder) -> List[CellPolynomial]:
    """Minimalize and tail-reduce a binomial Groebner basis; output is the
    reduced basis, monic, deterministically sorted by leading monomial."""
    if not basis:
        return []
    size = basis[0].size
    return _decode(_reduced(_encode(basis, order, size), order), order, size)


def _reduced(basis: Sequence[_Binomial], order: TermOrder) -> List[_Binomial]:
    # drop duplicates and any generator whose leading monomial another divides
    minimal: List[_Binomial] = []
    for g in sorted(basis, key=lambda g: order.dense_key(g.lead)):
        if not any(all(map(le, other.lead, g.lead)) for other in minimal):
            minimal.append(g)
    # no other lead divides a minimal lead, so tail reduction keeps every
    # lead and the basis stays sorted by leading term
    return [
        _binomial(g.lead, _reduce(g.tail, minimal[:k] + minimal[k + 1:]), order)
        for k, g in enumerate(minimal)
    ]
