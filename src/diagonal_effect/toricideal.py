"""Design matrices, integer kernels, and toric ideals of the model families.

The pipeline is: model -> design matrix A -> lattice basis of ker(A^t) ->
binomial lattice ideal -> saturation with respect to the product of the
cell variables, which yields the full toric ideal.  `groebner.saturate`
does the saturation inside the binomial engine, variable by variable, with
the graded-reverse-lexicographic trick (valid because every lattice
binomial here is degree-homogeneous).  The saturation route first turns
the echelon basis into one with unit pivots (`pivot_basis`) and saturates
only by the cells that `saturation_cells` keeps: it skips the pivots, the
cells no basis row touches, and touched cells that a row witnesses, and
proves that the skipped steps change nothing.  The auxiliary variable
elimination route keeps the echelon basis and every cell, as an
independent cross-check of that rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .errors import InputError, InvariantViolationError
from .groebner import buchberger, reduce_basis, saturate
from .polynomials import CellPolynomial, TermOrder, binomial_from_vector, require_polynomials
from .tables import CountTable, ModelFamily, ModelForm, ModelSpec, Move, _square_grid, flat_rows
from .tables import require_instance, require_int, require_sequence, require_sized


@dataclass(frozen=True)
class DesignMatrix:
    """Cell-by-parameter exponent matrix of a toric model.

    Rows are cells in row-major order; columns are parameters.  A^t maps a
    count table to its sufficient statistic.
    """

    model: ModelSpec
    rows: tuple
    param_names: tuple

    @property
    def size(self) -> int:
        return self.model.size

    @property
    def num_params(self) -> int:
        return len(self.param_names)


def design_matrix(model: ModelSpec) -> DesignMatrix:
    """Design matrix of a toric-form model family."""
    if require_instance(model, ModelSpec, "model").form is not ModelForm.TORIC:
        raise InputError("design matrices exist only for toric-form models")
    I = model.size
    names: List[str] = [f"r{i}" for i in range(1, I + 1)] + [f"c{j}" for j in range(1, I + 1)]
    if model.family is ModelFamily.DIAGONAL_EFFECT:
        names += [f"g{i}" for i in range(1, I + 1)]
    elif model.family is ModelFamily.COMMON_DIAGONAL_EFFECT:
        names += ["g"]
    rows = []
    for i in range(I):
        for j in range(I):
            row = [0] * len(names)
            row[i] = 1
            row[I + j] += 1
            if i == j:
                if model.family is ModelFamily.DIAGONAL_EFFECT:
                    row[2 * I + i] = 1
                elif model.family is ModelFamily.COMMON_DIAGONAL_EFFECT:
                    row[2 * I] = 1
            rows.append(tuple(row))
    return DesignMatrix(model=model, rows=tuple(rows), param_names=tuple(names))


def transpose_apply(A: DesignMatrix, grid) -> tuple:
    """A^t applied to an integer table: a CountTable, a Move, or a raw grid."""
    size = require_instance(A, DesignMatrix, "A").size
    if isinstance(grid, Move):
        entries = require_sized(grid, Move, "move", size, "A").entries
    elif isinstance(grid, CountTable):
        entries = enumerate(require_sized(grid, CountTable, "table", size, "A").flat)
    else:
        entries = enumerate([require_int(x, "grid entry") for row in _square_grid(grid, size) for x in row])
    out = [0] * A.num_params
    for k, value in entries:
        if value:
            for h, a in enumerate(A.rows[k]):
                if a:
                    out[h] += value * a
    return tuple(out)


def integer_kernel(A: DesignMatrix) -> List[tuple]:
    """Lattice basis of the integer kernel of A^t: the sorted I x I grids of `_kernel_vectors`."""
    return [flat_rows(vec, A.size) for vec in _kernel_vectors(A)]


def _kernel_vectors(A: DesignMatrix) -> List[List[int]]:
    """Lattice basis of the integer kernel of A^t, as sorted row-major cell
    vectors.

    Row-reduces [A | identity] with unimodular integer row operations; the
    identity-side rows opposite the zero rows of the reduced A form a basis
    of the full kernel lattice (not merely a finite-index sublattice).
    """
    n = len(require_instance(A, DesignMatrix, "A").rows)
    s = A.num_params
    aug = [list(A.rows[i]) + [1 if k == i else 0 for k in range(n)] for i in range(n)]
    piv = 0
    for col in range(s):
        pivot_row = None
        for r in range(piv, n):
            if aug[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        aug[piv], aug[pivot_row] = aug[pivot_row], aug[piv]
        if aug[piv][col] < 0:
            aug[piv] = [-x for x in aug[piv]]
        for r in range(piv + 1, n):
            while aug[r][col] != 0:
                q = aug[r][col] // aug[piv][col]
                if q:
                    aug[r] = [a - q * b for a, b in zip(aug[r], aug[piv])]
                if aug[r][col] != 0:
                    aug[piv], aug[r] = aug[r], aug[piv]
        piv += 1
    basis, columns = [], list(zip(*A.rows))
    for r in range(piv, n):
        if any(aug[r][:s]):
            raise InvariantViolationError("row echelon left a nonzero row above the kernel block")
        vec = aug[r][s:]
        first = next((x for x in vec if x != 0), 0)
        if first < 0:
            vec = [-x for x in vec]
        if any(sum(map(mul, vec, column)) for column in columns):
            raise InvariantViolationError("kernel vector fails A^t v = 0")
        basis.append(vec)
    basis.sort()
    return basis


def pivot_basis(A: DesignMatrix) -> Tuple[List[List[int]], List[Optional[int]]]:
    """A basis of the lattice of `integer_kernel(A)`, as row-major cell
    vectors, and each row's pivot cell (its variable id), or None for a row
    without one.

    A pivot is a +-1 entry of its row that is 0 in every other row, at any
    cell but the last.  Starting from the echelon basis, a cell is eligible
    in a row without a pivot when the row has +-1 there and the cell is not
    yet a pivot.  While some such row has an eligible cell, the row with the
    fewest (the first on a tie) takes the eligible cell that the fewest rows
    use (the lowest on a tie) as its pivot, and subtracts multiples of
    itself from the other rows to clear that cell.  Taking the most
    constrained row first leaves the others their choices, so that as many
    rows as possible get a pivot (every row does for the models here).
    These are unimodular row operations, so the lattice is the same, and as
    the row is 0 at every earlier pivot, the earlier pivots stay pivots.
    `saturation_cells` says which cells the rows' binomials must then be
    saturated by.
    """
    rows = _kernel_vectors(A)  # checks A before A.size is read
    I = A.size
    pivots: List[Optional[int]] = [None] * len(rows)
    while True:
        # (number of eligible cells, row, the cells) of each row still without a pivot
        open_rows = [(len(cells), r, cells) for r, row in enumerate(rows) if pivots[r] is None
                     and (cells := [c for c in range(I * I - 1) if row[c] in (1, -1) and c not in pivots])]
        if not open_rows:
            return rows, pivots
        _, r, cells = min(open_rows)
        row = rows[r]
        p = min(cells, key=lambda c: (sum(1 for other in rows if other[c]), c))
        pivots[r] = p
        for k, other in enumerate(rows):
            if k != r and other[p]:
                q = other[p] * row[p]
                rows[k] = [a - q * b for a, b in zip(other, row)]


def saturation_cells(rows: Sequence[list], pivots: Sequence[Optional[int]], size: int) -> List[int]:
    """The cells, in cell order, by whose product the binomials of the
    `pivot_basis` rows `rows` (row-major cell vectors of a `size` x `size`
    table) with pivots `pivots` must be saturated to give the toric ideal.

    Left out are the pivots, every cell that no row touches (is nonzero
    at) and a set V of touched non-pivot cells, each with a witness row:
    a row with a pivot, whose entry at the cell has the sign of its pivot
    entry and whose entries of the other sign avoid V.  V is built
    greedily in cell order: a cell joins it when every member of the
    enlarged set still has a witness row.  The last cell is always kept,
    since `saturate`'s last step leaves the basis in grevlex order.

    Proof.  It extends the skipping of pivots by Hosten and Sturmfels
    ("GRIN: an implementation of Groebner bases for integer programming",
    IPCO 1995); compare Bigatti, La Scala and Robbiano ("Computing toric
    ideals", JSC 1999).  Let J be the ideal of the rows' binomials and
    K = J : (prod of the kept cells)^inf.  Every associated prime P of K is
    an associated prime of J that holds no kept variable.  No associated
    prime of J holds an untouched variable, as that variable is in no
    generator.  The binomial of a row with a pivot is x^a - x^b, with a the
    side of the pivot; the row is 0 at every other pivot, so b holds no
    pivot, and it is a nonempty monomial because the row's entries sum to 0.
    Say x_v is in P for some v in V.  Its witness row has x_v in a, so x^a,
    hence x^b, hence a variable of b is in P: a touched cell that is neither
    a pivot nor in V, so kept, which is a contradiction.  Say a pivot x_p is
    in P.  Its row puts a variable of its b in P: a touched non-pivot cell,
    not kept, so in V, and the same contradiction follows.  So no cell is a
    zero divisor modulo K, and K = K : (prod of all cells)^inf contains
    J : (prod of all cells)^inf, the lattice ideal of ker(A^t), which is the
    toric ideal and contains K.
    """
    last = size * size - 1
    touched = [c for c in range(last) if c not in pivots and any(row[c] for row in rows)]
    # (pivot entry, row) of each row with a pivot
    signed = [(row[p], row) for row, p in zip(rows, pivots) if p is not None]

    def witnessed(cells: List[int]) -> bool:
        return all(any(s * row[v] > 0 and not any(s * row[u] < 0 for u in cells) for s, row in signed)
                   for v in cells)

    skipped: List[int] = []
    for c in touched:
        if witnessed(skipped + [c]):
            skipped.append(c)
    return [c for c in touched if c not in skipped] + [last]


def lattice_binomials(A: DesignMatrix) -> List[CellPolynomial]:
    # `_kernel_vectors` checks A before A.size is read
    return [binomial_from_vector(vec, A.size) for vec in _kernel_vectors(A)]


def toric_ideal(model: ModelSpec, method: str = "saturation") -> List[CellPolynomial]:
    """Generators of the toric ideal of a model, from its design matrix.

    method "saturation": per-variable saturation of the lattice ideal of
    `pivot_basis(A)` by the cells of `saturation_cells` (fast, inside the
    binomial engine).  method "elimination": adjoin t, add t * (product of
    all cells) - 1 to the echelon basis binomials, eliminate t with a block
    order.  Both agree: the test suite compares them for independence at
    I = 2, 3 and 4, diagonal effect at I = 3 and 4 and common diagonal
    effect at I = 3, and checks the common diagonal effect ideal at I = 4
    against its move binomials (elimination takes about 3.6 s there,
    12,442 S-pairs).

    Sizes above 4 are rejected: basis computations there are outside this
    package's desk-scale guarantees.
    """
    I = require_instance(model, ModelSpec, "model").size
    if I > 4:
        raise InputError("toric_ideal supports sizes up to 4")
    A = design_matrix(model)
    cell_vars = list(range(I * I))

    if method == "saturation":
        rows, pivots = pivot_basis(A)
        gens = [binomial_from_vector(row, I) for row in rows]
        result = saturate(gens, cell_vars, by=saturation_cells(rows, pivots, I))
    elif method == "elimination":
        gens = lattice_binomials(A)
        aux = I * I
        # the cells ascend and aux = I * I is above them; () is the other monomial
        rabinowitsch = CellPolynomial._nonzero_ints(I, {tuple(cell_vars + [aux]): 1, (): -1})
        order = TermOrder.elimination([aux], cell_vars)
        basis = buchberger(gens + [rabinowitsch], order)
        kept = [g for g in basis if aux not in g.variables()]
        result = reduce_basis(kept, TermOrder.grevlex(cell_vars))
    else:
        raise InputError(f"unknown method {method!r}; use 'saturation' or 'elimination'")

    for g in result:
        if not g.is_pure_binomial():
            raise InvariantViolationError(f"toric ideal generator is not a pure binomial: {g}")
    return result


def ideal_equal(gens1: Sequence[CellPolynomial], gens2: Sequence[CellPolynomial]) -> bool:
    """True iff the two generating sets span the same ideal.

    An ideal has exactly one reduced Groebner basis under a given term
    order (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, 2.7), and
    `buchberger` returns it monic and sorted by leading monomial, so the
    two lists are equal exactly when the ideals are.
    """
    both = [*require_sequence(gens1, "gens1"), *require_sequence(gens2, "gens2")]
    size = require_polynomials(both, "generators")
    list1 = [g for g in gens1 if not g.is_zero()]
    list2 = [g for g in gens2 if not g.is_zero()]
    if not list1 or not list2:
        return not list1 and not list2
    order = TermOrder.grevlex(range(size * size))
    gb1, gb2 = (buchberger(g, order) for g in (list1, list2))
    return gb1 == gb2
