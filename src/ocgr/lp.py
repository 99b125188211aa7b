"""Minimization linear programs over operator-counting variables.

An LP is its objective and its rows; the floors and the start are
arguments of each solve, so one LP is solved again under other floors or
from another start. Each LP compiles its rows once, on first use, into
sparse arrays (``LinearProgram.compiled``): the nonzeros of [A | -I] by
row, A's terms as written and then the m entries -1 of -I, so that A's
alone are a prefix of them; and A's by column.

The built-in solver is one revised dual simplex (float64, tolerance 1e-7) on
the rows A y >= b, written A y - s = b over the columns [A | -I] with a
surplus s_i per row. Floors y >= k are bounds; the substitution y = k + z
moves them into b - A k. A solve keeps only B^-1 (m x m), x_B = B^-1 b and
the reduced costs d. Each pivot prices the leaving row (e_r^T B^-1)[A | -I]
with one ``bincount`` over the nonzeros of [A | -I], as the reduced costs
are priced; forms the entering column B^-1 a_q from the column index; and
updates B^-1, x_B and d by one rank-1 step, on the rows where B^-1 a_q is
nonzero. ``_Revised`` holds the one copy of each step; the dual and the
primal phase 2 both pivot through it.

A solve starts from one of three bases, by its ``start`` argument:

* all-surplus (no start): B^-1 = -I, so the reduced costs are c;
* landmark crash (a tuple of columns, as recognition passes for a base LP):
  landmark row k is basic in an action a_k its LM-cut round drove to
  residual 0, one on the goal's relaxed plan where the round has one, every
  other row in its surplus. The landmark block is unit upper triangular, so
  B^-1 follows by substitution, with no inverse or matrix product. Priced,
  the duals are LM-cut's cut minima (a cost partitioning), each action's
  reduced cost is its final residual cost and each surplus's its row's
  minimum, so the dual simplex starts dual feasible at h_LM-cut. With unit
  costs the crash's counts are the relaxed plan's; on open grids that plan
  is a shortest path, which meets every row, so the start is optimal;
* warm (a ``Basis``): an optimal basis of an LP over the same rows, as the
  base LP's is for its h_hc solve; a basis of other rows is a ValueError.
  The reduced costs depend only on the basis, the rows and the objective,
  not on b or the floors, so a basis keeps its first pricing and later
  solves of its own LP that start from it copy that.

Negative reduced costs are clamped to 0, and at the first degenerate dual
ratio test each nonbasic reduced cost gets a fixed perturbation; a perturbed
dual that makes 2*(m+n) degenerate pivots in a row has stalled. If the costs
were clamped or perturbed, a primal phase 2 on the true costs (Bland's rule
after 2*(m+n) degenerate pivots) finishes the solve and detects
unboundedness. Optimal outcomes carry their basis (the basic column of each
row and the solve's own B^-1, made read-only).

``BACKENDS`` names the solvers, each called as ``solve(lp, lower=, start=)``:
``simplex`` is ``solve_lp``; ``scipy`` (HiGHS) reads the same compiled
rows, passes the floors as bounds and ignores the start.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .constraints import LinearConstraint
from .errors import SolverFailure

EPS = 1e-7
PIVOT_TOL = 1e-9
DEGENERATE_TOL = 1e-12
PERTURB = 1e-6  # scale of the dual cost perturbation
_GOLDEN = 0.6180339887498949
ITER_CAP = 2000  # pivots per phase: at most ITER_CAP + ITER_CAP_PER_DIM * (m + n)
ITER_CAP_PER_DIM = 200

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True, eq=False)
class Basis:
    """An optimal simplex basis of ``lp``, the LP solved: the basic column of
    each row (j < n is Y_j, n + i the surplus of row i) and B^-1 over the
    columns [A | -I].

    ``priced`` holds the reduced costs (read-only) of the first solve of
    ``lp`` that starts from this basis, set when that start prices it.
    """

    columns: tuple[int, ...]
    inverse: np.ndarray  # m x m, read-only
    lp: LinearProgram
    priced: np.ndarray | None = field(default=None, repr=False)


class CompiledRows(NamedTuple):
    """The nonzeros of [A | -I] in row-major order, ``aug_row``, ``aug_col``
    and ``aug_data``: A's terms as the rows list them, then the m of -I (row
    i, column n + i, -1). ``row``, ``col`` and ``data`` are A's alone, prefix
    views of those; ``rhs`` is b. Then A's nonzeros in column-major order:
    column j's rows and values are ``col_rows[s:e]`` and ``col_data[s:e]``
    for s, e = ``col_start[j:j + 2]``."""
    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    rhs: np.ndarray
    col_rows: np.ndarray
    col_data: np.ndarray
    col_start: np.ndarray
    aug_row: np.ndarray
    aug_col: np.ndarray
    aug_data: np.ndarray


def compile_rows(num_vars: int, constraints: Sequence[LinearConstraint]) -> CompiledRows:
    m = len(constraints)
    lengths = [len(row.terms) for row in constraints]
    terms = np.fromiter(chain.from_iterable(chain.from_iterable(row.terms for row in constraints)),
                        dtype=float, count=2 * sum(lengths)).reshape(-1, 2)
    rows = np.repeat(np.arange(m), lengths)
    cols = terms[:, 0].astype(np.intp)
    # Unsigned, a negative index is out of range too.
    bad = (cols != terms[:, 0]) | (cols.view(np.uintp) >= num_vars)
    if bad.any():
        var = next(islice(chain.from_iterable(row.terms for row in constraints),
                          int(bad.argmax()), None))[0]
        raise ValueError(f"constraint references unknown variable {var}")
    # Canonical rows (see LinearConstraint) have strictly increasing (row, col) keys.
    keys = rows * num_vars + cols
    bad = terms[:, 1] == 0
    bad[1:] |= keys[1:] <= keys[:-1]
    if bad.any():
        raise ValueError(f"constraint row {rows[bad.argmax()]} repeats a variable, lists its "
                         "variables out of increasing order or has a zero coefficient")
    nnz, surplus = len(cols), np.arange(m)
    aug_row = np.concatenate((rows, surplus))
    aug_col = np.concatenate((cols, surplus + num_vars))
    aug_data = np.concatenate((terms[:, 1], np.full(m, -1.0)))
    row, col, data = aug_row[:nnz], aug_col[:nnz], aug_data[:nnz]
    by_col = col.argsort(kind="stable")
    col_start = np.zeros(num_vars + 1, dtype=np.intp)
    col_start[1:] = np.bincount(col, minlength=num_vars).cumsum()
    return CompiledRows(row, col, data, np.array([r.rhs for r in constraints], float),
                        row[by_col], data[by_col], col_start, aug_row, aug_col, aug_data)


@dataclass(frozen=True)
class LinearProgram:
    """min objective . y  s.t.  constraints (all >=),  y >= 0.

    A solve adds the floors y_v >= floor for each (v, floor) in its ``lower``
    and starts from its ``start``: an optimal ``Basis`` of an LP over the
    same rows (a basis of other rows is an error when the simplex backend
    starts from it), or a crash, the columns a_0, ..., a_K-1 in which rows
    0..K-1 are basic, every other row in its surplus, where A's block on
    those rows and columns is unit upper triangular (as the landmark rows'
    ``zeroed`` actions give).
    """

    num_vars: int
    objective: tuple[float, ...]
    constraints: tuple[LinearConstraint, ...]

    @staticmethod
    def from_constraints(rows: Sequence[LinearConstraint], costs: Sequence[float]
                         ) -> "LinearProgram":
        """The LP over one variable per cost: min costs . y subject to ``rows``."""
        return LinearProgram(num_vars=len(costs), objective=tuple(float(c) for c in costs),
                             constraints=tuple(rows))

    @cached_property
    def compiled(self) -> CompiledRows:
        """The rows compiled, once per LP."""
        return compile_rows(self.num_vars, self.constraints)


@dataclass(frozen=True)
class LpOutcome:
    status: str  # optimal | infeasible | unbounded
    value: float | None = None
    counts: tuple[float, ...] | None = None
    pivots: int = field(default=0, compare=False)
    warm: bool = field(default=False, compare=False)  # started from a Basis
    basis: Basis | None = field(default=None, compare=False, repr=False)


def _floors(num_vars: int, lower: Iterable[tuple[int, int]]) -> np.ndarray:
    """The lower bound of every variable: the largest of 0 and its floors."""
    k = np.zeros(num_vars)
    for var, floor in lower:
        if not (0 <= var < num_vars and var == int(var)):
            raise ValueError(f"bound references unknown variable {var}")
        if floor > k[int(var)]:
            k[int(var)] = floor
    return k


class _Revised:
    """A revised simplex over the columns [A | -I] of an m x n LP: the basic
    column of each row, ``bx`` = [B^-1 | x_B] with x_B = B^-1 b (m x (m + 1)),
    and the reduced costs d of all n + m columns (0 at the basic ones)."""

    d: np.ndarray

    def __init__(self, rows: CompiledRows, n: int, basis: np.ndarray, bx: np.ndarray):
        self.rows, self.n, self.m = rows, n, len(basis)
        self.basis, self.bx = basis, bx
        self.x = bx[:, -1]  # a view: pivots update it with B^-1
        self.col_start = rows.col_start.tolist()

    def price(self, cost: np.ndarray) -> None:
        """Set d to the reduced costs of ``cost``, given over all n + m columns."""
        rows = self.rows
        y = cost[self.basis] @ self.bx[:, :-1]
        d = cost - np.bincount(rows.aug_col, y[rows.aug_row] * rows.aug_data, self.n + self.m)
        d[self.basis] = 0.0
        self.d = d

    def row(self, r: int) -> np.ndarray:
        """Row ``r`` of B^-1 [A | -I], exactly 0 and 1 at the basic columns."""
        rows = self.rows
        line = np.bincount(rows.aug_col, self.bx[r][rows.aug_row] * rows.aug_data,
                           self.n + self.m)
        line[self.basis] = 0.0
        line[self.basis[r]] = 1.0
        return line

    def column(self, q: int) -> np.ndarray:
        """B^-1 times column ``q`` of [A | -I], a new array."""
        n = self.n
        if q >= n:
            return -self.bx[:, q - n]
        s, e = self.col_start[q], self.col_start[q + 1]
        return self.bx[:, self.rows.col_rows[s:e]] @ self.rows.col_data[s:e]

    def pivot(self, r: int, q: int, line: np.ndarray, column: np.ndarray) -> None:
        """Enter column ``q`` on row ``r``, given ``row(r)`` and ``column(q)``;
        both are overwritten."""
        d, bx = self.d, self.bx
        line *= d[q] / line[q]
        d -= line
        d[q] = 0.0
        pivot_row = bx[r]  # [e_r^T B^-1 | x_r], a view
        pivot_row /= column[r]
        column[r] = 0.0
        touched = column.nonzero()[0]  # B^-1 a_q is sparse: update only its rows
        block = bx.take(touched, 0)
        block -= column.take(touched)[:, None] * pivot_row
        bx[touched] = block
        self.basis[r] = q


def _limits(m: int, n: int) -> tuple[int, int]:
    """Degenerate pivots before Bland's rule engages in phase 2 or the
    perturbed dual counts as stalled, and the pivot cap, of each phase."""
    return 2 * (m + n), ITER_CAP + ITER_CAP_PER_DIM * (m + n)


def _failure(phase: str, what: str, pivots: int, m: int, n: int) -> SolverFailure:
    return SolverFailure(f"simplex {phase} {what} after {pivots} pivots on a {m} x {n} LP")


def _primal(state: _Revised, pivots: int, m: int, n: int) -> tuple[str, int]:
    """Primal simplex to optimality on the reduced costs d of an ``m`` x ``n``
    LP; returns the status and the pivot count, counted on from ``pivots``."""
    bland_after, iter_cap = _limits(m, n)
    degenerate = 0
    bland = False
    for step in range(iter_cap + 1):
        costs = state.d
        if bland:
            neg = (costs < -EPS).nonzero()[0]
            if neg.size == 0:
                return OPTIMAL, pivots
            q = int(neg[0])
        else:
            q = int(costs.argmin())
            if costs[q] >= -EPS:
                return OPTIMAL, pivots
        column = state.column(q)
        eligible = (column > PIVOT_TOL).nonzero()[0]
        if eligible.size == 0:
            return UNBOUNDED, pivots
        if step == iter_cap:
            break
        ratios = state.x[eligible] / column[eligible]
        best = ratios.min()
        tied = eligible[(ratios <= best + DEGENERATE_TOL).nonzero()[0]]
        r = int(tied[state.basis[tied].argmin()])
        if best < DEGENERATE_TOL:
            degenerate += 1
            if degenerate > bland_after:
                bland = True
        state.pivot(r, q, state.row(r), column)
        pivots += 1
    raise _failure("phase 2", "hit the iteration limit", pivots, m, n)


def _dual(state: _Revised, m: int, n: int) -> tuple[str, int, bool]:
    """Dual simplex from nonnegative reduced costs; returns the status
    (optimal or infeasible), the pivot count and whether the costs were
    perturbed.

    Each pivot leaves on the row with the most negative x_B and enters the
    column of the dual ratio test, ties going to the lowest column index. At
    the first degenerate ratio test every nonbasic reduced cost gets its fixed
    perturbation, which breaks the ties that otherwise stall the dual; a run
    of 2*(m+n) degenerate pivots after that raises SolverFailure.
    """
    stall_after, iter_cap = _limits(m, n)
    d, x = state.d, state.x  # pivots update them in place
    perturbed = False
    degenerate = 0
    for pivots in range(iter_cap + 1):
        r = int(x.argmin())
        if x[r] >= -EPS:
            return OPTIMAL, pivots, perturbed
        line = state.row(r)
        eligible = (line < -PIVOT_TOL).nonzero()[0]
        if not eligible.size:
            return INFEASIBLE, pivots, perturbed
        if pivots == iter_cap:
            break
        # d / line is minus the dual ratio d / -line, exactly: the best ratio is its max.
        ratios = d[eligible]
        ratios /= line[eligible]
        best = float(ratios[ratios.argmax()])
        if best > -DEGENERATE_TOL and not perturbed:
            perturbed = True
            # A factor in [1, 2) per column, distinct across columns.
            d += PERTURB * (1.0 + (np.arange(n + m) * _GOLDEN) % 1.0)
            d[state.basis] = 0.0
            ratios = d[eligible]
            ratios /= line[eligible]
            best = float(ratios[ratios.argmax()])
        q = int(eligible[(ratios >= best - DEGENERATE_TOL).argmax()])
        state.pivot(r, q, line, state.column(q))
        degenerate = degenerate + 1 if best > -DEGENERATE_TOL else 0
        if degenerate >= stall_after:
            raise SolverFailure(f"simplex dual stalled after {pivots + 1} pivots "
                                f"({degenerate} degenerate) on a {m} x {n} LP")
    raise _failure("dual", "hit the iteration limit", iter_cap, m, n)


def _crash(bx: np.ndarray, rows: CompiledRows, n: int, columns: Sequence[int]) -> None:
    """Write B^-1 of the crash basis into ``bx[:, :-1]``, zero on entry: row
    k < K basic in ``columns[k]``, every other row in its surplus.

    With L the K x K block of A on those rows and columns, which must be unit
    upper triangular, and N the block below it, B^-1 = [[L^-1, 0], [N L^-1, -I]].
    Column j < K of B^-1 B = I reads B^-1[:, j] = e_j + N[:, j] - sum over
    i < j of L[i, j] B^-1[:, i]: N is copied in, and the columns follow in
    order with one column update per off-diagonal nonzero of L.
    """
    m, size = len(bx), len(columns)
    diagonal = np.arange(m)
    bx[diagonal, diagonal] = -1.0
    if not size:
        return
    if size > m or len(set(columns)) != size or not 0 <= min(columns) <= max(columns) < n:
        raise ValueError(f"crash start needs distinct columns for at most {m} rows")
    position = np.full(n, -1)
    position[list(columns)] = diagonal[:size]
    at = position[rows.col]
    hit = (at >= 0).nonzero()[0]
    row, at, data = rows.row[hit], at[hit], rows.data[hit]
    bx[row, at] = data  # L on top, N below
    top = row.searchsorted(size)  # the nonzeros are row-major
    if (bx.diagonal()[:size] != 1).any() or (at[:top] < row[:top]).any():
        raise ValueError("crash start's landmark block is not unit upper triangular")
    upper = (row < at).nonzero()[0]
    if upper.size:
        bx[row[upper], at[upper]] = 0.0
        for t in upper[at[upper].argsort(kind="stable")].tolist():
            bx[:, at[t]] -= data[t] * bx[:, row[t]]


def _start(lp: LinearProgram, start: Basis | tuple[int, ...] | None, b: np.ndarray,
           cost: np.ndarray) -> tuple[_Revised, bool]:
    """The priced state a solve of ``lp`` starts from, and whether it is warm:
    ``start`` when it is a basis, which must be one of an LP over
    ``lp.constraints`` (else ValueError), else the crash it names (the
    all-surplus basis when it names none)."""
    n, m = lp.num_vars, len(b)
    rows = lp.compiled
    warm = isinstance(start, Basis)
    if warm:
        if start.lp.constraints is not lp.constraints and start.lp.constraints != lp.constraints:
            raise ValueError("warm start from a basis of other rows")
        basis = np.array(start.columns)
        bx = np.empty((m, m + 1))
        bx[:, :-1] = start.inverse
        bx[:, -1] = start.inverse @ b
    else:
        crash = () if start is None else start
        bx = np.zeros((m, m + 1))
        _crash(bx, rows, n, crash)
        basis = np.arange(n, n + m)
        basis[:len(crash)] = crash
        bx[:, -1] = bx[:, :-1] @ b
    state = _Revised(rows, n, basis, bx)
    own = warm and start.lp is lp  # the basis's own rows and objective
    if own and start.priced is not None:
        state.d = start.priced.copy()
        return state, warm
    state.price(cost)
    if own:
        d = state.d.copy()
        d.setflags(write=False)
        object.__setattr__(start, "priced", d)
    return state, warm


def solve_lp(lp: LinearProgram, *, lower: Iterable[tuple[int, int]] = (),
             start: Basis | tuple[int, ...] | None = None) -> LpOutcome:
    """Solve with the built-in revised dual simplex, under the floors
    ``lower`` and from ``start`` (see ``LinearProgram``)."""
    n = lp.num_vars
    m = len(lp.constraints)
    cost = np.zeros(n + m)  # over [A | -I]: the surplus columns cost 0
    cost[:n] = lp.objective
    c = cost[:n]
    k = _floors(n, lower)
    if m == 0:
        if n and c.min() < 0:
            return LpOutcome(UNBOUNDED)
        return LpOutcome(OPTIMAL, float(c @ k), tuple(k.tolist()))
    rows = lp.compiled
    b = rows.rhs
    if lower:
        b = b - np.bincount(rows.row, weights=rows.data * k[rows.col], minlength=m)
    state, warm = _start(lp, start, b, cost)
    clamped = state.d.min() < -EPS
    np.maximum(state.d, 0.0, out=state.d)
    status, pivots, perturbed = _dual(state, m, n)
    if status == INFEASIBLE:
        return LpOutcome(INFEASIBLE, pivots=pivots, warm=warm)
    if clamped or perturbed:
        state.price(cost)
        status, pivots = _primal(state, pivots, m, n)
        if status == UNBOUNDED:
            return LpOutcome(UNBOUNDED, pivots=pivots, warm=warm)
    x = np.zeros(n + m)
    x[state.basis] = state.x
    counts = np.maximum(x[:n], 0.0) + k
    inverse = state.bx[:, :-1]
    inverse.setflags(write=False)
    return LpOutcome(OPTIMAL, float(c @ counts), tuple(counts.tolist()), pivots, warm,
                     Basis(tuple(state.basis.tolist()), inverse, lp))


def _scipy_backend(lp: LinearProgram, *, lower: Iterable[tuple[int, int]] = (),
                   start: Basis | tuple[int, ...] | None = None) -> LpOutcome:
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    c = np.asarray(lp.objective, dtype=float)
    bounds = [(floor, None) for floor in _floors(lp.num_vars, lower)] if lower else (0, None)
    rows = lp.compiled
    a = csr_array((-rows.data, (rows.row, rows.col)), shape=(len(lp.constraints), lp.num_vars))
    res = linprog(c, A_ub=a, b_ub=-rows.rhs, bounds=bounds, method="highs")
    if res.status == 0:
        counts = tuple(float(v) for v in np.maximum(res.x, 0.0))
        return LpOutcome(OPTIMAL, float(c @ np.asarray(counts)), counts)
    if res.status == 2:
        return LpOutcome(INFEASIBLE)
    if res.status == 3:
        return LpOutcome(UNBOUNDED)
    raise SolverFailure(f"scipy backend failed: {res.message}")


BACKENDS: dict[str, Callable[..., LpOutcome]] = {
    "simplex": solve_lp, "scipy": _scipy_backend}


def check_backend(name: str) -> None:
    """Raise ``ValueError`` (an input error) unless ``name`` is in ``BACKENDS``."""
    if name not in BACKENDS:
        raise ValueError(f"unknown backend '{name}' (have: {', '.join(sorted(BACKENDS))})")


def solve_with(lp: LinearProgram, backend: str, *, lower: Iterable[tuple[int, int]] = (),
               start: Basis | tuple[int, ...] | None = None) -> LpOutcome:
    """Solve ``lp`` with the named backend, under the floors ``lower`` and
    from ``start`` (see ``LinearProgram``)."""
    check_backend(backend)
    return BACKENDS[backend](lp, lower=lower, start=start)
