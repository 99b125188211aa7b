"""Minimization linear programs over operator-counting variables.

An LP is its objective and its rows; the floors and the start are
arguments of each solve, so one LP is solved again under other floors or
from another start. Each LP compiles its rows once, on first use, into
sparse arrays (``LinearProgram.compiled``): the nonzeros of [A | -I] by
row, A's terms as written and then the m entries -1 of -I, so that A's
alone are a prefix of them; and A's by column. What every solve of an LP
shares is derived once, on first use, and read-only: its objective over
the n + m columns (``cost``) and the dual's cost perturbation
(``perturbation``).

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

* all-surplus (the default start, the empty crash): B^-1 = -I, costs c;
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
  not on b or the floors, so a basis derives them once, clamped as below
  and with whether the clamp moved one (``Basis.priced``); every solve of
  its own LP that starts from it copies them and the basis's columns.

Negative reduced costs are clamped to 0, and at the first degenerate dual
ratio test each nonbasic reduced cost gets a fixed perturbation; a perturbed
dual that makes 2*(m+n) degenerate pivots in a row has stalled. If the costs
were clamped or perturbed, a primal phase 2 on the true costs, pivoting by
Bland's rule, finishes the solve. An outcome is the optimum with its basis
(the solve's own array of the basic column of each row and its own B^-1,
both read-only), or no value if the LP is infeasible; a stalled dual, an
unbounded LP and a solve that would pivot more than ``PIVOT_CAP`` times, in
both phases together, raise SolverFailure with the LP's size.

``BACKENDS`` names the solvers, each called as ``solve(lp, lower=, start=)``:
``simplex`` is ``solve_lp``; ``scipy`` (HiGHS) reads the same compiled
rows, passes every variable's floor (0 if none) as its bound and ignores
the start; it raises SolverFailure on any status but optimal or infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .constraints import LinearConstraint
from .errors import SolverFailure, check_name

EPS = 1e-7
PIVOT_TOL = 1e-9
DEGENERATE_TOL = 1e-12
PERTURB = 1e-6  # scale of the dual cost perturbation
_GOLDEN = 0.6180339887498949
PIVOT_CAP = 50_000  # pivots per solve, the dual's and phase 2's together


@dataclass(frozen=True, eq=False)
class Basis:
    """An optimal simplex basis of ``lp``, the LP solved: the basic column of
    each row (j < n is Y_j, n + i the surplus of row i) and B^-1 over the
    columns [A | -I]."""

    columns: np.ndarray  # m, read-only
    inverse: np.ndarray  # m x m, read-only
    lp: LinearProgram

    @cached_property
    def priced(self) -> tuple[np.ndarray, bool]:
        """The reduced costs of ``lp``'s objective at this basis, clamped at 0
        and read-only, and whether any was below -EPS (see ``_clamp``): the
        first pricing of every solve of ``lp`` that starts here."""
        d = _reduced_costs(self.lp.compiled, self.columns, self.inverse, self.lp.cost)
        clamped = _clamp(d)
        return _read_only(d), clamped


class CompiledRows(NamedTuple):
    """The nonzeros of [A | -I] in row-major order, ``aug_row``, ``aug_col``
    and ``aug_data``: A's terms as the rows list them, then the m of -I (row
    i, column n + i, -1). ``row``, ``col`` and ``data`` are A's alone, prefix
    views of those; ``rhs`` is b. Then A's nonzeros in column-major order:
    column j's rows and values are ``col_rows[s:e]`` and ``col_data[s:e]``
    for s, e = ``col_start[j:j + 2]``, ints, which index faster than an
    array's elements."""
    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    rhs: np.ndarray
    col_rows: np.ndarray
    col_data: np.ndarray
    col_start: tuple[int, ...]
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
    col_start = (0, *np.bincount(col, minlength=num_vars).cumsum().tolist())
    return CompiledRows(row, col, data, np.array([r.rhs for r in constraints], float),
                        row[by_col], data[by_col], col_start, aug_row, aug_col, aug_data)


@dataclass(frozen=True)
class LinearProgram:
    """min objective . y  s.t.  constraints (all >=),  y >= 0, over ``num_vars``
    = len(objective) variables.

    A solve adds the floors y_v >= floor for each (v, floor) in its ``lower``
    and starts from its ``start``: an optimal ``Basis`` of an LP over the
    same rows (a basis of other rows is an error when the simplex backend
    starts from it), or a crash, the columns a_0, ..., a_K-1 in which rows
    0..K-1 are basic, every other row in its surplus, where A's block on
    those rows and columns is unit upper triangular (as the landmark rows'
    ``zeroed`` actions give); the default, the empty crash, is all-surplus.
    """

    objective: tuple[float, ...]
    constraints: tuple[LinearConstraint, ...]

    @staticmethod
    def from_constraints(rows: Sequence[LinearConstraint], costs: Sequence[float]
                         ) -> "LinearProgram":
        """The LP over one variable per cost: min costs . y subject to ``rows``."""
        return LinearProgram(tuple(float(c) for c in costs), tuple(rows))

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    @cached_property
    def compiled(self) -> CompiledRows:
        """The rows compiled, once per LP."""
        return compile_rows(self.num_vars, self.constraints)

    @cached_property
    def cost(self) -> np.ndarray:
        """The objective over all n + m columns of [A | -I], read-only: the
        surplus columns cost 0."""
        cost = np.zeros(self.num_vars + len(self.constraints))
        cost[:self.num_vars] = self.objective
        return _read_only(cost)

    @cached_property
    def perturbation(self) -> np.ndarray:
        """The dual's cost perturbation of each of the n + m columns, read-only:
        ``PERTURB`` times a factor in [1, 2), distinct across columns."""
        columns = np.arange(self.num_vars + len(self.constraints))
        return _read_only(PERTURB * (1.0 + (columns * _GOLDEN) % 1.0))


@dataclass(frozen=True)
class LpOutcome:
    """An LP's optimal value and counts, None when it is infeasible; ``status`` names which."""
    value: float | None = None
    counts: tuple[float, ...] | None = None
    pivots: int = field(default=0, compare=False)
    warm: bool = field(default=False, compare=False)  # started from a Basis
    basis: Basis | None = field(default=None, compare=False, repr=False)

    @property
    def status(self) -> str:
        return "infeasible" if self.value is None else "optimal"


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only."""
    a.setflags(write=False)
    return a


def _reduced_costs(rows: CompiledRows, basis: np.ndarray, inverse: np.ndarray,
                   cost: np.ndarray) -> np.ndarray:
    """c - (c_B B^-1)[A | -I] for ``cost`` over all n + m columns, 0 at ``basis``."""
    y = cost[basis] @ inverse
    d = cost - np.bincount(rows.aug_col, y[rows.aug_row] * rows.aug_data, len(cost))
    d[basis] = 0.0
    return d


def _clamp(d: np.ndarray) -> bool:
    """Set the negative reduced costs in ``d`` to 0; whether any was below -EPS,
    which leaves the dual's optimum to a primal phase 2 on the true costs."""
    clamped = bool(d.min() < -EPS)
    np.maximum(d, 0.0, out=d)
    return clamped


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
    the reduced costs d of all n + m columns (0 at the basic ones) and the
    pivots made so far, which ``pivot`` caps at ``PIVOT_CAP`` per solve."""

    d: np.ndarray

    def __init__(self, lp: LinearProgram, basis: np.ndarray, bx: np.ndarray):
        self.lp, self.rows, self.n, self.m = lp, lp.compiled, lp.num_vars, len(basis)
        self.basis, self.bx = basis, bx
        self.x = bx[:, -1]  # a view: pivots update it with B^-1
        self.pivots = 0

    def failure(self, what: str, note: str = "") -> SolverFailure:
        """SolverFailure: the simplex ``what`` after this solve's pivots on its LP."""
        return SolverFailure(f"simplex {what} after {self.pivots} pivots{note} "
                             f"on a {self.m} x {self.n} LP")

    def price(self, cost: np.ndarray) -> None:
        """Set d to the reduced costs of ``cost``, given over all n + m columns."""
        self.d = _reduced_costs(self.rows, self.basis, self.bx[:, :-1], cost)

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
        rows = self.rows
        s, e = rows.col_start[q], rows.col_start[q + 1]
        return self.bx[:, rows.col_rows[s:e]] @ rows.col_data[s:e]

    def pivot(self, r: int, q: int, line: np.ndarray, column: np.ndarray) -> None:
        """Enter column ``q`` on row ``r``, given ``row(r)`` and ``column(q)``;
        both are overwritten. The pivot past ``PIVOT_CAP`` raises instead."""
        if self.pivots >= PIVOT_CAP:
            raise SolverFailure(f"simplex gave up at its cap of {PIVOT_CAP} pivots on a "
                                f"{self.m} x {self.n} LP; try --backend scipy")
        self.pivots += 1
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


def _degenerate_limit(m: int, n: int) -> int:
    """Degenerate pivots in a row after which the perturbed dual counts as stalled."""
    return 2 * (m + n)


def _primal(state: _Revised) -> None:
    """Primal simplex to optimality on the reduced costs d by Bland's rule, which
    cannot cycle: enter the lowest-index column whose reduced cost is below -EPS
    and leave on the lowest basic column among the ratio test's ties; an
    unbounded ray raises."""
    d, x = state.d, state.x  # pivots update them in place
    while d.min() < -EPS:
        q = int((d < -EPS).argmax())
        column = state.column(q)
        eligible = (column > PIVOT_TOL).nonzero()[0]
        if eligible.size == 0:
            raise state.failure("phase 2 found the LP unbounded")
        ratios = x[eligible] / column[eligible]
        tied = eligible[(ratios <= ratios.min() + DEGENERATE_TOL).nonzero()[0]]
        r = int(tied[state.basis[tied].argmin()])
        state.pivot(r, q, state.row(r), column)


def _dual(state: _Revised) -> tuple[bool, bool]:
    """Dual simplex from nonnegative reduced costs; returns whether the LP is
    feasible (every x_B ends at -EPS or above; it is infeasible when a row with
    negative x_B has no entering column) and whether the costs were perturbed.

    Each pivot leaves on the row with the most negative x_B and enters the
    column of the dual ratio test, ties going to the lowest column index. At
    the first degenerate ratio test every nonbasic reduced cost gets its fixed
    perturbation, which breaks the ties that otherwise stall the dual; a run
    of 2*(m+n) degenerate pivots after that raises SolverFailure.
    """
    stall_after = _degenerate_limit(state.m, state.n)
    d, x = state.d, state.x  # pivots update them in place
    perturbed = False
    degenerate = 0
    while True:
        r = int(x.argmin())
        if x[r] >= -EPS:
            return True, perturbed
        line = state.row(r)
        eligible = (line < -PIVOT_TOL).nonzero()[0]
        if not eligible.size:
            return False, perturbed
        # d / line is minus the dual ratio d / -line, exactly: the best ratio is its max.
        ratios = d[eligible]
        ratios /= line[eligible]
        best = float(ratios[ratios.argmax()])
        if best > -DEGENERATE_TOL and not perturbed:
            perturbed = True
            d += state.lp.perturbation
            d[state.basis] = 0.0
            ratios = d[eligible]
            ratios /= line[eligible]
            best = float(ratios[ratios.argmax()])
        q = int(eligible[(ratios >= best - DEGENERATE_TOL).argmax()])
        state.pivot(r, q, line, state.column(q))
        degenerate = degenerate + 1 if best > -DEGENERATE_TOL else 0
        if degenerate >= stall_after:
            raise state.failure("dual stalled", f" ({degenerate} degenerate)")


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


def _start(lp: LinearProgram, start: Basis | tuple[int, ...], b: np.ndarray
           ) -> tuple[_Revised, bool, bool]:
    """The state a solve of ``lp`` starts from, priced and clamped, whether it
    is warm and whether the clamp moved a cost (see ``_clamp``): ``start``
    when it is a basis, which must be one of an LP over ``lp.constraints``
    (else ValueError), else the crash it names (the all-surplus basis when it
    names no column). A start from a basis of ``lp`` itself copies
    ``Basis.priced``; any other start prices ``lp.cost``."""
    n, m = lp.num_vars, len(b)
    warm = isinstance(start, Basis)
    if warm:
        if start.lp.constraints is not lp.constraints and start.lp.constraints != lp.constraints:
            raise ValueError("warm start from a basis of other rows")
        bx = np.empty((m, m + 1))
        bx[:, :-1] = start.inverse
        basis = start.columns.copy()
    else:
        bx = np.zeros((m, m + 1))
        _crash(bx, lp.compiled, n, start)
        basis = np.arange(n, n + m)
        basis[:len(start)] = start
    np.matmul(bx[:, :-1], b, out=bx[:, -1])
    state = _Revised(lp, basis, bx)
    if warm and start.lp is lp:
        d, clamped = start.priced
        state.d = d.copy()
    else:
        state.price(lp.cost)
        clamped = _clamp(state.d)
    return state, warm, clamped


def solve_lp(lp: LinearProgram, *, lower: Iterable[tuple[int, int]] = (),
             start: Basis | tuple[int, ...] = ()) -> LpOutcome:
    """Solve with the built-in revised dual simplex, under the floors ``lower`` and
    from ``start`` (see ``LinearProgram``); an unbounded LP, a stalled dual and
    pivot ``PIVOT_CAP + 1`` raise SolverFailure."""
    n, m = lp.num_vars, len(lp.constraints)
    c = lp.cost[:n]
    k = _floors(n, lower)
    if m == 0:
        if n and c.min() < 0:
            raise SolverFailure(f"simplex found the LP unbounded after 0 pivots on a 0 x {n} LP")
        return LpOutcome(float(c @ k), tuple(k.tolist()))
    rows = lp.compiled
    b = rows.rhs - np.bincount(rows.row, weights=rows.data * k[rows.col], minlength=m)
    state, warm, clamped = _start(lp, start, b)
    feasible, perturbed = _dual(state)
    if not feasible:
        return LpOutcome(pivots=state.pivots, warm=warm)
    if clamped or perturbed:
        state.price(lp.cost)
        _primal(state)
    x = np.zeros(n + m)
    x[state.basis] = state.x
    counts = x[:n]
    np.maximum(counts, 0.0, out=counts)
    counts += k
    return LpOutcome(float(c @ counts), tuple(counts.tolist()), state.pivots, warm,
                     Basis(_read_only(state.basis), _read_only(state.bx[:, :-1]), lp))


def _scipy_backend(lp: LinearProgram, *, lower: Iterable[tuple[int, int]] = (),
                   start: Basis | tuple[int, ...] = ()) -> LpOutcome:
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    c = np.asarray(lp.objective, dtype=float)
    bounds = [(floor, None) for floor in _floors(lp.num_vars, lower)]
    rows = lp.compiled
    a = csr_array((-rows.data, (rows.row, rows.col)), shape=(len(lp.constraints), lp.num_vars))
    res = linprog(c, A_ub=a, b_ub=-rows.rhs, bounds=bounds, method="highs")
    if res.status == 2:
        return LpOutcome()
    if res.status != 0:  # HiGHS's message names an unbounded LP as such
        raise SolverFailure(f"scipy backend failed: {res.message}")
    counts = tuple(float(v) for v in np.maximum(res.x, 0.0))
    return LpOutcome(float(c @ np.asarray(counts)), counts)


BACKENDS: dict[str, Callable[..., LpOutcome]] = {
    "simplex": solve_lp, "scipy": _scipy_backend}


def solve_with(lp: LinearProgram, backend: str, *, lower: Iterable[tuple[int, int]] = (),
               start: Basis | tuple[int, ...] = ()) -> LpOutcome:
    """Solve ``lp`` with the named backend, under the floors ``lower`` and
    from ``start`` (see ``LinearProgram``)."""
    check_name("backend", backend, BACKENDS)
    return BACKENDS[backend](lp, lower=lower, start=start)
