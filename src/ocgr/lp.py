"""Minimization linear programs over operator-counting variables.

The built-in solver is a dense simplex (float64, feasibility/optimality
tolerance 1e-7, Bland's rule after 2*(m+n) degenerate pivots). Without a
start it runs two primal phases; its optimal outcome carries the basis
(the basic column of each row and B^-1, read-only). An LP given such a
start -- the same rows and objective with another rhs, as when observation
floors are shifted into the rhs -- is rebuilt from it as B^-1 [A | -I | b]:
the basis stays dual feasible when only b changes, so a dual simplex
restarts there and needs few pivots. A start that does not fit (another
row count, or not dual feasible) is ignored and the LP is solved cold.
Alternative solvers plug in through a named backend registry; a scipy
(HiGHS) backend is registered when scipy is importable and ignores starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import util as _importlib_util
from typing import Callable, Sequence

import numpy as np

from .constraints import ConstraintSet, LinearConstraint
from .errors import BackendUnavailable, SolverFailure

EPS = 1e-7
PHASE1_TOL = 1e-6
PIVOT_TOL = 1e-9
DEGENERATE_TOL = 1e-12
ITER_CAP = 2000  # pivots per phase: at most ITER_CAP + ITER_CAP_PER_DIM * (m + n)
ITER_CAP_PER_DIM = 200

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True, eq=False)
class Basis:
    """An optimal simplex basis: the basic column of each row (j < n is
    Y_j, n + i the surplus of row i) and B^-1 over the columns [A | -I]."""

    columns: tuple[int, ...]
    inverse: np.ndarray  # m x m, read-only


@dataclass(frozen=True)
class LinearProgram:
    """min objective . y  s.t.  constraints (all >=),  y >= 0.

    ``start`` is an optimal basis of an LP with the same rows and objective
    but another rhs; the simplex backend warm-starts from it.
    """

    num_vars: int
    objective: tuple[float, ...]
    constraints: tuple[LinearConstraint, ...]
    start: Basis | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def from_constraints(cset: ConstraintSet, costs: Sequence[float],
                         start: Basis | None = None) -> "LinearProgram":
        if len(costs) != cset.num_actions:
            raise ValueError("cost vector does not match the action table")
        return LinearProgram(num_vars=cset.num_actions,
                             objective=tuple(float(c) for c in costs),
                             constraints=cset.constraints, start=start)


@dataclass(frozen=True)
class LpOutcome:
    status: str  # optimal | infeasible | unbounded
    value: float | None = None
    counts: tuple[float, ...] | None = None
    pivots: int = field(default=0, compare=False)
    warm: bool = field(default=False, compare=False)  # dual simplex from a start
    basis: Basis | None = field(default=None, compare=False, repr=False)


def _dense(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
    a = np.zeros((len(lp.constraints), lp.num_vars))
    b = np.zeros(len(lp.constraints))
    for i, row in enumerate(lp.constraints):
        for var, coef in row.terms:
            if not 0 <= var < lp.num_vars:
                raise ValueError(f"constraint references unknown variable {var}")
            a[i, var] += float(coef)
        b[i] = float(row.rhs)
    return a, b


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    basis[row] = col


def _limits(m: int, n: int) -> tuple[int, int]:
    """Degenerate pivots before Bland's rule engages, and the pivot cap, of each phase."""
    return 2 * (m + n), ITER_CAP + ITER_CAP_PER_DIM * (m + n)


def _failure(phase: str, what: str, pivots: int, m: int, n: int) -> SolverFailure:
    return SolverFailure(f"simplex {phase} {what} after {pivots} pivots on a {m} x {n} LP")


def _run_simplex(tab: np.ndarray, basis: list[int], phase: str, pivots: int,
                 m: int, n: int) -> tuple[str, int]:
    """Iterate to optimality on the reduced-cost row of an ``m`` x ``n`` LP's
    tableau; returns the status and the pivot count, counted on from ``pivots``."""
    rows = tab.shape[0] - 1
    bland_after, iter_cap = _limits(m, n)
    degenerate = 0
    bland = False
    for step in range(iter_cap + 1):
        costs = tab[-1, :-1]
        if bland:
            neg = np.nonzero(costs < -EPS)[0]
            if neg.size == 0:
                return OPTIMAL, pivots
            col = int(neg[0])
        else:
            col = int(np.argmin(costs))
            if costs[col] >= -EPS:
                return OPTIMAL, pivots
        column = tab[:rows, col]
        eligible = np.nonzero(column > PIVOT_TOL)[0]
        if eligible.size == 0:
            return UNBOUNDED, pivots
        if step == iter_cap:
            break
        ratios = tab[eligible, -1] / column[eligible]
        best = ratios.min()
        tied = eligible[np.nonzero(ratios <= best + DEGENERATE_TOL)[0]]
        row = int(min(tied, key=lambda r: basis[r]))
        if best < DEGENERATE_TOL:
            degenerate += 1
            if degenerate > bland_after:
                bland = True
        _pivot(tab, basis, row, col)
        pivots += 1
    raise _failure(phase, "hit the iteration limit", pivots, m, n)


def _optimum(tab: np.ndarray, basis: list[int], c: np.ndarray, pivots: int,
             warm: bool = False, optimal_basis: Basis | None = None) -> LpOutcome:
    x = np.zeros(tab.shape[1] - 1)
    x[basis] = tab[:-1, -1]
    counts = np.maximum(x[:len(c)], 0.0)
    return LpOutcome(OPTIMAL, float(c @ counts), tuple(counts.tolist()), pivots, warm,
                     optimal_basis)


def _primal(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> LpOutcome:
    """Cold two-phase solve; the outcome carries its optimal basis unless
    phase 1 dropped redundant rows."""
    m, n = a.shape
    art_rows = [i for i in range(m) if b[i] > 0]
    n_art = len(art_rows)
    total = n + m + n_art
    tab = np.zeros((m + 1, total + 1))
    basis: list[int] = [0] * m
    art_col = {}
    for j, i in enumerate(art_rows):
        art_col[i] = n + m + j
    for i in range(m):
        if b[i] > 0:
            # a.y - surplus + artificial = b
            tab[i, :n] = a[i]
            tab[i, n + i] = -1.0
            tab[i, art_col[i]] = 1.0
            tab[i, -1] = b[i]
            basis[i] = art_col[i]
        else:
            # -a.y + slack = -b
            tab[i, :n] = -a[i]
            tab[i, n + i] = 1.0
            tab[i, -1] = -b[i]
            basis[i] = n + i

    pivots = 0
    drop_rows: list[int] = []
    if n_art:
        for j in art_col.values():
            tab[-1, j] = 1.0
        for i in art_rows:
            tab[-1] -= tab[i]
        status, pivots = _run_simplex(tab, basis, "phase 1", pivots, m, n)
        if status != OPTIMAL:
            raise _failure("phase 1", "ended " + status, pivots, m, n)
        if -tab[-1, -1] > PHASE1_TOL:
            return LpOutcome(INFEASIBLE, pivots=pivots)
        art_set = set(art_col.values())
        for i in range(m):
            if basis[i] in art_set:
                nonzero = np.nonzero(np.abs(tab[i, : n + m]) > PIVOT_TOL)[0]
                if nonzero.size:
                    _pivot(tab, basis, i, int(nonzero[0]))
                    pivots += 1
                else:
                    drop_rows.append(i)  # redundant constraint
        keep_rows = [i for i in range(m) if i not in drop_rows] + [m]
        keep_cols = list(range(n + m)) + [total]
        tab = tab[np.ix_(keep_rows, keep_cols)]
        basis = [basis[i] for i in range(m) if i not in drop_rows]

    tab[-1, :] = 0.0
    tab[-1, :n] = c
    for i in range(len(basis)):
        if tab[-1, basis[i]] != 0.0:
            tab[-1] -= tab[-1, basis[i]] * tab[i]
    status, pivots = _run_simplex(tab, basis, "phase 2", pivots, m, n)
    if status == UNBOUNDED:
        return LpOutcome(UNBOUNDED, pivots=pivots)
    if drop_rows:
        return _optimum(tab, basis, c, pivots)
    # The tableau is B^-1 [A | -I | b], so its surplus block is -B^-1.
    inverse = -tab[:m, n:n + m]
    inverse.setflags(write=False)
    return _optimum(tab, basis, c, pivots, optimal_basis=Basis(tuple(basis), inverse))


def _dual(a: np.ndarray, b: np.ndarray, c: np.ndarray, start: Basis) -> LpOutcome | None:
    """Dual simplex from ``start``, an optimal basis of an LP with the same
    ``a`` and ``c``; None when that basis is not dual feasible here.

    The tableau is rebuilt as B^-1 [A | -I | b]. Each pivot leaves on the
    row with the most negative rhs (the lowest basic column once Bland's rule
    engages) and enters the column of the dual ratio test, ties going to the
    lowest column index.
    """
    m, n = a.shape
    basis = list(start.columns)
    tab = np.empty((m + 1, n + m + 1))
    tab[:m, :n] = start.inverse @ a
    tab[:m, n:n + m] = -start.inverse
    tab[:m, -1] = start.inverse @ b
    tab[:m, basis] = np.eye(m)
    cost = np.zeros(n + m)
    cost[:n] = c
    tab[-1, :-1] = cost - cost[basis] @ tab[:m, :-1]
    tab[-1, basis] = 0.0
    tab[-1, -1] = -(cost[basis] @ tab[:m, -1])
    if tab[-1, :-1].min() < -EPS:
        return None
    bland_after, iter_cap = _limits(m, n)
    degenerate = 0
    bland = False
    for pivots in range(iter_cap + 1):
        rhs = tab[:m, -1]
        if bland:
            neg = np.nonzero(rhs < -EPS)[0]
            if neg.size == 0:
                return _optimum(tab, basis, c, pivots, warm=True)
            row = int(min(neg, key=lambda r: basis[r]))
        else:
            row = int(np.argmin(rhs))
            if rhs[row] >= -EPS:
                return _optimum(tab, basis, c, pivots, warm=True)
        line = tab[row, :-1]
        eligible = np.nonzero(line < -PIVOT_TOL)[0]
        if eligible.size == 0:
            return LpOutcome(INFEASIBLE, pivots=pivots, warm=True)
        if pivots == iter_cap:
            break
        ratios = tab[-1, eligible] / -line[eligible]
        best = ratios.min()
        col = int(eligible[np.nonzero(ratios <= best + DEGENERATE_TOL)[0][0]])
        if best < DEGENERATE_TOL:
            degenerate += 1
            if degenerate > bland_after:
                bland = True
        _pivot(tab, basis, row, col)
    raise _failure("dual", "hit the iteration limit", iter_cap, m, n)


def _solve_simplex(lp: LinearProgram) -> LpOutcome:
    n = lp.num_vars
    m = len(lp.constraints)
    c = np.asarray(lp.objective, dtype=float)
    if m == 0:
        if n and c.min() < 0:
            return LpOutcome(UNBOUNDED)
        return LpOutcome(OPTIMAL, 0.0, (0.0,) * n)
    a, b = _dense(lp)
    if lp.start is not None and len(lp.start.columns) == m:
        out = _dual(a, b, c, lp.start)
        if out is not None:
            return out
    return _primal(a, b, c)


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve with the built-in simplex."""
    return _solve_simplex(lp)


_BACKENDS: dict[str, Callable[[LinearProgram], LpOutcome]] = {}


def register_backend(name: str, solver: Callable[[LinearProgram], LpOutcome]) -> None:
    _BACKENDS[name] = solver


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def solve_with(lp: LinearProgram, backend: str) -> LpOutcome:
    solver = _BACKENDS.get(backend)
    if solver is None:
        raise BackendUnavailable(
            f"no LP backend registered under '{backend}' (have: {', '.join(available_backends())})")
    return solver(lp)


def _scipy_backend(lp: LinearProgram) -> LpOutcome:
    from scipy.optimize import linprog

    c = np.asarray(lp.objective, dtype=float)
    if lp.constraints:
        a, b = _dense(lp)
        res = linprog(c, A_ub=-a, b_ub=-b, bounds=(0, None), method="highs")
    else:
        res = linprog(c, bounds=(0, None), method="highs")
    if res.status == 0:
        counts = tuple(float(v) for v in np.maximum(res.x, 0.0))
        return LpOutcome(OPTIMAL, float(c @ np.asarray(counts)), counts)
    if res.status == 2:
        return LpOutcome(INFEASIBLE)
    if res.status == 3:
        return LpOutcome(UNBOUNDED)
    raise SolverFailure(f"scipy backend failed: {res.message}")


register_backend("simplex", _solve_simplex)
if _importlib_util.find_spec("scipy") is not None:
    register_backend("scipy", _scipy_backend)
