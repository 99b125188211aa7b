"""Minimization linear programs over operator-counting variables.

The built-in solver is one dense dual simplex (float64, tolerance 1e-7) over
the tableau B^-1 [A | -I | b] of the rows A y >= b, compiled once per LP
(``CompiledRows``) and shared by LPs derived with ``dataclasses.replace``.
Floors y >= k are bounds; the substitution y = k + z moves them into b - A k.
A solve starts from ``LinearProgram.start`` when its row count fits -- an
optimal basis of the same rows, as the base LP's is for its h_hc LP -- else
from the all-surplus basis (B^-1 = -I). Negative reduced costs are clamped
to 0, and at the first degenerate dual ratio test each nonbasic reduced cost
gets a fixed perturbation; a perturbed dual that makes 2*(m+n) degenerate
pivots in a row has stalled. If the costs were clamped or perturbed, a
primal phase 2 on the true costs (Bland's rule after 2*(m+n) degenerate
pivots) finishes the solve and detects unboundedness. Optimal outcomes carry
their basis (the basic column of each row and B^-1, read-only).

Alternative solvers plug in through a named backend registry. ``solve_lp``
is registered as ``simplex``; the ``scipy`` (HiGHS) backend reads the same
compiled rows, passes the floors as bounds and ignores starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .constraints import ConstraintSet, LinearConstraint
from .errors import BackendUnavailable, SolverFailure

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
    """An optimal simplex basis: the basic column of each row (j < n is
    Y_j, n + i the surplus of row i) and B^-1 over the columns [A | -I]."""

    columns: tuple[int, ...]
    inverse: np.ndarray  # m x m, read-only


class CompiledRows(NamedTuple):
    """A's nonzeros by row and column, a repeated variable summed, and b."""
    row: np.ndarray
    col: np.ndarray
    data: np.ndarray
    rhs: np.ndarray


def compile_rows(num_vars: int, constraints: Sequence[LinearConstraint]) -> CompiledRows:
    terms = np.fromiter((x for row in constraints for t in row.terms for x in t),
                        dtype=float).reshape(-1, 2)
    rows = np.repeat(np.arange(len(constraints)), [len(row.terms) for row in constraints])
    cols = terms[:, 0].astype(np.intp)
    bad = (cols < 0) | (cols >= num_vars)
    if bad.any():
        raise ValueError(f"constraint references unknown variable {cols[bad.argmax()]}")
    a = np.zeros((len(constraints), num_vars))  # temporary: the compiled form is sparse
    np.add.at(a, (rows, cols), terms[:, 1])
    rows, cols = a.nonzero()
    return CompiledRows(rows, cols, a[rows, cols], np.array([r.rhs for r in constraints], float))


@dataclass(frozen=True)
class LinearProgram:
    """min objective . y  s.t.  constraints (all >=),  y >= 0,  and
    y_v >= floor for each (v, floor) in ``lower``.

    ``start`` is an optimal basis of an LP with the same rows and objective
    but another rhs or other floors; the simplex backend starts from it.
    ``compiled`` caches the rows on first solve, shared by replacing only ``lower``/``start``.
    """

    num_vars: int
    objective: tuple[float, ...]
    constraints: tuple[LinearConstraint, ...]
    lower: tuple[tuple[int, int], ...] = ()
    start: Basis | None = field(default=None, compare=False, repr=False)
    compiled: CompiledRows | None = field(default=None, compare=False, repr=False)

    @staticmethod
    def from_constraints(cset: ConstraintSet, costs: Sequence[float],
                         start: Basis | None = None,
                         lower: Sequence[tuple[int, int]] = ()) -> "LinearProgram":
        if len(costs) != cset.num_actions:
            raise ValueError("cost vector does not match the action table")
        return LinearProgram(num_vars=cset.num_actions,
                             objective=tuple(float(c) for c in costs),
                             constraints=cset.constraints, lower=tuple(lower), start=start)


@dataclass(frozen=True)
class LpOutcome:
    status: str  # optimal | infeasible | unbounded
    value: float | None = None
    counts: tuple[float, ...] | None = None
    pivots: int = field(default=0, compare=False)
    warm: bool = field(default=False, compare=False)  # started from lp.start
    basis: Basis | None = field(default=None, compare=False, repr=False)


def _floors(lp: LinearProgram) -> np.ndarray:
    """The lower bound of every variable: the largest of 0 and its floors."""
    var, floor = np.array(lp.lower, dtype=float).reshape(-1, 2).T
    bad = (var < 0) | (var >= lp.num_vars)
    if bad.any():
        raise ValueError(f"bound references unknown variable {int(var[bad.argmax()])}")
    k = np.zeros(lp.num_vars)
    np.maximum.at(k, var.astype(np.intp), floor)
    return k


def _compiled(lp: LinearProgram) -> CompiledRows:
    if lp.compiled is None:
        object.__setattr__(lp, "compiled", compile_rows(lp.num_vars, lp.constraints))
    return lp.compiled


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    tab -= np.outer(factors, tab[row])
    basis[row] = col


def _limits(m: int, n: int) -> tuple[int, int]:
    """Degenerate pivots before Bland's rule engages in phase 2 or the
    perturbed dual counts as stalled, and the pivot cap, of each phase."""
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


def _optimum(tab: np.ndarray, basis: list[int], c: np.ndarray, k: np.ndarray,
             pivots: int, warm: bool) -> LpOutcome:
    m = len(basis)
    n = len(c)
    x = np.zeros(tab.shape[1] - 1)
    x[basis] = tab[:-1, -1]
    counts = np.maximum(x[:n], 0.0) + k
    # The tableau is B^-1 [A | -I | b], so its surplus block is -B^-1.
    inverse = -tab[:m, n:n + m]
    inverse.setflags(write=False)
    return LpOutcome(OPTIMAL, float(c @ counts), tuple(counts.tolist()), pivots, warm,
                     Basis(tuple(basis), inverse))


def _price(tab: np.ndarray, basis: list[int], cost: np.ndarray) -> None:
    """Write the reduced costs of ``cost`` over the tableau's columns into its last row."""
    m = len(basis)
    tab[-1, :-1] = cost - cost[basis] @ tab[:m, :-1]
    tab[-1, basis] = 0.0
    tab[-1, -1] = 0.0


def _dual(tab: np.ndarray, basis: list[int], m: int, n: int) -> tuple[str, int, bool]:
    """Dual simplex on a tableau whose reduced costs are nonnegative; returns
    the status (optimal or infeasible), the pivot count and whether the costs
    were perturbed.

    Each pivot leaves on the row with the most negative rhs and enters the
    column of the dual ratio test, ties going to the lowest column index. At
    the first degenerate ratio test every nonbasic reduced cost gets its fixed
    perturbation, which breaks the ties that otherwise stall the dual; a run
    of 2*(m+n) degenerate pivots after that raises SolverFailure.
    """
    stall_after, iter_cap = _limits(m, n)
    perturbed = False
    degenerate = 0
    for pivots in range(iter_cap + 1):
        rhs = tab[:m, -1]
        row = int(np.argmin(rhs))
        if rhs[row] >= -EPS:
            return OPTIMAL, pivots, perturbed
        line = tab[row, :-1]
        eligible = np.nonzero(line < -PIVOT_TOL)[0]
        if eligible.size == 0:
            return INFEASIBLE, pivots, perturbed
        if pivots == iter_cap:
            break
        ratios = tab[-1, eligible] / -line[eligible]
        best = ratios.min()
        if best < DEGENERATE_TOL and not perturbed:
            perturbed = True
            # A factor in [1, 2) per column, distinct across columns.
            tab[-1, :-1] += PERTURB * (1.0 + (np.arange(n + m) * _GOLDEN) % 1.0)
            tab[-1, basis] = 0.0
            ratios = tab[-1, eligible] / -line[eligible]
            best = ratios.min()
        col = int(eligible[np.nonzero(ratios <= best + DEGENERATE_TOL)[0][0]])
        _pivot(tab, basis, row, col)
        degenerate = degenerate + 1 if best < DEGENERATE_TOL else 0
        if degenerate >= stall_after:
            raise SolverFailure(f"simplex dual stalled after {pivots + 1} pivots "
                                f"({degenerate} degenerate) on a {m} x {n} LP")
    raise _failure("dual", "hit the iteration limit", iter_cap, m, n)


def solve_lp(lp: LinearProgram) -> LpOutcome:
    """Solve with the built-in dual simplex."""
    n = lp.num_vars
    m = len(lp.constraints)
    c = np.asarray(lp.objective, dtype=float)
    k = _floors(lp)
    if m == 0:
        if n and c.min() < 0:
            return LpOutcome(UNBOUNDED)
        return LpOutcome(OPTIMAL, float(c @ k), tuple(k.tolist()))
    row, col, data, rhs = _compiled(lp)
    a = np.zeros((m, n))
    a[row, col] = data
    b = rhs - np.bincount(row, weights=data * k[col], minlength=m)
    warm = lp.start is not None and len(lp.start.columns) == m
    tab = np.empty((m + 1, n + m + 1))
    if warm:
        basis = list(lp.start.columns)
        inverse = lp.start.inverse
        tab[:m, :n] = inverse @ a
        tab[:m, n:n + m] = -inverse
        tab[:m, -1] = inverse @ b
        tab[:m, basis] = np.eye(m)
    else:
        basis = list(range(n, n + m))  # every surplus basic: B^-1 = -I
        tab[:m, :n] = -a
        tab[:m, n:n + m] = np.eye(m)
        tab[:m, -1] = -b
    cost = np.zeros(n + m)
    cost[:n] = c
    _price(tab, basis, cost)
    clamped = tab[-1, :-1].min() < -EPS
    np.maximum(tab[-1, :-1], 0.0, out=tab[-1, :-1])
    status, pivots, perturbed = _dual(tab, basis, m, n)
    if status == INFEASIBLE:
        return LpOutcome(INFEASIBLE, pivots=pivots, warm=warm)
    if clamped or perturbed:
        _price(tab, basis, cost)
        status, pivots = _run_simplex(tab, basis, "phase 2", pivots, m, n)
        if status == UNBOUNDED:
            return LpOutcome(UNBOUNDED, pivots=pivots, warm=warm)
    return _optimum(tab, basis, c, k, pivots, warm)


_BACKENDS: dict[str, Callable[[LinearProgram], LpOutcome]] = {}


def register_backend(name: str, solver: Callable[[LinearProgram], LpOutcome]) -> None:
    _BACKENDS[name] = solver


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def check_backend(name: str) -> None:
    """Raise ``ValueError`` (an input error) unless ``name`` is a registered backend."""
    if name not in _BACKENDS:
        raise ValueError(f"unknown backend '{name}' (have: {', '.join(available_backends())})")


def solve_with(lp: LinearProgram, backend: str) -> LpOutcome:
    solver = _BACKENDS.get(backend)
    if solver is None:
        raise BackendUnavailable(
            f"no LP backend registered under '{backend}' (have: {', '.join(available_backends())})")
    return solver(lp)


def _scipy_backend(lp: LinearProgram) -> LpOutcome:
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    c = np.asarray(lp.objective, dtype=float)
    bounds = [(floor, None) for floor in _floors(lp)] if lp.lower else (0, None)
    row, col, data, rhs = _compiled(lp)
    a = csr_array((-data, (row, col)), shape=(len(lp.constraints), lp.num_vars))
    res = linprog(c, A_ub=a, b_ub=-rhs, bounds=bounds, method="highs")
    if res.status == 0:
        counts = tuple(float(v) for v in np.maximum(res.x, 0.0))
        return LpOutcome(OPTIMAL, float(c @ np.asarray(counts)), counts)
    if res.status == 2:
        return LpOutcome(INFEASIBLE)
    if res.status == 3:
        return LpOutcome(UNBOUNDED)
    raise SolverFailure(f"scipy backend failed: {res.message}")


register_backend("simplex", solve_lp)
register_backend("scipy", _scipy_backend)
