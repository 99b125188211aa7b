import functools
import hashlib
import inspect
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from conftest import make_micro_task, open_grid_bundle, plan_counts
from ocgr import lp as lp_mod
from ocgr.bench import SuiteSpec, generated_problems
from ocgr.constraints import LinearConstraint, base_constraints, relaxed_plan
from ocgr.errors import CapExceeded, GoalUnreachable, SolverFailure
from ocgr.inputs import ObservationSequence, bundle_from_texts
from ocgr.lp import Basis, LinearProgram, compile_rows, solve_lp, solve_with
from ocgr.recognition import recognize
from references import enumerate_plans, reference_landmark_constraints


def _lp(num_vars, objective, rows):
    constraints = tuple(LinearConstraint(tuple(t), rhs, "observation") for t, rhs in rows)
    return LinearProgram(num_vars, tuple(float(c) for c in objective), constraints)


def test_single_binding_constraint():
    out = solve_lp(_lp(1, [1], [([(0, 1)], 3)]))
    assert out.status == "optimal"
    assert abs(out.value - 3.0) <= 1e-9
    assert abs(out.counts[0] - 3.0) <= 1e-9


def test_contradictory_bounds_infeasible():
    out = solve_lp(_lp(1, [1], [([(0, 1)], 1), ([(0, -1)], 0)]))
    assert out.status == "infeasible"
    assert out.value is None and out.counts is None


def test_two_variable_optimum():
    # independent check: scipy agrees (and by hand, the sum row binds at 2)
    lp = _lp(2, [1, 1], [([(0, 1), (1, 1)], 2), ([(0, 1), (1, -1)], 0)])
    ours = solve_lp(lp)
    ref = solve_with(lp, "scipy")
    assert ours.status == ref.status == "optimal"
    assert abs(ours.value - 2.0) <= 1e-9
    assert abs(ours.value - ref.value) <= 1e-6


def test_empty_lp():
    for backend in ("simplex", "scipy"):
        out = solve_with(_lp(2, [1, 1], []), backend)
        assert out.status == "optimal" and out.value == 0.0 and out.counts == (0.0, 0.0)


def test_unbounded():
    out = solve_lp(_lp(1, [-1], [([(0, 1)], 1)]))
    assert out.status == "unbounded"


def test_degenerate_redundant_rows():
    rows = [([(0, 1)], 2), ([(0, 1)], 2), ([(0, 2)], 4), ([(0, 1), (1, 1)], 2)]
    out = solve_lp(_lp(2, [1, 0], rows))
    assert out.status == "optimal"
    assert abs(out.value - 2.0) <= 1e-9


def test_determinism_bitwise():
    lp = _lp(3, [1, 2, 0.5], [([(0, 1), (2, 1)], 4), ([(1, 1), (2, -1)], 1),
                              ([(0, -1), (1, 3)], 0)])
    a, b = solve_lp(lp), solve_lp(lp)
    assert a.status == b.status
    assert a.value == b.value  # bitwise identical floats
    assert a.counts == b.counts


def test_counts_respect_constraints():
    lp = _lp(2, [1, 1], [([(0, 1), (1, 1)], 2), ([(0, 1), (1, -1)], 0)])
    out = solve_lp(lp)
    for row in lp.constraints:
        assert sum(c * out.counts[v] for v, c in row.terms) >= float(row.rhs) - 1e-7
    assert min(out.counts) >= -1e-7


def test_backend_unavailable():
    with pytest.raises(ValueError) as err:
        solve_with(_lp(1, [1], []), "no-such-backend")
    assert str(err.value) == "unknown backend 'no-such-backend' (have: scipy, simplex)"


def test_backend_registry_roundtrip(monkeypatch):
    calls = []

    def fake(lp, **solve):
        calls.append(lp)
        return solve_lp(lp, **solve)

    monkeypatch.setitem(lp_mod.BACKENDS, "fake-test", fake)
    out = solve_with(_lp(1, [1], [([(0, 1)], 1)]), "fake-test")
    assert out.status == "optimal" and len(calls) == 1


def test_weak_duality_against_plan_counts():
    """Any oracle plan's count vector is feasible, so its cost bounds the LP."""
    rng = random.Random(99)
    checked = 0
    while checked < 15:
        task = make_micro_task(rng)
        try:
            plans = enumerate_plans(task, task.goal, max_len=6, node_cap=80_000)
        except CapExceeded:
            continue
        if not plans:
            continue
        try:
            cset = base_constraints(task, task.goal)
        except GoalUnreachable:
            continue
        out = solve_lp(LinearProgram.from_constraints(cset, task.costs))
        assert out.status == "optimal"
        for plan in plans[:50]:
            counts = plan_counts(task, plan.steps)
            cost = sum(c * k for c, k in zip(task.costs, counts))
            assert cost >= out.value - 1e-6
        checked += 1


def test_cross_backend_agreement_sample():
    rng = random.Random(3)
    agreements = 0
    for _ in range(60):
        task = make_micro_task(rng)
        try:
            cset = base_constraints(task, task.goal)
        except GoalUnreachable:
            continue
        lp = LinearProgram.from_constraints(cset, task.costs)
        ours, ref = solve_lp(lp), solve_with(lp, "scipy")
        assert ours.status == ref.status
        if ours.status == "optimal":
            assert abs(ours.value - ref.value) <= 1e-6
        agreements += 1
    assert agreements >= 40


def test_iteration_limit_names_phase_pivots_and_size(monkeypatch):
    monkeypatch.setattr(lp_mod, "ITER_CAP", 1)
    monkeypatch.setattr(lp_mod, "ITER_CAP_PER_DIM", 0)
    floors = _lp(2, [1, 1], [([(0, 1)], 1), ([(1, 1)], 1)])
    ceilings = _lp(2, [-1, -1], [([(0, -1)], -5), ([(1, -1)], -5)])
    for prog, phase in ((ceilings, "phase 2"), (floors, "dual")):
        with pytest.raises(SolverFailure) as err:
            solve_lp(prog)
        assert str(err.value) == (f"simplex {phase} hit the iteration limit after 1 pivots "
                                  "on a 2 x 2 LP")


def test_stalled_dual_names_pivots_and_degenerate_run(monkeypatch):
    # Zero costs make every dual ratio 0; without the perturbation nothing breaks the tie.
    monkeypatch.setattr(lp_mod, "PERTURB", 0.0)
    monkeypatch.setattr(lp_mod, "_limits", lambda m, n: (2, 1000))
    lp = _lp(3, [0, 0, 0], [([(0, 1), (1, 1)], 1), ([(1, 1), (2, 1)], 1)])
    with pytest.raises(SolverFailure) as err:
        solve_lp(lp)
    assert str(err.value) == "simplex dual stalled after 2 pivots (2 degenerate) on a 2 x 3 LP"


def test_floors_are_bounds():
    rows = [([(0, 1), (1, 1)], 2), ([(0, 1), (1, -1)], 0)]
    bounded, lower = _lp(2, [1, 3], rows), ((1, 1), (0, 0), (1, -4))
    floored = _lp(2, [1, 3], rows + [([(1, 1)], 1)])
    for backend in ("simplex", "scipy"):
        out = solve_with(bounded, backend, lower=lower)
        assert out.status == "optimal"
        assert abs(out.value - solve_lp(floored).value) <= 1e-9
        assert abs(out.value - 4.0) <= 1e-9 and out.counts[1] >= 1 - 1e-9
    for var in (2, -1, 1.5):
        for backend in ("simplex", "scipy"):
            with pytest.raises(ValueError) as err:
                solve_with(bounded, backend, lower=((0, 1), (var, 2)))
            assert str(err.value) == f"bound references unknown variable {var}"


def _reduced_costs(lp, basis):
    a, _ = _dense_reference(lp)
    cost = np.concatenate([np.asarray(lp.objective), np.zeros(len(a))])
    columns = basis.inverse @ np.hstack([a, -np.eye(len(a))])
    return cost - cost[list(basis.columns)] @ columns


def _hash_outcome(h, out):
    """Feed ``out``'s status, pivots, start, value, basis columns and counts to
    ``h``, bit for bit."""
    value = "-" if out.value is None else out.value.hex()
    columns = out.basis.columns if out.basis is not None else ()
    h.update(f"{out.status} {out.pivots} {out.warm} {value} {columns}\n".encode())
    h.update(np.array(out.counts or (), dtype=float).tobytes())


def test_start_that_is_not_dual_feasible_still_reaches_the_optimum(monkeypatch):
    """A start optimal under other costs is clamped, then priced again. Nine
    of these solves pivot in the primal phase 2, which no solve in
    ``test_simplex_outcomes_are_pinned`` does, so every outcome here is
    pinned bit for bit too."""
    real, phase_two = lp_mod._primal, []

    def primal(state, pivots, m, n):
        status, after = real(state, pivots, m, n)
        phase_two.append(after - pivots)
        return status, after

    monkeypatch.setattr(lp_mod, "_primal", primal)
    h = hashlib.sha256()
    rng = random.Random(5)
    spec = SuiteSpec(families=("grid", "blocks", "logistics", "corridor"), per_family=2,
                     seed=3, observability=(100,))
    infeasible_starts = 0
    for problem in generated_problems(spec):
        task = problem.task
        for goal in problem.hyps.goals:
            try:
                cset = base_constraints(task, goal)
            except GoalUnreachable:
                continue
            other_costs = [rng.choice((0, 1, 20)) for _ in task.costs]
            other = solve_lp(LinearProgram.from_constraints(cset, other_costs))
            lp = LinearProgram.from_constraints(cset, task.costs)
            ours, ref = solve_lp(lp, start=other.basis), solve_with(lp, "scipy", start=other.basis)
            assert ours.warm and ours.status == ref.status == "optimal"
            assert abs(ours.value - ref.value) <= 1e-6
            infeasible_starts += _reduced_costs(lp, other.basis).min() < -1e-7
            _hash_outcome(h, other)
            _hash_outcome(h, ours)
    assert infeasible_starts >= 5
    assert (sum(p > 0 for p in phase_two), sum(phase_two)) == (9, 34)
    assert h.hexdigest() == \
        "4ebd6c39114b5649648ab90eec7abc062e1ef62a9dcb24577847a74db9489fba"


def test_blands_rule_in_phase_two_reaches_the_highs_optima(monkeypatch):
    """The warm starts of the test above, with Bland's rule engaged in phase 2
    from its first degenerate pivot (the dual's stall limit as it is): every
    solve still ends where HiGHS does, and the Bland branch of ``_primal``
    runs."""
    real_primal, real_limits = lp_mod._primal, lp_mod._limits
    source, first = inspect.getsourcelines(real_primal)
    bland_line = first + next(i for i, line in enumerate(source) if "neg = " in line)
    bland_steps = []

    def trace(frame, event, arg):
        if frame.f_code is not real_primal.__code__:
            return None
        if event == "line" and frame.f_lineno == bland_line:
            bland_steps.append(frame.f_lineno)
        return trace

    def primal(state, pivots, m, n):
        monkeypatch.setattr(lp_mod, "_limits", lambda m, n: (0, real_limits(m, n)[1]))
        outer = sys.gettrace()
        sys.settrace(trace)
        try:
            return real_primal(state, pivots, m, n)
        finally:
            sys.settrace(outer)
            monkeypatch.setattr(lp_mod, "_limits", real_limits)

    monkeypatch.setattr(lp_mod, "_primal", primal)
    rng = random.Random(5)
    spec = SuiteSpec(families=("grid", "blocks", "logistics", "corridor"), per_family=2,
                     seed=3, observability=(100,))
    for problem in generated_problems(spec):
        task = problem.task
        for goal in problem.hyps.goals:
            try:
                cset = base_constraints(task, goal)
            except GoalUnreachable:
                continue
            other_costs = [rng.choice((0, 1, 20)) for _ in task.costs]
            other = solve_lp(LinearProgram.from_constraints(cset, other_costs))
            lp = LinearProgram.from_constraints(cset, task.costs)
            ours, ref = solve_lp(lp, start=other.basis), solve_with(lp, "scipy", start=other.basis)
            assert ours.warm and ours.status == ref.status == "optimal"
            assert abs(ours.value - ref.value) <= 1e-6
    assert bland_steps


def test_a_basis_starts_only_an_lp_over_its_own_rows():
    """A basis records the LP it is a basis of. A start over equal rows is
    warm; one over other rows, of the same count or not, is a ValueError
    rather than a silent cold start or a wrong optimum."""
    rows = [([(0, 1), (1, 1)], 2), ([(0, 1)], 1)]
    base = _lp(2, [1, 2], rows)
    basis = solve_lp(base).basis
    assert basis.lp is base
    assert solve_lp(_lp(2, [1, 2], rows), start=basis).warm
    for other in (_lp(2, [1, 2], [([(0, 1), (1, 1)], 2), ([(1, 1)], 1)]),
                  _lp(2, [1, 2], rows[:1])):
        with pytest.raises(ValueError, match="basis of other rows"):
            solve_lp(other, start=basis)


def _warm_state(lp, lower, start):
    """The priced state, and the costs, a solve of ``lp`` under ``lower``
    starts from when ``start`` is a basis, built as ``solve_lp`` builds them."""
    rows, k = lp.compiled, lp_mod._floors(lp.num_vars, lower)
    b = rows.rhs - np.bincount(rows.row, weights=rows.data * k[rows.col], minlength=len(rows.rhs))
    cost = np.zeros(lp.num_vars + len(b))
    cost[:lp.num_vars] = lp.objective
    state, warm = lp_mod._start(lp, start, b, cost)
    assert warm
    return state, cost


def _fresh_price(lp, basis, cost):
    bx = np.zeros((len(basis.columns), len(basis.columns) + 1))
    bx[:, :-1] = basis.inverse
    state = lp_mod._Revised(lp.compiled, lp.num_vars, np.array(basis.columns), bx)
    state.price(cost)
    return state.d


def test_warm_starts_copy_the_first_pricing_bit_for_bit():
    """Warm starts of a basis's own LP, whatever their floors, start from its
    first pricing, bit for bit a fresh ``_Revised.price``; another objective
    prices again. An outcome's B^-1 and the kept reduced costs are read-only."""
    b = bundle_from_texts(open_grid_bundle(10), require_obs=False)
    task = b.task
    for goal in b.hyps.goals:
        base = LinearProgram.from_constraints(base_constraints(task, goal), task.costs)
        basis = solve_lp(base).basis
        assert basis.priced is None and not basis.inverse.flags.writeable
        with pytest.raises(ValueError):
            basis.inverse[0, 0] = 1.0
        doubled = replace(base, objective=tuple(2.0 * c for c in base.objective))
        for lp, lower in [(base, floors) for floors in ((), ((0, 1),), ((3, 2), (5, 1)))] + [
                (doubled, ())]:
            state, cost = _warm_state(lp, lower, basis)
            assert state.d.tobytes() == _fresh_price(lp, basis, cost).tobytes()
            d = basis.priced
            assert basis.lp is base and (state.d.tobytes() == d.tobytes()) == (lp is base)
            assert state.d is not d and not d.flags.writeable
            alone = Basis(basis.columns, basis.inverse, basis.lp)
            assert solve_lp(lp, lower=lower, start=basis) == solve_lp(lp, lower=lower, start=alone)


def _dense_reference(lp):
    """A and b of ``lp``, built term by term."""
    a = np.zeros((len(lp.constraints), lp.num_vars))
    b = np.zeros(len(lp.constraints))
    for i, row in enumerate(lp.constraints):
        for var, coef in row.terms:
            if not (0 <= var < lp.num_vars and var == int(var)):
                raise ValueError(f"constraint references unknown variable {var}")
            a[i, int(var)] = float(coef)
        b[i] = float(row.rhs)
    return a, b


def test_compiled_rows_scatter_back_to_the_dense_rows():
    spec = SuiteSpec(families=("grid", "blocks", "logistics", "corridor"), per_family=2,
                     seed=4, observability=(100,))
    tasks = [(p.task, p.hyps) for p in generated_problems(spec)]
    grid = bundle_from_texts(open_grid_bundle(8), require_obs=False)
    tasks.append((grid.task, grid.hyps))
    lps = [_lp(4, [1, 1, 1, 1], [([(0, 3)], 3), ([(1, 1), (2, -1)], 1),
                                 ([(1, 2), (3, -2)], 0), ([], -1), ([(2, 1)], 0)])]
    for task, hyps in tasks:
        for goal in hyps.goals:
            try:
                lps.append(LinearProgram.from_constraints(base_constraints(task, goal),
                                                          task.costs))
            except GoalUnreachable:
                pass
    assert len(lps) > 20
    for lp in lps:
        rows = compile_rows(lp.num_vars, lp.constraints)
        ref_a, ref_b = _dense_reference(lp)
        # A's nonzeros in row-major order, and again in column-major order
        ref_row, ref_col = ref_a.nonzero()
        assert rows.row.tolist() == ref_row.tolist() and rows.col.tolist() == ref_col.tolist()
        assert rows.data.tobytes() == ref_a[ref_row, ref_col].tobytes()
        assert rows.rhs.tobytes() == ref_b.tobytes()
        by_col, by_col_row = ref_a.T.nonzero()
        assert rows.col_rows.tolist() == by_col_row.tolist()
        assert rows.col_data.tobytes() == ref_a[by_col_row, by_col].tobytes()
        assert rows.col_start.tolist() == by_col.searchsorted(np.arange(lp.num_vars + 1)).tolist()
    # the hand LP's terms as written, the empty row storing none
    rows = compile_rows(4, lps[0].constraints)
    assert (rows.row.tolist(), rows.col.tolist(), rows.data.tolist()) == (
        [0, 1, 1, 2, 2, 4], [0, 1, 2, 1, 3, 2], [3.0, 1.0, -1.0, 2.0, -2.0, 1.0])
    assert (rows.col_rows.tolist(), rows.col_start.tolist()) == ([0, 1, 2, 1, 4, 2],
                                                                 [0, 1, 3, 5, 6])


@pytest.mark.parametrize("backend", ["simplex", "scipy"])
def test_replace_with_other_rows_or_columns_compiles_them(backend):
    """An LP that ``dataclasses.replace`` gives other rows, or another number
    of variables, is solved over those, not over the rows compiled for the LP
    it was made from; a solve under other floors keeps the compiled arrays."""
    a = _lp(2, [1, 1], [([(1, 1)], 1)])
    assert solve_with(a, backend).value == 1.0
    fresh = _lp(2, [1, 1], [([(1, 1)], 5)])
    assert solve_with(replace(a, constraints=fresh.constraints), backend).value == 5.0
    with pytest.raises(ValueError, match="unknown variable 1"):
        solve_with(replace(a, num_vars=1, objective=(1.0,)), backend)
    compiled = a.compiled
    assert solve_with(a, backend, lower=((1, 3),)).value == 3.0 and a.compiled is compiled


@pytest.mark.parametrize("terms", [[(1, 1), (1, 2)], [(2, 1), (0, 1)], [(0, 1), (1, 0)]],
                         ids=["repeated", "out-of-order", "zero"])
def test_non_canonical_row_is_rejected_by_both_backends(terms):
    """A row that repeats a variable, lists two out of order or has a zero
    coefficient is named by its index; the rows around it are canonical."""
    lp = _lp(3, [1, 1, 1], [([(0, 1), (2, 1)], 1), (terms, 1), ([(0, 1)], 0)])
    for backend in ("simplex", "scipy"):
        with pytest.raises(ValueError) as err:
            solve_with(lp, backend)
        assert str(err.value) == ("constraint row 1 repeats a variable, lists its variables "
                                  "out of increasing order or has a zero coefficient")


def _assert_basis_holds(lp, out, lower=()):
    """B^-1 inverts the basic columns of [A | -I], the counts meet the rows and
    the floors, and no reduced cost under the true costs is negative: the basis
    certifies that the counts are optimal, not only feasible."""
    a, b = _dense_reference(lp)
    m = len(a)
    basic = np.hstack([a, -np.eye(m)])[:, list(out.basis.columns)]
    assert np.abs(out.basis.inverse @ basic - np.eye(m)).max() <= 1e-8
    counts = np.array(out.counts)
    assert (a @ counts >= b - 1e-9).all()
    assert all(counts[v] >= floor - 1e-9 for v, floor in lower)
    assert _reduced_costs(lp, out.basis).min() >= -1e-7


def _open_grid_lps(n):
    """Each goal's base LP on the open n x n grid, and the floors of
    observing every other walk along the bottom row."""
    b = bundle_from_texts(open_grid_bundle(n), require_obs=False)
    task = b.task
    walks = [task.action_index[f"walk c{x}_0 c{x + 1}_0"] for x in range(0, n - 1, 2)]
    lower = tuple(sorted(Counter(walks).items()))
    return [(LinearProgram.from_constraints(base_constraints(task, g), task.costs), lower)
            for g in b.hyps.goals]


@pytest.mark.parametrize("n", [12, 18])
def test_simplex_matches_highs_on_open_grids(n):
    """Base and h_hc LPs past toy size: the simplex agrees with HiGHS, and a
    warm h_hc solve takes fewer pivots than a cold solve of the same LP."""
    warm_pivots = 0
    for base, lower in _open_grid_lps(n):
        out, ref = solve_lp(base), solve_with(base, "scipy")
        assert out.status == ref.status == "optimal" and not out.warm
        assert abs(out.value - ref.value) <= 1e-6
        _assert_basis_holds(base, out)
        warm, cold = solve_lp(base, lower=lower, start=out.basis), solve_lp(base, lower=lower)
        ref = solve_with(base, "scipy", lower=lower)
        assert warm.status == cold.status == ref.status == "optimal"
        assert warm.warm and not cold.warm and warm.pivots < cold.pivots
        assert abs(warm.value - ref.value) <= 1e-6 and abs(cold.value - ref.value) <= 1e-6
        _assert_basis_holds(base, warm, lower)
        warm_pivots += warm.pivots
    assert warm_pivots > 0


def test_simplex_matches_highs_on_the_open_24_grid():
    """Each goal's cold base LP and warm and cold h_hc LPs on the open 24 x 24
    grid agree with HiGHS and end on an optimal basis. Pivot counts are not
    compared: here a warm h_hc solve can take more pivots than a cold one."""
    for base, lower in _open_grid_lps(24):
        out = solve_lp(base)
        warm, cold = solve_lp(base, lower=lower, start=out.basis), solve_lp(base, lower=lower)
        hc_ref = solve_with(base, "scipy", lower=lower)
        assert warm.warm and not cold.warm
        for floors, ours, ref in (((), out, solve_with(base, "scipy")), (lower, warm, hc_ref),
                                  (lower, cold, hc_ref)):
            assert ours.status == ref.status == "optimal"
            assert abs(ours.value - ref.value) <= 1e-6
            _assert_basis_holds(base, ours, floors)


def test_every_returned_basis_inverts_its_columns(monkeypatch):
    """Every optimal basis that scoring the suite and the open 8-12 grids
    returns: a drifting rank-1 update of B^-1 would show here."""
    import ocgr.recognition as rec

    solved = []

    def spy(lp, backend, *, lower=(), start=None):
        solved.append((lp, lower, solve_with(lp, backend, lower=lower, start=start)))
        return solved[-1][2]

    monkeypatch.setattr(rec, "solve_with", spy)
    spec = SuiteSpec(families=("grid", "blocks", "logistics", "corridor"), per_family=2,
                     seed=7, observability=(30, 70, 100))
    for p in generated_problems(spec):
        recognize(p.task, p.hyps, p.obs)
    for n in (8, 10, 12):
        bundle = bundle_from_texts(open_grid_bundle(n), require_obs=False)
        walks = [bundle.task.action_index[f"walk c0_{y} c0_{y + 1}"] for y in range(n // 2)]
        recognize(bundle.task, bundle.hyps, ObservationSequence(tuple(walks)))
    optimal = [(lp, lower, out) for lp, lower, out in solved if out.status == "optimal"]
    assert len(optimal) > 100 and any(lp.num_vars > 500 for lp, _, _ in optimal)
    for lp, lower, out in optimal:
        _assert_basis_holds(lp, out, lower)


def test_simplex_outcomes_are_pinned(monkeypatch):
    """Every LP scoring solves on a small generated suite (seeds 1-2, three
    tasks per family, levels 30/70/100) and on the open 8 x 8 and 10 x 10 grids with
    walks observed: status, pivots, start, value, counts and basis, bit for bit."""
    import ocgr.recognition as rec

    h = hashlib.sha256()
    solves = 0

    def spy(lp, backend, **solve):
        nonlocal solves
        out = solve_with(lp, backend, **solve)
        _hash_outcome(h, out)
        solves += 1
        return out

    monkeypatch.setattr(rec, "solve_with", spy)
    for seed in (1, 2):
        spec = SuiteSpec(families=("grid", "blocks", "logistics", "corridor"), per_family=3,
                         seed=seed, observability=(30, 70, 100))
        for p in generated_problems(spec):
            recognize(p.task, p.hyps, p.obs)
    for n in (8, 10):
        bundle = bundle_from_texts(open_grid_bundle(n), require_obs=False)
        walks = [bundle.task.action_index[f"walk c{x}_0 c{x + 1}_0"] for x in range(n // 2)]
        recognize(bundle.task, bundle.hyps, ObservationSequence(tuple(walks)))
    assert solves > 300
    assert h.hexdigest() == \
        "e0c71dbaa8a0be975e3cc2259f219f2684e1c2b8766301bcc3cc499bb8c18caa"


def test_recognition_starts_every_simplex_solve_dual_feasible(monkeypatch):
    """Every start recognition gives the simplex, each base LP's landmark
    crash and each h_hc LP's warm basis, prices no reduced cost below -EPS,
    so none is clamped: on the four families (seeds 1-3) and the open 8-12
    grids, at several prefixes of the observations."""
    starts = []
    real = lp_mod._start

    def spy(lp, start, b, cost):
        state, warm = real(lp, start, b, cost)
        starts.append((warm, float(state.d.min())))
        return state, warm

    monkeypatch.setattr(lp_mod, "_start", spy)
    for seed in (1, 2, 3):
        spec = SuiteSpec(families=("grid", "blocks", "logistics", "corridor"), per_family=1,
                         seed=seed, observability=(10, 30, 50, 70, 100))
        for p in generated_problems(spec):
            for k in sorted({0, len(p.obs) // 2, len(p.obs)}):
                recognize(p.task, p.hyps, ObservationSequence(p.obs.obs[:k]))
    for n in (8, 10, 12):
        bundle = bundle_from_texts(open_grid_bundle(n), require_obs=False)
        walks = [bundle.task.action_index[f"walk c0_{y} c0_{y + 1}"] for y in range(n - 1)]
        for k in range(0, n, 3):
            recognize(bundle.task, bundle.hyps, ObservationSequence(tuple(walks[:k])))
    assert sum(warm for warm, _ in starts) > 500 and sum(not warm for warm, _ in starts) > 40
    assert min(d for _, d in starts) >= -lp_mod.EPS


class _BaseCase(NamedTuple):
    lp: LinearProgram
    minima: tuple[int, ...]  # the cut minimum of each landmark row
    plan: frozenset[int]  # the goal's relaxed plan
    open_grid: bool


@functools.lru_cache(maxsize=1)
def _base_lps_with_cut_minima():
    """The base LP of every goal of the four families (seeds 1-3), of the open
    8-18 grids and of 300 seeded micro tasks (some actions cost 0), each with
    the cut minima of its landmark rows from the full-pass LM-cut reference
    and the goal's relaxed plan."""
    cases = []
    for seed in (1, 2, 3):
        spec = SuiteSpec(families=("grid", "blocks", "logistics", "corridor"), per_family=1,
                         seed=seed, observability=(100,))
        cases += [(p.task, g, False) for p in generated_problems(spec) for g in p.hyps.goals]
    for n in range(8, 19, 2):
        b = bundle_from_texts(open_grid_bundle(n), require_obs=False)
        cases += [(b.task, g, True) for g in b.hyps.goals]
    rng = random.Random(41)
    for _ in range(300):
        task = make_micro_task(rng, rng.randint(3, 10), rng.randint(2, 12), rng.randint(1, 6))
        task = replace(task, actions=tuple(replace(a, cost=rng.choice((0, 1, 1, 2, 5)))
                                           for a in task.actions))
        cases.append((task, task.goal, False))
    out = []
    for task, goal, open_grid in cases:
        try:
            rows = base_constraints(task, goal)
        except GoalUnreachable:
            continue
        minima = []
        reference_landmark_constraints(task, goal, minima)
        if rows:
            out.append(_BaseCase(LinearProgram.from_constraints(rows, task.costs),
                                 tuple(minima), relaxed_plan(task, goal), open_grid))
    return out


def _crash_of(lp):
    return tuple(row.zeroed for row in lp.constraints if row.zeroed is not None)


def test_landmark_crash_starts_dual_feasible_at_the_cut_minima():
    """The crash basis of every base LP: distinct columns and a unit upper
    triangular landmark block; its B^-1 inverts the basic columns; priced, every
    reduced cost is >= 0 and the duals are the rows' cut minima, so the dual
    simplex starts at h_LM-cut."""
    off_diagonal = 0
    for lp, minima, _, _ in _base_lps_with_cut_minima():
        crash = _crash_of(lp)
        size = len(crash)
        assert len(set(crash)) == size == len(minima)
        assert all(row.zeroed is None for row in lp.constraints[size:])
        for k, row in enumerate(lp.constraints[:size]):
            coef = dict(row.terms)
            assert coef[crash[k]] == 1 and not any(a in coef for a in crash[:k])
            off_diagonal += sum(a in coef for a in crash[k + 1:])
        rows = lp.compiled
        m = len(lp.constraints)
        cost = np.concatenate([lp.objective, np.zeros(m)])
        state, warm = lp_mod._start(lp, crash, rows.rhs, cost)
        assert not warm and state.basis[:size].tolist() == list(crash)
        a, _ = _dense_reference(lp)
        basic = np.hstack([a, -np.eye(m)])[:, state.basis]
        assert np.abs(state.bx[:, :-1] @ basic - np.eye(m)).max() <= 1e-9
        assert state.d.min() >= -1e-9
        duals = cost[state.basis] @ state.bx[:, :-1]
        assert np.abs(duals - np.array(minima + (0,) * (m - size))).max() <= 1e-9
        assert abs(duals @ rows.rhs - sum(minima)) <= 1e-9
    assert off_diagonal > 0


def test_crash_columns_are_drained_in_their_round_and_on_the_relaxed_plan():
    """Each landmark row's crash column is distinct and one of the row's
    actions that its round drives to residual 0 (cost less the cut minima of
    the rows so far that hold it): the lowest-index one on the goal's relaxed
    plan when the row meets the plan at such an action, else the lowest-index
    one."""
    on_plan = off_plan = 0
    for lp, minima, plan, _ in _base_lps_with_cut_minima():
        crash = _crash_of(lp)
        assert len(set(crash)) == len(crash)
        paid = Counter()
        for row, minimum, zeroed in zip(lp.constraints, minima, crash):
            drained = []
            for a, _ in row.terms:
                paid[a] += minimum
                if paid[a] == lp.objective[a]:
                    drained.append(a)
            planned = [a for a in drained if a in plan]
            assert zeroed == (planned or drained)[0]
            on_plan += bool(planned)
            off_plan += not planned
    assert on_plan > 10 * off_plan > 0


def test_crash_and_all_surplus_starts_agree():
    """Each base LP solved from its landmark crash and from the all-surplus
    basis: the same status and h, a basis that holds, fewer pivots in total;
    HiGHS ignores the crash. On the open grids the crash is optimal: its
    counts walk the relaxed plan, a shortest path, so no pivot is needed."""
    crash_pivots = cold_pivots = 0
    for lp, _, _, open_grid in _base_lps_with_cut_minima():
        crash = _crash_of(lp)
        ours, cold = solve_lp(lp, start=crash), solve_lp(lp)
        assert ours.status == cold.status and not ours.warm
        if cold.status == "optimal":
            assert abs(ours.value - cold.value) <= 1e-9
            _assert_basis_holds(lp, ours)
        if open_grid:
            assert ours.pivots == 0 and cold.pivots > 0
        if lp.num_vars > 100:
            assert solve_with(lp, "scipy", start=crash) == solve_with(lp, "scipy")
        crash_pivots += ours.pivots
        cold_pivots += cold.pivots
    assert crash_pivots < cold_pivots


def test_crash_start_that_is_not_unit_upper_triangular_is_rejected():
    lp = _lp(3, [1, 1, 1], [([(0, 1), (1, 1)], 1), ([(1, 1)], 1), ([(2, 2)], 1)])
    assert solve_lp(lp, start=(0, 1)).value == solve_lp(lp).value == 1.5
    for crash in ((1, 0), (0, 0), (0, 1, 2), (0, 1, 2, 0), (0, 5)):
        with pytest.raises(ValueError, match="crash start"):
            solve_lp(lp, start=crash)
    lower = _lp(2, [1, 1], [([(0, 1)], 1), ([(0, 1), (1, 1)], 1)])
    with pytest.raises(ValueError, match="not unit upper triangular"):
        solve_lp(lower, start=(0, 1))


def test_unknown_constraint_variable_is_rejected_by_both_backends():
    """An index out of range, or not a whole number (0.5 is not truncated
    to variable 0), is named as given."""
    for var in (5, -1, 0.5):
        lp = _lp(2, [1, 1], [([(0, 1)], 1), ([(1, 1), (var, 1)], 1)])
        with pytest.raises(ValueError) as ref:
            _dense_reference(lp)
        for backend in ("simplex", "scipy"):
            with pytest.raises(ValueError) as err:
                solve_with(lp, backend)
            assert str(err.value) == str(ref.value) == \
                f"constraint references unknown variable {var}"


def test_importing_ocgr_loads_no_scipy():
    """scipy is imported by the HiGHS backend on its first solve, never at
    import time: importing scipy.sparse alone costs more than a CLI set-up."""
    code = ("import sys, ocgr, ocgr.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
