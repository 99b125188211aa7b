import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_micro_task, open_grid_bundle, plan_counts
from ocgr import lp as lp_mod
from ocgr.bench import SuiteSpec, generated_problems
from ocgr.constraints import LinearConstraint, base_constraints
from ocgr.errors import CapExceeded, GoalUnreachable, SolverFailure
from ocgr.inputs import bundle_from_texts
from ocgr.lp import LinearProgram, compile_rows, solve_lp, solve_with
from ocgr.oracle import enumerate_plans


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

    def fake(lp):
        calls.append(lp)
        return solve_lp(lp)

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
    bounded = LinearProgram(2, (1.0, 3.0), _lp(2, [1, 3], rows).constraints,
                            lower=((1, 1), (0, 0), (1, -4)))
    floored = _lp(2, [1, 3], rows + [([(1, 1)], 1)])
    for backend in ("simplex", "scipy"):
        out = solve_with(bounded, backend)
        assert out.status == "optimal"
        assert abs(out.value - solve_lp(floored).value) <= 1e-9
        assert abs(out.value - 4.0) <= 1e-9 and out.counts[1] >= 1 - 1e-9
    with pytest.raises(ValueError, match="unknown variable 2"):
        solve_lp(LinearProgram(2, (1.0, 1.0), (), lower=((2, 1),)))


def _reduced_costs(lp, basis):
    a, _ = _dense_reference(lp)
    cost = np.concatenate([np.asarray(lp.objective), np.zeros(len(a))])
    columns = basis.inverse @ np.hstack([a, -np.eye(len(a))])
    return cost - cost[list(basis.columns)] @ columns


def test_start_that_is_not_dual_feasible_still_reaches_the_optimum():
    """A start optimal under other costs is clamped, then priced again."""
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
            lp = LinearProgram.from_constraints(cset, task.costs, start=other.basis)
            ours, ref = solve_lp(lp), solve_with(lp, "scipy")
            assert ours.warm and ours.status == ref.status == "optimal"
            assert abs(ours.value - ref.value) <= 1e-6
            infeasible_starts += _reduced_costs(lp, other.basis).min() < -1e-7
    assert infeasible_starts >= 5


def _dense_reference(lp):
    """A and b of ``lp``, built term by term, a repeated variable summed."""
    a = np.zeros((len(lp.constraints), lp.num_vars))
    b = np.zeros(len(lp.constraints))
    for i, row in enumerate(lp.constraints):
        for var, coef in row.terms:
            if not 0 <= var < lp.num_vars:
                raise ValueError(f"constraint references unknown variable {var}")
            a[i, var] += float(coef)
        b[i] = float(row.rhs)
    return a, b


def _scattered(lp):
    rows = compile_rows(lp.num_vars, lp.constraints)
    a = np.zeros((len(lp.constraints), lp.num_vars))
    a[rows.row, rows.col] = rows.data
    return a, rows.rhs


def test_compiled_rows_scatter_back_to_the_dense_rows():
    spec = SuiteSpec(families=("grid", "blocks", "logistics", "corridor"), per_family=2,
                     seed=4, observability=(100,))
    tasks = [(p.task, p.hyps) for p in generated_problems(spec)]
    grid = bundle_from_texts(open_grid_bundle(8), require_obs=False)
    tasks.append((grid.task, grid.hyps))
    lps = [_lp(4, [1, 1, 1, 1], [([(0, 1), (0, 2)], 3), ([(1, 1), (2, -1), (1, -1)], 1),
                                 ([(3, 2), (3, -2)], 0), ([], -1), ([(2, 1)], 0)])]
    for task, hyps in tasks:
        for goal in hyps.goals:
            try:
                lps.append(LinearProgram.from_constraints(base_constraints(task, goal),
                                                          task.costs))
            except GoalUnreachable:
                pass
    assert len(lps) > 20
    for lp in lps:
        a, b = _scattered(lp)
        ref_a, ref_b = _dense_reference(lp)
        assert a.tobytes() == ref_a.tobytes() and b.tobytes() == ref_b.tobytes()
    assert _scattered(lps[0])[0][0].tolist() == [3.0, 0.0, 0.0, 0.0]
    # the summed-to-zero terms leave no stored entry
    assert (compile_rows(4, lps[0].constraints).data != 0).all()


def test_unknown_constraint_variable_is_rejected_by_both_backends():
    lp = _lp(2, [1, 1], [([(0, 1)], 1), ([(1, 1), (5, 1)], 1)])
    with pytest.raises(ValueError) as ref:
        _dense_reference(lp)
    for backend in ("simplex", "scipy"):
        with pytest.raises(ValueError) as err:
            solve_with(lp, backend)
        assert str(err.value) == str(ref.value) == "constraint references unknown variable 5"


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
