"""Which nitreg functions the traced run wraps, and the per-layer metrics
derived from their spans.

Layers are the package modules.  ``cli`` is left out: it only parses
arguments.  Layer metrics count only spans under the ``solver.run`` span,
so set-up, checks and CSV output do not leak into them; the ``harness``
metrics time their own spans.
"""

from __future__ import annotations

import numpy as np

SOLVE = "solver.run"

# Per-layer metric -> unit.  BENCHMARK.json lists the same names.
UNITS = {
    "operators.apply.calls": "count",
    "operators.apply.s": "s",
    "operators.adjoint.calls": "count",
    "operators.adjoint.s": "s",
    "operators.factorizations": "count",
    "operators.factorize.s": "s",
    "operators.cache_hit_frac": "ratio",
    "operators.self_s": "s",
    "inner_cg.minimize.calls": "count",
    "inner_cg.minimize.s": "s",
    "inner_cg.minimize.self_s": "s",
    "inner_cg.iterations": "count",
    "inner_cg.objective.calls": "count",
    "inner_cg.grad.calls": "count",
    "inner_cg.fevals_per_iter": "ratio",
    "inner_cg.backtracks": "count",
    "inner_cg.converged_frac": "ratio",
    "inner_cg.line_search_failures": "count",
    "penalties.value.calls": "count",
    "penalties.value.s": "s",
    "penalties.gradient.calls": "count",
    "penalties.gradient.s": "s",
    "penalties.bregman.calls": "count",
    "penalties.bregman.s": "s",
    "spaces.gridfn.constructs": "count",
    "spaces.gridfn.s": "s",
    "spaces.duality_map.calls": "count",
    "solver.step.calls": "count",
    "solver.step.s.p50": "s",
    "solver.step.self_s": "s",
    "solver.n_delta": "count",
    "solver.dual_gap.max": "1",
    "harness.make_problem.s": "s",
    "harness.add_noise.s": "s",
    "harness.write_csv.s": "s",
    "harness.csv_bytes": "B",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def instrument(tracer) -> None:
    """Wrap the public functions of each layer; `tracer.restore()` undoes it."""
    from nitreg import harness, inner_cg, operators, penalties, solver, spaces

    for cls in (operators.IntegralOp, operators.EllipticOp):
        tracer.patch_attr(cls, "apply", "operators.apply")
        tracer.patch_attr(cls, "adjoint", "operators.adjoint")
    tracer.patch_module_function(operators, "spla", "splu", "operators.factorize")
    traced = [
        (inner_cg.minimize, "inner_cg.minimize"),
        (inner_cg.objective, "inner_cg.objective"),
        (inner_cg.grad_objective, "inner_cg.grad"),
        (penalties.value, "penalties.value"),
        (penalties.gradient, "penalties.gradient"),
        (penalties.bregman, "penalties.bregman"),
        (spaces.duality_map, "spaces.duality_map"),
        (solver.run, SOLVE),
        (solver.step, "solver.step"),
        (harness.make_problem, "harness.make_problem"),
        (harness.add_noise, "harness.add_noise"),
        (harness.write_iteration_csv, "harness.write_csv"),
        (harness.write_reconstruction_csv, "harness.write_csv"),
        (harness.write_summary_csv, "harness.write_csv"),
    ]
    for fn, name in traced:
        tracer.patch_function("nitreg", fn, name)
    tracer.patch_attr(spaces.GridFn, "__post_init__", "spaces.gridfn")


def write_csvs(harness, report, cfg, problem, directory) -> None:
    """The CSV file set `harness.run_experiment` writes for one run."""
    _op, x_dagger, _ydelta = problem
    theta = cfg.penalty()
    harness.write_iteration_csv(directory / "iterations.csv", report, theta, x_dagger)
    harness.write_reconstruction_csv(directory / "reconstruction.csv", report.x_out)
    harness.write_summary_csv(directory / "summary.csv", report, theta, x_dagger)


def metrics(spans, report, csv_bytes: int) -> dict:
    def in_solve(name):
        return spans.mask(name, SOLVE)

    def calls(name):
        return int(in_solve(name).sum())

    def secs(name, root=SOLVE):
        return float(spans.duration[spans.mask(name, root)].sum())

    def self_s(*names):
        sel = np.zeros(len(spans), dtype=bool)
        for name in names:
            sel |= in_solve(name)
        return float(spans.self_time[sel].sum())

    stats = [s.inner_stats for s in report.states[1:]]
    iterations = sum(s.iterations for s in stats)
    op_calls = calls("operators.apply") + calls("operators.adjoint")
    factorizations = calls("operators.factorize")
    fevals = calls("inner_cg.objective") + calls("inner_cg.grad")
    step_s = spans.duration[in_solve("solver.step")]
    return {
        "operators.apply.calls": calls("operators.apply"),
        "operators.apply.s": secs("operators.apply"),
        "operators.adjoint.calls": calls("operators.adjoint"),
        "operators.adjoint.s": secs("operators.adjoint"),
        "operators.factorizations": factorizations,
        "operators.factorize.s": secs("operators.factorize"),
        "operators.cache_hit_frac": 1.0 - factorizations / op_calls if op_calls else 0.0,
        "operators.self_s": self_s("operators.apply", "operators.adjoint"),
        "inner_cg.minimize.calls": calls("inner_cg.minimize"),
        "inner_cg.minimize.s": secs("inner_cg.minimize"),
        "inner_cg.minimize.self_s": self_s("inner_cg.minimize"),
        "inner_cg.iterations": iterations,
        "inner_cg.objective.calls": calls("inner_cg.objective"),
        "inner_cg.grad.calls": calls("inner_cg.grad"),
        "inner_cg.fevals_per_iter": fevals / iterations if iterations else 0.0,
        "inner_cg.backtracks": sum(s.backtracks for s in stats),
        "inner_cg.converged_frac": sum(bool(s.converged) for s in stats) / len(stats)
        if stats else 0.0,
        "inner_cg.line_search_failures": sum(bool(s.line_search_failed) for s in stats),
        "penalties.value.calls": calls("penalties.value"),
        "penalties.value.s": secs("penalties.value"),
        "penalties.gradient.calls": calls("penalties.gradient"),
        "penalties.gradient.s": secs("penalties.gradient"),
        "penalties.bregman.calls": calls("penalties.bregman"),
        "penalties.bregman.s": secs("penalties.bregman"),
        "spaces.gridfn.constructs": calls("spaces.gridfn"),
        "spaces.gridfn.s": secs("spaces.gridfn"),
        "spaces.duality_map.calls": calls("spaces.duality_map"),
        "solver.step.calls": len(step_s),
        "solver.step.s.p50": float(np.median(step_s)) if len(step_s) else 0.0,
        "solver.step.self_s": self_s("solver.step"),
        "solver.n_delta": report.n_delta,
        "solver.dual_gap.max": float(max(s.dual_gap for s in report.states)),
        "harness.make_problem.s": secs("harness.make_problem", None),
        "harness.add_noise.s": secs("harness.add_noise", None),
        "harness.write_csv.s": secs("harness.write_csv", None),
        "harness.csv_bytes": csv_bytes,
        "trace.spans": len(spans),
    }

