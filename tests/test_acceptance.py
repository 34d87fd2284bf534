"""Acceptance gate: the ten criteria the package must meet, one test each.

Each test prints a single `[acceptance N] PASS/FAIL` line (visible even under
output capture) and asserts the criterion at its stated tolerance.  Expensive
experiment runs are shared through module-scoped fixtures, which also feed a
work budget for the paper runs (`test_work_budget`).
"""

from dataclasses import replace

import numpy as np
import pytest

from nitreg import harness, penalties, solver, spaces
from nitreg.harness import add_noise, example51_config, example52_config, make_problem
from nitreg.inner_cg import InnerProblem, InnerSettings, minimize
from nitreg.operators import IntegralOp
from nitreg.penalties import Penalty
from nitreg.solver import AlphaSchedule, StoppingRule
from nitreg.spaces import (
    GridFn,
    GridSpace,
    bregman_norm,
    duality_map,
    norm,
    pairing,
)


def _verdict(capsys, num, description, ok):
    with capsys.disabled():
        print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"acceptance criterion {num} failed: {description}"


def _run_from_config(cfg):
    op, x_dag, y_exact = make_problem(cfg)
    report = harness.solve(cfg, op, add_noise(y_exact, cfg.noise.delta, cfg.noise.seed))
    return report, x_dag, cfg.theta, op


def _paper_runs(example):
    """The runs of `nitreg <example>`, keyed by output name."""
    return {cfg.output.name: _run_from_config(cfg) for cfg in harness.paper_configs(example)}


@pytest.fixture(scope="module")
def ex51_runs():
    return _paper_runs("example51")


def _sweep(cfg, run, directory):
    """Rows of cfg's delta study from `harness.run_study`, sorted by delta
    descending.  The row at the config's own noise level is the summary of
    `run`, the stored solve of that same config and seed, so only the other
    deltas are solved here."""
    assert cfg.noise.delta in cfg.study.deltas
    others = tuple(d for d in cfg.study.deltas if d != cfg.noise.delta)
    cfg = replace(cfg, study=replace(cfg.study, deltas=others))
    rows = harness.run_study(cfg, out_dir=str(directory), quiet=True)
    report, x_dag, theta, _op = run
    rows.append({"delta": cfg.noise.delta, **harness.summary(report, theta, x_dag)})
    return sorted(rows, key=lambda row: row["delta"], reverse=True)


@pytest.fixture(scope="module")
def sweeps(ex51_runs, ex52_runs, tmp_path_factory):
    directory = tmp_path_factory.mktemp("sweeps")
    return {
        "example51_l2_l1": _sweep(example51_config("l2_l1"),
                                  ex51_runs["example51_l2_l1"], directory),
        "example52_l2_tv_mu0.01": _sweep(example52_config("l2_tv", mu=0.01),
                                         ex52_runs["example52_l2_tv_mu0.01"], directory),
    }


@pytest.fixture(scope="module")
def ex52_runs():
    return _paper_runs("example52")


def test_01_duality_bregman_identities(capsys):
    ok = True
    for p in (2.0, 1.5, 3.0):
        space = GridSpace.interval(50, p=p)
        for r in (2.0, 1.5, 3.0):
            rng = np.random.default_rng(int(1000 * p + 100 * r))
            for _ in range(100):
                f = GridFn(space, rng.standard_normal(space.size))
                j = duality_map(f, r)
                nf = norm(f)
                ok &= abs(norm(j) - nf ** (r - 1)) <= 1e-10 * (1 + nf ** (r - 1))
                ok &= abs(pairing(j, f) - nf**r) <= 1e-10 * (1 + nf**r)
                x, x1, x2 = (
                    GridFn(space, rng.standard_normal(space.size)) for _ in range(3)
                )
                lhs = bregman_norm(x2, x, r) - bregman_norm(x1, x, r)
                rhs = bregman_norm(x2, x1, r) + pairing(
                    duality_map(x1, r) - duality_map(x, r), x2 - x1
                )
                ok &= abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs) + abs(rhs))
    _verdict(capsys, 1, "duality-map and three-point identities at 1e-10", ok)


def test_02_adjoint_consistency(capsys):
    ok = True
    op51 = IntegralOp(400)
    cfg = example52_config("quadratic")
    op52, c_dag, _y = make_problem(cfg)
    for op, x in ((op51, spaces.zeros(op51.domain_space)), (op52, c_dag)):
        rng = np.random.default_rng(42)
        for _ in range(20):
            h = GridFn(op.domain_space, rng.standard_normal(op.domain_space.size))
            w = GridFn(
                op.range_space, rng.standard_normal(op.range_space.size), spaces.DUAL
            )
            lhs = pairing(w, op.deriv(x, h))
            rhs = pairing(op.adjoint(x, w), h)
            scale = norm(w) * norm(op.deriv(x, h)) + 1e-300
            ok &= abs(lhs - rhs) <= 1e-8 * scale
    _verdict(capsys, 2, "adjoint consistency at 1e-8 on both operators", ok)


def test_03_elliptic_taylor_order(capsys):
    cfg = example52_config("quadratic")
    op, c_dag, _y = make_problem(cfg)
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(5):
        h = GridFn(op.domain_space, rng.standard_normal(op.domain_space.size))
        h = (1.0 / norm(h)) * h
        errs = []
        for t in (1e-2, 1e-3):
            pert = op.apply(c_dag + t * h)
            lin = op.apply(c_dag) + t * op.deriv(c_dag, h)
            errs.append(norm(pert - lin))
        slope = np.log(errs[0] / errs[1]) / np.log(10.0)
        ok &= slope >= 1.9
    _verdict(capsys, 3, "elliptic Taylor-remainder slope >= 1.9", ok)


def test_04_inner_solver_oracle(capsys, integral_matrices):
    op = IntegralOp(120)
    theta = Penalty(mu=1.0)
    rng = np.random.default_rng(3)
    x_prev = GridFn(op.domain_space, rng.standard_normal(op.domain_space.size))
    xi_prev = penalties.gradient(theta, x_prev)
    t = op.range_space.axis_nodes(0)
    ydelta = GridFn(op.range_space, np.sin(2 * np.pi * t))
    alpha = 0.05
    p = InnerProblem(op, ydelta, theta, alpha, x_prev, xi_prev)

    w = op.domain_space.weights
    A, Astar = integral_matrices(120)
    M = Astar @ A + 2.0 * theta.mu * alpha * np.eye(len(w))
    exact = np.linalg.solve(M, Astar @ ydelta.values + alpha * xi_prev.values)

    x_cg, _xi, _stats = minimize(p, InnerSettings(grad_tol_rel=1e-10, max_iters=5000))
    rel = np.linalg.norm(x_cg.values - exact) / np.linalg.norm(exact)
    _verdict(capsys, 4, f"inner CG matches dense oracle (rel {rel:.2e})", rel <= 1e-6)


def test_05_monotonicity(capsys, ex51_runs, ex52_runs):
    ok = True
    for report, x_dag, theta, _op in {**ex51_runs, **ex52_runs}.values():
        ok &= bool(np.all(np.diff(report.residuals) <= 1e-8))
        d = solver.diagnostics_bregman(report, theta, x_dag)
        ok &= bool(np.all(np.diff(d[: report.n_delta]) <= 1e-8))
    _verdict(
        capsys, 5,
        "residual and Bregman-distance sequences non-increasing on all five runs "
        "(1e-8 slack)", ok,
    )


def test_06_termination(capsys, ex51_runs, ex52_runs):
    ok = True
    details = []
    for name, (report, _x, _t, _op) in {**ex51_runs, **ex52_runs}.items():
        final = report.states[report.n_delta]
        stats = [s.inner_stats for s in report.states[1:]]
        converged = sum(bool(s.converged) for s in stats)
        ok &= report.terminated_by == "discrepancy"
        ok &= report.n_delta <= 40
        ok &= final.residual <= report.threshold
        ok &= not any(s.line_search_failed for s in stats)
        ok &= converged == len(stats)
        details.append(f"{name}:n={report.n_delta},converged={converged}/{len(stats)}")
    _verdict(
        capsys, 6,
        "discrepancy termination with n_delta <= 40, no line-search failure, "
        "every inner solve converged (" + ", ".join(details) + ")", ok,
    )


def test_07_delta_trend(capsys, sweeps):
    ok = True
    details = []
    for name, sweep in sweeps.items():
        ok &= all("error_message" not in row for row in sweep)
        errors = [row["l2_error"] for row in sweep]
        n_deltas = [row["n_delta"] for row in sweep]
        # deltas are sorted descending: errors non-increasing within 10% slack,
        # stopping indices non-decreasing
        ok &= all(b <= 1.10 * a for a, b in zip(errors, errors[1:]))
        ok &= all(b >= a for a, b in zip(n_deltas, n_deltas[1:]))
        details.append(f"{name}: errors {['%.4f' % e for e in errors]}, n_delta {n_deltas}")
    _verdict(capsys, 7, "delta-sweep trends hold (" + "; ".join(details) + ")", ok)


def test_08_penalty_ordering(capsys, ex51_runs, ex52_runs):
    def err(entry):
        report, x_dag, _theta, _op = entry
        return norm(report.x_out - x_dag)

    e51_quad = err(ex51_runs["example51_quadratic"])
    e51_l1 = err(ex51_runs["example51_l2_l1"])
    e52_quad = err(ex52_runs["example52_quadratic"])
    e52_tv_small = err(ex52_runs["example52_l2_tv_mu0.01"])
    e52_tv_one = err(ex52_runs["example52_l2_tv_mu1"])
    ok = e51_l1 < e51_quad and e52_tv_small < e52_quad and e52_tv_one < e52_quad
    _verdict(
        capsys, 8,
        f"non-smooth penalties beat quadratic "
        f"(1d {e51_l1:.4f}<{e51_quad:.4f}; "
        f"2d {e52_tv_small:.4f},{e52_tv_one:.4f}<{e52_quad:.4f})", ok,
    )


# Newton iterations, CG iterations and backtracks of each paper run (noise
# seed 1).  The iterates are bit-identical across reruns and BLAS thread
# counts, so these counts gate work without timing; a change that lowers a
# count lowers its entry here.
WORK = {
    "example51_quadratic": (16, 32, 0),
    "example51_l2_l1": (98, 0, 32),
    "example52_quadratic": (36, 129, 0),
    "example52_l2_tv_mu0.01": (243, 2175, 113),
    "example52_l2_tv_mu1": (234, 1643, 86),
}


def test_work_budget(ex51_runs, ex52_runs):
    # slack for rounding across Python, numpy and scipy versions: +5% or +2
    runs = {**ex51_runs, **ex52_runs}
    assert runs.keys() == WORK.keys()
    over = {}
    for name, (report, _x, _t, _op) in runs.items():
        stats = [s.inner_stats for s in report.states[1:]]
        counts = (sum(s.iterations for s in stats), sum(s.cg_iterations for s in stats),
                  sum(s.backtracks for s in stats))
        budget = tuple(c + max(2, 0.05 * c) for c in WORK[name])
        if any(c > b for c, b in zip(counts, budget)):
            over[name] = f"(Newton, CG, backtracks) {counts} above {budget}"
    assert not over, over


def test_09_stopping_rule_offset(capsys):
    cfg = example51_config("quadratic")
    op, x_dag, y_exact = make_problem(cfg)
    theta = cfg.theta
    schedule = cfg.alpha_schedule
    stop = cfg.stopping_rule
    ok = True
    for seed in range(1, 11):
        ydelta = add_noise(y_exact, cfg.noise.delta, seed)
        dp = solver.run(
            op, theta, ydelta, cfg.noise.delta, schedule,
            StoppingRule("discrepancy", stop.tau, stop.max_outer),
        )
        r41 = solver.run(
            op, theta, ydelta, cfg.noise.delta, schedule,
            StoppingRule("rule41", stop.tau, stop.max_outer),
        )
        # deterministic trajectories agree where both exist
        for a, b in zip(dp.states, r41.states):
            ok &= bool(np.array_equal(a.x.values, b.x.values))
        # strictness: the crossing iterate lies strictly below the threshold
        strict = r41.states[-1].residual < r41.threshold
        ok &= strict and r41.n_delta == dp.n_delta - 1
    _verdict(
        capsys, 9,
        "rule-4.1 index offset by one from the discrepancy index on 10 seeds", ok,
    )


def test_10_reproducibility(capsys, tmp_path):
    cfg = example51_config(
        "l2_l1",
        {("problem", "n"): 120, ("noise", "delta"): 2e-3, ("inner", "max_iters"): 400},
    )
    harness.run_experiment(cfg, out_dir=str(tmp_path / "a"), quiet=True)
    harness.run_experiment(cfg, out_dir=str(tmp_path / "b"), quiet=True)
    ok = True
    for suffix in ("iterations", "reconstruction", "summary"):
        fa = (tmp_path / "a" / f"{cfg.output.name}_{suffix}.csv").read_bytes()
        fb = (tmp_path / "b" / f"{cfg.output.name}_{suffix}.csv").read_bytes()
        ok &= fa == fb
    _verdict(capsys, 10, "identical config and seed give byte-identical CSVs", ok)
