"""nitreg benchmark: time to a regularized solution on the paper's workloads.

Runs the paper's experiments through the public library API, checks every
solve, and prints one JSON result as the last line of standard output.

    python3 bench/run.py --workload integral_l1 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all        # every workload, one process at a time
    python3 bench/run.py --short               # self-check on small grids

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes one
untraced and one traced solve and reports the per-layer metrics, with the
tracing overhead; the spans are written to ``.bench_out/``.  See
``bench/README.md`` for the workloads, the metrics and the baseline.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads, so that the machine's scheduler
# is not what gets measured.  One thread is at or below any core count.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
from tracing import Spans, Tracer  # noqa: E402

# Workload name -> (example, penalty arguments).  Each solve uses the paper's
# config unchanged apart from the noise seed.
WORKLOADS = {
    "integral_l1": ("example51", {"penalty": "l2_l1"}),
    "elliptic_quadratic": ("example52", {"penalty": "quadratic"}),
    # 65-96 s per solve on 2 cores: too long for the timed contract
    # (BENCHMARK.json), kept for manual runs of factorization-reuse work.
    "elliptic_tv": ("example52", {"penalty": "l2_tv", "mu": 0.01}),
}
# --short checks the benchmark's plumbing, not the library's speed: small
# grids, more noise and low inner caps keep it to seconds.
SHORT_OVERRIDES = {
    "example51": {("problem", "n"): 20, ("noise", "delta"): 5e-3,
                  ("inner", "max_iters"): 100},
    "example52": {("problem", "nx"): 8, ("problem", "ny"): 8, ("noise", "delta"): 1e-3,
                  ("inner", "max_iters"): 50},
}
# A --trace 0 run solves this many noisy data sets, so that one unlucky noise
# draw moves its means less; the traced run solves the first one only.
INPUTS_PER_RUN = 3
# Set-ups take milliseconds, so each solve is preceded by several timed ones;
# spreading them over the run evens out the machine's slow drifts.
SETUPS_PER_SOLVE = 11

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB", "l2_error": "1"}
UNITS = {**END_TO_END_UNITS, **layers.UNITS}


def noise_seeds(seed: int) -> list[int]:
    return [seed + 1000 * j for j in range(INPUTS_PER_RUN)]


def config(harness, workload: str, seed: int, short: bool = False):
    example, kwargs = WORKLOADS[workload]
    overrides = {("noise", "seed"): seed}
    if short:
        overrides.update(SHORT_OVERRIDES[example])
    make = harness.example51_config if example == "example51" else harness.example52_config
    return make(overrides=overrides, **kwargs)


def setup(harness, cfg):
    """Operator, exact solution and noisy data; the library sees only the latter."""
    op, x_dagger, y_exact = harness.make_problem(cfg)
    return op, x_dagger, harness.add_noise(y_exact, cfg.delta, cfg.seed)


def timed_setups(harness, cfg, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        setup(harness, cfg)
        times.append(time.perf_counter() - t0)
    return times


def solve(nitreg, cfg, problem):
    op, _x_dagger, ydelta = problem
    t0 = time.perf_counter()
    report = nitreg.solver.run(
        op, cfg.penalty(), ydelta, cfg.delta, cfg.schedule(), cfg.stopping(),
        cfg.inner_settings(), r=cfg.r, config=cfg.echo(),
    )
    return report, time.perf_counter() - t0


def signature(nitreg, report, x_dagger) -> dict:
    """The deterministic outcome of a solve; repeats of one seed must agree."""
    stats = [s.inner_stats for s in report.states[1:]]
    return {
        "n_delta": report.n_delta,
        "l2_error": nitreg.norm(report.x_out - x_dagger),
        "inner_iterations": sum(s.iterations for s in stats),
        "backtracks": sum(s.backtracks for s in stats),
        "inner_converged": sum(bool(s.converged) for s in stats),
        "line_search_failures": sum(bool(s.line_search_failed) for s in stats),
    }


def check(nitreg, problem, report) -> list[str]:
    """Why a solve is wrong: not stopped by the discrepancy principle, residual
    above tau*delta, a non-finite output, or no better than the zero guess."""
    op, x_dagger, ydelta = problem
    errors = []
    if report.terminated_by != "discrepancy":
        errors.append(f"terminated by {report.terminated_by}")
    if not np.all(np.isfinite(report.x_out.values)):
        errors.append("reconstruction is not finite")
        return errors
    residual = nitreg.norm(op.apply(report.x_out) - ydelta)
    if not residual <= report.threshold:
        errors.append(f"residual {residual:.6g} above tau*delta {report.threshold:.6g}")
    if not nitreg.norm(report.x_out - x_dagger) < nitreg.norm(x_dagger):
        errors.append("reconstruction is no closer to the exact solution than zero")
    return errors


class Outcomes:
    """Solves attempted and failed, with the reasons.  A solve whose signature
    differs from the first solve of the same noise seed fails too."""

    def __init__(self):
        self.attempted = 0
        self.reasons: list[str] = []
        self.signatures: dict[int, dict] = {}

    def record(self, seed: int, errors: list[str], sig: dict | None) -> None:
        self.attempted += 1
        if sig is not None and not errors:
            first = self.signatures.setdefault(seed, sig)
            if sig != first:
                errors = [f"outcome {sig} differs from the first solve {first}"]
        if errors:
            self.reasons.append(f"noise seed {seed}: " + "; ".join(errors))

    @property
    def failed(self) -> int:
        return len(self.reasons)


def checked_solve(nitreg, cfg, outcomes: Outcomes):
    """Set up, solve and check; returns the solve's seconds, or None if it raised."""
    secs, sig = None, None
    try:
        problem = setup(nitreg.harness, cfg)
        report, secs = solve(nitreg, cfg, problem)
        errors = check(nitreg, problem, report)
        sig = signature(nitreg, report, problem[1])
    except Exception as exc:  # a failing solve is reported, not fatal
        errors = [f"raised {type(exc).__name__}: {exc}"]
    outcomes.record(cfg.seed, errors, sig)
    return secs


def run_untraced(nitreg, cfgs, seconds: float):
    """Solve every input once, and again in whole rounds until `seconds` have
    passed; solve_s and l2_error are means over the inputs, setup_s is a median."""
    outcomes = Outcomes()
    setup_times, times = [], []
    t_start = time.perf_counter()
    while not outcomes.attempted or time.perf_counter() - t_start < seconds:
        for cfg in cfgs:
            setup_times += timed_setups(nitreg.harness, cfg, SETUPS_PER_SOLVE)
            secs = checked_solve(nitreg, cfg, outcomes)
            if secs is not None:
                times.append(secs)
                print(f"solve noise_seed={cfg.seed} solve_s={secs:.4f} "
                      f"{outcomes.signatures.get(cfg.seed)}", flush=True)
    l2_errors = [sig["l2_error"] for sig in outcomes.signatures.values()]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "solve_s": statistics.fmean(times) if times else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "l2_error": statistics.fmean(l2_errors) if l2_errors else float("nan"),
    }
    return outcomes, metrics


def run_traced(nitreg, cfg, workload: str, out_dir: Path):
    outcomes = Outcomes()
    untraced_s = checked_solve(nitreg, cfg, outcomes)

    tracer = Tracer()
    layers.instrument(tracer)
    csv_dir = out_dir / f"csv_{workload}"
    csv_dir.mkdir(parents=True, exist_ok=True)
    report = None
    try:
        problem = setup(nitreg.harness, cfg)
        report, traced_s = solve(nitreg, cfg, problem)
        layers.write_csvs(nitreg.harness, report, cfg, problem, csv_dir)
    except Exception as exc:
        outcomes.record(cfg.seed, [f"traced solve raised {type(exc).__name__}: {exc}"], None)
    finally:
        tracer.restore()
    spans = tracer.spans()
    spans.save(out_dir / f"trace_{workload}_seed{cfg.seed}.npz")
    if report is None or untraced_s is None:
        return outcomes, {}

    errors = check(nitreg, problem, report) + [
        f"span nesting: {e}" for e in spans.nesting_errors()]
    sig = signature(nitreg, report, problem[1])
    outcomes.record(cfg.seed, errors, sig)
    csv_bytes = sum(p.stat().st_size for p in csv_dir.iterdir())
    metrics = layers.metrics(spans, report, csv_bytes)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return outcomes, metrics


def environment() -> dict:
    import scipy

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def result_line(outcomes: Outcomes, metrics: dict, units: dict = UNITS) -> str:
    return json.dumps({
        "correct": outcomes.failed == 0 and outcomes.attempted > 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    })


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            short: bool = False) -> tuple[Outcomes, dict]:
    import nitreg

    cfgs = [config(nitreg.harness, workload, s, short) for s in noise_seeds(seed)]
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        return run_traced(nitreg, cfgs[0], workload, OUT_DIR)
    return run_untraced(nitreg, cfgs, seconds)


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    total = Outcomes()
    metrics, units = {}, {}
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        sub = json.loads(lines[-1])
        print(f"{workload}: attempted={sub['attempted']} failed={sub['failed']} " + " ".join(
            f"{k}={m['value']:.6g}{m['unit']}" for k, m in sub["metrics"].items()), flush=True)
        total.attempted += sub["attempted"]
        total.reasons += [workload] * sub["failed"]
        for k, m in sub["metrics"].items():
            metrics[f"{workload}.{k}"] = m["value"]
            units[f"{workload}.{k}"] = m["unit"]
    print(result_line(total, metrics, units))
    return 0


def short_check() -> int:
    """On small grids, for every workload: the solves pass their checks, every
    metric BENCHMARK.json names is printed with its unit, the spans nest, and
    the traced counts repeat exactly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            outcomes, metrics = run_one(workload, 1, 0.0, bool(trace), short=True)
            printed = json.loads(result_line(outcomes, metrics))
            where = f"{workload} --trace {trace}"
            if not printed["correct"]:
                problems.append(f"{where}: failed solves: {outcomes.reasons}")
            got = {k: m["unit"] for k, m in printed["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: printed {got}, BENCHMARK.json names {wanted[trace]}")
            if trace:
                spans = Spans.load(OUT_DIR / f"trace_{workload}_seed1.npz")
                problems += [f"{where}: {e}" for e in spans.nesting_errors()]
                counts.append({k: v for k, v in metrics.items() if UNITS[k] == "count"})
        if counts[0] != counts[1]:
            problems.append(f"{workload}: traced counts differ between runs: {counts}")
        print(f"{workload}: checked", flush=True)
    for p in problems:
        print(f"short check: {p}", flush=True)
    print("short check: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=1, help="noise seed (the paper's is 1)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="keep solving until this much time has passed (at least one solve)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--short", action="store_true",
                    help="check metric names, units and span nesting on small grids")
    args = ap.parse_args(argv)

    try:
        import nitreg
    except ImportError as exc:
        sys.stderr.write(f"cannot import nitreg from {ROOT / 'src'}: {exc}\n")
        return 2
    if ROOT / "src" not in Path(nitreg.__file__).resolve().parents:
        sys.stderr.write(f"nitreg was imported from {nitreg.__file__}, not {ROOT / 'src'}\n")
        return 2
    if args.short:
        return short_check()
    if args.workload == "all":
        return run_all(args)

    print("env " + json.dumps(environment()), flush=True)
    outcomes, metrics = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    for reason in outcomes.reasons:
        print(f"failed: {reason}", flush=True)
    print(result_line(outcomes, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
