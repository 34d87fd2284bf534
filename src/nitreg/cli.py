"""Command-line entry points for running and checking experiments."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import harness, inner_cg, penalties, solver, spaces
from .harness import ConfigError
from .operators import IntegralOp, estimate_eta


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="override the noise seed")
    p.add_argument("--out-dir", default=None, help="override the output directory")
    p.add_argument("--quiet", action="store_true", help="suppress progress output")


def _overrides(args) -> dict:
    ov = {}
    if args.seed is not None:
        ov[("noise", "seed")] = args.seed
    return ov


def cmd_run(args) -> int:
    cfg = harness.load_config(args.config, _overrides(args))
    harness.run_experiment(cfg, out_dir=args.out_dir, quiet=args.quiet)
    return 0


def cmd_study(args) -> int:
    cfg = harness.load_config(args.config, _overrides(args))
    harness.run_study(cfg, out_dir=args.out_dir, quiet=args.quiet)
    return 0


def cmd_example51(args) -> int:
    for penalty in ("quadratic", "l2_l1"):
        cfg = harness.example51_config(penalty, _overrides(args))
        harness.run_experiment(cfg, out_dir=args.out_dir, quiet=args.quiet)
    return 0


def cmd_example52(args) -> int:
    configs = [
        harness.example52_config("quadratic", overrides=_overrides(args)),
        harness.example52_config("l2_tv", mu=0.01, overrides=_overrides(args)),
        harness.example52_config("l2_tv", mu=1.0, overrides=_overrides(args)),
    ]
    for cfg in configs:
        harness.run_experiment(cfg, out_dir=args.out_dir, quiet=args.quiet)
    return 0


def cmd_check(args) -> int:
    """Fast invariant checks on small instances; exit 0 iff all pass."""
    rng = np.random.default_rng(0)
    failures = []

    def check(label, ok):
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)

    space = spaces.GridSpace.interval(50)
    f = spaces.primal(space, rng.standard_normal(space.size))
    for r in (1.5, 2.0, 3.0):
        jf = spaces.duality_map(f, r)
        nf = spaces.norm(f)
        check(
            f"duality identities r={r}",
            abs(spaces.norm(jf) - nf ** (r - 1)) <= 1e-10 * (1 + nf ** (r - 1))
            and abs(spaces.pairing(jf, f) - nf**r) <= 1e-10 * (1 + nf**r),
        )

    op = IntegralOp(n=80)
    h = spaces.primal(op.domain_space, rng.standard_normal(op.domain_space.size))
    w = spaces.dual(op.range_space, rng.standard_normal(op.range_space.size))
    lhs = spaces.pairing(w, op.apply(h))
    rhs = spaces.pairing(op.adjoint(h, w), h)
    check("integral adjoint consistency", abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs)))

    theta = penalties.l2_l1(0.01)
    x = spaces.primal(space, rng.standard_normal(space.size))
    d = spaces.primal(space, rng.standard_normal(space.size))
    t = 1e-6
    fd = (penalties.value(theta, x + t * d) - penalties.value(theta, x - t * d)) / (2 * t)
    pred = spaces.pairing(penalties.gradient(theta, x), d)
    check("penalty gradient vs finite differences", abs(fd - pred) <= 1e-4 * (1 + abs(fd)))

    # example 5.2 on a 10x10 grid
    cfg = harness.example52_config(overrides={("problem", "nx"): 10, ("problem", "ny"): 10})
    pde, _c_dagger, y = harness.make_problem(cfg)
    c = spaces.primal(pde.domain_space, np.abs(rng.standard_normal(pde.domain_space.size)))
    h2 = spaces.primal(pde.domain_space, rng.standard_normal(pde.domain_space.size))
    w2 = spaces.dual(pde.range_space, rng.standard_normal(pde.range_space.size))
    lhs = spaces.pairing(w2, pde.deriv(c, h2))
    rhs = spaces.pairing(pde.adjoint(c, w2), h2)
    check("elliptic adjoint consistency", abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs)))

    check("tangential cone of the elliptic operator", estimate_eta(pde, c, 1e-4, 3) <= 1e-4)

    l1 = penalties.l2_l1(mu=0.01, a=1.0, eps=1e-6)
    x0 = spaces.zeros(op.domain_space)
    ydelta = harness.add_noise(op.apply(harness.spikes_1d(op.domain_space)), 5e-4, 1)
    sub = inner_cg.InnerProblem(op, ydelta, l1, 0.05, x0, penalties.gradient(l1, x0))
    check("inner solver converges on a smoothed-L1 subproblem",
          inner_cg.minimize(sub)[2].converged)

    # first outer step of its TV reconstruction
    c0 = spaces.zeros(pde.domain_space)
    sub = inner_cg.InnerProblem(pde, harness.add_noise(y, 1e-3, 1), cfg.theta, 0.5, c0,
                                penalties.gradient(cfg.theta, c0))
    check("inner solver converges on a TV subproblem", inner_cg.minimize(sub)[2].converged)

    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nitreg",
        description="Nonstationary iterated Tikhonov regularization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single configured experiment")
    p_run.add_argument("config", help="path to the experiment config file")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_study = sub.add_parser("study", help="noise-level sweep from a config file")
    p_study.add_argument("config", help="path to the experiment config file")
    _add_common(p_study)
    p_study.set_defaults(func=cmd_study)

    p_51 = sub.add_parser("example51", help="run the built-in 1-D integral-equation experiment")
    _add_common(p_51)
    p_51.set_defaults(func=cmd_example51)

    p_52 = sub.add_parser("example52", help="run the built-in 2-D elliptic experiment")
    _add_common(p_52)
    p_52.set_defaults(func=cmd_example52)

    p_check = sub.add_parser("check", help="fast invariant checks on small instances")
    p_check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
