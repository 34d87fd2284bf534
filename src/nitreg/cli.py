"""Command-line entry points for running and checking experiments."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import harness, inner_cg, penalties, spaces
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


def cmd_config(args) -> int:
    cfg = harness.load_config(args.config, _overrides(args))
    args.experiment(cfg, out_dir=args.out_dir, quiet=args.quiet)
    return 0


def cmd_example(args) -> int:
    for cfg in harness.paper_configs(args.command, _overrides(args)):
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
    f = spaces.GridFn(space, rng.standard_normal(space.size))
    for r in (1.5, 2.0, 3.0):
        jf = spaces.duality_map(f, r)
        nf = spaces.norm(f)
        check(
            f"duality identities r={r}",
            abs(spaces.norm(jf) - nf ** (r - 1)) <= 1e-10 * (1 + nf ** (r - 1))
            and abs(spaces.pairing(jf, f) - nf**r) <= 1e-10 * (1 + nf**r),
        )

    op = IntegralOp(n=80)
    h = spaces.GridFn(op.domain_space, rng.standard_normal(op.domain_space.size))
    w = spaces.GridFn(op.range_space, rng.standard_normal(op.range_space.size), spaces.DUAL)
    lhs = spaces.pairing(w, op.apply(h))
    rhs = spaces.pairing(op.adjoint(h, w), h)
    check("integral adjoint consistency", abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs)))

    l1 = penalties.Penalty(mu=0.01, a=1.0)
    x = spaces.GridFn(space, rng.standard_normal(space.size))
    d = spaces.GridFn(space, rng.standard_normal(space.size))
    t = 1e-6
    fd = (penalties.value(l1, x + t * d) - penalties.value(l1, x - t * d)) / (2 * t)
    pred = spaces.pairing(penalties.gradient(l1, x), d)
    check("penalty gradient vs finite differences", abs(fd - pred) <= 1e-4 * (1 + abs(fd)))

    # example 5.2 on a 10x10 grid
    cfg = harness.example52_config(overrides={("problem", "nx"): 10, ("problem", "ny"): 10})
    pde, _c_dagger, y = harness.make_problem(cfg)
    c = spaces.GridFn(pde.domain_space, np.abs(rng.standard_normal(pde.domain_space.size)))
    h2 = spaces.GridFn(pde.domain_space, rng.standard_normal(pde.domain_space.size))
    w2 = spaces.GridFn(pde.range_space, rng.standard_normal(pde.range_space.size), spaces.DUAL)
    lhs = spaces.pairing(w2, pde.deriv(c, h2))
    rhs = spaces.pairing(pde.adjoint(c, w2), h2)
    check("elliptic adjoint consistency", abs(lhs - rhs) <= 1e-8 * (1 + abs(lhs)))

    check("tangential cone of the elliptic operator", estimate_eta(pde, c, 1e-4, 3) <= 1e-4)

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

    for command, experiment, about in (
            ("run", harness.run_experiment, "run a single configured experiment"),
            ("study", harness.run_study, "noise-level sweep from a config file")):
        p_cfg = sub.add_parser(command, help=about)
        p_cfg.add_argument("config", help="path to the experiment config file")
        _add_common(p_cfg)
        p_cfg.set_defaults(func=cmd_config, experiment=experiment)

    for example, experiment in (("example51", "1-D integral-equation"),
                                ("example52", "2-D elliptic")):
        p_ex = sub.add_parser(example, help=f"run the built-in {experiment} experiment")
        _add_common(p_ex)
        p_ex.set_defaults(func=cmd_example)

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
