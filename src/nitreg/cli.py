"""Command-line entry points for running and checking experiments."""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread, set before numpy loads OpenBLAS, which reads it only then:
# two threads make the small banded Cholesky factorizations about 4x slower.
# A count set in any variable OpenBLAS reads is kept; OPENBLAS_NUM_THREADS
# would override the other two.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import harness  # noqa: E402
from .harness import ConfigError  # noqa: E402

# the grids of `nitreg check`: small, so that its five runs take seconds
CHECK_GRID = {("problem", "n"): 80, ("problem", "nx"): 10, ("problem", "ny"): 10}


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
    """Run the five paper runs on small grids; exit 0 iff `harness.health` passes each."""
    failed = False
    for example in ("example51", "example52"):
        for cfg in harness.paper_configs(example, CHECK_GRID):
            op, _x_dagger, y = harness.make_problem(cfg)
            report = harness.solve(cfg, op, harness.add_noise(y, cfg.noise.delta,
                                                              cfg.noise.seed))
            ok, how = harness.health(report)
            failed |= not ok
            print(f"{'ok  ' if ok else 'FAIL'} {cfg.output.name}: {how}")
    return 1 if failed else 0


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

    p_check = sub.add_parser("check", help="check the health of the paper runs on small grids")
    p_check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (*harness.RUN_ERRORS, OSError) as exc:  # a failed run; a bug keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
