"""Nonstationary iterated Tikhonov regularization with uniformly convex
penalties on discretized L^p spaces."""

from .spaces import (
    GridFn,
    GridSpace,
    bregman_norm,
    duality_map,
    norm,
    pairing,
)
from .penalties import Penalty, l2_l1, l2_tv, quadratic
from .operators import EllipticOp, ForwardOp, IntegralOp, OperatorError, estimate_eta
from .inner_cg import InnerProblem, InnerSettings, minimize
from .solver import AlphaSchedule, NitState, RunReport, StoppingRule, run, step
from .harness import (
    ExperimentConfig,
    add_noise,
    example51_config,
    example52_config,
    load_config,
    run_experiment,
    run_study,
    spikes_1d,
    two_inclusions_2d,
)

__version__ = "0.1.0"

__all__ = [
    "GridFn",
    "GridSpace",
    "bregman_norm",
    "duality_map",
    "norm",
    "pairing",
    "Penalty",
    "quadratic",
    "l2_l1",
    "l2_tv",
    "ForwardOp",
    "IntegralOp",
    "EllipticOp",
    "OperatorError",
    "estimate_eta",
    "InnerProblem",
    "InnerSettings",
    "minimize",
    "AlphaSchedule",
    "StoppingRule",
    "NitState",
    "RunReport",
    "run",
    "step",
    "ExperimentConfig",
    "add_noise",
    "example51_config",
    "example52_config",
    "load_config",
    "run_experiment",
    "run_study",
    "spikes_1d",
    "two_inclusions_2d",
]
