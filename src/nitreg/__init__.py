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
from .penalties import Penalty
from .operators import EllipticOp, ForwardOp, IntegralOp, OperatorError
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
    "ForwardOp",
    "IntegralOp",
    "EllipticOp",
    "OperatorError",
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
