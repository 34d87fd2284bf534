"""Nonstationary iterated Tikhonov regularization with uniformly convex
penalties on discretized L^p spaces.

The public names are loaded from their modules on first use (PEP 562), so
`import nitreg` loads no numpy and `nitreg.cli` can set BLAS threads first."""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "spaces": "GridFn GridSpace bregman_norm duality_map norm pairing",
    "penalties": "Penalty",
    "operators": "ForwardOp IntegralOp EllipticOp OperatorError",
    "inner_cg": "InnerProblem InnerSettings minimize",
    "solver": "AlphaSchedule StoppingRule NitState RunReport run step",
    "harness": "ExperimentConfig add_noise example51_config example52_config load_config "
               "run_experiment run_study spikes_1d two_inclusions_2d",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _EXPORTS:  # a submodule, e.g. `nitreg.harness` after a bare `import nitreg`
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
