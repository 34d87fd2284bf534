"""The package's lazy export table, the CLI's BLAS-thread pin, and the names the
benchmark's scripts read."""

import dataclasses
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nitreg

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
BENCH = Path(__file__).resolve().parent.parent / "bench"

# the public names, by the module that defines them
EXPORTS = {
    "spaces": ["GridFn", "GridSpace", "bregman_norm", "duality_map", "norm", "pairing"],
    "penalties": ["Penalty"],
    "operators": ["ForwardOp", "IntegralOp", "EllipticOp", "OperatorError"],
    "inner_cg": ["InnerProblem", "InnerSettings", "minimize"],
    "solver": ["AlphaSchedule", "StoppingRule", "NitState", "RunReport", "run", "step"],
    "harness": ["ExperimentConfig", "add_noise", "example51_config", "example52_config",
                "load_config", "run_experiment", "run_study", "spikes_1d",
                "two_inclusions_2d"],
}


def run_python(code, **env):
    """Run `code` in a fresh interpreter with no BLAS-thread variable set but
    those in `env`, and return its standard output."""
    base = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = str(Path(nitreg.__file__).resolve().parent.parent)
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, base.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


class TestExports:
    def test_import_loads_no_numpy(self):
        assert run_python("import sys, nitreg; print('numpy' in sys.modules)") == "False"

    def test_all_names_resolve_to_their_modules(self):
        assert nitreg.__all__ == [name for names in EXPORTS.values() for name in names]
        for module, names in EXPORTS.items():
            defining = importlib.import_module(f"nitreg.{module}")
            for name in names:
                assert getattr(nitreg, name) is getattr(defining, name)

    def test_submodules_resolve_after_bare_import(self):
        assert run_python("import nitreg; print(nitreg.harness.__name__, "
                          "nitreg.solver.__name__)") == "nitreg.harness nitreg.solver"

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            nitreg.no_such_name


class TestCliThreads:
    PROBE = "import os, nitreg.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"

    def test_pins_one_thread_when_none_is_set(self):
        assert run_python(self.PROBE) == "1"

    def test_keeps_the_openblas_count(self):
        assert run_python(self.PROBE, OPENBLAS_NUM_THREADS="2") == "2"

    def test_keeps_an_omp_count(self):
        # OPENBLAS_NUM_THREADS would override OMP_NUM_THREADS, so it stays unset
        assert run_python(self.PROBE, OMP_NUM_THREADS="2") == "None"


def load_bench_module(name):
    """bench/<name>.py as a module, loaded from its file without touching sys.path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchContract:
    # bench/run.py is not imported: it sets BLAS thread variables at import

    def test_instrument_patches_and_restores(self):
        layers, tracing = load_bench_module("layers"), load_bench_module("tracing")
        tracer = tracing.Tracer()
        try:
            layers.instrument(tracer)
            patches = list(tracer._patches)
        finally:
            tracer.restore()
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is original, f"{owner}.{attr} not restored"

    def test_names_read_without_patching_exist(self):
        cfg = nitreg.harness.example51_config()
        assert (cfg.delta, cfg.seed, cfg.r) == (cfg.noise.delta, cfg.noise.seed, cfg.method.r)
        assert cfg.penalty() is cfg.theta and cfg.schedule() is cfg.alpha_schedule
        assert cfg.stopping() is cfg.stopping_rule and cfg.inner_settings() is cfg.inner
        assert "threshold" in {f.name for f in dataclasses.fields(nitreg.RunReport)}
