import configparser
import re
from pathlib import Path

import numpy as np
import pytest

from nitreg import cli, harness, spaces
from nitreg.harness import (
    ConfigError,
    add_noise,
    config_from_dict,
    example51_config,
    example52_config,
    load_config,
    make_problem,
    spikes_1d,
    two_inclusions_2d,
)
from nitreg.inner_cg import InnerSettings
from nitreg.operators import EllipticOp, IntegralOp
from nitreg.penalties import Penalty
from nitreg.solver import AlphaSchedule, StoppingRule
from nitreg.spaces import GridFn, GridSpace, norm

README = Path(__file__).resolve().parent.parent / "README.md"


SMALL_CONFIG = """\
[problem]
kind = integral_1d
n = 60

[exact]
selector = spikes_1d

[noise]
delta = 1e-3
seed = 3

[penalty]
mu = 1.0

[stopping]
tau = 1.05
max_outer = 40

[output]
name = tiny

[study]
deltas = 4e-3, 1e-3
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "tiny.ini"
    path.write_text(SMALL_CONFIG)
    return path


class TestConfigParsing:
    def test_load_and_defaults(self, config_file):
        cfg = load_config(config_file)
        assert cfg.problem.kind == "integral_1d"
        assert cfg.problem.n == 60
        assert cfg.delta == 1e-3
        assert cfg.schedule().kind == "geometric"  # default
        assert cfg.schedule().alpha1 == 0.5
        assert cfg.stopping().tau == 1.05
        assert cfg.study.deltas == (4e-3, 1e-3)

    def test_overrides(self, config_file):
        cfg = load_config(config_file, {("noise", "seed"): 9})
        assert cfg.seed == 9

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[noise]\ndelta = 1e-3\nsigma = 2\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config section"):
            config_from_dict({"plotting": {"style": "fancy"}})

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="bad value"):
            config_from_dict({"noise": {"delta": "tiny"}})

    def test_negative_delta_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"noise": {"delta": "-1"}})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_defaults_defined_once(self):
        cfg = config_from_dict({})
        assert cfg.penalty() == Penalty()
        assert cfg.schedule() == AlphaSchedule()
        assert cfg.stopping() == StoppingRule()
        assert cfg.inner_settings() == InnerSettings()

    def test_smallest_grids_accepted(self):
        cfg = config_from_dict({"problem": {"n": 1, "nx": 2, "ny": 2}})
        assert (cfg.problem.n, cfg.problem.nx, cfg.problem.ny) == (1, 2, 2)

    def test_readme_config_block_matches_parser(self):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        parser = configparser.ConfigParser()
        parser.read_string(block)
        raw = {s: dict(parser[s]) for s in parser.sections()}
        documented = {f"{s}.{k}" for s, kv in raw.items() for k in kv}
        defaults = config_from_dict({})
        assert documented == set(defaults.echo())
        assert config_from_dict(raw) == defaults

    def test_factory_methods_round_trip(self, config_file):
        cfg = load_config(config_file)
        assert (cfg.penalty().a, cfg.penalty().b) == (0.0, 0.0)
        assert cfg.schedule().alpha(2) == pytest.approx(0.25)
        assert cfg.stopping().tau == 1.05
        assert cfg.inner_settings().max_iters == 2000


class TestPhantoms:
    def test_spikes_values(self):
        space = GridSpace.interval(400)
        x = spikes_1d(space)
        t = space.axis_nodes(0)
        assert set(np.unique(x.values)) == {0.0, 0.5, 0.7, 1.0}
        assert np.all(x.values[(t > 0.5) & (t < 0.508)] == 1.0)
        assert np.all(x.values[t < 0.29] == 0.0)

    def test_two_inclusions_values(self):
        space = GridSpace.rectangle(40, 40)
        c = two_inclusions_2d(space)
        grid = c.values.reshape(space.dims)
        assert set(np.unique(c.values)) == {0.0, 0.5, 1.0}
        # disc center (0.3, 0.7) and rectangle center (0.7, 0.35)
        assert grid[12, 28] == 1.0
        assert grid[28, 14] == 0.5
        assert grid[0, 0] == 0.0

    def test_exact_solution_from_file(self, tmp_path):
        space = GridSpace.interval(30)
        custom = GridFn(space, np.linspace(0, 1, space.size))
        path = tmp_path / "xdag.csv"
        spaces.write_csv(custom, path)
        cfg = config_from_dict(
            {"problem": {"kind": "integral_1d", "n": 30},
             "exact": {"selector": "file", "path": str(path)}}
        )
        _op, x_dag, _y = make_problem(cfg)
        assert np.array_equal(x_dag.values, custom.values)


class TestMakeProblem:
    def test_integral_problem(self):
        cfg = example51_config("quadratic", {("problem", "n"): 50})
        op, x_dag, y = make_problem(cfg)
        assert isinstance(op, IntegralOp)
        assert np.allclose(y.values, op.apply(x_dag).values)

    def test_elliptic_problem_consistency(self):
        cfg = example52_config("quadratic",
                               overrides={("problem", "nx"): 16,
                                          ("problem", "ny"): 16})
        op, c_dag, y = make_problem(cfg)
        assert isinstance(op, EllipticOp)
        xs, ys = op.range_space.coords()
        # the exact state of the constructed problem is u = x + y
        assert np.max(np.abs(y.values - (xs + ys))) <= 1e-12


class TestAddNoise:
    def test_exact_magnitude(self):
        space = GridSpace.interval(100)
        y = GridFn(space, np.sin(2 * np.pi * space.axis_nodes(0)))
        for delta in (1e-1, 1e-4, 1e-8):
            yd = add_noise(y, delta, seed=7)
            assert abs(norm(yd - y) - delta) <= 1e-14 * max(1.0, delta)

    def test_zero_delta_returns_data(self):
        space = GridSpace.interval(10)
        y = GridFn(space, np.arange(space.size, dtype=float))
        assert add_noise(y, 0.0, seed=0) is y

    def test_seed_reproducible(self):
        space = GridSpace.interval(50)
        y = GridFn(space, np.ones(space.size))
        a = add_noise(y, 1e-2, seed=5)
        b = add_noise(y, 1e-2, seed=5)
        c = add_noise(y, 1e-2, seed=6)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_negative_delta(self):
        space = GridSpace.interval(10)
        with pytest.raises(ValueError):
            add_noise(spaces.zeros(space), -1.0, 0)


class TestRunExperiment:
    def test_emits_csv_file_set(self, tmp_path, config_file):
        cfg = load_config(config_file)
        report = harness.run_experiment(cfg, out_dir=str(tmp_path), quiet=True)
        for suffix in ("iterations", "reconstruction", "summary"):
            assert (tmp_path / f"tiny_{suffix}.csv").exists()
        text = (tmp_path / "tiny_summary.csv").read_text()
        assert f"n_delta,{report.n_delta}" in text
        assert "config.noise.delta,0.001" in text

    def test_byte_identical_reruns(self, tmp_path, config_file):
        cfg = load_config(config_file)
        harness.run_experiment(cfg, out_dir=str(tmp_path / "a"), quiet=True)
        harness.run_experiment(cfg, out_dir=str(tmp_path / "b"), quiet=True)
        for suffix in ("iterations", "reconstruction", "summary"):
            fa = (tmp_path / "a" / f"tiny_{suffix}.csv").read_bytes()
            fb = (tmp_path / "b" / f"tiny_{suffix}.csv").read_bytes()
            assert fa == fb

    def test_env_var_out_dir(self, tmp_path, config_file, monkeypatch):
        monkeypatch.setenv(harness.OUT_DIR_ENV, str(tmp_path / "env"))
        cfg = load_config(config_file)
        harness.run_experiment(cfg, quiet=True)
        assert (tmp_path / "env" / "tiny_summary.csv").exists()

    def test_explicit_dir_beats_env(self, tmp_path, config_file, monkeypatch):
        monkeypatch.setenv(harness.OUT_DIR_ENV, str(tmp_path / "env"))
        cfg = load_config(config_file)
        harness.run_experiment(cfg, out_dir=str(tmp_path / "cli"), quiet=True)
        assert (tmp_path / "cli" / "tiny_summary.csv").exists()
        assert not (tmp_path / "env" / "tiny_summary.csv").exists()


class TestRunStudy:
    def test_study_csv(self, tmp_path, config_file):
        cfg = load_config(config_file)
        rows = harness.run_study(cfg, out_dir=str(tmp_path), quiet=True)
        assert [r["delta"] for r in rows] == [4e-3, 1e-3]
        text = (tmp_path / "tiny_study.csv").read_text().splitlines()
        assert text[0].startswith("delta,n_delta,terminated_by")
        assert len(text) == 3

    def test_empty_deltas_rejected(self):
        cfg = config_from_dict({"problem": {"kind": "integral_1d", "n": 20}})
        with pytest.raises(ConfigError, match="deltas"):
            harness.run_study(cfg)


class TestBuiltinConfigs:
    def test_example51_defaults(self):
        cfg = example51_config("l2_l1")
        assert cfg.problem.n == 400
        assert cfg.delta == 5e-4
        assert cfg.stopping().tau == 1.02
        assert (cfg.penalty().a, cfg.penalty().b) == (1.0, 0.0)
        assert cfg.penalty().mu == 0.01
        assert cfg.study.deltas == (4e-3, 2e-3, 1e-3, 5e-4)

    def test_example52_defaults(self):
        cfg = example52_config("l2_tv", mu=1.0)
        assert (cfg.problem.nx, cfg.problem.ny) == (40, 40)
        assert cfg.delta == 1e-4
        assert cfg.stopping().tau == 1.05
        assert cfg.output.name == "example52_l2_tv_mu1"

    def test_unknown_penalty_rejected(self):
        with pytest.raises(ConfigError):
            example51_config("l2_tv")
        with pytest.raises(ConfigError):
            example52_config("l1")


class TestCli:
    def test_run_subcommand(self, tmp_path, config_file, capsys):
        rc = cli.main(["run", str(config_file), "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 0
        assert (tmp_path / "tiny_summary.csv").exists()

    def test_run_prints_progress(self, tmp_path, config_file, capsys):
        rc = cli.main(["run", str(config_file), "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n_delta=" in out

    def test_study_subcommand(self, tmp_path, config_file):
        rc = cli.main(["study", str(config_file), "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 0
        assert (tmp_path / "tiny_study.csv").exists()

    def test_missing_config_exit_code(self, tmp_path, capsys):
        rc = cli.main(["run", str(tmp_path / "absent.ini")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[noise]\nwobble = 1\n")
        rc = cli.main(["run", str(path)])
        assert rc == 2

    def test_penalty_kind_key_rejected(self, tmp_path, capsys):
        # the weights define the penalty; a `kind` label could contradict them
        path = tmp_path / "bad.ini"
        path.write_text("[penalty]\nkind = l2_l1\n")
        rc = cli.main(["run", str(path), "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: unknown key")

    @pytest.mark.parametrize("ini", [
        "[penalty]\nmu = -1\n",
        "[schedule]\nkind = cubic\n",
        "[schedule]\nkind = constant\n",
        "[stopping]\ntau = 0.5\n",
        "[inner]\nmax_iters = 0\n",
        "[method]\nr = 1\n",
        "[problem]\nn = 0\n",
        "[problem]\nkind = elliptic_2d\nnx = 1\n",
        "[noise]\nseed = -1\n",
        "[exact]\nselector = file\n",
        "[problem]\nkind = elliptic_2d\nnx = 4\nny = 4\n",
        "[problem]\nkind = integral_1d\n[exact]\nselector = two_inclusions_2d\n",
        "[study]\ndeltas = -1e-3 1e-3\n",
        "[stopping]\ntau = nan\n",
        "[inner]\ngrad_tol_rel = nan\n",
        "[penalty]\nmu = inf\n",
        "[study]\ndeltas = 1e-3 nan\n",
    ])
    def test_invalid_value_exit_code(self, tmp_path, capsys, ini):
        path = tmp_path / "bad.ini"
        path.write_text(ini)
        rc = cli.main(["run", str(path), "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(("error: [", "error: bad value for ["))

    @pytest.mark.parametrize("content", [None, "# dims=31 exponent=2 variance=primal\n0\n"])
    def test_unreadable_exact_path_exit_code(self, tmp_path, capsys, content):
        # a missing file, and a header without domain=
        path = tmp_path / "xdag.csv"
        if content is not None:
            path.write_text(content)
        ini = tmp_path / "run.ini"
        ini.write_text(f"[problem]\nn = 30\n[exact]\nselector = file\npath = {path}\n")
        rc = cli.main(["run", str(ini), "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: [exact]")

    def test_check_subcommand(self, capsys):
        rc = cli.main(["check"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ok   inner solver converges on a smoothed-L1 subproblem" in out
        assert "ok   inner solver converges on a TV subproblem" in out
        assert "FAIL" not in out

    def test_check_catches_wrong_elliptic_adjoint(self, capsys, monkeypatch):
        adjoint = EllipticOp.adjoint
        monkeypatch.setattr(EllipticOp, "adjoint", lambda self, c, w: -adjoint(self, c, w))
        rc = cli.main(["check"])
        assert rc == 1
        assert "FAIL elliptic adjoint consistency" in capsys.readouterr().out

    def test_seed_override(self, tmp_path, config_file):
        rc = cli.main(["run", str(config_file), "--out-dir", str(tmp_path / "s3"),
                       "--quiet"])
        rc2 = cli.main(["run", str(config_file), "--seed", "4",
                        "--out-dir", str(tmp_path / "s4"), "--quiet"])
        assert rc == rc2 == 0
        a = (tmp_path / "s3" / "tiny_summary.csv").read_text()
        b = (tmp_path / "s4" / "tiny_summary.csv").read_text()
        assert a != b
