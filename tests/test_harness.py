import configparser
import csv
import importlib
import pkgutil
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nitreg
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
from nitreg.operators import EllipticOp, IntegralOp, OperatorError
from nitreg.penalties import Penalty
from nitreg.solver import AlphaSchedule, StoppingRule
from nitreg.spaces import GridFn, GridSpace, norm

README = Path(__file__).resolve().parent.parent / "README.md"


SMALL_CONFIG = """\
[problem]
kind = integral_1d
n = 60

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
        assert cfg.noise.delta == 1e-3
        assert cfg.alpha_schedule.alpha1 == 0.5
        assert cfg.stopping_rule.tau == 1.05
        assert cfg.study.deltas == (4e-3, 1e-3)

    def test_overrides(self, config_file):
        cfg = load_config(config_file, {("noise", "seed"): 9})
        assert cfg.noise.seed == 9

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
        assert cfg.theta == Penalty()
        assert cfg.alpha_schedule == AlphaSchedule()
        assert cfg.stopping_rule == StoppingRule()
        assert cfg.inner == InnerSettings()

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

    def test_readme_library_block_runs(self, capsys):
        block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
        exec(compile(block, str(README), "exec"), {})
        n_delta, residual = capsys.readouterr().out.split()
        assert int(n_delta) > 0 and float(residual) <= 1.02 * 5e-4

    def test_readme_names_only_what_exists(self):
        # every backticked dotted name that starts with a nitreg module or an exported name
        # resolves, and README stays a short user's guide
        text = README.read_text()
        modules = {m.name for m in pkgutil.iter_modules(nitreg.__path__)}
        checked = []
        for name in re.findall(r"`([A-Za-z_][\w.]*\.\w+)`", text):
            head, *attributes = name.removeprefix("nitreg.").split(".")
            if head in modules:
                obj = importlib.import_module(f"nitreg.{head}")
            elif head in nitreg.__all__:
                obj = getattr(nitreg, head)
            else:
                continue
            for attribute in attributes:
                assert hasattr(obj, attribute), f"README names {name}, which does not exist"
                obj = getattr(obj, attribute)
            checked.append(name)
        assert "harness.health" in checked
        assert len(text.splitlines()) <= 200

    def test_factory_methods_round_trip(self, config_file):
        cfg = load_config(config_file)
        assert (cfg.theta.a, cfg.theta.b) == (0.0, 0.0)
        assert cfg.alpha_schedule.alpha(2) == pytest.approx(0.25)
        assert cfg.stopping_rule.tau == 1.05
        assert cfg.inner.max_iters == 2000


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

    def test_explicit_dir_beats_config_dir(self, tmp_path, config_file):
        cfg = load_config(config_file, {("output", "dir"): tmp_path / "ini"})
        harness.run_experiment(cfg, out_dir=str(tmp_path / "cli"), quiet=True)
        assert (tmp_path / "cli" / "tiny_summary.csv").exists()
        assert not (tmp_path / "ini").exists()
        harness.run_experiment(cfg, quiet=True)
        assert (tmp_path / "ini" / "tiny_summary.csv").exists()

    def test_every_row_has_the_header_width(self, tmp_path, config_file, monkeypatch):
        # a tuple setting and an error message with a comma stay one field each
        cfg = load_config(config_file)
        harness.run_experiment(cfg, out_dir=str(tmp_path), quiet=True)
        solve, message = harness.solve, "values shape (5,) does not match (61,)"

        def failing_solve(cfg, op, ydelta):
            if cfg.noise.delta < 2e-3:
                raise ValueError(message)
            return solve(cfg, op, ydelta)

        monkeypatch.setattr(harness, "solve", failing_solve)
        harness.run_study(cfg, out_dir=str(tmp_path), quiet=True)
        tables = {}
        for suffix in ("iterations", "reconstruction", "summary", "study"):
            with open(tmp_path / f"tiny_{suffix}.csv", newline="") as fh:
                tables[suffix] = [row for row in csv.reader(fh) if not row[0].startswith("#")]
            assert {len(row) for row in tables[suffix]} == {len(tables[suffix][0])}, suffix
        assert tables["study"][2][-1] == message
        deltas = dict(tables["summary"])["config.study.deltas"]
        assert deltas == "0.0040000000000000001 0.001"
        assert harness._floats(deltas) == cfg.study.deltas


class TestRunStudy:
    def test_study_csv(self, tmp_path, config_file):
        cfg = load_config(config_file)
        rows = harness.run_study(cfg, out_dir=str(tmp_path), quiet=True)
        assert [r["delta"] for r in rows] == [4e-3, 1e-3]
        text = (tmp_path / "tiny_study.csv").read_text().splitlines()
        assert text[0] == ("delta,n_delta,terminated_by,residual,l2_error,"
                           "theta_value,bregman_to_ref,error_message")
        assert len(text) == 3

    def test_empty_deltas_rejected(self):
        cfg = config_from_dict({"problem": {"kind": "integral_1d", "n": 20}})
        with pytest.raises(ConfigError, match="deltas"):
            harness.run_study(cfg)

    def test_rows_sorted_and_trends(self, tmp_path, config_file):
        cfg = load_config(config_file)
        cfg = replace(cfg, study=replace(cfg.study, deltas=(1e-3, 4e-3, 2e-3)))
        rows = harness.run_study(cfg, out_dir=str(tmp_path), quiet=True)
        assert [r["delta"] for r in rows] == [4e-3, 2e-3, 1e-3]
        n_deltas = [r["n_delta"] for r in rows]
        assert all(b >= a for a, b in zip(n_deltas, n_deltas[1:]))

    def test_per_delta_failure_is_captured(self, tmp_path, config_file, monkeypatch):
        add = harness.add_noise

        def flaky_noise(y, delta, seed):
            if delta < 2e-3:
                raise OperatorError("data source unavailable")
            return add(y, delta, seed)

        monkeypatch.setattr(harness, "add_noise", flaky_noise)
        rows = harness.run_study(load_config(config_file), out_dir=str(tmp_path),
                                 quiet=True)
        assert "n_delta" in rows[0] and "error_message" not in rows[0]
        assert rows[1] == {"delta": 1e-3, "error_message": "data source unavailable"}
        lines = (tmp_path / "tiny_study.csv").read_text().splitlines()
        assert lines[2] == "0.001," + "," * 6 + "data source unavailable"

    def test_programming_error_propagates(self, tmp_path, config_file, monkeypatch):
        # only the errors a run can raise become rows; a bug stops the study
        def broken_noise(y, delta, seed):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(harness, "add_noise", broken_noise)
        with pytest.raises(TypeError, match="unsupported operand"):
            harness.run_study(load_config(config_file), out_dir=str(tmp_path), quiet=True)

    def test_study_row_matches_summary(self, tmp_path, config_file):
        # a study row reports the same result, in the same order and format,
        # as the summary CSV of the run at that noise level
        cfg = load_config(config_file)
        harness.run_experiment(cfg, out_dir=str(tmp_path), quiet=True)
        cfg = replace(cfg, study=replace(cfg.study, deltas=(cfg.noise.delta,)))
        harness.run_study(cfg, out_dir=str(tmp_path), quiet=True)
        summary = (tmp_path / "tiny_summary.csv").read_text().splitlines()[1:7]
        header, row = (tmp_path / "tiny_study.csv").read_text().splitlines()
        study = list(zip(header.split(","), row.split(",")))[1:7]
        assert study == [tuple(line.split(",")) for line in summary]


class TestBuiltinConfigs:
    def test_example51_defaults(self):
        cfg = example51_config("l2_l1")
        assert cfg.problem.n == 400
        assert cfg.noise.delta == 5e-4
        assert cfg.stopping_rule.tau == 1.02
        assert (cfg.theta.a, cfg.theta.b) == (1.0, 0.0)
        assert cfg.theta.mu == 0.01
        assert cfg.study.deltas == (4e-3, 2e-3, 1e-3, 5e-4)

    def test_example52_defaults(self):
        cfg = example52_config("l2_tv", mu=1.0)
        assert (cfg.problem.nx, cfg.problem.ny) == (40, 40)
        assert cfg.noise.delta == 1e-4
        assert cfg.stopping_rule.tau == 1.05
        assert cfg.output.name == "example52_l2_tv_mu1"

    def test_paper_configs(self):
        names = [c.output.name for e in ("example51", "example52")
                 for c in harness.paper_configs(e)]
        assert names == ["example51_quadratic", "example51_l2_l1", "example52_quadratic",
                         "example52_l2_tv_mu0.01", "example52_l2_tv_mu1"]
        with pytest.raises(ConfigError):
            harness.paper_configs("example53")

    def test_unknown_penalty_rejected(self):
        with pytest.raises(ConfigError):
            example51_config("l2_tv")
        with pytest.raises(ConfigError):
            example52_config("l1")

    @pytest.mark.parametrize("example", ["example51", "example52"])
    def test_exact_data_stagnates_on_every_route(self, example):
        # delta = 0 on the `nitreg check` grids: no residual reaches atol_zero, so each
        # paper run ends when no step moves x, every inner solve converged, and returns the
        # iterate of smallest residual, with no warning on the way
        for cfg in harness.paper_configs(example, {**cli.CHECK_GRID, ("noise", "delta"): 0.0}):
            op, _x_dagger, y = make_problem(cfg)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = harness.solve(cfg, op, y)
            assert report.terminated_by == "stagnation", cfg.output.name
            assert all(s.inner_stats.converged for s in report.states[1:]), cfg.output.name
            assert report.n_delta == np.argmin(report.residuals), cfg.output.name


class TestCli:
    def test_run_subcommand(self, tmp_path, config_file, capsys):
        rc = cli.main(["run", str(config_file), "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 0
        assert (tmp_path / "tiny_summary.csv").exists()

    def test_elliptic_kind_alone_runs(self, tmp_path, capsys):
        # the problem kind selects its exact solution: no other section is needed
        path = tmp_path / "run.ini"
        path.write_text("[problem]\nkind = elliptic_2d\nnx = 4\nny = 4\n")
        rc = cli.main(["run", str(path), "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 0
        assert all((tmp_path / f"run_{table}.csv").exists()
                   for table in ("iterations", "reconstruction", "summary"))

    def test_healthy_run_writes_nothing_to_stderr(self, tmp_path, config_file, capsys):
        rc = cli.main(["run", str(config_file), "--out-dir", str(tmp_path)])
        assert rc == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("quiet", [[], ["--quiet"]])
    def test_unhealthy_run_warns(self, tmp_path, capsys, quiet):
        # one Newton iteration per inner solve: the run still meets the
        # discrepancy principle, with no inner solve converged
        path = tmp_path / "capped.ini"
        path.write_text("[problem]\nn = 80\n[penalty]\nmu = 0.01\na = 1\n"
                        "[inner]\nmax_iters = 1\n[output]\nname = capped\n")
        rc = cli.main(["run", str(path), "--out-dir", str(tmp_path), *quiet])
        assert rc == 0
        assert capsys.readouterr().err == ("warning: capped is not healthy: "
                                           "terminated_by=discrepancy n_delta=19 converged=0/19\n")
        assert all((tmp_path / f"capped_{table}.csv").exists()
                   for table in ("iterations", "reconstruction", "summary"))

    @pytest.mark.parametrize("inner", ["[inner]\nmax_iters = 1\n", ""], ids=["capped", "healthy"])
    def test_study_warns_of_each_unhealthy_delta(self, tmp_path, capsys, inner):
        # the warnings change neither the exit code nor the study CSV
        path = tmp_path / "study.ini"
        path.write_text("[problem]\nn = 80\n[penalty]\nmu = 0.01\na = 1\n" + inner
                        + "[study]\ndeltas = 1e-3 5e-4\n[output]\nname = study\n")
        rc = cli.main(["study", str(path), "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 0
        err = capsys.readouterr().err
        if inner:
            assert err.splitlines() == [
                "warning: study at delta=0.001 is not healthy: "
                "terminated_by=discrepancy n_delta=18 converged=0/18",
                "warning: study at delta=0.0005 is not healthy: "
                "terminated_by=discrepancy n_delta=19 converged=0/19"]
        else:
            assert err == ""
        assert len((tmp_path / "study_study.csv").read_text().splitlines()) == 3

    def test_health(self):
        cfg = harness.example51_config("l2_l1", {("problem", "n"): 80})
        op, _x_dagger, y = harness.make_problem(cfg)
        ydelta = harness.add_noise(y, cfg.noise.delta, cfg.noise.seed)
        report = harness.solve(cfg, op, ydelta)
        ok, how = harness.health(report)
        n = len(report.states) - 1
        assert ok and how == f"terminated_by=discrepancy n_delta={n} converged={n}/{n}"
        for kind in ("max_outer", "inner_failure", "stagnation"):
            assert not harness.health(replace(report, terminated_by=kind))[0]
        assert harness.health(replace(report, terminated_by="rule41"))[0]

    def test_run_prints_progress(self, tmp_path, config_file, capsys):
        rc = cli.main(["run", str(config_file), "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "n_delta=" in out

    def test_study_subcommand(self, tmp_path, config_file):
        rc = cli.main(["study", str(config_file), "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 0
        assert (tmp_path / "tiny_study.csv").exists()

    def test_example51_subcommand(self, tmp_path):
        rc = cli.main(["example51", "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            f"example51_{penalty}_{table}.csv" for penalty in ("quadratic", "l2_l1")
            for table in ("iterations", "reconstruction", "summary"))

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
        "[problem]\nkind = integral_1d\n[exact]\nselector = two_inclusions_2d\n",
        "[problem]\nkind = elliptic_2d\n[exact]\nselector = spikes_1d\n",
        "[exact]\nselector = zero\n",
        "[exact]\nselector = spikes_1d\n",
        "[exact]\npath = x.csv\n",
        "[schedule]\nkind = geometric\n",
        "[schedule]\nkind = harmonic\n",
        "[study]\ndeltas = -1e-3 1e-3\n",
        "[stopping]\ntau = nan\n",
        "[inner]\ngrad_tol_rel = nan\n",
        "[penalty]\nmu = inf\n",
        "[study]\ndeltas = 1e-3 nan\n",
        "[output]\nname =\n",
        "[output]\nname = sub/run\n",
        "[noise]\ndelta = 0\n[stopping]\natol_zero = -1\n",
    ])
    def test_invalid_value_exit_code(self, tmp_path, capsys, ini):
        path = tmp_path / "bad.ini"
        path.write_text(ini)
        rc = cli.main(["run", str(path), "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 2
        # the removed settings [exact] and [schedule] kind are an unknown section and key
        assert capsys.readouterr().err.startswith((
            "error: [", "error: bad value for [", "error: unknown config section [exact]",
            "error: unknown key [schedule] kind"))

    @pytest.mark.parametrize("ini, rc", [
        (b"[noise]\ndelta = 1e-3\ndelta = 2e-3\n", 2),
        (b"[noise]\ndelta = 1e-3\n[noise]\nseed = 2\n", 2),
        (b"delta = 1e-3\n", 2),
        (b"[noise]\ndelta = 1e-3\xff\n", 2),
        (b"[problem]\nn = 30\n[output]\nname = run%1\n", 0),
    ])
    def test_malformed_ini_exit_code(self, tmp_path, capsys, ini, rc):
        # duplicate key, duplicate section, no section header, not UTF-8; a `%` is text
        path = tmp_path / "run.ini"
        path.write_bytes(ini)
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path), "--quiet"]) == rc
        if rc == 2:
            assert capsys.readouterr().err.startswith(f"error: config file {path}")
        else:
            assert (tmp_path / "run%1_summary.csv").exists()

    @pytest.mark.parametrize("command", ["run", "study"])
    def test_uncreatable_out_dir_exit_code(self, tmp_path, config_file, capsys, monkeypatch,
                                           command):
        # the directory is created before the problem is built and solved
        def no_problem(cfg):
            raise AssertionError("the problem was built")

        monkeypatch.setattr(harness, "make_problem", no_problem)
        out = tmp_path / "taken"
        out.write_text("")
        rc = cli.main([command, str(config_file), "--out-dir", str(out), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: output directory {str(out)!r}")

    def test_failed_run_exit_code(self, tmp_path, config_file, capsys, monkeypatch):
        def failing_solve(cfg, op, ydelta):
            raise OperatorError("solve diverged")

        monkeypatch.setattr(harness, "solve", failing_solve)
        rc = cli.main(["run", str(config_file), "--out-dir", str(tmp_path), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err == "error: solve diverged\n"

    def test_programming_error_propagates(self, tmp_path, config_file, monkeypatch):
        # only the errors a run can raise become `error: ...`; a bug keeps its traceback
        def broken_noise(y, delta, seed):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(harness, "add_noise", broken_noise)
        with pytest.raises(TypeError, match="unsupported operand"):
            cli.main(["run", str(config_file), "--out-dir", str(tmp_path), "--quiet"])

    def test_check_subcommand(self, capsys):
        rc = cli.main(["check"])
        out = capsys.readouterr().out
        assert rc == 0
        for example in ("example51", "example52"):
            for cfg in harness.paper_configs(example):
                assert f"ok   {cfg.output.name}: terminated_by=discrepancy" in out
        assert "FAIL" not in out

    def test_check_catches_wrong_elliptic_adjoint(self, capsys, monkeypatch):
        linearized = EllipticOp.linearized

        def negated(self, c):
            fc, deriv, adjoint = linearized(self, c)
            return fc, deriv, lambda w: -adjoint(w)

        monkeypatch.setattr(EllipticOp, "linearized", negated)
        rc = cli.main(["check"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL example52_quadratic" in out
        assert "ok   example51_quadratic" in out and "ok   example51_l2_l1" in out

    def test_seed_override(self, tmp_path, config_file):
        rc = cli.main(["run", str(config_file), "--out-dir", str(tmp_path / "s3"),
                       "--quiet"])
        rc2 = cli.main(["run", str(config_file), "--seed", "4",
                        "--out-dir", str(tmp_path / "s4"), "--quiet"])
        assert rc == rc2 == 0
        a = (tmp_path / "s3" / "tiny_summary.csv").read_text()
        b = (tmp_path / "s4" / "tiny_summary.csv").read_text()
        assert a != b
