"""Experiment layer: problem construction (each problem kind has its one exact
solution), exact-magnitude noise synthesis, config files, and CSV report emission."""

from __future__ import annotations

import configparser
import csv
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import penalties, solver
from .inner_cg import InnerProblem, InnerSettings
from .operators import EllipticOp, ForwardOp, IntegralOp, OperatorError
from .penalties import Penalty
from .solver import AlphaSchedule, RunReport, StoppingRule
from .spaces import GridFn, GridSpace, norm


class ConfigError(ValueError):
    pass


# what a failed run raises: an operator failure, a value out of range, a singular system
RUN_ERRORS = (OperatorError, ValueError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class Problem:
    kind: str = "integral_1d"
    n: int = 400  # 1-D grid intervals
    nx: int = 40  # 2-D grid intervals
    ny: int = 40

    def __post_init__(self):
        if self.kind not in ("integral_1d", "elliptic_2d"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if not 1 <= self.n < np.inf:
            raise ValueError("n must be >= 1")
        if not (2 <= self.nx < np.inf and 2 <= self.ny < np.inf):
            raise ValueError("nx and ny must be >= 2")


@dataclass(frozen=True)
class Noise:
    delta: float = 5e-4  # exact perturbation magnitude ||y - y^d||
    seed: int = 1

    def __post_init__(self):
        if not 0.0 <= self.delta < np.inf:
            raise ValueError("delta must be >= 0")
        if not 0 <= self.seed < np.inf:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class Method:
    r: float = InnerProblem.r  # data-fit exponent

    def __post_init__(self):
        if not 1.0 < self.r < np.inf:
            raise ValueError("r must be > 1")


@dataclass(frozen=True)
class Output:
    dir: str = "."
    name: str = "run"  # file-name stem of the CSVs written into dir

    def __post_init__(self):
        if not self.name or Path(self.name).name != self.name:
            raise ValueError("name must be a non-empty file name without a directory, "
                             f"got {self.name!r}")


@dataclass(frozen=True)
class Study:
    deltas: tuple[float, ...] = ()  # noise levels of `nitreg study`

    def __post_init__(self):
        if not all(0.0 <= d < np.inf for d in self.deltas):
            raise ValueError("deltas must be >= 0")


def _section(name: str):
    """Field for an INI section whose name a method of the config already uses."""
    return field(metadata={"section": name})


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed experiment config: one frozen object per INI section.

    A field's name is its section's name unless its metadata says otherwise;
    the field order is the order of `echo()`.
    """

    problem: Problem
    noise: Noise
    method: Method
    alpha_schedule: AlphaSchedule = _section("schedule")
    stopping_rule: StoppingRule = _section("stopping")
    theta: Penalty = _section("penalty")
    inner: InnerSettings
    output: Output
    study: Study

    def echo(self) -> dict:
        """Every setting, keyed `section.key` by its INI name."""
        return {
            f"{section}.{key}": value
            for attr, section in _section_names()
            for key, value in asdict(getattr(self, attr)).items()
        }

    # Accessors read only by `bench/`; ROADMAP item 1's benchmark change deletes them.
    @property
    def delta(self) -> float:
        return self.noise.delta

    @property
    def seed(self) -> int:
        return self.noise.seed

    @property
    def r(self) -> float:
        return self.method.r

    def penalty(self) -> Penalty:
        return self.theta

    def schedule(self) -> AlphaSchedule:
        return self.alpha_schedule

    def stopping(self) -> StoppingRule:
        return self.stopping_rule

    def inner_settings(self) -> InnerSettings:
        return self.inner


def _section_names() -> list[tuple[str, str]]:
    """(field name, INI section name) of each config section, in field order."""
    return [(f.name, f.metadata.get("section", f.name)) for f in fields(ExperimentConfig)]


def _float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _floats(text: str) -> tuple[float, ...]:
    return tuple(_float(tok) for tok in text.replace(",", " ").split())


def _parse_section(section: str, cls, got: dict):
    """Build one section object from its `key: text` pairs; unset keys keep
    the dataclass defaults, and the dataclass validates the result."""
    types = get_type_hints(cls)
    kwargs = {}
    for key, text in got.items():
        if key not in types:
            raise ConfigError(f"unknown key [{section}] {key}")
        parse = {str: str, int: int, float: _float}.get(types[key], _floats)
        try:
            kwargs[key] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {text!r}") from exc
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


def config_from_dict(raw: dict, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from `{section: {key: value}}`; values may be text or
    numbers, and `overrides` maps `(section, key)` to a replacement value."""
    raw = {s: {k: str(v) for k, v in kv.items()} for s, kv in raw.items()}
    for (section, key), val in (overrides or {}).items():
        raw.setdefault(section, {})[key] = str(val)
    types = get_type_hints(ExperimentConfig)
    sections = {
        attr: _parse_section(section, types[attr], raw.pop(section, {}))
        for attr, section in _section_names()
    }
    if raw:
        raise ConfigError(f"unknown config section [{next(iter(raw))}]")
    return ExperimentConfig(**sections)


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse an experiment config (INI-style sections of key = value)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is malformed: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    raw = {section: dict(parser[section]) for section in parser.sections()}
    return config_from_dict(raw, overrides)


def spikes_1d(space: GridSpace) -> GridFn:
    """Three narrow plateaus of heights 0.5 / 1 / 0.7 on a zero background."""
    t = space.axis_nodes(0)
    v = np.zeros_like(t)
    v[(t >= 0.292) & (t <= 0.300)] = 0.5
    v[(t >= 0.500) & (t <= 0.508)] = 1.0
    v[(t >= 0.700) & (t <= 0.708)] = 0.7
    return GridFn(space, v)


def two_inclusions_2d(space: GridSpace) -> GridFn:
    """A disc of height 1 and a rectangle of height 0.5 on a zero background."""
    x, y = space.coords()
    v = np.zeros(space.size)
    v[(x - 0.3) ** 2 + (y - 0.7) ** 2 <= 0.2**2] = 1.0
    rect = (x >= 0.6) & (x <= 0.8) & (y >= 0.2) & (y <= 0.5)
    v[rect] = 0.5
    return GridFn(space, v)


def make_problem(cfg: ExperimentConfig) -> tuple[ForwardOp, GridFn, GridFn]:
    """Construct (operator, exact solution, exact data y = F(x_dagger)); the exact
    solution is the paper's for the kind: spikes (ex. 5.1) or two inclusions (ex. 5.2)."""
    prob = cfg.problem
    if prob.kind == "integral_1d":
        op = IntegralOp(prob.n)
        x_dag = spikes_1d(op.domain_space)
        return op, x_dag, op.apply(x_dag)
    # elliptic_2d: state u = x + y is harmonic, so the consistent source for
    # -Lap(u) + c u = f with u = x + y is f = c_dagger * (x + y), g = x + y.
    space = GridSpace.rectangle(prob.nx, prob.ny)
    c_dag = two_inclusions_2d(space)
    x, y = space.coords()
    u_exact = x + y
    op = EllipticOp(prob.nx, prob.ny, f=c_dag.values * u_exact, g=u_exact)
    return op, c_dag, op.apply(c_dag)


def add_noise(y: GridFn, delta: float, seed: int) -> GridFn:
    """Return noisy data at exactly the requested distance from y.

    The perturbation is a seeded Gaussian direction rescaled so that
    ||y - y_noisy|| = delta in the weighted norm of y's space.
    """
    if not 0.0 <= delta < np.inf:
        raise ValueError("delta must be >= 0 and finite")
    if delta == 0.0:
        return y
    e = np.random.default_rng(seed).standard_normal(y.space.size)
    nrm = norm(GridFn(y.space, e, y.variance))
    return GridFn(y.space, y.values + delta * e / nrm, y.variance)


def _fmt(v) -> str:
    """A float as `%.17g`; a tuple as its items separated by spaces, as in the INI."""
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, tuple):
        return " ".join(_fmt(item) for item in v)
    return str(v)


def _write_table(path, columns, rows, comment: str | None = None) -> None:
    """CSV with an optional `# comment` line, a column line, then the rows."""
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(v) for v in row] for row in rows)


RESULT_KEYS = ("n_delta", "terminated_by", "residual", "l2_error", "theta_value", "bregman_to_ref")


def summary(report: RunReport, theta: Penalty, x_dagger: GridFn) -> dict:
    """What a run reached: its result at the returned iterate n_delta."""
    final = report.states[report.n_delta]
    return dict(zip(RESULT_KEYS, (
        report.n_delta, report.terminated_by, final.residual, norm(final.x - x_dagger),
        final.theta_value, penalties.bregman(theta, x_dagger, final.x, final.xi))))


def health(report: RunReport) -> tuple[bool, str]:
    """Whether a run stopped by its rule with every inner solve converged, and how it ended."""
    converged = [s.inner_stats.converged for s in report.states[1:]]
    return (report.terminated_by in ("discrepancy", "rule41") and all(converged),
            f"terminated_by={report.terminated_by} n_delta={report.n_delta} "
            f"converged={sum(converged)}/{len(converged)}")


def _warn_if_unhealthy(label: str, report: RunReport) -> None:
    healthy, how = health(report)
    if not healthy:
        print(f"warning: {label} is not healthy: {how}", file=sys.stderr)


def write_iteration_csv(path, report: RunReport, theta: Penalty, x_ref: GridFn) -> None:
    breg = solver.diagnostics_bregman(report, theta, x_ref)
    rows = (
        (s.n, s.alpha if s.alpha is not None else float("nan"), s.residual,
         s.theta_value, d, s.inner_stats.iterations if s.inner_stats else 0)
        for s, d in zip(report.states, breg)
    )
    comment = (f"n_delta={report.n_delta} terminated_by={report.terminated_by} "
               f"delta={_fmt(report.delta)} tau={_fmt(report.tau)}")
    cols = ["n", "alpha", "residual", "theta_value", "bregman_to_ref", "inner_iters"]
    _write_table(path, cols, rows, comment)


def write_reconstruction_csv(path, x: GridFn) -> None:
    coords = x.space.coords()
    headers = ["t"] if len(coords) == 1 else ["x", "y"]
    _write_table(path, headers + ["value"], zip(*coords, x.values))


def write_summary_csv(path, report: RunReport, theta: Penalty, x_dagger: GridFn) -> None:
    rows = [*summary(report, theta, x_dagger).items(),
            *((f"config.{k}", v) for k, v in report.config.items())]
    _write_table(path, ["key", "value"], rows)


def resolve_out_dir(cfg: ExperimentConfig, out_dir: str | None = None) -> Path:
    path = Path(out_dir or cfg.output.dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {str(path)!r} cannot be created: {exc}") from exc
    return path


def solve(cfg: ExperimentConfig, op: ForwardOp, ydelta: GridFn) -> RunReport:
    """Run the method on data ydelta at cfg's noise level, with cfg's settings."""
    return solver.run(op, cfg.theta, ydelta, cfg.noise.delta, cfg.alpha_schedule,
                      cfg.stopping_rule, cfg.inner, r=cfg.method.r, config=cfg.echo())


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   quiet: bool = False) -> RunReport:
    """Run a configured experiment, emit the CSV file set, and warn if it is not healthy."""
    base = resolve_out_dir(cfg, out_dir) / cfg.output.name
    op, x_dag, y_exact = make_problem(cfg)
    report = solve(cfg, op, add_noise(y_exact, cfg.noise.delta, cfg.noise.seed))
    write_iteration_csv(f"{base}_iterations.csv", report, cfg.theta, x_dag)
    write_reconstruction_csv(f"{base}_reconstruction.csv", report.x_out)
    write_summary_csv(f"{base}_summary.csv", report, cfg.theta, x_dag)
    _warn_if_unhealthy(cfg.output.name, report)
    if not quiet:
        result = summary(report, cfg.theta, x_dag)
        print(f"{cfg.output.name}: n_delta={result['n_delta']} "
              f"terminated_by={result['terminated_by']} "
              f"residual={result['residual']:.6g} "
              f"l2_error={result['l2_error']:.6g}")
    return report


def run_study(cfg: ExperimentConfig, out_dir: str | None = None,
              quiet: bool = False) -> list[dict]:
    """Noise-level sweep: one full run per delta, largest delta first, and one
    CSV table out.  A delta whose run fails (an operator, value or linear
    algebra error) gets an `error_message` and the sweep goes on; a run that
    is not healthy is warned of on stderr, as by `run_experiment`."""
    if not cfg.study.deltas:
        raise ConfigError("[study] deltas is empty; nothing to sweep")
    directory = resolve_out_dir(cfg, out_dir)
    op, x_dag, y_exact = make_problem(cfg)
    rows = []
    for d in sorted(cfg.study.deltas, reverse=True):
        try:
            report = solve(replace(cfg, noise=replace(cfg.noise, delta=d)), op,
                           add_noise(y_exact, d, cfg.noise.seed))
            rows.append({"delta": d, **summary(report, cfg.theta, x_dag)})
            _warn_if_unhealthy(f"{cfg.output.name} at delta={d}", report)
        except RUN_ERRORS as exc:
            rows.append({"delta": d, "error_message": str(exc)})
    cols = ["delta", *RESULT_KEYS, "error_message"]
    _write_table(directory / f"{cfg.output.name}_study.csv", cols,
                 ([row.get(c, "") for c in cols] for row in rows))
    if not quiet:
        for row in rows:
            print(row)
    return rows


def example51_config(penalty: str = "l2_l1",
                     overrides: dict | None = None) -> ExperimentConfig:
    """Built-in config for the 1-D integral-equation experiment."""
    if penalty == "l2_l1":
        theta = {"mu": 0.01, "a": 1.0}
    elif penalty == "quadratic":
        theta = {}
    else:
        raise ConfigError(f"unsupported example51 penalty {penalty!r}")
    raw = {
        "penalty": theta,
        "output": {"name": f"example51_{penalty}"},
        "study": {"deltas": "4e-3 2e-3 1e-3 5e-4"},
    }
    return config_from_dict(raw, overrides)


def example52_config(penalty: str = "l2_tv", mu: float = 0.01,
                     overrides: dict | None = None) -> ExperimentConfig:
    """Built-in config for the 2-D elliptic parameter-identification experiment."""
    if penalty == "l2_tv":
        theta, name = {"mu": mu, "b": 1.0}, f"example52_l2_tv_mu{mu:g}"
    elif penalty == "quadratic":
        theta, name = {}, "example52_quadratic"
    else:
        raise ConfigError(f"unsupported example52 penalty {penalty!r}")
    raw = {
        "problem": {"kind": "elliptic_2d"},
        "noise": {"delta": 1e-4},
        "stopping": {"tau": 1.05},
        "penalty": theta,
        "output": {"name": name},
        "study": {"deltas": "1e-3 3e-4 1e-4"},
    }
    return config_from_dict(raw, overrides)


def paper_configs(example: str, overrides: dict | None = None) -> list[ExperimentConfig]:
    """The paper's runs of `example` (example51 or example52), in the order
    `nitreg <example>` runs them."""
    if example == "example51":
        return [example51_config(penalty, overrides) for penalty in ("quadratic", "l2_l1")]
    if example == "example52":
        return [example52_config("quadratic", overrides=overrides),
                *(example52_config("l2_tv", mu, overrides) for mu in (0.01, 1.0))]
    raise ConfigError(f"unknown paper example {example!r}")
