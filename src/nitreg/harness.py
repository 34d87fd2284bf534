"""Experiment layer: problem construction, exact-magnitude noise synthesis,
config files, and CSV report emission."""

from __future__ import annotations

import configparser
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import penalties, solver
from .inner_cg import InnerProblem, InnerSettings
from .operators import EllipticOp, ForwardOp, IntegralOp
from .penalties import Penalty
from .solver import AlphaSchedule, RunReport, StoppingRule
from .spaces import GridFn, GridSpace, norm, primal, read_csv

OUT_DIR_ENV = "NITREG_OUT_DIR"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Problem:
    kind: str = "integral_1d"
    n: int = 400  # 1-D grid intervals
    nx: int = 40  # 2-D grid intervals
    ny: int = 40

    def __post_init__(self):
        if self.kind not in ("integral_1d", "elliptic_2d"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("nx and ny must be >= 2")


@dataclass(frozen=True)
class Exact:
    selector: str = "spikes_1d"
    path: str = ""  # CSV path when selector = file

    def __post_init__(self):
        if self.selector not in ("spikes_1d", "two_inclusions_2d", "zero", "file"):
            raise ValueError(f"unknown exact-solution selector {self.selector!r}")
        if self.selector == "file" and not self.path:
            raise ValueError("selector = file needs a path")


# Problem kind each built-in exact solution is defined on.
SELECTOR_KINDS = {"spikes_1d": "integral_1d", "two_inclusions_2d": "elliptic_2d"}


@dataclass(frozen=True)
class Noise:
    delta: float = 5e-4  # exact perturbation magnitude ||y - y^d||
    seed: int = 1

    def __post_init__(self):
        if self.delta < 0.0:
            raise ValueError("delta must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class Method:
    r: float = InnerProblem.r  # data-fit exponent

    def __post_init__(self):
        if self.r <= 1.0:
            raise ValueError("r must be > 1")


@dataclass(frozen=True)
class Output:
    dir: str = "."
    name: str = "run"


@dataclass(frozen=True)
class Study:
    deltas: tuple[float, ...] = ()  # noise levels of `nitreg study`

    def __post_init__(self):
        if any(d < 0.0 for d in self.deltas):
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
    exact: Exact
    noise: Noise
    method: Method
    alpha_schedule: AlphaSchedule = _section("schedule")
    stopping_rule: StoppingRule = _section("stopping")
    theta: Penalty = _section("penalty")
    inner: InnerSettings
    output: Output
    study: Study

    @property
    def delta(self) -> float:
        return self.noise.delta

    @property
    def seed(self) -> int:
        return self.noise.seed

    @property
    def r(self) -> float:
        return self.method.r

    def echo(self) -> dict:
        """Every setting, keyed `section.key` by its INI name."""
        return {
            f"{section}.{key}": value
            for attr, section in _section_names()
            for key, value in asdict(getattr(self, attr)).items()
        }

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
    selector, kind = sections["exact"].selector, sections["problem"].kind
    if SELECTOR_KINDS.get(selector, kind) != kind:
        raise ConfigError(f"[exact] selector = {selector} needs [problem] kind = "
                          f"{SELECTOR_KINDS[selector]}, not {kind}")
    return ExperimentConfig(**sections)


def load_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """Parse an experiment config (INI-style sections of key = value)."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
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
    return primal(space, v)


def two_inclusions_2d(space: GridSpace) -> GridFn:
    """A disc of height 1 and a rectangle of height 0.5 on a zero background."""
    x, y = space.coords()
    v = np.zeros(space.size)
    v[(x - 0.3) ** 2 + (y - 0.7) ** 2 <= 0.2**2] = 1.0
    rect = (x >= 0.6) & (x <= 0.8) & (y >= 0.2) & (y <= 0.5)
    v[rect] = 0.5
    return primal(space, v)


def exact_solution(exact: Exact, space: GridSpace) -> GridFn:
    sel = exact.selector
    if sel == "spikes_1d":
        return spikes_1d(space)
    if sel == "two_inclusions_2d":
        return two_inclusions_2d(space)
    if sel == "zero":
        return primal(space, np.zeros(space.size))
    try:
        fn = read_csv(exact.path)
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"[exact] path {exact.path!r} is unreadable: {exc}") from exc
    if fn.space != space:
        raise ConfigError("custom exact solution lives on a different grid")
    return fn


def make_problem(cfg: ExperimentConfig) -> tuple[ForwardOp, GridFn, GridFn]:
    """Construct (operator, exact solution, exact data y = F(x_dagger))."""
    prob = cfg.problem
    if prob.kind == "integral_1d":
        op = IntegralOp(prob.n)
        x_dag = exact_solution(cfg.exact, op.domain_space)
        return op, x_dag, op.apply(x_dag)
    # elliptic_2d: state u = x + y is harmonic, so the consistent source for
    # -Lap(u) + c u = f with u = x + y is f = c_dagger * (x + y), g = x + y.
    space = GridSpace.rectangle(prob.nx, prob.ny)
    c_dag = exact_solution(cfg.exact, space)
    x, y = space.coords()
    u_exact = x + y
    op = EllipticOp(prob.nx, prob.ny, f=c_dag.values * u_exact, g=u_exact)
    return op, c_dag, op.apply(c_dag)


def add_noise(y: GridFn, delta: float, seed: int) -> GridFn:
    """Return noisy data at exactly the requested distance from y.

    The perturbation is a seeded Gaussian direction rescaled so that
    ||y - y_noisy|| = delta in the weighted norm of y's space.
    """
    if delta < 0.0:
        raise ValueError("delta must be >= 0")
    if delta == 0.0:
        return y
    rng = np.random.default_rng(seed)
    while True:
        e = rng.standard_normal(y.space.size)
        nrm = norm(GridFn(y.space, e, y.variance))
        if nrm > 0.0:
            break
    return GridFn(y.space, y.values + delta * e / nrm, y.variance)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_iteration_csv(path, report: RunReport, theta: Penalty,
                        x_ref: GridFn | None) -> None:
    breg = (solver.diagnostics_bregman(report, theta, x_ref)
            if x_ref is not None else [float("nan")] * len(report.states))
    with open(path, "w") as fh:
        fh.write(f"# n_delta={report.n_delta} terminated_by={report.terminated_by} "
                 f"delta={_fmt(report.delta)} tau={_fmt(report.tau)}\n")
        fh.write("n,alpha,residual,theta_value,bregman_to_ref,inner_iters\n")
        for s, d in zip(report.states, breg):
            inner = s.inner_stats.iterations if s.inner_stats else 0
            alpha = s.alpha if s.alpha is not None else float("nan")
            fh.write(f"{s.n},{_fmt(alpha)},{_fmt(s.residual)},"
                     f"{_fmt(s.theta_value)},{_fmt(float(d))},{inner}\n")


def write_reconstruction_csv(path, x: GridFn) -> None:
    coords = x.space.coords()
    headers = ["t"] if len(coords) == 1 else ["x", "y"]
    with open(path, "w") as fh:
        fh.write(",".join(headers + ["value"]) + "\n")
        for row in zip(*coords, x.values):
            fh.write(",".join(_fmt(float(v)) for v in row) + "\n")


def write_summary_csv(path, report: RunReport, theta: Penalty,
                      x_dagger: GridFn | None) -> None:
    final = report.states[report.n_delta]
    rows = {
        "n_delta": report.n_delta,
        "terminated_by": report.terminated_by,
        "residual": final.residual,
        "l2_error": norm(report.x_out - x_dagger) if x_dagger is not None else float("nan"),
        "theta_value": final.theta_value,
    }
    with open(path, "w") as fh:
        fh.write("key,value\n")
        for k, v in rows.items():
            fh.write(f"{k},{_fmt(v)}\n")
        for k, v in report.config.items():
            fh.write(f"config.{k},{_fmt(v)}\n")


def resolve_out_dir(cfg: ExperimentConfig, out_dir: str | None = None) -> Path:
    d = out_dir or os.environ.get(OUT_DIR_ENV) or cfg.output.dir
    path = Path(d)
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   quiet: bool = False) -> RunReport:
    """Run a configured experiment and emit the CSV file set."""
    op, x_dag, y_exact = make_problem(cfg)
    ydelta = add_noise(y_exact, cfg.delta, cfg.seed)
    theta = cfg.penalty()
    report = solver.run(
        op, theta, ydelta, cfg.delta, cfg.schedule(), cfg.stopping(),
        cfg.inner_settings(), r=cfg.r, config=cfg.echo(),
    )
    directory = resolve_out_dir(cfg, out_dir)
    base = directory / cfg.output.name
    write_iteration_csv(f"{base}_iterations.csv", report, theta, x_dag)
    write_reconstruction_csv(f"{base}_reconstruction.csv", report.x_out)
    write_summary_csv(f"{base}_summary.csv", report, theta, x_dag)
    if not quiet:
        final = report.states[report.n_delta]
        print(f"{cfg.output.name}: n_delta={report.n_delta} "
              f"terminated_by={report.terminated_by} "
              f"residual={final.residual:.6g} "
              f"l2_error={norm(report.x_out - x_dag):.6g}")
    return report


def run_study(cfg: ExperimentConfig, out_dir: str | None = None,
              quiet: bool = False) -> list[dict]:
    """Noise-level sweep: one full run per delta, one CSV table out."""
    if not cfg.study.deltas:
        raise ConfigError("[study] deltas is empty; nothing to sweep")
    op, x_dag, y_exact = make_problem(cfg)
    rows = solver.convergence_study(
        lambda d: add_noise(y_exact, d, cfg.seed),
        cfg.study.deltas, op, cfg.penalty(), x_dag,
        cfg.schedule(), cfg.stopping(), cfg.inner_settings(), r=cfg.r,
    )
    directory = resolve_out_dir(cfg, out_dir)
    path = directory / f"{cfg.output.name}_study.csv"
    cols = ["delta", "n_delta", "terminated_by", "residual", "error",
            "theta_value", "bregman_to_ref", "error_message"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(c, "")) for c in cols) + "\n")
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
        "exact": {"selector": "two_inclusions_2d"},
        "noise": {"delta": 1e-4},
        "stopping": {"tau": 1.05},
        "penalty": theta,
        "output": {"name": name},
        "study": {"deltas": "1e-3 3e-4 1e-4"},
    }
    return config_from_dict(raw, overrides)
