"""Experiment driver: config files, task runner, command-line entry.

A config file describes one problem plus any number of verification
tasks.  Two interchangeable formats are accepted: a flat text format
with one ``section.key = value`` assignment per line, and a JSON file
with the same field names nested by section.  Parsing either format and
writing it back is a fixed point, so configs can be round-tripped
between the two.

Before any file is written, a run's independent task computations (the
main solve, the Pohozaev and gluing solves, the inequality scans and the
convolution rows) run on separate cores where there are several; then the
calling process writes each task's files in order, the same bytes as a
serial run.

Each task writes one JSON result file into the output directory.  Every
run also writes a trajectory CSV for solver tasks, a human-readable
``summary.txt`` and a ``manifest.json`` listing the sha256 of every
written file, with the normalized config (after the seed override) and
the binorm_gs, numpy and Python versions; the manifest timestamp is the
only thing that varies between reruns with the same seed.  Both are
written even when a task raises; the manifest then also names the failing
task and its error.  A run first removes the files an earlier run's
manifest in the output directory lists, and that manifest.

Exit codes: 0 success, 1 invalid config, hypothesis violation or a task
that raised, 2 a required solve failed to converge.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import re
import sys
from collections.abc import Callable, Collection
from dataclasses import asdict, dataclass, field as dc_field, replace
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import numpy as np

from . import __version__
from .analysis import (
    WINDOW_FRACTION,
    classify_decay_regime,
    convolution_limit_check,
    decay_fit,
    glue_energy_gap,
    pohozaev_check,
)
from .grid import DIMS, Grid, make_grid, write_field_csv
from .inequalities import (
    check_elementary_p3,
    check_lemma34i,
    check_lemma34ii,
    min_constant_34i,
    min_constant_34ii,
    sufficient_constant_34ii,
)
from .model import POTENTIAL_KINDS, PotentialSpec, ProblemSpec, sample_potential, validate
from .solver import (
    SolverConfig,
    _run_shares,
    default_grid,
    minimize,
    minimize_scalar,
    scan_subadditivity,
)

__all__ = [
    "ExperimentConfig",
    "parse_flat",
    "format_flat",
    "load_config",
    "save_config",
    "run",
    "main",
]

# The test and rule of a task's own exponent p: validate's subcritical window.
_SUBCRITICAL = (lambda s: 0.0 < s.p < 2.0 / s.dim, "must lie in (0, 2/N) with N = {s.dim}")
# Every task, with each task.<name>.<key> it reads as (default, test, rule).
# default and test take a namespace s of the problem's fields, the run grid's
# s.n and s.L, s.edge = WINDOW_FRACTION * L and the task's values (a default
# reads those above it).  A default fixes its key's kind: float, int or a list
# of either.  A failed test reports rule, formatted with s and wf = WINDOW_FRACTION.
_TASK_PARAMS: dict[str, dict[str, tuple]] = {
    "solve": {},
    "scan_subadd": {"steps": (lambda s: 5, lambda s: s.steps >= 1, "must be an integer >= 1")},
    "decay_fit": {
        "r1": (lambda s: 0.15 * s.L, lambda s: 0.0 <= s.r1 < s.r2, "must lie in [0, r2 = {s.r2})"),
        "r2": (lambda s: 0.35 * s.L, lambda s: s.r1 < s.r2 <= s.edge,
               "must lie in (r1 = {s.r1}, {wf} L = {s.edge}]"),
    },
    "glue_test": {
        "gamma1": (lambda s: 0.5 * s.alpha1, lambda s: 0.0 <= s.gamma1 <= s.alpha1,
                   "must lie in [0, {s.alpha1}] (componentwise split of the problem masses)"),
        "gamma2": (lambda s: 0.5 * s.alpha2, lambda s: 0.0 <= s.gamma2 <= s.alpha2,
                   "must lie in [0, {s.alpha2}] (componentwise split of the problem masses)"),
        # any whole numbers of cells: the shifts are periodic
        "n_cells": (lambda s: [round(f * s.n) for f in (0.125, 0.1875, 0.25)], lambda s: True, ""),
    },
    "pohozaev": {
        "mu": (lambda s: float(s.mu1), lambda s: 0.0 < s.mu < math.inf, "must be finite and > 0"),
        "p": (lambda s: float(s.p1), *_SUBCRITICAL),
        "gamma": (lambda s: float(s.alpha1), lambda s: 0.0 <= s.gamma < math.inf,
                  "must be finite and >= 0"),
    },
    "check_inequalities": {
        "p": (lambda s: float(s.p1), *_SUBCRITICAL),
        "eta": (lambda s: 0.5 * s.p, lambda s: 0.0 < s.eta < s.p, "must lie in (0, p = {s.p})"),
    },
    "conv_limit": {
        "f_rate": (lambda s: 2.0, lambda s: s.g_rate < s.f_rate < math.inf,
                   "must be finite and > g_rate = {s.g_rate}"),
        "g_rate": (lambda s: 1.0, lambda s: -math.inf < s.g_rate < s.f_rate,
                   "must be finite and < f_rate = {s.f_rate}"),
        "poly_power": (lambda s: 0.0, lambda s: math.isfinite(s.poly_power), "must be finite"),
        "r_values": (lambda s: [0.125 * s.L, 0.25 * s.L],
                     lambda s: all(0.0 <= r <= s.edge for r in s.r_values),
                     "must each lie in [0, {wf} L = {s.edge}]"),
    },
    "emit_plots": {},
}
TASK_KEYS = {task: tuple(params) for task, params in _TASK_PARAMS.items()}
TASK_NAMES = tuple(TASK_KEYS)
SOLVER_TASKS = ("solve", "scan_subadd", "decay_fit", "glue_test", "pohozaev")
# Each task that a problem leaves without meaning, with (test, reason): a run
# refuses the task, naming reason, before any write.  test and reason.format
# take a namespace s of the problem's fields and the task's values.
_REFUSALS: dict[str, tuple] = {
    "decay_fit": (
        (lambda s: s.regime == "trapping",
         "in the trapping regime (problem.regime = trapping): the trapped u2 has a Gaussian "
         "tail, not exp(-sqrt(lambda2) r), and lambda2 may be negative"),
        (lambda s: 0.0 in (s.alpha1, s.alpha2),
         "with a zero mass (problem.alpha1 = {s.alpha1}, problem.alpha2 = {s.alpha2}): a "
         "vanishing component has no tail to fit, and its multiplier is undefined"),
    ),
    "pohozaev": (
        (lambda s: s.gamma == 0.0,
         "with a zero mass (task.pohozaev.gamma = {s.gamma}, which defaults to problem.alpha1): "
         "the zero state satisfies the Pohozaev identity trivially, so its residual tests nothing"),
    ),
}


# ---------------------------------------------------------------------------
# flat config format


def _parse_scalar(text: str) -> Any:
    t = text.strip()
    if t == "true":
        return True
    if t == "false":
        return False
    try:
        return int(t)
    except ValueError:
        pass
    try:
        return float(t)
    except ValueError:
        pass
    return t


def _parse_value(text: str) -> Any:
    t = text.strip()
    if "," in t:
        return [_parse_scalar(part) for part in t.split(",")]
    return _parse_scalar(t)


def _format_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _format_value(value: Any) -> str:
    if isinstance(value, (list, tuple)):
        return ", ".join(_format_scalar(v) for v in value)
    return _format_scalar(value)


def parse_flat(text: str) -> dict:
    """Parse 'section.key = value' lines into a nested dict.

    Blank lines and lines starting with '#' are skipped.  Values are
    typed: true/false, integers, floats, comma-separated lists, else
    strings.
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'section.key = value'")
        key, _, value = line.partition("=")
        path = [part.strip() for part in key.strip().split(".")]
        if not all(path):
            raise ValueError(f"line {lineno}: empty key component in {key!r}")
        node = out
        for part in path[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"line {lineno}: {key!r} nests under a scalar")
        node[path[-1]] = _parse_value(value)
    return out


def format_flat(nested: dict) -> str:
    """Serialize a nested dict back to sorted 'section.key = value' lines.

    Empty strings, empty lists and None are omitted (they cannot be
    represented faithfully in the flat format).
    """
    lines = []

    def walk(prefix: str, node: dict) -> None:
        for key in sorted(node):
            value = node[key]
            dotted = f"{prefix}.{key}" if prefix else key
            if isinstance(value, dict):
                walk(dotted, value)
            elif value is None or value == "" or value == []:
                continue
            else:
                lines.append(f"{dotted} = {_format_value(value)}")

    walk("", nested)
    return "\n".join(lines) + "\n"


@dataclass
class ExperimentConfig:
    """One experiment: a problem, solver knobs, grid, and a task list."""

    problem: ProblemSpec
    solver: SolverConfig = SolverConfig()
    grid_n: int = 0
    grid_length: float = 0.0
    tasks: list[str] = dc_field(default_factory=lambda: ["solve"])
    output_dir: str = "out"
    required: list[str] | None = None
    task_params: dict[str, dict] = dc_field(default_factory=dict)

    def grid(self) -> Grid:
        if self.grid_n:
            return make_grid(self.problem.dim, self.grid_n, self.grid_length)
        return default_grid(self.problem.dim)

    def required_tasks(self) -> set[str]:
        if self.required is None:
            return set(self.tasks) & set(SOLVER_TASKS)
        return set(self.required)

    def task_values(self) -> dict[str, dict[str, Any]]:
        """Every task's parameters: task.<name>.<key> where given, else its default.

        A given value is stored as its default's kind ("mu": 2 reads 2.0) and
        must pass its test in _TASK_PARAMS, else ValueError names the key.
        None, "" and [] count as not given, as in the flat format.
        """
        grid = self.grid()
        values = {}
        for task, params in _TASK_PARAMS.items():
            given = {key: value for key, value in self.task_params.get(task, {}).items()
                     if value not in (None, "", [])}
            s = SimpleNamespace(**vars(self.problem), n=grid.n, L=grid.length,
                                edge=WINDOW_FRACTION * grid.length)
            for key, (default, _, _) in params.items():
                like, name = default(s), f"task.{task}.{key}"
                setattr(s, key, _as_kind(given[key], like, name) if key in given else like)
            for key, (_, test, rule) in params.items():
                if key in given and not test(s):
                    raise ValueError(f"task.{task}.{key} = {given[key]} "
                                     + rule.format(s=s, wf=WINDOW_FRACTION))
            values[task] = {key: getattr(s, key) for key in params}
        return values


_KINDS = {float: ((int, float), "a number"), int: (int, "an integer"), str: (str, "a string")}


def _as_kind(value: Any, like: Any, name: str) -> Any:
    """value as a value of like's kind: a float takes any number, an int an
    integer and a str a string; a list takes one or more values of its first
    entry's kind.  Otherwise ValueError names name and value."""
    many = isinstance(like, list)
    kind = type(like[0] if many else like)
    items = list(value) if many and isinstance(value, (list, tuple)) else [value]
    takes, noun = _KINDS[kind]
    if any(isinstance(v, bool) or not isinstance(v, takes) for v in items):
        raise ValueError(f"{name} = {value} must be {noun}" + " or a list of them" * many)
    return [kind(v) for v in items] if many else kind(value)


# Near-decoupled symmetric cubic system: total energy is 2 x (-1/96) up
# to O(beta), a closed-form check for minimal configs.
_DEFAULT_PROBLEM = ProblemSpec(
    dim=1,
    p1=1.0,
    p2=1.0,
    p3=1.0,
    mu1=1.0,
    mu2=1.0,
    beta=1e-6,
    alpha1=1.0,
    alpha2=1.0,
)


# Every key of the config sections but task, each with a value of its kind
# (_as_kind) from the records' own defaults.  The potentials are sections of
# their own, so problem.v1 and problem.v2 are not keys.
_KEYS: dict[str, dict[str, Any]] = {
    "problem": {k: v for k, v in _DEFAULT_PROBLEM.to_dict().items() if k not in ("v1", "v2")},
    **{f"potential{i}": {**PotentialSpec.zero().to_dict(), "center": [0.0]} for i in (1, 2)},
    "solver": asdict(SolverConfig()),
    "grid": {"n": 0, "length": 0.0},
    "run": {"tasks": ["solve"], "required": ["solve"], "output_dir": "out"},
}
_SECTIONS = (*_KEYS, "task")


def _check_keys(prefix: str, node: Any, known: Collection[str]) -> None:
    """Raise ValueError unless node is a dict of keys in known."""
    if not isinstance(node, dict):
        raise ValueError(f"config section {prefix!r} must hold '{prefix}.key = value' keys")
    for key in node:
        if key not in known:
            raise ValueError(
                f"unknown config key {prefix}.{key}; known: "
                + (", ".join(f"{prefix}.{k}" for k in known) or "none")
            )


def _check_tasks(tasks: list[str], required: list[str] | None = None) -> None:
    """Raise ValueError if tasks is empty or tasks or required holds an unknown task name."""
    if not tasks:
        raise ValueError("config must list at least one task")
    for t in [*tasks, *(required or [])]:
        if t not in TASK_NAMES:
            raise ValueError(f"unknown task {t!r}; known: {', '.join(TASK_NAMES)}")


def _record(section: str, make: Callable[..., Any], values: dict[str, Any]) -> Any:
    """make(**values); a ValueError of the record, which names its field as
    Record.key, is raised again naming the config key section.key."""
    try:
        return make(**values)
    except ValueError as exc:
        raise ValueError(re.sub(r"^\w+\.", f"{section}.", str(exc))) from None


def config_from_dict(nested: dict) -> ExperimentConfig:
    """Build a validated config from a nested dict, applying defaults.

    An unknown section, key, or task name in run.tasks or run.required
    raises ValueError naming it.  So does every other value that _as_kind
    refuses as not of the kind of its key's entry in _KEYS, every value that
    a record built from the values it returns refuses (_record), and a
    potential section without a kind.  So do grid.n and grid.length unless
    set together and valid for the problem's dimension, and every
    task.<name>.<key> that ExperimentConfig.task_values rejects.
    The task keys are checked only for a dimension in grid.DIMS, so that
    validate names any other.
    """
    for section, node in nested.items():
        if section not in _SECTIONS:
            raise ValueError(
                f"unknown config section {section!r}; known: {', '.join(_SECTIONS)}"
            )
        _check_keys(section, node, _KEYS.get(section, TASK_KEYS))
    for task, node in nested.get("task", {}).items():
        _check_keys(f"task.{task}", node, TASK_KEYS[task])
    given = {
        section: {key: _as_kind(value, keys[key], f"{section}.{key}")
                  for key, value in nested.get(section, {}).items()}
        for section, keys in _KEYS.items()
    }
    potentials = {}
    for i in (1, 2):
        section = f"potential{i}"
        if section in nested:
            if "kind" not in given[section]:
                raise ValueError(f"{section}.kind is missing; a {section} section must set "
                                 f"one of {', '.join(POTENTIAL_KINDS)}")
            potentials[f"v{i}"] = _record(section, PotentialSpec, given[section])
    problem = _record("problem", functools.partial(replace, _DEFAULT_PROBLEM),
                      {**given["problem"], **potentials})
    grid_node, run_node = given["grid"], given["run"]
    if grid_node:
        for key in _KEYS["grid"]:
            if key not in grid_node:
                raise ValueError(
                    f"grid.n and grid.length must be set together; grid.{key} is missing"
                )
        try:
            make_grid(problem.dim, grid_node["n"], grid_node["length"])
        except ValueError as exc:
            raise ValueError(
                f"grid.n = {grid_node['n']}, grid.length = {grid_node['length']}: {exc}"
            ) from None
    tasks, required = run_node.get("tasks", ["solve"]), run_node.get("required")
    _check_tasks(tasks, required)
    cfg = ExperimentConfig(
        problem=problem,
        solver=_record("solver", SolverConfig, given["solver"]),
        grid_n=grid_node.get("n", 0),
        grid_length=grid_node.get("length", 0.0),
        tasks=tasks,
        output_dir=run_node.get("output_dir", "out"),
        required=required,
        task_params={name: dict(params) for name, params in nested.get("task", {}).items()},
    )
    if problem.dim in DIMS:  # else validate names the dimension
        cfg.task_values()
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Nested-dict form of a config (drops redundant potential defaults)."""
    prob = cfg.problem.to_dict()
    v1 = prob.pop("v1")
    v2 = prob.pop("v2")
    out: dict = {
        "problem": prob,
        "potential1": v1,
        "potential2": v2,
        "solver": asdict(cfg.solver),
        "run": {"tasks": list(cfg.tasks), "output_dir": cfg.output_dir},
    }
    if cfg.grid_n:
        out["grid"] = {"n": cfg.grid_n, "length": cfg.grid_length}
    if cfg.required is not None:
        out["run"]["required"] = list(cfg.required)
    if cfg.task_params:
        out["task"] = {k: dict(v) for k, v in cfg.task_params.items()}
    return out


def load_config(path: str | Path) -> ExperimentConfig:
    """Load a config from flat text or JSON (detected by content)."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        nested = json.loads(text)
    else:
        nested = parse_flat(text)
    return config_from_dict(nested)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    """Write a config in the format implied by the filename suffix."""
    nested = config_to_dict(cfg)
    path = Path(path)
    if path.suffix == ".json":
        path.write_text(_dumps(nested))
    else:
        path.write_text(format_flat(nested))


# ---------------------------------------------------------------------------
# result serialization


def _jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _dumps(obj: Any) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


# Every plot CSV that the emit_plots task derives, by the result JSON it reads:
# (name, header, rows), rows a function of the parsed JSON; a row is written as
# the repr of its entries.
_PLOTS = {
    "scan_subadd.json": [("subadd_heatmap.csv", "theta1,theta2,e_inner,e_outer,gap", lambda d: (
        [pt[k] for k in ("theta1", "theta2", "e_inner", "e_outer", "gap")] for pt in d["points"]
    ))],
    "decay_fit.json": [
        ("decay_fits.csv", "component,r1,r2,rate,poly,expected,r2", lambda d: ([
            f["component"], *f["window"], f["rate"], f["poly"], f["expected"], f["r_squared"]
        ] for f in d["fits"])),
        *((f"decay_profile_c{c}.csv", "r,log_value,fit_value", lambda d, c=c: zip(
            *(d["fits"][c - 1]["profile"][k] for k in ("r", "log_value", "fit_value"))
        )) for c in (1, 2)),
    ],
    "glue_test.json": [("gap_vs_n.csv", "n,kappa1,kappa2,tau1,tau2,gap", lambda d: (
        [lg[k] for k in ("n", "kappa1", "kappa2", "tau1", "tau2", "gap")] for lg in d
    ))],
}


def _listed_files(out_dir: Path) -> list[str]:
    """The file names the manifest.json in out_dir lists; none without one.

    A manifest without a files map, or one listing anything but a plain
    file name, raises ValueError.
    """
    manifest = out_dir / "manifest.json"
    if not manifest.exists():
        return []
    try:
        names = list(json.loads(manifest.read_text())["files"].keys())
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{manifest}: not a run manifest ({exc})") from None
    for name in names:
        if not isinstance(name, str) or name in ("", ".", "..") or any(
            sep and sep in name for sep in (os.sep, os.altsep)
        ):
            raise ValueError(f"{manifest} lists {name!r}, which is not a plain file name")
    return names


class _OutputTray:
    """Collects written files and their hashes for the manifest.

    An earlier run's manifest.json in out_dir and every file it lists are
    removed first, so the directory holds only this run's files.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.files: dict[str, str] = {}
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in [*_listed_files(out_dir), "manifest.json"]:
            (out_dir / name).unlink(missing_ok=True)

    def write_text(self, name: str, text: str) -> Path:
        path = self.out_dir / name
        path.write_text(text)
        self.files[name] = hashlib.sha256(text.encode()).hexdigest()
        return path

    def write_json(self, name: str, obj: Any) -> Path:
        return self.write_text(name, _dumps(obj))

    def add_existing(self, name: str) -> None:
        digest = hashlib.sha256((self.out_dir / name).read_bytes()).hexdigest()
        self.files[name] = digest


# ---------------------------------------------------------------------------
# task implementations


# The computations (_Runner.calc_<name>) that each task reads.
_TASK_CALCS = {
    "solve": ("solve",),
    "decay_fit": ("solve",),
    "glue_test": ("glue_inner", "glue_outer"),
    "pohozaev": ("pohozaev",),
    "check_inequalities": ("check_inequalities",),
    "conv_limit": ("conv_limit",),
}


def _caught(calc: Callable[[], Any]) -> Any:
    """calc's value, or the exception it raised."""
    try:
        return calc()
    except Exception as exc:
        return exc


class _Runner:
    def __init__(self, cfg: ExperimentConfig, out_dir: Path) -> None:
        self.cfg = cfg
        self.grid = cfg.grid()
        self.params = cfg.task_values()
        self.tray = _OutputTray(out_dir)
        self.summary: list[str] = []
        self.failed_required: list[str] = []
        self.error: str | None = None
        self._values: dict[str, Any] = {}

    def note(self, line: str) -> None:
        self.summary.append(line)

    def compute(self, tasks: list[str]) -> None:
        """Run the tasks' solves and scans before any file is written.

        The main solve has share 0, in this process, to itself; the other
        computations are dealt among forked workers (solver._run_shares).
        Each keeps its own error, which value() raises when its task's turn
        comes, so the files, notes and errors are those of a serial run.
        The workers have exited when this returns, and every file of the run
        is written by this process.
        """
        names = sorted(
            dict.fromkeys(c for t in tasks for c in _TASK_CALCS.get(t, ())),
            key=lambda c: c != "solve",
        )
        calcs = [functools.partial(_caught, getattr(self, f"calc_{c}")) for c in names]
        alone = names[:1] == ["solve"]
        self._values = dict(zip(names, _run_shares(calcs, "task computation", alone)))

    def value(self, name: str) -> Any:
        """calc_<name>'s value from compute(); the error it raised is raised here."""
        value = self._values[name]
        if isinstance(value, Exception):
            raise value
        return value

    def calc_solve(self):
        return minimize(self.cfg.problem, config=self.cfg.solver, grid=self.grid)

    def mark(self, task: str, converged: bool) -> None:
        if not converged and task in self.cfg.required_tasks():
            self.failed_required.append(task)

    # -- tasks --------------------------------------------------------------

    def task_solve(self) -> None:
        """solve.json, trajectory.csv and the two field CSVs, u1 then u2,
        each through this module's write_field_csv."""
        res = self.value("solve")
        lam = res.multipliers
        payload = {
            **asdict(res.report),
            **asdict(lam),
            "converged": res.converged,
            "iterations": res.iterations,
            "final_residual": res.final_residual,
            "final_dt": res.diagnostics["final_dt"],
            "step_cuts": res.diagnostics["step_cuts"],
            "starts": res.diagnostics["per_start"],
        }
        self.tray.write_json("solve.json", payload)
        rows = [",".join(map(repr, row)) for row in res.trajectory_energies]
        self.tray.write_text("trajectory.csv", "\n".join(["iter,energy,residual", *rows]) + "\n")
        for comp, name in ((res.state.u1, "solve_u1.csv"), (res.state.u2, "solve_u2.csv")):
            write_field_csv(comp, str(self.tray.out_dir / name))
            self.tray.add_existing(name)
        self.mark("solve", res.converged)
        self.note(
            f"solve: energy {res.report.total:.9g}, multipliers "
            f"({lam.lambda1:.6g}, {lam.lambda2:.6g}), "
            f"{res.iterations} iterations, converged={res.converged}"
        )

    def task_scan_subadd(self) -> None:
        ticks = np.linspace(0.0, 1.0, self.params["scan_subadd"]["steps"]).tolist()
        regime = self.cfg.problem.regime
        # In the trapping regime only splits that keep all of u2 are admissible.
        bounded = regime == "both_bounded"
        thetas = [(t1, t2) for t1 in ticks for t2 in (ticks if bounded else [1.0])]
        report = scan_subadditivity(
            self.cfg.problem, thetas, config=self.cfg.solver, grid=self.grid
        )
        self.tray.write_json("scan_subadd.json", {
            "regime": regime,
            "split_rule": "theta in [0, 1]^2" if bounded else "theta2 = 1",
            **asdict(report),
        })
        trusted = [pt for pt in report.points if pt.trusted]
        worst = max((pt.gap for pt in trusted), default=math.nan)
        self.mark("scan_subadd", len(trusted) == len(report.points))
        self.note(
            f"scan_subadd: {len(report.points)} splits, "
            f"{len(trusted)} trusted, worst trusted gap {worst:.6g}"
        )

    def task_decay_fit(self) -> None:
        p = self.params["decay_fit"]
        res = self.value("solve")
        window = (p["r1"], p["r2"])
        lam = (res.multipliers.lambda1, res.multipliers.lambda2)
        order = (0, 1) if lam[0] <= lam[1] else (1, 0)
        lo, hi = lam[order[0]], lam[order[1]]
        fits = []
        ok = res.converged
        for comp_index, comp in ((0, res.state.u1), (1, res.state.u2)):
            fit = decay_fit(comp, window)
            role = 1 if comp_index == order[0] else 2
            regime = classify_decay_regime(self.cfg.problem.p3, lo, hi, role)
            radii = np.array(fit.radii)
            fit_vals = fit.const - fit.rate * radii + fit.poly_exponent * np.log1p(radii)
            fits.append(
                {
                    "component": comp_index + 1,
                    "rate": fit.rate,
                    "poly": fit.poly_exponent,
                    "r_squared": fit.r_squared,
                    "window": list(fit.window),
                    "n_shells": fit.n_shells,
                    "expected": regime.expected_rate,
                    "tag": regime.tag,
                    "profile": {
                        "r": list(fit.radii),
                        "log_value": list(fit.log_values),
                        "fit_value": fit_vals.tolist(),
                    },
                }
            )
        payload = {"lambda1": lam[0], "lambda2": lam[1], "fits": fits}
        self.tray.write_json("decay_fit.json", payload)
        self.mark("decay_fit", ok)
        for f in fits:
            self.note(
                f"decay_fit: component {f['component']} rate {f['rate']:.6g} "
                f"expected {f['expected']:.6g} ({f['tag']})"
            )

    def glue_specs(self) -> tuple[ProblemSpec, ProblemSpec]:
        p, prob = self.params["glue_test"], self.cfg.problem
        return prob.with_masses(p["gamma1"], p["gamma2"]), prob.without_potentials().with_masses(
            prob.alpha1 - p["gamma1"], prob.alpha2 - p["gamma2"]
        )

    def calc_glue_inner(self):
        return minimize(self.glue_specs()[0], config=self.cfg.solver, grid=self.grid)

    def calc_glue_outer(self):
        return minimize(self.glue_specs()[1], config=self.cfg.solver, grid=self.grid)

    def task_glue_test(self) -> None:
        inner, outer = self.value("glue_inner"), self.value("glue_outer")
        n_cells = self.params["glue_test"]["n_cells"]
        ledgers = glue_energy_gap(self.cfg.problem, inner, outer, n_cells)
        payload = [
            {
                "n": lg.n_cells,
                "kappa1": lg.kappa1,
                "kappa2": lg.kappa2,
                "tau1": lg.tau1,
                "tau2": lg.tau2,
                "gap": lg.gap,
            }
            for lg in ledgers
        ]
        self.tray.write_json("glue_test.json", payload)
        self.mark("glue_test", inner.converged and outer.converged)
        worst = max(lg.gap for lg in ledgers)
        self.note(
            f"glue_test: {len(ledgers)} shifts, worst gap {worst:.6g} "
            f"(negative favours gluing)"
        )

    def calc_pohozaev(self):
        return minimize_scalar(**self.params["pohozaev"], dim=self.cfg.problem.dim,
                               config=self.cfg.solver, grid=self.grid)

    def task_pohozaev(self) -> None:
        p, res = self.params["pohozaev"], self.value("pohozaev")
        lam1 = res.multipliers.lambda1
        check = pohozaev_check(res.state.u1, lam1, p["mu"], p["p"])
        payload = {**p, "lambda": lam1, **asdict(check), "converged": res.converged}
        self.tray.write_json("pohozaev.json", payload)
        self.mark("pohozaev", res.converged)
        self.note(f"pohozaev: residual {check.residual:.3g} at p={p['p']}, mu={p['mu']}")

    def calc_check_inequalities(self):
        """The two scans of Lemma 3.4, each with its note and its minimal constant."""
        p = self.params["check_inequalities"]
        p_exp, eta = p["p"], p["eta"]
        c_min = min_constant_34i(p_exp)
        c_suf = sufficient_constant_34ii(p_exp, eta)
        return [("min constant", check_lemma34i(p_exp, c_min), c_min),
                ("sufficient constant", check_lemma34ii(p_exp, eta, c_suf),
                 min_constant_34ii(p_exp, eta))]

    def task_check_inequalities(self) -> None:
        p_exp = self.params["check_inequalities"]["p"]
        reports = [*self.value("check_inequalities"), ("", check_elementary_p3(p_exp), None)]
        payload = [
            {**asdict(rep), "note": note, "violations": len(rep.violations),
             "holds": rep.holds, "min_constant_estimate": estimate}
            for note, rep, estimate in reports
        ]
        self.tray.write_json("check_inequalities.json", {"reports": payload})
        viol_rows = ["which,x,y,defect"]
        for _, rep, _ in reports:
            for tup in rep.violations:
                if len(tup) == 3 and isinstance(tup[0], str):
                    tag, a, d = tup
                    viol_rows.append(f"{rep.which}:{tag},{a!r},1.0,{d!r}")
                else:
                    x, y, d = tup
                    viol_rows.append(f"{rep.which},{x!r},{y!r},{d!r}")
        if len(viol_rows) > 1:
            self.tray.write_text("violations.csv", "\n".join(viol_rows) + "\n")
        for note, rep, _ in reports:
            self.note(
                f"check_inequalities: {rep.which} ({note or 'scan'}) "
                f"constant {rep.constant_tested:.6g}: "
                f"{'holds' if rep.holds else 'VIOLATED'}"
            )

    def calc_conv_limit(self):
        return convolution_limit_check(**self.params["conv_limit"], grid=self.grid)

    def task_conv_limit(self) -> None:
        rows = self.value("conv_limit")
        payload = {
            "rows": [asdict(row) for row in rows],
            "max_ratio_error": max(abs(row.ratio - 1.0) for row in rows),
        }
        self.tray.write_json("conv_limit.json", payload)
        self.note(
            f"conv_limit: max |ratio - 1| = {payload['max_ratio_error']:.3g} "
            f"over {len(rows)} samples"
        )

    def task_emit_plots(self) -> None:
        """The _PLOTS CSVs of the result JSONs this run wrote, in table order."""
        written = []
        for source, plots in _PLOTS.items():
            if source in self.tray.files:
                data = json.loads((self.tray.out_dir / source).read_text())
                for name, header, rows in plots:
                    lines = [header, *(",".join(map(repr, row)) for row in rows(data))]
                    self.tray.write_text(name, "\n".join(lines) + "\n")
                    written.append(name)
        self.note(f"emit_plots: wrote {', '.join(written) if written else 'nothing'}")

    def run_tasks(self, tasks: list[str]) -> None:
        """compute(), then every task in order; the first error is noted and raised."""
        steps = [("compute", functools.partial(self.compute, tasks))]
        steps += [(task, getattr(self, f"task_{task}")) for task in tasks]
        for name, step in steps:
            try:
                step()
            except Exception as exc:
                self.error = f"{name}: {exc}"
                self.note(f"{name}: error: {exc}")
                raise

    def finish(self, seed: int) -> int:
        self.tray.write_text("summary.txt", "\n".join(self.summary) + "\n")
        manifest = {
            "seed": seed,
            "config": format_flat(config_to_dict(self.cfg)),
            "versions": {
                "binorm_gs": __version__,
                "numpy": np.__version__,
                "python": platform.python_version(),
            },
            "files": dict(sorted(self.tray.files.items())),
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        if self.error is not None:
            manifest["error"] = self.error
        (self.tray.out_dir / "manifest.json").write_text(_dumps(manifest))
        if self.failed_required:
            return 2
        return 0


def run(
    config_path: str | Path,
    tasks: list[str] | None = None,
    out_dir: str | Path | None = None,
    seed: int | None = None,
) -> int:
    """Execute a config's tasks; returns the process exit code.

    tasks, out_dir and seed override the config when given.  A seed that is
    not an integer >= 0 (named as the --seed option), an empty or unknown
    task list, a potential that cannot be sampled on the run grid
    (a missing or mismatched table, or one with a nonzero last column), or a
    task its problem refuses (_REFUSALS: decay_fit in the trapping regime or
    with a zero mass, pohozaev with a zero mass), raises before any file is
    written.  If a task raises,
    summary.txt and manifest.json are still written and the error propagates.
    """
    cfg = load_config(config_path)
    if seed is not None:
        try:
            cfg = replace(cfg, solver=replace(cfg.solver, rng_seed=seed))
        except ValueError as exc:
            raise ValueError(re.sub(r"^SolverConfig\.rng_seed", "--seed", str(exc))) from None
    violations = validate(cfg.problem)
    if violations:
        for v in violations:
            print(f"hypothesis violation: {v}", file=sys.stderr)
        return 1
    tasks = tasks if tasks is not None else cfg.tasks
    _check_tasks(tasks)
    values = cfg.task_values()
    for task in tasks:
        s = SimpleNamespace(**vars(cfg.problem), **values[task])
        for test, reason in _REFUSALS.get(task, ()):
            if test(s):
                raise ValueError(f"{task} is not available {reason.format(s=s)}")
    grid = cfg.grid()
    for pot in (cfg.problem.v1, cfg.problem.v2):
        sample_potential(pot, grid)
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    runner = _Runner(cfg, out)
    try:
        runner.run_tasks(tasks)
    finally:
        exit_code = runner.finish(cfg.solver.rng_seed)
    return exit_code


# ---------------------------------------------------------------------------
# command line


# One subcommand per task but emit_plots, which plots the files of its own
# run, and run for the config's full task list.
_SUBCOMMANDS = {
    **{t.replace("_", "-"): [t] for t in TASK_NAMES if t != "emit_plots"}, "run": None
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="binorm-gs",
        description="Two-component constrained ground states and structural checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", help="output directory (overrides the config)")
        p.add_argument("--seed", type=int, help="solver rng seed override")
    args = parser.parse_args(argv)

    try:
        return run(
            args.config,
            tasks=_SUBCOMMANDS[args.command],
            out_dir=args.out,
            seed=args.seed,
        )
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
