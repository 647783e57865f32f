"""Experiment driver: config files, task runner, command-line entry.

A config file describes one problem plus any number of verification
tasks.  Two interchangeable formats are accepted: a flat text format
with one ``section.key = value`` assignment per line, and a JSON file
with the same field names nested by section.  Parsing either format and
writing it back is a fixed point, so configs can be round-tripped
between the two.

Before any file is written, a run's independent task computations (the
main solve, the Pohozaev and gluing solves, the inequality scans and the
convolution rows) run on separate cores where there are several; then each
task writes its files in order, the same bytes as a serial run.  The solve's
two field CSVs are formatted on two cores too.

Each task writes one JSON result file into the output directory.  Every
run also writes a trajectory CSV for solver tasks, a human-readable
``summary.txt`` and a ``manifest.json`` listing the sha256 of every
written file, with the normalized config (after the seed override) and
the binorm_gs, numpy and Python versions; the manifest timestamp is the
only thing that varies between reruns with the same seed.  Both are
written even when a task raises; the manifest then also names the failing
task and its error.  A run first removes the files an earlier run's
manifest in the output directory lists, the plot CSVs derived from them,
and that manifest.

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
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, field as dc_field, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .analysis import (
    classify_decay_regime,
    convolution_limit_check,
    decay_fit,
    glue_energy_gap,
    pohozaev_check,
)
from .grid import Grid, make_grid, write_field_csv
from .inequalities import (
    check_elementary_p3,
    check_lemma34i,
    check_lemma34ii,
    min_constant_34i,
    min_constant_34ii,
    sufficient_constant_34ii,
)
from .model import ProblemSpec, sample_potential, validate
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
    "emit_plot_data",
    "main",
]

# Every task, with the task.<name>.<key> parameters it reads.
TASK_KEYS = {
    "solve": (),
    "scan_subadd": ("steps",),
    "decay_fit": ("r1", "r2"),
    "glue_test": ("gamma1", "gamma2", "n_cells"),
    "pohozaev": ("mu", "p", "gamma"),
    "check_inequalities": ("p", "eta", "resolution"),
    "conv_limit": ("f_rate", "g_rate", "poly_power", "r_values"),
    "emit_plots": (),
}
TASK_NAMES = tuple(TASK_KEYS)
SOLVER_TASKS = ("solve", "scan_subadd", "decay_fit", "glue_test", "pohozaev")


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


def _as_list(value: Any) -> list:
    if value is None:
        return []
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


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


# Config sections, and the keys of those read here; potential and solver keys
# are checked by the records they build.  The potentials are sections of their
# own, so problem.v1 and problem.v2 are not keys.
_SECTIONS = ("problem", "potential1", "potential2", "solver", "grid", "run", "task")
_SECTION_KEYS = {
    "problem": tuple(f.name for f in fields(ProblemSpec) if f.name not in ("v1", "v2")),
    "grid": ("n", "length"), "run": ("tasks", "output_dir", "required"), "task": TASK_KEYS
}


def _check_keys(prefix: str, node: Any, known: tuple | dict | None) -> None:
    """Raise ValueError unless node is a dict of known keys (any, for None);
    a dict of known keys also checks each key's node against its entry."""
    if not isinstance(node, dict):
        raise ValueError(f"config section {prefix!r} must hold '{prefix}.key = value' keys")
    for key in node if known is not None else ():
        if key not in known:
            raise ValueError(
                f"unknown config key {prefix}.{key}; known: "
                + (", ".join(f"{prefix}.{k}" for k in known) or "none")
            )
        if isinstance(known, dict):
            _check_keys(f"{prefix}.{key}", node[key], known[key])


def config_from_dict(nested: dict) -> ExperimentConfig:
    """Build a validated config from a nested dict, applying defaults.

    An unknown section, problem, grid, run or task key, or task name in
    run.tasks or run.required, raises ValueError naming it, and so do grid.n
    and grid.length unless set together and valid for the problem's
    dimension, task.scan_subadd.steps unless an integer >= 1,
    task.check_inequalities.p, eta and resolution unless they lie in
    (0, inf), (0, p) and (0, inf), task.pohozaev.mu, p and gamma unless
    they lie in (0, inf), (0, 2/N) and [0, inf), and task.decay_fit.r1 and
    r2 unless finite.  A bool is not a number here.
    """
    for section, node in nested.items():
        if section not in _SECTIONS:
            raise ValueError(
                f"unknown config section {section!r}; known: {', '.join(_SECTIONS)}"
            )
        _check_keys(section, node, _SECTION_KEYS.get(section))
    problem = ProblemSpec.from_dict({
        **_DEFAULT_PROBLEM.to_dict(),
        **nested.get("problem", {}),
        **{f"v{i}": nested[f"potential{i}"] for i in (1, 2) if f"potential{i}" in nested},
    })
    solver = SolverConfig(**nested.get("solver", {}))
    grid_node = nested.get("grid", {})
    if grid_node:
        for key in _SECTION_KEYS["grid"]:
            if key not in grid_node:
                raise ValueError(
                    f"grid.n and grid.length must be set together; grid.{key} is missing"
                )
        try:
            make_grid(problem.dim, int(grid_node["n"]), float(grid_node["length"]))
        except ValueError as exc:
            raise ValueError(
                f"grid.n = {grid_node['n']}, grid.length = {grid_node['length']}: {exc}"
            ) from None
    run_node = nested.get("run", {})
    tasks = [str(t) for t in _as_list(run_node.get("tasks", ["solve"]))]
    if not tasks:
        raise ValueError("config must list at least one task")
    required = run_node.get("required")
    if required is not None:
        required = [str(t) for t in _as_list(required)]
    for t in tasks + (required or []):
        if t not in TASK_NAMES:
            raise ValueError(f"unknown task {t!r}; known: {', '.join(TASK_NAMES)}")
    task_params = {
        name: dict(params) for name, params in nested.get("task", {}).items()
    }
    glue = task_params.get("glue_test", {})
    for key, alpha in (("gamma1", problem.alpha1), ("gamma2", problem.alpha2)):
        if key in glue and not (0.0 <= float(glue[key]) <= alpha):
            raise ValueError(
                f"glue_test.{key} = {glue[key]} must lie in [0, {alpha}] "
                f"(componentwise split of the problem masses)"
            )
    steps = task_params.get("scan_subadd", {}).get("steps", 5)
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
        raise ValueError(f"task.scan_subadd.steps = {steps} must be an integer >= 1")
    p_exp = task_params.get("check_inequalities", {}).get("p", problem.p1)
    # (task, key, test, rule) of every numeric task parameter; p comes before
    # eta, whose bound it is
    for task, key, test, rule in (
        ("check_inequalities", "p", lambda x: 0.0 < x < math.inf, "must lie in (0, inf)"),
        ("check_inequalities", "eta", lambda x: 0.0 < x < p_exp, f"must lie in (0, p = {p_exp})"),
        ("check_inequalities", "resolution", lambda x: 0.0 < x < math.inf,
         "must lie in (0, inf)"),
        ("pohozaev", "mu", lambda x: 0.0 < x < math.inf, "must be finite and > 0"),
        ("pohozaev", "p", lambda x: 0.0 < x and x * problem.dim < 2.0,
         f"must lie in (0, 2/N) with N = {problem.dim}"),
        ("pohozaev", "gamma", lambda x: 0.0 <= x < math.inf, "must be finite and >= 0"),
        ("decay_fit", "r1", math.isfinite, "must be a finite number"),
        ("decay_fit", "r2", math.isfinite, "must be a finite number"),
    ):
        params = task_params.get(task, {})
        value = params.get(key)
        if key in params and (isinstance(value, bool) or not isinstance(value, (int, float))
                              or not test(value)):
            raise ValueError(f"task.{task}.{key} = {value} {rule}")
    return ExperimentConfig(
        problem=problem,
        solver=solver,
        grid_n=int(grid_node.get("n", 0)),
        grid_length=float(grid_node.get("length", 0.0)),
        tasks=tasks,
        output_dir=str(run_node.get("output_dir", "out")),
        required=required,
        task_params=task_params,
    )


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


# The plot CSVs emit_plot_data derives from each result JSON.
_PLOT_FILES = {
    "scan_subadd.json": ("subadd_heatmap.csv",),
    "decay_fit.json": ("decay_fits.csv", "decay_profile_c1.csv", "decay_profile_c2.csv"),
    "glue_test.json": ("gap_vs_n.csv",),
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

    An earlier run's manifest.json in out_dir, every file it lists and the
    plot CSVs emit_plot_data derives from those files are removed first, so
    the directory holds only this run's files.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.files: dict[str, str] = {}
        out_dir.mkdir(parents=True, exist_ok=True)
        names = _listed_files(out_dir)
        plots = [csv for name in names for csv in _PLOT_FILES.get(name, ())]
        for name in [*names, *plots, "manifest.json"]:
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
        self.tray = _OutputTray(out_dir)
        self.summary: list[str] = []
        self.failed_required: list[str] = []
        self.error: str | None = None
        self._values: dict[str, Any] = {}

    def params(self, task: str) -> dict:
        return self.cfg.task_params.get(task, {})

    def note(self, line: str) -> None:
        self.summary.append(line)

    def compute(self, tasks: list[str]) -> None:
        """Run the tasks' solves and scans before any file is written.

        The main solve has share 0, in this process, to itself; the other
        computations are dealt among forked workers (solver._run_shares).
        Each keeps its own error, which value() raises when its task's turn
        comes, so the files, notes and errors are those of a serial run.
        The workers have exited when this returns; task_solve forks again
        for its second field file.
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
        """solve.json, trajectory.csv and the two field CSVs.

        The fields are formatted at once through solver._run_shares, u1 in
        this process and u2 in a forked worker where two cores are usable,
        each through this module's write_field_csv.  A write that raises
        is re-raised once the field files after it are removed, so the
        directory is what a serial run leaves.
        """
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
        rows = ["iter,energy,residual"]
        for it, e, r in res.trajectory_energies:
            r_text = repr(r) if math.isfinite(r) else "inf"
            rows.append(f"{it},{e!r},{r_text}")
        self.tray.write_text("trajectory.csv", "\n".join(rows) + "\n")
        names = ("solve_u1.csv", "solve_u2.csv")
        paths = [self.tray.out_dir / name for name in names]
        writes = [
            functools.partial(_caught, functools.partial(write_field_csv, comp, str(path)))
            for comp, path in zip((res.state.u1, res.state.u2), paths)
        ]
        for k, written in enumerate(_run_shares(writes, "field CSV")):
            if isinstance(written, Exception):
                for later in paths[k + 1 :]:
                    later.unlink(missing_ok=True)  # a serial run never writes it
                raise written
            self.tray.add_existing(names[k])
        self.mark("solve", res.converged)
        self.note(
            f"solve: energy {res.report.total:.9g}, multipliers "
            f"({lam.lambda1:.6g}, {lam.lambda2:.6g}), "
            f"{res.iterations} iterations, converged={res.converged}"
        )

    def task_scan_subadd(self) -> None:
        p = self.params("scan_subadd")
        ticks = np.linspace(0.0, 1.0, p.get("steps", 5)).tolist()
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
        p = self.params("decay_fit")
        res = self.value("solve")
        length = self.grid.length
        window = (
            float(p.get("r1", 0.15 * length)),
            float(p.get("r2", 0.35 * length)),
        )
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
        p = self.params("glue_test")
        prob = self.cfg.problem
        gamma1 = float(p.get("gamma1", 0.5 * prob.alpha1))
        gamma2 = float(p.get("gamma2", 0.5 * prob.alpha2))
        return prob.with_masses(gamma1, gamma2), prob.without_potentials().with_masses(
            prob.alpha1 - gamma1, prob.alpha2 - gamma2
        )

    def calc_glue_inner(self):
        return minimize(self.glue_specs()[0], config=self.cfg.solver, grid=self.grid)

    def calc_glue_outer(self):
        return minimize(self.glue_specs()[1], config=self.cfg.solver, grid=self.grid)

    def task_glue_test(self) -> None:
        p = self.params("glue_test")
        n_cells = [int(n) for n in _as_list(p.get("n_cells"))]
        if not n_cells:
            n_cells = [int(round(f * self.grid.n)) for f in (0.125, 0.1875, 0.25)]
        inner, outer = self.value("glue_inner"), self.value("glue_outer")
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
        p = self.params("pohozaev")
        prob = self.cfg.problem
        mu = float(p.get("mu", prob.mu1))
        pexp = float(p.get("p", prob.p1))
        gamma = float(p.get("gamma", prob.alpha1))
        res = minimize_scalar(
            mu, pexp, gamma, dim=prob.dim, config=self.cfg.solver, grid=self.grid
        )
        return mu, pexp, gamma, res

    def task_pohozaev(self) -> None:
        mu, pexp, gamma, res = self.value("pohozaev")
        lam1 = res.multipliers.lambda1
        check = pohozaev_check(res.state.u1, lam1, mu, pexp)
        payload = {
            "mu": mu,
            "p": pexp,
            "gamma": gamma,
            "lambda": lam1,
            **asdict(check),
            "converged": res.converged,
        }
        self.tray.write_json("pohozaev.json", payload)
        self.mark("pohozaev", res.converged)
        self.note(f"pohozaev: residual {check.residual:.3g} at p={pexp}, mu={mu}")

    def calc_check_inequalities(self):
        """The exponent and the two scans of Lemma 3.4, with their notes."""
        p = self.params("check_inequalities")
        p_exp = float(p.get("p", self.cfg.problem.p1))
        eta = float(p.get("eta", 0.5 * p_exp))
        c_min = min_constant_34i(p_exp, resolution=float(p.get("resolution", 1e-3)))
        rep_i = replace(check_lemma34i(p_exp, c_min), min_constant_estimate=c_min)
        c_suf = sufficient_constant_34ii(p_exp, eta)
        c_min_ii = min_constant_34ii(p_exp, eta)
        rep_ii = replace(
            check_lemma34ii(p_exp, eta, c_suf), min_constant_estimate=c_min_ii
        )
        return p_exp, [("min constant", rep_i), ("sufficient constant", rep_ii)]

    def task_check_inequalities(self) -> None:
        p_exp, scans = self.value("check_inequalities")
        reports = [*scans, ("", check_elementary_p3(p_exp))]
        payload = [
            {**asdict(rep), "note": note, "violations": len(rep.violations),
             "holds": rep.holds}
            for note, rep in reports
        ]
        self.tray.write_json("check_inequalities.json", {"reports": payload})
        viol_rows = ["which,x,y,defect"]
        for _, rep in reports:
            for tup in rep.violations:
                if len(tup) == 3 and isinstance(tup[0], str):
                    tag, a, d = tup
                    viol_rows.append(f"{rep.which}:{tag},{a!r},1.0,{d!r}")
                else:
                    x, y, d = tup
                    viol_rows.append(f"{rep.which},{x!r},{y!r},{d!r}")
        if len(viol_rows) > 1:
            self.tray.write_text("violations.csv", "\n".join(viol_rows) + "\n")
        for note, rep in reports:
            self.note(
                f"check_inequalities: {rep.which} ({note or 'scan'}) "
                f"constant {rep.constant_tested:.6g}: "
                f"{'holds' if rep.holds else 'VIOLATED'}"
            )

    def calc_conv_limit(self):
        p = self.params("conv_limit")
        f_rate = float(p.get("f_rate", 2.0))
        g_rate = float(p.get("g_rate", 1.0))
        poly_power = float(p.get("poly_power", 0.0))
        r_values = [float(r) for r in _as_list(p.get("r_values"))] or [
            0.125 * self.grid.length,
            0.25 * self.grid.length,
        ]

        def f(*coords):
            r = np.sqrt(sum(c**2 for c in coords))
            return np.exp(-f_rate * r)

        def g(*coords):
            r = np.sqrt(sum(c**2 for c in coords))
            return (1.0 + r) ** (-poly_power) * np.exp(-g_rate * r)

        return convolution_limit_check(
            f, g, poly_power, g_rate, 1.0, self.grid, r_values, f_rate=f_rate
        )

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
        written = _emit_plots(self.tray.out_dir, self.tray.files)
        for name in written:
            self.tray.add_existing(name)
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

    tasks, out_dir and seed override the config when given.  A potential
    that cannot be sampled on the run grid (a missing, mismatched or complex
    table) raises before any file is written.  If a task raises, summary.txt
    and manifest.json are still written and the error propagates.
    """
    cfg = load_config(config_path)
    if seed is not None:
        cfg = replace(cfg, solver=replace(cfg.solver, rng_seed=seed))
    violations = validate(cfg.problem)
    if violations:
        for v in violations:
            print(f"hypothesis violation: {v}", file=sys.stderr)
        return 1
    grid = cfg.grid()
    for pot in (cfg.problem.v1, cfg.problem.v2):
        sample_potential(pot, grid)
    out = Path(out_dir) if out_dir is not None else Path(cfg.output_dir)
    runner = _Runner(cfg, out)
    try:
        runner.run_tasks(tasks if tasks is not None else cfg.tasks)
    finally:
        exit_code = runner.finish(cfg.solver.rng_seed)
    return exit_code


# ---------------------------------------------------------------------------
# plot data


def emit_plot_data(out_dir: str | Path) -> list[str]:
    """Derive plot-ready CSVs from the result JSONs a directory's manifest lists.

    Produces subadd_heatmap.csv (theta1,theta2,e_inner,e_outer,gap),
    decay_fits.csv (component,r1,r2,rate,poly,expected,r2), one
    decay_profile_c<i>.csv (r,log_value,fit_value) per fitted component,
    and gap_vs_n.csv (n,kappa1,kappa2,tau1,tau2,gap) for whichever
    inputs are listed; returns the names written.  A JSON file that
    manifest.json does not list is not read.
    """
    return _emit_plots(Path(out_dir), set(_listed_files(Path(out_dir))))


def _emit_plots(out: Path, sources) -> list[str]:
    """emit_plot_data, reading only the JSON files of out named in sources."""
    written = []
    scan = out / "scan_subadd.json"
    if scan.name in sources:
        data = json.loads(scan.read_text())
        rows = ["theta1,theta2,e_inner,e_outer,gap"]
        for pt in data["points"]:
            rows.append(
                f"{pt['theta1']!r},{pt['theta2']!r},{pt['e_inner']!r},"
                f"{pt['e_outer']!r},{pt['gap']!r}"
            )
        (out / "subadd_heatmap.csv").write_text("\n".join(rows) + "\n")
        written.append("subadd_heatmap.csv")
    decay = out / "decay_fit.json"
    if decay.name in sources:
        data = json.loads(decay.read_text())
        rows = ["component,r1,r2,rate,poly,expected,r2"]
        for f in data["fits"]:
            rows.append(
                f"{f['component']},{f['window'][0]!r},{f['window'][1]!r},"
                f"{f['rate']!r},{f['poly']!r},{f['expected']!r},{f['r_squared']!r}"
            )
        (out / "decay_fits.csv").write_text("\n".join(rows) + "\n")
        written.append("decay_fits.csv")
        for f in data["fits"]:
            prof = f.get("profile")
            if not prof:
                continue
            name = f"decay_profile_c{f['component']}.csv"
            rows = ["r,log_value,fit_value"]
            for r, lv, fv in zip(prof["r"], prof["log_value"], prof["fit_value"]):
                rows.append(f"{r!r},{lv!r},{fv!r}")
            (out / name).write_text("\n".join(rows) + "\n")
            written.append(name)
    glue = out / "glue_test.json"
    if glue.name in sources:
        data = json.loads(glue.read_text())
        rows = ["n,kappa1,kappa2,tau1,tau2,gap"]
        for lg in data:
            rows.append(
                f"{lg['n']},{lg['kappa1']!r},{lg['kappa2']!r},"
                f"{lg['tau1']!r},{lg['tau2']!r},{lg['gap']!r}"
            )
        (out / "gap_vs_n.csv").write_text("\n".join(rows) + "\n")
        written.append("gap_vs_n.csv")
    return written


# ---------------------------------------------------------------------------
# command line


# One subcommand per task, and run for the config's full task list.
_SUBCOMMANDS = {**{t.replace("_", "-"): [t] for t in TASK_NAMES}, "run": None}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="binorm-gs",
        description="Two-component constrained ground states and structural checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=name != "emit-plots")
        p.add_argument("--out", help="output directory (overrides the config)")
        if name != "emit-plots":
            p.add_argument("--seed", type=int, help="solver rng seed override")
    args = parser.parse_args(argv)

    try:
        if args.command == "emit-plots":
            # Plots only: the run that wrote the directory keeps its manifest.
            if args.config is None and args.out is None:
                print("emit-plots needs --config or --out", file=sys.stderr)
                return 1
            out = args.out if args.out is not None else load_config(args.config).output_dir
            emit_plot_data(out)
            return 0
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
