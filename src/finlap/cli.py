"""Batch command-line driver.

Subcommands: ``spectrum``, ``symbol``, ``volume``, ``geodesic``,
``verify``, each taking only the flags it reads (:data:`_COMMANDS`).
``spectrum``, ``symbol`` and ``volume`` read (sigma, rho) off the fiber
rule of :mod:`finlap.measures`; the Reeb route runs only in ``geodesic``
and as an oracle in ``verify``.
Each setting (:data:`_SETTINGS`) comes from its flag, else from a JSON
config file, and is read with its default where it is used
(:meth:`_Run.get`).  A setting given but not read by the run's route, a
config key that is no setting and a config ``task`` naming another
subcommand are configuration errors.  Each run writes one JSON result
document (atomically) whose ``config_echo`` holds the settings read;
``--csv`` (spectrum, geodesic, verify) also writes the main table as
comma-separated values.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numeric/domain error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import math
import os
import re
import sys
import tempfile
from typing import Optional

from . import __version__
from .catalog import DEFAULT_EPS, DEFAULT_KIND, METRIC_KINDS, build_metric, read_metric
from .charts import ChartPoint, SPHERE
from .errors import ConfigError, FinlapError
from .hilbert import FiberPoint, geodesic_integrate
from .laplace import _divergence_form
from .measures import DEFAULT_FIBER_N, _fiber_densities, holmes_thompson_density
from .spectral import (TorusGridBasis, assemble_eigenproblem, solve_eigen,
                       sphere_spectrum, torus_spectrum)
from .verify import run_suite


def _number(conv, value, name: str):
    """``conv(value)`` (float or int), None kept.  A value ``conv`` rejects,
    a boolean, for an int a number it would truncate and for a float a
    value that is not finite is a config error."""
    if value is None:
        return None
    kind = "an integer" if conv is int else "a number"
    try:
        number = conv(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be {kind}, got {value!r}") from exc
    if isinstance(value, bool) or (conv is int and isinstance(value, float) and number != value):
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    if conv is float and not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return number


def _finite(flag: str, *values: float):
    """Raise ConfigError unless every value given for ``flag`` is finite."""
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{flag} must be finite, got {' '.join(map(str, values))}")


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".finlap-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_result(path: Optional[str], doc: dict, csv_rows=None, csv_header=None):
    doc["meta"] = {
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    text = json.dumps(doc, indent=2) + "\n"
    if not path:
        sys.stdout.write(text)
        return
    try:
        _atomic_write(path, text)
        if csv_rows is not None:
            csv_path = os.path.splitext(path)[0] + ".csv"
            with open(csv_path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                if csv_header:
                    writer.writerow(csv_header)
                writer.writerows(csv_rows)
    except OSError as exc:
        raise ConfigError(f"cannot write output {exc.filename or path}: "
                          f"{exc.strerror or exc}") from exc


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


#: every setting of a run: its flag (None: config file only), its
#: config-file key and its number type (None: taken as given)
_SETTINGS = {
    "metric": ("--metric", "metric.kind", None),
    "eps": ("--eps", "metric.eps", float),
    "g": (None, "metric.g", None),
    "theta": (None, "metric.theta", None),
    "conformal": (None, "metric.conformal", float),
    "fiber_n": ("--fiber-n", "resolution.fiber_n", int),
    "grid_n": ("--grid", "resolution.grid_n", int),
    "lmax": ("--lmax", "resolution.lmax", int),
    "k": ("--k", "resolution.k", int),
    "pmax": ("--pmax", "resolution.pmax", int),
    "qmax": ("--qmax", "resolution.qmax", int),
    "seed": ("--seed", "seed", int),
    "output": ("--out", "output", None),
}


class _Run:
    """The settings of one run, each from its flag, else from the config
    file.  A config key not in :data:`_SETTINGS`, or a ``task`` other than
    the subcommand, is a ConfigError; so is a setting that was given but
    not read, which each handler checks (:meth:`check`) once it has read
    its settings, before it computes."""

    def __init__(self, args):
        self.args = args
        cfg = _load_config(args.config)
        task = cfg.pop("task", args.command)
        if task != args.command:
            raise ConfigError(f"config file task {task!r} is not {args.command!r}")
        names = {key: name for name, (_, key, _) in _SETTINGS.items()}
        self.given, self.read = {}, {}
        flat = {}
        for key, value in cfg.items():
            if isinstance(value, dict):
                flat.update((f"{key}.{leaf}", v) for leaf, v in value.items())
            else:
                flat[key] = value
        for key, value in flat.items():
            if key not in names:
                raise ConfigError(f"unknown config key {key!r}")
            if value is not None:
                self.given[names[key]] = (value, key)
        for name, (flag, _, _) in _SETTINGS.items():
            value = getattr(args, flag[2:].replace("-", "_"), None) if flag else None
            if value is not None:
                self.given[name] = (value, flag)

    def get(self, name: str, default=None):
        """The setting ``name`` as given, else ``default``; recorded as read."""
        value, source = self.given.get(name, (default, None))
        conv = _SETTINGS[name][2]
        if conv:
            value = _number(conv, value, source)
        self.read[name] = value
        return value

    def check(self):
        """Raise ConfigError for a setting given but not read, the output
        path aside."""
        unread = [source for name, (_, source) in self.given.items()
                  if name not in self.read and name != "output"]
        if unread:
            raise ConfigError(f"{', '.join(unread)} given but not read by this "
                              f"{self.args.command} run")

    def write(self, payload: dict, csv_rows=None, csv_header=None):
        """Write the result: ``config_echo`` (the settings read, defaults
        filled in, the output path left out), the task and ``payload``."""
        out = self.get("output")
        self.check()
        echo = {}
        for name, (_, key, _) in _SETTINGS.items():
            if name in self.read and name != "output":
                section, _, leaf = key.rpartition(".")
                (echo.setdefault(section, {}) if section else echo)[leaf] = self.read[name]
        doc = {"config_echo": echo, "task": self.args.command, **payload}
        write_result(out, doc, csv_rows if getattr(self.args, "csv", False) else None,
                     csv_header)


def cmd_spectrum(args) -> int:
    run = _Run(args)
    kind = run.get("metric", DEFAULT_KIND)
    if kind == "kz-torus" and "grid_n" not in run.given and run.given.keys() & {"pmax", "qmax"}:
        solve = functools.partial(torus_spectrum, run.get("eps", DEFAULT_EPS),
                                  run.get("pmax", 2), run.get("qmax", 2))
    elif kind == "kz-sphere":
        solve = functools.partial(sphere_spectrum, run.get("eps", DEFAULT_EPS),
                                  run.get("lmax", 10), run.get("k", 5))
    else:
        k = run.get("k", 10)
        basis = TorusGridBasis(n=run.get("grid_n", 32),
                               fiber_n=run.get("fiber_n", DEFAULT_FIBER_N))
        metric = read_metric(run.get)

        def solve():
            return solve_eigen(assemble_eigenproblem(metric, basis), k=k)
    run.check()
    result = solve()
    rows = list(zip(result.eigenvalues, result.multiplicities))
    run.write({"eigenvalues": [{"value": float(v), "multiplicity": int(c)} for v, c in rows],
               "solver_meta": result.meta},
              [(f"{v:.12g}", c) for v, c in rows], ("eigenvalue", "multiplicity"))
    return 0


def _at_point(args):
    """The run, metric, point (``--at``, else a default) and fiber count of
    ``symbol`` and ``volume``, settings checked."""
    run = _Run(args)
    metric = read_metric(run.get)
    at = args.at or (math.pi / 2.0 if metric.chart == SPHERE else 0.0, 0.0)
    _finite("--at", *at)
    x = ChartPoint(metric.chart, float(at[0]), float(at[1]))
    fiber_n = run.get("fiber_n", DEFAULT_FIBER_N)
    run.check()
    return run, metric, x, fiber_n


def cmd_symbol(args) -> int:
    run, metric, x, fiber_n = _at_point(args)
    c, fiber_defect = _divergence_form(metric, x, fiber_n)
    run.write({"coefficients": {
        "at": [x.u, x.v], "sigma": c.sigma.tolist(), "drift": c.drift.tolist(),
        "vol_density": c.vol_density, "fiber_n": fiber_n, "fiber_defect": fiber_defect}})
    return 0


def cmd_volume(args) -> int:
    run, metric, x, fiber_n = _at_point(args)
    _, rho, fiber_defect = _fiber_densities(metric, [x], fiber_n)
    vd, ht = float(rho[0]), holmes_thompson_density(metric, x)
    run.write({"coefficients": {
        "at": [x.u, x.v],
        "volume_density": vd,
        "holmes_thompson_density": ht,
        "defect": abs(vd - ht),
        "fiber_n": fiber_n,
        "fiber_defect": fiber_defect,
    }})
    return 0


def cmd_geodesic(args) -> int:
    run = _Run(args)
    _finite("--t-end", args.t_end)
    _finite("--dt", args.dt)
    if args.dt <= 0.0:
        raise ConfigError(f"--dt must be positive, got {args.dt}")
    _finite("--start", *args.start)
    metric = read_metric(run.get)
    u0, v0, phi0 = args.start
    fp = FiberPoint(ChartPoint(metric.chart, float(u0), float(v0)), float(phi0))
    run.check()
    traj = geodesic_integrate(metric, fp, args.t_end, args.dt)
    run.write({"trajectory": {
        "status": traj.status,
        "samples": [
            {"t": t, "u": p.base.u, "v": p.base.v, "phi": p.phi}
            for t, p in zip(traj.times, traj.points)
        ],
    }}, [(t, p.base.u, p.base.v, p.phi) for t, p in zip(traj.times, traj.points)],
        ("t", "u", "v", "phi"))
    return 0


def cmd_verify(args) -> int:
    run = _Run(args)
    # an eps or grid not given is left to each suite's own default
    params = {"metric": run.get("metric", DEFAULT_KIND), "eps": run.get("eps"),
              "grid_n": run.get("grid_n")}
    seed = run.get("seed", 0)
    run.check()
    results = run_suite(args.suite, {key: value for key, value in params.items()
                                     if value is not None}, seed=seed)
    report = [
        {"check": r.check, "status": r.status, "defect": r.defect, "tolerance": r.tolerance}
        for r in results
    ]
    run.write({"report": report},
              [(r.check, r.status, f"{r.defect:.6e}", f"{r.tolerance:.1e}") for r in results],
              ("check", "status", "defect", "tolerance"))
    failed = [r for r in results if r.status != "pass"]
    for r in results:
        print(f"[{r.status.upper():4s}] {r.check}: defect {r.defect:.3e} "
              f"(tol {r.tolerance:.1e})", file=sys.stderr)
    return 1 if failed else 0


#: a negative number, a value and not an option (argparse's own pattern misses -1e-3, -inf)
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$",
                              re.IGNORECASE)


#: every flag of the command line, by name: the keywords of its add_argument
_FLAGS = {
    "--metric": dict(choices=METRIC_KINDS),
    "--eps": dict(type=float),
    "--fiber-n": dict(type=int),
    "--grid": dict(type=int),
    "--lmax": dict(type=int),
    "--k": dict(type=int),
    "--pmax": dict(type=int),
    "--qmax": dict(type=int),
    "--at": dict(nargs=2, type=float, metavar=("U", "V")),
    "--start": dict(nargs=3, type=float, required=True, metavar=("U", "V", "PHI")),
    "--t-end": dict(type=float, default=1.0),
    "--dt": dict(type=float, default=1e-3),
    "--suite": dict(default="all"),
    "--seed": dict(type=int),
    "--out": dict(),
    "--csv": dict(action="store_true"),
    "--config": dict(help="JSON config file; flags override"),
}

#: each subcommand: its handler, help line and the flags it reads; any
#: other flag is an argparse error (exit code 2)
_COMMANDS = {
    "spectrum": (cmd_spectrum, "eigenvalues of the negative operator",
                 ("--metric", "--eps", "--fiber-n", "--grid", "--lmax", "--k",
                  "--pmax", "--qmax", "--out", "--csv", "--config")),
    "symbol": (cmd_symbol, "pointwise symbol, drift and volume density",
               ("--metric", "--eps", "--fiber-n", "--at", "--out", "--config")),
    "volume": (cmd_volume, "volume density and Holmes-Thompson check",
               ("--metric", "--eps", "--fiber-n", "--at", "--out", "--config")),
    "geodesic": (cmd_geodesic, "integrate a geodesic",
                 ("--metric", "--eps", "--start", "--t-end", "--dt", "--out", "--csv",
                  "--config")),
    "verify": (cmd_verify, "run a named verification suite",
               ("--suite", "--metric", "--eps", "--grid", "--seed", "--out", "--csv",
                "--config")),
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finlap",
        description="Finsler-Laplace operators: symbols, volumes, spectra, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"finlap: config error: {exc}", file=sys.stderr)
        return 2
    except FinlapError as exc:
        print(f"finlap: numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
