"""Batch command-line driver.

Subcommands: ``spectrum``, ``symbol``, ``volume``, ``geodesic``,
``verify``.  Configuration comes from flags or a JSON config file
(flags override file values).  Each run writes one structured JSON
result document (atomically); ``--csv`` additionally writes the main
table as comma-separated values.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numeric/domain error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import os
import sys
import tempfile
from typing import Optional

from . import __version__
from .catalog import METRIC_KINDS, build_metric
from .charts import ChartPoint, SPHERE
from .errors import ConfigError, FinlapError
from .hilbert import FiberPoint, geodesic_integrate
from .laplace import operator_coefficients
from .measures import holmes_thompson_density, volume_density
from .metrics import FinslerMetric2D
from .spectral import (TorusGridBasis, assemble_eigenproblem, solve_eigen,
                       sphere_spectrum)
from .katok_ziller import torus_spectrum
from .verify import run_suite


def _number(conv, value, name: str):
    """``conv(value)`` (float or int), None kept.  A value ``conv`` rejects,
    a boolean, or for an int a number it would truncate is a config
    error."""
    if value is None:
        return None
    kind = "an integer" if conv is int else "a number"
    try:
        number = conv(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be {kind}, got {value!r}") from exc
    if isinstance(value, bool) or (conv is int and isinstance(value, float) and number != value):
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
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


def _merged(args, cfg: dict):
    """Flags override config-file values; missing values get defaults."""
    metric_cfg = cfg.get("metric", {})
    res_cfg = cfg.get("resolution", {})

    def pick(flag_value, cfg_value, default):
        if flag_value is not None:
            return flag_value
        if cfg_value is not None:
            return cfg_value
        return default

    merged = argparse.Namespace()
    merged.metric = pick(getattr(args, "metric", None), metric_cfg.get("kind"), "kz-torus")
    merged.eps = _number(float, pick(getattr(args, "eps", None), metric_cfg.get("eps"), 0.0),
                         "metric.eps")
    merged.g = metric_cfg.get("g")
    merged.theta = metric_cfg.get("theta")
    merged.conformal = metric_cfg.get("conformal")
    merged.fiber_n = _number(int, pick(getattr(args, "fiber_n", None),
                                       res_cfg.get("fiber_n"), 256), "resolution.fiber_n")
    for key, cfg_key in (("grid", "grid_n"), ("lmax", "lmax"), ("k", "k"),
                         ("pmax", "pmax"), ("qmax", "qmax")):
        setattr(merged, key, _number(int, pick(getattr(args, key, None),
                                               res_cfg.get(cfg_key), None),
                                     f"resolution.{cfg_key}"))
    merged.out = pick(getattr(args, "out", None), cfg.get("output"), None)
    merged.seed = _number(int, pick(getattr(args, "seed", None), cfg.get("seed"), 0), "seed")
    merged.csv = bool(getattr(args, "csv", False))
    return merged


def _config_echo(m) -> dict:
    metric = {"kind": m.metric, "eps": m.eps}
    for key in ("g", "theta", "conformal"):
        if getattr(m, key) is not None:
            metric[key] = getattr(m, key)
    return {
        "metric": metric,
        "resolution": {
            "fiber_n": m.fiber_n, "grid_n": m.grid, "lmax": m.lmax,
            "k": m.k, "pmax": m.pmax, "qmax": m.qmax,
        },
        "seed": m.seed,
    }


def cmd_spectrum(args) -> int:
    m = _merged(args, _load_config(args.config))
    doc = {"config_echo": _config_echo(m), "task": "spectrum"}
    if m.metric == "kz-torus" and (m.pmax is not None or m.qmax is not None) and m.grid is None:
        pmax = m.pmax if m.pmax is not None else 2
        qmax = m.qmax if m.qmax is not None else 2
        result = torus_spectrum(m.eps, pmax, qmax)
    elif m.metric == "kz-sphere":
        lmax = m.lmax if m.lmax is not None else 10
        k = m.k if m.k is not None else 5
        result = sphere_spectrum(m.eps, lmax, k)
    else:
        metric = build_metric(m.metric, m.eps, m.g, m.theta, m.conformal)
        n = m.grid if m.grid is not None else 32
        k = m.k if m.k is not None else 10
        prob = assemble_eigenproblem(metric, TorusGridBasis(n=n, fiber_n=m.fiber_n))
        result = solve_eigen(prob, k=k)
    doc["eigenvalues"] = [
        {"value": float(v), "multiplicity": int(c)}
        for v, c in zip(result.eigenvalues, result.multiplicities)
    ]
    doc["solver_meta"] = result.meta
    rows = [(f"{v:.12g}", c) for v, c in zip(result.eigenvalues, result.multiplicities)]
    write_result(m.out, doc, rows if m.csv else None, ("eigenvalue", "multiplicity"))
    return 0


def _point(metric: FinslerMetric2D, at) -> ChartPoint:
    if at is None:
        return (ChartPoint(SPHERE, math.pi / 2.0, 0.0) if metric.chart == SPHERE
                else ChartPoint(metric.chart, 0.0, 0.0))
    _finite("--at", *at)
    return ChartPoint(metric.chart, float(at[0]), float(at[1]))


def cmd_symbol(args) -> int:
    m = _merged(args, _load_config(args.config))
    metric = build_metric(m.metric, m.eps, m.g, m.theta, m.conformal)
    x = _point(metric, args.at)
    c = operator_coefficients(metric, x, fiber_n=m.fiber_n)
    doc = {
        "config_echo": _config_echo(m),
        "task": "symbol",
        "coefficients": {
            "at": [x.u, x.v],
            "sigma": c.sigma.tolist(),
            "drift": c.drift.tolist(),
            "vol_density": c.vol_density,
        },
    }
    write_result(m.out, doc)
    return 0


def cmd_volume(args) -> int:
    m = _merged(args, _load_config(args.config))
    metric = build_metric(m.metric, m.eps, m.g, m.theta, m.conformal)
    x = _point(metric, args.at)
    vd = volume_density(metric, x, n=m.fiber_n)
    ht = holmes_thompson_density(metric, x)
    doc = {
        "config_echo": _config_echo(m),
        "task": "volume",
        "coefficients": {
            "at": [x.u, x.v],
            "volume_density": vd,
            "holmes_thompson_density": ht,
            "defect": abs(vd - ht),
        },
    }
    write_result(m.out, doc)
    return 0


def cmd_geodesic(args) -> int:
    m = _merged(args, _load_config(args.config))
    _finite("--t-end", args.t_end)
    _finite("--dt", args.dt)
    if args.dt <= 0.0:
        raise ConfigError(f"--dt must be positive, got {args.dt}")
    _finite("--start", *args.start)
    metric = build_metric(m.metric, m.eps, m.g, m.theta, m.conformal)
    u0, v0, phi0 = args.start
    fp = FiberPoint(ChartPoint(metric.chart, float(u0), float(v0)), float(phi0))
    traj = geodesic_integrate(metric, fp, args.t_end, args.dt)
    doc = {
        "config_echo": _config_echo(m),
        "task": "geodesic",
        "trajectory": {
            "status": traj.status,
            "samples": [
                {"t": t, "u": p.base.u, "v": p.base.v, "phi": p.phi}
                for t, p in zip(traj.times, traj.points)
            ],
        },
    }
    rows = [(t, p.base.u, p.base.v, p.phi) for t, p in zip(traj.times, traj.points)]
    write_result(m.out, doc, rows if m.csv else None, ("t", "u", "v", "phi"))
    return 0


def cmd_verify(args) -> int:
    m = _merged(args, _load_config(args.config))
    params = {"metric": m.metric, "eps": m.eps}
    if args.grid is not None:
        params["grid_n"] = int(args.grid)
    results = run_suite(args.suite, params, seed=m.seed)
    report = [
        {"check": r.check, "status": r.status, "defect": r.defect, "tolerance": r.tolerance}
        for r in results
    ]
    doc = {"config_echo": _config_echo(m), "task": "verify", "report": report}
    rows = [(r.check, r.status, f"{r.defect:.6e}", f"{r.tolerance:.1e}") for r in results]
    write_result(m.out, doc, rows if m.csv else None,
                 ("check", "status", "defect", "tolerance"))
    failed = [r for r in results if r.status != "pass"]
    for r in results:
        print(f"[{r.status.upper():4s}] {r.check}: defect {r.defect:.3e} "
              f"(tol {r.tolerance:.1e})", file=sys.stderr)
    return 1 if failed else 0


def _add_common(p):
    p.add_argument("--metric", choices=METRIC_KINDS, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--fiber-n", dest="fiber_n", type=int, default=None)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--lmax", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--config", default=None, help="JSON config file; flags override")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finlap",
        description="Finsler-Laplace operators: symbols, volumes, spectra, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues of the negative operator")
    _add_common(p)
    p.add_argument("--pmax", type=int, default=None)
    p.add_argument("--qmax", type=int, default=None)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("symbol", help="pointwise symbol, drift and volume density")
    _add_common(p)
    p.add_argument("--at", nargs=2, type=float, default=None, metavar=("U", "V"))
    p.set_defaults(func=cmd_symbol)

    p = sub.add_parser("volume", help="volume density and Holmes-Thompson check")
    _add_common(p)
    p.add_argument("--at", nargs=2, type=float, default=None, metavar=("U", "V"))
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("geodesic", help="integrate a geodesic")
    _add_common(p)
    p.add_argument("--start", nargs=3, type=float, required=True, metavar=("U", "V", "PHI"))
    p.add_argument("--t-end", dest="t_end", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("verify", help="run a named verification suite")
    _add_common(p)
    p.add_argument("--suite", default="all")
    p.set_defaults(func=cmd_verify)

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
