"""The four perfbench workloads.

A workload makes one job's inputs from a seeded generator, executes the
job through finlap's public API or its CLI (the timed part), and checks
the job's output (untimed).  Every job builds its own metric object, so
no cache held on a metric carries results from one job to the next.

Why these four: each stresses a different layer, and each optimisation on
the ROADMAP has one workload that exercises it and one that bypasses it.

* torus-var -- variable Randers torus spectrum at n=32: the per-point
  coefficient path (metrics -> hilbert -> measures -> laplace) is over 95%
  of the work.  Every job currently ends in ``NumericError: negative
  eigenvalue`` (the non-conservative assembly); that is counted as a
  failed job and recorded, never hidden.
* torus-kz -- ``finlap spectrum`` for a Katok-Ziller torus on a 128 grid:
  coefficients are computed once, the sparse shift-invert Lanczos solve
  dominates; it bypasses the coefficient kernel.
* sphere-kz -- Galerkin sphere spectra (dense Jacobi solves) and the
  sphere volume (adaptive fiber quadrature), with criterion 02's checks.
* verify-all -- ``finlap verify --suite all``: thousands of calls with
  one to a few rays each, so per-call overhead dominates; the only
  workload with the geodesic integrator and the dual-norm searches.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import finlap as fl
from finlap import cli
from finlap.metrics import randers

TORUS_VAR_N = 32
TORUS_KZ_GRID = 128
EIG_K = 10
SPHERE_LMAX = 40
SPHERE_K = 6
SPHERE_EPS_PER_JOB = 3
# acceptance-criterion tolerances: 01 (torus FD vs closed form), 02 (sphere)
TORUS_REL_TOL = 1e-2
SPHERE_EIG_TOL = 1e-8
SPHERE_VOL_TOL = 1e-6


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str = ""
    eig_rel_err: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable      # rng -> dict
    execute: Callable     # (inputs, workdir) -> output
    check: Callable       # (inputs, output) -> Verdict


# the CLI's error exit codes, as the errors it reports (config error, numeric error)
CLI_ERRORS = {2: fl.ConfigError, 3: fl.NumericError}


def _cli(argv, out):
    """Run ``finlap <argv> --out <out>`` in-process; exit code 2 or 3 raises
    the ``ConfigError`` or ``NumericError`` the CLI reported.  A stale
    ``out`` from an earlier job is removed first."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(out)
    argv = argv + ["--out", out]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc not in (0, 1):
        raise CLI_ERRORS.get(rc, RuntimeError)(f"finlap exited {rc}: {err.getvalue().strip()}")
    return rc


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- torus-var ---------------------------------------------------------------

def _torus_var_inputs(rng):
    return {"phase": float(rng.uniform(0.0, 1.0))}


def variable_randers(phase):
    """Randers torus metric with theta = (0.3 sin 2pi(v + phase), 0)."""
    return randers(np.eye(2),
                   lambda p: np.array([0.3 * math.sin(2.0 * math.pi * (p.v + phase)), 0.0]),
                   chart=fl.TORUS)


def _torus_var_execute(inp, workdir):
    metric = variable_randers(inp["phase"])
    problem = fl.assemble_eigenproblem(metric, fl.TorusGridBasis(n=TORUS_VAR_N))
    return fl.solve_eigen(problem, k=EIG_K)


def _torus_var_check(inp, result):
    vals = result.expand()
    ok = (vals.size == EIG_K and bool(np.all(np.isfinite(vals)))
          and vals[0] >= -1e-9 * max(1.0, float(np.abs(vals).max())))
    return Verdict(ok, f"lowest eigenvalue {vals[0]!r}")


# -- torus-kz ----------------------------------------------------------------

def _torus_kz_inputs(rng):
    return {"eps": float(rng.uniform(0.3, 0.7))}


def _torus_kz_execute(inp, workdir):
    out = os.path.join(workdir, "torus-kz.json")
    rc = _cli(["spectrum", "--metric", "kz-torus", "--eps", repr(inp["eps"]),
               "--grid", str(TORUS_KZ_GRID), "--k", str(EIG_K)], out)
    return rc, out


def _torus_kz_check(inp, output):
    rc, path = output
    if rc != 0:
        return Verdict(False, f"exit {rc}")
    rows = _read_json(path)["eigenvalues"]
    fd = np.repeat([r["value"] for r in rows], [r["multiplicity"] for r in rows])
    exact = fl.torus_spectrum(inp["eps"], 3, 3).expand()[:EIG_K]
    if fd.size != EIG_K:
        return Verdict(False, f"{fd.size} eigenvalues, expected {EIG_K}")
    # the zero mode is compared absolutely, as in criterion 01
    zero = abs(fd[0] - exact[0])
    rel = float(np.max(np.abs(fd[1:] - exact[1:]) / exact[1:]))
    return Verdict(zero <= TORUS_REL_TOL and rel <= TORUS_REL_TOL,
                   f"eps {inp['eps']:.4f}: zero mode {zero:.1e}, max rel err {rel:.2e}", rel)


# -- sphere-kz ---------------------------------------------------------------

def _sphere_kz_inputs(rng):
    # one eps in each third of [0.1, 0.5], so every job does similar work
    width = 0.4 / SPHERE_EPS_PER_JOB
    return {"eps": [0.1 + width * (i + float(rng.uniform()))
                    for i in range(SPHERE_EPS_PER_JOB)]}


def _sphere_kz_execute(inp, workdir):
    out = []
    for eps in inp["eps"]:
        spectrum = fl.sphere_spectrum(eps, lmax=SPHERE_LMAX, k=SPHERE_K)
        volume = fl.sphere_total_volume(fl.kz_sphere(eps), n_phi=96, n_theta=2)
        out.append((spectrum, volume))
    return out


def _sphere_kz_check(inp, output):
    worst_eig = worst_vol = 0.0
    for eps, (spectrum, volume) in zip(inp["eps"], output):
        vals = spectrum.expand()
        exact = 2.0 - 2.0 * eps**2
        worst_eig = max(worst_eig, abs(vals[vals > 1e-9][0] - exact))
        worst_vol = max(worst_vol, abs(exact - 8.0 * math.pi / volume))
    return Verdict(worst_eig <= SPHERE_EIG_TOL and worst_vol <= SPHERE_VOL_TOL,
                   f"lambda_1 defect {worst_eig:.1e}, 8 pi/vol defect {worst_vol:.1e}")


# -- verify-all --------------------------------------------------------------

def _verify_inputs(rng):
    return {"seed": int(rng.integers(0, 2**31 - 1))}


def _verify_execute(inp, workdir):
    out = os.path.join(workdir, "verify-all.json")
    rc = _cli(["verify", "--suite", "all", "--seed", str(inp["seed"])], out)
    return rc, out


def _verify_check(inp, output):
    rc, path = output
    rows = _read_json(path)["report"]
    failed = [r["check"] for r in rows if r["status"] != "pass"]
    return Verdict(rc == 0 and bool(rows) and not failed,
                   f"seed {inp['seed']}: {len(rows)} rows, failed {failed}")


WORKLOADS = {w.name: w for w in [
    Workload("torus-var", _torus_var_inputs, _torus_var_execute, _torus_var_check),
    Workload("torus-kz", _torus_kz_inputs, _torus_kz_execute, _torus_kz_check),
    Workload("sphere-kz", _sphere_kz_inputs, _sphere_kz_execute, _sphere_kz_check),
    Workload("verify-all", _verify_inputs, _verify_execute, _verify_check),
]}


def job_rng(seed, index):
    """Generator for job ``index`` of a run with ``seed``; job 0 is the warm-up."""
    return np.random.default_rng([seed, index])
