"""Named verification suites behind the command-line ``verify`` task.

Each suite runs a batch of library-level identity checks and returns a
list of :class:`CheckResult` rows; a suite passes when every row does.
:func:`run_suite` times each suite and stamps its wall time on every row
it returned.  The random samples are driven by a seed so runs are
reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from .catalog import build_metric
from .charts import ChartPoint, SPHERE, TORUS
from .errors import ConfigError
from .fields import SeparableTrigField, SumField
from .hilbert import FiberPoint, geodesic_integrate, reeb_residuals
from .laplace import laplacian_apply, operator_coefficients, weighted_symmetry_residual
from .measures import dual_norm_sampled, holmes_thompson_density, volume_density
from .metrics import (FinslerMetric2D, convexity_margin, dual_norm, eval_f,
                      kz_sphere, kz_torus, legendre_forward, randers, riemannian,
                      scale_conformal)
from .randers import randers_data, symbol_closed_form, symbol_oracle
from .spectral import energy, torus_base


@dataclass
class CheckResult:
    check: str
    status: str     # "pass" | "fail"
    defect: float
    tolerance: float
    #: wall time of the whole suite that produced the row (set by run_suite)
    seconds: float = 0.0

    @classmethod
    def from_defect(cls, check: str, defect: float, tolerance: float) -> "CheckResult":
        return cls(check=check, status="pass" if defect <= tolerance else "fail",
                   defect=float(defect), tolerance=float(tolerance))


def _random_point(metric: FinslerMetric2D, rng) -> ChartPoint:
    if metric.chart == SPHERE:
        return ChartPoint(SPHERE, rng.uniform(0.15, math.pi - 0.15),
                          rng.uniform(0.0, 2.0 * math.pi))
    return ChartPoint(metric.chart, rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))


def _random_vector(rng) -> np.ndarray:
    ang = rng.uniform(0.0, 2.0 * math.pi)
    r = rng.uniform(0.2, 3.0)
    return r * np.array([math.cos(ang), math.sin(ang)])


def _default_metric(params: Dict) -> FinslerMetric2D:
    """The run's metric kind and eps, by default the kz-torus at eps 0.6."""
    return build_metric(params.get("metric", "kz-torus"), float(params.get("eps", 0.6)))


def _metric_family(params: Dict) -> List[FinslerMetric2D]:
    eps = float(params.get("eps", 0.6))
    return [
        riemannian(np.eye(2), chart=TORUS),
        randers(np.eye(2), np.array([0.6, 0.0]), chart=TORUS),
        kz_torus(eps),
        kz_sphere(min(eps, 0.5)),
    ]


def suite_legendre(params: Dict, rng) -> List[CheckResult]:
    rows = []
    for metric in _metric_family(params):
        worst_rt = worst_dd = 0.0
        for _ in range(40):
            x = _random_point(metric, rng)
            v = _random_vector(rng)
            f = eval_f(metric, x, v)
            p = legendre_forward(metric, x, v)
            worst_rt = max(worst_rt, abs(dual_norm(metric, x, p) - f) / f)
            worst_dd = max(worst_dd, abs(dual_norm_sampled(metric, x, v) - f) / f)
        rows.append(CheckResult.from_defect(f"legendre-roundtrip[{metric.kind}]", worst_rt, 1e-6))
        rows.append(CheckResult.from_defect(f"double-dual[{metric.kind}]", worst_dd, 1e-6))
    return rows


def suite_holmes_thompson(params: Dict, rng) -> List[CheckResult]:
    metric = _default_metric(params)
    worst = 0.0
    for _ in range(20):
        x = _random_point(metric, rng)
        worst = max(worst, abs(holmes_thompson_density(metric, x) - volume_density(metric, x)))
    rows = [CheckResult.from_defect(f"holmes-thompson[{metric.kind}]", worst, 1e-5)]
    if params.get("metric", "kz-torus") == "kz-torus":
        eps = float(params.get("eps", 0.6))
        x = ChartPoint(TORUS, 0.0, 0.0)
        expected = (1.0 - eps**2) ** (-1.5)
        rows.append(CheckResult.from_defect(
            "kz-torus-density-value",
            abs(volume_density(metric, x) - expected), 1e-5))
    return rows


def suite_conformal(params: Dict, rng) -> List[CheckResult]:
    eps = float(params.get("eps", 0.3))
    metric = kz_torus(eps)
    f = SeparableTrigField(0.2, "sin", 1, "cos", 1)
    scaled = scale_conformal(metric, f)
    u = SumField([SeparableTrigField(1.0, "cos", 1, "one", 0),
                  SeparableTrigField(1.0, "one", 0, "sin", 2)])
    worst = 0.0
    for _ in range(20):
        x = _random_point(metric, rng)
        lhs = laplacian_apply(scaled, u, x)
        rhs = math.exp(-2.0 * f(x)) * laplacian_apply(metric, u, x)
        worst = max(worst, abs(lhs - rhs))
    return [CheckResult.from_defect("conformal-scaling", worst, 1e-5)]


def suite_reeb(params: Dict, rng) -> List[CheckResult]:
    rows = []
    for metric in _metric_family(params):
        worst_a = worst_da = 0.0
        for _ in range(50):
            fp = FiberPoint(_random_point(metric, rng), rng.uniform(0.0, 2.0 * math.pi))
            r_a, r_da = reeb_residuals(metric, fp)
            worst_a = max(worst_a, r_a)
            worst_da = max(worst_da, r_da)
        rows.append(CheckResult.from_defect(f"reeb-A(X)=1[{metric.kind}]", worst_a, 1e-8))
        rows.append(CheckResult.from_defect(f"reeb-ixdA[{metric.kind}]", worst_da, 1e-6))
    return rows


def suite_randers_symbol(params: Dict, rng) -> List[CheckResult]:
    worst = worst_det = 0.0
    x = ChartPoint(TORUS, 0.25, 0.6)
    for _ in range(50):
        nrm = rng.uniform(0.0, 0.95)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        th = nrm * np.array([math.cos(ang), math.sin(ang)])
        rd = randers_data(np.eye(2), th)
        cf = symbol_closed_form(rd, x)
        worst = max(worst, np.abs(cf - symbol_oracle(rd, x)).max())
        b = rd.b(x)
        worst_det = max(worst_det, abs(np.linalg.det(cf) - 4.0 / (b * (1.0 + b) ** 2)))
    return [
        CheckResult.from_defect("randers-closed-vs-oracle", worst, 1e-8),
        CheckResult.from_defect("randers-symbol-det", worst_det, 1e-10),
    ]


def suite_green(params: Dict, rng) -> List[CheckResult]:
    eps = float(params.get("eps", 0.6))
    metric = kz_torus(eps)
    n = int(params.get("grid_n", 64))
    u = SumField([SeparableTrigField(1.0, "cos", 1, "one", 0),
                  SeparableTrigField(0.5, "one", 0, "sin", 2)])
    base = torus_base(n)
    e_val = energy(metric, u, base)
    # <u, Lap u> with the coefficient path
    acc = 0.0
    coeffs = operator_coefficients(metric, base.points[0])
    from .fields import field_gradient, field_hessian
    for x, w in zip(base.points, base.weights):
        acc += w * coeffs.vol_density * float(u(x)) * coeffs.apply(
            field_gradient(u, x), field_hessian(u, x))
    rows = [CheckResult.from_defect("green-identity", abs(e_val + acc) / e_val, 1e-3)]
    rep = weighted_symmetry_residual(metric, 32)
    rows.append(CheckResult.from_defect("discrete-symmetry", rep.symmetry_defect, 1e-10))
    return rows


def suite_convexity(params: Dict, rng) -> List[CheckResult]:
    rows = []
    for metric in _metric_family(params):
        margin = math.inf
        for _ in range(30):
            x = _random_point(metric, rng)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            margin = min(margin, convexity_margin(metric, x, phi))
        # reported margin; the pass condition is strict positivity
        rows.append(CheckResult(
            check=f"convexity-margin[{metric.kind}]={margin:.3e}",
            status="pass" if margin > 0.0 else "fail",
            defect=-margin, tolerance=0.0))
    return rows


def suite_geodesic(params: Dict, rng) -> List[CheckResult]:
    metric = _default_metric(params)
    worst = 0.0
    for _ in range(5):
        fp = FiberPoint(_random_point(metric, rng), rng.uniform(0.0, 2.0 * math.pi))
        traj = geodesic_integrate(metric, fp, 2.0, 1e-2)
        worst = max(worst, _speed_drift(metric, traj))
    return [CheckResult.from_defect(f"geodesic-speed-drift[{metric.kind}]", worst, 1e-5)]


def _speed_drift(metric, traj) -> float:
    from .hilbert import reeb_profile

    worst = 0.0
    for pt in traj.points[:: max(1, len(traj.points) // 10)]:
        V, _, _ = reeb_profile(metric, pt.base, [pt.phi])
        worst = max(worst, abs(eval_f(metric, pt.base, V[0]) - 1.0))
    return worst


SUITES: Dict[str, Callable] = {
    "legendre": suite_legendre,
    "holmes-thompson": suite_holmes_thompson,
    "conformal": suite_conformal,
    "reeb": suite_reeb,
    "randers-symbol": suite_randers_symbol,
    "green": suite_green,
    "convexity": suite_convexity,
    "geodesic": suite_geodesic,
}


def _timed(name: str, params: Dict, rng) -> List[CheckResult]:
    t0 = time.perf_counter()
    rows = SUITES[name](params, rng)
    seconds = time.perf_counter() - t0
    for row in rows:
        row.seconds = seconds
    return rows


def run_suite(name: str, params: Optional[Dict] = None, seed: int = 0) -> List[CheckResult]:
    """Run one suite (or "all") and return its check rows, each carrying
    the wall time of its suite in ``seconds``."""
    params = dict(params or {})
    rng = np.random.default_rng(seed)
    if name == "all":
        rows: List[CheckResult] = []
        for key in SUITES:
            rows.extend(_timed(key, params, rng))
        return rows
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return _timed(name, params, rng)
