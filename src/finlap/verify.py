"""Named verification suites behind the command-line ``verify`` task.

Each suite runs a batch of library-level identity checks and returns a
list of :class:`CheckResult` rows; a suite passes when every row does.
:func:`run_suite` times each suite and stamps its wall time on every row
it returned.  The random samples are driven by a seed so runs are
reproducible.

Each suite draws its samples first, in a fixed order from the seeded
generator, and then checks them in block calls: F, the Legendre
transform, the dual norms, the Holmes-Thompson and volume densities, the
operator coefficients and the Reeb residuals take a block of base points,
and the geodesics integrate as one batch.  A suite's draws do not depend on its checks, so the
stream that later suites see is fixed by the seed alone.
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
from .fields import SeparableTrigField, SumField, field_values
from .hilbert import (FiberPoint, density_profile, geodesic_integrate, reeb_profile,
                      reeb_residuals_profile)
from .laplace import coefficient_form, coefficients_at, weighted_symmetry_residual
from .measures import (DEFAULT_FIBER_N, _trapezoid_nodes, dual_norm_sampled,
                       holmes_thompson_density, volume_densities, volume_density)
from .metrics import (FinslerMetric2D, convexity_margin, dual_norm, eval_f,
                      kz_sphere, kz_torus, legendre_forward, randers, riemannian,
                      scale_conformal)
from .randers import symbol_closed_form, symbol_oracle
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
        draws = [(_random_point(metric, rng), _random_vector(rng)) for _ in range(40)]
        xs, vs = [x for x, _ in draws], np.array([v for _, v in draws])
        f = eval_f(metric, xs, vs)
        ps = legendre_forward(metric, xs, vs[:, None, :])[:, 0]
        worst_rt = float(np.max(np.abs(dual_norm(metric, xs, ps) - f) / f))
        worst_dd = float(np.max(np.abs(dual_norm_sampled(metric, xs, vs) - f) / f))
        rows.append(CheckResult.from_defect(f"legendre-roundtrip[{metric.kind}]", worst_rt, 1e-6))
        rows.append(CheckResult.from_defect(f"double-dual[{metric.kind}]", worst_dd, 1e-6))
    return rows


def suite_holmes_thompson(params: Dict, rng) -> List[CheckResult]:
    metric = _default_metric(params)
    xs = [_random_point(metric, rng) for _ in range(20)]
    vol = volume_densities(metric, xs)
    worst = float(np.max(np.abs(holmes_thompson_density(metric, xs) - vol)))
    # the fiber rule, from F alone, against the Hilbert-form jet
    jet = density_profile(metric, xs, _trapezoid_nodes(DEFAULT_FIBER_N)).mean(axis=-1)
    rows = [CheckResult.from_defect(f"holmes-thompson[{metric.kind}]", worst, 1e-5),
            CheckResult.from_defect(f"fiber-rule-vs-jet[{metric.kind}]",
                                    float(np.max(np.abs(vol / jet - 1.0))), 1e-8)]
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
    xs = [_random_point(metric, rng) for _ in range(20)]
    lhs = coefficient_form(*coefficients_at(scaled, xs)[:2], u, xs)
    rhs = (np.exp(-2.0 * field_values(f, xs))
           * coefficient_form(*coefficients_at(metric, xs)[:2], u, xs))
    worst = float(np.abs(lhs - rhs).max())
    return [CheckResult.from_defect("conformal-scaling", worst, 1e-5)]


def suite_reeb(params: Dict, rng) -> List[CheckResult]:
    rows = []
    for metric in _metric_family(params):
        xs, phis = [], []
        for _ in range(50):
            xs.append(_random_point(metric, rng))
            phis.append([rng.uniform(0.0, 2.0 * math.pi)])
        r_a, r_da = reeb_residuals_profile(metric, xs, phis)
        worst_a, worst_da = float(r_a.max()), float(r_da.max())
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
        metric = randers(np.eye(2), th)
        cf = symbol_closed_form(metric, x)
        worst = max(worst, np.abs(cf - symbol_oracle(metric, x)).max())
        b = metric.b(x)
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
    sigma, drift, rho = coefficients_at(metric, base.points)
    u_vals = field_values(u, base.points)
    acc = float(base.weights @ (rho * u_vals * coefficient_form(sigma, drift, u, base.points)))
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
    fps = [FiberPoint(_random_point(metric, rng), rng.uniform(0.0, 2.0 * math.pi))
           for _ in range(5)]
    trajs = geodesic_integrate(metric, fps, 2.0, 1e-2)
    worst = _speed_drift(metric, trajs)
    return [CheckResult.from_defect(f"geodesic-speed-drift[{metric.kind}]", worst, 1e-5)]


def _speed_drift(metric, trajs) -> float:
    """Largest |F(X) - 1| of the Reeb field at about ten points sampled
    along each trajectory, from one block Reeb call and one block F call."""
    pts = [pt for traj in trajs
           for pt in traj.points[:: max(1, len(traj.points) // 10)]]
    bases = [pt.base for pt in pts]
    V, _, _ = reeb_profile(metric, bases, [[pt.phi] for pt in pts])
    return float(np.max(np.abs(eval_f(metric, bases, V[:, 0]) - 1.0)))


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
    the wall time of its suite in ``seconds``.  Raises
    :class:`ConfigError` for a negative seed or an unknown suite."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
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
