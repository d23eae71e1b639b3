"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one pass/fail line; run with ``pytest -s`` (or read the
captured output) for the summary.
"""

import math
import time

import numpy as np
import pytest

import finlap as fl
from conftest import builtin_metrics, random_point, random_vector


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def torus_targets(eps, pq_max=2, search=5):
    """Closed-form eigenvalues for |p|,|q| <= pq_max and the count of all
    modes at or below their maximum."""
    targets = sorted(
        fl.torus_eigenvalue(eps, p, q)
        for p in range(-pq_max, pq_max + 1)
        for q in range(-pq_max, pq_max + 1)
    )
    top = targets[-1]
    below = sorted(
        lam
        for p in range(-search, search + 1)
        for q in range(-search, search + 1)
        if (lam := fl.torus_eigenvalue(eps, p, q)) <= top * (1 + 1e-9)
    )
    return targets, len(below)


def test_criterion_01_torus_spectrum_fd():
    """FD solver reproduces the closed-form torus spectrum at 1% with
    second-order grid convergence."""
    worst_rel = 0.0
    worst_slope_dev = 0.0
    max_runtime = 0.0
    for eps in (0.0, 0.3, 0.6):
        t0 = time.time()
        targets, k_cover = torus_targets(eps)
        metric = fl.kz_torus(eps)
        prob = fl.assemble_eigenproblem(metric, fl.TorusGridBasis(n=64))
        fd = fl.solve_eigen(prob, k=k_cover + 8).expand()
        for t in targets:
            if t < 1e-12:
                rel = abs(fd[np.argmin(np.abs(fd - t))])
            else:
                rel = np.abs(fd - t).min() / t
            worst_rel = max(worst_rel, rel)

        # O(n^-2) convergence of the lowest nonzero eigenvalue
        lam10 = fl.torus_eigenvalue(eps, 1, 0)
        errs = []
        for n in (16, 32, 64, 128):
            p = fl.assemble_eigenproblem(metric, fl.TorusGridBasis(n=n))
            vals = fl.solve_eigen(p, k=4).expand()
            errs.append(abs(vals[1] - lam10))
        slope = np.polyfit(np.log([16, 32, 64, 128]), np.log(errs), 1)[0]
        worst_slope_dev = max(worst_slope_dev, abs(-slope - 2.0))
        max_runtime = max(max_runtime, time.time() - t0)
    ok = worst_rel <= 0.01 and worst_slope_dev <= 0.2 and max_runtime < 60.0
    report(1, ok, f"torus FD spectrum: max rel err {worst_rel:.2e} <= 1e-2, "
                  f"order 2 +- {worst_slope_dev:.2f} (tol 0.2), "
                  f"max runtime {max_runtime:.1f}s < 60s")


def test_criterion_02_sphere_lambda1():
    """Galerkin first nonzero eigenvalue equals 2 - 2 eps^2 to 1e-8 and
    matches 8 pi / volume with the volume from quadrature."""
    t0 = time.time()
    worst_eig = worst_vol = 0.0
    for eps in (0.1, 0.3, 0.5):
        res = fl.sphere_spectrum(eps, lmax=10, k=6)
        vals = res.expand()
        lam1 = vals[vals > 1e-9][0]
        worst_eig = max(worst_eig, abs(lam1 - (2 - 2 * eps**2)))
        vol = fl.sphere_total_volume(fl.kz_sphere(eps), n_phi=96, n_theta=2)
        worst_vol = max(worst_vol, abs((2 - 2 * eps**2) - 8 * math.pi / vol))
    runtime = time.time() - t0
    ok = worst_eig <= 1e-8 and worst_vol <= 1e-6 and runtime < 30.0
    report(2, ok, f"sphere lambda1: eigenvalue defect {worst_eig:.2e} <= 1e-8, "
                  f"8pi/vol identity defect {worst_vol:.2e} <= 1e-6, "
                  f"runtime {runtime:.1f}s < 30s")


def test_criterion_03_sphere_perturbation_scaling():
    """The Galerkin-vs-second-order-formula remainder scales as eps^4
    (ratio 16 +- 30% between eps = 0.1 and eps = 0.05) for l <= 4.

    Degrees l <= 1 are exact eigenvalues of the formula for every eps, so
    the remainder vanishes identically and the ratio is tested on
    l in {2, 3, 4}.
    """
    t0 = time.time()
    worst_lo, worst_hi = math.inf, 0.0
    for l in (2, 3, 4):
        for m in range(0, l + 1):
            errs = []
            for eps in (0.05, 0.1):
                prob = fl.assemble_eigenproblem(
                    fl.kz_sphere(eps), fl.SphereHarmonicBasis(lmax=12, m=m))
                lam = fl.solve_eigen(prob, k=l - m + 1).expand()[l - m]
                errs.append(abs(-lam - fl.perturbation_eigenvalue(l, m, eps)))
            ratio = errs[1] / errs[0]
            worst_lo = min(worst_lo, ratio)
            worst_hi = max(worst_hi, ratio)
    runtime = time.time() - t0
    ok = worst_lo >= 16 * 0.7 and worst_hi <= 16 * 1.3 and runtime < 60.0
    report(3, ok, f"perturbation remainder ratios in [{worst_lo:.1f}, {worst_hi:.1f}] "
                  f"within 16 +- 30%, runtime {runtime:.1f}s < 60s")


def test_criterion_04_randers_symbol_closed_forms():
    """Closed-form symbol vs quadrature oracle over 200 random 1-forms."""
    rng = np.random.default_rng(0)
    x = fl.torus_point(0.37, 0.61)
    worst = worst_det = 0.0
    for _ in range(200):
        nrm = rng.uniform(0.0, 0.95)
        ang = rng.uniform(0.0, 2 * math.pi)
        rd = fl.randers_data(np.eye(2), nrm * np.array([math.cos(ang), math.sin(ang)]))
        cf = fl.symbol_closed_form(rd, x)
        worst = max(worst, np.abs(cf - fl.symbol_oracle(rd, x)).max())
        b = rd.b(x)
        worst_det = max(worst_det, abs(np.linalg.det(cf) - 4 / (b * (1 + b) ** 2)))
    ok = worst <= 1e-8 and worst_det <= 1e-10
    report(4, ok, f"randers symbol: closed-vs-oracle {worst:.2e} <= 1e-8, "
                  f"det defect {worst_det:.2e} <= 1e-10")


def test_criterion_05_riemannian_reduction_round_sphere():
    """On the round sphere the quadrature operator acts on spherical
    harmonics as -l(l+1) pointwise to 1e-6 (l <= 5, 100 random points)."""
    rng = np.random.default_rng(1)
    metric = fl.kz_sphere(0.0)
    fields = [(l, m, fl.SphereHarmonicField(l, m, "cos"))
              for l in range(1, 6) for m in range(0, l + 1)]
    worst = 0.0
    for _ in range(100):
        x = fl.sphere_point(rng.uniform(0.1, math.pi - 0.1),
                            rng.uniform(0, 2 * math.pi))
        c = fl.operator_coefficients(metric, x)
        for l, m, f in fields:
            got = c.apply(fl.field_gradient(f, x), fl.field_hessian(f, x))
            worst = max(worst, abs(got + l * (l + 1) * f(x)))
    ok = worst <= 1e-6
    report(5, ok, f"round-sphere harmonics: max |Lap Y + l(l+1) Y| = {worst:.2e} <= 1e-6")


def test_criterion_06_conformal_invariance():
    """Pointwise conformal covariance Lap_{e^f F} u = e^{-2f} Lap_F u."""
    rng = np.random.default_rng(2)
    metric = fl.kz_torus(0.3)
    f = fl.SeparableTrigField(0.2, "sin", 1, "cos", 1)       # 0.2 sin(2pix)cos(2piy)
    scaled = fl.scale_conformal(metric, f)
    u = fl.SumField([fl.SeparableTrigField(1.0, "cos", 1, "one", 0),
                     fl.SeparableTrigField(1.0, "one", 0, "sin", 2)])
    worst = 0.0
    for _ in range(100):
        x = fl.torus_point(rng.uniform(0, 1), rng.uniform(0, 1))
        lhs = fl.laplacian_apply(scaled, u, x)
        rhs = math.exp(-2 * f(x)) * fl.laplacian_apply(metric, u, x)
        worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-5
    report(6, ok, f"conformal invariance: max pointwise defect {worst:.2e} <= 1e-5")


def test_criterion_07_holmes_thompson():
    """Canonical volume density equals the dual-ball (Holmes-Thompson)
    density at 100 random points per metric; Randers volume is the
    Riemannian one independently of the 1-form."""
    rng = np.random.default_rng(3)
    mets = builtin_metrics()
    worst = 0.0
    for name in ("riemannian-var", "randers-06", "kz-torus-06"):
        m = mets[name]
        for _ in range(100):
            x = random_point(m, rng)
            d = abs(fl.holmes_thompson_density(m, x) - fl.volume_density(m, x))
            worst = max(worst, d)
    g = np.array([[1.2, 0.1], [0.1, 0.8]])
    worst_r = 0.0
    for nrm in (0.0, 0.3, 0.6, 0.85):
        m = fl.RandersMetric(g, nrm * np.array([math.cos(1.0), math.sin(1.0)]))
        x = fl.torus_point(rng.uniform(0, 1), rng.uniform(0, 1))
        worst_r = max(worst_r, abs(fl.volume_density(m, x) - math.sqrt(np.linalg.det(g))))
    ok = worst <= 1e-5 and worst_r <= 1e-6
    report(7, ok, f"holmes-thompson: max density defect {worst:.2e} <= 1e-5, "
                  f"randers volume defect {worst_r:.2e} <= 1e-6")


def test_criterion_08_legendre_suite():
    """Legendre round trip F* o L = F and double dual F** = F over 500
    random samples across all built-in metrics."""
    rng = np.random.default_rng(4)
    mets = list(builtin_metrics().items())
    worst_rt = worst_dd = 0.0
    for i in range(500):
        name, m = mets[i % len(mets)]
        x = random_point(m, rng)
        v = random_vector(rng)
        f = fl.eval_f(m, x, v)
        p = fl.legendre_forward(m, x, v)
        worst_rt = max(worst_rt, abs(fl.dual_norm(m, x, p) - f) / f)
        worst_dd = max(worst_dd, abs(fl.dual_norm_sampled(m, x, v) - f) / f)
    ok = worst_rt <= 1e-6 and worst_dd <= 1e-6
    report(8, ok, f"legendre suite: roundtrip {worst_rt:.2e} <= 1e-6, "
                  f"double dual {worst_dd:.2e} <= 1e-6")


def test_criterion_09_symmetry_and_green():
    """Discrete volume-weighted symmetry (exact stencil symmetry for
    constant coefficients, second-order decay for variable ones) and the
    Green identity E(u) = -<u, Lap u>."""
    const_defect = 0.0
    for metric in (fl.kz_torus(0.6), fl.riemannian(np.eye(2), chart=fl.TORUS)):
        rep = fl.weighted_symmetry_residual(metric, 64)
        const_defect = max(const_defect, rep.symmetry_defect)

    mv = fl.RandersMetric(np.eye(2),
                          lambda p: np.array([0.3 * math.sin(2 * math.pi * p.v), 0.0]))
    reps = [fl.weighted_symmetry_residual(mv, n, fiber_n=128) for n in (16, 32, 64)]
    var_defect = max(r.symmetry_defect for r in reps)
    decay_ok = all(reps[i].symmetry_defect / reps[i + 1].symmetry_defect >= 3.0
                   for i in range(2))
    div_defect = reps[-1].divergence_defect

    m = fl.kz_torus(0.6)
    u = fl.SumField([fl.SeparableTrigField(1.0, "cos", 1, "one", 0),
                     fl.SeparableTrigField(0.5, "one", 0, "sin", 2)])
    base = fl.torus_base(64)
    e = fl.energy(m, u, base)
    c = fl.operator_coefficients(m, base.points[0])
    pairing = sum(w * c.vol_density * u(x) * c.apply(fl.field_gradient(u, x),
                                                     fl.field_hessian(u, x))
                  for x, w in zip(base.points, base.weights))
    green = abs(e + pairing) / e

    ok = (const_defect <= 1e-10 and var_defect <= 1e-3 and decay_ok
          and div_defect <= 1e-3 and green <= 1e-3)
    report(9, ok, f"symmetry/green: constant-coefficient defect {const_defect:.2e} <= 1e-10, "
                  f"variable defect {var_defect:.2e} <= 1e-3 (2nd-order decay {decay_ok}), "
                  f"divergence-form defect {div_defect:.2e} <= 1e-3, "
                  f"green defect {green:.2e} <= 1e-3")


def test_criterion_10_inverse_design_roundtrip():
    """Inverse design on the torus family: symbol-dual equals the goal
    metric and the volume equals K times the goal density, both to 1e-6."""
    rng = np.random.default_rng(5)
    cases = [
        (np.eye(2), fl.ConstantField(1.0), np.array([1.0, 0.0])),
        (np.eye(2), fl.ConstantField(2.0), np.array([1.0, 0.0])),
        (np.eye(2),
         fl.CallableField(lambda p: 1.0 + 0.2 * math.sin(2 * math.pi * p.u)),
         np.array([1.0, 0.0])),
    ]
    worst_g = worst_v = 0.0
    for g_goal, omega, Z in cases:
        des = fl.inverse_design(g_goal, omega, Z)
        metric = des.metric()
        for _ in range(100):
            x = fl.torus_point(rng.uniform(0, 1), rng.uniform(0, 1))
            worst_g = max(worst_g, np.abs(fl.dual_symbol(des.data, x) - g_goal).max())
            worst_v = max(worst_v, abs(fl.volume_density(metric, x) - des.K * omega(x)))
    ok = worst_g <= 1e-6 and worst_v <= 1e-6
    report(10, ok, f"inverse design: symbol-dual defect {worst_g:.2e} <= 1e-6, "
                   f"volume defect {worst_v:.2e} <= 1e-6")
