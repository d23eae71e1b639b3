import math

import numpy as np
import pytest

import finlap as fl
from conftest import random_point
from finlap import randers
from finlap.measures import volume_densities


X0 = fl.torus_point(0.3, 0.55)


def random_theta(rng, max_norm=0.95):
    nrm = rng.uniform(0.0, max_norm)
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return nrm * np.array([math.cos(ang), math.sin(ang)])


class TestMakeRanders:
    def test_zero_form_is_riemannian(self, rng):
        g = np.array([[1.2, 0.1], [0.1, 0.9]])
        m = fl.RandersMetric(g, np.zeros(2))
        m0 = fl.riemannian(g)
        v = np.array([0.7, -1.1])
        assert fl.eval_f(m, X0, v) == pytest.approx(fl.eval_f(m0, X0, v), rel=1e-15)

    def test_direct_values(self):
        m = fl.RandersMetric(np.eye(2), np.array([0.6, 0.0]))
        assert fl.eval_f(m, X0, [1, 0]) == pytest.approx(1.6, abs=1e-14)
        assert fl.eval_f(m, X0, [-1, 0]) == pytest.approx(0.4, abs=1e-14)

    def test_norm_violation_reports_point(self):
        m = fl.RandersMetric(np.eye(2),
                             lambda p: np.array([0.9 + 0.2 * math.sin(2 * math.pi * p.u), 0.0]))
        with pytest.raises(fl.InvalidMetricError):
            fl.eval_f(m, fl.torus_point(0.25, 0.0), [1, 0])


class TestSymbolClosedForm:
    def test_constant_tensors_stay_position_independent(self):
        assert fl.randers_data(np.eye(2), [0.3, 0]).position_independent is True

    def test_zero_form_identity(self):
        rd = fl.randers_data(np.eye(2), np.zeros(2))
        assert np.allclose(fl.symbol_closed_form(rd, X0), np.eye(2), atol=1e-14)

    def test_axis_aligned_values(self):
        rd = fl.randers_data(np.eye(2), np.array([0.6, 0.0]))
        s = fl.symbol_closed_form(rd, X0)
        assert s[0, 0] == pytest.approx(25.0 / 18.0, abs=1e-12)
        assert s[1, 1] == pytest.approx(10.0 / 9.0, abs=1e-12)
        assert abs(s[0, 1]) < 1e-14

    def test_det_relation(self, rng):
        for _ in range(30):
            th = random_theta(rng)
            rd = fl.randers_data(np.eye(2), th)
            b = rd.b(X0)
            det = np.linalg.det(fl.symbol_closed_form(rd, X0))
            assert det == pytest.approx(4.0 / (b * (1 + b) ** 2), abs=1e-10)

    def test_matches_oracle_random(self, rng):
        worst = 0.0
        for _ in range(60):
            rd = fl.randers_data(np.eye(2), random_theta(rng))
            diff = np.abs(fl.symbol_closed_form(rd, X0) - fl.symbol_oracle(rd, X0)).max()
            worst = max(worst, diff)
        assert worst < 1e-8

    def test_matches_oracle_high_norm(self, rng):
        for _ in range(10):
            ang = rng.uniform(0, 2 * math.pi)
            th = 0.9 * np.array([math.cos(ang), math.sin(ang)])
            rd = fl.randers_data(np.eye(2), th)
            diff = np.abs(fl.symbol_closed_form(rd, X0) - fl.symbol_oracle(rd, X0)).max()
            assert diff < 1e-8

    def test_general_g_matches_oracle_and_quadrature(self, rng):
        g = np.array([[1.4, 0.25], [0.25, 0.85]])
        th = np.array([0.3, -0.2])
        rd = fl.randers_data(g, th)
        cf = fl.symbol_closed_form(rd, X0)
        assert np.abs(cf - fl.symbol_oracle(rd, X0)).max() < 1e-10
        c = fl.operator_coefficients(fl.RandersMetric(g, th), X0)
        assert np.abs(cf - c.sigma).max() < 1e-8

    def test_volume_ratio(self, rng):
        # volume of the symbol-dual metric over the canonical volume
        for _ in range(20):
            g = np.array([[1.1, 0.15], [0.15, 0.95]])
            th = random_theta(rng, 0.8)
            rd = fl.randers_data(g, th)
            b = rd.b(X0)
            vol_dual = math.sqrt(np.linalg.det(fl.dual_symbol(rd, X0)))
            vol_f = math.sqrt(np.linalg.det(g))  # canonical volume of a Randers metric
            ratio = vol_dual / vol_f
            assert ratio == pytest.approx(math.sqrt(b * (1 + b) ** 2 / 4.0), abs=1e-8)

    def test_injectivity_in_theta(self, rng):
        for _ in range(15):
            t1 = random_theta(rng, 0.9)
            t2 = random_theta(rng, 0.9)
            if np.linalg.norm(t1 - t2) < 1e-6:
                continue
            s1 = fl.symbol_closed_form(fl.randers_data(np.eye(2), t1), X0)
            s2 = fl.symbol_closed_form(fl.randers_data(np.eye(2), t2), X0)
            assert np.abs(s1 - s2).max() > 1e-10


class TestSolveB:
    def test_unit_fixed_point(self):
        assert fl.solve_b(1.0) == pytest.approx(1.0, abs=1e-11)

    def test_monotone_root(self):
        for mp in (0.1, 0.43, 0.9):
            b = fl.solve_b(mp)
            assert b * (1 + b) ** 2 / 4.0 == pytest.approx(mp**2, abs=1e-11)

    def test_out_of_range(self):
        with pytest.raises(fl.ConstructionError):
            fl.solve_b(1.5)

    def test_closed_form_root_to_rounding(self):
        # relative residual of the cubic down to mu' = 1e-8, where a 1e-12
        # bracket on b would leave it off by a factor of about 1e3
        mps = np.logspace(-8, 0, 801)
        bs = np.array([fl.solve_b(mp) for mp in mps])
        assert (np.abs(bs * (1 + bs) ** 2 / 4.0 - mps**2) / mps**2).max() <= 1e-14
        assert np.all(np.diff(bs) > 0.0) and bs[-1] == 1.0


class TestInverseDesign:
    def test_identity_fixed_point(self, rng):
        des = fl.inverse_design(np.eye(2), 1.0, np.array([1.0, 0.0]))
        for _ in range(5):
            x = fl.torus_point(rng.uniform(0, 1), rng.uniform(0, 1))
            assert np.abs(des.data.theta(x)).max() < 1e-9
            assert np.abs(des.data.g(x) - np.eye(2)).max() < 1e-9

    @pytest.mark.parametrize("goal", [[[1.0, 2.0], [2.0, 1.0]], [[-1.0, 0.0], [0.0, -1.0]],
                                      [[1.0, math.nan], [math.nan, 1.0]]],
                             ids=["det<0", "g11<0<det", "nan"])
    def test_goal_not_positive_definite_is_typed(self, monkeypatch, goal):
        # the sweep of mu refuses the goal at its first sample, naming it
        monkeypatch.setattr(randers, "DESIGN_SAMPLE_N", 8)
        with pytest.raises(fl.InvalidMetricError, match=r"at \(0\.0, 0\.0\)"):
            fl.inverse_design(np.array(goal), 1.0, np.array([1.0, 0.0]))

    def test_sphere_goal_not_positive_definite_is_typed_on_evaluation(self):
        # with K given, a sphere-chart design samples nothing: the goal is
        # refused where the metric is evaluated
        des = fl.inverse_design(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0,
                                np.array([1.0, 0.0]), chart=fl.SPHERE, K=1.0)
        with pytest.raises(fl.InvalidMetricError, match=r"at \(1\.0, 0\.5\)"):
            des.metric().f(fl.sphere_point(1.0, 0.5), np.array([1.0, 0.0]))

    def test_metric_is_the_data(self, monkeypatch):
        monkeypatch.setattr(randers, "DESIGN_SAMPLE_N", 8)
        des = fl.inverse_design(np.eye(2), 2.0, np.array([1.0, 0.0]))
        assert des.metric() is des.data

    def test_constant_double_volume(self, rng):
        # goal volume 2*Lebesgue: K = 1/2 and the construction returns the
        # flat metric realizing the goal up to the constant K
        des = fl.inverse_design(np.eye(2), 2.0, np.array([1.0, 0.0]))
        assert des.K == pytest.approx(0.5, rel=1e-8)
        x = fl.torus_point(0.3, 0.9)
        assert np.abs(fl.dual_symbol(des.data, x) - np.eye(2)).max() < 1e-9
        vd = fl.volume_density(des.metric(), x)
        assert vd == pytest.approx(des.K * 2.0, abs=1e-9)

    def test_variable_volume_roundtrip(self, rng):
        omega = fl.CallableField(lambda p: 1.0 + 0.2 * math.sin(2 * math.pi * p.u))
        des = fl.inverse_design(np.eye(2), omega, np.array([1.0, 0.0]))
        assert des.K == pytest.approx(1.25, rel=1e-8)
        worst_g = worst_v = 0.0
        for _ in range(25):
            x = fl.torus_point(rng.uniform(0, 1), rng.uniform(0, 1))
            worst_g = max(worst_g, np.abs(fl.dual_symbol(des.data, x) - np.eye(2)).max())
            vd = fl.volume_density(des.metric(), x)
            worst_v = max(worst_v, abs(vd - des.K * omega(x)))
        assert worst_g <= 1e-6
        assert worst_v <= 1e-6

    def test_nonflat_goal_roundtrip(self, rng):
        g_goal = np.array([[1.3, 0.2], [0.2, 0.8]])
        omega = fl.CallableField(lambda p: 1.0 + 0.15 * math.cos(2 * math.pi * p.v))
        des = fl.inverse_design(g_goal, omega, np.array([0.5, 1.0]))
        for _ in range(10):
            x = fl.torus_point(rng.uniform(0, 1), rng.uniform(0, 1))
            assert np.abs(fl.dual_symbol(des.data, x) - g_goal).max() < 1e-6
            vd = fl.volume_density(des.metric(), x)
            assert abs(vd - des.K * omega(x)) < 1e-6

    def test_unbounded_ratio_rejected(self, monkeypatch):
        # goal density vanishing somewhere makes the ratio unbounded
        monkeypatch.setattr(randers, "DESIGN_SAMPLE_N", 64)
        omega = fl.CallableField(lambda p: math.sin(math.pi * p.u) ** 2)
        with pytest.raises(fl.ConstructionError):
            fl.inverse_design(np.eye(2), omega, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("K", [None, 1.0])
    def test_one_mu_evaluation_per_sample(self, monkeypatch, K):
        monkeypatch.setattr(randers, "DESIGN_SAMPLE_N", 16)
        calls = []

        def omega(p):
            calls.append(p)
            return 2.0

        fl.inverse_design(np.eye(2), omega, np.array([1.0, 0.0]), K=K)
        assert len(calls) == 16**2

    def test_sweep_reads_the_cached_torus_base(self, monkeypatch):
        monkeypatch.setattr(randers, "DESIGN_SAMPLE_N", 16)
        seen = []

        def omega(p):
            seen.append(p)
            return 2.0

        for _ in range(2):
            fl.inverse_design(np.eye(2), omega, np.array([1.0, 0.0]))
        points = fl.torus_base(16).points
        assert len(seen) == 2 * 16**2
        assert all(a is b for a, b in zip(seen, 2 * list(points)))

    def test_one_solve_b_call_per_point(self, monkeypatch):
        # g and theta of a point come from one bisection, at one point, over
        # a block, and over the blocks of a grid
        from finlap.laplace import grid_symbol_density

        monkeypatch.setattr(randers, "DESIGN_SAMPLE_N", 16)
        calls = []
        original = randers.solve_b
        monkeypatch.setattr(randers, "solve_b", lambda mp: calls.append(mp) or original(mp))
        omega = fl.CallableField(lambda p: 1.0 + 0.2 * math.sin(2 * math.pi * p.u))
        m = fl.inverse_design(np.eye(2), omega, np.array([1.0, 0.0])).metric()
        assert calls == []
        fl.eval_f(m, X0, [1.0, 0.3])
        assert len(calls) == 1
        xs = [fl.torus_point(0.1 * k, 0.2) for k in range(7)]
        m.f(xs, np.ones((7, 4, 2)))
        assert len(calls) == 1 + 7
        grid_symbol_density(m, 8)
        assert len(calls) == 1 + 7 + 64

    def test_one_solve_b_call_per_closed_form_symbol(self, monkeypatch):
        # the closed-form symbol and its dual gather g and theta once
        monkeypatch.setattr(randers, "DESIGN_SAMPLE_N", 16)
        m = fl.inverse_design(np.eye(2), 2.0, np.array([1.0, 0.0]), K=4.0).metric()
        calls = []
        original = randers.solve_b
        monkeypatch.setattr(randers, "solve_b", lambda mp: calls.append(mp) or original(mp))
        fl.symbol_closed_form(m, X0)
        assert len(calls) == 1
        fl.dual_symbol(m, X0)
        assert len(calls) == 2

    def test_varying_goal_roundtrip_to_rounding(self):
        # goal diag(a^2, 1) with volume a (1 + 0.3 sin 2 pi v): g, theta and
        # the volume ratio all vary, and the default K is the sampled supremum
        def a(p):
            return 1.2 + 0.3 * math.cos(2 * math.pi * p.u) + 0.1 * math.sin(4 * math.pi * p.u)

        def omega(p):
            return a(p) * (1.0 + 0.3 * math.sin(2 * math.pi * p.v))

        def g_goal(p):
            return np.diag([a(p) ** 2, 1.0])

        des = fl.inverse_design(g_goal, omega,
                                lambda p: np.array([math.cos(2 * math.pi * p.v),
                                                    math.sin(2 * math.pi * p.u) + 1.5]))
        points = fl.torus_base(64).points
        worst_g = max(np.abs(fl.dual_symbol(des.data, x) - g_goal(x)).max() for x in points)
        goal_vol = des.K * np.array([omega(x) for x in points])
        worst_v = (np.abs(volume_densities(des.metric(), points) - goal_vol) / goal_vol).max()
        assert worst_g <= 1e-14
        assert worst_v <= 1e-14

    def test_factorization_matches_hand_expanded_entries(self, monkeypatch):
        # reference: the entries of g and theta expanded by hand in the
        # frame rotated onto Z, fed the b of solve_b and mu' = sqrt(b)(1+b)/2
        def reference(G, z, b):
            mp = math.sqrt(b) * (1.0 + b) / 2.0
            beta = math.atan2(z[1], z[0])
            R = np.array([[math.cos(beta), -math.sin(beta)],
                          [math.sin(beta), math.cos(beta)]])
            gz = R.T @ G @ R
            u_, v_, w_ = gz[0, 0], gz[0, 1], gz[1, 1]
            root = math.sqrt(u_ * w_ - v_ * v_) / mp
            one_b2 = 1.0 - b * b
            den = (1.0 + b) ** 2
            g12 = (4.0 * v_ - one_b2 * root) / den
            g22 = (4.0 * w_ - 2.0 * one_b2 * root * ((4.0 * v_ - one_b2 * root) / (4.0 * u_))) / den
            gz_new = np.array([[4.0 * u_ / den, g12], [g12, g22]])
            t = math.sqrt(one_b2) * np.array([math.cos(math.pi / 4.0), -math.sin(math.pi / 4.0)])
            return R @ gz_new @ R.T, R @ randers.triangular_factor(gz_new).T @ t

        rng = np.random.default_rng(25)
        P = 2000
        A = rng.normal(size=(P, 2, 2))
        Gs = A @ A.transpose(0, 2, 1) + 0.05 * np.eye(2)
        Zs = rng.normal(size=(P, 2))
        bs = rng.uniform(1e-3, 1.0 - 1e-6, P)
        omegas = np.sqrt(np.linalg.det(Gs)) / (np.sqrt(bs) * (1.0 + bs) / 2.0)

        def at(values):
            return lambda p: values[int(round(p.u * P)) % P]

        monkeypatch.setattr(randers, "DESIGN_SAMPLE_N", 4)
        m = fl.inverse_design(at(Gs), at(omegas), at(Zs), K=1.0).metric()
        points = [fl.torus_point(k / P, 0.5) for k in range(P)]
        gs, thetas = m.g(points), m.theta(points)
        worst_g = worst_t = 0.0
        for k, x in enumerate(points):
            mu = math.sqrt(Gs[k, 0, 0] * Gs[k, 1, 1] - Gs[k, 0, 1] * Gs[k, 1, 0]) / omegas[k]
            g_ref, t_ref = reference(Gs[k], Zs[k], fl.solve_b(mu))
            worst_g = max(worst_g, np.abs(gs[k] - g_ref).max() / np.abs(g_ref).max())
            worst_t = max(worst_t, np.abs(thetas[k] - t_ref).max() / np.abs(t_ref).max())
        assert worst_g <= 1e-12
        assert worst_t <= 1e-12

    def test_vanishing_direction_field_rejected(self, monkeypatch):
        # Z = 0 on the locus where the volume ratio attains its supremum
        monkeypatch.setattr(randers, "DESIGN_SAMPLE_N", 64)
        omega = fl.CallableField(lambda p: 1.0 + 0.2 * math.sin(2 * math.pi * p.u))

        def Z(p):
            return np.array([math.sin(math.pi * (p.u - 0.75)) ** 2, 0.0])

        with pytest.raises(fl.ConstructionError):
            fl.inverse_design(np.eye(2), omega, Z)

    def test_constant_norm_form_analog(self):
        # exact volume matching with a constant ratio < 1 needs a nowhere-zero
        # 1-form of constant norm; with a direction field that vanishes
        # somewhere (as any field on the 2-sphere must) the construction fails
        def Z(p):
            return np.array([math.sin(math.pi * p.u) ** 2 *
                             math.sin(math.pi * p.v) ** 2, 0.0])

        with pytest.raises(fl.ConstructionError):
            des = fl.inverse_design(np.eye(2), 2.0, Z, K=1.0)
            des.data.theta(fl.torus_point(0.0, 0.0))
