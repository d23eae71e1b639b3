import copy
import math

import numpy as np
import pytest

import finlap as fl
from finlap.differences import jet_step
from conftest import builtin_metrics, random_point, random_vector


def kz_torus_deformation_angle(eps, phi):
    """Deformation-coordinate angle t such that the indicatrix direction is phi."""
    # indicatrix point: ((1-e^2)cos t, sqrt(1-e^2) sin t)/(1 - e cos t)
    # -> tan(phi) = tan(t)/sqrt(1-e^2)
    return math.atan2(math.sin(phi) * math.sqrt(1 - eps**2), math.cos(phi))


class TestHilbertDensity:
    def test_flat_is_one(self, rng):
        m = fl.riemannian(np.eye(2), chart=fl.TORUS)
        for _ in range(5):
            fp = fl.FiberPoint(random_point(m, rng), rng.uniform(0, 2 * math.pi))
            assert fl.hilbert_density(m, fp) == pytest.approx(1.0, abs=1e-9)

    def test_kz_torus_matches_deformation_coordinates(self, rng):
        # in deformation coordinates the density is (1 - eps cos t)/(1-eps^2)^{3/2};
        # our phi-parametrization carries the Jacobian dt/dphi
        eps = 0.6
        m = fl.kz_torus(eps)
        x = fl.torus_point(0.5, 0.5)
        h = 1e-6
        for phi in np.linspace(0.0, 2 * math.pi, 9):
            t = kz_torus_deformation_angle(eps, phi)
            dt = kz_torus_deformation_angle(eps, phi + h) - kz_torus_deformation_angle(eps, phi - h)
            dt = (dt + math.pi) % (2 * math.pi) - math.pi  # unwrap the atan2 branch
            dt_dphi = dt / (2 * h)
            expected = (1 - eps * math.cos(t)) / (1 - eps**2) ** 1.5 * abs(dt_dphi)
            got = fl.hilbert_density(m, fl.FiberPoint(x, phi))
            assert got == pytest.approx(expected, rel=1e-6)

    def test_kz_sphere_fiber_length(self, rng):
        # integrated contact density over the fiber = 2*pi*sin(phi)/(1-E)^{3/2}
        eps = 0.4
        m = fl.kz_sphere(eps)
        for phi0 in (0.5, 1.2, 2.2):
            x = fl.sphere_point(phi0, 1.0)
            nodes = 2 * math.pi * np.arange(512) / 512
            lam = fl.hilbert.density_profile(m, x, nodes)
            total = lam.mean() * 2 * math.pi
            E = eps**2 * math.sin(phi0) ** 2
            expected = 2 * math.pi * math.sin(phi0) / (1 - E) ** 1.5
            assert total == pytest.approx(expected, rel=1e-9)

    def test_kz_sphere_chart_angle_density(self):
        # against dphi the density is lambda_psi dpsi/dphi at the frame angle
        # psi = atan2(sin(u) sin(phi), cos(phi)) of the chart angle phi
        m = fl.kz_sphere(0.3)
        for u in (0.01, 0.3, 1.2, 2.5):
            x = fl.sphere_point(u, 0.4)
            k = math.sin(u)
            for phi in np.linspace(0.1, 2 * math.pi + 0.1, 7, endpoint=False):
                psi = math.atan2(k * math.sin(phi), math.cos(phi))
                dpsi_dphi = k / (math.cos(phi) ** 2 + (k * math.sin(phi)) ** 2)
                lam_psi = fl.hilbert.density_profile(m, x, [psi])[0]
                got = fl.hilbert_density(m, fl.FiberPoint(x, phi))
                # psi rounds differently here; the difference quotient
                # amplifies that by 1/JET
                assert got == pytest.approx(lam_psi * dpsi_dphi, rel=1e-10)
                if u >= 0.3:
                    # the Reeb field differences in the chart angle itself
                    _, _, lam_phi = fl.reeb_profile(m, x, [phi])
                    assert got == pytest.approx(lam_phi[0], rel=1e-7)

    def test_positive_everywhere(self, rng):
        for name, m in builtin_metrics().items():
            x = random_point(m, rng)
            nodes = rng.uniform(0, 2 * math.pi, size=64)
            assert fl.hilbert.density_profile(m, x, nodes).min() > 0.0, name

    def test_orientation_constant(self, rng):
        # the contact form is negatively oriented against dphi^du^dv for
        # every valid metric (it never crosses zero by the contact condition)
        for name, m in builtin_metrics().items():
            for _ in range(6):
                fp = fl.FiberPoint(random_point(m, rng), rng.uniform(0, 2 * math.pi))
                assert fl.contact_orientation(m, fp) == -1, name

    def test_randers_density_identity(self, rng):
        # contact density of sqrt(g)+theta = (1 + theta(spray_g)) * Riemannian density
        g = np.array([[1.3, 0.2], [0.2, 0.9]])
        th = np.array([0.25, -0.3])
        m = fl.RandersMetric(g, th)
        m0 = fl.riemannian(g)
        x = fl.torus_point(0.3, 0.8)
        phis = np.linspace(0, 2 * math.pi, 23, endpoint=False)
        lam = fl.hilbert.density_profile(m, x, phis)
        lam0 = fl.hilbert.density_profile(m0, x, phis)
        spray0 = fl.indicatrix_point(m0, x, phis)
        factor = 1.0 + spray0 @ th
        assert np.abs(lam - lam0 * factor).max() < 1e-8


class TestReebField:
    def test_kz_torus_axis(self):
        X = fl.reeb_field(fl.kz_torus(0.6), fl.FiberPoint(fl.torus_point(0, 0), 0.0))
        assert X.Xu == pytest.approx(1.6, abs=1e-9)
        assert X.Xv == pytest.approx(0.0, abs=1e-9)
        assert X.Xphi == pytest.approx(0.0, abs=1e-8)

    def test_flat_plane_straight_lines(self, rng):
        m = fl.riemannian(np.eye(2), chart=fl.PLANE)
        phi = rng.uniform(0, 2 * math.pi)
        X = fl.reeb_field(m, fl.FiberPoint(fl.plane_point(0.3, -2.0), phi))
        assert np.allclose([X.Xu, X.Xv, X.Xphi],
                           [math.cos(phi), math.sin(phi), 0.0], atol=1e-9)

    def test_kz_sphere_matches_closed_form(self):
        # spray component along the polar coordinate: sqrt(1-E) sin(psi)/(1 - e cos(psi));
        # the deformation angle psi = pi/2 is the chart ray (1, 0), i.e. phi = 0
        eps = 0.3
        m = fl.kz_sphere(eps)
        x = fl.sphere_point(math.pi / 2, math.pi / 2)
        X = fl.reeb_field(m, fl.FiberPoint(x, 0.0))
        assert X.Xu == pytest.approx(math.sqrt(1 - 0.09), abs=1e-6)
        assert X.Xv == pytest.approx(0.0, abs=1e-6)

    def test_spray_is_unit(self, rng):
        for name, m in builtin_metrics().items():
            for _ in range(10):
                fp = fl.FiberPoint(random_point(m, rng), rng.uniform(0, 2 * math.pi))
                X = fl.reeb_field(m, fp)
                assert abs(fl.eval_f(m, fp.base, X.horizontal()) - 1.0) < 1e-8, name

    def test_defining_equations_1000_points(self, rng):
        # 50 random base points x 20 random angles per metric
        for name, m in builtin_metrics().items():
            worst_a = worst_da = 0.0
            for _ in range(50):
                x = random_point(m, rng)
                phis = rng.uniform(0, 2 * math.pi, size=20)
                r_a, r_da = fl.hilbert.reeb_residuals_profile(m, x, phis)
                worst_a = max(worst_a, r_a.max())
                worst_da = max(worst_da, r_da.max())
            assert worst_a < 1e-8, name
            assert worst_da < 1e-6, name

    def test_degenerate_contact_rejected(self):
        # a nearly-flat unit ball: the contact density vanishes on the
        # flat arcs and the contact is declared degenerate there
        def boxy(x, vs):
            vs = np.asarray(vs, dtype=float)
            return (vs[..., 0] ** 16 + vs[..., 1] ** 16) ** (1.0 / 16.0)

        m = fl.custom(boxy, chart=fl.TORUS)
        with pytest.raises(fl.DegenerateContactError):
            fl.reeb_field(m, fl.FiberPoint(fl.torus_point(0.5, 0.5), 0.0))


class TestFiberJet:
    def _record_calls(self, monkeypatch):
        import finlap.hilbert as hilbert

        calls = []
        original = hilbert.vertical_derivative

        def recording(metric, x, v, *args):
            calls.append((x.u, x.v, math.atan2(v[0, 1], v[0, 0])))
            return original(metric, x, v, *args)

        monkeypatch.setattr(hilbert, "vertical_derivative", recording)
        return calls

    def test_call_order(self, monkeypatch):
        # a position-dependent metric: the angle jet, then the curl's four
        # base points shifted by the same step
        calls = self._record_calls(monkeypatch)
        m = builtin_metrics()["riemannian-var"]
        h = jet_step(m)
        assert not m.position_independent
        x = fl.torus_point(0.25, 0.5)
        fl.hilbert.density_profile(m, x, [1.0])
        assert calls == pytest.approx([(0.25, 0.5, 1.0), (0.25, 0.5, 1.0 + h),
                                       (0.25, 0.5, 1.0 - h)], abs=1e-15)
        calls.clear()
        fl.reeb_profile(m, x, [1.0])
        assert calls == pytest.approx([
            (0.25, 0.5, 1.0), (0.25, 0.5, 1.0 + h), (0.25, 0.5, 1.0 - h),
            (0.25 + h, 0.5, 1.0), (0.25 - h, 0.5, 1.0),
            (0.25, 0.5 + h, 1.0), (0.25, 0.5 - h, 1.0)], abs=1e-15)
        calls.clear()
        fl.hilbert.reeb_residuals_profile(m, x, [1.0])
        assert len(calls) == 14

    def test_call_order_position_independent(self, monkeypatch):
        # the curl of a position-independent metric is exactly zero and is
        # not differenced: only the angle jet is evaluated
        calls = self._record_calls(monkeypatch)
        m = fl.kz_torus(0.6)
        h = jet_step(m)
        x = fl.torus_point(0.25, 0.5)
        jet = [(0.25, 0.5, 1.0), (0.25, 0.5, 1.0 + h), (0.25, 0.5, 1.0 - h)]
        fl.reeb_profile(m, x, [1.0])
        assert calls == pytest.approx(jet, abs=1e-15)
        calls.clear()
        fl.hilbert.reeb_residuals_profile(m, x, [1.0])
        assert len(calls) == 6

    @pytest.mark.parametrize("eps", [0.0, 0.6])
    def test_zero_curl_is_bit_identical(self, eps):
        m = fl.kz_torus(eps)
        differenced = copy.copy(m)
        differenced.position_independent = False    # the curl is differenced
        rng = np.random.default_rng(7)
        xs = [random_point(m, rng) for _ in range(6)]
        phis = rng.uniform(0.0, 2.0 * math.pi, (6, 5))
        for x, row in [(xs[0], phis[0]), (xs, phis[0]), (xs, phis)]:
            for got, want in zip(fl.reeb_profile(m, x, row),
                                 fl.reeb_profile(differenced, x, row)):
                assert np.array_equal(got, want)
            for got, want in zip(fl.hilbert.reeb_residuals_profile(m, x, row),
                                 fl.hilbert.reeb_residuals_profile(differenced, x, row)):
                assert np.array_equal(got, want)


class TestGeodesics:
    def test_flat_plane_unit_speed(self):
        m = fl.riemannian(np.eye(2), chart=fl.PLANE)
        traj = fl.geodesic_integrate(m, fl.FiberPoint(fl.plane_point(0, 0), 0.0), 1.0, 1e-3)
        end = traj.points[-1]
        assert traj.status == "ok"
        assert end.base.u == pytest.approx(1.0, abs=1e-9)
        assert end.base.v == pytest.approx(0.0, abs=1e-9)

    def test_kz_torus_straight(self):
        m = fl.kz_torus(0.6)
        traj = fl.geodesic_integrate(m, fl.FiberPoint(fl.torus_point(0, 0), 0.0), 1.0, 1e-3)
        end = traj.points[-1]
        assert end.phi == pytest.approx(0.0, abs=1e-10)           # X_phi = 0
        assert end.base.u == pytest.approx(1.6 % 1.0, abs=1e-8)   # speed 1.6 along x
        assert end.base.v == pytest.approx(0.0, abs=1e-10)

    def test_round_sphere_great_circle_closes(self):
        m = fl.kz_sphere(0.0)
        start = fl.FiberPoint(fl.sphere_point(math.pi / 2, 0.0), math.pi / 2)
        traj = fl.geodesic_integrate(m, start, 2 * math.pi, 5e-3)
        end = traj.points[-1]
        assert traj.status == "ok"
        assert end.base.u == pytest.approx(math.pi / 2, abs=1e-5)
        assert min(end.base.v, 2 * math.pi - end.base.v) < 1e-5

    def test_speed_conserved_long_time(self, rng):
        m = fl.kz_torus(0.5)
        fp = fl.FiberPoint(fl.torus_point(0.1, 0.9), 1.234)
        traj = fl.geodesic_integrate(m, fp, 10.0, 1e-2)
        for pt in traj.points[::100]:
            X = fl.reeb_field(m, pt)
            assert abs(fl.eval_f(m, pt.base, X.horizontal()) - 1.0) < 1e-6

    def test_sphere_chart_exit_flag(self):
        m = fl.kz_sphere(0.0)
        # head straight for the north pole
        start = fl.FiberPoint(fl.sphere_point(0.3, 0.0), math.pi)
        traj = fl.geodesic_integrate(m, start, 1.0, 1e-2)
        assert traj.status == "chart_exit"

    def test_bad_dt(self):
        with pytest.raises(fl.DomainError):
            fl.geodesic_integrate(fl.kz_torus(0.1),
                                  fl.FiberPoint(fl.torus_point(0, 0), 0.0), 1.0, -1.0)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_angle(self, phi):
        m = fl.kz_torus(0.1)
        with pytest.raises(fl.DomainError, match="start"):
            fl.geodesic_integrate(m, fl.FiberPoint(fl.torus_point(0, 0), phi), 1.0, 0.1)
        starts = [fl.FiberPoint(fl.torus_point(0, 0), 0.0),
                  fl.FiberPoint(fl.torus_point(0.5, 0), phi)]
        with pytest.raises(fl.DomainError, match="start"):
            fl.geodesic_integrate(m, starts, 1.0, 0.1)


def _degenerate_right_half(x, vs):
    """Euclidean on u < 0.5; a nearly flat unit ball, whose contact
    density vanishes at the chart angle 0, on u >= 0.5."""
    vs = np.asarray(vs, dtype=float)
    k = 2.0 if x.u < 0.5 else 16.0
    return (np.abs(vs[..., 0]) ** k + np.abs(vs[..., 1]) ** k) ** (1.0 / k)


class TestReebBlock:
    """Entry i of a block Reeb call equals the one-point call at point i."""

    @pytest.mark.parametrize("name", list(builtin_metrics()))
    def test_shared_and_per_point_angles(self, name, rng):
        m = builtin_metrics()[name]
        xs = [random_point(m, rng) for _ in range(4)]
        shared = rng.uniform(0, 2 * math.pi, size=6)
        per_point = rng.uniform(0, 2 * math.pi, size=(4, 6))
        for phis in (shared, per_point):
            V, Xphi, lam = fl.reeb_profile(m, xs, phis)
            r_a, r_da = fl.hilbert.reeb_residuals_profile(m, xs, phis)
            assert V.shape == (4, 6, 2) and Xphi.shape == lam.shape == r_a.shape == (4, 6)
            for i, x in enumerate(xs):
                row = phis if phis.ndim == 1 else phis[i]
                V1, Xphi1, lam1 = fl.reeb_profile(m, x, row)
                assert np.abs(V[i] - V1).max() <= 1e-13 * np.abs(V1).max()
                assert np.abs(Xphi[i] - Xphi1).max() <= 1e-13 * max(1.0, np.abs(Xphi1).max())
                assert np.abs(lam[i] - lam1).max() <= 1e-13 * lam1.max()
                ra1, rda1 = fl.hilbert.reeb_residuals_profile(m, x, row)
                assert np.abs(r_a[i] - ra1).max() <= 1e-13
                assert np.abs(r_da[i] - rda1).max() <= 1e-13

    def test_block_makes_seven_fiber_derivative_calls(self, monkeypatch, rng):
        import finlap.hilbert as hilbert

        calls = []
        original = hilbert.vertical_derivative

        def counting(metric, x, v, *args):
            calls.append(np.shape(v))
            return original(metric, x, v, *args)

        monkeypatch.setattr(hilbert, "vertical_derivative", counting)
        m = fl.kz_sphere(0.3)
        fl.reeb_profile(m, [random_point(m, rng) for _ in range(5)], [0.1, 2.0, 4.0])
        assert calls == [(5, 3, 2)] * 7

    def test_degenerate_point_named(self):
        m = fl.custom(_degenerate_right_half, chart=fl.TORUS)
        good, bad = fl.torus_point(0.2, 0.1), fl.torus_point(0.7, 0.3)
        fl.reeb_profile(m, good, [0.0])
        with pytest.raises(fl.DegenerateContactError) as one:
            fl.reeb_profile(m, bad, [0.0])
        with pytest.raises(fl.DegenerateContactError) as block:
            fl.reeb_profile(m, [good, bad, good], [0.0])
        assert "(0.7, 0.3)" in str(block.value)
        assert str(block.value) == str(one.value)


def _pivoted_solve(metric, x, phis):
    """The Reeb field by the pivoted 3x3 solve of A(X) = 1 and two
    components of i_X dA = 0: the fiber (dphi) row always, and the du or
    dv row by the larger of |p_phi| and |q_phi|.  A reference for the
    closed form of reeb_profile."""
    h = jet_step(metric)
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    pq, dpq = fl.hilbert._angle_jet(metric, x, fl.metrics.chart_rays, phis, h)
    curl = fl.hilbert._curl(metric, x, phis, h)
    p, q = pq[..., 0], pq[..., 1]
    p_phi, q_phi = dpq[..., 0], dpq[..., 1]
    M = np.zeros(p.shape + (3, 3))
    rhs = np.zeros(p.shape + (3,))
    M[..., 0, 0], M[..., 0, 1] = p, q
    rhs[..., 0] = 1.0
    M[..., 1, 0], M[..., 1, 1] = p_phi, q_phi
    use_du = np.abs(p_phi) >= np.abs(q_phi)
    M[..., 2, 1] = np.where(use_du, -curl, 0.0)
    M[..., 2, 0] = np.where(use_du, 0.0, curl)
    M[..., 2, 2] = np.where(use_du, p_phi, q_phi)
    sol = np.linalg.solve(M, rhs[..., None])[..., 0]
    return sol[..., :2], sol[..., 2]


class TestReebClosedForm:
    """X = (-q_phi, p_phi, q_u - p_v) / s equals the pivoted solve."""

    @pytest.mark.parametrize("name", list(builtin_metrics()))
    def test_matches_pivoted_solve(self, name, rng):
        m = builtin_metrics()[name]
        xs = [random_point(m, rng) for _ in range(4)]
        shared = rng.uniform(0, 2 * math.pi, size=24)
        per_point = rng.uniform(0, 2 * math.pi, size=(4, 24))
        for x, phis in [(xs[0], shared), (xs, shared), (xs, per_point)]:
            V, Xphi, _ = fl.reeb_profile(m, x, phis)
            V_ref, Xphi_ref = _pivoted_solve(m, x, phis)
            assert np.abs(V - V_ref).max() <= 1e-14 * np.abs(V_ref).max(), name
            assert np.abs(Xphi - Xphi_ref).max() <= 1e-14 * max(1.0, np.abs(Xphi_ref).max()), name


class TestGeodesicBatch:
    @staticmethod
    def _assert_same(batch, single):
        assert batch.status == single.status
        assert len(batch.points) == len(single.points)
        assert batch.times == single.times
        for a, b in zip(batch.points, single.points):
            assert abs(a.base.u - b.base.u) <= 1e-12
            assert abs(a.base.v - b.base.v) <= 1e-12
            assert abs(a.phi - b.phi) <= 1e-12

    def test_sphere_one_leaves_the_chart(self):
        m = fl.kz_sphere(0.0)
        starts = [fl.FiberPoint(fl.sphere_point(math.pi / 2, 0.0), math.pi / 2),
                  fl.FiberPoint(fl.sphere_point(0.3, 0.0), math.pi),   # to the pole
                  fl.FiberPoint(fl.sphere_point(1.2, 2.0), 0.7)]
        trajs = fl.geodesic_integrate(m, starts, 1.0, 1e-2)
        assert [t.status for t in trajs] == ["ok", "chart_exit", "ok"]
        assert len(trajs[1].points) < len(trajs[0].points) == 101
        for traj, fp in zip(trajs, starts):
            self._assert_same(traj, fl.geodesic_integrate(m, fp, 1.0, 1e-2))

    def test_torus_batch(self, rng):
        m = builtin_metrics()["randers-var"]
        starts = [fl.FiberPoint(random_point(m, rng), rng.uniform(0, 2 * math.pi))
                  for _ in range(3)]
        trajs = fl.geodesic_integrate(m, starts, 0.3, 0.04)
        assert [len(t.points) for t in trajs] == [9, 9, 9]
        for traj, fp in zip(trajs, starts):
            self._assert_same(traj, fl.geodesic_integrate(m, fp, 0.3, 0.04))

    def test_empty_batch(self):
        assert fl.geodesic_integrate(fl.kz_torus(0.1), [], 1.0, 0.1) == []

    @pytest.mark.parametrize("t_end, dt", [(math.nan, 0.1), (math.inf, 0.1),
                                           (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_inputs(self, t_end, dt):
        with pytest.raises(fl.DomainError):
            fl.geodesic_integrate(fl.kz_torus(0.1),
                                  fl.FiberPoint(fl.torus_point(0, 0), 0.0), t_end, dt)
