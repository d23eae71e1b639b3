import math

import numpy as np
import pytest

import finlap as fl
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
        m = fl.make_randers(g, th)
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
        # flat arcs and the Reeb system is declared degenerate there
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
        h = fl.hilbert.H_PHI
        calls = self._record_calls(monkeypatch)
        m = fl.kz_torus(0.6)
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

    def test_sphere_total_volume_unchanged(self):
        assert fl.sphere_total_volume(fl.kz_sphere(0.3), 96, 2) == 13.809198476223967


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
