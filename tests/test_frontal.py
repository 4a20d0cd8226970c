import numpy as np
import pytest

from frontalforge.catalog import catalog, catalog_names
from frontalforge.errors import DomainError
from frontalforge.frontal import (Frontal, ParamDomain, check_frontal,
                                  interval, jacobian_f, jacobian_nu, sample)


class TestParamDomain:
    def test_wrap_periodic(self):
        dom = interval(0.0, 2.0 * np.pi, periodic=True)
        x = dom.wrap(np.array([[2.5 * np.pi], [-0.5 * np.pi]]))
        np.testing.assert_allclose(x[:, 0],
                                   [0.5 * np.pi, 1.5 * np.pi], atol=1e-12)

    def test_wrap_nonperiodic_passthrough(self):
        dom = interval(-1.0, 1.0)
        x = dom.wrap(np.array([[1.5]]))
        assert x[0, 0] == 1.5

    def test_grid_periodic_excludes_right_endpoint(self):
        dom = interval(0.0, 1.0, periodic=True)
        g = dom.grid([4])
        np.testing.assert_allclose(g[:, 0], [0.0, 0.25, 0.5, 0.75])

    def test_grid_nonperiodic_includes_endpoints(self):
        dom = interval(-1.0, 1.0)
        g = dom.grid([3])
        np.testing.assert_allclose(g[:, 0], [-1.0, 0.0, 1.0])

    def test_grid_mixed_axes(self):
        dom = ParamDomain(np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                          np.array([True, False]))
        g = dom.grid([2, 2])
        assert g.shape == (4, 2)
        assert g[:, 0].max() == 0.5  # periodic axis stops short of 1
        assert g[:, 1].max() == 1.0

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            interval(1.0, 1.0)

    def test_wrap_tiny_negative_lands_on_lo(self):
        # np.mod(-1e-20, 2 pi) rounds to 2 pi itself
        assert catalog("circle").domain.wrap([[-1e-20]])[0, 0] == 0.0

    @pytest.mark.parametrize("lo,hi", [(0.0, 2.0 * np.pi), (-0.3, 0.7)])
    def test_wrap_idempotent_near_ends(self, lo, hi):
        dom = interval(lo, hi, periodic=True)
        rng = np.random.default_rng(7)
        offsets = rng.uniform(-1e-12, 1e-12, 5000) * rng.choice(
            [1.0, 1e-6, 1e-12], 5000)
        x = np.concatenate([lo + offsets, hi + offsets])[:, None]
        w = dom.wrap(x)
        assert np.all((w >= lo) & (w < hi))
        np.testing.assert_array_equal(dom.wrap(w), w)


class TestJacobians:
    def test_circle_analytic(self):
        F = catalog("circle")
        J = jacobian_f(F, np.array([[0.0]]))
        np.testing.assert_allclose(J[0, :, 0], [0.0, 1.0], atol=1e-12)

    def test_monomial_curve_fd(self):
        def f(x):
            t = x[:, 0]
            return np.stack([t**2, t**3], axis=-1)

        F = Frontal(domain=interval(-1.0, 1.0), f=f, nu=f, ambient_dim=2)
        J = jacobian_f(F, np.array([[0.5]]))
        np.testing.assert_allclose(J[0, :, 0], [1.0, 0.75], atol=1e-9)

    def test_constant_map(self):
        F = catalog("constant")
        J = jacobian_f(F, np.array([[0.2]]))
        np.testing.assert_array_equal(J, np.zeros((1, 2, 1)))

    def test_fd_matches_analytic(self):
        for name in ("circle", "cusp", "nonfront", "sphere"):
            F = catalog(name)
            stripped = Frontal(domain=F.domain, f=F.f, nu=F.nu,
                               ambient_dim=F.ambient_dim)
            g = F.domain.grid([7] * F.param_dim)
            # stay clear of non-periodic boundaries for central differences
            inside = np.all(
                (F.domain.periodic[None, :])
                | ((g > F.domain.lo + 1e-3) & (g < F.domain.hi - 1e-3)),
                axis=1)
            g = g[inside]
            np.testing.assert_allclose(jacobian_f(stripped, g),
                                       jacobian_f(F, g), atol=1e-7)

    def test_fd_boundary_stencil_second_order(self):
        F = catalog("cusp")
        stripped = Frontal(domain=F.domain, f=F.f, nu=F.nu, ambient_dim=2)
        x = np.array([[-1.0], [1.0]])
        np.testing.assert_allclose(jacobian_f(stripped, x),
                                   jacobian_f(F, x), atol=1e-7)

    def test_fd_rejects_near_boundary_interior_point(self):
        F = catalog("cusp")
        stripped = Frontal(domain=F.domain, f=F.f, nu=F.nu, ambient_dim=2)
        with pytest.raises(DomainError):
            jacobian_f(stripped, np.array([[1.0 - 1e-7]]))

    def test_fd_periodic_seam(self):
        F = catalog("circle")
        stripped = Frontal(domain=F.domain, f=F.f, nu=F.nu, ambient_dim=2)
        x = np.array([[0.0]])
        np.testing.assert_allclose(jacobian_f(stripped, x),
                                   jacobian_f(F, x), atol=1e-9)

    def test_jacobian_nu_analytic_used(self):
        F = catalog("cusp")
        J = jacobian_nu(F, np.array([[0.0]]))
        # d nu/dt at 0 = (12, 0) / 4^(3/2)
        np.testing.assert_allclose(J[0, :, 0], [1.5, 0.0], atol=1e-12)


class TestCheckFrontal:
    @pytest.mark.parametrize("name", catalog_names())
    def test_catalog_passes(self, name):
        F = catalog(name)
        grid = F.domain.grid([32] * F.param_dim)
        rep = check_frontal(F, grid)
        assert rep.passed, f"{name}: residual {rep.max_residual}"
        assert rep.max_unit_defect <= 1e-12

    def test_wrong_normal_fails(self):
        F = catalog("circle")
        bad = Frontal(domain=F.domain, f=F.f,
                      nu=lambda x: np.stack([-np.sin(x[:, 0]),
                                             np.cos(x[:, 0])], axis=-1),
                      ambient_dim=2, jac_f=F.jac_f)
        rep = check_frontal(bad, F.domain.grid([64]))
        assert not rep.passed
        assert rep.max_residual >= 0.1


class TestEvaluatesOnlyWhatIsRead:
    """Without analytic Jacobians or a jet, check_frontal reads nu and Jf
    and jacobian_f reads Jf: neither pays for a finite-difference Jnu."""

    def _counted(self):
        C = catalog("cusp")
        rows = []

        def nu(x):
            rows.append(x.shape[0])
            return C.nu(x)
        return Frontal(domain=C.domain, f=C.f, nu=nu, ambient_dim=2), rows

    def test_check_frontal_evaluates_nu_once(self):
        F, rows = self._counted()
        assert check_frontal(F, F.domain.grid([64])).passed
        assert sum(rows) == 64

    def test_jacobian_f_never_evaluates_nu(self):
        F, rows = self._counted()
        jacobian_f(F, F.domain.grid([64])[1:-1])
        assert sum(rows) == 0

    def test_jacobian_nu_matches_jet(self):
        F, _ = self._counted()
        x = F.domain.grid([64])[1:-1]
        np.testing.assert_array_equal(jacobian_nu(F, x), F.eval(x, 1)[3])


class TestSample:
    def test_shapes_and_gauss(self):
        F = catalog("circle")
        g = F.domain.grid([16])
        sm = sample(F, g)
        assert sm.values.shape == (16, 2)
        assert sm.gauss is not None and sm.gauss.shape == (16, 2)

    def test_rejects_nonfinite(self):
        F = catalog("circle")

        def bad(x):
            out = F.f(x)
            out[0, 0] = np.nan
            return out

        G = Frontal(domain=F.domain, f=bad, nu=F.nu, ambient_dim=2)
        with pytest.raises(ValueError):
            sample(G, F.domain.grid([4]))
