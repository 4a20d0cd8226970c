from fractions import Fraction

import numpy as np
import pytest

from frontalforge.catalog import (_cube, catalog, catalog_names, smooth_step,
                                  smooth_step_deriv, square_normal_components)
from frontalforge.errors import CatalogParameterError, UnknownCatalogError
from frontalforge.frontal import _fd_jacobian
from frontalforge.verify import grid_for


def _exact_cubes(t):
    return np.array([float(Fraction(v) ** 3) for v in t.tolist()])


def test_names_sorted_and_complete():
    assert catalog_names() == ["circle", "circle-cubic", "constant", "cusp",
                               "nonfront", "sphere", "square"]


def test_unknown_name():
    with pytest.raises(UnknownCatalogError):
        catalog("klein-bottle")


def test_bad_params():
    with pytest.raises(CatalogParameterError):
        catalog("circle", {"R": -1.0})
    with pytest.raises(CatalogParameterError):
        catalog("circle", {"radius": 1.0})


def test_circle_radius_param():
    F = catalog("circle", {"R": 2.5})
    fv = F.eval_f(np.array([[0.0], [np.pi / 2]]))
    np.testing.assert_allclose(fv, [[2.5, 0.0], [0.0, 2.5]], atol=1e-12)
    nv = F.eval_nu(np.array([[np.pi]]))
    np.testing.assert_allclose(nv, [[-1.0, 0.0]], atol=1e-12)


def test_circle_cubic_image_and_gauss_coincide():
    F = catalog("circle-cubic")
    g = F.domain.grid([64])
    fv = F.eval_f(g)
    np.testing.assert_allclose(np.linalg.norm(fv, axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(fv, F.eval_nu(g))


def test_cube_correctly_rounded():
    # The oracle is exact rational arithmetic, so this fails on any numpy
    # whose arithmetic would change the circle-cubic golden bytes.
    t = np.random.default_rng(20190701).uniform(-1.2, 1.2, 4000)
    exact = _exact_cubes(t)
    np.testing.assert_array_equal(_cube(t), exact)
    # Tiny arrays take the Python-float path; it must give the same bits.
    small = [_cube(chunk) for chunk in np.array_split(t, 500)]
    assert max(c.size for c in small) <= 8
    np.testing.assert_array_equal(np.concatenate(small), exact)


def test_circle_cubic_uses_exact_cube_on_cli_grid():
    F = catalog("circle-cubic")
    g = grid_for(F, 512)
    assert g.shape == (512, 1)
    t3 = _exact_cubes(g[:, 0])
    expect = np.stack([np.cos(t3), np.sin(t3)], axis=-1)
    np.testing.assert_array_equal(F.eval_f(g), expect)
    np.testing.assert_array_equal(F.eval_nu(g), expect)


def test_cusp_values():
    F = catalog("cusp")
    fv = F.eval_f(np.array([[0.0], [0.5]]))
    np.testing.assert_allclose(fv, [[0.0, 0.0], [0.25, 0.125]], atol=1e-15)
    nv = F.eval_nu(np.array([[0.0]]))
    np.testing.assert_allclose(nv, [[0.0, -1.0]], atol=1e-15)


def test_nonfront_values():
    F = catalog("nonfront")
    fv = F.eval_f(np.array([[-0.5]]))
    np.testing.assert_allclose(fv, [[-0.125, 0.015625]], atol=1e-15)


def test_sphere_unit_image():
    F = catalog("sphere")
    g = F.domain.grid([12, 12])
    fv = F.eval_f(g)
    np.testing.assert_allclose(np.linalg.norm(fv, axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(fv, F.eval_nu(g))


def test_constant_point():
    F = catalog("constant")
    g = F.domain.grid([8])
    np.testing.assert_array_equal(F.eval_f(g), np.tile([0.0, -1.0], (8, 1)))
    np.testing.assert_array_equal(F.eval_nu(g), np.tile([-1.0, 0.0], (8, 1)))


class TestSmoothStep:
    def test_endpoints_flat(self):
        u = np.array([-1.0, 0.0, 1.0, 2.0])
        np.testing.assert_array_equal(smooth_step(u), [0.0, 0.0, 1.0, 1.0])
        np.testing.assert_array_equal(smooth_step_deriv(u), np.zeros(4))

    def test_symmetry_and_monotone(self):
        u = np.linspace(0.0, 1.0, 101)
        s = smooth_step(u)
        np.testing.assert_allclose(s + s[::-1], 1.0, atol=1e-14)
        assert np.all(np.diff(s) >= 0.0)
        mid = (u > 0.05) & (u < 0.95)
        assert np.all(np.diff(s[mid]) > 0.0)
        assert abs(smooth_step(np.array([0.5]))[0] - 0.5) < 1e-15

    def test_deriv_matches_fd(self):
        u = np.linspace(0.05, 0.95, 19)
        h = 1e-6
        fd = (smooth_step(u + h) - smooth_step(u - h)) / (2.0 * h)
        np.testing.assert_allclose(smooth_step_deriv(u), fd, atol=1e-7)


class TestSquare:
    def test_image_on_square_boundary(self):
        F = catalog("square")
        fv = F.eval_f(np.linspace(0.0, 8.0, 4096, endpoint=False)[:, None])
        on_edge = np.isclose(np.max(np.abs(fv), axis=1), 1.0, atol=1e-9)
        assert np.all(on_edge)

    def test_corner_segments_pin_vertices(self):
        F = catalog("square")
        verts = {0: [1.0, -1.0], 2: [1.0, 1.0], 4: [-1.0, 1.0],
                 6: [-1.0, -1.0]}
        for k, v in verts.items():
            t = (k + np.linspace(0.0, 1.0, 33))[:, None]
            np.testing.assert_allclose(F.eval_f(t), np.tile(v, (33, 1)),
                                       atol=1e-15)

    def test_edge_segments_pin_normals(self):
        F = catalog("square")
        normals = {1: [1.0, 0.0], 3: [0.0, 1.0], 5: [-1.0, 0.0],
                   7: [0.0, -1.0]}
        for k, nrm in normals.items():
            t = (k + np.linspace(0.0, 1.0, 33))[:, None]
            np.testing.assert_allclose(F.eval_nu(t), np.tile(nrm, (33, 1)),
                                       atol=1e-15)

    def test_normal_components_never_vanish(self):
        t = np.linspace(0.0, 8.0, 8192, endpoint=False)
        n1, n2 = square_normal_components(t)
        assert float(np.min(np.hypot(n1, n2))) >= 0.1

    def test_period_eight(self):
        F = catalog("square")
        t = np.linspace(0.0, 8.0, 257)[:, None]
        np.testing.assert_allclose(F.eval_f(t), F.eval_f(t + 8.0), atol=1e-12)

    def test_traversal_counterclockwise(self):
        # shoelace area of the traced square is positive and equals 4
        F = catalog("square")
        t = np.linspace(0.0, 8.0, 4096, endpoint=False)[:, None]
        fv = F.eval_f(t)
        x, y = fv[:, 0], fv[:, 1]
        area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        assert abs(area - 4.0) < 1e-6

    def test_jac_nu_matches_fd_on_every_segment(self):
        F = catalog("square")
        u = np.random.default_rng(8).uniform(1e-3, 1.0 - 1e-3, (8, 16))
        t = (np.arange(8.0)[:, None] + u).reshape(-1, 1)
        fd = _fd_jacobian(F.nu, F.domain, t, F.fd_step)
        J = F.jac_nu(t)
        np.testing.assert_allclose(J, fd, atol=1e-8)
        assert np.all(J[np.floor(t[:, 0]) % 2 == 1] == 0.0)
