import warnings
from fractions import Fraction

import numpy as np
import pytest

from frontalforge.catalog import (_SQUARE_N0, _SQUARE_N1, _bump, _cube,
                                  _square_rows, _square_segments, catalog,
                                  catalog_names, smooth_step,
                                  smooth_step_deriv)
from frontalforge.errors import CatalogParameterError, UnknownCatalogError
from frontalforge.frontal import _fd_jacobian
from frontalforge.verify import grid_for


def _square_normal_components(t):
    """The square's raw (n1, n2) normal field, as its nu and jac_nu build
    it, at t taken mod 8."""
    seg, u = _square_segments(np.mod(np.asarray(t, dtype=float), 8.0))
    return tuple(_square_rows(seg, smooth_step(u), _SQUARE_N1, _SQUARE_N0))


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
    fv = F.eval(np.array([[0.0], [np.pi / 2]]))[0]
    np.testing.assert_allclose(fv, [[2.5, 0.0], [0.0, 2.5]], atol=1e-12)
    nv = F.eval(np.array([[np.pi]]))[1]
    np.testing.assert_allclose(nv, [[-1.0, 0.0]], atol=1e-12)


def test_circle_cubic_image_and_gauss_coincide():
    F = catalog("circle-cubic")
    g = F.domain.grid([64])
    fv = F.eval(g)[0]
    np.testing.assert_allclose(np.linalg.norm(fv, axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(fv, F.eval(g)[1])


def test_circle_cubic_cube_must_be_finite():
    """c**3 overflows between c = 5.64e102 and 5.65e102: the smaller c
    evaluates without a warning, and every c above it is refused, a JSON
    integer too."""
    F = catalog("circle-cubic", {"c": 5.64e102})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        F.eval(grid_for(F, 64), 1)
    for c in (5.65e102, 1e200, 10**150):
        with pytest.raises(CatalogParameterError, match="'c'"):
            catalog("circle-cubic", {"c": c})


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
    np.testing.assert_array_equal(F.eval(g)[0], expect)
    np.testing.assert_array_equal(F.eval(g)[1], expect)


def test_cusp_values():
    F = catalog("cusp")
    fv = F.eval(np.array([[0.0], [0.5]]))[0]
    np.testing.assert_allclose(fv, [[0.0, 0.0], [0.25, 0.125]], atol=1e-15)
    nv = F.eval(np.array([[0.0]]))[1]
    np.testing.assert_allclose(nv, [[0.0, -1.0]], atol=1e-15)


def test_nonfront_values():
    F = catalog("nonfront")
    fv = F.eval(np.array([[-0.5]]))[0]
    np.testing.assert_allclose(fv, [[-0.125, 0.015625]], atol=1e-15)


def test_sphere_unit_image():
    F = catalog("sphere")
    g = F.domain.grid([12, 12])
    fv = F.eval(g)[0]
    np.testing.assert_allclose(np.linalg.norm(fv, axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(fv, F.eval(g)[1])


def test_constant_point():
    F = catalog("constant")
    g = F.domain.grid([8])
    np.testing.assert_array_equal(F.eval(g)[0], np.tile([0.0, -1.0], (8, 1)))
    np.testing.assert_array_equal(F.eval(g)[1], np.tile([-1.0, 0.0], (8, 1)))


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

    def test_tiny_arguments_are_zero_without_warning(self):
        # -1/u overflows to -inf below u ~ 5.6e-309; exp(-inf) is 0
        u = np.array([5e-324, 1e-310, 5.6e-309, 1e-300])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bump = _bump(u)
            f = catalog("square").f(np.array([[5e-324]]))
        assert bump.tobytes() == np.zeros(4).tobytes()
        np.testing.assert_array_equal(f, [[1.0, -1.0]])

    def test_deriv_matches_fd(self):
        u = np.linspace(0.05, 0.95, 19)
        h = 1e-6
        fd = (smooth_step(u + h) - smooth_step(u - h)) / (2.0 * h)
        np.testing.assert_allclose(smooth_step_deriv(u), fd, atol=1e-7)


class TestSquare:
    def test_image_on_square_boundary(self):
        F = catalog("square")
        fv = F.eval(np.linspace(0.0, 8.0, 4096, endpoint=False)[:, None])[0]
        on_edge = np.isclose(np.max(np.abs(fv), axis=1), 1.0, atol=1e-9)
        assert np.all(on_edge)

    def test_corner_segments_pin_vertices(self):
        F = catalog("square")
        verts = {0: [1.0, -1.0], 2: [1.0, 1.0], 4: [-1.0, 1.0],
                 6: [-1.0, -1.0]}
        for k, v in verts.items():
            t = (k + np.linspace(0.0, 1.0, 33))[:, None]
            np.testing.assert_allclose(F.eval(t)[0], np.tile(v, (33, 1)),
                                       atol=1e-15)

    def test_edge_segments_pin_normals(self):
        F = catalog("square")
        normals = {1: [1.0, 0.0], 3: [0.0, 1.0], 5: [-1.0, 0.0],
                   7: [0.0, -1.0]}
        for k, nrm in normals.items():
            t = (k + np.linspace(0.0, 1.0, 33))[:, None]
            np.testing.assert_allclose(F.eval(t)[1], np.tile(nrm, (33, 1)),
                                       atol=1e-15)

    def test_normal_components_never_vanish(self):
        t = np.linspace(0.0, 8.0, 8192, endpoint=False)
        n1, n2 = _square_normal_components(t)
        assert float(np.min(np.hypot(n1, n2))) >= 0.1

    def test_period_eight(self):
        F = catalog("square")
        t = np.linspace(0.0, 8.0, 257)[:, None]
        np.testing.assert_allclose(F.eval(t)[0], F.eval(t + 8.0)[0],
                                   atol=1e-12)

    def test_traversal_counterclockwise(self):
        # shoelace area of the traced square is positive and equals 4
        F = catalog("square")
        t = np.linspace(0.0, 8.0, 4096, endpoint=False)[:, None]
        fv = F.eval(t)[0]
        x, y = fv[:, 0], fv[:, 1]
        area = 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
        assert abs(area - 4.0) < 1e-6

    def test_jac_nu_matches_fd_on_every_segment(self):
        F = catalog("square")
        u = np.random.default_rng(8).uniform(1e-3, 1.0 - 1e-3, (8, 16))
        t = (np.arange(8.0)[:, None] + u).reshape(-1, 1)
        fd = _fd_jacobian(F.nu, F.domain, t)
        J = F.jac_nu(t)
        np.testing.assert_allclose(J, fd, atol=1e-8)
        assert np.all(J[np.floor(t[:, 0]) % 2 == 1] == 0.0)


# The square as written before its segment table: one if/elif chain per
# evaluator, and s' through boolean-mask assignment.  TestSquareByteOracle
# holds the table and smooth_step_deriv to these bit for bit.
def _ref_step_deriv(u):
    a = _bump(u)
    b = _bump(1.0 - u)
    inner = (u > 0.0) & (u < 1.0)
    out = np.zeros_like(u)
    uu = np.where(inner, u, 0.5)
    out[inner] = (a * b * (1.0 / uu**2 + 1.0 / (1.0 - uu) ** 2))[inner] \
        / (a + b)[inner] ** 2
    return out


_REF_VERTS = {0: (1.0, -1.0), 2: (1.0, 1.0), 4: (-1.0, 1.0), 6: (-1.0, -1.0)}
_REF_DNORMAL = {0: (1.0, 1.0), 2: (-1.0, 1.0), 4: (-1.0, -1.0),
                6: (1.0, -1.0)}


def _ref_xy(t):
    seg, u = _square_segments(t)
    s = smooth_step(u)
    x = np.empty_like(u)
    y = np.empty_like(u)
    for k in range(8):
        mk = seg == k
        if k in _REF_VERTS:
            x[mk], y[mk] = _REF_VERTS[k]
        elif k == 1:
            x[mk] = 1.0
            y[mk] = -1.0 + 2.0 * s[mk]
        elif k == 3:
            x[mk] = 1.0 - 2.0 * s[mk]
            y[mk] = 1.0
        elif k == 5:
            x[mk] = -1.0
            y[mk] = 1.0 - 2.0 * s[mk]
        else:
            x[mk] = -1.0 + 2.0 * s[mk]
            y[mk] = -1.0
    return x, y


def _ref_normal_components(t):
    seg, u = _square_segments(np.asarray(t, dtype=float))
    s = smooth_step(u)
    n1 = np.empty_like(u)
    n2 = np.empty_like(u)
    for k in range(8):
        mk = seg == k
        if k == 0:
            n1[mk], n2[mk] = s[mk], s[mk] - 1.0
        elif k == 1:
            n1[mk], n2[mk] = 1.0, 0.0
        elif k == 2:
            n1[mk], n2[mk] = 1.0 - s[mk], s[mk]
        elif k == 3:
            n1[mk], n2[mk] = 0.0, 1.0
        elif k == 4:
            n1[mk], n2[mk] = -s[mk], 1.0 - s[mk]
        elif k == 5:
            n1[mk], n2[mk] = -1.0, 0.0
        elif k == 6:
            n1[mk], n2[mk] = s[mk] - 1.0, -s[mk]
        else:
            n1[mk], n2[mk] = 0.0, -1.0
    return n1, n2


def _ref_f(x):
    return np.stack(_ref_xy(x[:, 0]), axis=-1)


def _ref_nu(x):
    n1, n2 = _ref_normal_components(x[:, 0])
    nrm = np.hypot(n1, n2)
    return np.stack([n1 / nrm, n2 / nrm], axis=-1)


def _ref_jac_f(x):
    seg, u = _square_segments(x[:, 0])
    ds = 2.0 * _ref_step_deriv(u)
    dx = np.zeros_like(u)
    dy = np.zeros_like(u)
    dy[seg == 1] = ds[seg == 1]
    dx[seg == 3] = -ds[seg == 3]
    dy[seg == 5] = -ds[seg == 5]
    dx[seg == 7] = ds[seg == 7]
    return np.stack([dx, dy], axis=-1)[:, :, None]


def _ref_jac_nu(x):
    t = x[:, 0]
    n1, n2 = _ref_normal_components(t)
    nrm = np.hypot(n1, n2)
    e1, e2 = n1 / nrm, n2 / nrm
    seg, u = _square_segments(t)
    ds = _ref_step_deriv(u)
    dn1 = np.zeros_like(u)
    dn2 = np.zeros_like(u)
    for k, (a, b) in _REF_DNORMAL.items():
        mk = seg == k
        dn1[mk] = a * ds[mk]
        dn2[mk] = b * ds[mk]
    along = e1 * dn1 + e2 * dn2
    return np.stack([(dn1 - along * e1) / nrm,
                     (dn2 - along * e2) / nrm], axis=-1)[:, :, None]


# Every integer t (where s = 0 and the sign of zero shows), half-integers
# on both sides of 0, and seeded t outside the period.
_ORACLE_GRIDS = {
    **{f"linspace-{8 * 2**j}": np.linspace(0.0, 8.0, 8 * 2**j,
                                           endpoint=False)
       for j in range(14)},
    "half-integers": np.arange(-32, 33) / 2.0,
    "seeded": np.random.default_rng(20190702).uniform(-20.0, 30.0, 10**5),
}


def _assert_same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, what
    diff = got.view(np.int64) != want.view(np.int64)
    assert not diff.any(), f"{what}: {int(diff.sum())} values differ"


class TestSquareByteOracle:
    @pytest.mark.parametrize("name", ["f", "nu", "jac_f", "jac_nu"])
    def test_evaluator(self, name):
        F = catalog("square")
        ref = {"f": _ref_f, "nu": _ref_nu, "jac_f": _ref_jac_f,
               "jac_nu": _ref_jac_nu}[name]
        for label, t in _ORACLE_GRIDS.items():
            # the evaluators see only wrapped t, as Frontal gives them
            t = F.domain.wrap(t[:, None])
            _assert_same_bits(getattr(F, name)(t), ref(t),
                              f"{name} on {label}")

    def test_smooth_step_deriv(self):
        offsets = {label: _square_segments(t)[1]
                   for label, t in _ORACLE_GRIDS.items()}
        offsets["edges"] = np.array([-1.0, -0.0, 0.0, 1e-150, 1e-3, 0.5,
                                     1.0 - 2.0**-53, 1.0, 1.5])
        for label, u in offsets.items():
            _assert_same_bits(smooth_step_deriv(u), _ref_step_deriv(u),
                              f"s' on {label}")

    def test_tiny_offsets_are_flat(self):
        # Below u ~ 1.5e-154, u**2 underflows and the masked formula gave
        # 0 * inf = NaN; the table multiplies s' by zero slopes, so s' must
        # be 0 there for jac_f to stay (0, 0) on the corner.
        t = np.array([5e-324, 1e-300, 1e-160])
        F = catalog("square")
        with np.errstate(all="ignore"):  # -1/t and the reference's 1/u**2
            np.testing.assert_array_equal(smooth_step_deriv(t), 0.0)
            _assert_same_bits(F.jac_f(t[:, None]), _ref_jac_f(t[:, None]),
                              "jac_f at tiny t")
            np.testing.assert_array_equal(F.jac_nu(t[:, None]), 0.0)

    def test_normal_components(self):
        for label, t in _ORACLE_GRIDS.items():
            for i, (got, want) in enumerate(zip(
                    _square_normal_components(t), _ref_normal_components(t))):
                _assert_same_bits(got, want, f"n{i + 1} on {label}")

    def test_segments_of_wrapped_points_skip_the_mod(self):
        """The evaluators get points wrapped into [0, 8), which np.mod(t, 8)
        returns unchanged: (seg, u) have the bits they had with the mod."""
        F = catalog("square")
        t = np.random.default_rng(20261019).uniform(-20.0, 30.0, 10**5)
        edges = [0.0, -0.0, np.nextafter(8.0, 0.0), -1e-300, 8.0, 1.0,
                 np.nextafter(1.0, 0.0), 7.0 + 2.0**-50]
        t = F.domain.wrap(np.concatenate([edges, t])[:, None])[:, 0]
        assert np.signbit(t[1])  # -0.0 is in [0, 8): it stays -0.0
        tau = np.mod(t, 8.0)
        whole = np.floor(tau)
        seg, u = _square_segments(t)
        np.testing.assert_array_equal(seg, whole.astype(int) % 8)
        _assert_same_bits(u, tau - whole, "u")
