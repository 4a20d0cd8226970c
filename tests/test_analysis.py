from collections import defaultdict

import numpy as np
import pytest
from conftest import counting

from frontalforge.analysis import (AMBIGUOUS_BAND, RANK_SCALE_FLOOR,
                                   cahn_hoffman, front_equivalence,
                                   is_front_at, opening_residual)
from frontalforge.catalog import catalog, catalog_names
from frontalforge.errors import PoleOnSilhouetteError
from frontalforge.frontal import _fd_jacobian
from frontalforge.linalg import numeric_rank, singular_values
from frontalforge.transforms import anti_orthotomic, sample_poles
from frontalforge.verify import (THM2_COND_MAX, THM2_DET_MIN, THM3_NU2_MIN,
                                 grid_for)

# The four frontals and sampled poles of acceptance criterion 8.
CRITERION_8 = ("cusp", "nonfront", "circle", "square")


def _suite_poles(F, count):
    """The poles the verify suites sample for F."""
    return sample_poles(F, grid_for(F, 256, interior_margin=1e-3), count)


def _subsample(grid, size, seed):
    rng = np.random.default_rng(seed)
    return grid[np.sort(rng.choice(len(grid), size=size, replace=False))]


def _unit_map(F, P):
    """x -> (f(x) - P) / ||f(x) - P||, the Gauss map of the anti-orthotomic
    and of the negative pedal, for finite differences."""
    def fun(x):
        u = F.eval(x)[0] - P
        return u / np.linalg.norm(u, axis=1)[:, None]
    return fun


def _fd(F, fun, x):
    return _fd_jacobian(fun, F.domain, x)


def _fd_grad_norm(F, P, x):
    """Central-difference gradient of ||f(x) - P||, shape (k, n)."""
    def fun(t):
        return np.linalg.norm(F.eval(t)[0] - P, axis=1)[:, None]
    return _fd(F, fun, x)[:, 0, :]


class TestCahnHoffman:
    def test_sphere_about_center_trivial(self):
        G = catalog("sphere")
        grid = G.domain.grid([5, 5])
        rep = cahn_hoffman(G, [0.0, 0.0, 0.0], grid)
        np.testing.assert_allclose(rep.direct, 0.0, atol=1e-9)
        np.testing.assert_allclose(rep.formula, 0.0, atol=1e-9)
        np.testing.assert_allclose(rep.gamma, 1.0, atol=1e-12)
        np.testing.assert_allclose(rep.grad_gamma, 0.0, atol=1e-12)

    def test_circle_gamma_closed_form(self):
        # gamma(t) = sqrt(1.25 - cos t), gamma'(t) = sin t / (2 gamma)
        G = catalog("circle")
        t = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
        rep = cahn_hoffman(G, [0.5, 0.0], t[:, None])
        gamma = np.sqrt(1.25 - np.cos(t))
        np.testing.assert_allclose(rep.gamma, gamma, atol=1e-12)
        np.testing.assert_allclose(rep.grad_gamma[:, 0],
                                   np.sin(t) / (2.0 * gamma), atol=1e-12)
        quarter = cahn_hoffman(G, [0.5, 0.0], [[np.pi / 2.0]])
        assert abs(quarter.grad_gamma[0, 0] - 0.4472135954999579) < 1e-12

    @pytest.mark.parametrize("name, P, grid", [
        ("sphere", [0.0, 0.0, 0.3], [6, 6]),
        ("circle", [0.5, 0.0], [64]),
    ])
    def test_offset_pole(self, name, P, grid):
        G = catalog(name)
        rep = cahn_hoffman(G, P, G.domain.grid(grid))
        assert not rep.singular.any()
        scale = 1.0 + np.linalg.norm(rep.direct, axis=1)
        assert np.all(rep.residual <= 1e-12 * scale)
        normal = np.einsum("km,km->k", rep.formula, rep.gauss_direction)
        assert np.all(np.abs(normal) <= 1e-12)
        np.testing.assert_allclose(
            np.linalg.norm(rep.gauss_direction, axis=1), 1.0, atol=1e-15)

    def test_singular_gauss_map_masked(self):
        # the circle-cubic's Gauss map has zero derivative at t = 0 only
        G = catalog("circle-cubic")
        t = np.linspace(-1.0, 1.0, 21)
        rep = cahn_hoffman(G, [0.5, 0.0], t[:, None])
        np.testing.assert_array_equal(rep.singular, t == 0.0)
        assert rep.det_jnu[10] == 0.0 and rep.jnu_inv_norm[10] == np.inf
        assert np.all(np.isnan(rep.formula[10]))
        assert np.isnan(rep.residual[10])
        assert np.all(rep.det_jnu[~rep.singular] > 0.0)
        assert np.all(np.isfinite(rep.residual[~rep.singular]))

    def test_pole_on_image_raises(self):
        with pytest.raises(PoleOnSilhouetteError):
            cahn_hoffman(catalog("circle"), [1.0, 0.0], [[0.5], [0.0]])

    def test_rejects_points_of_wrong_dimension(self):
        with pytest.raises(ValueError):
            cahn_hoffman(catalog("sphere"), [0.0, 0.0, 0.3], [[1.0]])


class TestOpeningResidual:
    def test_circle_cubic_including_singular_point(self):
        F = catalog("circle-cubic")
        t = np.linspace(-1.15, 1.15, 47)
        res = opening_residual(F, [0.0, 0.0], t[:, None])
        assert np.all(res <= 1e-6)
        assert res[23] <= 1e-8  # t = 0

    @pytest.mark.parametrize("name, P, grid", [
        ("circle", [0.5, 0.0], [64]),
        ("sphere", [0.0, 0.0, 0.3], [8, 8]),
    ])
    def test_offset_pole(self, name, P, grid):
        F = catalog(name)
        res = opening_residual(F, P, F.domain.grid(grid))
        assert np.all(res <= 1e-6)

    def test_degenerate_nu2_is_nan(self):
        # nu is orthogonal to f - P at t = 0: P lies on the tangent line
        # through (1, 0); a pole on the image is degenerate too
        F = catalog("circle")
        t = np.array([[0.0], [1.0], [2.0]])
        res = opening_residual(F, [1.0, 2.0], t)
        np.testing.assert_array_equal(np.isnan(res), [True, False, False])
        assert np.all(res[1:] <= 1e-12)
        at_image = opening_residual(F, [1.0, 0.0], t)
        np.testing.assert_array_equal(np.isnan(at_image),
                                      [True, False, False])


class TestFrontCriteria:
    def test_is_front_at(self):
        zero = np.array([[0.0]])
        assert is_front_at(catalog("cusp"), zero).tolist() == [True]
        assert is_front_at(catalog("nonfront"), zero).tolist() == [False]
        F = catalog("circle")
        assert is_front_at(F, F.domain.grid([16])).all()

    def test_cusp_equivalence_over_grid(self):
        t = np.linspace(-0.95, 0.95, 39)
        rep = front_equivalence(catalog("cusp"), [0.0, 1.0], t[:, None])
        assert rep.consistent.all() and rep.is_front.all()

    def test_nonfront_all_criteria_false_at_zero(self):
        t = np.array([[-0.5], [0.0], [0.5]])
        rep = front_equivalence(catalog("nonfront"), [0.0, 1.0], t)
        assert rep.rank_f_nu.tolist() == [1, 0, 1]
        assert rep.rank_ftilde_nutilde.tolist() == [1, 0, 1]
        assert rep.rank_f_ftilde.tolist() == [1, 0, 1]
        assert rep.is_front.tolist() == [True, False, True]
        assert rep.consistent.all()
        assert not rep.ambiguous.any()

    def test_circle_equivalence(self):
        F = catalog("circle")
        g = F.domain.grid([32])
        rep = front_equivalence(F, sample_poles(F, g, 1)[0], g)
        assert rep.consistent.all() and rep.is_front.all()


class TestRankFromOneSVD:
    @pytest.mark.parametrize("tol", [0.0, -1e-6])
    def test_non_positive_tol_raises(self, tol):
        F = catalog("circle")
        with pytest.raises(ValueError, match="tol must be positive"):
            front_equivalence(F, [0.1, 0.2], F.domain.grid([8]), tol=tol)

    @pytest.mark.parametrize("tol", [1e-12, 1e-2, 0.5])
    @pytest.mark.parametrize("name", CRITERION_8)
    def test_ranks_match_numeric_rank(self, name, tol):
        F = catalog(name)
        grid = grid_for(F, 256, interior_margin=1e-3)
        P = _suite_poles(F, 1)[0]
        _, _, Jf, Jn = F.eval(grid, 1)
        _, _, Jft, Jnt = anti_orthotomic(F, P).result.eval(grid, 1)
        S = np.stack([np.concatenate(pair, axis=1) for pair in (
            (Jf, Jn), (Jft, Jnt), (Jf, Jft))])
        want = numeric_rank(S, tol=tol)
        rep = front_equivalence(F, P, grid, tol=tol)
        for k, field in enumerate(("rank_f_nu", "rank_ftilde_nutilde",
                                   "rank_f_ftilde")):
            np.testing.assert_array_equal(getattr(rep, field), want[k])


class TestSingleEvaluation:
    """Each analysis call evaluates its frontal once, on its k rows."""

    @pytest.mark.parametrize("call", [
        cahn_hoffman, opening_residual, front_equivalence],
        ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("name", ["circle", "sphere"])
    def test_each_evaluator_runs_once_per_row(self, name, call):
        rows = defaultdict(list)
        F = counting(catalog(name), rows)
        x = grid_for(F, 64, interior_margin=1e-3)
        P = _suite_poles(F, 1)[0]
        rows.clear()
        call(F, P, x)
        k = x.shape[0]
        assert rows == {key: [k] for key in ("f", "nu", "jac_f", "jac_nu")}


def _per_row_front_reference(F, P, grid, tol=1e-6):
    """Rank decisions one point at a time, from the same jets."""
    _, _, Jf, Jn = F.eval(grid, 1)
    _, _, Jft, Jnt = anti_orthotomic(F, P).result.eval(grid, 1)
    lo, hi = AMBIGUOUS_BAND
    rows = []
    for i in range(len(grid)):
        ranks = []
        ambiguous = False
        for top, bot in ((Jf, Jn), (Jft, Jnt), (Jf, Jft)):
            S = np.vstack([top[i], bot[i]])
            ranks.append(numeric_rank(S, tol=tol))
            sv = singular_values(S)
            ref = max(float(sv[0]), RANK_SCALE_FLOOR)
            ambiguous |= bool(np.any((sv > lo * ref) & (sv < hi * ref)))
        full = [r == F.param_dim for r in ranks]
        rows.append((*ranks, full[2], len(set(full)) == 1, ambiguous))
    return rows


@pytest.mark.parametrize("name", CRITERION_8)
def test_front_equivalence_matches_per_row_reference(name):
    F = catalog(name)
    grid = grid_for(F, 256, interior_margin=1e-3)
    mismatches = 0
    for P in _suite_poles(F, 5):
        rep = front_equivalence(F, P, grid)
        batched = list(zip(rep.rank_f_nu.tolist(),
                           rep.rank_ftilde_nutilde.tolist(),
                           rep.rank_f_ftilde.tolist(), rep.is_front.tolist(),
                           rep.consistent.tolist(), rep.ambiguous.tolist()))
        reference = _per_row_front_reference(F, P, grid)
        mismatches += sum(a != b for a, b in zip(batched, reference))
    assert mismatches == 0


class TestFiniteDifferenceOracle:
    """The closed forms against central differences (`_fd_jacobian`) at a
    seeded subsample of the suite grids, to the suite tolerances.  With
    exact jets the opening identity reduces algebraically to the frontal
    condition, so these keep the suites from being their own oracle."""

    @pytest.mark.parametrize("name", catalog_names())
    def test_thm2_formula_and_skips(self, name):
        det_min, cond_max = THM2_DET_MIN, THM2_COND_MAX
        G = catalog(name)
        P = _suite_poles(G, 1)[0]
        x = _subsample(grid_for(G, 1024, interior_margin=2e-4), 96, seed=2)
        rep = cahn_hoffman(G, P, x, jnu_tol=det_min)

        J = _fd(G, _unit_map(G, P), x)
        sv = singular_values(J)
        det = np.prod(sv, axis=1)
        inv_norm = 1.0 / np.maximum(sv[:, -1], 1e-300)
        fd_tested = (det > det_min) & (inv_norm <= cond_max)
        tested = ~rep.singular & (rep.jnu_inv_norm <= cond_max)
        clear = (np.abs(det - det_min) > 1e-6) \
            & (np.abs(inv_norm - cond_max) > 1e-3 * cond_max)
        np.testing.assert_array_equal(tested[clear], fd_tested[clear])
        np.testing.assert_array_equal(rep.singular[clear],
                                      (det <= det_min)[clear])

        both = tested & fd_tested
        formula = np.einsum("knm,kn->km", np.linalg.pinv(J[both]),
                            _fd_grad_norm(G, P, x[both]))
        scale = 1.0 + np.linalg.norm(rep.direct[both], axis=1)
        assert np.all(np.linalg.norm(formula - rep.direct[both], axis=1)
                      <= 1e-5 * scale)
        assert np.all(np.linalg.norm(formula - rep.formula[both], axis=1)
                      <= 1e-5 * scale)
        np.testing.assert_allclose(rep.det_jnu[both], det[both], rtol=1e-5)

    @pytest.mark.parametrize("name", catalog_names())
    def test_thm3_residual(self, name):
        nu2_min = THM3_NU2_MIN
        F = catalog(name)
        grid = grid_for(F, 256, interior_margin=1e-3)
        for i, P in enumerate(_suite_poles(F, 5)):
            x = _subsample(grid, 32, seed=i)
            res = opening_residual(F, P, x, nu2_tol=nu2_min)

            fv, nv = F.eval(x)
            u = fv - P
            r = np.linalg.norm(u, axis=1)
            nt = u / r[:, None]
            nu2 = np.einsum("km,km->k", nv, nt)
            keep = ~np.isnan(res)
            np.testing.assert_array_equal(keep, np.abs(nu2) > nu2_min)
            tangential = np.sign(nu2)[:, None] * (nv - nu2[:, None] * nt)
            grad_nt = _fd(F, _unit_map(F, P), x)
            grad_gamma = 0.5 * _fd_grad_norm(F, P, x)
            total = 0.5 * r[:, None] * np.einsum("kmj,km->kj", grad_nt,
                                                 tangential) \
                + np.abs(nu2)[:, None] * grad_gamma
            fd_res = np.max(np.abs(total), axis=1)[keep]
            scale = 1.0 + r[keep] / 2.0
            assert np.all(fd_res <= 1e-6 * scale)
            assert np.all(np.abs(res[keep] - fd_res) <= 1e-6 * scale)

    @pytest.mark.parametrize("name", CRITERION_8)
    def test_thm4_rank_decisions(self, name):
        F = catalog(name)
        grid = grid_for(F, 256, interior_margin=1e-3)
        lo, hi = AMBIGUOUS_BAND
        for i, P in enumerate(_suite_poles(F, 5)):
            x = _subsample(grid, 32, seed=i)
            rep = front_equivalence(F, P, x)
            anti = anti_orthotomic(F, P).result
            Jf, Jn, Jft, Jnt = (_fd(F, lambda t, G=G, i=i: G.eval(t)[i], x)
                                for G in (F, anti) for i in (0, 1))
            S = np.stack([np.concatenate(pair, axis=1) for pair in (
                (Jf, Jn), (Jft, Jnt), (Jf, Jft))])
            ranks = numeric_rank(S, tol=1e-6)
            sv = singular_values(S)
            ref = np.maximum(sv[..., :1], RANK_SCALE_FLOOR)
            fd_ambiguous = ((sv > lo * ref) & (sv < hi * ref)).any(axis=(0, 2))
            clear = ~rep.ambiguous & ~fd_ambiguous
            assert clear.sum() >= 24
            for k, field in enumerate(("rank_f_nu", "rank_ftilde_nutilde",
                                       "rank_f_ftilde")):
                np.testing.assert_array_equal(
                    getattr(rep, field)[clear], ranks[k][clear])
