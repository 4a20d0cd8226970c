"""Named verification suites over catalog frontals and sampled poles.

Each suite returns a plain dict (JSON-serializable) with a boolean "passed",
the residuals it measured, and the tolerances it enforced.  The CLI `verify`
subcommand and the acceptance tests both run these.
"""
from __future__ import annotations

import numpy as np

from .analysis import cahn_hoffman, front_equivalence, opening_residual
from .catalog import catalog
from .frontal import Frontal, ParamDomain, check_frontal
from .linalg import row_norm
from .transforms import anti_orthotomic, orthotomic, pedal, sample_poles

# Unused here; bound because perfbench/tracer.py patches it in this module.
from .transforms import negative_pedal  # noqa: F401


def grid_for(F: Frontal, total: int, interior_margin: float = 0.0) -> np.ndarray:
    """Roughly `total` samples, split evenly across parameter axes.

    interior_margin > 0 insets non-periodic axes by that fraction of their
    length (used where finite differences need room around each point).
    """
    n = F.param_dim
    per_axis = max(2, int(round(total ** (1.0 / n))))
    dom = F.domain
    if interior_margin > 0.0 and np.any(~dom.periodic):
        span = dom.hi - dom.lo
        lo = np.where(dom.periodic, dom.lo, dom.lo + interior_margin * span)
        hi = np.where(dom.periodic, dom.hi, dom.hi - interior_margin * span)
        dom = ParamDomain(lo, hi, dom.periodic)
    return dom.grid([per_axis] * n)


FRONTAL_TOL = 1e-6      # |df . nu|: frontal-condition, prop1's orthotomic
PROP1_TOL = 1e-8        # prop1 support identity
THM2_TOL = 1e-5         # thm2 residual / (1 + |direct offset|)
THM2_DET_MIN = 1e-3     # thm2 skips |det J nu~| <= THM2_DET_MIN ...
THM2_COND_MAX = 1e3     # ... and ||(J nu~)^-1|| > THM2_COND_MAX
THM3_NU2_MIN = 1e-3     # thm3 skips |nu2| <= THM3_NU2_MIN
THM4_RANK_TOL = 1e-6    # thm4 numeric-rank tolerance
SQUARE_TOL = 1e-6       # square-reconstruction mirror, radius and side


def _poles_for(F: Frontal, grid: np.ndarray, count: int, poles=None,
               values=None):
    """The given poles as a (k, m) array, or `count` sampled NS poles
    (values: F's (f, nu) on the grid, when the caller holds them)."""
    if poles is None:
        return sample_poles(F, grid, count, values=values)
    return np.atleast_2d(np.asarray(poles, dtype=float))


def suite_frontal_condition(F: Frontal, samples: int = 2048) -> dict:
    """The tangency condition df . nu = 0 on a sample grid."""
    grid = grid_for(F, samples)
    rep = check_frontal(F, grid, tol=FRONTAL_TOL)
    return {
        "suite": "frontal-condition",
        "frontal": F.name,
        "samples": grid.shape[0],
        "max_residual": rep.max_residual,
        "max_unit_defect": rep.max_unit_defect,
        "worst_x": rep.worst_x.tolist(),
        "tol": FRONTAL_TOL,
        "passed": rep.passed and rep.max_unit_defect <= 1e-9,
    }


def suite_prop1(F: Frontal, samples: int = 1024, n_poles: int = 5,
                poles=None) -> dict:
    """Orthotomic outputs: frontal condition with the induced Gauss map,
    the support identity ||f-f~|| ((f-P).nu) = 2 ((f~-P).nu~)^2, and
    f(x) != f~(x) wherever the hypothesis margin exceeds 1e-3.  F is
    evaluated once, at order 1; each orthotomic is applied to that jet."""
    grid = F.domain.wrap(grid_for(F, samples, interior_margin=1e-3))
    jet = F.eval_wrapped(grid, 1)
    ft, nt = jet[:2]
    poles = _poles_for(F, grid, n_poles, poles, values=jet)
    worst_identity = 0.0
    worst_frontal = 0.0
    min_separation = np.inf
    for P in poles:
        ortho = orthotomic(F, P)
        ojet = ortho.apply(grid, *jet)
        worst_frontal = max(worst_frontal, check_frontal(
            ortho.result, grid, jet=ojet).max_residual)
        fv, nv = ojet[:2]
        del ojet  # its Jacobians serve the frontal check alone
        d_tilde = np.einsum("km,km->k", ft - P, nt)
        sep = row_norm(fv - ft)
        lhs = sep * np.einsum("km,km->k", fv - P, nv)
        worst_identity = max(worst_identity,
                             float(np.max(np.abs(lhs - 2.0 * d_tilde**2))))
        min_separation = min(min_separation,
                             float(np.min(sep[np.abs(d_tilde) > 1e-3])))
    return {
        "suite": "prop1",
        "frontal": F.name,
        "poles": poles.tolist(),
        "max_identity_residual": worst_identity,
        "max_frontal_residual": worst_frontal,
        "min_separation": min_separation,
        "tol": PROP1_TOL,
        "passed": (worst_identity <= PROP1_TOL and min_separation > 1e-3
                   and worst_frontal <= FRONTAL_TOL),
    }


def suite_thm1(F: Frontal, samples: int = 1024, n_poles: int = 5,
               poles=None) -> dict:
    """Anti-orthotomic identities: induced-normal tangency, the support
    value (f~-P).nu~ = ||f-P||/2, the equidistance ||f~-P|| = ||f~-f||, and
    both round trips with the orthotomic.  F is evaluated once, at order
    1; the transforms are applied to that jet and to the values they give."""
    grid = F.domain.wrap(grid_for(F, samples, interior_margin=1e-3))
    jet = F.eval_wrapped(grid, 1)
    fv, nv = jet[:2]
    poles = _poles_for(F, grid, n_poles, poles, values=jet)
    worst = {"frontal": 0.0, "support": 0.0, "equidistance": 0.0,
             "roundtrip": 0.0}
    for P in poles:
        anti = anti_orthotomic(F, P)
        ajet = anti.apply(grid, *jet)
        worst["frontal"] = max(worst["frontal"], check_frontal(
            anti.result, grid, jet=ajet).max_residual)
        ftv, ntv = ajet[:2]
        del ajet  # its Jacobians serve the frontal check alone
        r = row_norm(fv - P)
        supp = np.einsum("km,km->k", ftv - P, ntv)
        worst["support"] = max(worst["support"],
                               float(np.max(np.abs(supp - r / 2.0))))
        eq = np.abs(row_norm(ftv - P) - row_norm(ftv - fv))
        worst["equidistance"] = max(worst["equidistance"], float(np.max(eq)))
        # orthotomic of the anti-orthotomic restores F ...
        back1 = orthotomic(anti.result, P).apply(grid, ftv, ntv)[0]
        # ... and anti-orthotomic of the orthotomic restores F
        ortho = orthotomic(F, P)
        back2 = anti_orthotomic(ortho.result, P).apply(
            grid, *ortho.apply(grid, fv, nv))[0]
        for back in (back1, back2):
            worst["roundtrip"] = max(worst["roundtrip"],
                                     float(np.max(row_norm(back - fv))))
    tols = {"frontal": 1e-6, "support": 1e-8, "equidistance": 1e-9,
            "roundtrip": 1e-8}
    return {
        "suite": "thm1",
        "frontal": F.name,
        "poles": poles.tolist(),
        "max_residuals": worst,
        "tols": tols,
        "passed": all(worst[k] <= tols[k] for k in worst),
    }


def suite_thm2(G: Frontal, P, samples: int = 1024) -> dict:
    """The vector formula f~ - g = ((J nu~)^-1)^t grad(gamma) (+ nothing
    along nu~) against the direct negative-pedal computation, plus the
    singular-gamma corollary in both directions.  Points skipped by
    THM2_DET_MIN or THM2_COND_MAX are counted."""
    grid = grid_for(G, samples, interior_margin=2e-4)
    rep = cahn_hoffman(G, P, grid, jnu_tol=THM2_DET_MIN)
    capped = ~rep.singular & (rep.jnu_inv_norm > THM2_COND_MAX)
    ok = ~rep.singular & ~capped
    dn = row_norm(rep.direct[ok])
    gn = row_norm(rep.grad_gamma[ok])
    worst = float(np.max(rep.residual[ok] / (1.0 + dn), initial=0.0))
    worst_ortho = float(np.max(np.abs(np.einsum(
        "km,km->k", rep.formula[ok], rep.gauss_direction[ok])), initial=0.0))
    corollary_ok = not np.any(((gn <= 1e-7) & (dn > 1e-4))
                              | ((dn <= 1e-7) & (gn > 1e-4)))
    tested = int(ok.sum())
    return {
        "suite": "thm2",
        "frontal": G.name,
        "pole": np.asarray(P, dtype=float).tolist(),
        "points_tested": tested,
        "points_skipped": {"singular_gauss_map": int(rep.singular.sum()),
                           "condition_cap": int(capped.sum())},
        "max_residual": worst,
        "max_normal_component": worst_ortho,
        "corollary_ok": corollary_ok,
        "tol": THM2_TOL,
        "passed": worst <= THM2_TOL and corollary_ok and worst_ortho <= 1e-9
        and tested > 0,
    }


def suite_thm3(F: Frontal, samples: int = 512, n_poles: int = 5,
               poles=None) -> dict:
    """The opening identity: the weighted sum of Gauss-component gradients
    cancels the gradient of the half-distance, wherever the normal
    coefficient is bounded away from zero (points where |nu2| <=
    THM3_NU2_MIN are skipped and counted)."""
    grid = grid_for(F, samples, interior_margin=1e-3)
    poles = _poles_for(F, grid, n_poles, poles)
    fv = F.eval_f(grid)
    worst = 0.0
    tested = 0
    for P in poles:
        gamma = row_norm(fv - P) / 2.0
        scaled = opening_residual(F, P, grid, nu2_tol=THM3_NU2_MIN) \
            / (1.0 + gamma)
        scaled = scaled[~np.isnan(scaled)]
        tested += scaled.size
        worst = max(worst, float(np.max(scaled, initial=0.0)))
    return {
        "suite": "thm3",
        "frontal": F.name,
        "poles": poles.tolist(),
        "points_tested": tested,
        "points_skipped": {"degenerate_nu2": len(poles) * len(grid) - tested},
        "max_scaled_residual": worst,
        "tol": 1e-6,
        "passed": worst <= 1e-6 and tested > 0,
    }


def suite_thm4(F: Frontal, samples: int = 256, n_poles: int = 5,
               poles=None) -> dict:
    """Three-way agreement of the front criteria outside the rank-ambiguity
    band."""
    grid = grid_for(F, samples, interior_margin=1e-3)
    poles = _poles_for(F, grid, n_poles, poles)
    tested = 0
    excluded = 0
    inconsistent = 0
    for P in poles:
        rep = front_equivalence(F, P, grid, tol=THM4_RANK_TOL)
        decided = ~rep.ambiguous
        excluded += int(rep.ambiguous.sum())
        tested += int(decided.sum())
        inconsistent += int((decided & ~rep.consistent).sum())
    return {
        "suite": "thm4",
        "frontal": F.name,
        "poles": poles.tolist(),
        "points_tested": tested,
        "points_excluded": excluded,
        "inconsistent": inconsistent,
        "passed": inconsistent == 0 and tested > 0,
    }


def suite_square_reconstruction(P=(0.3, -0.2), samples: int = 4096) -> dict:
    """The orthotomic of the square frontal: four mirror points, four
    vertex-centered arcs with the predicted radii on the side away from P,
    and the pedal as the 50% shrink toward P."""
    P = np.asarray(P, dtype=float)
    p1, p2 = P
    F = catalog("square")
    ortho = orthotomic(F, P).result
    ped = pedal(F, P).result

    mirror = {
        1: np.array([2.0 - p1, p2]),
        3: np.array([p1, 2.0 - p2]),
        5: np.array([-2.0 - p1, p2]),
        7: np.array([p1, -2.0 - p2]),
    }
    verts = {0: np.array([1.0, -1.0]), 2: np.array([1.0, 1.0]),
             4: np.array([-1.0, 1.0]), 6: np.array([-1.0, -1.0])}
    # arc endpoints: adjacent mirror points in traversal order
    endpoints = {0: (mirror[7], mirror[1]), 2: (mirror[1], mirror[3]),
                 4: (mirror[3], mirror[5]), 6: (mirror[5], mirror[7])}

    t = np.linspace(0.0, 8.0, samples, endpoint=False)[:, None]
    seg = np.floor(t[:, 0]).astype(int) % 8
    fv = ortho.eval_f(t)

    worst_mirror = 0.0
    for k, target in mirror.items():
        pts = fv[seg == k]
        worst_mirror = max(worst_mirror,
                           float(np.max(row_norm(pts - target))))

    worst_radius = 0.0
    side_ok = True
    for k, center in verts.items():
        pts = fv[seg == k]
        radius = float(np.linalg.norm(center - P))
        worst_radius = max(worst_radius, float(np.max(np.abs(
            row_norm(pts - center) - radius))))
        a, b = endpoints[k]
        chord = b - a

        def cross2(v):
            return chord[0] * v[..., 1] - chord[1] * v[..., 0]

        # arc must lie on the opposite side of the chord from P
        side_P = np.sign(cross2(P - a))
        cross = cross2(pts - a)
        if np.any(cross * side_P > SQUARE_TOL):
            side_ok = False

    pedv = ped.eval_f(t)
    worst_shrink = float(np.max(row_norm(pedv - (fv + P) / 2.0)))

    return {
        "suite": "square-reconstruction",
        "pole": P.tolist(),
        "max_mirror_residual": worst_mirror,
        "max_radius_residual": worst_radius,
        "hemicircle_side_ok": side_ok,
        "max_pedal_shrink_residual": worst_shrink,
        "tol": SQUARE_TOL,
        "passed": (worst_mirror <= SQUARE_TOL and worst_radius <= SQUARE_TOL
                   and side_ok and worst_shrink <= 1e-10),
    }


# Sample count of each suite when the caller gives none.
DEFAULT_SAMPLES = {"frontal-condition": 2048, "thm1": 1024, "prop1": 1024,
                   "thm2": 256, "thm3": 256, "thm4": 256,
                   "square-reconstruction": 4096}
SUITES = tuple(DEFAULT_SAMPLES)
# Suites that test a single pole; they take the first of the given poles.
ONE_POLE = ("thm2", "square-reconstruction")


def run_suite(name: str, F: Frontal | None = None, poles=None,
              n_poles: int = 5, samples: int | None = None) -> dict:
    """Dispatch a named suite.  poles: one per row, or None for n_poles
    sampled NS poles (thm2: one; square-reconstruction: its default)."""
    if name not in DEFAULT_SAMPLES:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    samples = samples or DEFAULT_SAMPLES[name]
    if poles is not None:
        poles = np.atleast_2d(np.asarray(poles, dtype=float))
    if name == "square-reconstruction":
        if poles is None:
            return suite_square_reconstruction(samples=samples)
        return suite_square_reconstruction(poles[0], samples=samples)
    if F is None:
        raise ValueError(f"suite {name!r} needs a frontal")
    if name == "frontal-condition":
        return suite_frontal_condition(F, samples=samples)
    if name == "thm2":
        grid = grid_for(F, samples, interior_margin=1e-3)
        return suite_thm2(F, _poles_for(F, grid, 1, poles)[0],
                          samples=samples)
    # looked up at call time, so a wrapped suite_* is the one that runs
    suite = globals()["suite_" + name]
    return suite(F, samples=samples, n_poles=n_poles, poles=poles)
