"""Named verification suites over catalog frontals and sampled poles.

Each suite returns a plain dict (JSON-serializable) with a boolean "passed",
the residuals it measured, and the tolerances it enforced.  The CLI `verify`
subcommand and the acceptance tests both run these.
"""
from __future__ import annotations

import os

import numpy as np

from .analysis import (cahn_hoffman, front_equivalence, nu2_degenerate,
                       opening_residual)
from .catalog import catalog
from .errors import NoPointTestedError, SupportDegenerateError, UsageError
from .frontal import (FRONTAL_TOL, Frontal, ParamDomain, check_frontal,
                      tangency_residuals)
from .linalg import _length, _lengths, row_norm
from .transforms import anti_orthotomic, orthotomic, pedal, sample_poles

# Unused here; bound because perfbench/tracer.py patches it in this module.
from .transforms import negative_pedal  # noqa: F401


def grid_for(F: Frontal, total: int, interior_margin: float = 0.0) -> np.ndarray:
    """Roughly `total` >= 1 samples, split evenly across parameter axes.

    interior_margin > 0 insets non-periodic axes by that fraction of their
    length (GRID_INSET where finite differences need room around each point).
    """
    if not total >= 1:
        raise UsageError(f"need at least 1 sample, got {total!r}")
    n = F.param_dim
    per_axis = max(2, int(round(total ** (1.0 / n))))
    dom = F.domain
    if interior_margin > 0.0 and np.any(~dom.periodic):
        span = dom.hi - dom.lo
        lo = np.where(dom.periodic, dom.lo, dom.lo + interior_margin * span)
        hi = np.where(dom.periodic, dom.hi, dom.hi - interior_margin * span)
        dom = ParamDomain(lo, hi, dom.periodic)
    return dom.grid([per_axis] * n)


N_POLES = 5             # sampled poles of prop1, thm1, thm3 and thm4
GRID_INSET = 1e-3       # inset of the pole suites' and CLI analyses' grid
PROP1_TOL = 1e-8        # prop1 support identity
PROP1_MARGIN = 1e-3     # prop1 tests f != f~ where |(f-P).nu| > PROP1_MARGIN
THM2_TOL = 1e-5         # thm2 residual / (1 + |direct offset|)
THM2_DET_MIN = 1e-3     # thm2 skips |det J nu~| <= THM2_DET_MIN ...
THM2_COND_MAX = 1e3     # ... and ||(J nu~)^-1|| > THM2_COND_MAX
THM3_NU2_MIN = 1e-3     # thm3 skips |nu2| <= THM3_NU2_MIN
SQUARE_TOL = 1e-6       # square-reconstruction mirror, radius and side
SQUARE_POLE = (0.3, -0.2)  # square-reconstruction's pole when given none
SQUARE_MIN_SAMPLES = 8  # one sample on each segment of the square


def _pole_grid(F: Frontal, samples: int, poles, order: int = 1):
    """The wrapped grid of a pole suite, F's jet of that order on it, and
    the poles: the given rows as a (k, m) array, or a count (N_POLES for
    None) of NS poles, which the sampler finds from that jet."""
    grid, jet = F.at(grid_for(F, samples, interior_margin=GRID_INSET), order)
    if poles is None or np.isscalar(poles):  # None or a count
        count = N_POLES if poles is None else poles
        return grid, jet, sample_poles(F, grid, count, values=jet)
    if len(poles) == 0:  # else the suite would report a pass on no pole
        raise UsageError("no pole given: pass rows, a count or None")
    return grid, jet, np.array([F.pole(P) for P in poles])


# Fewest rows a thread of a split suite takes.  Below about this many,
# handing the GIL between threads costs more than a second core saves.
MIN_BLOCK_ROWS = 8192
_helpers = None  # the thread pool of blocks 1, 2, ...; made at first split


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _row_blocks(k: int) -> list:
    """Contiguous slices of range(k) in order: one per usable core, each
    of at least MIN_BLOCK_ROWS rows, or one for all when k is smaller."""
    n = max(1, min(_usable_cores(), k // MIN_BLOCK_ROWS))
    edges = [k * i // n for i in range(n + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _in_blocks(fn, arrays, *args) -> list:
    """fn(*(a[rows] for a in arrays), *args) for each of _row_blocks(k), in
    block order (k: the arrays' row count).  This thread runs block 0 and
    helper threads the others; numpy drops the GIL in its loops, so the
    blocks run side by side.  fn must work row by row, so that a block's
    values are the whole's, and call nothing perfbench/tracer.py patches
    (transform builders, ParamDomain.wrap, catalog evaluators), whose span
    stack is not per thread.  If a block raises, fn runs once more on all
    rows here, so the error is the one-block one, first row included."""
    blocks = _row_blocks(len(arrays[0]))

    def run(rows):
        return fn(*(a[rows] for a in arrays), *args)

    if len(blocks) == 1:
        return [run(blocks[0])]
    global _helpers
    if _helpers is None:
        from concurrent.futures import ThreadPoolExecutor
        _helpers = ThreadPoolExecutor(_usable_cores() - 1)
    futures = [_helpers.submit(run, rows) for rows in blocks[1:]]
    try:
        parts = [run(blocks[0])]
    except Exception:
        parts = None
    errors = [f.exception() for f in futures]  # waits for every block
    if parts is None or any(errors):
        return [run(slice(None))]
    return parts + [f.result() for f in futures]


def suite_frontal_condition(F: Frontal, samples: int) -> dict:
    """The tangency condition df . nu = 0 on a sample grid."""
    grid = grid_for(F, samples)
    rep = check_frontal(F, grid)
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


def _prop1_rows(x, ft, nt, Jf, Jn, P, ortho):
    """prop1's per-row checks of one pole on rows x, F's jet there and
    ortho, its orthotomic's apply: the maxima of the frontal and identity
    residuals, and the least separation ||f~-f|| where |(f-P).nu| >
    PROP1_MARGIN, with whether any row has that margin."""
    fv, nv, Jfv, _ = ortho(x, ft, nt, Jf, Jn, gauss_jacobian=False)
    frontal = tangency_residuals(Jfv, nv).max()
    del Jfv  # it serves the frontal check alone
    d_tilde = np.einsum("km,km->k", ft - P, nt)
    sep = row_norm(fv - ft)
    lhs = sep * np.einsum("km,km->k", fv - P, nv)
    identity = np.max(np.abs(lhs - 2.0 * d_tilde**2))
    kept = np.abs(d_tilde) > PROP1_MARGIN
    return frontal, identity, np.min(sep[kept], initial=np.inf), kept.any()


def suite_prop1(F: Frontal, samples: int, poles=None) -> dict:
    """Orthotomic outputs: frontal condition with the induced Gauss map,
    the support identity ||f-f~|| ((f-P).nu) = 2 ((f~-P).nu~)^2, and
    f(x) != f~(x) wherever the hypothesis margin exceeds PROP1_MARGIN (a
    pole with no such point raises SupportDegenerateError).  F is
    evaluated once, at order 1; each orthotomic is applied to that jet,
    without the Gauss-map Jacobian the checks never read, on row blocks
    in parallel (see _in_blocks).  Each value is one np.max or np.min
    over every pole and block, so a NaN anywhere is reported and fails."""
    grid, jet, poles = _pole_grid(F, samples, poles)
    parts = []
    for P in poles:
        blocks = _in_blocks(_prop1_rows, (grid, *jet), P,
                            orthotomic(F, P).apply)
        if not any(kept for *_, kept in blocks):
            raise SupportDegenerateError(
                f"pole {P.tolist()}: no grid point has |(f-P).nu| > "
                f"{PROP1_MARGIN}, where prop1 tests f != f~")
        parts += blocks
    frontal, identity, separation, _ = zip(*parts)
    worst_frontal = float(np.max(frontal))
    worst_identity = float(np.max(identity))
    min_separation = float(np.min(separation))
    return {
        "suite": "prop1",
        "frontal": F.name,
        "poles": poles.tolist(),
        "max_identity_residual": worst_identity,
        "max_frontal_residual": worst_frontal,
        "min_separation": min_separation,
        "tol": PROP1_TOL,
        "passed": (worst_identity <= PROP1_TOL
                   and min_separation > PROP1_MARGIN
                   and worst_frontal <= FRONTAL_TOL),
    }


def _thm1_rows(x, fv, nv, Jf, Jn, P, anti, ortho):
    """thm1's per-row checks of one pole on rows x and F's jet there, with
    the applies of the anti-orthotomic and the orthotomic: the maxima of
    the frontal, support, equidistance and round-trip residuals.  An apply
    reads only its kind, P and the values it is given, so ortho on anti's
    values is the orthotomic of the anti-orthotomic, and vice versa."""
    ftv, ntv, Jft, _ = anti(x, fv, nv, Jf, Jn, gauss_jacobian=False)
    frontal = tangency_residuals(Jft, ntv).max()
    del Jft  # it serves the frontal check alone
    r = row_norm(fv - P)
    supp = np.einsum("km,km->k", ftv - P, ntv)
    support = np.max(np.abs(supp - r / 2.0))
    equidistance = np.max(np.abs(row_norm(ftv - P) - row_norm(ftv - fv)))
    # orthotomic of the anti-orthotomic restores F ...
    trip1 = np.max(row_norm(ortho(x, ftv, ntv)[0] - fv))
    # ... and anti-orthotomic of the orthotomic restores F
    trip2 = np.max(row_norm(anti(x, *ortho(x, fv, nv))[0] - fv))
    return frontal, support, equidistance, np.maximum(trip1, trip2)


def suite_thm1(F: Frontal, samples: int, poles=None) -> dict:
    """Anti-orthotomic identities: induced-normal tangency, the support
    value (f~-P).nu~ = ||f-P||/2, the equidistance ||f~-P|| = ||f~-f||, and
    both round trips with the orthotomic.  F is evaluated once, at order
    1; the two transforms of each pole are applied to that jet (without
    the Gauss-map Jacobian the checks never read) and to the values they
    give, on row blocks in parallel (see _in_blocks).  Each residual is
    one np.max over every pole and block, so a NaN anywhere is reported
    and fails."""
    grid, jet, poles = _pole_grid(F, samples, poles)
    parts = []
    for P in poles:
        parts += _in_blocks(_thm1_rows, (grid, *jet), P,
                            anti_orthotomic(F, P).apply,
                            orthotomic(F, P).apply)
    # in the order of _thm1_rows' values
    tols = {"frontal": FRONTAL_TOL, "support": 1e-8, "equidistance": 1e-9,
            "roundtrip": 1e-8}
    worst = {key: float(np.max(v)) for key, v in zip(tols, zip(*parts))}
    return {
        "suite": "thm1",
        "frontal": F.name,
        "poles": poles.tolist(),
        "max_residuals": worst,
        "tols": tols,
        "passed": all(worst[k] <= tols[k] for k in worst),
    }


def _tested(suite: str, tested: int, skipped: dict) -> int:
    """tested, or for 0 a NoPointTestedError giving the skip counts."""
    if tested == 0:
        raise NoPointTestedError(f"suite {suite} tested no point: {skipped}")
    return tested


def suite_thm2(F: Frontal, samples: int, poles=None) -> dict:
    """The vector formula f~ - f = ((J nu~)^-1)^t grad(gamma) (+ nothing
    along nu~) against the direct negative-pedal computation, plus the
    singular-gamma corollary in both directions, at one pole.  Points
    skipped by THM2_DET_MIN or THM2_COND_MAX are counted.  F's one order-1
    jet on the grid feeds the pole sampler and cahn_hoffman."""
    grid, jet, poles = _pole_grid(F, samples, 1 if poles is None else poles)
    rep = cahn_hoffman(F, poles[0], grid, jnu_tol=THM2_DET_MIN, jet=jet)
    capped = ~rep.singular & (rep.jnu_inv_norm > THM2_COND_MAX)
    ok = ~rep.singular & ~capped
    dn = row_norm(rep.direct[ok])
    gn = _lengths(rep.grad_gamma[ok])
    worst = float(np.max(rep.residual[ok] / (1.0 + dn), initial=0.0))
    worst_ortho = float(np.max(np.abs(np.einsum(
        "km,km->k", rep.formula[ok], rep.gauss_direction[ok])), initial=0.0))
    corollary_ok = not np.any(((gn <= 1e-7) & (dn > 1e-4))
                              | ((dn <= 1e-7) & (gn > 1e-4)))
    skipped = {"singular_gauss_map": int(rep.singular.sum()),
               "condition_cap": int(capped.sum())}
    return {
        "suite": "thm2",
        "frontal": F.name,
        "pole": poles[0].tolist(),
        "points_tested": _tested("thm2", int(ok.sum()), skipped),
        "points_skipped": skipped,
        "max_residual": worst,
        "max_normal_component": worst_ortho,
        "corollary_ok": corollary_ok,
        "tol": THM2_TOL,
        "passed": worst <= THM2_TOL and corollary_ok and worst_ortho <= 1e-9,
    }


def suite_thm3(F: Frontal, samples: int, poles=None) -> dict:
    """The opening identity: the weighted sum of Gauss-component gradients
    cancels the gradient of the half-distance, wherever the normal
    coefficient is bounded away from zero (points where |nu2| <=
    THM3_NU2_MIN are skipped and counted; a NaN residual elsewhere reaches
    the report and fails it).  One order-1 evaluation of F on the grid
    feeds the pole sampler, gamma and every pole's residual."""
    grid, jet, poles = _pole_grid(F, samples, poles)
    worst = [0.0]
    tested = 0
    for P in poles:
        kept = ~nu2_degenerate(jet, P, THM3_NU2_MIN)
        gamma = row_norm(jet[0][kept] - P) / 2.0
        scaled = opening_residual(F, P, grid, nu2_tol=THM3_NU2_MIN,
                                  jet=jet)[kept] / (1.0 + gamma)
        tested += scaled.size
        worst.append(np.max(scaled, initial=0.0))
    worst = float(np.max(worst))  # one np.max, so that a NaN stays
    skipped = {"degenerate_nu2": len(poles) * len(grid) - tested}
    return {
        "suite": "thm3",
        "frontal": F.name,
        "poles": poles.tolist(),
        "points_tested": _tested("thm3", tested, skipped),
        "points_skipped": skipped,
        "max_scaled_residual": worst,
        "tol": 1e-6,
        "passed": worst <= 1e-6,
    }


def suite_thm4(F: Frontal, samples: int, poles=None) -> dict:
    """Three-way agreement of the front criteria outside the rank-ambiguity
    band.  One order-1 evaluation of F on the grid feeds the pole sampler
    and every pole's criteria."""
    grid, jet, poles = _pole_grid(F, samples, poles)
    tested = 0
    excluded = 0
    inconsistent = 0
    for P in poles:
        rep = front_equivalence(F, P, grid, jet=jet)
        decided = ~rep.ambiguous
        excluded += int(rep.ambiguous.sum())
        tested += int(decided.sum())
        inconsistent += int((decided & ~rep.consistent).sum())
    return {
        "suite": "thm4",
        "frontal": F.name,
        "poles": poles.tolist(),
        "points_tested": _tested("thm4", tested,
                                 {"rank_ambiguous": excluded}),
        "points_excluded": excluded,
        "inconsistent": inconsistent,
        "passed": inconsistent == 0,
    }


def suite_square_reconstruction(F: Frontal, samples: int,
                                poles=None) -> dict:
    """The square F's orthotomic: four mirror points and four vertex arcs
    with the predicted radii on the side away from P; the pedal as the 50%
    shrink toward P.  One order-0 evaluation of F feeds all of them."""
    if samples < SQUARE_MIN_SAMPLES:
        raise UsageError(f"square-reconstruction needs at least "
                         f"{SQUARE_MIN_SAMPLES} samples; got {samples}")
    grid, values, poles = _pole_grid(
        F, samples, [SQUARE_POLE] if poles is None else poles, order=0)
    P = poles[0]
    p1, p2 = P
    # mirror[i]: P mirrored in the side of segment 2i + 1; verts[i]: the
    # vertex of segment 2i
    mirror = [np.array(m) for m in ((2.0 - p1, p2), (p1, 2.0 - p2),
                                     (-2.0 - p1, p2), (p1, -2.0 - p2))]
    verts = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0]])
    seg = np.floor(grid[:, 0]).astype(int) % 8
    fv = orthotomic(F, P).image(grid, *values)

    worst_mirror = worst_radius = 0.0
    side_ok = True
    for i, center in enumerate(verts):
        worst_mirror = max(worst_mirror, float(np.max(row_norm(
            fv[seg == 2 * i + 1] - mirror[i]))))
        pts = fv[seg == 2 * i]
        radius = _length(center - P)
        worst_radius = max(worst_radius, float(np.max(np.abs(
            row_norm(pts - center) - radius))))
        # the arc joins the adjacent mirror points a, b, on the side of
        # their chord away from P
        a, b = mirror[i - 1], mirror[i]
        chord, v = b - a, np.vstack([P, pts]) - a
        cross = chord[0] * v[:, 1] - chord[1] * v[:, 0]
        side_ok = side_ok and not np.any(
            cross[1:] * np.sign(cross[0]) > SQUARE_TOL)

    pedv = pedal(F, P).image(grid, *values)
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
# Suites that test a single pole.
ONE_POLE = ("thm2", "square-reconstruction")


def run_suite(name: str, F: Frontal | None = None, poles=None,
              samples: int | None = None) -> dict:
    """Dispatch a named suite (square-reconstruction: on the square alone,
    built here when F is None).
    poles: one per row (one for ONE_POLE, None for frontal-condition), a
    count k >= 1 of NS poles to sample (the CLI's --poles auto:k), or None
    for N_POLES (thm2: one; square-reconstruction: SQUARE_POLE).  Each given
    row is checked by F.pole, then the pole rules, all before any pole is
    drawn.  samples: >= 1, or None for DEFAULT_SAMPLES[name]."""
    if name not in DEFAULT_SAMPLES:
        raise UsageError(f"unknown suite {name!r}; known: {', '.join(SUITES)}")
    samples = DEFAULT_SAMPLES[name] if samples is None else samples
    if name == "square-reconstruction" and F is None:
        F = catalog("square")
    if F is None:
        raise UsageError(f"suite {name!r} needs a frontal")
    if name == "square-reconstruction" and F.name != "square":
        raise UsageError("suite square-reconstruction runs on the square "
                         f"only, not on {F.name!r}")
    if not (poles is None or np.isscalar(poles)):  # rows
        poles = np.array([F.pole(P) for P in poles])
    if poles is not None and name == "frontal-condition":
        raise UsageError(f"suite {name} takes no pole")
    count = len(poles) if np.ndim(poles) else 1 if poles is None else poles
    if name in ONE_POLE and count > 1:
        raise UsageError(f"suite {name} takes one pole")
    # looked up at call time, so a wrapped suite_* is the one that runs
    suite = globals()["suite_" + name.replace("-", "_")]
    if name == "frontal-condition":
        return suite(F, samples=samples)
    return suite(F, samples=samples, poles=poles)
