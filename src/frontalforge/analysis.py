"""Differential analysis of frontals relative to a pole P, batched over
parameter points.

Each entry point takes a (k, n) array of points, evaluates the order-1 jets
it needs once for all k rows, and returns per-row arrays together with a
per-row mask marking the rows where the statement it checks does not apply:

  * cahn_hoffman     - the vector formula equating the negative-pedal offset
    f~ - g with the inverse-transpose Gauss-map Jacobian applied to the
    gradient of gamma = ||g - P||, next to the direct computation; masked
    (`singular`) where the Gauss map nu~ = (g-P)/gamma is singular.
  * opening_residual - the coefficient identity certifying that the radial
    distance differential lies in the module spanned by the Gauss-map
    differentials (valid even at Gauss-map singularities); NaN where the
    normal coefficient nu2 = nu . nu~ vanishes.
  * is_front_at / front_equivalence - the rank criteria distinguishing fronts
    from mere frontals, and their three-way equivalence; `ambiguous` marks
    rows with a singular value inside the rank-ambiguity band.

No tangent frame enters: the formulas are written in ambient coordinates.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteSampleError
from .frontal import Frontal
from .linalg import (RANK_SCALE_FLOOR, numeric_rank, row_norm,
                     singular_values)
from .transforms import _dot, _grad, anti_orthotomic, negative_pedal

# Unused here; bound because perfbench/tracer.py patches them in this module.
from .frontal import _fd_jacobian, jacobian_f, jacobian_nu  # noqa: F401
cofactor = tangent_frame = None  # perfbench/tracer.py wraps, never calls them

DEFAULT_JNU_TOL = 1e-8
DEFAULT_RANK_TOL = 1e-6
AMBIGUOUS_BAND = (1e-8, 1e-4)


def _rows(x, n: int) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.ndim != 2 or x.shape[1] != n:
        raise ValueError(f"expected parameter points of shape (k, {n}), "
                         f"got {x.shape}")
    return x


def _finite_rows(J, x):
    """J (..., k, a, b) if finite, as an SVD needs; else NonFiniteSampleError
    at the first of the k rows of x with a non-finite matrix."""
    finite = np.isfinite(J).all(axis=(-2, -1)).reshape(-1, len(x)).all(0)
    if not finite.all():
        raise NonFiniteSampleError("non-finite Jacobian at x="
                                   f"{x[np.argmin(finite)].tolist()!r}")
    return J


@dataclass(frozen=True)
class CahnHoffmanReport:
    """Per-row results over k points; `formula` and `residual` are NaN on
    `singular` rows."""

    x: np.ndarray                # (k, n)
    direct: np.ndarray           # (k, m) f~ - g from the negative pedal
    formula: np.ndarray          # (k, m) (J nu~)^+T grad(gamma)
    residual: np.ndarray         # (k,) ||direct - formula||
    det_jnu: np.ndarray          # (k,) |det J nu~|, the product of its sigmas
    jnu_inv_norm: np.ndarray     # (k,) 1 / sigma_min (inf where it is 0)
    gamma: np.ndarray            # (k,) ||g - P||
    grad_gamma: np.ndarray       # (k, n)
    gauss_direction: np.ndarray  # (k, m) nu~ = (g - P) / gamma
    singular: np.ndarray         # (k,) det_jnu <= jnu_tol


def cahn_hoffman(G: Frontal, P, x,
                 jnu_tol: float = DEFAULT_JNU_TOL) -> CahnHoffmanReport:
    """Compare the two computations of the negative-pedal offset f~ - g.

    `direct` comes from the negative pedal applied to G's one order-1 jet
    (it raises PoleOnSilhouetteError unless P is in the NS set of G at
    every row).  `formula` is U S^-1 V^T grad(gamma) from the SVD
    J nu~ = U S V^T of the negative pedal's Gauss-map Jacobian
    J nu~ = (I - nu~ nu~^T) Jg / gamma: the Moore-Penrose solution w of
    J nu~^T w = grad(gamma) with w orthogonal to nu~, i.e. the inverse
    transpose of J nu~ read on the tangent space.
    The same singular values give |det J nu~| and the condition bound.  A
    row whose J nu~ is not finite raises NonFiniteSampleError.
    """
    x = _rows(x, G.param_dim)
    P = np.asarray(P, dtype=float)
    xw = G.domain.wrap(x)
    g, _, Jg, _ = jet = G.eval_wrapped(xw, 1)
    ftilde, nt, _, Jnt = negative_pedal(G, P).apply(xw, *jet)
    gamma = row_norm(g - P)
    grad = _grad(Jg, nt)
    U, sv, Vt = np.linalg.svd(_finite_rows(Jnt, x), full_matrices=False)
    det = np.prod(sv, axis=1)
    singular = det <= jnu_tol
    smin = sv[:, -1]
    inv_norm = np.divide(1.0, smin, out=np.full_like(smin, np.inf),
                         where=smin > 0.0)
    # det > jnu_tol >= 0 on the other rows, so each of their sigmas is > 0
    coeffs = np.einsum("kij,kj->ki", Vt, grad) \
        / np.where(singular[:, None], np.nan, sv)
    formula = np.einsum("kmi,ki->km", U, coeffs)
    direct = ftilde - g
    return CahnHoffmanReport(
        x=x, direct=direct, formula=formula,
        residual=row_norm(direct - formula), det_jnu=det,
        jnu_inv_norm=inv_norm, gamma=gamma, grad_gamma=grad,
        gauss_direction=nt, singular=singular)


def opening_residual(F: Frontal, P, x, nu2_tol: float = 1e-9,
                     jet: tuple | None = None) -> np.ndarray:
    """Max-norm residual per row of the coefficient identity

        gamma sign(nu2) (nu - nu2 nu~)^T J nu~ + |nu2| grad(gamma) = 0,

    NaN where |nu2| <= nu2_tol, the rows where its coefficient is undefined
    (np.isnan of the result is their mask).
    Here nu~ = (f-P)/||f-P|| is the Gauss map of the anti-orthotomic and
    J nu~ its Jacobian, from the anti-orthotomic applied to F's one jet on
    the other rows, nu2 = nu . nu~ the normal coefficient of nu along it,
    nu - nu2 nu~ its tangential part, and gamma = ||f-P|| / 2 (so that
    f - P = 2 gamma nu~).  All gradients are taken in parameter
    coordinates.  A small residual certifies that
    d(gamma) lies in the module generated by the components of d(nu~); the
    identity needs no nonsingularity of the Gauss map.

    nu is oriented so the normal coefficient is nonnegative (either unit
    normal certifies the frontal condition; the identity is orientation
    covariant).  jet, when given, is F's order-1 jet at the wrapped x (see
    Frontal.eval_wrapped), so a caller looping over poles evaluates F once.
    """
    x = _rows(x, F.param_dim)
    P = np.asarray(P, dtype=float)
    xw = F.domain.wrap(x)
    if jet is None:
        jet = F.eval_wrapped(xw, 1)
    keep = ~nu2_degenerate(jet, P, nu2_tol)
    r = row_norm(jet[0] - P)
    _, nv, Jf, _ = jet = [a[keep] for a in jet]
    _, nt, _, Jnt = anti_orthotomic(F, P).apply(xw[keep], *jet)
    nu2 = _dot(nv, nt)
    tangential = np.sign(nu2)[:, None] * (nv - nu2[:, None] * nt)
    gamma = 0.5 * r[keep]
    grad_gamma = 0.5 * _grad(Jf, nt)
    total = gamma[:, None] * _grad(Jnt, tangential) \
        + np.abs(nu2)[:, None] * grad_gamma
    res = np.full(x.shape[0], np.nan)
    res[keep] = np.max(np.abs(total), axis=1)
    return res


def nu2_degenerate(jet: tuple, P, nu2_tol: float) -> np.ndarray:
    """The rows of F's jet where opening_residual's normal coefficient
    nu2 = nu . (f-P) / ||f-P|| has |nu2| <= nu2_tol, a pole on the image
    (f = P) included.  A NaN in f or nu leaves its row out."""
    fv, nv = jet[:2]
    u = fv - np.asarray(P, dtype=float)
    return np.abs(_dot(nv, u)) <= nu2_tol * row_norm(u)


def _stacked(J_top, J_bot):
    """[J_top; J_bot] row by row: (k, m, n) twice -> (k, 2m, n)."""
    return np.concatenate([J_top, J_bot], axis=1)


def is_front_at(F: Frontal, x, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Per row: True iff the pair map (f, nu) is an immersion there, i.e.
    the stacked Jacobian [Jf; Jnu] has full column rank.

    The rank threshold is tol * max(sigma_max, 1), as in numeric_rank.
    """
    x = _rows(x, F.param_dim)
    _, _, Jf, Jn = F.eval(x, 1)
    return numeric_rank(_stacked(Jf, Jn), tol) == F.param_dim


@dataclass(frozen=True)
class FrontReport:
    """Per-row results over k points."""

    x: np.ndarray                    # (k, n)
    rank_f_nu: np.ndarray            # (k,) int
    rank_ftilde_nutilde: np.ndarray  # (k,) int
    rank_f_ftilde: np.ndarray        # (k,) int
    is_front: np.ndarray             # (k,) bool, from criterion (3)
    consistent: np.ndarray           # (k,) all three criteria agree
    ambiguous: np.ndarray            # (k,) a sigma lies in AMBIGUOUS_BAND


def front_equivalence(F: Frontal, P, x, tol: float = DEFAULT_RANK_TOL,
                      jet: tuple | None = None) -> FrontReport:
    """Evaluate the three equivalent front criteria at each row of x:

      (1) (f, nu) is an immersion,
      (2) the anti-orthotomic pair (f~, nu~) is an immersion,
      (3) the paired map (f, f~) is an immersion.

    Each criterion is the full column rank of a stacked (2m, n) Jacobian,
    decided as in is_front_at from one SVD per row and criterion.  The same
    singular values flag as `ambiguous` the rows where any stacked Jacobian
    has one inside the rank-ambiguity band, where rank decisions are
    unreliable.  The anti-orthotomic is applied to F's one order-1 jet:
    `jet` at the wrapped x when given (as in opening_residual), else a
    fresh evaluation.  A row whose stacked Jacobians are not finite raises
    NonFiniteSampleError.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    x = _rows(x, F.param_dim)
    xw = F.domain.wrap(x)
    if jet is None:
        jet = F.eval_wrapped(xw, 1)
    _, _, Jf, Jn = jet
    _, _, Jft, Jnt = anti_orthotomic(F, P).apply(xw, *jet)
    S = np.stack([_stacked(Jf, Jn), _stacked(Jft, Jnt), _stacked(Jf, Jft)])
    sv = singular_values(_finite_rows(S, x))
    ref = np.maximum(sv[..., :1], RANK_SCALE_FLOOR)
    ranks = np.sum(sv > tol * ref, axis=-1)
    full = ranks == F.param_dim
    lo, hi = AMBIGUOUS_BAND
    in_band = (sv > lo * ref) & (sv < hi * ref)
    return FrontReport(x=x, rank_f_nu=ranks[0], rank_ftilde_nutilde=ranks[1],
                       rank_f_ftilde=ranks[2], is_front=full[2],
                       consistent=full.all(axis=0) | ~full.any(axis=0),
                       ambiguous=in_band.any(axis=(0, 2)))
