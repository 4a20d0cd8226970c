"""Differential analysis of frontals relative to a pole P.

Contents:
  * gamma_gradient  - radial support function gamma(x) = ||g(x)-P|| and its
    parameter-coordinate gradient (chain rule or finite differences).
  * nu_split        - splitting of nu(x) into tangential/normal parts with
    respect to an induced Gauss direction.
  * cahn_hoffman    - the vector formula equating the negative-pedal offset
    f~(x) - g(x) with the inverse-transpose Gauss-Jacobian applied to the
    gradient of gamma, checked against the direct computation.
  * opening_residual - the coefficient identity certifying that the radial
    distance differential lies in the module spanned by the Gauss-map
    component differentials (valid even at Gauss-map singularities).
  * is_front_at / front_equivalence - the rank criteria distinguishing fronts
    from mere frontals, and their three-way equivalence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateNu2Error, PoleAtImageError,
                     SingularGaussMapError)
from .frontal import Frontal, _fd_jacobian, jacobian_f, jacobian_nu
from .linalg import TangentFrame, cofactor, numeric_rank, singular_values, tangent_frame
from .transforms import anti_orthotomic, negative_pedal

DEFAULT_JNU_TOL = 1e-8
RANK_SCALE_FLOOR = 1.0
AMBIGUOUS_BAND = (1e-8, 1e-4)


def _point(x, n):
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape != (1, n):
        raise ValueError(f"expected a single parameter point of dim {n}")
    return x


def gamma_gradient(G: Frontal, P, x, mode: str = "chain"):
    """gamma(x) = ||g(x)-P|| and its gradient in parameter coordinates.

    mode="chain" uses the Jacobian of g (analytic when available);
    mode="fd" central-differences gamma directly.  The two agree to the
    finite-difference tolerance and serve as mutual cross-checks.
    """
    x = _point(x, G.param_dim)
    P = np.asarray(P, dtype=float)
    diff = (G.eval_f(x) - P)[0]
    gamma = float(np.linalg.norm(diff))
    if gamma <= 1e-12:
        raise PoleAtImageError(f"pole coincides with image point at x={x[0]!r}")
    if mode == "chain":
        J = jacobian_f(G, x)[0]  # (m, n)
        grad = J.T @ diff / gamma
    elif mode == "fd":
        def gfun(t):
            return np.linalg.norm(G.eval_f(t) - P, axis=1)[:, None]

        grad = _fd_jacobian(gfun, G.domain, x, G.fd_step)[0, 0, :]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return gamma, grad


@dataclass(frozen=True)
class NuSplit:
    """nu(x) = frame.basis @ nu1 + nu2 * frame.base."""

    frame: TangentFrame
    nu1: np.ndarray
    nu2: float

    def reassemble(self) -> np.ndarray:
        return self.frame.to_ambient(self.nu1) + self.nu2 * self.frame.base


def nu_split(F: Frontal, x, nu_tilde_x) -> NuSplit:
    """Split nu(x) into components tangent/normal to the direction
    nu_tilde_x on the sphere."""
    x = _point(x, F.param_dim)
    frame = tangent_frame(nu_tilde_x)
    nv = F.eval_nu(x)[0]
    return NuSplit(frame=frame, nu1=frame.project(nv),
                   nu2=float(nv @ frame.base))


@dataclass(frozen=True)
class CahnHoffmanReport:
    x: np.ndarray
    direct: np.ndarray
    formula: np.ndarray
    residual: float
    det_jnu: float
    jnu_inv_norm: float
    gamma: float
    grad_gamma: np.ndarray
    gauss_direction: np.ndarray


def _gauss_direction_map(G: Frontal, P):
    P = np.asarray(P, dtype=float)

    def nutilde(t):
        diff = G.eval_f(t) - P
        return diff / np.linalg.norm(diff, axis=1)[:, None]

    return nutilde


def induced_gauss_jacobian(G: Frontal, P, x) -> np.ndarray:
    """Ambient Jacobian (m, n) of x -> (g(x)-P)/||g(x)-P|| by central
    differences."""
    x = _point(x, G.param_dim)
    return _fd_jacobian(_gauss_direction_map(G, P), G.domain, x, G.fd_step)[0]


def cahn_hoffman(G: Frontal, P, x,
                 jnu_tol: float = DEFAULT_JNU_TOL) -> CahnHoffmanReport:
    """Compare the two computations of the negative-pedal offset f~ - g.

    `direct` comes from the negative-pedal formula.  `formula` is
    frame_basis @ (C @ grad_gamma) / det(A) where A is the Gauss-map Jacobian
    expressed between parameter coordinates and the tangent frame at the
    Gauss direction, and C its cofactor matrix (so C/det = inverse
    transpose).  By construction `formula` has zero component along the
    Gauss direction.
    """
    x = _point(x, G.param_dim)
    P = np.asarray(P, dtype=float)
    n = G.param_dim

    gamma, grad = gamma_gradient(G, P, x)
    nt = (G.eval_f(x)[0] - P) / gamma
    frame = tangent_frame(nt / np.linalg.norm(nt))
    J_amb = induced_gauss_jacobian(G, P, x)  # (m, n)
    A = frame.basis.T @ J_amb  # (n, n)
    det = float(np.linalg.det(A))
    if abs(det) <= jnu_tol:
        raise SingularGaussMapError(x[0], det)
    coeffs = cofactor(A) @ grad / det  # ((A)^-1)^t grad
    formula = frame.to_ambient(coeffs)
    sv = singular_values(A)
    inv_norm = float(1.0 / sv[-1]) if sv[-1] > 0.0 else np.inf

    ftilde = negative_pedal(G, P).result
    direct = ftilde.eval_f(x)[0] - G.eval_f(x)[0]
    return CahnHoffmanReport(x=x[0], direct=direct, formula=formula,
                             residual=float(np.linalg.norm(direct - formula)),
                             det_jnu=det, jnu_inv_norm=inv_norm, gamma=gamma,
                             grad_gamma=grad, gauss_direction=nt)


def opening_residual(F: Frontal, P, x,
                     nu2_tol: float = 1e-9) -> float:
    """Max-norm residual of the coefficient identity

        sum_i nu1_i(x) * gamma(x) * grad(nt_i)(x) + |nu2(x)| * grad(gamma)(x)

    where nt = (f-P)/||f-P|| is the Gauss direction of the anti-orthotomic,
    nt_i its components in the tangent frame at nt(x), and
    gamma(x) = ||f(x)-P|| / 2 (so that f - P = 2 gamma nt).  All gradients
    are taken in parameter coordinates.  A small residual certifies that
    d(gamma) lies in the module generated by the d(nt_i); the identity needs
    no nonsingularity of the Gauss map.

    nu is oriented so the normal coefficient nu2 is nonnegative (either unit
    normal certifies the frontal condition; the identity is orientation
    covariant).
    """
    x = _point(x, F.param_dim)
    P = np.asarray(P, dtype=float)

    fv = F.eval_f(x)[0]
    r = float(np.linalg.norm(fv - P))
    if r <= 1e-12:
        raise PoleAtImageError(f"pole coincides with image point at x={x[0]!r}")
    gamma = r / 2.0
    nt = (fv - P) / r
    split = nu_split(F, x, nt)
    nu2 = split.nu2
    if abs(nu2) <= nu2_tol:
        raise DegenerateNu2Error(
            f"normal component of nu vanishes at x={x[0]!r}: {nu2:.3e}")
    sign = 1.0 if nu2 >= 0.0 else -1.0
    nu1 = sign * split.nu1

    # gradients of the tangent-frame components of nt (frame frozen at x)
    nutilde = _gauss_direction_map(F, P)
    basis = split.frame.basis

    def comps(t):
        return nutilde(t) @ basis

    grad_nt = _fd_jacobian(comps, F.domain, x, F.fd_step)[0]  # (n_comp, n)

    def gfun(t):
        return 0.5 * np.linalg.norm(F.eval_f(t) - P, axis=1)[:, None]

    grad_gamma = _fd_jacobian(gfun, F.domain, x, F.fd_step)[0, 0, :]

    total = gamma * (nu1 @ grad_nt) + abs(nu2) * grad_gamma
    return float(np.max(np.abs(total)))


def _stacked_rank(J_top, J_bot, tol):
    S = np.vstack([J_top, J_bot])
    return numeric_rank(S, tol=tol, scale_floor=RANK_SCALE_FLOOR), S


def is_front_at(F: Frontal, x, tol: float = 1e-6) -> bool:
    """True iff the pair map (f, nu) is an immersion at x: the stacked
    Jacobian [Jf; Jnu] has full column rank.

    The rank threshold is tol * max(sigma_max, 1): a floor at unit scale
    keeps finite-difference noise on totally degenerate points from reading
    as rank.
    """
    x = _point(x, F.param_dim)
    Jf = jacobian_f(F, x)[0]
    Jn = jacobian_nu(F, x)[0]
    rank, _ = _stacked_rank(Jf, Jn, tol)
    return rank == F.param_dim


@dataclass(frozen=True)
class FrontReport:
    x: np.ndarray
    rank_f_nu: int
    rank_ftilde_nutilde: int
    rank_f_ftilde: int
    is_front: bool
    consistent: bool
    ambiguous: bool


def _band_ambiguous(S, lo=AMBIGUOUS_BAND[0], hi=AMBIGUOUS_BAND[1]):
    sv = singular_values(S)
    ref = max(float(sv[0]) if sv.size else 0.0, RANK_SCALE_FLOOR)
    return bool(np.any((sv > lo * ref) & (sv < hi * ref)))


def front_equivalence(F: Frontal, P, x, tol: float = 1e-6) -> FrontReport:
    """Evaluate the three equivalent front criteria at x:

      (1) (f, nu) is an immersion,
      (2) the anti-orthotomic pair (f~, nu~) is an immersion,
      (3) the paired map (f, f~) is an immersion.

    is_front is taken from criterion (3); `consistent` records whether all
    three agree; `ambiguous` flags points where any stacked Jacobian has a
    singular value inside the rank-ambiguity band, where rank decisions are
    unreliable.  All four Jacobians come from order-1 jets (Frontal.eval).
    """
    x = _point(x, F.param_dim)
    n = F.param_dim
    anti = anti_orthotomic(F, P).result

    _, _, Jf, Jn = (a[0] for a in F.eval(x, 1))
    _, _, Jft, Jnt = (a[0] for a in anti.eval(x, 1))

    r1, S1 = _stacked_rank(Jf, Jn, tol)
    r2, S2 = _stacked_rank(Jft, Jnt, tol)
    r3, S3 = _stacked_rank(Jf, Jft, tol)
    flags = [r1 == n, r2 == n, r3 == n]
    return FrontReport(x=x[0], rank_f_nu=r1, rank_ftilde_nutilde=r2,
                       rank_f_ftilde=r3, is_front=flags[2],
                       consistent=len(set(flags)) == 1,
                       ambiguous=any(_band_ambiguous(S) for S in (S1, S2, S3)))
