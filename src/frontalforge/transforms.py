"""The four frontal transforms relative to a pole P, as one family.

All four are built from the support value d = (f-P).nu of the source
frontal (f, nu).  The forward kinds send P to lambda times its foot on each
tangent hyperplane, f' = lambda d nu + P: the orthotomic (lambda = 2) and the
pedal (lambda = 1).  Their Gauss map is nu' = (o-f)/||o-f|| with o = 2 d nu + P
the orthotomic; it needs d != 0 (else GaussDegenerateError).  The inverse
kinds, the anti-orthotomic (lambda = 2, b = f) and the negative pedal
(lambda = 1, b = 2f - P), are the unique inverses of those two maps:

  f' = b - ||f-P||^2 / (lambda d) nu,   nu' = (f-P)/||f-P||,

which need P in the no-silhouette set of the source (else
PoleOnSilhouetteError).  Each result is a jet on the source's domain.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._kernels import support_offsets, support_samples, support_values
from .errors import (EmptyNSSetError, GaussDegenerateError,
                     PoleOnSilhouetteError, UsageError)
from .frontal import Frontal
from .linalg import row_norm

DEFAULT_DEGENERACY_TOL = 1e-9
POLE_SAMPLER_SEED = 0xF20F7A1
POLE_MAX_TRIES = 20000  # candidates sample_poles draws before giving up
POLE_MARGIN_FRAC = 1e-3  # sampled poles' support margin / image scale
POLE_SCREEN_ROWS = 256  # grid rows that screen each candidate pole
# apply and image never warn: a non-finite value is reported where checked
_quiet = np.errstate(divide="ignore", over="ignore", invalid="ignore")


class TransformKind(enum.Enum):
    ORTHOTOMIC = "orthotomic"
    PEDAL = "pedal"
    ANTI_ORTHOTOMIC = "anti-orthotomic"
    NEGATIVE_PEDAL = "negative-pedal"


@dataclass(frozen=True)
class TransformResult:
    """A transformed frontal `result`, whose jet (f = nu = None) is apply on
    one source evaluation.  apply(x, f, nu[, Jf, Jnu]) runs the arithmetic
    on a source jet already evaluated at the wrapped points x, so a caller
    holding that jet need not evaluate the source again.  At order 1,
    apply(..., gauss_jacobian=False) returns None for Jnu' and skips its
    arithmetic; the other three outputs keep their bits.  image(x, f, nu)
    is the image alone, which a forward kind has even where its Gauss map
    degenerates (d = 0) and result.eval raises."""

    result: Frontal
    apply: Callable[..., tuple]
    image: Callable[..., np.ndarray]


# kind -> (lambda, inverse?)
_FAMILY = {
    TransformKind.ORTHOTOMIC: (2.0, False),
    TransformKind.PEDAL: (1.0, False),
    TransformKind.ANTI_ORTHOTOMIC: (2.0, True),
    TransformKind.NEGATIVE_PEDAL: (1.0, True),
}


def _raise_at_first(bad, x, d, error):
    if np.any(bad):
        i = int(np.argmax(bad))
        raise error(x[i], float(d[i]))


def _dot(a, b):
    return np.einsum("km,km->k", a, b)


def _grad(J, v):
    """v^T J row by row: (k, m, n), (k, m) -> (k, n)."""
    return np.einsum("kmj,km->kj", J, v)


def _outer(v, g):
    """v (x) g row by row: (k, m), (k, n) -> (k, m, n)."""
    return v[:, :, None] * g[:, None, :]


def _unit_jacobian(e, Jw, norm):
    """Jacobian of w/||w|| from Jw = J(w), e = w/||w|| and norm = ||w||:
    (I - e e^T) Jw / ||w||."""
    out = _outer(e, -_grad(Jw, e))
    out += Jw
    out /= norm[:, None, None]
    return out


def transform(kind: TransformKind, F: Frontal, P,
              degeneracy_tol: float = DEFAULT_DEGENERACY_TOL
              ) -> TransformResult:
    """The `kind` transform of F relative to P (see the module docstring).

    The result shares F's domain.  Its jet evaluates F's jet once, at the
    same order, on points that the result's own eval has already wrapped,
    and hands it to `apply` (see TransformResult), which carries first
    derivatives through by the chain rule:

      inverse kinds, u = f-P, c = ||u||^2/(lambda d):
        Jf' = (2/lambda) Jf - nu (x) grad c - c Jnu,
        grad c = (2 Jf^T u - ||u||^2 grad d / d) / (lambda d),
        Jnu' = (I - nu' nu'^T) Jf / ||u||;
      forward kinds, w = 2 d nu + P - f:
        Jf' = lambda (nu (x) grad d + d Jnu),
        Jnu' = (I - nu' nu'^T) (2 (nu (x) grad d + d Jnu) - Jf) / ||w||;

    with grad d = Jf^T nu + Jnu^T u.
    """
    lam, inverse = _FAMILY[kind]
    P = F.pole(P)

    if inverse:
        @_quiet
        def apply(x, fv, nv, *J, gauss_jacobian=True):
            u = fv - P
            d = _dot(u, nv)
            r2 = _dot(u, u)
            r = row_norm(u)
            bad = np.abs(d) <= degeneracy_tol * np.maximum(r, 1e-300)
            _raise_at_first(bad, x, d, PoleOnSilhouetteError)
            c = r2 / (lam * d)
            # a branch: (2/lam) f - (2/lam - 1) P can flip the sign of a zero
            base = fv if lam == 2.0 else 2.0 * fv - P
            ft = base - c[:, None] * nv
            nt = u / r[:, None]
            if not J:
                return ft, nt
            Jf, Jn = J
            grad_d = _grad(Jf, nv) + _grad(Jn, u)
            grad_c = (2.0 * _grad(Jf, u) - r2[:, None] * grad_d / d[:, None]) \
                / (lam * d)[:, None]
            Jft = (2.0 / lam) * Jf
            Jft -= _outer(nv, grad_c)
            Jft -= c[:, None, None] * Jn
            Jnt = _unit_jacobian(nt, Jf, r) if gauss_jacobian else None
            return ft, nt, Jft, Jnt

        def image(x, fv, nv):
            return apply(x, fv, nv)[0]
    else:
        def foot(d, nv):  # lambda times the foot of P on each tangent plane
            return lam * d[:, None] * nv + P

        @_quiet
        def apply(x, fv, nv, *J, gauss_jacobian=True):
            u = fv - P
            d = _dot(u, nv)
            _raise_at_first(np.abs(d) <= degeneracy_tol, x, d,
                            GaussDegenerateError)
            o = 2.0 * d[:, None] * nv + P  # the orthotomic
            nt = o - fv
            norm = row_norm(nt)
            nt /= norm[:, None]
            ft = o if lam == 2.0 else foot(d, nv)
            if not J:
                return ft, nt
            Jf, Jn = J
            grad_d = _grad(Jf, nv) + _grad(Jn, u)
            Jfoot = _outer(nv, grad_d)  # J(d nu)
            Jfoot += d[:, None, None] * Jn
            Jnt = None
            if gauss_jacobian:
                Jw = 2.0 * Jfoot
                Jw -= Jf
                Jnt = _unit_jacobian(nt, Jw, norm)
            Jfoot *= lam
            return ft, nt, Jfoot, Jnt

        @_quiet
        def image(x, fv, nv):
            # the image exists where the Gauss map degenerates (d = 0)
            return foot(_dot(fv - P, nv), nv)

    def jet(x, order=0):
        return apply(x, *F.eval_wrapped(x, order))

    out = Frontal(domain=F.domain, f=None, nu=None, ambient_dim=F.ambient_dim,
                  jet=jet, name=f"{kind.value}({F.name or 'frontal'})")
    return TransformResult(result=out, apply=apply, image=image)


def orthotomic(F: Frontal, P) -> TransformResult:
    """Mirror images of P in the tangent hyperplanes of F."""
    return transform(TransformKind.ORTHOTOMIC, F, P)


def pedal(F: Frontal, P) -> TransformResult:
    """Feet of the perpendiculars from P to the tangent hyperplanes of F."""
    return transform(TransformKind.PEDAL, F, P)


def anti_orthotomic(F: Frontal, P) -> TransformResult:
    """The unique frontal whose orthotomic relative to P is F."""
    return transform(TransformKind.ANTI_ORTHOTOMIC, F, P)


def negative_pedal(G: Frontal, P) -> TransformResult:
    """The unique frontal whose pedal relative to P is G."""
    return transform(TransformKind.NEGATIVE_PEDAL, G, P)


def _screen_stride(rows: int) -> int:
    """Stride of the about POLE_SCREEN_ROWS rows that screen pole
    candidates.  The +1 keeps it off a multiple of a grid axis length: at
    stride 256 the sphere's 256 x 256 grid is screened on one meridian,
    which passes 180 of its 239 candidates on to the full check (15 at
    stride 257)."""
    return rows // POLE_SCREEN_ROWS + 1


def sample_poles(F: Frontal, grid: np.ndarray, count: int,
                 values=None) -> np.ndarray:
    """Rejection-sample `count` poles inside the no-silhouette set of F.

    Candidates are drawn uniformly from the image bounding box inflated by
    half its diagonal d; one is accepted iff its `_kernels.support_values`
    keep one sign over the grid with margin exceeding POLE_MARGIN_FRAC *
    max(d, 1).  Mixed signs mean a silhouette zero lies between samples, so
    such poles are rejected even when the sampled margin is large.  Fewer
    than `count` poles accepted in POLE_MAX_TRIES candidates, drawn from a
    generator seeded with POLE_SAMPLER_SEED, raise EmptyNSSetError, as does
    a box too large to draw from; a non-finite f or nu raises
    NonFiniteSampleError.  values, when given, is (f, nu) of F on the grid,
    which is not evaluated again.

    Each candidate is first screened on about POLE_SCREEN_ROWS grid rows
    (see _screen_stride).  A subset's min is >= the full min and its max
    <= the full max, so a candidate the screen rejects fails the full check
    too; the full check runs only on the rest, and every accepted pole is
    the one the unscreened loop would accept.  A count that is not an
    integer >= 1 (a bool included) is a UsageError.
    """
    if (isinstance(count, bool) or not isinstance(count, (int, np.integer))
            or count < 1):
        raise UsageError(f"need an integer pole count of at least 1, "
                         f"got {count!r}")
    _, fv, nv, lo, hi, diag, margin = support_samples(F, grid,
                                                      POLE_MARGIN_FRAC, values)
    with np.errstate(over="ignore", invalid="ignore"):
        pad = 0.5 * diag + 0.5  # keep the box non-degenerate for point images
        lo, hi = lo - pad, hi + pad
        finite = np.isfinite(hi - lo).all()
    if not finite:
        raise EmptyNSSetError(
            f"pole sampler box has no finite width (image bounding-box "
            f"diagonal {diag!r}): the image is too large or not finite")
    rng = np.random.default_rng(POLE_SAMPLER_SEED)
    a, nu_cols = support_offsets(fv, nv), np.ascontiguousarray(nv.T)
    stride = _screen_stride(len(a))
    a_screen, nu_screen = a[::stride].copy(), nu_cols[:, ::stride].copy()
    poles = []
    for _ in range(POLE_MAX_TRIES):
        P = rng.uniform(lo, hi)
        d = support_values(a_screen, nu_screen, P)
        if d.min() <= margin and d.max() >= -margin:
            continue
        d = support_values(a, nu_cols, P)
        if d.min() > margin or d.max() < -margin:
            poles.append(P)
            if len(poles) == count:
                return np.array(poles)
    raise EmptyNSSetError(
        f"pole sampler found only {len(poles)}/{count} valid poles "
        f"in {POLE_MAX_TRIES} tries")
