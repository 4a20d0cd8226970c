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
PoleOnSilhouetteError).  Each result is a lazy Frontal on the source's domain.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import GaussDegenerateError, PoleOnSilhouetteError
from .frontal import Frontal

DEFAULT_DEGENERACY_TOL = 1e-9
POLE_SAMPLER_SEED = 0xF20F7A1
# Composed transform maps pick up ~1/d^2 derivative growth near small
# support margins; a smaller central-difference step keeps truncation error
# below the verification tolerances without hitting roundoff.
TRANSFORM_FD_STEP = 1e-7


class TransformKind(enum.Enum):
    ORTHOTOMIC = "orthotomic"
    PEDAL = "pedal"
    ANTI_ORTHOTOMIC = "anti-orthotomic"
    NEGATIVE_PEDAL = "negative-pedal"


@dataclass(frozen=True)
class TransformResult:
    result: Frontal
    source: Frontal
    pole: np.ndarray
    kind: TransformKind


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


def transform(kind: TransformKind, F: Frontal, P,
              degeneracy_tol: float = DEFAULT_DEGENERACY_TOL
              ) -> TransformResult:
    """The `kind` transform of F relative to P (see the module docstring).

    The result shares F's domain, so its evaluators call F's raw f and nu on
    points that its own eval_f, eval_nu or Jacobian has already wrapped.
    """
    lam, inverse = _FAMILY[kind]
    P = np.asarray(P, dtype=float)

    def support(x):
        fv = np.asarray(F.f(x), dtype=float)
        nv = np.asarray(F.nu(x), dtype=float)
        return fv, nv, np.einsum("km,km->k", fv - P, nv)

    if inverse:
        def check(x, d, r):
            bad = np.abs(d) <= degeneracy_tol * np.maximum(r, 1e-300)
            _raise_at_first(bad, x, d, PoleOnSilhouetteError)

        def f(x):
            fv, nv, d = support(x)
            r2 = np.einsum("km,km->k", fv - P, fv - P)
            check(x, d, np.sqrt(r2))
            # a branch: (2/lam) f - (2/lam - 1) P can flip the sign of a zero
            base = fv if lam == 2.0 else 2.0 * fv - P
            return base - (r2 / (lam * d))[:, None] * nv

        def nu(x):
            fv, _, d = support(x)
            diff = fv - P
            r = np.linalg.norm(diff, axis=1)
            check(x, d, r)
            return diff / r[:, None]
    else:
        def f(x):
            _, nv, d = support(x)
            return lam * d[:, None] * nv + P

        def nu(x):
            fv, nv, d = support(x)
            _raise_at_first(np.abs(d) <= degeneracy_tol, x, d,
                            GaussDegenerateError)
            diff = 2.0 * d[:, None] * nv + P - fv  # orthotomic minus source
            return diff / np.linalg.norm(diff, axis=1)[:, None]

    out = Frontal(domain=F.domain, f=f, nu=nu, ambient_dim=F.ambient_dim,
                  fd_step=TRANSFORM_FD_STEP,
                  name=f"{kind.value}({F.name or 'frontal'})")
    return TransformResult(result=out, source=F, pole=P, kind=kind)


def orthotomic(F: Frontal, P, degeneracy_tol: float = DEFAULT_DEGENERACY_TOL
               ) -> TransformResult:
    """Mirror images of P in the tangent hyperplanes of F."""
    return transform(TransformKind.ORTHOTOMIC, F, P, degeneracy_tol)


def pedal(F: Frontal, P, degeneracy_tol: float = DEFAULT_DEGENERACY_TOL
          ) -> TransformResult:
    """Feet of the perpendiculars from P to the tangent hyperplanes of F."""
    return transform(TransformKind.PEDAL, F, P, degeneracy_tol)


def anti_orthotomic(F: Frontal, P,
                    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL
                    ) -> TransformResult:
    """The unique frontal whose orthotomic relative to P is F."""
    return transform(TransformKind.ANTI_ORTHOTOMIC, F, P, degeneracy_tol)


def negative_pedal(G: Frontal, P,
                   degeneracy_tol: float = DEFAULT_DEGENERACY_TOL
                   ) -> TransformResult:
    """The unique frontal whose pedal relative to P is G."""
    return transform(TransformKind.NEGATIVE_PEDAL, G, P, degeneracy_tol)


def sample_poles(F: Frontal, grid: np.ndarray, count: int,
                 seed: int = POLE_SAMPLER_SEED,
                 margin_frac: float = 1e-3,
                 max_tries: int = 20000) -> np.ndarray:
    """Rejection-sample `count` poles inside the no-silhouette set of F.

    Candidates are drawn uniformly from the image bounding box inflated by
    half its diagonal; a candidate is accepted iff the support values
    (f(x)-P).nu(x) keep one sign over the grid with margin exceeding
    margin_frac * scale (scale = bounding-box diagonal).  Mixed signs mean a
    silhouette zero lies between samples, so such poles are rejected even
    when the sampled margin is large.
    """
    grid = F.domain.wrap(np.atleast_2d(np.asarray(grid, dtype=float)))
    fv = F.eval_f(grid)
    nv = F.eval_nu(grid)
    lo = fv.min(axis=0)
    hi = fv.max(axis=0)
    diag = float(np.linalg.norm(hi - lo))
    pad = 0.5 * diag + 0.5  # keep the box non-degenerate for point images
    lo = lo - pad
    hi = hi + pad
    scale = max(diag, 1.0)
    rng = np.random.default_rng(seed)
    a = np.einsum("km,km->k", fv, nv)
    poles = []
    for _ in range(max_tries):
        P = rng.uniform(lo, hi)
        d = a - nv @ P
        if float(d.min()) > margin_frac * scale \
                or float(d.max()) < -margin_frac * scale:
            poles.append(P)
            if len(poles) == count:
                return np.array(poles)
    raise RuntimeError(
        f"pole sampler found only {len(poles)}/{count} valid poles "
        f"in {max_tries} tries")
