"""The frontal data model: parameter domains, evaluable (f, nu) pairs with
derivatives, sampling, and the tangency-condition verifier.

A frontal is a map f into R^m (m = n+1) together with a unit normal field
nu into S^(m-1) satisfying df_x(v) . nu(x) = 0 for every tangent direction v.
Evaluators are vectorized: they accept parameter arrays of shape (k, n) and
return (k, m) arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, UsageError
from .linalg import finite_rows, row_norm

FD_STEP = 1e-5       # central-difference step of frontals without a jac
FRONTAL_TOL = 1e-6   # max |df . nu| that check_frontal passes


@dataclass(frozen=True)
class ParamDomain:
    """A box [lo_i, hi_i]^n with optional per-axis periodicity.

    A periodic axis has period hi - lo; points on it are wrapped into
    [lo, hi) before evaluation.
    """

    lo: np.ndarray
    hi: np.ndarray
    periodic: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        per = np.atleast_1d(np.asarray(self.periodic, dtype=bool))
        if lo.shape != hi.shape or lo.shape != per.shape:
            raise UsageError("lo, hi, periodic must have matching shapes")
        if np.any(hi <= lo):
            raise UsageError("each axis needs lo < hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "periodic", per)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Wrap periodic axes into [lo, hi); non-periodic axes pass through.

        The one point check: x of any shape but (k, n), or (n,) for one
        point, is a UsageError.  Points already in [lo, hi) keep their
        value, so wrapping twice is wrapping once.  np.mod can round a tiny
        negative offset up to the full period; such a result, equal to hi,
        becomes lo.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise UsageError(f"expected parameter points of shape "
                             f"(k, {self.dim}), got {x.shape}")
        out = x.copy()
        for j in range(self.dim):
            if self.periodic[j]:
                lo, hi = self.lo[j], self.hi[j]
                col = x[:, j]
                outside = (col < lo) | (col >= hi)
                if outside.any():
                    w = lo + np.mod(col[outside] - lo, hi - lo)
                    w[w >= hi] = lo
                    out[outside, j] = w
        return out

    def grid(self, counts) -> np.ndarray:
        """Regular sample grid, shape (prod(counts), n).

        Periodic axes exclude the right endpoint (it aliases the left one);
        non-periodic axes include both endpoints.
        """
        counts = np.atleast_1d(np.asarray(counts, dtype=int))
        if counts.shape[0] == 1 and self.dim > 1:
            counts = np.full(self.dim, counts[0])
        if counts.shape[0] != self.dim:
            raise UsageError("one sample count per axis required")
        if np.any(counts < 2):
            raise UsageError("need at least 2 samples per axis")
        axes = []
        for j in range(self.dim):
            if self.periodic[j]:
                axes.append(np.linspace(self.lo[j], self.hi[j], counts[j],
                                        endpoint=False))
            else:
                axes.append(np.linspace(self.lo[j], self.hi[j], counts[j]))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)


def interval(lo: float, hi: float, periodic: bool = False) -> ParamDomain:
    """Convenience constructor for 1-parameter domains."""
    return ParamDomain(np.array([lo]), np.array([hi]), np.array([periodic]))


@dataclass(frozen=True)
class Frontal:
    """An evaluable frontal (f, nu) over a box domain: a jet, or both maps.

    jet(x, order) evaluates (f, nu) and, at order 1, (Jf, Jnu) together; a
    frontal with one is evaluated by it alone (a transformed frontal has
    f = nu = None).  Else f, nu: vectorized maps (k, n) -> (k, m), and
    jac_f / jac_nu analytic Jacobians (k, n) -> (k, m, n), or when None,
    central differences with step FD_STEP.  Points arrive wrapped.
    """

    domain: ParamDomain
    f: Optional[Callable[[np.ndarray], np.ndarray]]
    nu: Optional[Callable[[np.ndarray], np.ndarray]]
    ambient_dim: int
    jac_f: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jac_nu: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""
    params: dict = field(default_factory=dict)
    jet: Optional[Callable[[np.ndarray, int], tuple]] = None

    def __post_init__(self):
        if self.jet is None and (self.f is None or self.nu is None):
            raise UsageError("a frontal needs a jet or both maps f and nu")

    @property
    def param_dim(self) -> int:
        return self.domain.dim

    def pole(self, P) -> np.ndarray:
        """P as ambient_dim finite reals, or a UsageError."""
        P, m = np.asarray(P, dtype=float), self.ambient_dim
        if P.shape != (m,):
            d = len(P) if P.ndim == 1 else P.shape
            raise UsageError(f"pole has dimension {d}, expected {m}")
        if not np.isfinite(P).all():
            raise UsageError(f"pole {P.tolist()} is not finite")
        return P

    def at(self, x: np.ndarray, order: int = 0,
           jet: Optional[tuple] = None) -> tuple:
        """(x wrapped, F's jet there): (f, nu), each (k, m), at order 1 also
        (Jf, Jnu), each (k, m, n).  A held jet, F's jet already evaluated
        at these points, is passed as jet and returned as it is."""
        x = self.domain.wrap(x)
        return x, self.eval_wrapped(x, order) if jet is None else jet

    def eval(self, x: np.ndarray, order: int = 0) -> tuple:
        """`at(x, order)`'s jet."""
        return self.at(x, order)[1]

    def eval_wrapped(self, x: np.ndarray, order: int = 0) -> tuple:
        """`eval` at points already wrapped into the domain."""
        if order not in (0, 1):
            raise UsageError(f"jet order must be 0 or 1, not {order!r}")
        if self.jet is not None:
            return self.jet(x, order)
        fv = np.asarray(self.f(x), dtype=float)
        nv = fv if self.nu is self.f else np.asarray(self.nu(x), dtype=float)
        if order == 0:
            return fv, nv
        Jf = self._jacobian(x, 0)
        if self.jac_nu is self.jac_f and self.nu is self.f:
            return fv, nv, Jf, Jf
        return fv, nv, Jf, self._jacobian(x, 1)

    def _jacobian(self, x, which):
        """Jf (which 0) or Jnu (1) at wrapped points x: from the jet if F
        has one, else from that map's jac or its finite differences alone."""
        if self.jet is not None:
            return self.jet(x, 1)[2 + which]
        jac, fun = ((self.jac_f, self.f), (self.jac_nu, self.nu))[which]
        if jac is not None:
            return np.asarray(jac(x), dtype=float)
        return _fd_jacobian(fun, self.domain, x)


@dataclass(frozen=True)
class SampledMap:
    """Evaluated grid of a map: parameter points, image values, and
    (optionally) Gauss-map values.  The CSV/SVG payload."""

    params: np.ndarray
    values: np.ndarray
    gauss: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.params.shape[0] != self.values.shape[0]:
            raise UsageError("params/values length mismatch")
        if self.gauss is not None and self.gauss.shape != self.values.shape:
            raise UsageError("gauss shape mismatch")
        finite_rows(self.params, *(a for a in (self.params, self.values,
                                               self.gauss) if a is not None))


def sample(F: Frontal, x: np.ndarray) -> SampledMap:
    x, (vals, gauss) = F.at(x)
    return SampledMap(params=x, values=vals, gauss=gauss)


def _fd_jacobian(fun, domain: ParamDomain, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a vectorized map, batch shape (k, m, n),
    with step h = FD_STEP.

    Points exactly on a non-periodic boundary get second-order one-sided
    stencils; interior points closer than h to such a boundary are rejected.
    """
    h = FD_STEP
    x = domain.wrap(x)
    k, n = x.shape
    f0 = np.asarray(fun(x), dtype=float)
    m = f0.shape[1]

    def ev(pts):
        return np.asarray(fun(pts), dtype=float)

    J = np.empty((k, m, n))
    for j in range(n):
        lo, hi = domain.lo[j], domain.hi[j]
        if domain.periodic[j]:
            xp = x.copy()
            xm = x.copy()
            xp[:, j] += h
            xm[:, j] -= h
            J[:, :, j] = (ev(domain.wrap(xp)) - ev(domain.wrap(xm))) / (2.0 * h)
            continue
        d_lo = x[:, j] - lo
        d_hi = hi - x[:, j]
        on_lo = d_lo <= 1e-14 * max(1.0, abs(lo))
        on_hi = d_hi <= 1e-14 * max(1.0, abs(hi))
        bad = (~on_lo & (d_lo < h)) | (~on_hi & (d_hi < h))
        if np.any(bad):
            raise DomainError(
                f"axis {j}: point within FD_STEP={h} of a non-periodic "
                f"boundary (first offender {x[np.argmax(bad)]})")
        xp = x.copy()
        xm = x.copy()
        xp[:, j] += h
        xm[:, j] -= h
        xp[on_hi, j] = x[on_hi, j]
        xm[on_lo, j] = x[on_lo, j]
        J[:, :, j] = (ev(xp) - ev(xm)) / (xp[:, j] - xm[:, j])[:, None]
        # upgrade exact-boundary points to (-3 f0 + 4 f1 - f2) / (2h), O(h^2)
        for mask, sgn in ((on_lo, 1.0), (on_hi, -1.0)):
            if not np.any(mask):
                continue
            x1 = x[mask].copy()
            x2 = x[mask].copy()
            x1[:, j] += sgn * h
            x2[:, j] += sgn * 2.0 * h
            J[mask, :, j] = sgn * (-3.0 * f0[mask] + 4.0 * ev(x1)
                                   - ev(x2)) / (2.0 * h)
    return J


def jacobian_f(F: Frontal, x: np.ndarray) -> np.ndarray:
    """Jacobian of f at each point of x, shape (k, m, n)."""
    return F._jacobian(F.domain.wrap(x), 0)


def jacobian_nu(F: Frontal, x: np.ndarray) -> np.ndarray:
    """Jacobian of nu at each point of x, shape (k, m, n)."""
    return F._jacobian(F.domain.wrap(x), 1)


def tangency_residuals(J: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """|J[k, :, j] . nu[k]| for each row k and Jacobian column j: (k, n).
    Row by row, so a block of rows gives the bits of the whole."""
    return np.abs(np.einsum("kmj,km->kj", J, nu))


@dataclass(frozen=True)
class FrontalCheck:
    """Result of verifying the tangency condition df . nu = 0 on a grid."""

    max_residual: float
    worst_x: np.ndarray
    max_unit_defect: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= FRONTAL_TOL


def check_frontal(F: Frontal, grid: np.ndarray) -> FrontalCheck:
    """Max over grid points and Jacobian columns of |df_column . nu|.

    Also records how far nu strays from unit norm on the grid.  Only nu
    and Jf are evaluated, unless F's own jet gives all four.
    """
    grid = F.domain.wrap(grid)
    if grid.shape[0] == 0:
        raise UsageError("empty grid")
    if F.jet is None:
        nu, J = np.asarray(F.nu(grid), dtype=float), F._jacobian(grid, 0)
    else:
        _, nu, J, _ = F.eval_wrapped(grid, 1)
    unit_defect = float(np.max(np.abs(row_norm(nu) - 1.0)))
    res = tangency_residuals(J, nu)
    flat = int(np.argmax(res))
    worst = grid[flat // res.shape[1]]
    return FrontalCheck(max_residual=float(res.max()), worst_x=worst,
                        max_unit_defect=unit_defect)
