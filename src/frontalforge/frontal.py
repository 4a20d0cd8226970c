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

from .errors import DomainError, NonFiniteSampleError
from .linalg import row_norm

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
            raise ValueError("lo, hi, periodic must have matching shapes")
        if np.any(hi <= lo):
            raise ValueError("each axis needs lo < hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "periodic", per)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def wrap(self, x: np.ndarray) -> np.ndarray:
        """Wrap periodic axes into [lo, hi); non-periodic axes pass through.

        Points already in [lo, hi) keep their value, so wrapping twice is
        wrapping once.  np.mod can round a tiny negative offset up to the
        full period; such a result, equal to hi, becomes lo.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
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
            raise ValueError("one sample count per axis required")
        if np.any(counts < 2):
            raise ValueError("need at least 2 samples per axis")
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
    """An evaluable frontal (f, nu) over a box domain.

    f, nu: vectorized evaluators (k, n) -> (k, m).  jac_f / jac_nu, when
    given, are analytic Jacobian evaluators (k, n) -> (k, m, n); otherwise
    central finite differences with step FD_STEP are used.  jet, when given,
    evaluates (f, nu) and, at order 1, (Jf, Jnu) together on wrapped points;
    `eval` then uses it, and f and nu are its order-0 parts.  All evaluators
    receive points already wrapped into the domain.
    """

    domain: ParamDomain
    f: Callable[[np.ndarray], np.ndarray]
    nu: Callable[[np.ndarray], np.ndarray]
    ambient_dim: int
    jac_f: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jac_nu: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = ""
    params: dict = field(default_factory=dict)
    jet: Optional[Callable[[np.ndarray, int], tuple]] = None

    @property
    def param_dim(self) -> int:
        return self.domain.dim

    def eval_f(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.f(self.domain.wrap(x)), dtype=float)

    def eval_nu(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.nu(self.domain.wrap(x)), dtype=float)

    def eval(self, x: np.ndarray, order: int = 0) -> tuple:
        """(f, nu) at the points x, each (k, m); at order 1 also
        (Jf, Jnu), each (k, m, n).  x is wrapped once."""
        return self.eval_wrapped(self.domain.wrap(x), order)

    def eval_wrapped(self, x: np.ndarray, order: int = 0) -> tuple:
        """`eval` at points already wrapped into the domain."""
        if order not in (0, 1):
            raise ValueError(f"jet order must be 0 or 1, not {order!r}")
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
            raise ValueError("params/values length mismatch")
        if self.gauss is not None and self.gauss.shape != self.values.shape:
            raise ValueError("gauss shape mismatch")
        for a in (self.params, self.values, self.gauss):
            if a is not None and not np.all(np.isfinite(a)):
                raise NonFiniteSampleError("non-finite entries in sampled map")


def sample(F: Frontal, x: np.ndarray) -> SampledMap:
    x = F.domain.wrap(x)
    vals, gauss = F.eval_wrapped(x)
    return SampledMap(params=x, values=vals, gauss=gauss)


def _fd_jacobian(fun, domain: ParamDomain, x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a vectorized map, batch shape (k, m, n),
    with step h = FD_STEP.

    Points exactly on a non-periodic boundary get second-order one-sided
    stencils; interior points closer than h to such a boundary are rejected.
    """
    h = FD_STEP
    x = domain.wrap(np.atleast_2d(np.asarray(x, dtype=float)))
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


def check_frontal(F: Frontal, grid: np.ndarray,
                  jet: Optional[tuple] = None) -> FrontalCheck:
    """Max over grid points and Jacobian columns of |df_column . nu|.

    Also records how far nu strays from unit norm on the grid.  jet, when
    given, is F's order-1 jet at the grid points (see Frontal.eval), so a
    caller that needs the jet anyway evaluates F once; without one, only
    nu and Jf are evaluated, unless F's own jet gives all four.
    """
    grid = F.domain.wrap(np.atleast_2d(np.asarray(grid, dtype=float)))
    if grid.shape[0] == 0:
        raise ValueError("empty grid")
    if jet is None and F.jet is None:
        jet = (None, np.asarray(F.nu(grid), dtype=float),
               F._jacobian(grid, 0), None)
    _, nu, J, _ = jet or F.eval_wrapped(grid, 1)
    unit_defect = float(np.max(np.abs(row_norm(nu) - 1.0)))
    res = tangency_residuals(J, nu)
    flat = int(np.argmax(res))
    worst = grid[flat // res.shape[1]]
    return FrontalCheck(max_residual=float(res.max()), worst_x=worst,
                        max_unit_defect=unit_defect)
