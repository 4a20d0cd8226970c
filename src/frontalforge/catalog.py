"""Catalog of analytic test frontals.

Names: circle, circle-cubic, square, cusp, nonfront, sphere, constant.
All evaluators are vectorized over parameter arrays of shape (k, n).
"""
from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import CatalogParameterError, UnknownCatalogError
from .frontal import Frontal, ParamDomain, interval

TWO_PI = 2.0 * math.pi


def smooth_step(u: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, strictly increasing
    between, flat to all orders at both ends.

    s(u) = sigma(u) / (sigma(u) + sigma(1-u)) with sigma(u) = exp(-1/u).
    """
    u = np.asarray(u, dtype=float)
    a, b = _bump(u), _bump(1.0 - u)
    return a / (a + b)


def smooth_step_deriv(u: np.ndarray) -> np.ndarray:
    """Derivative of smooth_step.  Exactly 0 where exp(-1/u) or
    exp(-1/(1-u)) underflows, within about 0.00134 of either end."""
    u = np.asarray(u, dtype=float)
    a, b = _bump(u), _bump(1.0 - u)
    inner = (a > 0.0) & (b > 0.0)
    uu = np.where(inner, u, 0.5)
    return np.where(inner, a * b * (1.0 / uu**2 + 1.0 / (1.0 - uu) ** 2)
                    / (a + b) ** 2, 0.0)


def _bump(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    pos = u > 0.0
    safe = np.where(pos, u, 1.0)
    with np.errstate(over="ignore"):  # -1/u is -inf below u ~ 5.6e-309
        return np.where(pos, np.exp(-1.0 / safe), 0.0)


# Veltkamp splitting constant 2**27 + 1 for IEEE double.
_SPLIT = 134217729.0


def _cube(t: np.ndarray) -> np.ndarray:
    """Elementwise t**3, rounded once, that rounds the same on every numpy
    SIMD level.

    numpy's vectorized `power` kernel differs by an ulp between CPU feature
    sets; `*`, `+` and `-` are correctly rounded everywhere.  Dekker's
    error-free products give t*t = p2 + e2 and p2*t = p3 + e3 exactly
    (Veltkamp splits hi + lo), so t**3 = p3 + e3 + e2*t; the tail is summed
    in double precision and added once.  Valid while |t| is far from
    overflow and t**3 far from underflow.
    """
    t = np.asarray(t, dtype=float)
    c = _SPLIT * t
    hi = c - (c - t)
    lo = t - hi
    p2 = t * t
    e2 = ((hi * hi - p2) + 2.0 * (hi * lo)) + lo * lo
    c = _SPLIT * p2
    p2_hi = c - (c - p2)
    p2_lo = p2 - p2_hi
    p3 = p2 * t
    e3 = ((p2_hi * hi - p3) + p2_hi * lo + p2_lo * hi) + p2_lo * lo
    return p3 + (e3 + e2 * t)


def _circle(R: float = 1.0) -> Frontal:
    if not (math.isfinite(R) and R > 0.0):
        raise CatalogParameterError("circle: R must be finite and positive")

    def f(x):
        t = x[:, 0]
        return R * np.stack([np.cos(t), np.sin(t)], axis=-1)

    def nu(x):
        t = x[:, 0]
        return np.stack([np.cos(t), np.sin(t)], axis=-1)

    def jac_f(x):
        t = x[:, 0]
        return R * np.stack([-np.sin(t), np.cos(t)], axis=-1)[:, :, None]

    def jac_nu(x):
        t = x[:, 0]
        return np.stack([-np.sin(t), np.cos(t)], axis=-1)[:, :, None]

    return Frontal(domain=interval(0.0, TWO_PI, periodic=True), f=f, nu=nu,
                   ambient_dim=2, jac_f=jac_f, jac_nu=jac_nu,
                   name="circle", params={"R": R})


def _circle_cubic(c: float = 1.2) -> Frontal:
    # float(c): the cube of a large JSON integer would not overflow
    if not (c > 0.0 and math.isfinite(float(c) * c * c)):
        raise CatalogParameterError("circle-cubic: parameter 'c' must be "
                                    "finite and positive, and its cube finite")

    def f(x):
        t3 = _cube(x[:, 0])
        return np.stack([np.cos(t3), np.sin(t3)], axis=-1)

    def jac_f(x):
        t = x[:, 0]
        t3 = _cube(t)
        return (3.0 * t**2)[:, None, None] \
            * np.stack([-np.sin(t3), np.cos(t3)], axis=-1)[:, :, None]

    return Frontal(domain=interval(-c, c), f=f, nu=f, ambient_dim=2,
                   jac_f=jac_f, jac_nu=jac_f,
                   name="circle-cubic", params={"c": c})


# The square frontal (period 8) as a table of its 8 unit segments: on
# segment k, with s = smooth_step(offset in k), f = F0 + s F1 and the raw
# normal n = N0 + s N1, so Jf = s' F1 and dn = s' N1.  Zero constant terms
# are -0.0: -0.0 + v is v bit for bit, but +0.0 + (-s) is +0.0 at s = 0.
_SQUARE_TABLE = np.array([
    # F0       F1        N0          N1
    [(1, -1), (0, 0), (-0.0, -1), (1, 1)],     # corner (1, -1)
    [(1, -1), (0, 2), (1, -0.0), (0, 0)],      # edge x = 1
    [(1, 1), (0, 0), (1, -0.0), (-1, 1)],      # corner (1, 1)
    [(1, 1), (-2, 0), (-0.0, 1), (0, 0)],      # edge y = 1
    [(-1, 1), (0, 0), (-0.0, 1), (-1, -1)],    # corner (-1, 1)
    [(-1, 1), (0, -2), (-1, -0.0), (0, 0)],    # edge x = -1
    [(-1, -1), (0, 0), (-1, -0.0), (1, -1)],   # corner (-1, -1)
    [(-1, -1), (2, 0), (-0.0, -1), (0, 0)],    # edge y = -1
], dtype=float)
_SQUARE_F0, _SQUARE_F1, _SQUARE_N0, _SQUARE_N1 = \
    np.moveaxis(_SQUARE_TABLE, 0, -1).copy()  # each (components, segments)


def _square_segments(t: np.ndarray):
    """Segment index 0..7 and offset u in [0, 1) of t wrapped to [0, 8)."""
    whole = np.floor(t)
    return whole.astype(int) % 8, t - whole


def _square_rows(seg, s, slope, const=None):
    """Per component: const[seg] + s * slope[seg], or s * slope[seg]."""
    rows = [s * np.take(d, seg) for d in slope]
    if const is None:
        return rows
    return [np.take(c, seg) + r for c, r in zip(const, rows)]


def _square() -> Frontal:
    def f(x):
        seg, u = _square_segments(x[:, 0])
        return np.stack(_square_rows(seg, smooth_step(u), _SQUARE_F1,
                                     _SQUARE_F0), axis=-1)

    def nu(x):
        seg, u = _square_segments(x[:, 0])
        n1, n2 = _square_rows(seg, smooth_step(u), _SQUARE_N1, _SQUARE_N0)
        nrm = np.hypot(n1, n2)
        return np.stack([n1 / nrm, n2 / nrm], axis=-1)

    def jac_f(x):
        seg, u = _square_segments(x[:, 0])
        return np.stack(_square_rows(seg, smooth_step_deriv(u), _SQUARE_F1),
                        axis=-1)[:, :, None]

    def jac_nu(x):
        # (I - nu nu^T) dn / |n| for the raw normal n = (n1, n2)
        seg, u = _square_segments(x[:, 0])
        n1, n2 = _square_rows(seg, smooth_step(u), _SQUARE_N1, _SQUARE_N0)
        dn1, dn2 = _square_rows(seg, smooth_step_deriv(u), _SQUARE_N1)
        nrm = np.hypot(n1, n2)
        e1, e2 = n1 / nrm, n2 / nrm
        along = e1 * dn1 + e2 * dn2
        return np.stack([(dn1 - along * e1) / nrm,
                         (dn2 - along * e2) / nrm], axis=-1)[:, :, None]

    return Frontal(domain=interval(0.0, 8.0, periodic=True), f=f, nu=nu,
                   ambient_dim=2, jac_f=jac_f, jac_nu=jac_nu, name="square")


def _cusp() -> Frontal:
    def f(x):
        t = x[:, 0]
        return np.stack([t**2, _cube(t)], axis=-1)

    def nu(x):
        t = x[:, 0]
        nrm = np.sqrt(9.0 * t**2 + 4.0)
        return np.stack([3.0 * t / nrm, -2.0 / nrm], axis=-1)

    def jac_f(x):
        t = x[:, 0]
        return np.stack([2.0 * t, 3.0 * t**2], axis=-1)[:, :, None]

    def jac_nu(x):
        t = x[:, 0]
        u = 9.0 * t**2 + 4.0
        nrm3 = u * np.sqrt(u)
        return np.stack([12.0 / nrm3, 18.0 * t / nrm3], axis=-1)[:, :, None]

    return Frontal(domain=interval(-1.0, 1.0), f=f, nu=nu, ambient_dim=2,
                   jac_f=jac_f, jac_nu=jac_nu, name="cusp")


def _nonfront() -> Frontal:
    def f(x):
        t3 = _cube(x[:, 0])
        return np.stack([t3, t3 * t3], axis=-1)

    def nu(x):
        t3 = _cube(x[:, 0])
        nrm = np.sqrt(4.0 * (t3 * t3) + 1.0)
        return np.stack([-2.0 * t3 / nrm, 1.0 / nrm], axis=-1)

    def jac_f(x):
        t = x[:, 0]
        t2 = t**2
        return np.stack([3.0 * t2, 6.0 * (_cube(t) * t2)],
                        axis=-1)[:, :, None]

    def jac_nu(x):
        t = x[:, 0]
        t2 = t**2
        t3 = _cube(t)
        u = 4.0 * (t3 * t3) + 1.0
        nrm3 = u * np.sqrt(u)
        return np.stack([-6.0 * t2 / nrm3,
                         -12.0 * (t3 * t2) / nrm3], axis=-1)[:, :, None]

    return Frontal(domain=interval(-1.0, 1.0), f=f, nu=nu, ambient_dim=2,
                   jac_f=jac_f, jac_nu=jac_nu, name="nonfront")


def _sphere(polar_margin: float = 0.3) -> Frontal:
    if not 0.0 < polar_margin < math.pi / 2:
        raise CatalogParameterError("sphere: polar_margin must be in (0, pi/2)")

    def f(x):
        az, pol = x[:, 0], x[:, 1]
        sp = np.sin(pol)
        return np.stack([sp * np.cos(az), sp * np.sin(az), np.cos(pol)],
                        axis=-1)

    def jac_f(x):
        az, pol = x[:, 0], x[:, 1]
        sp, cp = np.sin(pol), np.cos(pol)
        ca, sa = np.cos(az), np.sin(az)
        J = np.empty((x.shape[0], 3, 2))
        J[:, 0, 0] = -sp * sa
        J[:, 1, 0] = sp * ca
        J[:, 2, 0] = 0.0
        J[:, 0, 1] = cp * ca
        J[:, 1, 1] = cp * sa
        J[:, 2, 1] = -sp
        return J

    dom = ParamDomain(np.array([0.0, polar_margin]),
                      np.array([TWO_PI, math.pi - polar_margin]),
                      np.array([True, False]))
    return Frontal(domain=dom, f=f, nu=f, ambient_dim=3,
                   jac_f=jac_f, jac_nu=jac_f,
                   name="sphere", params={"polar_margin": polar_margin})


def _constant() -> Frontal:
    def f(x):
        out = np.zeros((x.shape[0], 2))
        out[:, 1] = -1.0
        return out

    def nu(x):
        out = np.zeros((x.shape[0], 2))
        out[:, 0] = -1.0
        return out

    def jac(x):
        return np.zeros((x.shape[0], 2, 1))

    return Frontal(domain=interval(-1.0, 1.0), f=f, nu=nu, ambient_dim=2,
                   jac_f=jac, jac_nu=jac, name="constant")


_BUILDERS = {
    "circle": _circle,
    "circle-cubic": _circle_cubic,
    "square": _square,
    "cusp": _cusp,
    "nonfront": _nonfront,
    "sphere": _sphere,
    "constant": _constant,
}


def catalog_names() -> list[str]:
    return sorted(_BUILDERS)


def catalog(name: str, params: dict | None = None) -> Frontal:
    """Build a named catalog frontal.  params is a JSON-style key/value map
    (e.g. {"R": 2.0} for the circle)."""
    if name not in _BUILDERS:
        raise UnknownCatalogError(
            f"unknown catalog frontal {name!r}; known: {', '.join(catalog_names())}")
    for key, value in (params or {}).items():
        if not isinstance(value, numbers.Real):
            raise CatalogParameterError(f"{name}: parameter {key!r} must be "
                                        f"a real number, not {value!r}")
        try:
            float(value)
        except OverflowError:  # a JSON integer beyond the float range
            raise CatalogParameterError(f"{name}: parameter {key!r} is "
                                        "beyond the float range") from None
    try:
        return _BUILDERS[name](**(params or {}))
    except TypeError as exc:
        raise CatalogParameterError(f"{name}: {exc}") from exc
