"""Closed forms of the catalog curves and no-silhouette (NS) tests, written
independently of the program so that the benchmark can check its outputs.

The support value of a curve at parameter t relative to a pole P is
d(t) = (f(t) - P) . nu(t); P lies in the NS set when d keeps one sign over
the whole parameter interval.  Each `*_support_range` below returns the exact
minimum and maximum of a quantity with the sign of d, together with a bound
L on its gradient in P, so that a decision taken at P also holds at every
pole within `margin / L`.
"""
from __future__ import annotations

import math

import numpy as np

CIRCLE_CUBIC_C = 1.2


# --- closed forms: parameter rows -> (f, nu) -------------------------------

def circle(t):
    t = np.asarray(t, dtype=float)
    u = np.stack([np.cos(t), np.sin(t)], axis=-1)
    return u, u


def circle_cubic(t):
    return circle(np.asarray(t, dtype=float) ** 3)


def cusp(t):
    t = np.asarray(t, dtype=float)
    nrm = np.sqrt(9.0 * t * t + 4.0)
    return (np.stack([t * t, t * t * t], axis=-1),
            np.stack([3.0 * t / nrm, -2.0 / nrm], axis=-1))


def sphere(az, pol):
    az = np.asarray(az, dtype=float)
    pol = np.asarray(pol, dtype=float)
    sp = np.sin(pol)
    u = np.stack([sp * np.cos(az), sp * np.sin(az), np.cos(pol)], axis=-1)
    return u, u


# --- NS tests ----------------------------------------------------------------

def arc_support_range(P, half_angle):
    """Extremes of d(theta) = 1 - P.u(theta) for the unit-circle arc
    theta in [-half_angle, half_angle]; d is 1-Lipschitz in P.

    P.u(theta) = |P| cos(theta - phi) is extremal at the arc ends and at
    theta = phi, phi + pi when those lie on the arc.
    """
    p1, p2 = float(P[0]), float(P[1])
    rho = math.hypot(p1, p2)
    phi = math.atan2(p2, p1)
    cands = [-half_angle, half_angle]
    for th in (phi, phi + math.pi, phi - math.pi):
        if -half_angle <= th <= half_angle:
            cands.append(th)
    vals = [1.0 - rho * math.cos(th - phi) for th in cands]
    return min(vals), max(vals), 1.0


def circle_support_range(P):
    """Full circle: d = 1 - P.u keeps one sign iff |P| < 1."""
    return arc_support_range(P, math.pi)


def circle_cubic_support_range(P, c=CIRCLE_CUBIC_C):
    """The circle-cubic traces the arc |theta| <= c**3 (theta = t**3), which
    is longer than a half circle but not closed: its NS set is the unit disk
    plus the poles behind the gap of the arc."""
    return arc_support_range(P, c ** 3)


def cusp_support_range(P):
    """Cusp f = (t^2, t^3), t in [-1, 1]: d has the sign of
    h(t) = t^3 - 3 p1 t + 2 p2, extremal at t = +-1 and t = +-sqrt(p1);
    |dh/dP| = |(-3t, 2)| <= sqrt(13)."""
    p1, p2 = float(P[0]), float(P[1])
    ts = [-1.0, 1.0]
    if 0.0 < p1 < 1.0:
        r = math.sqrt(p1)
        ts += [-r, r]
    vals = [t ** 3 - 3.0 * p1 * t + 2.0 * p2 for t in ts]
    return min(vals), max(vals), math.sqrt(13.0)


def nonfront_support_range(P):
    """Nonfront f = (t^3, t^6), t in [-1, 1]: with u = t^3, d has the sign
    of h(u) = -u^2 + 2 p1 u - p2, extremal at u = +-1 and u = p1;
    |dh/dP| = |(2u, -1)| <= sqrt(5)."""
    p1, p2 = float(P[0]), float(P[1])
    us = [-1.0, 1.0, min(1.0, max(-1.0, p1))]
    vals = [-u * u + 2.0 * p1 * u - p2 for u in us]
    return min(vals), max(vals), math.sqrt(5.0)


def square_support_range(P):
    """Square frontal with boundary max(|x|, |y|) = 1: the NS set is the
    open square |P|_inf < 1.  Returned as a signed quantity 1 - |P|_inf
    (positive inside), which is 1-Lipschitz in P."""
    v = 1.0 - max(abs(float(P[0])), abs(float(P[1])))
    if v > 0.0:
        return v, v, 1.0
    return v, -v, 1.0


SUPPORT_RANGE = {
    "circle": circle_support_range,
    "circle-cubic": circle_cubic_support_range,
    "cusp": cusp_support_range,
    "nonfront": nonfront_support_range,
    "square": square_support_range,
}


def ns_decision(name, P, radius=0.0):
    """(member, decided): membership of P in the NS set of the named curve,
    and whether every pole within `radius` of P gets the same answer with
    room to spare."""
    lo, hi, lip = SUPPORT_RANGE[name](P)
    need = lip * radius
    if lo > 0.0 or hi < 0.0:
        return True, min(abs(lo), abs(hi)) > need
    return False, min(hi, -lo) > need
