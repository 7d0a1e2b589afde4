"""Root kernels for the two catch equations.

Catch-up: y = x + 2*sin((x + y + offset)/2).  The residual
f(y) = x + 2*sin(s) - y, s = (x + y + offset)/2, has
f'(y) = cos(s) - 1 = -2*sin(s/2)**2 <= 0, so the root on [x, x + 2] is
unique.  With u = s the equation reads u - sin u = c, c = x + offset/2:
Kepler's equation at eccentricity 1.  Its domain is c in [0, pi], where
f(x) = 2*sin(c) >= 0.  A query whose c lies more than _C_SLACK = 5e-13
outside it (1e-12 on f(x)) has no root at or beyond x: the kernel returns
NaN and the scalar twin raises RegimeError, as both do for x < 0 and for an
offset outside [0, pi + DOMAIN_SLACK].  The catch-up is decided by
comparisons on c alone and evaluates no residual:
- c <= _FLAT_C = (ROOT_TOL/2)**3/6: the root is flat, u <= ROOT_TOL/2, so
  y - x = 2*sin(u) <= ROOT_TOL and y = x is returned.  This covers c = 0,
  and c below about 1.6e-198, where Markley's starter is 0/0.
- any other c: closed form with no loop (Markley, Celest. Mech. Dyn.
  Astron. 63, 1995): a starter within 3.6e-4 of u, then one fifth-order
  correction step, which needs only sin u and sin(u/2) since
  1 - cos u = 2*sin(u/2)**2; the root is y = 2u - x - offset.  Below
  u = 0.25, u - sin u comes from its series, as the difference cancels
  there.  Against 60-digit roots the step lands within 4.6e-16 of u on a
  stratified sample of about 4,000 c over the whole domain
  (tests/test_root_accuracy.py; a sample, not an interval proof).  A
  non-finite root raises SolverError.

P catch: the smallest p >= t0 with p - t0 = |N - partner(p)|, the partner
at angle -b - p.  g(p) = p - t0 - dist is nondecreasing (|d dist/dp| <= 1)
with g(t0) = -dist <= 0 and g(t0 + 2) >= 0 for N in the disk.  It is
solved without a convergence loop too.  For N on the circle at angle phi, with
theta = phi + b + t0 wrapped into [0, 2*pi] and q = p - t0, it reads
q = 2*sin((theta + q)/2), which is the catch-up equation: u - sin u =
theta/2 with q = 2u - theta.  That root (p = t0 where theta = 0, since
Markley's starter is 0/0 there) starts a fixed number of Halley steps,
_HALLEY_STEPS, for any N in the disk.  On the paper grid's 638,490 P
catches every root passes the sign check below after 5 steps.

The P catch's domain is two-dimensional, so it stops on root accuracy
checked per point, not on the residual: the residual must change sign
within ROOT_TOL on either side of the returned catch.  A catch that fails
is bisected on [t0, t0 + 2 + 1e-9] down to that width.  Where the
derivative is tiny at the root (N on the circle next to the partner) the
sign change is that of the computed residual, and the true error is its
rounding noise over the derivative.

Each kernel has a scalar twin for one point: solve_meeting beside
solve_meeting_arr, catch_on_circle beside catch_on_circle_arr.  A twin
runs the same operations in the same order on floats (math's sin, cos
and sqrt; numpy's hypot, cbrt and arctan2, since math's round
differently) and, for the P catch, the same ROOT_TOL sign check and the
same bisection fallback on floats (_bisect_float), so it returns the
kernel's roots bit for bit without numpy's per-call cost.  Where the
P-catch kernel divides by zero, or takes the sine of inf, and so ends on
inf or NaN, the twin's ZeroDivisionError or ValueError sends the point to
the same bisection.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import DOMAIN_SLACK, TWO_PI

ROOT_TOL = 1e-12  # enforced bound on |root - returned root|
_C_SLACK = 5e-13  # c = x + offset/2 may leave [0, pi] by this: 1e-12 on f(x) = 2 sin c
_FLAT_C = (ROOT_TOL / 2.0) ** 3 / 6.0  # at or below it the catch-up root is within ROOT_TOL of x
_HALLEY_STEPS = 5  # fixed Halley steps of the P catch
_PLUS_MINUS = np.array([[-ROOT_TOL], [ROOT_TOL]])  # rows: root - tol, root + tol
# Markley's starter at e = 1: alpha = (3.8*pi^2 - 0.8*pi*c)/(pi^2 - 6)
_ALPHA_0, _ALPHA_1, _ALPHA_2 = 3.8 * math.pi * math.pi, 0.8 * math.pi, math.pi * math.pi - 6.0
_SERIES_BELOW = 0.25  # u - sin u from its series below this u, where it cancels


class RegimeError(ValueError):
    """Query outside the regime where the catch-up geometry is valid."""


class SolverError(RuntimeError):
    """A catch-up root came out non-finite."""


def pick(v, mask):
    """v on the points of mask: a float passes, an array is broadcast to the
    mask's shape first, so a column of per-cell values gives one per point."""
    return np.broadcast_to(v, mask.shape)[mask] if np.ndim(v) else v


def _kepler(c: float) -> float:
    """Scalar _kepler_arr: the same operations in the same order."""
    alpha = (_ALPHA_0 - _ALPHA_1 * c) / _ALPHA_2
    c2 = c * c
    c4 = c2 * c2
    r = 3.0 * (alpha * alpha * alpha) * c + c2 * c
    k = float(np.cbrt(r + math.sqrt(r * r - c4 * c2)))
    w = k * k
    u = (2.0 * r * w / (w * w - w * c2 + c4) + c) / alpha
    s, h = math.sin(u), math.sin(u / 2.0)
    g = _u_minus_sin_series(u) if u < _SERIES_BELOW else u - s
    return u + _fifth_order_step(g - c, s, h)


def _kepler_arr(c):
    """u in [0, pi] with u - sin u = c, for each c in [0, pi].

    Markley's starter at e = 1 (within 3.6e-4 of the root; q = -c**2
    there, so w**2 + w*q + q**2 = w**2 - w*c**2 + c**4), then one
    fifth-order correction step.
    """
    alpha = (_ALPHA_0 - _ALPHA_1 * c) / _ALPHA_2
    c2 = c * c
    c4 = c2 * c2
    r = 3.0 * (alpha * alpha * alpha) * c + c2 * c
    k = np.cbrt(r + np.sqrt(r * r - c4 * c2))
    w = k * k
    u = (2.0 * r * w / (w * w - w * c2 + c4) + c) / alpha
    del alpha, c2, c4, r, k, w
    s, h = np.sin(u), np.sin(u / 2.0)
    g = u - s
    small = u < _SERIES_BELOW
    g[small] = _u_minus_sin_series(u[small])
    g -= c
    return u + _fifth_order_step(g, s, h)


def _u_minus_sin_series(u):
    """u - sin u through its u**13 term, within 3e-19 relative for u < 0.25."""
    v = u * u
    return u * v / 6.0 * (1.0 - v / 20.0 * (1.0 - v / 42.0 * (1.0 - v / 72.0 * (
        1.0 - v / 110.0 * (1.0 - v / 156.0)))))


def _fifth_order_step(f0, s, h):
    """Markley's fifth-order step for f(u) = u - sin u - c from f0 = f(u),
    s = sin u and h = sin(u/2): f' = 2h^2 (= 1 - cos u), f'' = s, f''' = 1 - f'."""
    f1 = 2.0 * h * h
    f3 = 1.0 - f1
    d3 = -f0 / (f1 - 0.5 * f0 * s / f1)
    d4 = -f0 / (f1 + 0.5 * d3 * s + d3 * d3 * f3 / 6.0)
    return -f0 / (f1 + 0.5 * d4 * s + d4 * d4 * f3 / 6.0 - d4 * d4 * d4 * s / 24.0)


def solve_meeting(x: float, offset: float) -> float:
    """Root of the catch-up equation within ROOT_TOL.

    x is the arc already traveled by the discovering robot, offset the
    additive separation inside the sine (0, d or zeta).  Scalar twin of
    solve_meeting_arr: the same operations in the same order, so both
    return identical roots.
    """
    if not x >= 0.0:
        raise RegimeError(f"x must be nonnegative, got {x}")
    if not (0.0 <= offset <= math.pi + DOMAIN_SLACK):
        raise RegimeError(f"offset {offset} outside [0, pi]")
    c = x + offset / 2.0
    if not c <= math.pi + _C_SLACK:
        raise RegimeError(f"x + offset/2 = {c} beyond pi: no catch-up root "
                          f"at or beyond x={x} (offset={offset})")
    if c <= _FLAT_C:
        return x
    y = 2.0 * _kepler(c) - x - offset
    if not math.isfinite(y):
        raise SolverError(f"non-finite catch-up root for x={x}, offset={offset}")
    return y


def solve_meeting_arr(x, offset):
    """Vectorized solve_meeting over an array of x values.

    offset is one float or an array that broadcasts against x, such as a
    column of per-cell offsets; the result has their broadcast shape.  An
    entry comes back as NaN exactly where solve_meeting raises RegimeError:
    x < 0 (or NaN), an offset outside [0, pi] beyond DOMAIN_SLACK, or
    c = x + offset/2 beyond pi + _C_SLACK.
    """
    # checked once per offset value; then c >= 0 wherever x >= 0
    half = np.where((0.0 <= offset) & (offset <= math.pi + DOMAIN_SLACK), offset / 2.0, np.nan)
    shape = np.broadcast_shapes(np.shape(x), half.shape)
    x = np.atleast_1d(np.broadcast_to(np.asarray(x, dtype=float), shape))
    c = np.where(x >= 0.0, x + half, np.nan)
    y = np.where(c <= _FLAT_C, x, np.nan)
    solve = (c > _FLAT_C) & (c <= math.pi + _C_SLACK)
    ys = 2.0 * _kepler_arr(c[solve]) - x[solve] - pick(offset, solve)
    if not np.isfinite(ys).all():
        raise SolverError("non-finite catch-up root")
    y[solve] = ys
    return y.reshape(shape)


def _bisect(left_of_root, lo, hi):
    """Bisect brackets [lo, hi] down to width 2*ROOT_TOL; returns midpoints."""
    while True:
        mid = 0.5 * (lo + hi)
        active = hi - lo > 2.0 * ROOT_TOL
        if not np.any(active):
            return mid
        left = left_of_root(mid)
        lo = np.where(active & left, mid, lo)
        hi = np.where(active & ~left, mid, hi)


def _bisect_float(left_of_root, lo: float, hi: float) -> float:
    """Scalar _bisect: the same midpoints, stop and updates on floats."""
    while hi - lo > 2.0 * ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if left_of_root(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _catch_g(nx: float, ny: float, t0: float, b: float, p: float):
    """Scalar _catch_g_arr: g(p) with dx, dy, sin a, cos a, dist for g'(p)."""
    a = -b - p
    ca, sa = math.cos(a), math.sin(a)
    dx, dy = nx - ca, ny - sa
    dist = float(np.hypot(dx, dy))
    return p - t0 - dist, dx, dy, sa, ca, dist


def _catch_g_arr(nx, ny, t0, b, p):
    """P-catch residual g(p), with dx, dy, sin a, cos a, dist for g'(p)."""
    a = -b - p
    ca, sa = np.cos(a), np.sin(a)
    del a
    dx, dy = nx - ca, ny - sa
    dist = np.hypot(dx, dy)
    return p - t0 - dist, dx, dy, sa, ca, dist


def _halley_step(p, g, dx, dy, sa, ca, dist):
    """One Halley step on the P-catch residual from _catch_g's tuple:
    d1 = d dist/dp, g' = 1 - d1, g'' = -(1 + dx cos a + dy sin a - d1**2)/dist.
    The step 2*g*g'/(2*g'**2 - g*g'') never divides by g', so each zero
    divisor that raises in the scalar twin leaves inf or NaN in the kernel."""
    d1 = (dy * ca - dx * sa) / dist
    g1 = 1.0 - d1
    g2 = -(1.0 + dx * ca + dy * sa - d1 * d1) / dist
    return p - 2.0 * g * g1 / (2.0 * g1 * g1 - g * g2)


def catch_on_circle(nx: float, ny: float, t0: float, b: float) -> float:
    """Re-aimed on-circle catch P for one point N = (nx, ny) left at t0.

    Scalar twin of catch_on_circle_arr: the same operations in the same
    order, so both return identical catches; non-finite input gives NaN.
    """
    if not math.isfinite(nx + ny + t0):
        return math.nan
    theta = (float(np.arctan2(ny, nx)) + b + t0) % TWO_PI
    try:
        p = t0 + 2.0 * _kepler(theta / 2.0) - theta if theta > 0.0 else t0
        for _ in range(_HALLEY_STEPS):
            p = _halley_step(p, *_catch_g(nx, ny, t0, b, p))
        settled = (_catch_g(nx, ny, t0, b, p - ROOT_TOL)[0] <= 0.0
                   and _catch_g(nx, ny, t0, b, p + ROOT_TOL)[0] >= 0.0)
    except (ZeroDivisionError, ValueError):  # the kernel's inf or NaN (math's sin of inf)
        settled = False
    if not settled:
        p = _bisect_float(lambda m: _catch_g(nx, ny, t0, b, m)[0] <= 0.0, t0, t0 + 2.0 + 1e-9)
    return p


def catch_on_circle_arr(nx, ny, t0, b):
    """Re-aimed on-circle catch P for each point N = (nx, ny) left at t0.

    Smallest p >= t0 with p - t0 = |N - partner(p)|, the partner at angle
    -b - p, within ROOT_TOL.  nx, ny and t0 are 1-d arrays of one length,
    and b is one float or such an array; non-finite entries come back as NaN.
    """
    nx, ny, t0 = (np.asarray(v, dtype=float) for v in (nx, ny, t0))
    finite = np.isfinite(nx + ny + t0)
    if not finite.all():
        p = np.full(t0.shape, np.nan)
        p[finite] = catch_on_circle_arr(nx[finite], ny[finite], t0[finite], pick(b, finite))
        return p
    theta = (np.arctan2(ny, nx) + b + t0) % TWO_PI
    with np.errstate(all="ignore"):  # 0/0 at theta = 0 and at N on the partner
        p = np.where(theta > 0.0, t0 + 2.0 * _kepler_arr(theta / 2.0) - theta, t0)
        for _ in range(_HALLEY_STEPS):
            p = _halley_step(p, *_catch_g_arr(nx, ny, t0, b, p))
        g_pm = _catch_g_arr(nx, ny, t0, b, p + _PLUS_MINUS)[0]
    bad = ~((g_pm[0] <= 0.0) & (g_pm[1] >= 0.0))
    if bad.any():
        nb, yb, tb, bb = nx[bad], ny[bad], t0[bad], pick(b, bad)
        p[bad] = _bisect(lambda m: _catch_g_arr(nb, yb, tb, bb, m)[0] <= 0.0,
                         tb, tb + 2.0 + 1e-9)
    return p
