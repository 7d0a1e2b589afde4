"""Root kernels for the two catch equations.

Catch-up: y = x + 2*sin((x + y + offset)/2).  The residual
f(y) = x + 2*sin(s) - y, s = (x + y + offset)/2, has
f'(y) = cos(s) - 1 = -2*sin(s/2)**2 <= 0, so the root on [x, x + 2] is
unique.  f(x) = 2*sin((2x + offset)/2) >= 0 holds whenever
2x + offset <= 2*pi.  With u = s the equation reads u - sin u = c,
c = x + offset/2 in [0, pi]: Kepler's equation at eccentricity 1.  It is
solved with no loop (Markley, Celest. Mech. Dyn. Astron. 63, 1995):
a starter within 3.6e-4 of u, then one fifth-order correction step,
which needs only sin u and sin(u/2) since 1 - cos u = 2*sin(u/2)**2;
the root is y = 2u - x - offset.  Below u = 0.25, u - sin u comes from
its series, as the difference cancels there.

P catch: the smallest p >= t0 with p - t0 = |N - partner(p)|, the partner
at angle -b - p.  g(p) = p - t0 - dist is nondecreasing (|d dist/dp| <= 1)
with g(t0) = -dist <= 0 and g(t0 + 2) >= 0 for N in the disk.  Newton
runs from t0; steps that leave the current bracket are replaced by
bisection, and a point stops at its first step below 1e-9.

Both kernels stop on root accuracy, not on the residual: the residual
must change sign within ROOT_TOL on either side of the returned root.
A point that fails, or a P catch not stopped after MAX_ITER steps, is
bisected on its initial bracket ([x, min(x + 2, 2*pi - x - offset)],
[t0, t0 + 2 + 1e-9]) down to that width.  Where the derivative is tiny
at the root (catch-up: offset 0 and x below about 1e-12; P catch: N on
the circle next to the partner) the sign change is that of the computed
residual, and the true error is its rounding noise over the derivative.
A separate residual gate follows: a catch-up root with |f| >= GATE_TOL
raises SolverError.

Each kernel has a scalar twin for one point: solve_meeting beside
solve_meeting_arr, catch_on_circle beside catch_on_circle_arr.  A twin
runs the same operations in the same order on floats (math's sin, cos
and sqrt; numpy's hypot and cbrt, since math's round differently), the
same ROOT_TOL sign check and the same bisection fallback on length-1
arrays, so it returns the kernel's roots bit for bit without numpy's
per-call cost.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import TWO_PI

GATE_TOL = 1e-12  # residual gate of solve_meeting and solve_meeting_arr
MAX_ITER = 200
ROOT_TOL = 1e-12  # enforced bound on |root - returned root|
_BRACKET_SLACK = 1e-12
_NEWTON_STOP = 1e-9  # a point stops at its first step below this
_PLUS_MINUS = np.array([[-ROOT_TOL], [ROOT_TOL]])  # rows: root - tol, root + tol
# Markley's starter at e = 1: alpha = (3.8*pi^2 - 0.8*pi*c)/(pi^2 - 6)
_ALPHA_0, _ALPHA_1, _ALPHA_2 = 3.8 * math.pi * math.pi, 0.8 * math.pi, math.pi * math.pi - 6.0
_SERIES_BELOW = 0.25  # u - sin u from its series below this u, where it cancels


class RegimeError(ValueError):
    """Query outside the regime where the catch-up geometry is valid."""


class SolverError(RuntimeError):
    """A catch-up root failed its residual gate."""


def residual(x: float, offset: float, y: float) -> float:
    return x + 2.0 * math.sin((x + y + offset) / 2.0) - y


def _residual_arr(x, offset, y):
    return x + 2.0 * np.sin((x + y + offset) / 2.0) - y


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
    s, h = np.sin(u), np.sin(u / 2.0)
    g = u - s
    small = u < _SERIES_BELOW
    g[small] = _u_minus_sin_series(u[small])
    return u + _fifth_order_step(g - c, s, h)


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
    """Root of the catch-up equation within ROOT_TOL, residual below GATE_TOL.

    x is the arc already traveled by the discovering robot, offset the
    additive separation inside the sine (0, d or zeta).  Scalar twin of
    solve_meeting_arr: the same operations in the same order, so both
    return identical roots.
    """
    if not x >= 0.0:
        raise RegimeError(f"x must be nonnegative, got {x}")
    if not (0.0 <= offset <= math.pi + 1e-12):
        raise RegimeError(f"offset {offset} outside [0, pi]")
    if x + offset > 2.0 * math.pi + 1e-9:
        raise RegimeError(
            f"x + offset = {x + offset} beyond 2*pi: chord geometry no longer applies"
        )
    f_lo = residual(x, offset, x)
    if f_lo < -_BRACKET_SLACK:
        raise RegimeError(
            f"no catch-up root at or beyond x={x} (offset={offset}): "
            "bracket endpoints do not straddle a root"
        )
    if abs(f_lo) < GATE_TOL and residual(x, offset, x + ROOT_TOL) <= 0.0:
        return x
    y = 2.0 * _kepler(x + offset / 2.0) - x - offset
    if not (residual(x, offset, y - ROOT_TOL) >= 0.0
            and residual(x, offset, y + ROOT_TOL) <= 0.0):
        y0 = min(x + 2.0, TWO_PI - x - offset)
        y = float(_bisect(lambda m: _residual_arr(x, offset, m) > 0.0,
                          np.array([x]), np.array([y0]))[0])
    if not abs(residual(x, offset, y)) < GATE_TOL:
        raise SolverError(f"residual gate {GATE_TOL} not met at y={y} "
                          f"for x={x}, offset={offset}")
    return y


def solve_meeting_arr(x, offset):
    """Vectorized solve_meeting over an array of x values (shared offset).

    Entries outside the valid regime (f(x) < 0) come back as NaN.
    """
    shape = np.shape(x)
    x = np.asarray(x, dtype=float).ravel()
    f_lo = _residual_arr(x, offset, x)
    valid = f_lo >= -_BRACKET_SLACK
    early = valid & (np.abs(f_lo) < GATE_TOL)
    xe = x[early]
    early[early] = _residual_arr(xe, offset, xe + ROOT_TOL) <= 0.0  # and a sign change
    y = np.where(early, x, np.nan)
    solve = np.flatnonzero(valid & ~early)
    xs = x[solve]
    ys = 2.0 * _kepler_arr(xs + offset / 2.0) - xs - offset

    f_pm = _residual_arr(xs, offset, ys + _PLUS_MINUS)
    bad = ~((f_pm[0] >= 0.0) & (f_pm[1] <= 0.0))
    if bad.any():
        xb = xs[bad]
        ys[bad] = _bisect(lambda m: _residual_arr(xb, offset, m) > 0.0,
                          xb, np.minimum(xb + 2.0, TWO_PI - xb - offset))
    if not np.all(np.abs(_residual_arr(xs, offset, ys)) < GATE_TOL):
        raise SolverError(f"residual gate {GATE_TOL} not met")
    y[solve] = ys
    return y.reshape(shape)


def _bisect(left_of_root, lo, hi):
    """Bisect brackets [lo, hi] down to width 2*ROOT_TOL; returns midpoints."""
    while True:
        active = hi - lo > 2.0 * ROOT_TOL
        if not np.any(active):
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        left = left_of_root(mid)
        lo = np.where(active & left, mid, lo)
        hi = np.where(active & ~left, mid, hi)


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
    dx, dy = nx - ca, ny - sa
    dist = np.hypot(dx, dy)
    return p - t0 - dist, dx, dy, sa, ca, dist


def catch_on_circle(nx: float, ny: float, t0: float, b: float) -> float:
    """Re-aimed on-circle catch P for one point N = (nx, ny) left at t0.

    Scalar twin of catch_on_circle_arr: the same operations in the same
    order, so both return identical catches; non-finite input gives NaN.
    """
    if not math.isfinite(nx + ny + t0):
        return math.nan
    p, lo, hi = t0, t0, t0 + 2.0 + 1e-9
    for _ in range(MAX_ITER):
        gv, dx, dy, sa, ca, dist = _catch_g(nx, ny, t0, b, p)
        if gv > 0.0:
            hi = p
        else:
            lo = p
        try:
            newton = p - gv / (1.0 + (dx * sa - dy * ca) / dist)
        except ZeroDivisionError:  # the kernel's inf or NaN: a bisection step
            newton = math.nan
        nxt = newton if lo <= newton <= hi else 0.5 * (lo + hi)
        done = abs(nxt - p) < _NEWTON_STOP
        p = nxt
        if done:
            break
    else:
        p = math.nan  # unsettled after MAX_ITER steps: bisect below
    if not (_catch_g(nx, ny, t0, b, p - ROOT_TOL)[0] <= 0.0
            and _catch_g(nx, ny, t0, b, p + ROOT_TOL)[0] >= 0.0):
        p = float(_bisect(lambda m: _catch_g_arr(nx, ny, t0, b, m)[0] <= 0.0,
                          np.array([t0]), np.array([t0 + 2.0 + 1e-9]))[0])
    return p


def catch_on_circle_arr(nx, ny, t0, b: float):
    """Re-aimed on-circle catch P for each point N = (nx, ny) left at t0.

    Smallest p >= t0 with p - t0 = |N - partner(p)|, the partner at angle
    -b - p, within ROOT_TOL.  nx, ny and t0 are 1-d arrays of one length;
    non-finite entries come back as NaN.
    """
    nx, ny, t0 = (np.asarray(v, dtype=float) for v in (nx, ny, t0))
    finite = np.isfinite(nx + ny + t0)
    if not finite.all():
        p = np.full(t0.shape, np.nan)
        p[finite] = catch_on_circle_arr(nx[finite], ny[finite], t0[finite], b)
        return p
    p_out = np.empty(t0.shape)
    idx, nxa, nya, ta = np.arange(t0.size), nx, ny, t0
    p, lo, hi = t0, t0, t0 + 2.0 + 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(MAX_ITER):
            if idx.size == 0:
                break
            gv, dx, dy, sa, ca, dist = _catch_g_arr(nxa, nya, ta, b, p)
            right = gv > 0.0
            lo = np.where(right, lo, p)
            hi = np.where(right, p, hi)
            # g' = 1 + (dx sin a - dy cos a)/dist; g == 0 gives a zero step
            newton = p - gv / (1.0 + (dx * sa - dy * ca) / dist)
            nxt = np.where((newton >= lo) & (newton <= hi), newton, 0.5 * (lo + hi))
            done = np.abs(nxt - p) < _NEWTON_STOP
            p = nxt
            if done.any():
                p_out[idx[done]] = p[done]
                keep = ~done
                idx, nxa, nya, ta = idx[keep], nxa[keep], nya[keep], ta[keep]
                p, lo, hi = p[keep], lo[keep], hi[keep]
    p_out[idx] = np.nan  # unsettled after MAX_ITER steps: bisect below

    g_pm = _catch_g_arr(nx, ny, t0, b, p_out + _PLUS_MINUS)[0]
    bad = ~((g_pm[0] <= 0.0) & (g_pm[1] >= 0.0))
    if bad.any():
        nb, yb, tb = nx[bad], ny[bad], t0[bad]
        p_out[bad] = _bisect(lambda m: _catch_g_arr(nb, yb, tb, b, m)[0] <= 0.0,
                             tb, tb + 2.0 + 1e-9)
    return p_out
