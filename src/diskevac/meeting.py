"""Safeguarded Newton kernels for the two catch equations.

Catch-up: y = x + 2*sin((x + y + offset)/2).  The residual
f(y) = x + 2*sin(s) - y, s = (x + y + offset)/2, has
f'(y) = cos(s) - 1 = -2*sin(s/2)**2 <= 0, so the root on [x, x + 2] is
unique.  f(x) = 2*sin((2x + offset)/2) >= 0 holds whenever
2x + offset <= 2*pi.  Newton starts at y0 = min(x + 2, 2*pi - x - offset),
where f(y0) <= 0 and s <= pi: f is concave and decreasing on [root, y0],
so the iterates fall monotonically onto the root with no bracket to keep.

P catch: the smallest p >= t0 with p - t0 = |N - partner(p)|, the partner
at angle -b - p.  g(p) = p - t0 - dist is nondecreasing (|d dist/dp| <= 1)
with g(t0) = -dist <= 0 and g(t0 + 2) >= 0 for N in the disk; Newton steps
that leave the current bracket are replaced by bisection.

Both kernels stop on root accuracy, not on the residual.  A point stops
at its first step below 1e-9 (the catch-up kernel takes one polishing
step after it), and its residual must then change sign within ROOT_TOL
on either side of the root.  A point that fails, or that has not
stopped after MAX_ITER steps, is bisected on its initial bracket down to
that width.  Where the derivative is tiny at the root (catch-up: offset
0 and x below about 1e-12; P catch: N on the circle next to the partner)
the sign change is that of the computed residual, and the true error is
its rounding noise over the derivative.  The catch-up `tol` is a
separate residual gate: a root with |f| >= tol raises SolverError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import TWO_PI

DEFAULT_TOL = 1e-6
GATE_TOL = 1e-12  # residual gate of solve_meeting_xy/_arr unless told otherwise
MAX_ITER = 200
ROOT_TOL = 1e-12  # enforced bound on |root - returned root|
_BRACKET_SLACK = 1e-12
_NEWTON_STOP = 1e-9  # a point stops at its first step below this
_PLUS_MINUS = np.array([[-ROOT_TOL], [ROOT_TOL]])  # rows: root - tol, root + tol


class RegimeError(ValueError):
    """Query outside the regime where the catch-up geometry is valid."""


class SolverError(RuntimeError):
    """A catch-up root failed its residual gate."""


@dataclass(frozen=True)
class MeetQuery:
    """One catch-up equation instance.

    x is the arc already traveled by the discovering robot, offset the
    additive separation inside the sine (0, d or zeta), tol the residual
    gate.
    """

    x: float
    offset: float
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not self.x >= 0.0:
            raise RegimeError(f"x must be nonnegative, got {self.x}")
        if not (0.0 <= self.offset <= math.pi + 1e-12):
            raise RegimeError(f"offset {self.offset} outside [0, pi]")
        if not self.tol > 0.0:
            raise RegimeError("tol must be positive")
        if self.x + self.offset > 2.0 * math.pi + 1e-9:
            raise RegimeError(
                f"x + offset = {self.x + self.offset} beyond 2*pi: chord "
                "geometry no longer applies"
            )


def residual(x: float, offset: float, y: float) -> float:
    return x + 2.0 * math.sin((x + y + offset) / 2.0) - y


def _residual_arr(x, offset, y):
    return x + 2.0 * np.sin((x + y + offset) / 2.0) - y


def solve_meeting(q: MeetQuery) -> float:
    """Root of the catch-up equation within ROOT_TOL, residual below q.tol.

    Scalar twin of solve_meeting_arr: the same operations in the same
    order, so both return identical roots.
    """
    x, offset = q.x, q.offset
    f_lo = residual(x, offset, x)
    if f_lo < -_BRACKET_SLACK:
        raise RegimeError(
            f"no catch-up root at or beyond x={x} (offset={offset}): "
            "bracket endpoints do not straddle a root"
        )
    if residual(x, offset, x + ROOT_TOL) <= 0.0 and abs(f_lo) < q.tol:
        return x
    y0 = min(x + 2.0, TWO_PI - x - offset)
    y = y0
    polish = False
    for _ in range(MAX_ITER):
        s = (x + y + offset) / 2.0
        h = math.sin(s / 2.0)
        step = (x + 2.0 * math.sin(s) - y) / (-2.0 * h * h)
        y = y - step
        if polish:
            break
        polish = abs(step) < _NEWTON_STOP
    else:
        y = math.nan  # rounding noise outweighs f' (x near 0): bisect below
    if not (residual(x, offset, y - ROOT_TOL) >= 0.0
            and residual(x, offset, y + ROOT_TOL) <= 0.0):
        y = float(_bisect(lambda m: _residual_arr(x, offset, m) > 0.0,
                          np.array([x]), np.array([y0]))[0])
    if not abs(residual(x, offset, y)) < q.tol:
        raise SolverError(f"residual gate {q.tol} not met at y={y} for {q}")
    return y


def solve_meeting_xy(x: float, offset: float, tol: float = GATE_TOL) -> float:
    return solve_meeting(MeetQuery(x, offset, tol))


def solve_meeting_arr(x, offset, tol: float = GATE_TOL):
    """Vectorized solve_meeting over an array of x values (shared offset).

    Each point runs the scalar iteration; converged points leave the
    active set.  Entries outside the valid regime (f(x) < 0) come back
    as NaN.
    """
    shape = np.shape(x)
    x = np.asarray(x, dtype=float).ravel()
    f_lo = _residual_arr(x, offset, x)
    valid = f_lo >= -_BRACKET_SLACK
    early = (valid & (_residual_arr(x, offset, x + ROOT_TOL) <= 0.0)
             & (np.abs(f_lo) < tol))
    y = np.where(early, x, np.nan)
    newton = np.flatnonzero(valid & ~early)
    xn = x[newton]
    y0 = np.minimum(xn + 2.0, TWO_PI - xn - offset)

    idx, xa, ya = newton, xn, y0
    polish = np.zeros(idx.size, dtype=bool)
    for _ in range(MAX_ITER):
        if idx.size == 0:
            break
        s = (xa + ya + offset) / 2.0
        h = np.sin(s / 2.0)
        step = (xa + 2.0 * np.sin(s) - ya) / (-2.0 * h * h)
        ya = ya - step
        if polish.any():
            y[idx[polish]] = ya[polish]
            keep = ~polish
            idx, xa, ya, step = idx[keep], xa[keep], ya[keep], step[keep]
        polish = np.abs(step) < _NEWTON_STOP
    y[idx] = np.nan  # rounding noise outweighs f' (x near 0): bisect below

    f_pm = _residual_arr(xn, offset, y[newton] + _PLUS_MINUS)
    bad = ~((f_pm[0] >= 0.0) & (f_pm[1] <= 0.0))
    if bad.any():
        xb = xn[bad]
        y[newton[bad]] = _bisect(lambda m: _residual_arr(xb, offset, m) > 0.0,
                                 xb, y0[bad])
    if not np.all(np.abs(_residual_arr(xn, offset, y[newton])) < tol):
        raise SolverError(f"residual gate {tol} not met")
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


def _catch_g(nx, ny, t0, b, p):
    """P-catch residual g(p), with dx, dy, sin a, cos a, dist for g'(p)."""
    a = -b - p
    ca, sa = np.cos(a), np.sin(a)
    dx, dy = nx - ca, ny - sa
    dist = np.hypot(dx, dy)
    return p - t0 - dist, dx, dy, sa, ca, dist


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
            gv, dx, dy, sa, ca, dist = _catch_g(nxa, nya, ta, b, p)
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

    g_pm = _catch_g(nx, ny, t0, b, p_out + _PLUS_MINUS)[0]
    bad = ~((g_pm[0] <= 0.0) & (g_pm[1] >= 0.0))
    if bad.any():
        nb, yb, tb = nx[bad], ny[bad], t0[bad]
        p_out[bad] = _bisect(lambda m: _catch_g(nb, yb, tb, b, m)[0] <= 0.0,
                             tb, tb + 2.0 + 1e-9)
    return p_out
