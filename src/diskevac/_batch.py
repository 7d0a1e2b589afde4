"""Vectorized twins of the scalar evaluators, used by the worst-case sweeps.

Each function evaluates one (d, zeta) cell over a whole grid of exit
positions with numpy.  The branch structure mirrors the scalar
dispatchers leg for leg; tests assert pointwise agreement between the two
implementations, which is what makes the duplication safe.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import ANGLE_TOL, TWO_PI
from .meeting import catch_on_circle_arr as _catch_p_arr  # module name perfbench wraps
from .meeting import solve_meeting_arr
from .scenarios import SIM_TOL, TraceInvalidError

TAG_LIST = (
    "W-sim", "W1a", "W1b", "W1c", "W2", "W3a", "W3b", "WL-L1", "WL-L2",
    "F0-sim", "F0-1", "F0-2a", "F0-2b", "F0-3a", "F0-3b", "F0-4a", "F0-4b",
    "F0-4c",
    "Fd-sim", "Fd-1a", "Fd-1b", "Fd-1c", "Fd-2a", "Fd-2b", "Fd-2c",
    "FL-1", "FL-2", "FL-3", "FL-4",
)
_TAG_CODE = {tag: i for i, tag in enumerate(TAG_LIST)}


def encode_tag(tag: str) -> int:
    return _TAG_CODE[tag]


def decode_tag(code: int) -> str:
    return TAG_LIST[int(code)]


def exit_grid(step: float) -> np.ndarray:
    n = int(math.floor(TWO_PI / step - 1e-9)) + 1
    return np.arange(n, dtype=float) * step


def _norm(a):
    """np.mod into [0, 2*pi), snapping a rounded 2*pi to 0 as normalize_angle does."""
    t = np.mod(a, TWO_PI)
    return np.where(t >= TWO_PI, 0.0, t)


def _ch(arc):
    """Chord of an arc, tolerant of mod-2*pi wrapping."""
    return 2.0 * np.sin(np.mod(arc, TWO_PI) / 2.0)


def _close(a, b, tol=ANGLE_TOL):
    return np.abs(np.mod(a - b + math.pi, TWO_PI) - math.pi) <= tol


def _hit(arc):
    """Travel time to an exit; near-2*pi wraps snap to 'on the start point'."""
    t = np.mod(arc, TWO_PI)
    return np.where(t >= TWO_PI - ANGLE_TOL, 0.0, t)


def _frame(d: float, zeta: float, e1s: np.ndarray):
    """First-finder frame: x, found/other angles, simultaneity mask."""
    b = zeta / 2.0
    e2s = np.mod(e1s + d, TWO_PI)
    t1a = _hit(e1s - b)
    t1b = _hit(e2s - b)
    t2a = _hit(-b - e1s)
    t2b = _hit(-b - e2s)
    t1 = np.minimum(t1a, t1b)
    found1 = np.where(t1a <= t1b, e1s, e2s)
    other1 = np.where(t1a <= t1b, e2s, e1s)
    t2 = np.minimum(t2a, t2b)
    found2 = np.where(t2a <= t2b, e1s, e2s)
    other2 = np.where(t2a <= t2b, e2s, e1s)
    sim = np.abs(t1 - t2) <= SIM_TOL
    # Simultaneous finds where both robots stand on the same exit point:
    # co-located, so they exchange and leave immediately.
    sim_trivial = sim & (_close(found1, found2) | (t1 <= ANGLE_TOL))
    mirrored = t2 < t1
    x = np.minimum(t1, t2)
    found = np.where(mirrored, np.mod(-found2, TWO_PI), found1)
    other = np.where(mirrored, np.mod(-other2, TWO_PI), other1)
    return x, found, other, sim, sim_trivial


# ---------------------------------------------------------------------------
# wireless
# ---------------------------------------------------------------------------

def batch_wireless(d: float, zeta: float, labeled: bool, e1s: np.ndarray):
    b = zeta / 2.0
    x, found, other, sim, _ = _frame(d, zeta, e1s)
    n = e1s.size
    times = np.empty(n)
    codes = np.empty(n, dtype=np.int16)

    big_d = np.mod(-b - x, TWO_PI)  # receiver position when the message lands

    def chord_from_d(c):
        return _ch(np.mod(c - big_d, TWO_PI))

    def swept(c):
        by_finder = _norm(c - b) <= x + ANGLE_TOL
        by_receiver = _norm(-b - c) <= x + ANGLE_TOL
        return by_finder, by_receiver

    def in_gap(c):
        u = _norm(c + b)
        return (u > ANGLE_TOL) & (u < zeta - ANGLE_TOL)

    if labeled:
        w_x = chord_from_d(found)
        w_o = chord_from_d(other)
        times = x + np.minimum(w_x, w_o)
        codes = np.where(in_gap(other), encode_tag("WL-L2"), encode_tag("WL-L1"))
    elif d < ANGLE_TOL:
        times = x + chord_from_d(found)
        codes = np.full(n, encode_tag("W3b"), dtype=np.int16)
    else:
        cb = _norm(found - d)
        ca = _norm(found + d)
        f_b, r_b = swept(cb)
        f_a, r_a = swept(ca)
        ruled_b = (f_b | r_b) & ~_close(cb, found)
        ruled_a = (f_a | r_a) & ~_close(ca, found)
        if np.any(ruled_b & ruled_a & ~sim):
            raise TraceInvalidError("wireless: both candidates ruled out")
        w_x = chord_from_d(found)
        between = _ch(np.minimum(2.0 * d, TWO_PI))
        w_b = chord_from_d(cb) + between
        w_a = chord_from_d(ca) + between

        go_x = w_x <= np.minimum(w_b, w_a)
        first_cb = ~go_x & (w_b <= w_a)
        t_open = np.where(
            go_x, x + w_x,
            np.where(
                first_cb,
                np.where(_close(other, cb), x + chord_from_d(cb),
                         x + chord_from_d(cb) + between),
                np.where(_close(other, ca), x + chord_from_d(ca),
                         x + chord_from_d(ca) + between),
            ),
        )
        gap_b, gap_a = in_gap(cb), in_gap(ca)
        c_open = np.where(
            ~gap_b & ~gap_a, encode_tag("W1a"),
            np.where(gap_b & gap_a, encode_tag("W1c"), encode_tag("W1b")),
        )

        certain = np.where(ruled_a, cb, ca)
        w_c = chord_from_d(certain)
        t_cert = x + np.minimum(w_x, w_c)
        c_cert = np.where(
            ruled_a, encode_tag("W2"),
            np.where(r_b, encode_tag("W3a"), encode_tag("W3b")),
        )

        open_mask = ~ruled_b & ~ruled_a
        times = np.where(open_mask, t_open, t_cert)
        codes = np.where(open_mask, c_open, c_cert).astype(np.int16)

    times = np.where(sim, x, times)
    codes = np.where(sim, encode_tag("W-sim"), codes).astype(np.int16)
    return times, codes


# ---------------------------------------------------------------------------
# face-to-face shared pieces
# ---------------------------------------------------------------------------

def _intercept_arr(qx, qy, tq, p0x, p0y, t0, p1x, p1y, slack=0.0):
    """Vector form of the equal-elapsed interception (see face_to_face)."""
    ux, uy = p1x - p0x, p1y - p0y
    seg = np.hypot(ux, uy)
    delta = t0 - tq
    lateness = np.hypot(qx - p1x, qy - p1y) - (seg + delta)
    ok = lateness <= slack
    safe = np.where(seg > ANGLE_TOL, seg, 1.0)
    ux, uy = ux / safe, uy / safe
    wx, wy = qx - p0x, qy - p0y
    denom = 2.0 * (wx * ux + wy * uy + delta)
    degen = (np.abs(denom) <= 1e-14) | (seg <= ANGLE_TOL)
    s = (wx * wx + wy * wy - delta * delta) / np.where(degen, 1.0, denom)
    s = np.where(degen, seg, s)
    s = np.clip(np.maximum(s, -delta), 0.0, seg)
    nx = p0x + s * ux
    ny = p0y + s * uy
    return ok, nx, ny, t0 + s


def _second_exit_arr(a_s, d):
    """Second finder's exit time (own frame), vectorized.

    Mirrors _second_finder_same: exit in place when the second find pins
    the layout (a_s >= d), otherwise run the case-3 dance with the
    guaranteed miss at N.
    """
    out = a_s.copy()
    dance = (a_s < d - ANGLE_TOL) & (a_s > d / 2.0)
    if not np.any(dance):
        return out
    idx = np.flatnonzero(dance)
    a = a_s[idx]
    phi = d - a
    m = solve_meeting_arr(phi, 0.0)
    gate = m < TWO_PI - 2.0 * d + a
    qx, qy = np.cos(a), np.sin(a)
    p0x, p0y = np.cos(-phi), np.sin(-phi)
    p1x, p1y = np.cos(m), np.sin(m)
    ok, nx, ny, tn = _intercept_arr(qx, qy, a, p0x, p0y, phi, p1x, p1y)
    use = gate & ok
    cax, cay = np.cos(a + d), np.sin(a + d)
    w_own = np.hypot(nx - qx, ny - qy)
    w_ca = np.hypot(nx - cax, ny - cay)
    nn_time = tn + np.minimum(w_own, w_ca)
    out[idx] = np.where(use, nn_time, a)
    return out


# ---------------------------------------------------------------------------
# face-to-face, zeta = 0, unlabeled
# ---------------------------------------------------------------------------

def batch_f2f_same(d: float, e1s: np.ndarray):
    x, found, other, sim, sim_trivial = _frame(d, 0.0, e1s)
    if np.any(sim & ~sim_trivial):
        raise TraceInvalidError("symmetric simultaneous placement on the grid")
    n = e1s.size
    ahead = _close(other, found + d)
    behind = ~ahead & _close(other, found - d)
    if np.any(~ahead & ~behind):
        raise TraceInvalidError("other exit not at distance d")

    y = solve_meeting_arr(x, 0.0)
    t_a = np.mod(-(found + d), TWO_PI)

    c1 = x + y <= d
    c2 = ~c1 & (x <= d / 2.0)
    c3 = ~c1 & ~c2 & (x < d)
    c4 = ~c1 & ~c2 & ~c3
    if np.any((c3 | c4) & behind & ~sim):
        raise TraceInvalidError("first finder in case 3/4 with a trailing exit")

    times = np.empty(n)
    codes = np.empty(n, dtype=np.int16)

    # case 1
    w_x = _ch(x + y)
    hop_cb = _ch(np.maximum(d - x - y, 0.0))
    between = _ch(np.minimum(2.0 * d, TWO_PI))
    t_c1 = np.where(
        w_x <= hop_cb + between, y + w_x,
        np.where(behind, y + hop_cb, y + hop_cb + between),
    )

    # case 2
    g2a = y <= t_a
    t_2a_ahead = y + np.minimum(_ch(x + y), _ch(t_a - y))
    # 2a with the exit behind: the partner found it and intercepts at N
    t_2a_behind = np.full(n, np.nan)
    m2 = (c2 & g2a & behind)
    if np.any(m2):
        idx = np.flatnonzero(m2)
        a_s = d - x[idx]          # the intercepting partner's own arc
        y_i = y[idx]              # phantom target arc equals the real chase
        qx, qy = np.cos(a_s), np.sin(a_s)
        p0x, p0y = np.cos(-x[idx]), np.sin(-x[idx])
        p1x, p1y = np.cos(y_i), np.sin(y_i)
        ok, nx, ny, tn = _intercept_arr(qx, qy, a_s, p0x, p0y, x[idx],
                                        p1x, p1y, slack=1e-7)
        if not np.all(ok):
            raise TraceInvalidError("partner failed to intercept a live chase")
        w_own = np.hypot(nx - qx, ny - qy)
        w_trail = np.hypot(nx - p0x, ny - p0y)
        t_2a_behind[idx] = tn + np.minimum(w_own, w_trail)
    t_2b = np.where(behind, np.maximum(x, d - x),
                    np.maximum(x, _second_exit_arr(t_a, d)))

    # case 3 (exit always ahead here)
    t_c3 = np.full(n, np.nan)
    c_c3 = np.full(n, encode_tag("F0-3b"), dtype=np.int16)
    if np.any(c3):
        idx = np.flatnonzero(c3)
        xi, yi, tai = x[idx], y[idx], t_a[idx]
        phi = d - xi
        m = solve_meeting_arr(phi, 0.0)
        gate = m < TWO_PI - 2.0 * d + xi
        qx, qy = np.cos(xi), np.sin(xi)
        p0x, p0y = np.cos(-phi), np.sin(-phi)
        p1x, p1y = np.cos(m), np.sin(m)
        ok, nx, ny, tn = _intercept_arr(qx, qy, xi, p0x, p0y, phi, p1x, p1y)
        p = _catch_p_arr(nx, ny, tn, 0.0)
        cax, cay = np.cos(xi + d), np.sin(xi + d)
        s_side = np.maximum(xi, _second_exit_arr(tai, d))

        p_viable = gate & ok & (p < tai)
        px, py = np.cos(-p), np.sin(-p)
        t_pmeet = p + np.minimum(np.hypot(px - qx, py - qy),
                                 np.hypot(px - cax, py - cay))
        t_nn = np.maximum(
            tn + np.minimum(np.hypot(nx - qx, ny - qy),
                            np.hypot(nx - cax, ny - cay)),
            s_side,
        )
        chase_ok = gate & ~ok & (yi < tai)
        t_chase = yi + np.minimum(_ch(xi + yi), _ch(tai - yi))

        sub_t = np.where(
            p_viable, t_pmeet,
            np.where(gate & ok, t_nn,
                     np.where(chase_ok, t_chase, s_side)),
        )
        sub_c = np.where(
            gate & (ok | (yi < tai)),
            encode_tag("F0-3a"), encode_tag("F0-3b"),
        )
        t_c3[idx] = sub_t
        c_c3[idx] = sub_c

    # case 4
    g4a = y < t_a
    t_c4 = np.where(g4a, y + np.minimum(_ch(x + y), _ch(t_a - y)),
                    np.maximum(x, _second_exit_arr(t_a, d)))
    c_c4 = np.where(g4a, encode_tag("F0-4a"),
                    np.where(t_a >= d - ANGLE_TOL, encode_tag("F0-4c"),
                             encode_tag("F0-4b")))

    times = np.select(
        [sim, c1, c2 & g2a & ahead, c2 & g2a & behind, c2 & ~g2a, c3, c4],
        [x, t_c1, t_2a_ahead, t_2a_behind, t_2b, t_c3, t_c4],
    )
    codes = np.select(
        [sim, c1, c2 & g2a & ahead, c2 & g2a & behind, c2 & ~g2a, c3, c4],
        [encode_tag("F0-sim"), encode_tag("F0-1"), encode_tag("F0-2a"),
         encode_tag("F0-3a"), encode_tag("F0-2b"), c_c3, c_c4],
    ).astype(np.int16)
    return times, codes


# ---------------------------------------------------------------------------
# face-to-face, zeta = d, unlabeled
# ---------------------------------------------------------------------------

def batch_f2f_diff(d: float, e1s: np.ndarray):
    b = d / 2.0
    x, found, other, sim, sim_trivial = _frame(d, d, e1s)
    if np.any(sim & ~sim_trivial):
        raise TraceInvalidError("symmetric simultaneous placement on the grid")
    n = e1s.size
    ahead = _close(other, found + d)
    behind = ~ahead & _close(other, found - d)
    if np.any(~ahead & ~behind):
        raise TraceInvalidError("other exit not at distance d")

    y = solve_meeting_arr(x, d)
    t_a = np.mod(-b - (found + d), TWO_PI)
    t_x = np.mod(-b - found, TWO_PI)

    c2 = x >= d
    if np.any(c2 & behind & ~sim):
        raise TraceInvalidError("case 2 with an exit at the ruled-out candidate")

    # case 2
    t_stop = np.minimum(t_a, t_x)
    g2c = y < t_stop
    t_2c = y + np.minimum(_ch(x + y + d), _ch(np.mod(x + y + 2.0 * d, TWO_PI)))
    t_2b = np.maximum(x, t_stop)

    # case 1
    g1a = t_a > y
    t_1a = y + _ch(x + y + d)
    seg = _ch(np.full(n, d))
    s = np.clip((t_a + seg - x) / 2.0, 0.0, seg)
    t_1b = x + s + np.minimum(s, seg - s)
    c_1b = np.where(t_a >= d - ANGLE_TOL, encode_tag("Fd-2a"), encode_tag("Fd-1b"))

    # 1c: gap exit, miss at N, catch at P (or the degenerate direct chase)
    t_1c = np.full(n, np.nan)
    m1c = ~c2 & ~g1a & behind
    if np.any(m1c):
        idx = np.flatnonzero(m1c)
        xi, yi = x[idx], y[idx]
        fi = found[idx]
        si = s[idx]
        seg_i = seg[idx]
        xpx, xpy = np.cos(fi), np.sin(fi)
        capx, capy = np.cos(fi + d), np.sin(fi + d)
        cbpx, cbpy = np.cos(fi - d), np.sin(fi - d)
        t_chase = yi + np.minimum(_ch(xi + yi + d), _ch(xi + yi))
        ux, uy = (capx - xpx) / seg_i, (capy - xpy) / seg_i
        nx, ny = xpx + si * ux, xpy + si * uy
        tn = xi + si
        p = _catch_p_arr(nx, ny, tn, b)
        ppx, ppy = np.cos(-b - p), np.sin(-b - p)
        hop = np.minimum(np.hypot(ppx - xpx, ppy - xpy),
                         np.hypot(ppx - cbpx, ppy - cbpy))
        t_pm = p + hop
        t_def = np.maximum(t_pm, t_x[idx])
        t_1c[idx] = np.where(si <= ANGLE_TOL, t_chase,
                             np.where(p <= t_x[idx], t_pm, t_def))

    times = np.select(
        [sim, c2 & g2c, c2, ~c2 & g1a, ~c2 & ahead, m1c],
        [x, t_2c, t_2b, t_1a, t_1b, t_1c],
    )
    codes = np.select(
        [sim, c2 & g2c, c2, ~c2 & g1a, ~c2 & ahead, m1c],
        [encode_tag("Fd-sim"), encode_tag("Fd-2c"), encode_tag("Fd-2b"),
         encode_tag("Fd-1a"), c_1b, encode_tag("Fd-1c")],
    ).astype(np.int16)
    return times, codes


# ---------------------------------------------------------------------------
# face-to-face, labeled, generic zeta
# ---------------------------------------------------------------------------

def batch_f2f_labeled(d: float, zeta: float, e1s: np.ndarray):
    b = zeta / 2.0
    x, found, other, sim, _ = _frame(d, zeta, e1s)
    ahead = _close(other, found + d)
    y = solve_meeting_arr(x, zeta)
    t_o = np.mod(-b - other, TWO_PI)

    chase = t_o > y
    t_chase = y + np.minimum(_ch(x + y + zeta), _ch(t_o - y))
    t_exit = np.maximum(x, t_o)
    times = np.where(chase & ~sim, t_chase, np.where(sim, x, t_exit))
    codes = np.where(
        chase & ~sim,
        np.where(ahead, encode_tag("FL-3"), encode_tag("FL-1")),
        np.where(ahead, encode_tag("FL-4"), encode_tag("FL-2")),
    ).astype(np.int16)
    return times, codes
