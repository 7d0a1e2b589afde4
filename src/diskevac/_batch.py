"""Vectorized twins of the scalar evaluators, used by the worst-case sweeps.

Each function evaluates one (d, zeta) cell over a whole grid of exit
positions with numpy.  The branch structure mirrors the scalar
dispatchers leg for leg; tests assert pointwise agreement between the two
implementations, which is what makes the duplication safe.

Input domain: finite exit angles e1s in [0, 2*pi) and 0 <= zeta <= d <= pi
(with the 1e-12 slack Scenario allows); anything else raises ValueError.
On it each angle reduction is a conditional +-2*pi that equals np.mod(a,
2*pi) bit for bit, -0.0 -> +0.0 included, on the range written at its call
site.  Ranges holding a catch-up root y use x + y + offset <= 2*pi and
y <= pi + 1, the bounds of solve_meeting_arr's Newton start.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import ANGLE_TOL, TWO_PI
from .meeting import catch_on_circle_arr as _catch_p_arr  # module name perfbench wraps
from .meeting import solve_meeting_arr
from .scenarios import Regime, TraceInvalidError

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


# Where no wrap is due a wrap adds +0.0, which turns -0.0 into +0.0 as np.mod does.

def _up(a):
    """np.mod(a, 2*pi) for a in [-2*pi, 2*pi): one conditional + 2*pi."""
    t = (a < 0.0) * TWO_PI
    t += a
    return t


def _up2(a):
    """np.mod(a, 2*pi) for a in [-4*pi, 2*pi): an exact (Sterbenz) + 2*pi, then _up."""
    t = (a < -TWO_PI) * TWO_PI
    t += a
    return _up(t)


def _down(a):
    """np.mod(a, 2*pi) for a in [0, 4*pi): a - 2*pi is exact (Sterbenz)."""
    t = np.where(a >= TWO_PI, -TWO_PI, 0.0)  # not a product: 0 * -2*pi is -0.0
    t += a
    return t


def _norm(t):
    """Snap a wrapped angle that rounded to 2*pi to 0, as normalize_angle does."""
    return np.where(t >= TWO_PI, 0.0, t)


def _ch(t):
    """Chord of a wrapped arc t in [0, 2*pi]."""
    return 2.0 * np.sin(t / 2.0)


def _close(a, b, tol=ANGLE_TOL):
    """Same circle point within tol.  _up(_down(u)) is np.mod(u, 2*pi) on [-2*pi,
    4*pi), which holds u = a - b + pi up to a few ulps, where both are far from pi."""
    return np.abs(_up(_down(a - b + math.pi)) - math.pi) <= tol


def _hit(t):
    """Travel time to an exit from a wrapped arc; near 2*pi snaps to 'on the start'."""
    return np.where(t >= TWO_PI - ANGLE_TOL, 0.0, t)


def _frame(d: float, zeta: float, e1s: np.ndarray):
    """First-finder frame: x, found/other angles, simultaneity mask.

    x is the first find's time, except at a simultaneous find: there each
    robot exits where its own sweep ends, so x is the later find, as in the
    scalar Frame.in_place.
    """
    if not (0.0 <= d <= math.pi + 1e-12 and 0.0 <= zeta <= d + 1e-12  # where wraps are exact
            and np.all((e1s >= 0.0) & (e1s < TWO_PI))):
        raise ValueError("kernel needs 0 <= zeta <= d <= pi and finite exits in "
                         f"[0, 2*pi), got d={d}, zeta={zeta}")
    b = zeta / 2.0
    e2s = _down(e1s + d)  # [0, 3*pi]
    t1a = _hit(_up(e1s - b))  # [-pi/2, 2*pi), and so is e2s - b
    t1b = _hit(_up(e2s - b))
    t2a = _hit(_up2(-b - e1s))  # (-5*pi/2, 0], and so is -b - e2s
    t2b = _hit(_up2(-b - e2s))
    first1 = t1a <= t1b
    t1 = np.minimum(t1a, t1b)
    found1 = np.where(first1, e1s, e2s)
    other1 = np.where(first1, e2s, e1s)
    first2 = t2a <= t2b
    t2 = np.minimum(t2a, t2b)
    found2 = np.where(first2, e1s, e2s)
    other2 = np.where(first2, e2s, e1s)
    sim = np.abs(t1 - t2) <= ANGLE_TOL
    # Simultaneous finds where both robots stand on the same exit point:
    # co-located, so they exchange and leave immediately.
    sim_trivial = sim & (_close(found1, found2) | (t1 <= ANGLE_TOL))
    mirrored = t2 < t1
    x = np.where(sim, np.maximum(t1, t2), np.minimum(t1, t2))
    found = np.where(mirrored, _up(-found2), found1)  # (-2*pi, 0], and so is -other2
    other = np.where(mirrored, _up(-other2), other1)
    return x, found, other, sim, sim_trivial


# ---------------------------------------------------------------------------
# wireless
# ---------------------------------------------------------------------------

def batch_wireless(d: float, zeta: float, labeled: bool, e1s: np.ndarray):
    b = zeta / 2.0
    x, found, other, sim, _ = _frame(d, zeta, e1s)
    n = e1s.size
    big_d = _up2(-b - x)  # (-5*pi/2, 0]: receiver position when the message lands
    reach = x + ANGLE_TOL

    def chord_from_d(c):
        return _ch(_norm(_up(c - big_d)))  # [-2*pi, 2*pi)

    def swept(c):
        by_finder = _norm(_up(c - b)) <= reach  # [-pi/2, 2*pi)
        by_receiver = _norm(_up2(-b - c)) <= reach  # (-5*pi/2, 0]
        return by_finder, by_receiver

    def in_gap(c):
        u = _down(c + b)  # [0, 5*pi/2): below 2*pi after the wrap
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
        cb = _norm(_up(found - d))  # [-pi, 2*pi)
        ca = _down(found + d)  # [0, 3*pi]: below 2*pi after the wrap
        f_b, r_b = swept(cb)
        f_a, r_a = swept(ca)
        ruled_b, ruled_a = f_b | r_b, f_a | r_a
        if d < 2.0 * ANGLE_TOL:  # else a candidate d away cannot be the find
            ruled_b &= ~_close(cb, found)
            ruled_a &= ~_close(ca, found)
        if np.any(ruled_b & ruled_a & ~sim):
            raise TraceInvalidError("wireless: both candidates ruled out")
        w_x = chord_from_d(found)
        w_cb = chord_from_d(cb)
        w_ca = chord_from_d(ca)
        between = _ch(_down(np.minimum(2.0 * d, TWO_PI)))  # [0, 2*pi]
        w_b = w_cb + between
        w_a = w_ca + between

        # X, or the nearer candidate first and on to the other if no exit is there
        go_x = w_x <= np.minimum(w_b, w_a)
        first_cb = ~go_x & (w_b <= w_a)
        t_first = x + np.where(first_cb, w_cb, w_ca)
        t_open = np.where(
            go_x, x + w_x,
            np.where(_close(other, np.where(first_cb, cb, ca)), t_first, t_first + between),
        )
        gap_b, gap_a = in_gap(cb), in_gap(ca)
        c_open = np.where(
            ~gap_b & ~gap_a, encode_tag("W1a"),
            np.where(gap_b & gap_a, encode_tag("W1c"), encode_tag("W1b")),
        )

        t_cert = x + np.minimum(w_x, np.where(ruled_a, w_cb, w_ca))
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


def _point(theta):
    return np.cos(theta), np.sin(theta)


def _hop(px, py, t, pa, pb):
    """t plus the distance from (px, py) to the nearer of the points pa and pb."""
    return t + np.minimum(np.hypot(px - pa[0], py - pa[1]), np.hypot(px - pb[0], py - pb[1]))


def _case3_arr(a, d, m=None, slack=0.0):
    """Vector twin of face_to_face._case3_same.

    A dancer found an exit at arc a (own frame, d/2 < a < d).  Returns go
    (False: M comes too late, the dancer exits in place), hit (N is reached
    in time, else a miss), N = (nx, ny) and its time tn.  m, the catch-up
    root at phi = d - a, is solved for unless the caller already holds it.
    """
    phi = d - a
    if m is None:
        m = solve_meeting_arr(phi, 0.0)
    go = m < TWO_PI - 2.0 * d + a
    hit, nx, ny, tn = _intercept_arr(*_point(a), a, *_point(-phi), phi, *_point(m), slack)
    return go, hit, nx, ny, tn


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
    a = a_s[dance]
    go, hit, nx, ny, tn = _case3_arr(a, d)
    out[dance] = np.where(go & hit, _hop(nx, ny, tn, _point(a), _point(a + d)), a)
    return out


def _f2f_frame(d: float, zeta: float, e1s: np.ndarray):
    """Unlabeled face-to-face frame: x, found, sim and the other exit's side."""
    x, found, other, sim, sim_trivial = _frame(d, zeta, e1s)
    if np.any(sim & ~sim_trivial):
        raise TraceInvalidError("symmetric simultaneous placement on the grid")
    ahead = _close(other, found + d)
    behind = ~ahead & _close(other, found - d)
    if np.any(~ahead & ~behind):
        raise TraceInvalidError("other exit not at distance d")
    return x, found, sim, ahead, behind


# ---------------------------------------------------------------------------
# face-to-face, zeta = 0, unlabeled
# ---------------------------------------------------------------------------

def batch_f2f_same(d: float, e1s: np.ndarray):
    x, found, sim, ahead, behind = _f2f_frame(d, 0.0, e1s)
    n = e1s.size
    y = solve_meeting_arr(x, 0.0)
    t_a = _up2(-(found + d))  # [-3*pi, 0]

    c1 = x + y <= d
    c2 = ~c1 & (x <= d / 2.0)
    c3 = ~c1 & ~c2 & (x < d)
    c4 = ~c1 & ~c2 & ~c3
    if np.any((c3 | c4) & behind & ~sim):
        raise TraceInvalidError("first finder in case 3/4 with a trailing exit")

    # catch the partner on the circle at y, then the nearer of X and E2'
    w_x = _ch(_down(x + y))  # [0, 2*pi]
    t_catch = y + np.minimum(w_x, _ch(_up(_down(t_a - y))))  # [-pi - 1, 2*pi]
    # evacuate separately: the partner is a second finder at arc t_a (solved
    # only where a case below reads it: 2b with the exit ahead, 3, 4b and 4c)
    g2a = y <= t_a
    g4a = y < t_a
    apart = ~sim & ((c2 & ~g2a & ahead) | c3 | (c4 & ~g4a))
    t_apart = np.full(n, np.nan)
    t_apart[apart] = np.maximum(x[apart], _second_exit_arr(t_a[apart], d))

    # case 1
    hop_cb = _ch(_down(np.maximum(d - x - y, 0.0)))  # [0, pi]
    between = _ch(_down(np.minimum(2.0 * d, TWO_PI)))  # [0, 2*pi]
    t_c1 = np.where(
        w_x <= hop_cb + between, y + w_x,
        np.where(behind, y + hop_cb, y + hop_cb + between),
    )

    # case 2
    # 2a with the exit behind: the partner found it and intercepts at N
    t_2a_behind = np.full(n, np.nan)
    m2 = c2 & g2a & behind
    if np.any(m2):
        a_s = d - x[m2]  # the intercepting partner's own find
        # the chase it intercepts is this finder's own: its root is y
        _, hit, nx, ny, tn = _case3_arr(a_s, d, m=y[m2], slack=1e-7)
        if not np.all(hit):
            raise TraceInvalidError("partner failed to intercept a live chase")
        t_2a_behind[m2] = _hop(nx, ny, tn, _point(a_s), _point(a_s - d))
    t_2b = np.where(behind, np.maximum(x, d - x), t_apart)

    # case 3 (exit always ahead here)
    t_c3 = np.full(n, np.nan)
    c_c3 = np.full(n, encode_tag("F0-3b"), dtype=np.int16)
    if np.any(c3):
        xi, yi, tai = x[c3], y[c3], t_a[c3]
        go, hit, nx, ny, tn = _case3_arr(xi, d)
        t3 = np.where(go & ~hit & (yi < tai), t_catch[c3], t_apart[c3])
        gh = go & hit  # N reached in time: catch the partner at P
        if np.any(gh):
            xg, nx, ny, tn = xi[gh], nx[gh], ny[gh], tn[gh]
            pa, pb = _point(xg), _point(xg + d)  # X and E2', the two hops' targets
            p = _catch_p_arr(nx, ny, tn, 0.0)
            t_nn = np.maximum(_hop(nx, ny, tn, pa, pb), t_apart[c3][gh])
            t3[gh] = np.where(p < tai[gh], _hop(*_point(-p), p, pa, pb), t_nn)
        t_c3[c3] = t3
        c_c3[c3] = np.where(go & (hit | (yi < tai)),
                            encode_tag("F0-3a"), encode_tag("F0-3b"))

    # case 4
    t_c4 = np.where(g4a, t_catch, t_apart)
    c_c4 = np.where(g4a, encode_tag("F0-4a"),
                    np.where(t_a >= d - ANGLE_TOL, encode_tag("F0-4c"),
                             encode_tag("F0-4b")))

    cases = [sim, c1, c2 & g2a & ahead, m2, c2 & ~g2a, c3, c4]
    times = np.select(cases, [x, t_c1, t_catch, t_2a_behind, t_2b, t_c3, t_c4])
    codes = np.select(
        cases,
        [encode_tag("F0-sim"), encode_tag("F0-1"), encode_tag("F0-2a"),
         encode_tag("F0-3a"), encode_tag("F0-2b"), c_c3, c_c4],
    ).astype(np.int16)
    return times, codes


# ---------------------------------------------------------------------------
# face-to-face, zeta = d, unlabeled
# ---------------------------------------------------------------------------

def batch_f2f_diff(d: float, e1s: np.ndarray):
    b = d / 2.0
    x, found, sim, ahead, behind = _f2f_frame(d, d, e1s)
    n = e1s.size

    y = solve_meeting_arr(x, d)
    t_a = _up2(-b - (found + d))  # [-7*pi/2, 0]
    t_x = _up2(-b - found)  # (-5*pi/2, 0]

    c2 = x >= d
    if np.any(c2 & behind & ~sim):
        raise TraceInvalidError("case 2 with an exit at the ruled-out candidate")

    # case 2
    t_stop = np.minimum(t_a, t_x)
    g2c = y < t_stop
    w_1a = _ch(_down(x + y + d))  # [0, 2*pi]
    t_2c = y + np.minimum(w_1a, _ch(_down(x + y + 2.0 * d)))  # [0, 3*pi]
    t_2b = np.maximum(x, t_stop)

    # case 1
    g1a = t_a > y
    t_1a = y + w_1a
    seg = _ch(_down(d))  # [0, pi]
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
        xpx, xpy = xp = _point(fi)
        capx, capy = _point(fi + d)
        t_chase = yi + np.minimum(w_1a[idx], _ch(_down(xi + yi)))  # [0, 2*pi]
        ux, uy = (capx - xpx) / seg, (capy - xpy) / seg
        nx, ny = xpx + si * ux, xpy + si * uy
        tn = xi + si
        p = _catch_p_arr(nx, ny, tn, b)
        t_pm = _hop(*_point(-b - p), p, xp, _point(fi - d))
        t_def = np.maximum(t_pm, t_x[idx])
        t_1c[idx] = np.where(si <= ANGLE_TOL, t_chase,
                             np.where(p <= t_x[idx], t_pm, t_def))

    cases = [sim, c2 & g2c, c2, ~c2 & g1a, ~c2 & ahead, m1c]
    times = np.select(cases, [x, t_2c, t_2b, t_1a, t_1b, t_1c])
    codes = np.select(
        cases,
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
    t_o = _up2(-b - other)  # (-5*pi/2, 0]

    chase = t_o > y
    t_chase = y + np.minimum(_ch(_down(x + y + zeta)),  # [0, 2*pi]
                             _ch(_up(_down(t_o - y))))  # [-pi - 1, 2*pi]
    t_exit = np.maximum(x, t_o)
    times = np.where(chase & ~sim, t_chase, np.where(sim, x, t_exit))
    codes = np.where(
        chase & ~sim,
        np.where(ahead, encode_tag("FL-3"), encode_tag("FL-1")),
        np.where(ahead, encode_tag("FL-4"), encode_tag("FL-2")),
    ).astype(np.int16)
    return times, codes


def batch_cell(regime: Regime, d: float, zeta: float, e1s: np.ndarray, labeled=False):
    """(times, codes) over e1s from the kernel of regime; only wireless reads labeled."""
    if regime is Regime.WIRELESS:
        return batch_wireless(d, zeta, labeled, e1s)
    if regime is Regime.F2F_SAME:
        return batch_f2f_same(d, e1s)
    if regime is Regime.F2F_DIFF:
        return batch_f2f_diff(d, e1s)
    return batch_f2f_labeled(d, zeta, e1s)
