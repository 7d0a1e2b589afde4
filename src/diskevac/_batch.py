"""Vectorized twins of the scalar evaluators, used by the worst-case sweeps.

Each kernel evaluates a grid of exit positions e1s at d and zeta that
broadcast against it: a float each for one (d, zeta) cell, or columns of
shape (k, 1) for a block of k cells, one output row per cell.  The
kernels are elementwise, so a row holds the bits of its cell evaluated
alone.  Per-cell constants such as `between` and `seg` are computed on
the column, and a case that runs on some points only slices d with its
point mask (meeting.pick).  The sweep hands each call a block of
consecutive cells of one regime, at most BLOCK_POINTS exit points, and so
pays numpy's fixed cost per call once a block.  Each case writes its times
and codes on its own points of one output pair, and large temporaries are
freed after their last read, which bounds a block's peak memory.

The branch structure mirrors the scalar dispatchers leg for leg; tests
assert pointwise agreement between the two implementations, which is what
makes the duplication safe.

Input domain: finite exit angles e1s in [0, 2*pi) and 0 <= zeta <= d <= pi
(with the DOMAIN_SLACK Scenario allows); anything else raises ValueError.
On it each angle reduction is a conditional +-2*pi that equals np.mod(a,
2*pi) bit for bit, -0.0 -> +0.0 included, on the range written at its call
site.  A catch-up root is y = 2u - x - offset, where u in [0, pi] solves
u - sin u = c on the catch-up domain c = x + offset/2 <= pi; so ranges
holding y use x + y + offset = 2u <= 2*pi and y = x + 2*sin u, hence
y <= min(x + 2, 2*pi - x - offset) <= pi + 1.

Importing this module pins two glibc allocator thresholds for the whole
process (Linux only; nothing happens where mallopt is missing or refuses).
A call allocates and frees numpy temporaries of 8 bytes per exit point,
about 150 KB at BLOCK_POINTS.  By default glibc returns the free top of its
heap to the system once 128 KB of it is free, so the next call faults those
pages in again.  M_MMAP_THRESHOLD is set to 32 MiB, glibc's own dynamic ceiling
on 64-bit, then M_TRIM_THRESHOLD to 64 MiB, twice that, as glibc pairs
them.  Both are needed: setting the trim threshold alone switches off the
dynamic mmap threshold, so every temporary above the default 128 KB (each
full-width one of a paper-grid block) is mapped and unmapped again on each
call.
"""

from __future__ import annotations

import ctypes
import math
import sys

import numpy as np

from .geometry import ANGLE_TOL, COINCIDENT_D, DOMAIN_SLACK, SNAP_TOL, TWO_PI, ArcPos
from .meeting import catch_on_circle_arr as _catch_p_arr  # module name perfbench wraps
from .meeting import pick, solve_meeting_arr
from .scenarios import Regime, TraceInvalidError


def _pin_malloc_thresholds():
    """Keep freed kernel temporaries in the heap; see the module docstring."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # <malloc.h>
    if mallopt(m_mmap_threshold, 32 << 20):  # the trim threshold alone would freeze this one
        mallopt(m_trim_threshold, 64 << 20)


_pin_malloc_thresholds()

TAG_LIST = (
    "W-sim", "W1a", "W1b", "W1c", "W2", "W3a", "W3b", "WL-L1", "WL-L2",
    "F0-sim", "F0-1", "F0-2a", "F0-2b", "F0-3a", "F0-3b", "F0-4a", "F0-4c",
    "Fd-sim", "Fd-1a", "Fd-1b", "Fd-1c", "Fd-2a", "Fd-2b", "Fd-2c",
    "FL-1", "FL-2", "FL-3", "FL-4",
)
_TAG_CODE = {tag: i for i, tag in enumerate(TAG_LIST)}


def encode_tag(tag: str) -> int:
    return _TAG_CODE[tag]


def decode_tag(code: int) -> str:
    return TAG_LIST[int(code)]


# Exit points one sweep kernel call evaluates at most: 3 cells of the paper
# grid.  A block's temporaries stay far below the 32 MiB mmap threshold.
BLOCK_POINTS = 20_000


def exit_count(step: float) -> int:
    return int(math.floor(TWO_PI / step - 1e-9)) + 1


def exit_grid(step: float) -> np.ndarray:
    return np.arange(exit_count(step), dtype=float) * step


# Where no wrap is due a wrap adds +0.0, which turns -0.0 into +0.0 as np.mod does.

def _up(a):
    """np.mod(a, 2*pi) on [-2*pi, 2*pi): a conditional + 2*pi; twice (Sterbenz) on [-4*pi, 2*pi)."""
    t = (a < 0.0) * TWO_PI
    t += a
    return t


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


def _close(a, b):
    """Same circle point within ANGLE_TOL.  _up(_down(u)) is np.mod(u, 2*pi) on [-2*pi,
    4*pi), which holds u = a - b + pi up to a few ulps, where both are far from pi."""
    return np.abs(_up(_down(a - b + math.pi)) - math.pi) <= ANGLE_TOL


def _hit(t):
    """Travel time to an exit from a fresh wrap, snapped in place: near 2*pi is 'on the start'."""
    np.copyto(t, 0.0, where=t >= TWO_PI - SNAP_TOL)
    return t


def _coincide(d):
    """candidates_coincide as a mask: one bit per d."""
    return np.minimum(2.0 * d, TWO_PI - 2.0 * d) <= ANGLE_TOL


def _put(times, codes, mask, t, code):
    """Write one case's time and tag on its points; a later case overwrites."""
    np.copyto(times, t, where=mask)
    np.copyto(codes, code, where=mask)


def _first(ta, tb):
    """A robot's first find: (E1 before E2, its time), from its times to E1 and E2."""
    return ta <= tb, np.minimum(ta, tb)


def _frame(d, zeta, e1s: np.ndarray):
    """First-finder frame: x, found/other angles, masks sim, ahead and trivial.

    x is the first find's time, except at a simultaneous find: there each
    robot exits where its own sweep ends, so x is the later find, as in the
    scalar Frame.in_place.  ahead is Frame.ahead.  trivial marks the
    simultaneous finds on one exit point, where the co-located robots leave
    at once; only face-to-face reads it, so only sim points are tested.
    """
    cells = ((0.0 <= d) & (d <= math.pi + DOMAIN_SLACK)  # where wraps are exact
             & (0.0 <= zeta) & (zeta <= d + DOMAIN_SLACK))  # one bit a cell
    if not (np.all(cells) and np.all((e1s >= 0.0) & (e1s < TWO_PI))):
        first = np.argmin(np.ravel(cells))  # the first cell outside, if one is
        d, zeta = (np.ravel(np.broadcast_to(v, np.shape(cells)))[first] for v in (d, zeta))
        raise ValueError("kernel needs 0 <= zeta <= d <= pi and finite exits in "
                         f"[0, 2*pi), got d={d}, zeta={zeta}")
    b = zeta / 2.0
    e2s = _down(e1s + d)  # [0, 3*pi]
    first1, t1 = _first(_hit(_up(e1s - b)), _hit(_up(e2s - b)))  # [-pi/2, 2*pi) both
    first2, t2 = _first(_hit(_up(_up(-b - e1s))), _hit(_up(_up(-b - e2s))))  # (-5*pi/2, 0]
    lead = t1 - t2
    sim = np.abs(lead) <= ANGLE_TOL
    mirrored = lead > ANGLE_TOL  # R2 first; a simultaneous find is seen in R1's frame
    on_e1 = np.where(mirrored, first2, first1)  # the finder's find is E1
    found = np.where(on_e1, e1s, e2s)
    other = np.where(on_e1, e2s, e1s)
    del e2s
    trivial = np.zeros_like(sim)
    if sim.any():  # R2 found R1's exit, or the other one on the same point
        trivial[sim] = ((first1[sim] == first2[sim]) | _close(found[sim], other[sim])
                        | (t1[sim] <= ANGLE_TOL))
    # E2 lies d counterclockwise of E1: ahead where R1 found E1 or, mirrored, R2 found E2
    ahead = (on_e1 != mirrored) | _coincide(d)
    x = np.where(sim, np.maximum(t1, t2), np.minimum(t1, t2))
    found = np.where(mirrored, _up(-found), found)  # (-2*pi, 0], and so is -other
    np.copyto(found, b, where=x == 0.0)  # a find at time 0 is on the start itself
    other = np.where(mirrored, _up(-other), other)
    return x, found, other, sim, ahead, trivial


# ---------------------------------------------------------------------------
# wireless
# ---------------------------------------------------------------------------

def batch_wireless(d, zeta, labeled: bool, e1s: np.ndarray):
    b = zeta / 2.0
    x, found, other, sim, ahead, _ = _frame(d, zeta, e1s)
    big_d = _up(_up(-b - x))  # (-5*pi/2, 0]: receiver position when the message lands
    reach = x + SNAP_TOL

    def chord_from_d(c):
        return _ch(_norm(_up(c - big_d)))  # [-2*pi, 2*pi)

    def swept(c):
        by_finder = _norm(_up(c - b)) <= reach  # [-pi/2, 2*pi)
        by_receiver = _norm(_up(_up(-b - c))) <= reach  # (-5*pi/2, 0]
        return by_finder, by_receiver

    def in_gap(c):
        u = _down(c + b)  # [0, 5*pi/2): below 2*pi after the wrap
        return (u > ANGLE_TOL) & (u < zeta - ANGLE_TOL)

    w_x = chord_from_d(found)
    if labeled:
        times = x + np.minimum(w_x, chord_from_d(other))
        codes = np.where(in_gap(other), encode_tag("WL-L2"), encode_tag("WL-L1")).astype(np.int16)
    else:
        cb = _norm(_up(found - d))  # [-pi, 2*pi)
        ca = _down(found + d)  # [0, 3*pi]: below 2*pi after the wrap
        f_b, r_b = swept(cb)
        f_a, r_a = swept(ca)
        ruled_b, ruled_a = f_b | r_b, f_a | r_a
        one_exit = d < COINCIDENT_D  # the two exits are one: go to the find
        if np.any(ruled_b & ruled_a & ~sim & ~one_exit):
            raise TraceInvalidError("wireless: both candidates ruled out")
        w_cb = chord_from_d(cb)
        w_ca = chord_from_d(ca)
        gap_b, gap_a = in_gap(cb), in_gap(ca)
        del cb, ca

        # an exit ruled out: X, or the candidate left
        times = x + np.minimum(w_x, np.where(ruled_a, w_cb, w_ca))
        codes = np.where(ruled_a, encode_tag("W2"),
                         np.where(r_b, encode_tag("W3a"), encode_tag("W3b"))).astype(np.int16)

        # both open: X, or the nearer candidate first and on to the other if no exit is there
        between = _ch(_down(np.minimum(2.0 * d, TWO_PI)))  # [0, 2*pi], per cell
        w_b = w_cb + between
        w_a = w_ca + between
        go_x = w_x <= np.minimum(w_b, w_a)
        first_cb = ~go_x & (w_b <= w_a)
        del w_b, w_a
        t_first = x + np.where(first_cb, w_cb, w_ca)
        del w_cb, w_ca
        _put(times, codes, ~ruled_b & ~ruled_a, np.where(
            go_x, x + w_x,
            np.where((first_cb != ahead) | _coincide(d), t_first, t_first + between),
        ), np.where(~gap_b & ~gap_a, encode_tag("W1a"),
                    np.where(gap_b & gap_a, encode_tag("W1c"), encode_tag("W1b"))))
        if np.any(one_exit):
            _put(times, codes, one_exit, x + w_x, encode_tag("W3b"))

    _put(times, codes, sim, x, encode_tag("W-sim"))
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

    A dancer found an exit at arc a (own frame, d/2 < a < d); d is one float
    or one per point of a.  Returns go (False: M comes too late, the dancer
    exits in place), hit (N is reached in time, else a miss), N = (nx, ny)
    and its time tn.  m, the catch-up root at phi = d - a, is solved for
    unless the caller already holds it.
    """
    phi = d - a
    if m is None:
        m = solve_meeting_arr(phi, 0.0)
    go = m < TWO_PI - 2.0 * d + a
    hit, nx, ny, tn = _intercept_arr(*_point(a), a, *_point(-phi), phi, *_point(m), slack)
    return go, hit, nx, ny, tn


def _second_exit_arr(a_s, d):
    """Second finder's exit time (own frame), vectorized; d as in _case3_arr.

    Mirrors _second_finder_same: exit in place when the second find pins
    the layout (a_s >= d), otherwise run the case-3 dance, which finds
    nobody at N and goes back to its own exit (a scan, not a proof).
    """
    out = a_s.copy()
    dance = a_s < d - ANGLE_TOL  # and a > d/2: x = 2*pi - a - d < a gives a > pi - d/2 >= d/2
    if not np.any(dance):
        return out
    a, d = a_s[dance], pick(d, dance)
    go, hit, nx, ny, tn = _case3_arr(a, d)
    out[dance] = np.where(go & hit, tn + np.hypot(nx - np.cos(a), ny - np.sin(a)), a)
    return out


def _f2f_frame(d, zeta, e1s: np.ndarray):
    """Unlabeled face-to-face frame: x, found, other, sim and the other exit's side."""
    x, found, other, sim, ahead, trivial = _frame(d, zeta, e1s)
    if np.any(sim & ~trivial):
        raise TraceInvalidError("symmetric simultaneous placement on the grid")
    return x, found, other, sim, ahead, ~ahead


# ---------------------------------------------------------------------------
# face-to-face, zeta = 0, unlabeled
# ---------------------------------------------------------------------------

def batch_f2f_same(d, e1s: np.ndarray):
    x, found, other, sim, ahead, behind = _f2f_frame(d, 0.0, e1s)
    y = solve_meeting_arr(x, 0.0)
    t_a = _up(_up(-(found + d)))  # [-3*pi, 0]
    times = np.empty(x.shape)
    codes = np.empty(x.shape, dtype=np.int16)

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
    # only where a case below reads it: 2b with the exit ahead, and 3)
    g2a = y <= t_a
    apart = ~sim & ((c2 & ~g2a & ahead) | c3)
    t_apart = np.full(x.shape, np.nan)
    # the partner exits no sooner than its find at t_a, which comes after x
    t_apart[apart] = _second_exit_arr(t_a[apart], pick(d, apart))

    # case 1
    hop_cb = _ch(_down(np.maximum(d - x - y, 0.0)))  # [0, pi]
    between = _ch(_down(np.minimum(2.0 * d, TWO_PI)))  # [0, 2*pi], per cell
    _put(times, codes, c1, np.where(
        w_x <= hop_cb + between, y + w_x,
        np.where(behind, y + hop_cb, y + hop_cb + between),
    ), encode_tag("F0-1"))
    del hop_cb, w_x
    # met at M on the other exit itself: both leave there at y
    on_exit = c1.copy()
    on_exit[c1] = _close(_up(-y[c1]), other[c1])  # -y in [-pi - 1, 0]
    np.copyto(times, y, where=on_exit)

    # case 2
    _put(times, codes, c2 & g2a & ahead, t_catch, encode_tag("F0-2a"))
    # 2a with the exit behind: the partner found it and intercepts at N
    m2 = c2 & g2a & behind
    if np.any(m2):
        d2 = pick(d, m2)
        a_s = d2 - x[m2]  # the intercepting partner's own find
        # the chase it intercepts is this finder's own: its root is y
        _, hit, nx, ny, tn = _case3_arr(a_s, d2, m=y[m2], slack=1e-7)
        if not np.all(hit):
            raise TraceInvalidError("partner failed to intercept a live chase")
        # on to its exit E, not X: N is equal-elapsed, so |NE| - |NX| = 2x - d <= 0
        times[m2] = tn + np.hypot(nx - np.cos(a_s), ny - np.sin(a_s))
        codes[m2] = encode_tag("F0-3a")
    # 2b with the exit behind: the partner found it at a = d - x, and its dance
    # would weigh this chase, root y; go needs y < 2*pi - 2d + a = t_a, which
    # 2b denies, so the partner exits in place with no dance, at d - x >= x (x <= d/2)
    _put(times, codes, c2 & ~g2a, np.where(behind, d - x, t_apart),
         encode_tag("F0-2b"))

    # case 3 (exit always ahead here)
    if np.any(c3):
        xi, yi, tai, d3 = x[c3], y[c3], t_a[c3], pick(d, c3)
        go, hit, nx, ny, tn = _case3_arr(xi, d3)
        t3 = np.where(go & ~hit & (yi < tai), t_catch[c3], t_apart[c3])
        gh = go & hit  # N reached in time: catch the partner at P
        if np.any(gh):
            xg, dg, nx, ny, tn = xi[gh], pick(d3, gh), nx[gh], ny[gh], tn[gh]
            pa, pb = _point(xg), _point(xg + dg)  # X and E2', the two hops' targets
            p = _catch_p_arr(nx, ny, tn, 0.0)
            t_nn = np.maximum(_hop(nx, ny, tn, pa, pb), t_apart[c3][gh])
            t3[gh] = np.where(p < tai[gh], _hop(*_point(-p), p, pa, pb), t_nn)
        times[c3] = t3
        codes[c3] = np.where(go & (hit | (yi < tai)),
                             encode_tag("F0-3a"), encode_tag("F0-3b"))

    # case 4: the exit is ahead, so the partner reaches it at t_a > x >= d (the
    # finder is first) and, unless caught first (4a), exits there as a second finder (4c)
    _put(times, codes, c4, t_a, encode_tag("F0-4c"))
    _put(times, codes, c4 & (y < t_a), t_catch, encode_tag("F0-4a"))

    _put(times, codes, sim, x, encode_tag("F0-sim"))
    return times, codes


# ---------------------------------------------------------------------------
# face-to-face, zeta = d, unlabeled
# ---------------------------------------------------------------------------

def batch_f2f_diff(d, e1s: np.ndarray):
    b = d / 2.0
    x, found, _, sim, ahead, behind = _f2f_frame(d, d, e1s)

    y = solve_meeting_arr(x, d)
    t_a = _up(_up(-b - (found + d)))  # [-7*pi/2, 0]
    times = np.empty(x.shape)
    codes = np.empty(x.shape, dtype=np.int16)

    c2 = x >= d
    if np.any(c2 & behind & ~sim):
        raise TraceInvalidError("case 2 with an exit at the ruled-out candidate")
    w_1a = _ch(_down(x + y + d))  # [0, 2*pi]

    # case 2 (2c where the catch-up comes first); the partner reaches E2' first:
    # x >= d and x < t_X = 2*pi - d - x give 2d + x < 2*pi, so t_a = t_X - d; and
    # E2' is the exit, so t_a > x, as the finder is first
    _put(times, codes, c2, t_a, encode_tag("Fd-2b"))
    _put(times, codes, c2 & (y < t_a),
         y + np.minimum(w_1a, _ch(_down(x + y + 2.0 * d))),  # [0, 3*pi]
         encode_tag("Fd-2c"))

    # case 1 (1a where the catch-up comes first)
    g1a = t_a > y
    seg = _ch(_down(d))  # [0, pi], per cell
    s = np.clip((t_a + seg - x) / 2.0, 0.0, seg)
    # 1b: on to E2', as seg - s < s exactly when t_a > x (the finder is first)
    _put(times, codes, ~c2 & ahead, x + s + (seg - s),
         np.where(t_a >= d - ANGLE_TOL, encode_tag("Fd-2a"), encode_tag("Fd-1b")))
    _put(times, codes, ~c2 & g1a, y + w_1a, encode_tag("Fd-1a"))

    # 1c: gap exit, miss at N, catch at P, or where s <= ANGLE_TOL the direct
    # chase, on to X: there 2*pi - 2d - x = t_a <= x - seg, so x + y + d/2 > pi;
    # none of its points is in a case above
    m1c = ~c2 & ~g1a & behind
    del t_a, c2, g1a, ahead, behind
    if np.any(m1c):
        xi, yi, si = x[m1c], y[m1c], s[m1c]
        t_chase = yi + w_1a[m1c]
        tn = xi + si
        fi, di, bi = found[m1c], pick(d, m1c), pick(b, m1c)
        del y, s, w_1a, found, xi, yi
        xp = _point(fi)
        cap, sgi = _point(fi + di), pick(seg, m1c)
        nx = xp[0] + si * ((cap[0] - xp[0]) / sgi)  # N, s along the chord from X to X + d
        ny = xp[1] + si * ((cap[1] - xp[1]) / sgi)
        del cap, sgi
        p = _catch_p_arr(nx, ny, tn, bi)
        del nx, ny, tn
        t_pm = _hop(*_point(-bi - p), p, xp, _point(fi - di))
        times[m1c] = np.where(si <= ANGLE_TOL, t_chase, t_pm)
        codes[m1c] = encode_tag("Fd-1c")

    _put(times, codes, sim, x, encode_tag("Fd-sim"))
    return times, codes


# ---------------------------------------------------------------------------
# face-to-face, labeled, generic zeta
# ---------------------------------------------------------------------------

def batch_f2f_labeled(d, zeta, e1s: np.ndarray):
    b = zeta / 2.0
    x, _, other, sim, ahead, _ = _frame(d, zeta, e1s)
    y = solve_meeting_arr(x, zeta)
    t_o = _up(_up(-b - other))  # (-5*pi/2, 0]

    chase = t_o > y
    t_chase = y + np.minimum(_ch(_down(x + y + zeta)),  # [0, 2*pi]
                             _ch(_up(_down(t_o - y))))  # [-pi - 1, 2*pi]
    # off sim the partner finds the other exit at t_o, no sooner than its first find, after x
    times = np.where(chase & ~sim, t_chase, np.where(sim, x, t_o))
    codes = np.where(
        chase & ~sim,
        np.where(ahead, encode_tag("FL-3"), encode_tag("FL-1")),
        np.where(ahead, encode_tag("FL-4"), encode_tag("FL-2")),
    ).astype(np.int16)
    return times, codes


def batch_cell(regime: Regime, d, zeta, e1s: np.ndarray):
    """(times, codes) over e1s, d and zeta broadcast against it, from the
    kernel of regime."""
    if regime is Regime.F2F_SAME:
        return batch_f2f_same(d, e1s)
    if regime is Regime.F2F_DIFF:
        return batch_f2f_diff(d, e1s)
    if regime is Regime.F2F_LABELED:
        return batch_f2f_labeled(d, zeta, e1s)
    return batch_wireless(d, zeta, regime is Regime.WIRELESS_LABELED, e1s)


def batch_block(block, e1s: np.ndarray):
    """(times, codes) of a block of cells (d, zeta, regime) of one regime in
    one kernel call: row i holds cell i, bit for bit batch_cell's for it alone."""
    ds, zetas = (np.array([cell[i] for cell in block], dtype=float)[:, np.newaxis] for i in (0, 1))
    return batch_cell(block[0][2], ds, zetas, e1s)


def worst_cells(block, exit_step: float):
    """Worst realized time over the exit grid of each cell of a block:
    [(time, argmax_e1, case_tag)], one per cell.

    Ties resolve to the smallest e1.
    """
    if not (math.isfinite(exit_step) and exit_step > 0.0):
        raise ValueError(f"exit step {exit_step} is not finite and > 0")
    times, codes = batch_block(block, exit_grid(exit_step))
    finite = np.isfinite(times).all(axis=1)
    if not finite.all():
        d = block[np.argmin(finite)][0]
        raise TraceInvalidError(f"non-finite evacuation time in the cell d = {d}")
    return [(float(times[row, i]), ArcPos(int(i) * exit_step), decode_tag(codes[row, i]))
            for row, i in enumerate(times.argmax(axis=1))]
