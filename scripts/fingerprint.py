#!/usr/bin/env python3
"""Fingerprint every placement of a fixed corpus, one line per scenario.

Each line holds the scenario, `repr` of the policy's time, its case tag and
a short hash of the replayed segments and events.  Run it on two source
trees and `diff` the outputs to see exactly which placements a change
touches:

    PYTHONPATH=src python3 scripts/fingerprint.py > after.txt

stderr names numpy's version and CPU dispatch (`numpy_stamp.py`), which
some times and replay hashes depend on: compare runs whose stamps agree.

The corpus: `random_scenarios` seeds 7 and 11 (6,000 each); every 11th
point of the 0.001 exit grid at seven values of d for each regime family;
the two mirror-symmetric simultaneous families (face-to-face zeta = 0
with exits at +-x, zeta = d with e1 = pi - d/2); after those 40,023
lines, placements on the edges of the tolerance bands (`edge_scenarios`);
and, after those 62,151, unlabeled face-to-face placements whose zeta is
routed to 0 or d without being either (`routed_scenarios`).
Only the public API is used, so older trees run it too once `replay(scn,
out)` is read as `replay(scn)`, the form from before `replay` took the
held outcome.
"""

import hashlib
import math
import sys
from typing import NamedTuple

from diskevac.cli import random_scenarios
from diskevac.geometry import TWO_PI, ArcPos
from diskevac.meeting import SolverError
from diskevac.replay import replay
from diskevac.scenarios import CommModel, Scenario, TraceInvalidError, evaluate

from numpy_stamp import numpy_stamp  # beside this script

GRID_D = (0.0, 0.3, 0.9, 1.4, 2.0, 2.6, math.pi)
EXIT_STEP = 0.001
FAMILIES = (  # (model, labeled, zeta as a function of d)
    (CommModel.FACE_TO_FACE, False, lambda d: 0.0),
    (CommModel.FACE_TO_FACE, False, lambda d: d),
    (CommModel.FACE_TO_FACE, True, lambda d: d / 2.0),
    (CommModel.WIRELESS, False, lambda d: d / 2.0),
    (CommModel.WIRELESS, False, lambda d: d),
    (CommModel.WIRELESS, True, lambda d: d / 3.0),
)
SYMMETRIC = 2000  # placements per symmetric family
EDGE_GAPS = [s * k * 1e-10 for s in (1, -1) for k in range(1, 21)]  # across SNAP_TOL, ANGLE_TOL
EDGE_D = (1e-9, 1.5e-9, 2e-9, 3e-9)  # across ANGLE_TOL and COINCIDENT_D
ROUTED_D = (0.3, 1.4, 2.6)


class Unbuilt(NamedTuple):
    """A Scenario's arguments, built when fingerprinted: a refused build is its line."""

    model: CommModel
    labeled: bool
    d: float
    zeta: float
    e1: ArcPos


def symmetric_scenarios(n: int):
    """Face-to-face placements where both robots find an exit at once."""
    out = []
    for k in range(1, n):  # zeta = 0, exits at +-x
        x = math.pi * k / n
        d, e1 = (2.0 * x, TWO_PI - x) if x <= math.pi / 2.0 else (TWO_PI - 2.0 * x, x)
        out.append(Scenario(CommModel.FACE_TO_FACE, False, d, 0.0, ArcPos(e1)))
    for k in range(1, n + 1):  # zeta = d, exits at pi -+ d/2
        d = math.pi * k / n
        out.append(Scenario(CommModel.FACE_TO_FACE, False, d, d, ArcPos(math.pi - d / 2.0)))
    return out


def grid_scenarios(ds):
    """Every 11th point of the exit grid at each d, for each family."""
    n_exits = int(math.floor(TWO_PI / EXIT_STEP - 1e-9)) + 1
    return [Scenario(model, labeled, d, zeta(d), ArcPos(k * EXIT_STEP))
            for model, labeled, zeta in FAMILIES for d in ds
            for k in range(0, n_exits, 11)]


def edge_scenarios():
    """Placements a rounding error from a tolerance band's edge.

    An exit (E1 or E2) each gap either side of each robot's start, in every
    family at every GRID_D; wireless placements whose two finds, R1's at E1
    and R2's at E2, lie each gap apart (they part by -2*e1 - d); and the
    exit grid at each EDGE_D.
    """
    at_starts = [Scenario(model, labeled, d, zeta(d), ArcPos(start + gap - shift))
                 for model, labeled, zeta in FAMILIES for d in GRID_D
                 for start in (zeta(d) / 2.0, -zeta(d) / 2.0) for shift in (0.0, d)
                 for gap in EDGE_GAPS]
    finds_apart = [Scenario(model, labeled, d, zeta(d), ArcPos((-d - gap) / 2.0 + half))
                   for model, labeled, zeta in FAMILIES if model is CommModel.WIRELESS
                   for d in GRID_D for half in (0.0, math.pi) for gap in EDGE_GAPS]
    return at_starts + finds_apart + grid_scenarios(EDGE_D)


def routed_scenarios():
    """Unlabeled face-to-face at zeta = k*1e-10 and d - k*1e-10, k = 1..10.

    classify routes each to the zeta = 0 or zeta = d policy, except where
    d - 1e-9 rounds outside the band and the Scenario refuses to be built;
    every 53rd point of the exit grid at each ROUTED_D.
    """
    n_exits = int(math.floor(TWO_PI / EXIT_STEP - 1e-9)) + 1
    return [Unbuilt(CommModel.FACE_TO_FACE, False, d, zeta, ArcPos(k * EXIT_STEP))
            for d in ROUTED_D for j in range(1, 11) for zeta in (j * 1e-10, d - j * 1e-10)
            for k in range(0, n_exits, 53)]


def corpus():
    scenarios = random_scenarios(7, 6000) + random_scenarios(11, 6000)
    return (scenarios + grid_scenarios(GRID_D) + symmetric_scenarios(SYMMETRIC)
            + edge_scenarios() + routed_scenarios())


def fingerprint(scenarios):
    """One line per scenario (or Unbuilt): scenario, repr(time), tag, replay hash."""
    for scn in scenarios:
        head = (f"{scn.model.value} labeled={scn.labeled} d={scn.d!r} "
                f"zeta={scn.zeta!r} e1={scn.e1.theta!r}")
        try:
            if isinstance(scn, Unbuilt):
                scn = Scenario(*scn)
            out = evaluate(scn)
            tr1, tr2, _ = replay(scn, out)
        except (TraceInvalidError, SolverError, ValueError) as exc:  # a fingerprint too
            yield f"{head} {type(exc).__name__}: {exc}"
            continue
        trace = repr([(tr.segments, tr.events) for tr in (tr1, tr2)])
        digest = hashlib.sha1(trace.encode()).hexdigest()[:12]
        yield f"{head} {out.time_from_perimeter!r} {out.case_tag} {digest}"


def main():
    print(numpy_stamp(), file=sys.stderr)
    for line in fingerprint(corpus()):
        print(line)


if __name__ == "__main__":
    main()
