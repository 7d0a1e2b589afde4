import math

import numpy as np
import pytest

from diskevac.cli import random_scenarios
from diskevac.geometry import TWO_PI, ArcPos
from diskevac.replay import Event, dump_trace, replay, verify_agreement
from diskevac.scenarios import CommModel, Scenario, evaluate


def test_table1_scenario_makespan():
    scn = Scenario(CommModel.WIRELESS, False, math.pi, 0.0, ArcPos(math.pi / 4))
    tr1, tr2, makespan = replay(scn)
    assert makespan == pytest.approx(math.pi / 4 + math.sqrt(2.0), abs=1e-6)
    report = verify_agreement(scn, tr1, tr2)
    assert report.passed, report.issues


def test_exit_at_start_gives_zero_length_trajectory():
    scn = Scenario(CommModel.WIRELESS, False, 1.0, 0.0, ArcPos(0.0))
    tr1, tr2, makespan = replay(scn)
    assert makespan == 0.0
    assert tr1.final_time == 0.0
    report = verify_agreement(scn, tr1, tr2)
    assert report.passed, report.issues


def test_meet_events_are_symmetric_and_satisfy_catch_equation():
    scn = Scenario(CommModel.FACE_TO_FACE, False, 2.0, 0.0, ArcPos(1.0))
    tr1, tr2, _ = replay(scn)
    m1 = [ev for ev in tr1.events if ev.kind == "meet"]
    m2 = [ev for ev in tr2.events if ev.kind == "meet"]
    assert m1 and len(m1) == len(m2)
    report = verify_agreement(scn, tr1, tr2)
    assert report.passed, report.issues
    assert report.meets_checked == len(m1)


def test_mutated_trace_fails_agreement():
    scn = Scenario(CommModel.FACE_TO_FACE, False, 2.0, 0.0, ArcPos(1.0))
    tr1, tr2, _ = replay(scn)
    # a one-sided meet event must be flagged
    tr1.events.append(Event("meet", 0.123, (0.5, 0.5)))
    report = verify_agreement(scn, tr1, tr2)
    assert not report.passed


def test_wireless_message_causality():
    scn = Scenario(CommModel.WIRELESS, False, 2.0, 1.0, ArcPos(1.3))
    tr1, tr2, _ = replay(scn)
    sent = [ev for ev in tr1.events + tr2.events if ev.kind == "sent_message"]
    recv = [ev for ev in tr1.events + tr2.events if ev.kind == "received_message"]
    assert len(sent) == 1 and len(recv) == 1
    assert recv[0].time == pytest.approx(sent[0].time, abs=1e-12)


def test_trace_dump_format(tmp_path):
    scn = Scenario(CommModel.FACE_TO_FACE, False, 1.0, 1.0, ArcPos(2.0))
    tr1, tr2, _ = replay(scn)
    path = tmp_path / "trace.txt"
    dump_trace(tr1, tr2, path)
    lines = path.read_text().splitlines()
    assert lines
    for line in lines:
        parts = line.split(",")
        assert len(parts) == 8
        assert parts[0] in ("r1", "r2")
        assert parts[1] in ("arc", "chord")
        float(parts[2]), float(parts[3])


def test_oracle_equivalence_random_batch():
    for scn in random_scenarios(seed=123, samples=400):
        res = evaluate(scn)
        tr1, tr2, makespan = replay(scn)
        assert abs(makespan - res.time_from_perimeter) < 1e-4, scn
        report = verify_agreement(scn, tr1, tr2)
        assert report.passed, (scn, report.issues)


def test_speed_never_exceeds_unit():
    for scn in random_scenarios(seed=5, samples=50):
        tr1, tr2, _ = replay(scn)
        for tr in (tr1, tr2):
            for seg in tr.segments:
                dur = seg.t1 - seg.t0
                if seg.kind == "chord":
                    length = math.hypot(seg.p1[0] - seg.p0[0],
                                        seg.p1[1] - seg.p0[1])
                else:
                    length = (seg.theta1 - seg.theta0) % TWO_PI if seg.ccw \
                        else (seg.theta0 - seg.theta1) % TWO_PI
                assert length <= dur + 1e-9


def test_exit_positions_are_true_exits():
    for scn in random_scenarios(seed=99, samples=100):
        tr1, tr2, _ = replay(scn)
        exits = [np.array([math.cos(p.theta), math.sin(p.theta)])
                 for p in (scn.e1, scn.e2)]
        for tr in (tr1, tr2):
            final = np.array(tr.final_pos)
            assert min(np.linalg.norm(final - e) for e in exits) < 1e-7
