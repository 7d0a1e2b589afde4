import dataclasses
import importlib
import math

import numpy as np
import pytest

from diskevac import _batch
from diskevac.cli import main, random_scenarios
from diskevac.geometry import TWO_PI, ArcPos, Direction, cartesian
from diskevac.plans import ArcLeg, ChordLeg
from diskevac.replay import Event, dump_trace, replay, verify_agreement
from diskevac.scenarios import CommModel, Scenario, TraceInvalidError, evaluate

replay_mod = importlib.import_module("diskevac.replay")  # the package exports a replay()


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


def _flagged(monkeypatch, scn, mutate) -> bool:
    """Replay scn with mutate applied to its outcome; True if anything objects."""
    real = replay_mod.evaluate
    monkeypatch.setattr(replay_mod, "evaluate", lambda s: mutate(real(s)))
    try:
        tr1, tr2, _ = replay(scn)
    except TraceInvalidError:
        return True
    return not verify_agreement(scn, tr1, tr2).passed


def _extend_sweep(legs, extra):
    """The first leg sweeps `extra` further; the next leg starts there."""
    sweep, turn, *rest = legs
    end = sweep.end.offset(extra if sweep.direction is Direction.CCW else -extra)
    return [ArcLeg(sweep.start, end, sweep.direction),
            ChordLeg(cartesian(end), turn.p1), *rest]


def _receiver_mutated(change):
    """Mutation: change the legs of the wireless receiver (the robot that turns)."""
    def mutate(out):
        name = "r1_plan" if len(out.r1_plan) > 1 else "r2_plan"
        return dataclasses.replace(out, **{name: change(getattr(out, name))})
    return mutate


def _catch_point_moved(out):
    """Mutation: the partner's sweep ends 1e-6 of arc past the catch point."""
    (meet,) = out.meets
    name = "r1_plan" if math.dist(out.r1_plan[0].p1, meet) < 1e-12 else "r2_plan"
    assert math.dist(getattr(out, name)[0].p1, meet) < 1e-12
    return dataclasses.replace(out, **{name: _extend_sweep(getattr(out, name), 1e-6)})


WL_SCN = Scenario(CommModel.WIRELESS, False, 2.0, 1.0, ArcPos(1.3))
F2F_SCN = Scenario(CommModel.FACE_TO_FACE, False, 2.0, 0.0, ArcPos(1.0))


def test_unmutated_plans_pass(monkeypatch):
    for scn in (WL_SCN, F2F_SCN):
        assert not _flagged(monkeypatch, scn, lambda out: out)


def test_receiver_sweeping_past_the_message_is_flagged(monkeypatch):
    # the message lands when the receiver's own sweep ends, 0.3 after it left
    assert _flagged(monkeypatch, WL_SCN, _receiver_mutated(lambda legs: _extend_sweep(legs, 0.3)))


def test_moved_catch_point_is_flagged(monkeypatch):
    assert _flagged(monkeypatch, F2F_SCN, _catch_point_moved)


def test_leg_starting_away_from_the_robot_is_flagged(monkeypatch):
    def jump(legs):
        sweep, turn = legs
        return [sweep, ChordLeg((turn.p0[0] + 1e-6, turn.p0[1]), turn.p1)]
    assert _flagged(monkeypatch, WL_SCN, _receiver_mutated(jump))


def test_arc_one_ulp_short_of_a_lap_is_priced_once(monkeypatch):
    # a counterclockwise arc leg ending one ulp clockwise of its own start:
    # the replay prices it 0 (normalize_angle snaps the rounded 2*pi), and
    # the agreement check must price it the same way, not as a full lap
    def mutate(out):
        end = out.r1_plan[-1].end
        leg = ArcLeg(end, ArcPos(math.nextafter(end.theta, 0.0)), Direction.CCW)
        return dataclasses.replace(out, r1_plan=[*out.r1_plan, leg])
    assert not _flagged(monkeypatch, WL_SCN, mutate)


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


def _batch_outcome(scn):
    """(time, case tag) of the vectorized kernel at scn's one placement."""
    times, codes = _batch.batch_cell(scn.regime, scn.d, scn.zeta, np.array([scn.e1.theta]),
                                     scn.labeled)
    return float(times[0]), _batch.decode_tag(codes[0])


REGIMES = [("wireless", False), ("wireless", True), ("f2f", True), ("f2f", False)]


@pytest.mark.parametrize("model, labeled", REGIMES)
@pytest.mark.parametrize("d, zeta, e1", [
    # E2 1e-10 clockwise of R1's start, E1 1e-10 ahead of R2's
    (1.0, 1.0, 5.783185307079586),
    # both robots start on exits (zeta = d, e1 = -d/2); rounding puts E2
    # an ulp behind R1's start
    (0.1, 0.1, -0.05),
    (0.6, 0.6, -0.3),
    # only R1 starts (1e-10 past) on an exit; R2 finds much later
    (1.0, 1.0, 0.5 - 1e-10),
    (2.0, 2.0, -1.0 - 1e-10),
])
def test_exit_just_behind_a_start_is_found_in_place(model, labeled, d, zeta, e1, capsys):
    args = ["eval", "--model", model, "--d", repr(d), "--zeta", repr(zeta), "--e1", repr(e1)]
    assert main(args + (["--labeled"] if labeled else [])) == 0
    m = CommModel.WIRELESS if model == "wireless" else CommModel.FACE_TO_FACE
    scn = Scenario(m, labeled, d, zeta, ArcPos(e1))
    res = evaluate(scn)
    tr1, tr2, makespan = replay(scn)
    assert abs(makespan - res.time_from_perimeter) < 1e-9
    report = verify_agreement(scn, tr1, tr2)
    assert report.passed, report.issues
    # the robot on the exit never sweeps a lap
    assert min(tr1.segments[0].t1, tr2.segments[0].t1) < 1e-9
    t_batch, tag_batch = _batch_outcome(scn)
    assert t_batch == pytest.approx(res.time_from_perimeter, abs=1e-9)
    assert tag_batch == res.case_tag
