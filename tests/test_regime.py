"""One classifier routes every scenario: evaluate, replay and sweep agree."""

import builtins
import dataclasses
import pickle

import pytest

from diskevac import face_to_face, scenarios, wireless
from diskevac.cli import run_verification
from diskevac.geometry import ArcPos
from diskevac.replay import replay
from diskevac.scenarios import (
    CommModel,
    Regime,
    Scenario,
    WrongEvaluatorError,
    classify,
    evaluate,
)
from diskevac.sweep import SeriesSpec, SweepConfig, run_sweep

WL, F2F = CommModel.WIRELESS, CommModel.FACE_TO_FACE


def _family(tag: str) -> Regime:
    """The policy family a case tag belongs to."""
    return {"F0": Regime.F2F_SAME, "Fd": Regime.F2F_DIFF, "FL": Regime.F2F_LABELED,
            "WL": Regime.WIRELESS_LABELED}.get(tag[:2], Regime.WIRELESS)


class _OneCell(SweepConfig):
    """A sweep configuration whose d grid is d_min alone."""

    def d_grid(self):
        return [self.d_min]


def _one_cell(model, labeled, d, zeta):
    cfg = _OneCell(d_step=0.1, exit_step=0.05, d_min=d)
    return run_sweep(cfg, SeriesSpec(model, labeled, repr(zeta)))


@pytest.mark.parametrize("model, labeled, d, zeta, regime", [
    (WL, False, 1.0, 0.5, Regime.WIRELESS),
    (WL, True, 1.0, 0.0, Regime.WIRELESS_LABELED),
    (WL, True, 1.0, 0.5, Regime.WIRELESS_LABELED),
    (WL, True, 1.0, 1.0, Regime.WIRELESS_LABELED),
    (WL, False, 0.0, 0.0, Regime.WIRELESS),
    (F2F, True, 1.0, 0.5, Regime.F2F_LABELED),
    (F2F, True, 0.0, 0.0, Regime.F2F_LABELED),
    (F2F, False, 1.0, 0.0, Regime.F2F_SAME),
    (F2F, False, 1.0, 5e-10, Regime.F2F_SAME),
    (F2F, False, 1.0, 1.0, Regime.F2F_DIFF),
    (F2F, False, 1.0, 1.0 - 5e-10, Regime.F2F_DIFF),
    # zeta ~ 0 is tested before zeta ~ d, so d = 0 stays with zeta = 0
    (F2F, False, 0.0, 0.0, Regime.F2F_SAME),
    (F2F, False, 5e-10, 5e-10, Regime.F2F_SAME),
])
def test_every_path_routes_alike(model, labeled, d, zeta, regime):
    assert classify(model, labeled, d, zeta) is regime
    scn = Scenario(model, labeled, d, zeta, ArcPos(2.0))
    assert scn.regime is regime
    out = evaluate(scn)
    assert set(scenarios._EVALUATORS) == set(Regime)  # one evaluator per regime
    assert _family(out.case_tag) is regime
    assert replay(scn)[2] == pytest.approx(out.time_from_perimeter, abs=1e-9)
    (record,) = _one_cell(model, labeled, d, zeta)
    assert _family(record.case_tag) is regime


def test_unlabeled_f2f_between_0_and_d_is_refused_everywhere():
    # no algorithm covers it: the scenario is refused when built, the sweep
    # before any cell runs
    for route in (lambda: Scenario(F2F, False, 1.0, 0.5, ArcPos(2.0)),
                  lambda: _one_cell(F2F, False, 1.0, 0.5)):
        with pytest.raises(WrongEvaluatorError, match=r"\{0, d\}"):
            route()


def test_each_scenario_is_classified_once(monkeypatch):
    # evaluate and the evaluator's own check both read scn.regime (the
    # replay takes the evaluated outcome); the scenario classified itself
    # when it was built
    calls = []
    real = scenarios.classify
    monkeypatch.setattr(scenarios, "classify",
                        lambda *args: calls.append(args) or real(*args))
    _, issues = run_verification(200, 0, 1e-4)
    assert not issues
    assert len(calls) == 200


def test_verification_evaluates_each_scenario_once(monkeypatch):
    # the replay integrates the outcome run_verification already holds
    calls = []
    for module in (face_to_face, wireless):
        for name in [n for n in dir(module) if n.startswith("eval_")]:
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda scn, real=real: calls.append(scn) or real(scn))
    _, issues = run_verification(5000, 0, 1e-4)
    assert not issues
    assert len(calls) == 5000


def test_scenario_derives_e2_when_built_and_keeps_its_repr():
    scn = Scenario(F2F, True, 1.0, 0.5, ArcPos(6.0))
    assert scn.e2 == scn.e1.offset(1.0) == ArcPos(7.0)
    # verify's FAIL lines print scenarios: e2 stays out of the repr
    assert repr(scn) == ("Scenario(model=<CommModel.FACE_TO_FACE: 'f2f'>, labeled=True, "
                         "d=1.0, zeta=0.5, e1=ArcPos(theta=6.0))")
    moved = dataclasses.replace(scn, d=0.5)
    assert moved.e2 == ArcPos(6.5)
    assert moved == Scenario(F2F, True, 0.5, 0.5, ArcPos(6.0)) != scn


def test_verification_builds_one_frame_per_scenario(monkeypatch):
    frames = []
    real = scenarios.Frame.__init__
    monkeypatch.setattr(scenarios.Frame, "__init__",
                        lambda self, scn: frames.append(scn) or real(self, scn))
    _, issues = run_verification(200, 0, 1e-4)
    assert not issues
    assert len(frames) == 200


def test_evaluate_runs_no_import_after_warm_up(monkeypatch):
    corpus = [Scenario(model, labeled, 1.0, zeta, ArcPos(2.0))
              for model, labeled, zeta in ((F2F, False, 0.0), (F2F, False, 1.0), (F2F, True, 0.5),
                                           (WL, False, 0.5), (WL, True, 0.5))]
    for scn in corpus:
        evaluate(scn)
    imports = []
    real = builtins.__import__
    monkeypatch.setattr(builtins, "__import__",
                        lambda *args, **kw: imports.append(args[0]) or real(*args, **kw))
    for scn in corpus:
        evaluate(scn)
    assert imports == []


@pytest.mark.parametrize("copy", [lambda scn: pickle.loads(pickle.dumps(scn)),
                                  lambda scn: dataclasses.replace(scn)])
def test_scenario_keeps_its_regime_when_copied(copy):
    scn = Scenario(F2F, False, 1.0, 1.0, ArcPos(2.0))
    twin = copy(scn)
    assert twin == scn and repr(twin) == repr(scn)
    assert twin.regime is Regime.F2F_DIFF
    moved = dataclasses.replace(twin, zeta=0.0)  # a new zeta is classified anew
    assert moved.regime is Regime.F2F_SAME
    with pytest.raises(WrongEvaluatorError, match=r"\{0, d\}"):
        dataclasses.replace(scn, zeta=0.5)  # routed to no algorithm: not built
