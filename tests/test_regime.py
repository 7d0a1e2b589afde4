"""One classifier routes every scenario: evaluate, plan and sweep agree."""

import pytest

from diskevac.geometry import ArcPos
from diskevac.scenarios import (
    CommModel,
    Regime,
    Scenario,
    WrongEvaluatorError,
    classify,
    evaluate,
    plan,
)
from diskevac.sweep import SeriesSpec, SweepConfig, run_sweep

WL, F2F = CommModel.WIRELESS, CommModel.FACE_TO_FACE


def _family(tag: str) -> Regime:
    """The policy family a case tag belongs to."""
    return {"F0": Regime.F2F_SAME, "Fd": Regime.F2F_DIFF,
            "FL": Regime.F2F_LABELED}.get(tag[:2], Regime.WIRELESS)


def _one_cell(model, labeled, d, zeta):
    cfg = SweepConfig(d_step=0.1, exit_step=0.05, d_min=d, d_max=d)
    return run_sweep(cfg, SeriesSpec(model, labeled, repr(zeta)))


@pytest.mark.parametrize("model, labeled, d, zeta, regime", [
    (WL, False, 1.0, 0.5, Regime.WIRELESS),
    (WL, True, 1.0, 0.0, Regime.WIRELESS),
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
    assert _family(evaluate(scn).case_tag) is regime
    assert _family(plan(scn).case_tag) is regime
    (record,) = _one_cell(model, labeled, d, zeta)
    assert _family(record.case_tag) is regime


def test_unlabeled_f2f_between_0_and_d_is_refused_everywhere():
    # the scenario itself is valid; only the routing refuses it
    scn = Scenario(F2F, False, 1.0, 0.5, ArcPos(2.0))
    for route in (lambda: scn.regime, lambda: evaluate(scn), lambda: plan(scn),
                  lambda: _one_cell(F2F, False, 1.0, 0.5)):
        with pytest.raises(WrongEvaluatorError, match=r"\{0, d\}"):
            route()
