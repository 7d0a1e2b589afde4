import math

import pytest

from diskevac.cli import main
from diskevac.geometry import ArcPos
from diskevac.scenarios import CommModel, Scenario, ScenarioError


def test_eval_prints_time_and_case(capsys):
    rc = main(["eval", "--model", "wireless", "--d", "3.14159265",
               "--zeta", "0", "--e1", "0.78539816"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2.1996" in out
    assert "W1a" in out


def test_eval_with_center_leg(capsys):
    rc = main(["eval", "--model", "wireless", "--d", "3.14159265",
               "--zeta", "0", "--e1", "0.78539816", "--include-center-leg"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "3.1996" in out


def test_bounds_small_d(capsys):
    rc = main(["bounds", "--d", "1.0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "3.000000" in out


def test_verify_seeded(capsys):
    rc = main(["verify", "--samples", "150", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max |policy - replay|" in out


def test_usage_error_on_unknown_flag(capsys):
    rc = main(["eval", "--bogus", "1"])
    capsys.readouterr()
    assert rc == 2


def test_usage_error_on_invalid_range(capsys):
    rc = main(["eval", "--model", "wireless", "--d", "9.0", "--zeta", "0",
               "--e1", "0.0"])
    capsys.readouterr()
    assert rc == 2


def test_usage_error_on_zeta_above_d(capsys):
    rc = main(["eval", "--model", "wireless", "--d", "1.0", "--zeta", "1.5",
               "--e1", "0.0"])
    capsys.readouterr()
    assert rc == 2


def test_sweep_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    rc = main(["sweep", "--model", "wireless", "--zeta", "d",
               "--d-step", "0.5", "--exit-step", "0.05",
               "--out", str(out_path)])
    capsys.readouterr()
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "d,zeta_policy,model,labeled,worst_time,argmax_e1,case"
    assert len(lines) == 9  # 0.0 .. 3.0 step 0.5, plus the pi endpoint


def test_eval_trace_dump(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    rc = main(["eval", "--model", "f2f", "--d", "2.0", "--zeta", "0",
               "--e1", "1.0", "--trace", str(trace)])
    capsys.readouterr()
    assert rc == 0
    assert trace.read_text().count("\n") >= 2


def test_compare_expectation_failure(capsys):
    # wireless zeta=d/2 is not everywhere below zeta=0, so expecting
    # dominance must fail with exit code 3
    rc = main(["compare", "--model-a", "wireless", "--zeta-a", "d/2",
               "--model-b", "wireless", "--zeta-b", "0",
               "--d-step", "0.4", "--exit-step", "0.02",
               "--expect-a-below-b"])
    capsys.readouterr()
    assert rc == 3


def test_compare_dominance_holds(capsys):
    # one exit-grid step of slack absorbs coarse-grid quantization noise
    rc = main(["compare", "--model-a", "wireless", "--zeta-a", "d",
               "--model-b", "wireless", "--zeta-b", "0",
               "--d-step", "0.4", "--exit-step", "0.02", "--slack", "0.02",
               "--expect-a-below-b"])
    capsys.readouterr()
    assert rc == 0


def test_table1_coarse(capsys):
    rc = main(["table1", "--d-step", "0.2", "--exit-step", "0.02"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("min_time") == 6


def test_eval_and_sweep_have_no_tol_option(capsys):
    rc_eval = main(["eval", "--model", "wireless", "--d", "1.0", "--zeta", "0",
                    "--e1", "0.5", "--tol", "1e-6"])
    rc_sweep = main(["sweep", "--model", "wireless", "--d-step", "1.0",
                     "--exit-step", "0.1", "--tol", "1e-6"])
    capsys.readouterr()
    assert rc_eval == 2
    assert rc_sweep == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-4"])
def test_verify_tol_must_be_finite_and_positive(tol, capsys):
    rc = main(["verify", "--samples", "5", "--tol", tol])
    capsys.readouterr()
    assert rc == 2


def test_verify_tol_has_no_solver_floor(capsys):
    # a replay-deviation threshold below 1e-12 is a valid request
    rc = main(["verify", "--samples", "5", "--tol", "1e-13"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verified 5 scenarios" in out


@pytest.mark.parametrize("flag, value", [("--zeta", "nan"), ("--e1", "nan"),
                                         ("--d", "nan"), ("--e1", "inf")])
def test_eval_rejects_non_finite_input(flag, value, capsys):
    args = {"--d": "1.0", "--zeta": "0.5", "--e1": "0.5", flag: value}
    rc = main(["eval", "--model", "wireless"]
              + [tok for item in args.items() for tok in item])
    out = capsys.readouterr().out
    assert rc == 2
    assert "nan" not in out


@pytest.mark.parametrize("field", ["d", "zeta", "e1"])
def test_scenario_rejects_non_finite(field):
    values = {"d": 1.0, "zeta": 0.5, "e1": 0.5, field: math.nan}
    with pytest.raises(ScenarioError):
        Scenario(CommModel.WIRELESS, False, values["d"], values["zeta"],
                 ArcPos(values["e1"]))


@pytest.mark.parametrize("verb", ["sweep", "table1", "compare"])
@pytest.mark.parametrize("step", ["nan", "inf"])
def test_non_finite_sweep_step_rejected(verb, step, capsys):
    # a NaN or infinite d step never passes d_max, so the d grid would not end
    required = {"sweep": [], "table1": [],
                "compare": ["--model-a", "wireless", "--model-b", "wireless"]}[verb]
    rc = main([verb, "--d-step", step] + required)
    assert rc == 2
    assert "is not finite and > 0" in capsys.readouterr().err


def test_eval_f2f_zeta_within_tolerance_of_zero(capsys):
    rc = main(["eval", "--model", "f2f", "--d", "1", "--zeta", "5e-10", "--e1", "2"])
    near = capsys.readouterr().out
    main(["eval", "--model", "f2f", "--d", "1", "--zeta", "0", "--e1", "2"])
    exact = capsys.readouterr().out
    assert rc == 0
    assert near.startswith("time 3.282963 case F0-4a\n")
    assert near == exact


def test_eval_f2f_unlabeled_zeta_between_0_and_d(capsys):
    rc = main(["eval", "--model", "f2f", "--d", "1", "--zeta", "0.5", "--e1", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "{0, d}" in captured.err
    assert captured.out == ""
