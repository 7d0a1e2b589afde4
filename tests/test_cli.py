import math

import numpy as np
import pytest

from diskevac import _batch, sweep
from diskevac.cli import main, random_scenarios
from diskevac.geometry import ArcPos
from diskevac.meeting import RegimeError, SolverError
from diskevac.scenarios import CommModel, Scenario, ScenarioError, TraceInvalidError


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


@pytest.mark.parametrize("args", [
    ["sweep", "--d-step", "0.5", "--exit-step", "0.1", "--out"],
    ["table1", "--d-step", "0.5", "--exit-step", "0.1", "--out"],
    ["eval", "--d", "1.0", "--e1", "0.5", "--trace"],
])
@pytest.mark.parametrize("where", ["missing/out.txt", "."])
def test_unwritable_output_path_fails_before_any_work(args, where, tmp_path, capsys):
    path = tmp_path / where
    rc = main(args + [str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err
    assert captured.out == ""  # no table1 rows, no eval time
    assert not (tmp_path / "missing").exists()


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


@pytest.mark.parametrize("slack, expect", [("0", 3), ("nan", 2), ("inf", 2),
                                           ("-0.01", 2)])
def test_compare_slack_must_be_finite_and_nonnegative(slack, expect, capsys):
    # zeta = d exceeds zeta = 0 on this grid; a NaN slack used to hide that
    rc = main(["compare", "--model-a", "wireless", "--zeta-a", "d",
               "--model-b", "wireless", "--d-step", "0.5", "--exit-step", "0.1",
               "--slack", slack, "--expect-a-below-b"])
    out = capsys.readouterr().out
    assert rc == expect
    assert "never exceeds" not in out


def test_bounds_checks_zeta_before_printing(capsys):
    rc = main(["bounds", "--d", "1", "--zeta", "nan"])
    assert rc == 2
    assert capsys.readouterr().out == ""


def test_table1_coarse(capsys):
    rc = main(["table1", "--d-step", "0.2", "--exit-step", "0.02"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("min_time") == 6


def test_table1_writes_header_and_six_rows(tmp_path, capsys):
    path = tmp_path / "table1.csv"
    rc = main(["table1", "--d-step", "0.5", "--exit-step", "0.05", "--out", str(path)])
    capsys.readouterr()
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "zeta_policy,labeled,min_time,d_star"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["0", "0"], ["d", "0"], ["d/2", "0"], ["0", "1"], ["d", "1"], ["d/2", "1"]]


def test_bounds_prints_the_wireless_gap_bound(capsys):
    rc = main(["bounds", "--d", "1", "--zeta", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[1] == ("wireless_gap_bound(0.500000) = 3.386401 "
                                   "[pi - zeta/2 + 2*sin(pi - zeta/2)]")


def test_negative_zeta_is_named(capsys):
    rc = main(["eval", "--model", "wireless", "--d", "1", "--zeta", "-0.5", "--e1", "0.5"])
    captured = capsys.readouterr()
    assert rc == 2
    assert (captured.out, captured.err) == ("", "error: zeta = -0.5 negative\n")


def test_sweep_refuses_d_min_above_pi(capsys):
    rc = main(["sweep", "--d-min", "4", "--d-step", "0.5", "--exit-step", "0.1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert (captured.out, captured.err) == ("", "error: d_min = 4.0 outside [0, pi]\n")


def test_eval_sweep_and_verify_have_no_tol_option(capsys):
    # verify fails at the replay's EVENT_TIME_TOL; no verb loosens it
    rc_eval = main(["eval", "--model", "wireless", "--d", "1.0", "--zeta", "0",
                    "--e1", "0.5", "--tol", "1e-6"])
    rc_sweep = main(["sweep", "--model", "wireless", "--d-step", "1.0",
                     "--exit-step", "0.1", "--tol", "1e-6"])
    rc_verify = main(["verify", "--samples", "5", "--tol", "1e-4"])
    capsys.readouterr()
    assert rc_eval == 2
    assert rc_sweep == 2
    assert rc_verify == 2


@pytest.mark.parametrize("flag, value", [("--zeta", "nan"), ("--e1", "nan"),
                                         ("--d", "nan"), ("--e1", "inf")])
def test_eval_rejects_non_finite_input(flag, value, capsys):
    args = {"--d": "1.0", "--zeta": "0.5", "--e1": "0.5", flag: value}
    rc = main(["eval", "--model", "wireless"]
              + [tok for item in args.items() for tok in item])
    out = capsys.readouterr().out
    assert rc == 2
    assert "nan" not in out


@pytest.mark.parametrize("argv, message", [
    (["eval", "--d", "1", "--e1", "inf"], "angle inf is not finite"),
    (["eval", "--d", "1", "--e1=-inf"], "angle -inf is not finite"),
    (["sweep", "--zeta", "nan", "--d-step", "1", "--exit-step", "0.1"],
     "zeta = nan is not finite"),
])
def test_non_finite_input_is_named(argv, message, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("field", ["d", "zeta", "e1"])
def test_scenario_rejects_non_finite(field):
    values = {"d": 1.0, "zeta": 0.5, "e1": 0.5, field: math.nan}
    with pytest.raises(ScenarioError):
        Scenario(CommModel.WIRELESS, False, values["d"], values["zeta"],
                 ArcPos(values["e1"]))


@pytest.mark.parametrize("verb", ["sweep", "table1", "compare"])
@pytest.mark.parametrize("step", ["nan", "inf"])
def test_non_finite_sweep_step_rejected(verb, step, capsys):
    # a NaN or infinite d step never passes pi, so the d grid would not end
    required = {"sweep": [], "table1": [],
                "compare": ["--model-a", "wireless", "--model-b", "wireless"]}[verb]
    rc = main([verb, "--d-step", step] + required)
    assert rc == 2
    assert "is not finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["sweep", "table1", "compare"])
@pytest.mark.parametrize("option, step", [("--d-step", "1e-12"), ("--exit-step", "1e-9")])
def test_grid_above_its_ceiling_is_refused_before_it_is_built(verb, option, step, capsys,
                                                              monkeypatch):
    # 3.1e12 d cells, or 6.3e9 exit points (50 GB): refused from the step alone
    def built(*args):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(sweep.SweepConfig, "d_grid", built)
    monkeypatch.setattr(_batch, "exit_grid", built)
    sweep.SweepConfig(d_step=1e-4, exit_step=1e-5)  # 100 times the paper grid's density
    with pytest.raises(ValueError, match="above its ceiling"):
        sweep.SweepConfig(**{option[2:].replace("-", "_"): float(step)})
    required = {"sweep": [], "table1": [],
                "compare": ["--model-a", "wireless", "--model-b", "wireless"]}[verb]
    assert main([verb, option, step] + required) == 2
    assert "above its ceiling" in capsys.readouterr().err


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


@pytest.mark.parametrize("samples", ["-5", "0"])
def test_verify_needs_at_least_one_sample(samples, capsys):
    rc = main(["verify", "--samples", samples])
    captured = capsys.readouterr()
    assert rc == 2
    assert "verified" not in captured.out


@pytest.mark.parametrize("verb", ["sweep", "table1", "compare"])
def test_jobs_below_one_rejected(verb, capsys):
    required = {"sweep": [], "table1": [],
                "compare": ["--model-a", "wireless", "--model-b", "wireless"]}[verb]
    rc = main([verb, "--jobs", "0", "--d-step", "0.5", "--exit-step", "0.1"] + required)
    assert rc == 2
    assert "workers = 0" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["sweep", "--model", "wireless", "--zeta", "0.5"],
    ["sweep", "--model", "f2f", "--labeled", "--zeta", "0.5"],
    ["compare", "--model-a", "wireless", "--zeta-a", "0.5", "--model-b", "wireless"],
])
def test_sweep_refuses_zeta_above_d(args, capsys):
    # the d grid starts at 0, where zeta = 0.5 exceeds d; no cell may run
    rc = main(args + ["--d-step", "0.25", "--exit-step", "0.1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "exceeds d" in captured.err
    assert captured.out == ""


def test_sweep_with_zeta_at_most_every_d_runs(capsys):
    rc = main(["sweep", "--model", "wireless", "--zeta", "0.5", "--d-min", "0.5",
               "--d-step", "0.25", "--exit-step", "0.1"])
    rows = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert rows[0].startswith("0.500000,0.5,wireless,0,")
    assert len(rows) == 12  # 0.5 .. 3.0 step 0.25, plus the pi endpoint


def test_verify_reports_a_policy_error(monkeypatch, capsys):
    from diskevac import face_to_face
    from diskevac.scenarios import TraceInvalidError

    def broken(scn):
        raise TraceInvalidError("injected policy failure")

    monkeypatch.setattr(face_to_face, "eval_f2f_same", broken)
    rc = main(["verify", "--samples", "20", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "FAIL:" in out and "TraceInvalidError: injected policy failure" in out
    assert "verification failures" in out


@pytest.mark.parametrize("argv", [
    ["eval", "--d", "1", "--e1", "1"],
    ["sweep", "--d-step", "1", "--exit-step", "0.1"],
    ["table1", "--d-step", "1", "--exit-step", "0.1"],
    ["compare", "--model-a", "wireless", "--model-b", "wireless",
     "--d-step", "1", "--exit-step", "0.1"],
])
@pytest.mark.parametrize("error", [TraceInvalidError, RegimeError, SolverError])
def test_policy_failure_is_one_error_line_and_exit_3(argv, error, monkeypatch, capsys):
    from diskevac import _batch, wireless

    def broken(*args):
        raise error("injected policy failure")

    monkeypatch.setattr(wireless, "eval_wireless_unlabeled", broken)  # eval
    monkeypatch.setattr(_batch, "batch_cell", broken)  # every sweep cell
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 3
    assert (captured.out, captured.err) == (
        "", f"error: {error.__name__}: injected policy failure\n")


def test_verify_reports_a_deviation_above_tol(monkeypatch, capsys):
    from diskevac import cli, scenarios

    def late(scn):
        out = scenarios.evaluate(scn)
        return out._replace(r1_exit_time=out.r1_exit_time + 1e-3,
                            r2_exit_time=out.r2_exit_time + 1e-3)

    monkeypatch.setattr(cli, "evaluate", late)  # the replay integrates the unchanged plans
    rc = main(["verify", "--samples", "20", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "max |policy - replay| = 1.000e-03" in out
    assert out.count("FAIL:") == 20 and "vs replay" in out


def test_verify_default_tol_fails_an_exit_time_off_by_1e_6(monkeypatch, capsys):
    # verify's bound is the replay's EVENT_TIME_TOL, 1e-9, not 1e-4
    from diskevac import face_to_face

    real = face_to_face.eval_f2f_same

    def late(scn):
        out = real(scn)
        return out._replace(r1_exit_time=out.r1_exit_time + 1e-6)

    monkeypatch.setattr(face_to_face, "eval_f2f_same", late)
    rc = main(["verify", "--samples", "200", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "R1 policy exit" in out


def test_verify_fails_a_nan_receiver_chord(monkeypatch, capsys):
    from diskevac import wireless
    from diskevac.plans import ChordLeg

    real = wireless.eval_wireless_unlabeled

    def nan_chord(scn):
        out = real(scn)
        *legs, last = out.r2_plan
        if not isinstance(last, ChordLeg):  # R2 found first: no chord to break
            return out
        return out._replace(r2_plan=[*legs, ChordLeg(last.p0, (math.nan, math.nan))],
                            r2_exit_time=math.nan)

    monkeypatch.setattr(wireless, "eval_wireless_unlabeled", nan_chord)
    rc = main(["verify", "--samples", "2000", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "FAIL:" in out and "TraceInvalidError: trajectory ends at time nan" in out


def test_verify_fails_nan_exit_times(monkeypatch, capsys):
    from diskevac import face_to_face

    real = face_to_face.eval_f2f_same

    def nan_times(scn):
        return real(scn)._replace(r1_exit_time=math.nan, r2_exit_time=math.nan)

    monkeypatch.setattr(face_to_face, "eval_f2f_same", nan_times)
    rc = main(["verify", "--samples", "2000", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "FAIL:" in out and "policy nan vs replay" in out


def test_verify_fails_a_nan_exit_time_off_the_makespan(monkeypatch, capsys):
    from diskevac import face_to_face

    real = face_to_face.eval_f2f_same

    def nan_r2(scn):  # max(r1, nan) is r1, so the makespan alone passes this
        out = real(scn)
        if out.r1_exit_time >= out.r2_exit_time:
            return out._replace(r2_exit_time=math.nan)
        return out

    monkeypatch.setattr(face_to_face, "eval_f2f_same", nan_r2)
    rc = main(["verify", "--samples", "2000", "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "FAIL:" in out and "R2 policy exit nan vs replay" in out
    assert "R1 policy exit" not in out and "policy nan vs replay" not in out


@pytest.mark.parametrize("argv", [
    ["sweep", "--d-step", "0.5", "--exit-step", "0.1"],
    ["table1", "--d-step", "0.5", "--exit-step", "0.1"],
])
def test_nan_kernel_time_fails_the_sweep(argv, monkeypatch, capsys):
    from diskevac import _batch

    real = _batch.batch_cell

    def one_nan(*args):
        times, codes = real(*args)
        times = times.copy()
        times[1] = math.nan
        return times, codes

    monkeypatch.setattr(_batch, "batch_cell", one_nan)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("error: TraceInvalidError: non-finite evacuation time")


def _reference_scenarios(seed, samples):
    """random_scenarios' draws written with RandomState.uniform."""
    rng = np.random.RandomState(seed)
    kinds = ((CommModel.WIRELESS, False), (CommModel.WIRELESS, True),
             (CommModel.FACE_TO_FACE, False), (CommModel.FACE_TO_FACE, False),
             (CommModel.FACE_TO_FACE, True))
    out = []
    for _ in range(samples):
        k = rng.randint(len(kinds))
        d = rng.uniform(0.0, math.pi)
        e1 = rng.uniform(0.0, 2.0 * math.pi)
        zeta = 0.0 if k == 2 else d if k == 3 else rng.uniform(0.0, d)
        out.append(Scenario(*kinds[k], d, zeta, ArcPos(e1)))
    return out


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_random_scenarios_draw_what_uniform_draws(seed):
    assert random_scenarios(seed, 2000) == _reference_scenarios(seed, 2000)
