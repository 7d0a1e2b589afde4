"""Two-robot, two-exit evacuation simulator on the unit disk."""

from .bounds import BoundRegime, BoundResult, f2f_lower_bound, wireless_gap_bound
from .face_to_face import (
    eval_f2f_diff,
    eval_f2f_labeled,
    eval_f2f_same,
    worst_f2f,
)
from .geometry import (
    ArcPos,
    Direction,
    cartesian,
    chord_length,
    normalize_angle,
)
from .meeting import RegimeError, SolverError, solve_meeting
from .plans import Outcome
from .replay import Trajectory, dump_trace, replay, verify_agreement
from .scenarios import (
    CommModel,
    Regime,
    Scenario,
    ScenarioError,
    TraceInvalidError,
    UnsupportedRegimeError,
    WrongEvaluatorError,
    classify,
    evaluate,
    resolve_zeta,
)
from .sweep import (
    SeriesSpec,
    SweepConfig,
    SweepRecord,
    crossing_intervals,
    local_minima,
    min_over_d,
    run_sweep,
    table1,
    transition_points,
    write_csv,
)
from .wireless import (
    eval_wireless_labeled,
    eval_wireless_unlabeled,
    worst_wireless,
)

__all__ = [name for name in dir() if not name.startswith("_")]
