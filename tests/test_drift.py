"""The batched drift engine against one trajectory at a time.

verify integrates all drift trajectories of a pair in one batch; each
result must be the one a geodesic_drift call of its own gives, exactly:
same drift, same exit, same exit time, same number of accepted steps and
the same largest error estimate.  Every row keeps its own step size, so an
exit is placed by its own step control: within 1e-3 of the crossing.
"""

import re
import warnings

import numpy as np
import pytest

from benenti import catalog, operators as ops
from benenti.errors import DegenerateMetricError
from benenti.geometry import MetricField
from benenti.operators import PhaseSpacePoint
from benenti.projective import ProjectivePair
from benenti.verify import VerifyConfig, verify_pair

TOL = 1e-10


def start(pair, x0, v):
    """Phase-space start point with velocity v at x0."""
    return PhaseSpacePoint(x0, tuple(pair.g.values(x0) @ np.asarray(v, dtype=float)))


def one_at_a_time(pair, ts, phis, horizon, tol):
    return [ops.geodesic_drift(pair, t, phi, horizon, tol) for t, phi in zip(ts, phis)]


def crossing_time(pair, t, phi, horizon):
    """When the trajectory from phi leaves the domain, to within 1e-9: the
    horizon from which a run at the tightest tolerance starts to exit, found
    by bisection on [0, horizon]."""
    lo, hi = 0.0, horizon
    while hi - lo > 1e-9:
        mid = (lo + hi) / 2
        if ops.geodesic_drift(pair, t, phi, mid, ops.MIN_TOLERANCE).exited:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("name", catalog.list_entries())
def test_verify_records_equal_single_trajectories(name):
    pair = catalog.get_entry(name).pair
    cfg = VerifyConfig(points=4, drift_trajectories=4, drift_horizon=0.1,
                       checks=("drift",))
    records = verify_pair(pair, cfg).records
    assert len(records) == 4
    for rec in records:
        params = dict(rec.params)
        phi = PhaseSpacePoint(rec.point, tuple(params["momentum"]))
        # the trajectory alone, as a batch of one, as geodesic_drift runs it
        single = ops.geodesic_drifts(pair, [params["t"]], [phi], cfg.drift_horizon,
                                     cfg.drift_tolerance(),
                                     velocities=[params["velocity"]])[0]
        assert rec.residual == single.max_drift
        assert params["exited"] == single.exited
        assert params.get("exit_time") == single.exit_time
        assert params["steps"] == single.steps
        assert params["max_error"] == single.max_error <= cfg.drift_tolerance()


def test_rows_keep_their_own_t():
    pair = catalog.get_entry("dini").pair
    ts = [-2.0, 0.0, 0.5, 3.0]
    phis = [start(pair, (1.6, 0.75), (0.55, -0.5)),
            start(pair, (1.5, 0.8), (0.3, 0.2)),
            start(pair, (1.6, 0.75), (0.55, -0.5)),
            start(pair, (2.0, 0.6), (-0.4, 0.1))]
    batch = ops.geodesic_drifts(pair, ts, phis, 0.2, TOL)
    assert batch == one_at_a_time(pair, ts, phis, 0.2, TOL)
    # the same start point conserves I_t to a different rounding for each t
    assert batch[0].max_drift != batch[2].max_drift


def test_a_row_that_leaves_the_domain():
    pair = catalog.get_entry("dini").pair
    ts = [0.0, 0.0, 1.0]
    phis = [start(pair, (1.6, 0.75), (0.55, -0.5)),
            start(pair, (2.8, 0.9), (1.5, 1.5)),  # heads out of the box
            start(pair, (1.5, 0.8), (0.3, 0.2))]
    batch = ops.geodesic_drifts(pair, ts, phis, 0.6, TOL)
    assert [r.exited for r in batch] == [False, True, False]
    crossing = crossing_time(pair, ts[1], phis[1], 0.6)
    assert 0.03 < crossing < 0.04
    assert crossing - 1e-3 <= batch[1].exit_time < crossing
    assert batch[0].exit_time is None and batch[2].exit_time is None
    assert batch[0].steps != batch[2].steps  # each row sizes its own steps
    assert batch == one_at_a_time(pair, ts, phis, 0.6, TOL)


def half_plane_pair():
    """diag(1, x) written as diag(1, sqrt(x)^2): degenerate on the line x = 0
    and undefined beyond it, with no sampling domain to stop a trajectory
    before a stage is evaluated there."""
    g = MetricField(("x", "y"), [["1", "0"], ["0", "sqrt(x)^2"]], name="half")
    return ProjectivePair(g, g, name="half-plane")


def test_a_row_whose_stage_raises_mid_batch():
    pair = half_plane_pair()
    ts = [0.0, 0.0, 0.0]
    # with no y-velocity the geodesics are straight lines in x
    phis = [start(pair, (0.5, 0.0), (1.0, 0.0)),
            start(pair, (0.5, 0.0), (-1.0, 0.0)),  # reaches x = 0 at 0.5
            start(pair, (1.0, 0.3), (0.5, 0.2))]
    batch = ops.geodesic_drifts(pair, ts, phis, 1.0, TOL)
    assert [r.exited for r in batch] == [False, True, False]
    assert 0.499 <= batch[1].exit_time < 0.5
    assert batch[0].exit_time is None and batch[2].exit_time is None
    assert batch == one_at_a_time(pair, ts, phis, 1.0, TOL)


def test_a_bug_in_a_stage_is_not_a_domain_exit(monkeypatch):
    def broken(metric, points):
        raise TypeError("a bug, not a domain exit")

    monkeypatch.setattr(ops, "christoffel_values", broken)
    pair = catalog.get_entry("dini").pair
    with pytest.raises(TypeError):
        ops.geodesic_drift(pair, 0.0, PhaseSpacePoint((1.6, 0.75), (0.3, -0.2)),
                           0.1, TOL)


def test_an_overflowing_component_warns_nothing():
    # 1e308 * x overflows beyond x = 1.797, where a drift stage meets
    # non-finite jet coefficients of g; sampling keeps to the finite side
    g = MetricField(("x", "y"), [["1 + 0 * (1e308 * x)", "0"], ["0", "1"]], name="g")
    pair = ProjectivePair(g, g, domain={"x": (1.0, 2.6), "y": (0.0, 1.0)})
    cfg = VerifyConfig(points=5, drift_trajectories=5, drift_horizon=2.0,
                       checks=("drift",))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = verify_pair(pair, cfg).records
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        strict = verify_pair(pair, cfg).records
    assert any(dict(r.params)["exited"] for r in quiet)
    assert repr(strict) == repr(quiet)  # NaN residuals compare by their text


def test_form_is_evaluated_on_a_batch_of_points():
    # g itself is the energy, conserved along every geodesic
    pair = catalog.get_entry("dini").pair
    seen = []

    def energy(points):
        seen.append(np.shape(points))
        return pair.g.values(points)

    phi = start(pair, (1.6, 0.75), (0.55, -0.5))
    r = ops.geodesic_form_drift(pair, energy, phi, 0.2, TOL)
    # one call, after the loop, on the start and every accepted state
    assert seen == [(r.steps + 1, 2)]
    assert not r.exited and r.max_drift <= 1e-8


def test_one_form_call_per_batch_of_trajectories(monkeypatch):
    calls = []

    def counted(pair, x):
        calls.append(np.shape(x))
        return structure_values(pair, x)

    structure_values = ops._structure_values
    monkeypatch.setattr(ops, "_structure_values", counted)
    pair = catalog.get_entry("dini").pair
    ts = [0.0, 0.5, 2.0]
    phis = [start(pair, (1.6, 0.75), (0.55, -0.5)),
            start(pair, (1.5, 0.8), (0.3, 0.2)),
            start(pair, (2.0, 0.6), (-0.4, 0.1))]
    batch = ops.geodesic_drifts(pair, ts, phis, 0.2, TOL)
    assert calls == [(len(ts) + sum(r.steps for r in batch), 2)]


def test_a_nan_drift_sticks():
    # one NaN invariant mid-trajectory, finite ones after it: the drift stays
    # NaN, since a NaN ranks above every number
    pair = catalog.get_entry("dini").pair
    calls = []

    def energy(points):
        calls.append(len(points))
        values = pair.g.values(points)
        values[3] = np.nan  # the third accepted step
        return values

    phi = start(pair, (1.6, 0.75), (0.55, -0.5))
    r = ops.geodesic_form_drift(pair, energy, phi, 0.2, TOL)
    # the form is evaluated once, at the start and at every accepted step
    assert calls == [r.steps + 1] and r.steps > 3 and not r.exited
    assert np.isnan(r.max_drift)


def flat_pair(gbar=None):
    flat = MetricField(("x", "y"), [["1", "0"], ["0", "1"]], name="flat")
    return ProjectivePair(flat, flat if gbar is None else gbar)


def overflowing(name, shift):
    """diag(1, 1) with a NaN component, so degenerate, where 1e308 * (x -
    shift) overflows: beyond x = shift + 1.797."""
    return MetricField(("x", "y"), [[f"1 + 0 * (1e308 * (x - {shift}))", "0"],
                                    ["0", "1"]], name=name)


def visited_states(pair, phi, horizon):
    """The states at which the form of a drift from phi is read, in order."""
    states = []

    def record(points):
        states.extend(np.array(points))
        return pair.g.values(points)

    ops.geodesic_form_drift(pair, record, phi, horizon, TOL)
    return states


def error_at(metric, point) -> str:
    with pytest.raises(DegenerateMetricError) as err:
        metric.values(point)
    return str(err.value)


def test_a_degenerate_gbar_at_an_accepted_state_raises():
    # the stages read g only, so the integration runs past the line where
    # gbar turns degenerate; the form's error names the first state beyond it
    gbar = overflowing("gbar", 0.2)
    pair = flat_pair(gbar)
    phi = start(pair, (1.5, 0.5), (1.0, 0.0))
    states = visited_states(pair, phi, 2.0)
    first = next(x for x in states if not gbar.nondegenerate(x))
    assert first[0] > 1.5  # an accepted state, not the start
    with pytest.raises(DegenerateMetricError, match=re.escape(error_at(gbar, first))):
        ops.geodesic_drift(pair, 0.5, phi, 2.0, TOL)


def test_a_form_error_is_that_of_the_first_raising_state():
    # the form checks a on all its points, then b; b turns degenerate first
    # along the path.  One call on every state would raise a's error at a
    # later state, so the error comes from the form run state batch by
    # state batch in step order, as if read at every accepted step.
    pair = flat_pair()
    a, b = overflowing("a", 1.1), overflowing("b", -0.1)
    phi = start(pair, (1.5, 0.5), (1.0, 0.0))
    states = visited_states(pair, phi, 2.0)
    first = next(x for x in states if not b.nondegenerate(x))
    assert a.nondegenerate(first) and not all(a.nondegenerate(x) for x in states)

    def both(points):
        a.values(points)
        return b.values(points)

    with pytest.raises(DegenerateMetricError, match=re.escape(error_at(b, first))):
        ops.geodesic_form_drift(pair, both, phi, 2.0, TOL)


def test_lengths_must_agree():
    pair = catalog.get_entry("dini").pair
    with pytest.raises(ValueError):
        ops.geodesic_drifts(pair, [0.0, 1.0], [start(pair, (1.6, 0.75), (0.5, 0.1))],
                            0.1, TOL)
    assert ops.geodesic_drifts(pair, [], [], 0.1, TOL) == []
