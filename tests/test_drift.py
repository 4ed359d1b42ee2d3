"""The batched drift engine against one trajectory at a time.

verify integrates all drift trajectories of a pair in one batch; each
result must be the one a geodesic_drift call of its own gives, exactly:
same drift, same exit, same exit time, same number of accepted steps and
the same largest error estimate.  Every row keeps its own step size, so an
exit is placed by its own step control: within 1e-3 of the crossing.
"""

import warnings

import numpy as np
import pytest

from benenti import catalog, operators as ops
from benenti.geometry import MetricField
from benenti.operators import PhaseSpacePoint
from benenti.pairfile import parse_pair
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


def first_unreadable(states, *metrics) -> int:
    """The index of the first state at which one of the metrics is
    degenerate."""
    return next(i for i, x in enumerate(states)
                if not all(m.nondegenerate(x) for m in metrics))


def test_a_degenerate_gbar_at_an_accepted_state_ends_the_trajectory():
    # the stages read g only, so the integration runs past the line where
    # gbar turns degenerate; the trajectory ends at the state before it
    gbar = overflowing("gbar", 0.2)
    pair = flat_pair(gbar)
    phi = start(pair, (1.5, 0.5), (1.0, 0.0))
    states = visited_states(pair, phi, 2.0)
    k = first_unreadable(states, gbar)
    assert k > 1  # an accepted state follows the start
    r = ops.geodesic_drift(pair, 0.5, phi, 2.0, TOL)
    assert r.exited and r.steps == k - 1
    # along x' = 1 from x = 1.5, a state's time is its x - 1.5
    assert r.exit_time == pytest.approx(states[k - 1][0] - 1.5)
    assert r.max_error <= TOL and r.max_drift <= 1e-12


def test_a_trajectory_ends_before_its_first_state_whose_form_raises():
    # the form checks a on all its points, then b; b turns degenerate first
    # along the path.  One call on every state raises a's error, so the
    # states are read one by one in step order, as if read at every
    # accepted step, and the first that raises is one of b's.
    pair = flat_pair()
    a, b = overflowing("a", 1.1), overflowing("b", -0.1)
    phi = start(pair, (1.5, 0.5), (1.0, 0.0))
    states = visited_states(pair, phi, 2.0)
    k = first_unreadable(states, a, b)
    assert a.nondegenerate(states[k]) and not all(a.nondegenerate(x) for x in states)

    def both(points):
        a.values(points)
        return b.values(points)

    r = ops.geodesic_form_drift(pair, both, phi, 2.0, TOL)
    assert r.exited and r.steps == k - 1
    assert r.exit_time == pytest.approx(states[k - 1][0] - 1.5)


def test_a_start_whose_form_raises_drifts_nan():
    pair = flat_pair()
    b = overflowing("b", -0.4)  # degenerate beyond x = 1.397
    r = ops.geodesic_form_drift(pair, b.values, start(pair, (1.5, 0.5), (1.0, 0.0)),
                                2.0, TOL)
    assert np.isnan(r.max_drift)
    assert r.exited and r.exit_time == 0.0 and r.steps == 0


GBAR_EDGE = """\
name: gbar-edge
dim: 2
coords: [x, y]
g:
  - ["1"]
  - ["0", "1"]
gbar:
  - ["1 + 0 * (1e308 * (x - 0.2))"]
  - ["0", "1"]
domain:
  x: [1.5, 2.5]
  y: [0.0, 1.0]
"""


def test_a_trajectory_into_a_degenerate_gbar_is_a_record():
    # gbar is degenerate beyond x = 1.997, inside the domain: the sampler
    # draws no start there, and every trajectory that gets there ends
    # before it, as one that leaves the domain does
    pair = parse_pair(GBAR_EDGE)
    cfg = VerifyConfig(points=20, seed=0, drift_trajectories=20, drift_horizon=2.0,
                       checks=("drift",))
    report = verify_pair(pair, cfg)
    assert report.passed and len(report.records) == 20
    for rec in report.records:
        params = dict(rec.params)
        assert params["exited"]
        # the geodesics of the flat g are straight lines
        end = rec.point[0] + params["velocity"][0] * params["exit_time"]
        assert 1.5 - 1e-9 <= end < 1.9971


def test_lengths_must_agree():
    pair = catalog.get_entry("dini").pair
    with pytest.raises(ValueError):
        ops.geodesic_drifts(pair, [0.0, 1.0], [start(pair, (1.6, 0.75), (0.5, 0.1))],
                            0.1, TOL)
    assert ops.geodesic_drifts(pair, [], [], 0.1, TOL) == []
