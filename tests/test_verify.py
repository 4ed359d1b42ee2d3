import math
import re
import warnings
from itertools import combinations_with_replacement
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from benenti import catalog, operators as ops, pairfile, verify
from benenti.errors import DegenerateMetricError
from benenti.geometry import MetricField
from benenti.projective import (
    PointFrame,
    ProjectivePair,
    check_carter_condition,
    check_killing_tensor,
)

import jet_reference


# strings PyYAML must quote, escape or wrap: YAML keywords and numbers,
# indicators, quotes, non-ASCII text, line breaks and long text with spaces
AWKWARD = st.sampled_from([
    "yes", "no", "null", "~", "1e3", "0x1f", "-", "- x", "*x", "&x", "!x",
    "x: y", "x #y", "# x", "it's", '"x"', "", " x", "x ", "é", "ψ_1 ∂x",
    "x\ny", "x\n", "\u2028", "\t", "@x", "%x", "x,y", "[x]", "{x}",
]) | st.lists(st.sampled_from(["coordinate", "x", ":", "#", "'", "-", "é",
                               "\n", " "]), min_size=10, max_size=60).map(
    " ".join) | st.text(max_size=100)
RESIDUALS = st.sampled_from([
    math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e17, 5e-324, 1.5, -2.0,
]) | st.floats()


def pyyaml_text(doc) -> str:
    """The oracle of ``VerificationReport.render``: PyYAML's own writer."""
    return yaml.dump(doc, Dumper=yaml.SafeDumper, sort_keys=False,
                     default_flow_style=False)


def strip_timing(text: str) -> str:
    return re.sub(r"timing:\n(  .*\n)+", "", text)


def quick_report(name, **overrides):
    entry = catalog.get_entry(name)
    cfg = verify.quick_config(**overrides)
    return verify.verify_pair(
        entry.pair, cfg, source="catalog",
        expected_equivalent=entry.expected_equivalent,
    )


class TestConfig:
    def test_defaults(self):
        cfg = verify.VerifyConfig()
        assert cfg.points == 20 and cfg.seed == 42
        assert cfg.checks == verify.CHECK_IDS

    def test_validation(self):
        with pytest.raises(ValueError):
            verify.VerifyConfig(points=0)
        with pytest.raises(ValueError):
            verify.VerifyConfig(seed=-1)
        for grid in ((), (0.0, float("inf")), (float("nan"),)):
            with pytest.raises(ValueError):
                verify.VerifyConfig(t_grid=grid)
        for checks in (("basic", "frobnicate"), ("basic", "basic"),
                       ("killing", "basic", "killing")):
            with pytest.raises(ValueError):
                verify.VerifyConfig(checks=checks)
        for tol in (float("inf"), float("nan"), -1.0, 0.0):
            with pytest.raises(ValueError):
                verify.VerifyConfig(tol=tol)
        for trajectories in (0, -1):
            with pytest.raises(ValueError, match="drift_trajectories"):
                verify.VerifyConfig(drift_trajectories=trajectories)
        for value in (float("inf"), float("nan"), -1e-3, 0.0):
            with pytest.raises(ValueError, match="drift_horizon"):
                verify.VerifyConfig(drift_horizon=value)

    def test_threshold_defaults_and_override(self):
        cfg = verify.VerifyConfig()
        assert cfg.threshold("killing") == 1e-9
        assert cfg.threshold("commutator") == 1e-7
        loose = verify.VerifyConfig(tol=1e-3)
        assert loose.threshold("killing") == 1e-3
        assert loose.threshold("drift") == 1e-3

    def test_function_suite_has_seven_entries(self):
        suite = verify.function_suite(("x", "y"))
        assert len(suite) == 7
        assert len(set(suite)) == 7


def assert_one_frame_per_order_and_point(monkeypatch, points, checks):
    # sampling builds one order-0 frame over all sampled points and takes
    # their t grids there in one call; the walk over the blocks of points
    # then builds one order-4 frame per block, which every check on that
    # block reads
    built, grid_points = [], []
    build, grid = PointFrame.__init__, verify.t_grid

    def counting(frame, pair, point, order):
        build(frame, pair, point, order)
        built.append((order, frame.points.shape[:-1]))

    def counting_grid(pair, points):
        grid_points.append(points)
        return grid(pair, points)

    monkeypatch.setattr(PointFrame, "__init__", counting)
    monkeypatch.setattr(verify, "t_grid", counting_grid)
    dini = catalog.get_entry("dini").pair
    pair = ProjectivePair(dini.g, dini.gbar, dini.domain)
    rep = verify.verify_pair(
        pair, verify.VerifyConfig(points=points, checks=checks)
    )
    rows = verify.block_points(pair.dim)
    full, rest = divmod(points, rows)
    blocks = [rows] * full + [rest] * (rest > 0)
    assert built == [(0, (points,))] + [(4, (size,)) for size in blocks]
    assert len(grid_points) == 1
    assert [tuple(p) for p in grid_points[0].tolist()] == [
        r.point for r in rep.records if r.check == checks[0]]


class TestReports:
    def test_equivalent_pair_passes_all_checks(self):
        rep = quick_report("dini")
        assert rep.passed
        assert rep.failures == 0
        # 9 per-point checks x 5 points + 1 drift trajectory
        assert len(rep.records) == 46
        assert set(rep.max_residuals()) == set(verify.CHECK_IDS)

    def test_control_pair_fails_decisively(self):
        rep = quick_report("control_nonequiv")
        assert not rep.passed
        basic = [r for r in rep.records if r.check == "basic"]
        assert basic and all(r.residual > 1e-2 for r in basic)
        assert all(not r.passed for r in basic)

    def test_report_yaml_roundtrip(self):
        rep = quick_report("dini")
        doc = yaml.safe_load(rep.render())
        assert doc["schema_version"] == verify.SCHEMA_VERSION
        assert doc["pair"] == "dini"
        assert doc["expected_equivalent"] is True
        assert doc["summary"]["verdict"] == "pass"
        assert doc["summary"]["records"] == len(rep.records)
        assert len(doc["records"]) == len(rep.records)
        worst = doc["summary"]["max_residual"]
        assert set(worst) == set(verify.CHECK_IDS)

    def test_determinism_modulo_timing(self):
        a = quick_report("scaled").render()
        b = quick_report("scaled").render()
        assert strip_timing(a) == strip_timing(b)
        assert a != b or "elapsed" in a  # timing block present

    def test_render_is_the_text_of_pyyaml(self):
        # every catalog report, controls included, and the fixture pairs in
        # 3 and 4 dimensions, with all ten checks
        cfg = verify.VerifyConfig(points=2, drift_trajectories=1,
                                  drift_horizon=0.05)
        for name in [*catalog.list_entries(), "lc3", "lc4"]:
            expected = (catalog.get_entry(name).expected_equivalent
                        if name in catalog.list_entries() else True)
            rep = verify.verify_pair(load(name), cfg, source="catalog",
                                     expected_equivalent=expected)
            assert rep.render() == pyyaml_text(rep.to_mapping()), name

    @pytest.mark.skipif(not yaml.__with_libyaml__,
                        reason="PyYAML is built without libyaml")
    def test_libyaml_renders_the_text_of_the_python_emitter(self):
        # reports once written through CSafeDumper where libyaml was present
        # read the same as the writer's: every catalog report, all ten checks
        cfg = verify.VerifyConfig(points=2, drift_trajectories=1,
                                  drift_horizon=0.05)
        for name in catalog.list_entries():
            entry = catalog.get_entry(name)
            rep = verify.verify_pair(entry.pair, cfg, source="catalog",
                                     expected_equivalent=entry.expected_equivalent)
            texts = [
                yaml.dump(rep.to_mapping(), Dumper=dumper, sort_keys=False,
                          default_flow_style=False)
                for dumper in (yaml.SafeDumper, yaml.CSafeDumper)
            ]
            assert texts[1] == texts[0], name
            assert rep.render() == texts[0], name

    @settings(max_examples=150, deadline=None)
    @given(name=AWKWARD, source=AWKWARD,
           coordinates=st.lists(AWKWARD, min_size=1, max_size=3, unique=True),
           residuals=st.lists(RESIDUALS, min_size=1, max_size=6),
           t_grid=st.none() | st.lists(RESIDUALS.filter(math.isfinite),
                                       min_size=1, max_size=3).map(tuple),
           tol=st.none() | RESIDUALS.filter(lambda x: math.isfinite(x) and x > 0),
           expected=st.sampled_from([None, True, False]))
    def test_render_of_awkward_values(self, name, source, coordinates,
                                      residuals, t_grid, tol, expected):
        suite = verify.function_suite(coordinates)
        params = [
            (),
            (("function", suite[0]), ("s", residuals[0]), ("t", -0.0)),
            (("momentum", list(residuals)), ("t", 1e16)),
            (("exited", True), ("exit_time", 5e-324), ("function", suite[-1]),
             ("steps", 7), ("velocity", [])),
        ]
        records = [
            verify.CheckRecord(check=check, point=(r, -r), residual=r,
                               threshold=1e-8, params=params[k % len(params)])
            for k, (check, r) in enumerate(zip(verify.CHECK_IDS * 2, residuals))
        ]
        rep = verify.VerificationReport(
            pair_name=name, source=source, dimension=len(coordinates),
            config=verify.VerifyConfig(tol=tol, t_grid=t_grid), records=records,
            expected_equivalent=expected, elapsed_seconds=1.5,
            check_seconds={"basic": 0.25, "drift": 1e-7})
        assert rep.render() == pyyaml_text(rep.to_mapping())

    def test_seed_changes_sampled_points(self):
        a = quick_report("dini", seed=1)
        b = quick_report("dini", seed=2)
        assert a.records[0].point != b.records[0].point

    def test_nan_residual_counts_as_the_worst(self, monkeypatch):
        calls = []

        def killing(pair, t, points):
            calls.append(t)
            # NaN at t = 1 on the second point, 0 everywhere else
            out = np.zeros(t.shape)
            out[t[:, 1] == 1.0, 1] = float("nan")
            return out  # [candidate, row]

        monkeypatch.setattr(verify, "check_killing_tensor", killing)
        rep = quick_report("dini", checks=("killing",), t_grid=(0.0, 1.0, 2.0))
        first, second = rep.records[:2]
        assert first.passed and first.residual == 0.0
        assert dict(first.params)["t"] == 0.0  # the first of equal maxima
        assert math.isnan(second.residual) and not second.passed
        assert dict(second.params)["t"] == 1.0
        assert not rep.passed
        assert math.isnan(rep.max_residuals()["killing"])
        assert len(calls) == 1  # one call for the whole block and grid
        assert calls[0].shape == (3, 5)  # [candidate, row]
        doc = yaml.safe_load(rep.render())
        assert math.isnan(doc["summary"]["max_residual"]["killing"])

    def test_check_subset_sees_identical_points(self):
        full = quick_report("dini")
        only = quick_report("dini", checks=("killing",))
        full_killing = [r for r in full.records if r.check == "killing"]
        assert [r.to_mapping() for r in full_killing] == [
            r.to_mapping() for r in only.records
        ]

    def test_check_seconds_are_keyed_by_the_configured_checks(self):
        for checks in (verify.CHECK_IDS, ("poisson", "drift", "basic")):
            doc = yaml.safe_load(quick_report("dini", checks=checks).render())
            assert list(doc)[-1] == "timing"  # the block digests cut off
            seconds = doc["timing"]["check_seconds"]
            assert list(seconds) == list(checks)
            assert all(s >= 0.0 for s in seconds.values())

    def test_t_grid_override_recorded(self):
        rep = quick_report("dini", t_grid=(0.0, 5.0), checks=("killing", "poisson"))
        for rec in rep.records:
            params = dict(rec.params)
            assert params["t"] in (0.0, 5.0)
        doc = yaml.safe_load(rep.render())
        assert doc["configuration"]["t_grid"] == [0.0, 5.0]

    def test_drift_records_carry_trajectory_data(self):
        rep = quick_report("dini", checks=("drift",), drift_trajectories=2)
        assert len(rep.records) == 2
        for rec in rep.records:
            params = dict(rec.params)
            assert "momentum" in params and len(params["velocity"]) == 2
            assert isinstance(params["exited"], bool)
            assert params["steps"] > 0
            assert 0.0 < params["max_error"] <= rep.config.drift_tolerance()
            assert rec.residual <= 1e-8
        doc = yaml.safe_load(rep.render())
        assert doc["configuration"]["drift"]["tolerance"] == 1e-8 * 1e-3
        assert "step" not in doc["configuration"]["drift"]

    def test_drift_tolerance_stops_at_rounding(self):
        # a tolerance far below rounding would hold every step back; the
        # integrator runs at its floor and the report echoes the floor
        rep = quick_report("dini", checks=("drift",), tol=1e-300)
        doc = yaml.safe_load(rep.render())
        assert doc["configuration"]["drift"]["tolerance"] == ops.MIN_TOLERANCE
        assert all(dict(r.params)["steps"] > 0 for r in rep.records)

    def test_tol_override_applies_to_records(self):
        rep = quick_report("control_nonequiv", tol=1e6)
        assert rep.passed  # absurd tolerance turns everything green

    def test_frames_are_built_at_orders_zero_and_four_only(self, monkeypatch):
        checks = tuple(c for c in verify.CHECK_IDS if c != "drift")
        assert_one_frame_per_order_and_point(monkeypatch, 3, checks)

    def test_frames_are_built_once_past_128_points(self, monkeypatch):
        # more points than a pair ever kept frames for
        assert_one_frame_per_order_and_point(
            monkeypatch, 130, ("basic", "connection")
        )

    def test_degenerate_sampling_exhausts_retries(self):
        g = MetricField(("x", "y"), [["1", "0"], ["0", "1"]])
        gbar = MetricField(("x", "y"), [["x - x", "0"], ["0", "1"]])
        pair = ProjectivePair(
            g, gbar, domain={"x": (0.0, 1.0), "y": (0.0, 1.0)}, name="broken"
        )
        message = "could not sample a non-degenerate point in broken after 100 tries"
        for points in (1, 5, 150):
            config = verify.quick_config(points=points, checks=("basic",))
            with pytest.raises(DegenerateMetricError, match=message):
                verify.verify_pair(pair, config)
            with pytest.raises(DegenerateMetricError, match=message):
                jet_reference.sample_points(pair, config, np.random.default_rng(0))


NON_DRIFT = tuple(c for c in verify.CHECK_IDS if c != "drift")
FIXTURES = Path(__file__).resolve().parent / "golden"


def load(name):
    if name in ("lc3", "lc4"):
        return pairfile.load_pair(FIXTURES / f"{name}.yaml")
    return catalog.get_entry(name).pair


@pytest.mark.parametrize("name", [*catalog.list_entries(), "lc3", "lc4"])
def test_records_do_not_depend_on_how_points_are_batched(name):
    # rows + 3 points fill a block and start the next; their first 3 are
    # checked in a full block, and alone they are a block of 3.  Points,
    # grids and momenta of a smaller run are a prefix of a larger run's, so
    # each record must come out byte for byte the same.  The golden corpus
    # runs 2 points, one block, and cannot see a dependence on its width.
    pair = load(name)
    count = verify.block_points(pair.dim) + 3
    few, many = (
        verify.verify_pair(pair, verify.VerifyConfig(points=n, checks=NON_DRIFT))
        for n in (3, count)
    )
    for check in NON_DRIFT:
        a = [r.to_mapping() for r in few.records if r.check == check]
        b = [r.to_mapping() for r in many.records if r.check == check]
        assert len(a) == 3 and len(b) == count
        assert yaml.safe_dump(a) == yaml.safe_dump(b[:3]), check


def per_row_records(pair, check, points, grids, momenta):
    """The rule _block_records keeps, one row and one candidate at a time:
    each row takes the worst candidate on its own grid, in the order of
    that grid, by _rank; every candidate is evaluated alone at that row."""
    out = []
    for point, grid, p in zip(points, grids, momenta):
        pairs = list(combinations_with_replacement(grid, 2))
        if check in ("killing", "carter"):
            family = (check_killing_tensor if check == "killing"
                      else check_carter_condition)
            found = [(family(pair, t, point), (("t", t),)) for t in grid]
        elif check == "poisson":
            phi = ops.PhaseSpacePoint(point, p)
            found = [(ops.poisson_residual(pair, t, s, phi),
                      (("momentum", list(phi.p)), ("s", s), ("t", t)))
                     for t, s in pairs]
        else:
            suite = verify.function_suite(pair.coordinates)
            found = []
            for f, B in zip(suite, ops.killing_commutator_grid(pair, suite, point)):
                for t, s in pairs:
                    value, scale = ops.commutator_from_grid(B, t, s)
                    found.append((np.abs(value) / scale, (
                        ("function", f), ("s", s), ("scale", float(scale)), ("t", t))))
        out.append(max(found, key=lambda rec: verify._rank(rec[0])))
    return out


@pytest.mark.parametrize("name", ["dini", "lc4"])
@pytest.mark.parametrize("check", ["killing", "carter", "poisson", "commutator"])
def test_block_records_pick_each_rows_worst_candidate_on_its_grid(name, check):
    pair = load(name)
    points = np.array(verify._sample_points(
        pair, verify.VerifyConfig(points=3, seed=5), np.random.default_rng(5))[0])
    # unequal lengths, a repeated value and both zeros
    grids = [(0.0, 1.0, 2.0, -1.5), (0.5,), (-0.0, 3.0, 3.0)]
    momenta = np.array([[0.8, -0.3, 1.1, 0.2], [-1.5, 0.4, 0.9, -0.7],
                        [0.3, 1.7, -0.6, 1.2]])[:, : pair.dim]
    found = verify._block_records(pair, check, points, grids, momenta)
    expected = per_row_records(pair, check, points, grids, momenta)
    assert len(found) == len(expected) == 3
    for (residual, params), (ref_residual, ref_params) in zip(found, expected):
        assert np.float64(residual).tobytes() == np.float64(ref_residual).tobytes()
        assert params == ref_params
        assert all(type(v) is not np.float64 for _, v in params)


def test_blocks_are_sized_by_the_jet():
    # a benchmark pass samples 4 or 5 points: one block up to 4 variables
    assert [verify.block_points(n) for n in (2, 3, 4)] == [34, 14, 7]
    assert verify.block_points(12) == 1


def half_degenerate():
    # g_11 is 0 (or rounding noise) for x < 0.5: half the draws are rejected
    g = MetricField(("x", "y"), [["abs(x - 0.5) + x - 0.5", "0"], ["0", "1"]])
    gbar = MetricField(("x", "y"), [["2", "0"], ["0", "3 + x"]])
    return ProjectivePair(g, gbar, {"x": (0.0, 1.0), "y": (0.0, 1.0)}, name="half")


def partly_non_finite():
    # g_11 is NaN for x > 1.797..., where 1e308 * x overflows, and g_22
    # vanishes for y < 0.5: three draws in four are rejected
    g = MetricField(("x", "y"), [["1 + 0 * (1e308 * x)", "0"],
                                 ["0", "abs(y - 0.5) + y - 0.5"]])
    gbar = MetricField(("x", "y"), [["2 + y", "0"], ["0", "3"]])
    return ProjectivePair(g, gbar, {"x": (1.0, 2.6), "y": (0.0, 1.0)}, name="nan")


def same_sample(pair, config, seed):
    rng = np.random.default_rng(seed)
    points, grids = verify._sample_points(pair, config, rng)
    with np.errstate(over="ignore", invalid="ignore"):  # the jets of a NaN row
        want_points, want_grids = jet_reference.sample_points(
            pair, config, np.random.default_rng(seed))
    assert [[c.hex() for c in p] for p in points] == [
        [c.hex() for c in p] for p in want_points]
    assert grids == want_grids


@pytest.mark.parametrize("name", [*catalog.list_entries(), "lc3", "lc4", "half"])
def test_sampler_keeps_the_draw_by_draw_points_and_grids(name):
    pair = half_degenerate() if name == "half" else load(name)
    for seed in range(10):
        same_sample(pair, verify.VerifyConfig(points=7, seed=seed), seed)
    same_sample(pair, verify.VerifyConfig(points=3, t_grid=(0.5, 7.0)), 11)


def test_only_misses_in_a_row_exhaust_the_sampler():
    # about 150 of some 300 draws are rejected, never 100 in a row
    same_sample(half_degenerate(), verify.VerifyConfig(points=150), 12)


def test_sample_point_block_has_the_bits_of_single_calls():
    for name in catalog.list_entries():
        pair = catalog.get_entry(name).pair
        for shrink in (0.0, 0.1):
            rngs = [np.random.default_rng(3) for _ in range(3)]
            block = pair.sample_point(rngs[0], shrink, rows=6)
            singles = [pair.sample_point(rngs[1], shrink) for _ in range(6)]
            drawn = [jet_reference.draw(pair, rngs[2], shrink) for _ in range(6)]
            assert block.shape == (6, pair.dim)
            hexes = [[c.hex() for c in p] for p in block.tolist()]
            assert hexes == [[c.hex() for c in p] for p in singles], name
            assert hexes == [[c.hex() for c in p] for p in drawn], name


def test_bad_rows_in_a_sampled_block_warn_nothing():
    pair = partly_non_finite()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify.verify_pair(pair, verify.VerifyConfig(points=8, checks=()))
        assert report.records == []
        mask = pair.g.nondegenerate([[1.5, 0.75], [2.0, 0.75], [1.5, 0.25]])
    assert mask.tolist() == [True, False, False]
    for seed in range(3):
        same_sample(pair, verify.VerifyConfig(points=8, seed=seed), seed)


class TestCatalogSweep:
    def test_all_equivalent_entries_pass_quick_suite(self):
        for name in catalog.equivalent_entries():
            rep = quick_report(name, points=3)
            assert rep.passed, f"{name}: {rep.max_residuals()}"

    def test_all_controls_fail_quick_suite(self):
        for name in catalog.control_entries():
            rep = quick_report(name, points=3)
            assert not rep.passed
