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

from benenti import catalog, jets, operators as ops, pairfile, verify, yamltext
from benenti.errors import DegenerateMetricError, OrderExhaustedError
from benenti.geometry import MetricField
from benenti.projective import (
    PointFrame,
    ProjectivePair,
    check_carter_condition,
    check_killing_tensor,
)

import jet_reference
from levi_civita import LC5_BOXES, LC6_BOXES, LC7_BOXES, levi_civita_pair


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
    cfg = verify.VerifyConfig(**{"points": 5, "drift_trajectories": 1, **overrides})
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
        for checks in (("poisson",), ("basic", "commutator"), ("decompose",)):
            for grid in ((5.0,), (1.0, 1.0), (0.0, -0.0)):
                with pytest.raises(ValueError, match="two distinct values"):
                    verify.VerifyConfig(t_grid=grid, checks=checks)
        for checks in (("basic", "killing", "carter", "drift"), ()):
            assert verify.VerifyConfig(t_grid=(5.0,), checks=checks).t_grid == (5.0,)
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

    @pytest.mark.parametrize("name", ["points", "seed", "drift_trajectories"])
    @pytest.mark.parametrize("value", [1.5, 2.0, True, False, "3", None, np.bool_(True)],
                             ids=repr)
    def test_counts_and_seed_must_be_integers(self, name, value):
        # rejected here, not later by numpy or by a slice
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            verify.VerifyConfig(**{name: value})

    @pytest.mark.parametrize("field, value, name, bad", [
        ("tol", True, "tol", True),
        ("tol", np.bool_(False), "tol", np.bool_(False)),
        ("tol", "1e-3", "tol", "1e-3"),
        ("drift_horizon", True, "drift_horizon", True),
        ("drift_horizon", np.bool_(True), "drift_horizon", np.bool_(True)),
        ("t_grid", (True, False), "t_grid[0]", True),
        ("t_grid", (0.0, 1.0, False), "t_grid[2]", False),
        ("t_grid", (0.5, "2"), "t_grid[1]", "2"),
    ], ids=repr)
    def test_real_fields_must_be_numbers(self, field, value, name, bad):
        # a bool would run as 1 or 0 and be echoed as a YAML boolean
        with pytest.raises(ValueError) as err:
            verify.VerifyConfig(**{field: value})
        assert str(err.value) == f"{name} must be a number, got {bad!r}"

    @pytest.mark.parametrize("horizon, echo", [
        (np.float64(0.5), "0.5"), (np.float32(0.5), "0.5"), (np.int64(2), "2"), (2, "2")])
    def test_numpy_reals_are_numbers(self, horizon, echo):
        # the horizon is echoed as given, so a numpy scalar is stored as its
        # Python number (the YAML writer takes no numpy scalars)
        cfg = verify.VerifyConfig(tol=np.float64(1e-3), drift_horizon=horizon,
                                  t_grid=(np.float32(0.5), 1, 2.0), points=1,
                                  checks=("basic", "drift"))
        assert type(cfg.tol) is float and type(cfg.drift_horizon) in (float, int)
        text = verify.verify_pair(catalog.get_entry("dini").pair, cfg).render()
        assert f"    horizon: {echo}\n" in text

    def test_numpy_integers_are_plain_ints(self):
        cfg = verify.VerifyConfig(points=np.int64(2), seed=np.uint32(7),
                                  drift_trajectories=np.int32(1), checks=("basic",))
        assert (cfg.points, cfg.seed, cfg.drift_trajectories) == (2, 7, 1)
        assert all(type(v) is int for v in (cfg.points, cfg.seed, cfg.drift_trajectories))
        plain = verify.VerifyConfig(points=2, seed=7, drift_trajectories=1, checks=("basic",))
        pair = catalog.get_entry("dini").pair
        assert (verify.verify_pair(pair, cfg).to_mapping() | {"timing": None}
                == verify.verify_pair(pair, plain).to_mapping() | {"timing": None})

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


def record_frames(monkeypatch, points, checks, name="dini", t_grid=None):
    """(frames built as (order, rows), sampled points, the points of each
    t_grid call) of one run."""
    built, sampled, grid_points = [], [], []
    build, grid, sample = PointFrame.__init__, verify.t_grid, verify._sample_points

    def counting(frame, pair, point, order):
        build(frame, pair, point, order)
        built.append((order, frame.points.shape[:-1]))

    def counting_grid(pair, points):
        grid_points.append(points.tolist())
        return grid(pair, points)

    def recording(*args):
        sampled.append(sample(*args))
        return sampled[-1]

    monkeypatch.setattr(PointFrame, "__init__", counting)
    monkeypatch.setattr(verify, "t_grid", counting_grid)
    monkeypatch.setattr(verify, "_sample_points", recording)
    shared = load(name)
    pair = ProjectivePair(shared.g, shared.gbar, shared.domain)
    verify.verify_pair(pair, verify.VerifyConfig(points=points, checks=checks,
                                                 t_grid=t_grid))
    assert sampled[0].shape == (points, pair.dim)
    return built, sampled[0], grid_points


def assert_one_frame_per_block(monkeypatch, points, checks, order,
                               name="dini", t_grid=None):
    # sampling builds no frame; the walk over the blocks of points builds
    # one frame per block, at the highest order the checks read, and takes
    # the block's default t grids off it in one call.  With order None
    # nothing walks: no frame is built and no grid is taken.
    built, sampled, grid_points = record_frames(monkeypatch, points, checks,
                                                name, t_grid)
    if order is None:
        assert built == grid_points == []
        return
    rows = verify.block_points(sampled.shape[1], order)
    blocks = [sampled[start:start + rows].tolist()
              for start in range(0, points, rows)]
    assert built == [(order, (len(block),)) for block in blocks]
    assert grid_points == (blocks if t_grid is None else [])


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
        # a grid of one distinct value runs only the checks that compare no two t
        pairwise = ("poisson", "commutator", "decompose")
        checks = (verify.CHECK_IDS if t_grid is None or len(set(t_grid)) > 1 else
                  tuple(c for c in verify.CHECK_IDS if c not in pairwise))
        rep = verify.VerificationReport(
            pair_name=name, source=source, dimension=len(coordinates),
            config=verify.VerifyConfig(tol=tol, t_grid=t_grid, checks=checks),
            records=records,
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

    @pytest.mark.parametrize("name", ["dini", "lc3"])
    @pytest.mark.parametrize("check", verify.CHECK_IDS)
    def test_check_subset_sees_identical_points(self, name, check):
        # a run of one check gives, byte for byte, its records of the run
        # of every check: the same points, momenta, velocities and t grids
        shared = load(name)

        def records(checks):
            pair = ProjectivePair(shared.g, shared.gbar, shared.domain)
            config = verify.VerifyConfig(points=5, drift_trajectories=2, checks=checks)
            report = verify.verify_pair(pair, config)
            return yamltext.dump({"records": [r.to_mapping() for r in report.records
                                              if r.check == check]})

        alone = records((check,))
        assert alone == records(verify.CHECK_IDS)
        assert alone.count("- check: ") == (2 if check == "drift" else 5)

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

    def test_decompose_takes_the_extreme_t_of_any_grid(self):
        def records(grid):
            rep = quick_report("dini", t_grid=grid, checks=("decompose",))
            return [r.to_mapping() for r in rep.records]

        expected = records((0.5, 2.0))
        assert all(r["params"]["t"] == 0.5 and r["params"]["s"] == 2.0 for r in expected)
        assert records((2.0, 0.5, 1.0)) == records((1.0, 2.0, 0.5, 1.0)) == expected

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

    def test_frames_are_built_at_order_three_only(self, monkeypatch):
        # the commutator checks apply operators to order-4 jets, which
        # reads the metrics to order 3
        assert_one_frame_per_block(monkeypatch, 3, NON_DRIFT, 3)

    def test_frames_are_built_once_past_128_points(self, monkeypatch):
        # more points than a pair ever kept frames for: one order-1 block
        assert_one_frame_per_block(monkeypatch, 130, ("basic", "connection"), 1)

    @pytest.mark.parametrize("name, points, checks, order", [
        ("dini", 130, ("ricci-comm",), 2),
        ("dini", 130, ("basic", "carter"), 3),
        ("dini", 130, ("phi", "drift"), 1),
        ("lc4", 20, ("basic",), 1),
    ])
    def test_frames_are_built_at_the_checks_highest_order(
            self, monkeypatch, name, points, checks, order):
        # 130 points make several blocks at orders 2 and 3 in 2 variables
        assert_one_frame_per_block(monkeypatch, points, checks, order, name)

    @pytest.mark.parametrize("name, points", [("dini", 600), ("lc4", 20)])
    def test_drift_alone_builds_order_zero_frames_for_its_grids(
            self, monkeypatch, name, points):
        # no walk over the blocks: one order-0 frame over the 3 drift
        # starts gives their grids, however many points were sampled
        built, sampled, grid_points = record_frames(monkeypatch, points,
                                                    ("drift",), name)
        assert built == [(0, (3,))]
        assert grid_points == [sampled[:3].tolist()]

    def test_fixed_grids_need_no_frame_for_drift(self, monkeypatch):
        assert_one_frame_per_block(monkeypatch, 20, ("drift",), None,
                                   t_grid=(0.5, 2.0))
        # the frame checks still walk, and take no grid off the frames
        assert_one_frame_per_block(monkeypatch, 40, ("killing", "drift"), 1,
                                   t_grid=(0.5, 2.0))

    def test_no_checks_build_no_frame(self, monkeypatch):
        assert_one_frame_per_block(monkeypatch, 20, (), None)

    def test_degenerate_sampling_exhausts_retries(self):
        g = MetricField(("x", "y"), [["1", "0"], ["0", "1"]])
        gbar = MetricField(("x", "y"), [["x - x", "0"], ["0", "1"]])
        pair = ProjectivePair(
            g, gbar, domain={"x": (0.0, 1.0), "y": (0.0, 1.0)}, name="broken"
        )
        message = "could not sample a non-degenerate point in broken after 100 tries"
        for points in (1, 5, 150):
            config = verify.VerifyConfig(points=points, checks=("basic",))
            with pytest.raises(DegenerateMetricError, match=message):
                verify.verify_pair(pair, config)
            with pytest.raises(DegenerateMetricError, match=message):
                jet_reference.sample_points(pair, config, np.random.default_rng(0))


NON_DRIFT = tuple(c for c in verify.CHECK_IDS if c != "drift")
# the order of the frame a walk over every non-drift check builds
TOP_ORDER = max(verify._CHECKS[c][1] for c in NON_DRIFT)
FIXTURES = Path(__file__).resolve().parent / "golden"


def load(name):
    if name == "lc5":
        return levi_civita_pair(LC5_BOXES, name)
    if name in ("lc3", "lc4"):
        return pairfile.load_pair(FIXTURES / f"{name}.yaml")
    return catalog.get_entry(name).pair


@pytest.mark.parametrize("name", [*catalog.list_entries(), "lc3", "lc4", "lc5"])
def test_records_do_not_depend_on_how_points_are_batched(name):
    # rows + 3 points fill a block and start the next; their first 3 are
    # checked in a full block, and alone they are a block of 3.  Points,
    # grids and momenta of a smaller run are a prefix of a larger run's, so
    # each record must come out byte for byte the same.  The golden corpus
    # runs 2 points, one block, and cannot see a dependence on its width.
    pair = load(name)
    count = verify.block_points(pair.dim, TOP_ORDER) + 3
    few, many = (
        verify.verify_pair(pair, verify.VerifyConfig(points=n, checks=NON_DRIFT))
        for n in (3, count)
    )
    for check in NON_DRIFT:
        a = [r.to_mapping() for r in few.records if r.check == check]
        b = [r.to_mapping() for r in many.records if r.check == check]
        assert len(a) == 3 and len(b) == count
        assert yaml.safe_dump(a) == yaml.safe_dump(b[:3]), check


def test_a_five_dimensional_pair_passes_every_non_drift_check():
    report = verify.verify_pair(load("lc5"), verify.VerifyConfig(points=4, checks=NON_DRIFT))
    assert report.passed
    assert {r.check for r in report.records} == set(NON_DRIFT)


def test_a_seven_dimensional_pair_loads_and_passes_every_non_drift_check():
    # where the loader probes it, gbar is diagonal with entries from 0.0016 to
    # 0.154: |det| = 1.5e-16 is below 1e-10 (max |gbar_ij|)^7, yet gbar is
    # no nearer degenerate than any diagonal metric
    text = pairfile.dump_pair(levi_civita_pair(LC7_BOXES, "lc7"))
    report = verify.verify_pair(pairfile.parse_pair(text, "lc7"),
                                verify.VerifyConfig(points=3, checks=NON_DRIFT))
    assert report.passed
    assert {r.check for r in report.records} == set(NON_DRIFT)


def test_a_six_dimensional_pair_passes_drift():
    # the drift check reads the metrics of the diagonal pair at states where
    # |det| is below 1e-10 (max |g_ij|)^6, which is no sign of degeneracy
    report = verify.verify_pair(levi_civita_pair(LC6_BOXES, "lc6"),
                                verify.VerifyConfig(points=2, checks=("drift",)))
    assert report.passed
    assert len(report.records) == 2


# Multiply-adds of jet products in one verify_pair of lc4.yaml over the nine
# non-drift checks at 4 points, seed 42: 2,781,370 while frames built
# gamma_bar, phi and K_l at full order, expanded det g and det gbar twice
# and multiplied decompose's monomial probes by full products; 1,550,224
# while integer powers multiplied squares by the constant 1 and composed
# series took their first Horner step as a product with a constant jet;
# 1,246,888 while blocks multiplied rows with an all-zero factor; 317,494
# while decompose's first application to its probes was a coefficient shift,
# which no product counted.
PRODUCT_MADDS_LC4 = 396_694
# jets.product_coeffs calls of a drift-only trivial3 run (5 points, 5
# trajectories, horizon 0.1, seed 42): 633 with those two products.
PRODUCT_CALLS_TRIVIAL3_DRIFT = 256


def test_jet_product_work_stays_within_its_count(monkeypatch):
    """A guard on the work done: every jet product, wherever it is called
    from, costs the rows it multiplies times the terms of its convolution
    table.  The count is deterministic, so a change that computes
    coefficients no check reads shows here.  (The benchmark's jets.mul.madds
    counts only Jet.__mul__.)"""
    original = jets.product_coeffs
    state = {"madds": 0}

    def counting(sp, a, b):
        rows = math.prod(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
        if rows <= sp.block_rows:  # a block driver only calls its blocks
            state["madds"] += rows * len(sp._mul[0])
        return original(sp, a, b)

    monkeypatch.setattr(jets, "product_coeffs", counting)
    config = verify.VerifyConfig(points=4, seed=42, checks=NON_DRIFT)
    assert verify.verify_pair(load("lc4"), config).passed
    assert 0 < state["madds"] <= PRODUCT_MADDS_LC4


def test_drift_stage_products_stay_within_their_count(monkeypatch):
    """A guard on the work of a drift stage: sin(chi)^2 * sin(theta)^2 takes
    a product per Horner step past the first and per square, and none with
    a constant jet."""
    original, calls = jets.product_coeffs, []

    def counting(sp, a, b):
        calls.append(sp)
        return original(sp, a, b)

    monkeypatch.setattr(jets, "product_coeffs", counting)
    config = verify.VerifyConfig(points=5, drift_trajectories=5, drift_horizon=0.1,
                                 seed=42, checks=("drift",))
    verify.verify_pair(load("trivial3"), config)
    assert 0 < len(calls) <= PRODUCT_CALLS_TRIVIAL3_DRIFT


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
    points = verify._sample_points(
        pair, verify.VerifyConfig(points=3, seed=5), np.random.default_rng(5))
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
    assert [verify.block_points(n, 4) for n in (2, 3, 4)] == [34, 14, 7]
    assert verify.block_points(12, 4) == 1
    # low orders get more rows from the same budget
    assert [verify.block_points(n, 1) for n in (2, 3, 4)] == [170, 128, 102]
    assert [verify.block_points(2, m) for m in (2, 3)] == [85, 51]


@pytest.mark.parametrize("check", NON_DRIFT)
def test_frame_order_of_each_check_is_the_highest_it_requests(monkeypatch, check):
    # the table repeats a fact of projective and operators: the highest
    # order each check asks of the pair's frame
    dini = catalog.get_entry("dini").pair
    pair = ProjectivePair(dini.g, dini.gbar, dini.domain)
    points = verify._sample_points(
        pair, verify.VerifyConfig(points=2), np.random.default_rng(3))
    requested = []
    frame = pair.frame

    def recording(points, order):
        requested.append(order)
        return frame(points, order)

    monkeypatch.setattr(pair, "frame", recording)
    verify._block_records(pair, check, points, [(0.5, 2.0), (1.5,)],
                          np.array([[0.8, -0.3], [-1.5, 0.4]]))
    assert max(requested) == verify._CHECKS[check][1]


# one order below the table, these checks stop at a truncation or a
# curvature step before they differentiate or apply an operator
SHORT_BEFORE_APPLYING = {
    "ricci-comm": "connection jets must have order >= 1 for ricci",
    "carter": "cannot truncate order-0 jets to order 1",
    "decompose": "cannot truncate order-2 jets to order 3",
}


@pytest.mark.parametrize("name", ["dini", "control_nonequiv_curved"])
@pytest.mark.parametrize("check", NON_DRIFT)
def test_each_check_needs_its_frame_order_and_no_more(monkeypatch, name, check):
    # a frame pinned at the table's order serves the check whatever order it
    # asks for; one order lower, the check runs out of jet coefficients
    shared = catalog.get_entry(name).pair
    points = verify._sample_points(
        shared, verify.VerifyConfig(points=2), np.random.default_rng(3))
    grids, momenta = [(0.5, 2.0), (1.5,)], np.full((2, shared.dim), 0.7)
    order = verify._CHECKS[check][1]
    for pinned, fails in ((order, False), (order - 1, True)):
        pair = ProjectivePair(shared.g, shared.gbar, shared.domain)
        frame = PointFrame(pair, points, pinned)
        monkeypatch.setattr(pair, "frame", lambda points, order: frame)
        if fails:
            error, match = ((ValueError, SHORT_BEFORE_APPLYING[check])
                            if check in SHORT_BEFORE_APPLYING
                            else (OrderExhaustedError, None))
            with pytest.raises(error, match=match):
                verify._block_records(pair, check, points, grids, momenta)
        else:
            assert len(verify._block_records(pair, check, points, grids,
                                             momenta)) == 2


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
    # the sampler returns the points alone; the reference's per-point grids
    # must be the ones the walk takes off a frame over the sampled block
    points = verify._sample_points(pair, config, np.random.default_rng(seed))
    with np.errstate(over="ignore", invalid="ignore"):  # the jets of a NaN row
        want_points, want_grids = jet_reference.sample_points(
            pair, config, np.random.default_rng(seed))
    assert points.shape == (config.points, pair.dim)
    assert [[c.hex() for c in p] for p in points.tolist()] == [
        [c.hex() for c in p] for p in want_points]
    if config.t_grid is None:
        assert verify.t_grid(pair, points) == want_grids


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
