"""The benchmark's tracer wraps benenti's functions by name.

``bench/tracing.py`` looks up every function, method and frame property it
times with ``owner.__dict__[name]``, so a refactor that renames or drops one
of them breaks ``bench/run.py --trace 1`` with a ``KeyError``.  This test
installs and removes the tracer, which is fast, so such a break shows in the
tier-1 suite and not only in the slow benchmark self-tests.
"""

import sys
from pathlib import Path

import pytest

from benenti import catalog, expr, projective, verify

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing as module
    finally:
        sys.path.remove(str(BENCH))
    return module


def _bound(tracing):
    """Everything the tracer replaces, as currently bound."""
    found = {(id(owner), attr): owner.__dict__.get(attr)
             for owner, attr, *_ in tracing._targets()}
    for attr in tracing._FRAME_PROPERTIES:
        found[attr] = projective.PointFrame.__dict__.get(attr)
    found["_JET_FUNCS"] = dict(expr._JET_FUNCS)
    return found


def test_tracer_installs_and_restores_every_original(tracing):
    before = _bound(tracing)
    assert all(value is not None for value in before.values())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _bound(tracing) != before
        dini = catalog.get_entry("dini").pair  # shared, with cached frames
        pair = projective.ProjectivePair(dini.g, dini.gbar, dini.domain)
        config = verify.VerifyConfig(points=1, checks=("basic", "poisson"))
        assert verify.verify_pair(pair, config).passed
    finally:
        tracer.uninstall()
    assert _bound(tracing) == before
    # the checks are reached through the names the tracer wraps
    assert tracer.calls["projective.check_projective_equivalence"] == 1
    assert tracer.calls["operators.poisson_residual"] > 0
    assert tracer.calls["projective.PointFrame.benenti"] > 0
    # and the default grid samples through the names it wraps
    assert tracer.calls["projective.t_grid"] > 0
    assert tracer.calls["projective.ProjectivePair.sample_point"] > 0


def test_config_without_checks_stays_valid():
    # bench/run.py times sampling alone with replace(config, checks=())
    pair = catalog.get_entry("dini").pair
    report = verify.verify_pair(pair, verify.VerifyConfig(points=1, checks=()))
    assert report.records == []
