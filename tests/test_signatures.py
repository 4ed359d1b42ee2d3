"""Pairs of arbitrary signature whose structure tensor L is not real and
diagonalizable: the case the theorem covers beyond the catalog.

Both pairs are 2-D Lorentzian normal forms on u in [0.5, 1.5], v in [0.3, 1]
(Bolsinov & Matveev, Trans. AMS 367 (2015)):

  * complex eigenvalues u +- iv, with r^2 = u^2 + v^2:
    g_12 = -v; gbar_11 = v^2/r^4, gbar_12 = -uv/r^4, gbar_22 = -v^2/r^4;
    L = [[u, -v], [v, u]];
  * a Jordan block, the eps -> 0 limit of u +- eps v rescaled by eps^-2:
    g_12 = v; gbar_11 = -v^2/u^4, gbar_12 = v/u^3, gbar_22 = 0;
    L = [[u, 0], [v, u]].

Each has a bent copy, one component of gbar changed, as its control.
"""

import re

import numpy as np
import pytest

from benenti.cli import main
from benenti.pairfile import parse_pair
from benenti.verify import VerifyConfig, verify_pair

COMPLEX_PAIR = """\
name: complex-pair
dim: 2
coords: [u, v]
g:
  - ["0"]
  - ["-v", "0"]
gbar:
  - ["v^2 / (u^2 + v^2)^2"]
  - ["-u * v / (u^2 + v^2)^2", "-v^2 / (u^2 + v^2)^2"]
domain:
  u: [0.5, 1.5]
  v: [0.3, 1.0]
"""

JORDAN_PAIR = """\
name: jordan-pair
dim: 2
coords: [u, v]
g:
  - ["0"]
  - ["v", "0"]
gbar:
  - ["-v^2 / u^4"]
  - ["v / u^3", "0"]
domain:
  u: [0.5, 1.5]
  v: [0.3, 1.0]
"""

PAIRS = {"complex": COMPLEX_PAIR, "jordan": JORDAN_PAIR}

BENT = {
    "complex": COMPLEX_PAIR.replace('"-v^2 / (u^2 + v^2)^2"]',
                                    '"-v^2 / (u^2 + v^2)^2 * (1 + u^2)"]'),
    "jordan": JORDAN_PAIR.replace('"v / u^3", "0"', '"v / u^3", "0.1 * u"'),
}


def expected_L(kind, u, v):
    return np.array([[u, -v], [v, u]] if kind == "complex" else [[u, 0.0], [v, u]])


@pytest.mark.parametrize("kind", PAIRS)
def test_L_is_the_normal_form(kind):
    pair = parse_pair(PAIRS[kind])
    points = pair.sample_point(np.random.default_rng(0), rows=5)
    L = pair.frame(points, 0).L.value()
    for (u, v), got in zip(points, L):
        np.testing.assert_allclose(got, expected_L(kind, u, v), rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", PAIRS)
def test_passes_every_check_at_the_defaults(kind):
    report = verify_pair(parse_pair(PAIRS[kind]), VerifyConfig())
    assert report.passed
    assert len(report.records) == 183 and report.failures == 0
    assert {r.check for r in report.records} == set(VerifyConfig().checks)


@pytest.mark.parametrize("kind", BENT)
def test_bent_copy_fails_basic(kind):
    assert BENT[kind] != PAIRS[kind]
    report = verify_pair(parse_pair(BENT[kind]), VerifyConfig(points=5, checks=("basic",)))
    assert not report.passed


STRUCTURE = {
    "complex": "L is diagonalizable, with complex-conjugate eigenvalues",
    "jordan": "L is not diagonalizable within tolerance: it has a Jordan block",
}


@pytest.mark.parametrize("kind", PAIRS)
def test_describe_names_the_structure_of_L(tmp_path, capsys, kind):
    path = tmp_path / f"{kind}.yaml"
    path.write_text(PAIRS[kind])
    assert main(["describe", str(path), "--samples", "4"]) == 0
    lines = re.findall(r"    L is .*", capsys.readouterr().out)
    assert lines == [f"    {STRUCTURE[kind]}"] * 4
