"""Print the sha256 of every report of a fixed set of runs, timing removed.

    python tests/report_digests.py > digests.txt

The runs cover every catalog pair and the ``lc3``/``lc4`` fixtures at
seeds 1, 7, 42 and 31337, each at a set of configurations (the defaults,
drift alone, a fixed t grid, a three-check subset and a run of several
blocks), and every pair of each benchmark workload (``bench/workloads.py``)
at its own configuration.  A change meant to keep the numerics prints the
same lines as its parent, so two checkouts compare with

    diff <(python tests/report_digests.py) <(python ../parent/tests/report_digests.py)

The script imports benenti from the ``src/`` of the checkout it lives in,
so each side runs its own code.  pytest does not collect it: the golden
corpus (``test_golden.py``) pins one configuration in tier-1, and this
wider sweep takes about 20 s on a 2-core machine.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from benenti import catalog, pairfile, verify  # noqa: E402

import workloads  # noqa: E402

SEEDS = (1, 7, 42, 31337)
FIXTURES = ("lc3", "lc4")
CONFIGS = {
    "default": verify.VerifyConfig(),
    "drift-only": verify.VerifyConfig(checks=("drift",)),
    "t-grid": verify.VerifyConfig(t_grid=(0.0, 1.0, 2.5)),
    "three-checks": verify.VerifyConfig(checks=("connection", "carter", "drift")),
}


def digest(report) -> str:
    """sha256 of the rendered report without its timing block."""
    head, sep, _ = report.render().rpartition("\ntiming:\n")
    assert sep, "rendered report has no timing block"
    return hashlib.sha256(head.encode()).hexdigest()


def outcome(pair, config, **kwargs) -> str:
    """The report's digest, or the error a run raised."""
    try:
        return digest(verify.verify_pair(pair, config, **kwargs))
    except Exception as exc:  # the error is part of the behaviour compared
        return f"raised {type(exc).__name__}: {exc}"


def pairs():
    """(name, pair, verify_pair keyword arguments) of the catalog and the
    fixtures."""
    for name in catalog.list_entries():
        entry = catalog.get_entry(name)
        yield name, entry.pair, {"source": "catalog",
                                 "expected_equivalent": entry.expected_equivalent}
    for name in FIXTURES:
        pair = pairfile.load_pair(ROOT / "tests" / "golden" / f"{name}.yaml")
        yield name, pair, {"source": "fixture", "expected_equivalent": True}


def main() -> int:
    for name, pair, kwargs in pairs():
        # two blocks of order-3 frames and three points of a third
        blocks = verify.VerifyConfig(
            points=2 * verify.block_points(pair.dim, 3) + 3, drift_trajectories=4)
        for seed in SEEDS:
            for label, config in {**CONFIGS, "blocks": blocks}.items():
                config = replace(config, seed=seed)
                print(f"{name} {label} {seed} {outcome(pair, config, **kwargs)}")
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for spec in workloads.build(workload, seed).pairs:
                pair = pairfile.parse_pair(spec.text, spec.label)
                text = outcome(pair, spec.config, source=spec.label,
                               expected_equivalent=spec.expected_equivalent)
                print(f"bench:{workload} {spec.label} {seed} {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
