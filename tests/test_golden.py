"""Golden reports: stored data that a change meant to keep the numerics must
reproduce bit for bit.

``tests/golden/<name>.txt`` covers every catalog pair and every fixture pair,
verified at a fixed small config.  It holds the sha256 of the rendered report
without its ``timing`` block, then one line per record with the check, the
record's index within that check, ``residual.hex()`` and the verdict.  The
digest covers every byte of the report; the table says which residual moved
when the digest no longer matches.

``tests/golden/digests.sha256`` is a wider sweep, one line ``<pair> <config>
<seed> <digest>`` per run.  It runs every catalog pair and fixture at seeds 1,
7, 42 and 31337, each at five configurations (the defaults, drift alone, a
fixed t grid, a three-check subset and a run of several blocks), and every
pair of each benchmark workload (``bench/workloads.py``) at its own config.
The digest is the sha256 of the rendered report up to its timing block, as
``bench/run.py`` computes it, or the error the run raised.  The suite
recomputes the lines of seed 42 for every configuration on ``lc3``, ``lc4``,
``trivial3``, ``lorentz_dini`` and ``control_nonequiv_curved``, and for every
workload pair; it checks the keys of the rest without running them.

The fixtures ``tests/golden/<name>.yaml`` are pair files of generated
Levi-Civita pairs at n = 3 and n = 4 (the pair-file text of the benchmark's
``levi_civita_text(n, 42)``), so the corpus has equivalent pairs with a
non-trivial structure tensor in three and four dimensions.

One command rewrites every stored table and digest (about 20 s on a 2-core
machine), and git says whether any of them moved:

    PYTHONPATH=src python tests/test_golden.py && git diff --exit-code tests/golden/

A change that is meant to keep the numerics passes this as it is.  A change
that is meant to move residuals commits the rewritten files.
"""

import hashlib
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from benenti import catalog, pairfile, verify

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.sha256"
BENCH = GOLDEN.parent.parent / "bench"
FIXTURES = ("lc3", "lc4")
NAMES = catalog.list_entries() + FIXTURES
CONFIG = verify.VerifyConfig(
    points=2, seed=42, drift_trajectories=1, drift_horizon=0.05
)
SEEDS = (1, 7, 42, 31337)
SWEEP_CONFIGS = {
    "default": verify.VerifyConfig(),
    "drift-only": verify.VerifyConfig(checks=("drift",)),
    "t-grid": verify.VerifyConfig(t_grid=(0.0, 1.0, 2.5)),
    "three-checks": verify.VerifyConfig(checks=("connection", "carter", "drift")),
}
SUBSET = ("lc3", "lc4", "trivial3", "lorentz_dini", "control_nonequiv_curved")

sys.path.insert(0, str(BENCH))
try:
    import workloads
finally:
    sys.path.remove(str(BENCH))


def load(name: str):
    """A catalog pair or fixture, and its verify_pair keyword arguments."""
    if name in FIXTURES:
        return (pairfile.load_pair(GOLDEN / f"{name}.yaml"),
                {"source": "fixture", "expected_equivalent": True})
    entry = catalog.get_entry(name)
    return entry.pair, {"source": "catalog",
                        "expected_equivalent": entry.expected_equivalent}


def untimed(report) -> str:
    """The rendered report up to its timing block."""
    head, sep, _ = report.render().rpartition("\ntiming:\n")
    assert sep, "rendered report has no timing block"
    return head


def golden_text(name: str) -> str:
    """The stored form of the pair's report at ``CONFIG``."""
    pair, kwargs = load(name)
    report = verify.verify_pair(pair, CONFIG, **kwargs)
    text = f"{untimed(report)}\n"
    lines = [f"sha256 {hashlib.sha256(text.encode()).hexdigest()}"]
    seen = Counter()
    for record in report.records:
        verdict = "pass" if record.passed else "fail"
        lines.append(f"{record.check} {seen[record.check]} "
                     f"{record.residual.hex()} {verdict}")
        seen[record.check] += 1
    return "\n".join(lines) + "\n"


def sweep(seeds=SEEDS, names=NAMES):
    """(key, pair, config, verify_pair keyword arguments) of each run of the
    digest sweep, in the order of ``digests.sha256``."""
    for name in names:
        pair, kwargs = load(name)
        # two blocks of order-3 frames and three points of a third
        blocks = verify.VerifyConfig(
            points=2 * verify.block_points(pair.dim, 3) + 3, drift_trajectories=4)
        for seed in seeds:
            for label, config in {**SWEEP_CONFIGS, "blocks": blocks}.items():
                yield f"{name} {label} {seed}", pair, replace(config, seed=seed), kwargs
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            for spec in workloads.build(workload, seed).pairs:
                yield (f"bench:{workload} {spec.label} {seed}",
                       pairfile.parse_pair(spec.text, spec.label), spec.config,
                       {"source": spec.label,
                        "expected_equivalent": spec.expected_equivalent})


def digest_lines(runs) -> list:
    """One line per run: its key, then its report's digest or the error it
    raised."""
    lines = []
    for key, pair, config, kwargs in runs:
        try:
            report = verify.verify_pair(pair, config, **kwargs)
        except Exception as exc:  # the error is part of the behaviour compared
            lines.append(f"{key} raised {type(exc).__name__}: {exc}")
            continue
        lines.append(f"{key} {hashlib.sha256(untimed(report).encode()).hexdigest()}")
    return lines


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_golden(name):
    stored = (GOLDEN / f"{name}.txt").read_text().splitlines()
    fresh = golden_text(name).splitlines()
    # the table first, so a moved residual is named in the failure
    assert fresh[1:] == stored[1:]
    assert fresh[0] == stored[0]


def test_corpus_covers_the_catalog():
    stored = sorted(p.stem for p in GOLDEN.glob("*.txt"))
    assert stored == sorted(NAMES)
    assert sorted(p.stem for p in GOLDEN.glob("*.yaml")) == sorted(FIXTURES)


def test_digests_match_golden():
    stored = set(DIGESTS.read_text().splitlines())
    fresh = digest_lines(sweep(seeds=(42,), names=SUBSET))
    assert len(fresh) == 5 * len(SUBSET) + 19
    # the moved lines, named by pair, configuration and seed
    assert [line for line in fresh if line not in stored] == []


def test_digests_cover_the_sweep():
    keys = [line.split()[:3] for line in DIGESTS.read_text().splitlines()]
    assert keys == [key.split() for key, *_ in sweep()]
    assert len(keys) == 276


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.txt"):
        stale.unlink()
    for name in NAMES:
        path = GOLDEN / f"{name}.txt"
        path.write_text(golden_text(name))
        print(f"wrote {path}", file=sys.stderr)
    DIGESTS.write_text("".join(f"{line}\n" for line in digest_lines(sweep())))
    print(f"wrote {DIGESTS}", file=sys.stderr)
