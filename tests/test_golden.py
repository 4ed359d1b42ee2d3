"""Golden reports: every catalog pair and every fixture pair, verified at a
fixed small config, must reproduce the stored report bit for bit.

The fixtures ``tests/golden/<name>.yaml`` are pair files of generated
Levi-Civita pairs at n = 3 and n = 4 (the pair-file text of the benchmark's
``levi_civita_text(n, 42)``), so the corpus has equivalent pairs with a
non-trivial structure tensor in three and four dimensions.

For each pair ``tests/golden/<name>.txt`` holds the sha256 of the rendered
report without its ``timing`` block, then one line per record with the
check, the record's index within that check, ``residual.hex()`` and the
verdict.  The digest covers every byte of the report; the table says which
residual moved when the digest no longer matches.

A change that is meant to keep the numerics leaves this corpus alone.  A
change that is meant to move residuals rewrites it in one command:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import sys
from collections import Counter
from pathlib import Path

import pytest
import yaml

from benenti import catalog, pairfile, verify

GOLDEN = Path(__file__).resolve().parent / "golden"
FIXTURES = ("lc3", "lc4")
NAMES = catalog.list_entries() + FIXTURES
CONFIG = verify.VerifyConfig(
    points=2, seed=42, drift_trajectories=1, drift_horizon=0.05
)


def golden_text(name: str) -> str:
    """The stored form of the pair's report at ``CONFIG``."""
    if name in FIXTURES:
        report = verify.verify_pair(
            pairfile.load_pair(GOLDEN / f"{name}.yaml"), CONFIG,
            source="fixture", expected_equivalent=True,
        )
    else:
        entry = catalog.get_entry(name)
        report = verify.verify_pair(
            entry.pair, CONFIG, source="catalog",
            expected_equivalent=entry.expected_equivalent,
        )
    doc = report.to_mapping()
    del doc["timing"]
    text = yaml.safe_dump(doc, sort_keys=False, default_flow_style=False)
    lines = [f"sha256 {hashlib.sha256(text.encode()).hexdigest()}"]
    seen = Counter()
    for record in report.records:
        verdict = "pass" if record.passed else "fail"
        lines.append(f"{record.check} {seen[record.check]} "
                     f"{record.residual.hex()} {verdict}")
        seen[record.check] += 1
    return "\n".join(lines) + "\n"


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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.txt"):
        stale.unlink()
    for name in NAMES:
        path = GOLDEN / f"{name}.txt"
        path.write_text(golden_text(name))
        print(f"wrote {path}", file=sys.stderr)
