"""Every demo script runs to completion against the library in ``src/``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text()
    code = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme, re.S | re.M).group(1)
    names = {}
    exec(compile(code, "README.md", "exec"), names)
    # what its comments state
    assert names["frame"].L.value().tolist() == [[2.0, 0.0], [0.0, 0.5]]
    assert names["points"].shape == (4, 2)
    assert names["report"].passed
