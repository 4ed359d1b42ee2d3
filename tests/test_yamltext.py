"""The block-YAML writer of reports against PyYAML, its oracle."""

import math

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from benenti import yamltext


def pyyaml_text(doc) -> str:
    return yaml.dump(doc, Dumper=yaml.SafeDumper, sort_keys=False,
                     default_flow_style=False)


# keys and strings that PyYAML writes plain, quoted, escaped, wrapped at 80
# columns, or as a "? key" of its own (empty, multi-line or 128 long)
TEXTS = st.sampled_from([
    "", " ", "yes", "null", "~", "1e3", "- x", "*x", "x: y", "x #y", "it's",
    "é", "x\ny", "\n", "x" * 128, " ".join(["word"] * 40),
]) | st.lists(st.sampled_from(["alpha", "x", ":", "#", "'", "-", "é", "\n", " "]),
              max_size=60).map("".join) | st.text(max_size=150)
SCALARS = (TEXTS | st.integers() | st.floats() | st.booleans() | st.none()
           | st.sampled_from([math.nan, -0.0, 1e16, 5e-324, -math.inf]))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXTS, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(TEXTS, VALUES, max_size=5))
def test_text_of_pyyaml(doc):
    assert yamltext.dump(doc) == pyyaml_text(doc)


@pytest.mark.parametrize("doc", [
    {"a": [[1, []], {}, [{"b": [[]]}]]},
    {"": {"a": [1]}, "x\ny": [[2]]},
    {"k": {"k": {"k": " ".join(["long words"] * 12)}}},
])
def test_nesting(doc):
    assert yamltext.dump(doc) == pyyaml_text(doc)


@pytest.mark.parametrize("doc", [
    {"a": (1, 2)}, {1: "a"}, {"a": [1j]}, {"a": {"b": b"x"}}, ["a"],
])
def test_data_outside_the_reports_is_refused(doc):
    with pytest.raises(TypeError):
        yamltext.dump(doc)
