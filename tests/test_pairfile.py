import numpy as np
import pytest

from benenti import catalog
from benenti.errors import PairFileError
from benenti.pairfile import dump_pair, load_pair, parse_pair

GOOD = """\
dim: 2
coords: [x, y]
g:
  - ['1']
  - ['0', '1']
gbar:
  - ['1 + x^2']
  - ['x * y', '2']
domain:
  x: [0.0, 1.0]
  y: [-1.0, 1.0]
name: demo
notes: hand-written fixture
"""


def expect_error(text, line=None, column=None, fragment=None):
    with pytest.raises(PairFileError) as err:
        parse_pair(text, label="t")
    e = err.value
    if line is not None:
        assert e.line == line, f"line {e.line} != {line}: {e}"
    if column is not None:
        assert e.column == column, f"column {e.column} != {column}: {e}"
    if fragment is not None:
        assert fragment in str(e), str(e)
    return e


class TestParseGood:
    def test_basic_fields(self):
        pair = parse_pair(GOOD)
        assert pair.dim == 2
        assert pair.coordinates == ("x", "y")
        assert pair.name == "demo"
        assert pair.notes == "hand-written fixture"
        assert pair.domain == {"x": (0.0, 1.0), "y": (-1.0, 1.0)}

    def test_triangle_is_mirrored(self):
        pair = parse_pair(GOOD)
        v = pair.gbar.values((0.5, 0.25))
        assert v[0, 1] == v[1, 0] == 0.125

    def test_full_matrix_with_consistent_duplicates(self):
        text = GOOD.replace(
            "gbar:\n  - ['1 + x^2']\n  - ['x * y', '2']",
            "gbar:\n  - ['1 + x^2', 'y * x']\n  - ['x * y', '2']",
        )
        pair = parse_pair(text)
        v = pair.gbar.values((0.5, 0.25))
        assert v[0, 1] == v[1, 0] == 0.125

    def test_full_matrix_with_identical_strings(self):
        text = GOOD.replace(
            "gbar:\n  - ['1 + x^2']\n  - ['x * y', '2']",
            "gbar:\n  - ['1 + x^2', 'x * y']\n  - ['x * y', '2']",
        )
        parse_pair(text)

    def test_catalog_files_roundtrip_through_dump(self):
        for name in catalog.list_entries():
            pair = catalog.get_entry(name).pair
            again = parse_pair(dump_pair(pair), label=f"roundtrip:{name}")
            assert again.dim == pair.dim
            assert again.coordinates == pair.coordinates
            assert again.domain == pair.domain
            assert again.name == pair.name
            p = tuple(
                (lo + hi) / 2 for lo, hi in (pair.domain[c] for c in pair.coordinates)
            )
            assert np.allclose(again.g.values(p), pair.g.values(p))
            assert np.allclose(again.gbar.values(p), pair.gbar.values(p))

    def test_load_pair_names_after_stem(self, tmp_path):
        f = tmp_path / "mypair.yaml"
        f.write_text(GOOD.replace("name: demo\n", ""))
        pair = load_pair(f)
        assert pair.name == "mypair"

    def test_load_pair_missing_file(self, tmp_path):
        with pytest.raises(PairFileError) as err:
            load_pair(tmp_path / "absent.yaml")
        assert "cannot read" in str(err.value)

    def test_load_pair_undecodable_file(self, tmp_path):
        f = tmp_path / "binary.yaml"
        f.write_bytes(b"\xff\xfe dim: 2\n")
        with pytest.raises(PairFileError, match="cannot read .*binary.yaml"):
            load_pair(f)


class TestDiagnostics:
    def test_yaml_syntax_error_has_position(self):
        e = expect_error("dim: 2\n  coords: [x\n", line=2)
        assert e.column is not None

    def test_top_level_not_mapping(self):
        expect_error("- 1\n- 2\n", fragment="top level must be a mapping")

    def test_unknown_key_points_at_key(self):
        text = GOOD + "bogus: 3\n"
        expect_error(text, line=14, column=1, fragment="unknown key 'bogus'")

    def test_unknown_keys_of_mixed_types_report_the_first_in_file_order(self):
        expect_error("name: t\nfoo: 1\n1: 1\n", line=2, column=1,
                     fragment="unknown key 'foo'")
        expect_error("1: 1\nfoo: 1\n", line=1, column=1, fragment="unknown key 1")

    def test_missing_required_key(self):
        text = GOOD.replace("domain:\n  x: [0.0, 1.0]\n  y: [-1.0, 1.0]\n", "")
        expect_error(text, fragment="missing required key 'domain'")

    def test_bad_dim(self):
        expect_error(GOOD.replace("dim: 2", "dim: 0"), line=1,
                     fragment="dim must be a positive integer")
        expect_error(GOOD.replace("dim: 2", "dim: two"), line=1)

    def test_yaml_booleans_are_not_numbers(self):
        # YAML true and false load as bools, and bool is a subclass of int
        one_dim = "dim: true\ncoords: [x]\ng: [['1']]\ngbar: [['2']]\n"
        expect_error(one_dim + "domain: {x: [0.0, 1.0]}\n", line=1, column=6,
                     fragment="dim must be a positive integer")
        expect_error(GOOD.replace("x: [0.0, 1.0]", "x: [false, true]"),
                     line=10, column=6, fragment="domain[x]")

    def test_wrong_coord_count(self):
        expect_error(GOOD.replace("coords: [x, y]", "coords: [x]"), line=2,
                     fragment="coords must list 2 names")

    def test_bad_coord_name(self):
        expect_error(GOOD.replace("coords: [x, y]", "coords: [x, 2y]"),
                     line=2, fragment="not a valid identifier")

    def test_coord_function_collision(self):
        expect_error(GOOD.replace("coords: [x, y]", "coords: [x, sin]"),
                     line=2, fragment="collides with a function name")

    def test_duplicate_coords(self):
        text = GOOD.replace("coords: [x, y]", "coords: [x, x]")
        text = text.replace("y: [-1.0, 1.0]\n", "")
        expect_error(text, line=2, fragment="must be distinct")

    def test_short_row(self):
        expect_error(
            GOOD.replace("  - ['0', '1']\n", "", 1),
            fragment="g must be a list of 2 rows",
        )

    def test_row_wrong_length(self):
        expect_error(
            GOOD.replace("  - ['0', '1']\ngbar", "  - ['0', '1', '2']\ngbar"),
            line=5, fragment="row 1 must have 2",
        )

    def test_non_string_entry(self):
        expect_error(
            GOOD.replace("  - ['0', '1']\ngbar", "  - ['0', 1]\ngbar"),
            line=5, fragment="must be an expression string",
        )

    @pytest.mark.parametrize("old, new, line, column, fragment", [
        ("  - ['0', '1']\ngbar", "  - '0, 1'\ngbar", 5, 5, "g row 1 must be a list"),
        ("domain:\n  x: [0.0, 1.0]\n  y: [-1.0, 1.0]\n", "domain: [0, 1]\n", 9, 9,
         "domain must map coordinates to [lo, hi]"),
        ("notes: hand-written fixture", "notes: [1, 2]", 13, 8, "notes must be a string"),
    ])
    def test_a_value_of_the_wrong_type_has_position(self, old, new, line, column, fragment):
        expect_error(GOOD.replace(old, new), line=line, column=column, fragment=fragment)

    @pytest.mark.parametrize("entry", ["1000.0", "1e3", "1.0e3", "-2E-1"])
    def test_plain_numeric_entry_is_not_an_expression(self, entry):
        # PyYAML's YAML 1.1 rules load 1e3, 1.0e3 and -2E-1 as text and
        # 1000.0 as a number: each is rejected at its position, while a
        # quoted '1e3' is an expression
        expect_error(
            GOOD.replace("  - ['0', '1']\ngbar", f"  - ['0', {entry}]\ngbar"),
            line=5, column=11, fragment="g[1][1] must be an expression string",
        )
        pair = parse_pair(GOOD.replace("['0', '1']", "['0', '1e3']"))
        assert pair.g.values((0.5, 0.0))[1, 1] == 1000.0

    def test_entries_and_bounds_are_typed_by_the_node_they_load_from(self):
        # a key given beside a merge key overrides the merged one, and its own
        # scalar decides whether 1e3 is text or a number
        merged = ("<<: {g: [['1'], ['0', 1e3]],"
                  " domain: {x: [0, '1e3'], y: [-1, 1]}}\n")
        pair = parse_pair(merged + GOOD.replace("['0', '1']", "['0', '1e3']")
                          .replace("[0.0, 1.0]", "[0.0, 1e3]"))
        assert pair.g.values((0.5, 0.0))[1, 1] == 1000.0
        assert pair.domain["x"] == (0.0, 1000.0)
        # merged alone, the plain entry is rejected and the quoted one read
        only = "\n".join(line for line in GOOD.splitlines()[:2] + GOOD.splitlines()[5:])
        expect_error(merged + only, fragment="g[1][1] must be an expression string")
        pair = parse_pair(merged.replace("1e3]]", "'1e3']]") + only)
        assert pair.g.values((0.5, 0.0))[1, 1] == 1000.0

    def test_expression_syntax_error_position(self):
        # the reported column points at the '*' inside the quoted scalar
        e = expect_error(
            GOOD.replace("'1 + x^2'", "'1 + * x'"),
            line=7, fragment="gbar[0][0]",
        )
        assert e.column == 11

    def test_unknown_identifier_in_entry(self):
        expect_error(
            GOOD.replace("'x * y'", "'x * z'"),
            line=8, fragment="unknown identifier 'z'",
        )

    def test_inconsistent_duplicates(self):
        text = GOOD.replace(
            "gbar:\n  - ['1 + x^2']\n  - ['x * y', '2']",
            "gbar:\n  - ['1 + x^2', 'x + y']\n  - ['x * y', '2']",
        )
        expect_error(text, line=8, fragment="disagree")

    def test_domain_interval_checks(self):
        expect_error(GOOD.replace("x: [0.0, 1.0]", "x: [1.0, 0.0]"),
                     line=10, fragment="domain[x] must be [lo, hi] with lo < hi")
        expect_error(GOOD.replace("x: [0.0, 1.0]", "x: [1.0, 1.0]"),
                     line=10, fragment="domain[x] must be [lo, hi] with lo < hi")
        expect_error(GOOD.replace("x: [0.0, 1.0]", "x: [0.0]"),
                     line=10, fragment="domain[x]")

    @pytest.mark.parametrize("bounds,bound", [
        ("[.nan, 1.0]", "nan"), ("[0, .inf]", "inf"), ("[-.inf, 0]", "-inf"),
    ])
    def test_domain_bound_that_is_not_finite(self, bounds, bound):
        # named as such, not as an interval out of order
        e = expect_error(GOOD.replace("x: [0.0, 1.0]", f"x: {bounds}"), line=10,
                         column=6, fragment=f"domain[x] bound {bound} is not finite")
        assert "lo < hi" not in str(e)

    def test_domain_bounds_in_exponent_form(self):
        # YAML 1.1 reads 1e3 and 1.0e3 as strings; plain ones are numbers
        pair = parse_pair(GOOD.replace("x: [0.0, 1.0]", "x: [-1.0e-1, 1e3]"))
        assert pair.domain["x"] == (-0.1, 1000.0)
        expect_error(GOOD.replace("x: [0.0, 1.0]", "x: [0, '1e3']"), line=10,
                     column=6, fragment="bound '1e3' is not a number")
        # an integer too large for a float is an infinite bound
        expect_error(GOOD.replace("x: [0.0, 1.0]", f"x: [0, 1{'0' * 400}]"),
                     line=10, column=6, fragment="domain[x] bound inf is not finite")
        expect_error(GOOD.replace("x: [0.0, 1.0]", "x: [1e3, -1.0e-1]"), line=10,
                     column=6, fragment="domain[x] must be [lo, hi] with lo < hi")

    def test_domain_missing_coordinate(self):
        expect_error(GOOD.replace("  y: [-1.0, 1.0]\n", ""),
                     fragment="domain missing coordinate 'y'")

    def test_domain_unknown_coordinate(self):
        expect_error(
            GOOD.replace("  y: [-1.0, 1.0]\n", "  y: [-1.0, 1.0]\n  z: [0.0, 1.0]\n"),
            fragment="unknown coordinate 'z'",
        )

    def test_domain_keys_of_mixed_types_report_the_first_in_file_order(self):
        domain = "  y: [-1.0, 1.0]\n"
        expect_error(GOOD.replace(domain, domain + "  1: [0.0, 1.0]\n  foo: [0.0, 1.0]\n"),
                     line=12, column=3, fragment="unknown coordinate 1")
        expect_error(GOOD.replace(domain, domain + "  foo: [0.0, 1.0]\n  1: [0.0, 1.0]\n"),
                     line=12, column=3, fragment="unknown coordinate 'foo'")

    def test_name_must_be_string(self):
        expect_error(GOOD.replace("name: demo", "name: 7"), line=12,
                     fragment="name must be a string")

    def test_non_finite_metric_is_reported_on_load(self):
        # g_11 = inf - inf + 1 is NaN on the whole domain
        huge = "(x*1e200)*(x*1e200)"
        text = GOOD.replace("g:\n  - ['1']", f"g:\n  - ['{huge} - {huge} + 1']")
        expect_error(text, line=4, column=3,
                     fragment="g cannot be evaluated anywhere in the domain")

    def test_degenerate_metric_is_reported_on_load(self):
        # the metric parses but is singular everywhere; the constructor's
        # rejection must surface as a PairFileError, not a raw exception
        text = GOOD.replace("  - ['0', '1']\ngbar", "  - ['0', '0']\ngbar")
        with pytest.raises(PairFileError):
            parse_pair(text)
