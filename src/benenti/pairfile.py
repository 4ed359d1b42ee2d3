"""Metric-pair files: a small YAML format describing two metrics on a chart.

Required keys: ``dim`` (int), ``coords`` (list of names), ``g`` and ``gbar``
(each an n x n matrix of expression strings; giving only the lower triangle,
row i with i+1 entries, is enough), and ``domain`` (mapping coordinate ->
[lo, hi]).  Optional: ``name``, ``notes``.

When a full matrix is given, each off-diagonal pair must agree: either the
two strings are identical, or the parsed expressions evaluate to exactly the
same values on a deterministic sample of domain points.

All load failures raise :class:`PairFileError` carrying a 1-based line and
column whenever the offending spot in the file can be located.
"""

from __future__ import annotations

import io
import re
from pathlib import Path

import numpy as np
import yaml

from .errors import DegenerateMetricError, ExpressionError, PairFileError
from .expr import FUNCTIONS, evaluate, parse
from .geometry import MetricField
from .projective import ProjectivePair, domain_interval

_KEYS = {"dim", "coords", "g", "gbar", "domain", "name", "notes"}
_REQUIRED = ("dim", "coords", "g", "gbar", "domain")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")
# A YAML 1.2 float.  PyYAML follows YAML 1.1, which reads an exponent
# without a dot or without a sign, as in 1e3 or 1.0e3, as a string.
_NUMBER_RE = re.compile(r"[-+]?(\.[0-9]+|[0-9]+(\.[0-9]*)?)([eE][-+]?[0-9]+)?\Z")


def _mark(node):
    if node is None or node.start_mark is None:
        return (None, None)
    return (node.start_mark.line + 1, node.start_mark.column + 1)


def _node_at(root, path, at_key: bool = False):
    """Descend a composed YAML node tree by mapping keys / sequence indices.

    A mapping step matches the key a key node loads as, text or not.  With
    at_key, a final mapping step resolves to the key node itself.
    Construction flattens merge keys into each mapping, merged pairs first;
    a repeated key resolves to its last pair, the one the loaded data keeps.
    """
    node = root
    for pos, step in enumerate(path):
        if node is None:
            return None
        if isinstance(node, yaml.MappingNode):
            for key_node, value_node in reversed(node.value):
                if _loaded_key(key_node) == step:
                    node = key_node if at_key and pos == len(path) - 1 else value_node
                    break
            else:
                return None
        elif isinstance(step, int) and isinstance(node, yaml.SequenceNode):
            if step >= len(node.value):
                return None
            node = node.value[step]
        else:
            return None
    return node


def _loaded_key(node):
    """The key a mapping's key node loads as: a key of the loaded data is a
    scalar, text or not."""
    if node.tag == "tag:yaml.org,2002:str":
        return node.value
    return yaml.constructor.SafeConstructor().construct_object(node)


class _Source:
    """Parsed YAML data plus the node tree, for positioned diagnostics."""

    def __init__(self, text: str, label: str):
        self.label = label
        try:
            loader = yaml.SafeLoader(text)  # one parse gives nodes and data
            try:
                self.root = loader.get_single_node()
                self.data = (None if self.root is None
                             else loader.construct_document(self.root))
            finally:
                loader.dispose()
        except yaml.MarkedYAMLError as err:
            line = col = None
            if err.problem_mark is not None:
                line = err.problem_mark.line + 1
                col = err.problem_mark.column + 1
            problem = err.problem or "invalid YAML"
            raise PairFileError(f"{label}: {problem}", line, col) from err
        except yaml.YAMLError as err:
            raise PairFileError(f"{label}: {err}") from err

    def fail(self, message: str, path=(), at_key: bool = False):
        line, col = _mark(_node_at(self.root, tuple(path), at_key=at_key))
        raise PairFileError(f"{self.label}: {message}", line, col)


def _expand_matrix(src: _Source, key: str, dim: int, coords, probes):
    rows = src.data.get(key)
    if not isinstance(rows, list) or len(rows) != dim:
        src.fail(f"{key} must be a list of {dim} rows", (key,))
    full = [[None] * dim for _ in range(dim)]
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            src.fail(f"{key} row {i} must be a list", (key, i))
        if len(row) not in (i + 1, dim):
            src.fail(
                f"{key} row {i} must have {i + 1} (lower triangle) or "
                f"{dim} entries, got {len(row)}",
                (key, i),
            )
        for j, entry in enumerate(row):
            if not isinstance(entry, str) or _plain_number(src, (key, i, j), entry):
                src.fail(
                    f"{key}[{i}][{j}] must be an expression string",
                    (key, i, j),
                )
            try:
                parsed = parse(entry, coords)
            except ExpressionError as err:
                _fail_expression(src, err, (key, i, j), f"{key}[{i}][{j}]")
            full[i][j] = (entry, parsed, (key, i, j))
    # mirror the lower triangle, which every row j > i reaches; reconcile
    # duplicates of full matrices
    for i in range(dim):
        for j in range(i + 1, dim):
            if full[i][j] is None:
                full[i][j] = full[j][i]
            else:
                _check_duplicates(src, full[i][j], full[j][i], key, i, j, probes)
    return [[cell[0] for cell in row] for row in full]


def _plain_number(src: _Source, path, value) -> bool:
    """Whether ``value``, loaded from ``path``, is text in a plain scalar
    that YAML 1.2 reads as a number."""
    if type(value) is str and _NUMBER_RE.match(value):
        node = _node_at(src.root, path)
        return node is not None and node.style is None
    return False


def _fail_expression(src: _Source, err: ExpressionError, path, where: str):
    """Report an expression error at its exact column within the file.

    The parser gives a character offset inside the entry; for single-line
    scalars that offset is added to the scalar's own column (plus one for
    the opening quote, if any).
    """
    node = _node_at(src.root, tuple(path))
    line, col = _mark(node)
    if (
        col is not None
        and isinstance(node, yaml.ScalarNode)
        and "\n" not in node.value
    ):
        if node.style in ("'", '"'):
            col += 1
        col += err.position
    raise PairFileError(f"{src.label}: {where}: {err}", line, col)


def _check_duplicates(src: _Source, upper, lower, key, i, j, probes):
    """Off-diagonal duplicates must match as strings or numerically at the
    probe points, given as coordinate assignments."""
    text_u, expr_u, path_u = upper
    text_l, expr_l, path_l = lower
    if text_u == text_l or expr_u == expr_l:
        return
    for assignment in probes:
        try:
            vu = evaluate(expr_u, assignment)
            vl = evaluate(expr_l, assignment)
        except ExpressionError:
            continue  # off-domain probe; disagreement must show elsewhere
        if vu != vl:
            src.fail(
                f"{key}[{i}][{j}] and {key}[{j}][{i}] disagree "
                f"({vu!r} vs {vl!r} at {tuple(assignment.values())})",
                path_l,
            )


def parse_pair(text: str, label: str = "<pair>") -> ProjectivePair:
    """Parse metric-pair text; raises PairFileError with positions on failure."""
    src = _Source(text, label)
    if not isinstance(src.data, dict):
        src.fail("top level must be a mapping")
    unknown = [key for key in src.data if key not in _KEYS]  # in file order
    if unknown:
        src.fail(f"unknown key {unknown[0]!r}", (unknown[0],), at_key=True)
    for key in _REQUIRED:
        if key not in src.data:
            src.fail(f"missing required key {key!r}")

    dim = src.data["dim"]
    if type(dim) is not int or dim < 1:  # true and false are ints, as bools
        src.fail("dim must be a positive integer", ("dim",))

    coords = src.data["coords"]
    if not isinstance(coords, list) or len(coords) != dim:
        src.fail(f"coords must list {dim} names", ("coords",))
    for k, c in enumerate(coords):
        if not isinstance(c, str) or not _NAME_RE.match(c):
            src.fail(f"coordinate {c!r} is not a valid identifier", ("coords", k))
        if c in FUNCTIONS:
            src.fail(f"coordinate {c!r} collides with a function name", ("coords", k))
    if len(set(coords)) != dim:
        src.fail("coordinate names must be distinct", ("coords",))
    coords = tuple(coords)

    domain = src.data["domain"]
    if not isinstance(domain, dict):
        src.fail("domain must map coordinates to [lo, hi]", ("domain",))
    extra = [c for c in domain if c not in coords]  # in file order
    if extra:
        src.fail(f"domain names unknown coordinate {extra[0]!r}", ("domain", extra[0]),
                 at_key=True)
    box = {}
    for c in coords:
        entry = domain.get(c)
        if entry is None:
            src.fail(f"domain missing coordinate {c!r}", ("domain",))
        if isinstance(entry, list):  # a plain 1e3 is a YAML 1.2 number
            entry = [float(v) if _plain_number(src, ("domain", c, k), v) else v
                     for k, v in enumerate(entry)]
        try:
            box[c] = domain_interval(c, entry)
        except ValueError as err:
            src.fail(str(err), ("domain", c))

    name = src.data.get("name")
    if name is not None and not isinstance(name, str):
        src.fail("name must be a string", ("name",))
    notes = src.data.get("notes")
    if notes is not None and not isinstance(notes, str):
        src.fail("notes must be a string", ("notes",))

    # seven points of the box, where unequal duplicates must agree
    lo, hi = np.array([box[c] for c in coords]).T
    probes = [dict(zip(coords, row)) for row in
              np.random.default_rng(0).uniform(lo, hi, size=(7, dim)).tolist()]
    g_texts = _expand_matrix(src, "g", dim, coords, probes)
    gbar_texts = _expand_matrix(src, "gbar", dim, coords, probes)
    try:
        g = MetricField(coords, g_texts, name=f"{name or label}:g")
        gbar = MetricField(coords, gbar_texts, name=f"{name or label}:gbar")
        pair = ProjectivePair(g, gbar, domain=box, name=name, notes=notes)
    except ValueError as err:
        raise PairFileError(f"{label}: {err}") from err
    _probe_metrics(src, pair)
    return pair


def _probe_metrics(src: _Source, pair: ProjectivePair) -> None:
    """Reject pairs whose metrics cannot be evaluated anywhere in the domain.

    Isolated bad points (a coordinate singularity, say) are a runtime matter
    and are left to the checks; a metric that fails at the center and at
    every probe is a broken file.
    """
    lo, hi = np.array([pair.domain[c] for c in pair.coordinates]).T
    points = np.vstack([(lo + hi) / 2, pair.sample_point(np.random.default_rng(0), rows=4)])
    for key, metric in (("g", pair.g), ("gbar", pair.gbar)):
        if not metric.nondegenerate(points).any():
            try:
                metric.values(points[-1])  # raises the error the message gives
            except (DegenerateMetricError, ExpressionError) as err:
                src.fail(f"{key} cannot be evaluated anywhere in the domain: {err}", (key,))


def load_pair(path) -> ProjectivePair:
    """Load a metric pair from a file path."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as err:
        raise PairFileError(f"cannot read {p}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise PairFileError(f"cannot read {p}: {err}") from err
    pair = parse_pair(text, label=str(p))
    if pair.name is None:
        pair.name = p.stem
    return pair


def dump_pair(pair: ProjectivePair) -> str:
    """Render a pair back to file text (lower-triangle form)."""
    doc = {
        "dim": pair.dim,
        "coords": list(pair.coordinates),
        "g": [
            [pair.g.component_texts[i][j] for j in range(i + 1)]
            for i in range(pair.dim)
        ],
        "gbar": [
            [pair.gbar.component_texts[i][j] for j in range(i + 1)]
            for i in range(pair.dim)
        ],
        "domain": {c: list(pair.domain[c]) for c in pair.coordinates}
        if pair.domain
        else None,
    }
    if doc["domain"] is None:
        del doc["domain"]
    if pair.name:
        doc["name"] = pair.name
    if pair.notes:
        doc["notes"] = pair.notes
    out = io.StringIO()
    yaml.safe_dump(doc, out, sort_keys=False, default_flow_style=None)
    return out.getvalue()
