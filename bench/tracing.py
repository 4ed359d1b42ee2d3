"""Spans and counters around calls into benenti, installed from outside.

The tracer replaces public functions and methods of the package by timing
wrappers for the length of a traced pass and puts the originals back after
it.  A name bound by ``from x import y`` is a second reference to the same
function, so it is wrapped where it is looked up (``projective.christoffel``
as well as ``geometry.christoffel``).  Nothing inside ``src/`` changes.

Every wrapped call is counted and its self time summed by name, where self
time is the call's duration minus the durations of the wrapped calls it
made.  Calls that are not marked hot are also kept as spans
``(name, start, end, parent)`` in memory until the pass ends.  Hot calls (jet
arithmetic, expression evaluation, frame lookups, RK4 stages) run hundreds of
thousands of times a pass, so they are only accounted, and nothing called
beneath them is kept as a span.  A span name starts with the module it
belongs to, which is how time is attributed to layers.
"""

from __future__ import annotations

import time
from collections import defaultdict
from functools import cached_property, lru_cache
from math import comb

from benenti import catalog, expr, geometry, jets, operators, pairfile, projective, verify

LAYERS = ("jets", "expr", "geometry", "projective", "operators", "verify",
          "pairfile")
# catalog only finds and parses pair files, so it shares a layer with pairfile
_LAYER_OF = {"catalog": "pairfile"}

# Span names whose inclusive time makes up each check of verify_pair.
CHECK_SPANS = {
    "basic": ("projective.check_projective_equivalence",),
    "connection": ("projective.check_connection_difference",),
    "phi": ("projective.check_phi_identity",),
    "killing": ("projective.check_killing_tensor",),
    "ricci-comm": ("projective.check_ricci_commutation",),
    "carter": ("projective.check_carter_condition",),
    "poisson": ("operators.poisson_residual",),
    "commutator": ("operators.killing_commutator_grid",
                   "operators.commutator_from_grid"),
    "decompose": ("operators.commutator_decompose", "operators.killing_operator"),
    "drift": ("operators.geodesic_drift",),
}

_JET_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "__pow__")
_JET_FUNCTIONS = ("seed_coordinates", "truncate", "partial", "differentiate",
                  "gradient", "reciprocal", "exp", "log", "sin", "cos", "power",
                  "sqrt", "absolute")
_GEOMETRY_FUNCTIONS = ("determinant", "inverse_metric", "christoffel",
                       "covariant_derivative", "ricci", "contract")
_FRAME_PROPERTIES = ("g", "gbar", "g_inv", "gbar_inv", "gamma", "gamma_bar",
                     "gamma_trace", "sqrt_abs_det_g", "L", "benenti",
                     "ricci_tensor", "ricci_endo")


@lru_cache(maxsize=None)
def product_madds(nvars: int, order: int) -> int:
    """Multiply-adds of one Jet*Jet product, computed, not measured.

    The product visits every pair of multi-indices whose degrees sum to at
    most the order, and there are C(order + 2 nvars, 2 nvars) such pairs.
    """
    return comb(order + 2 * nvars, 2 * nvars)


def _count_product(tracer, args, result):
    a, b = args[0], args[1]
    if isinstance(b, jets.Jet):
        tracer.counts["jets.mul.calls"] += 1
        tracer.counts["jets.mul.madds"] += product_madds(a.nvars, a.order)


def _count_drift(tracer, args, result):
    tracer.counts["operators.drift.trajectories"] += 1
    tracer.counts["operators.drift.exits"] += int(result.exited)
    tracer.counts["operators.rk4.steps"] += result.steps


def _targets():
    """(owner, attribute, name, hot, hook) for every wrapped callable."""
    J, P, F = jets.Jet, projective.ProjectivePair, projective.PointFrame
    M = geometry.MetricField
    out = [
        (catalog, "get_entry", "catalog.get_entry", False, None),
        (catalog, "parse_pair", "pairfile.parse_pair", False, None),
        (pairfile, "parse_pair", "pairfile.parse_pair", False, None),
        (pairfile, "parse", "expr.parse", True, None),
        (pairfile, "evaluate", "expr.evaluate", True, None),
        (expr, "parse", "expr.parse", True, None),
        (expr, "evaluate", "expr.evaluate", True, None),
        (M, "evaluate", "geometry.MetricField.evaluate", False, None),
        (M, "values", "geometry.MetricField.values", True, None),
        (geometry, "christoffel_values", "geometry.christoffel_values", True, None),
        (operators, "christoffel_values", "geometry.christoffel_values", True, None),
        (P, "frame", "projective.ProjectivePair.frame", True, None),
        (P, "sample_point", "projective.ProjectivePair.sample_point", True, None),
        (F, "__init__", "projective.PointFrame.build", True, None),
        (F, "S_of_t", "projective.PointFrame.S_of_t", False, None),
        (F, "K_of_t", "projective.PointFrame.K_of_t", False, None),
        (projective, "adjugate_family", "projective.adjugate_family", False, None),
        (projective, "check_killing", "projective.check_killing", False, None),
        (projective, "t_grid", "projective.t_grid", False, None),
        (verify, "t_grid", "projective.t_grid", False, None),
        (verify, "verify_pair", "verify.verify_pair", False, None),
        (verify.VerificationReport, "render", "verify.render", False, None),
        (operators, "killing_coefficient_operator",
         "operators.killing_coefficient_operator", False, None),
        (operators, "integral_field", "operators.integral_field", False, None),
        (operators, "geodesic_form_drift", "operators.geodesic_form_drift",
         False, None),
        (operators.QuantizedOperator, "coefficient_tensor",
         "operators.QuantizedOperator.coefficient_tensor", True, None),
    ]
    for check, names in CHECK_SPANS.items():
        hook = _count_drift if check == "drift" else None
        for name in names:
            module, attr = name.split(".")
            # verify binds the projective checks by name; it reaches the
            # operators ones through the module
            owner = verify if module == "projective" else operators
            out.append((owner, attr, name, False, hook))
    for attr in _GEOMETRY_FUNCTIONS:
        for owner in (geometry, projective):
            out.append((owner, attr, f"geometry.{attr}", False, None))
    for attr in _JET_FUNCTIONS:
        out.append((jets, attr, f"jets.{attr}", True, None))
    for attr in _JET_METHODS:
        hook = _count_product if attr == "__mul__" else None
        out.append((J, attr, f"jets.Jet.{attr}", True, hook))
    return out


class Tracer:
    """Spans, per-name accounting and counters of one traced pass."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # open calls: [name, start, child seconds, span index]
        self._saved = []

    def _wrap(self, fn, name, hot, hook):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        calls, self_s = self.calls, self.self_s
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][3] if stack else -1
            index = -1
            if not hot and (not stack or parent >= 0):
                index = len(spans)
                spans.append(None)
            frame = [name, clock(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                calls[name] += 1
                self_s[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if index >= 0:
                    spans[index] = (name, frame[1], end, parent)
            if hook is not None:
                hook(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target; jet functions held in expr's dispatch table too."""
        for owner, attr, name, hot, hook in _targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, hot, hook))
        for attr in _FRAME_PROPERTIES:
            original = projective.PointFrame.__dict__[attr]
            wrapped = cached_property(
                self._wrap(original.func, f"projective.PointFrame.{attr}", False, None)
            )
            wrapped.__set_name__(projective.PointFrame, attr)
            self._saved.append((projective.PointFrame, attr, original))
            setattr(projective.PointFrame, attr, wrapped)
        table = expr._JET_FUNCS
        self._saved.append((table, None, dict(table)))
        for key, fn in list(table.items()):
            table[key] = getattr(jets, fn.__name__)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            if attr is None:
                owner.clear()
                owner.update(original)
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def span_seconds(self, names) -> float:
        """Summed duration of the kept spans with one of the given names."""
        wanted = set(names)
        return sum(end - start for name, start, end, _ in self.spans
                   if name in wanted)

    def layer_self_seconds(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            module = name.split(".", 1)[0]
            out[_LAYER_OF.get(module, module)] += seconds
        return out
