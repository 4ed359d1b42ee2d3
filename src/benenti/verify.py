"""Verification engine: run identity checks over sampled points, build a report.

Checks are identified by short ids:

  basic       defining first-order identity of the structure tensor
  connection  difference of Christoffel symbols has the projective form
  phi         connection-trace route to the one-form matches the algebraic one
  killing     K^(t) satisfies the Killing tensor equation for every grid t
  ricci-comm  the Ricci endomorphism commutes with the structure tensor
  carter      divergence of [ricci, S(t)] vanishes for every grid t
  poisson     quadratic integrals Poisson-commute at sampled phase points
  commutator  quantized operators commute on the test function suite
  decompose   commutator decomposition has vanishing Q and V
  drift       K^(t) is conserved along numerically integrated geodesics

Each check produces one record per sampled point (per trajectory for
drift) carrying the worst residual seen there and the parameters that
produced it.  Points are sampled a block of draws at a time, keeping the
draws a draw-by-draw loop would keep.  They are walked in blocks sized by
the jet, with one frame of jets over each block, built at the highest order
the checks read: the block's t grids are taken off that frame, and every
check other than drift runs once on the block.  Every record has the bits
of its point checked alone.  Reports are deterministic functions of the
configuration: identical seeds give byte-identical documents apart from
the timing block.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Optional, Sequence

import numpy as np

from . import jets, operators as ops, yamltext
from .errors import DegenerateMetricError
from .projective import (
    ProjectivePair,
    _is_number,
    check_carter_condition,
    check_connection_difference,
    check_killing_tensor,
    check_phi_identity,
    check_projective_equivalence,
    check_ricci_commutation,
    t_grid,
)

SCHEMA_VERSION = 4

# Each check's pinned acceptance threshold (--tol overrides all of them
# uniformly) and the highest jet order its residual reads off a block's
# frame.  Drift integrates geodesics on float values and reads no frame.
_CHECKS = {
    "basic": (1e-8, 1),
    "connection": (1e-8, 1),
    "phi": (1e-8, 1),
    "killing": (1e-9, 1),
    "ricci-comm": (1e-8, 2),
    "carter": (1e-7, 3),
    "poisson": (1e-8, 1),
    "commutator": (1e-7, 3),
    "decompose": (1e-7, 3),
    "drift": (1e-8, None),
}
CHECK_IDS = tuple(_CHECKS)
DEFAULT_THRESHOLDS = {check: threshold for check, (threshold, _) in _CHECKS.items()}

# Every check other than drift runs once per block of sampled points.  A
# block's frame grows with its rows times the size of a jet, so a block has
# the rows of a fixed budget of jet coefficients: at order 3, the highest
# any check reads, 51 in 2 variables, 25 in 3 and 14 in 4.
BLOCK_COEFFS = 2**9


def block_points(dim: int, order: int) -> int:
    """Rows of a check block for a pair of dimension ``dim`` whose frame is
    built at ``order``."""
    return max(1, BLOCK_COEFFS // jets._space(dim, order).ncoeffs)


def function_suite(coordinates: Sequence[str]) -> tuple:
    """Seven scalar test functions: quadratic monomials, sin/cos of single
    coordinates, exponentials of linear forms."""
    a, b = coordinates[0], coordinates[-1]
    return (
        f"{a} * {b}",
        f"{a}^2",
        f"{b}^2",
        f"sin({a})",
        f"cos({b})",
        f"exp({a} + {b})",
        f"exp({a} - {b})",
    )


@dataclass(frozen=True)
class VerifyConfig:
    """Echoable configuration for a verification run."""

    points: int = 20
    seed: int = 42
    tol: Optional[float] = None
    t_grid: Optional[tuple] = None
    checks: tuple = CHECK_IDS
    drift_horizon: float = 1.0
    drift_trajectories: int = 3

    def __post_init__(self):
        for name, least in (("points", 1), ("seed", 0), ("drift_trajectories", 1)):
            value = getattr(self, name)  # numpy integers count, bools do not
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
            object.__setattr__(self, name, int(value))
        reals = [("tol", self.tol), ("drift_horizon", self.drift_horizon)]
        reals += [(f"t_grid[{k}]", t) for k, t in enumerate(self.t_grid or ())]
        for k, (name, value) in enumerate(reals):  # numpy reals count, bools do not
            if not (_is_number(value) or value is None and name == "tol"):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if k < 2 and value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name, value in reals[:2]:  # as Python numbers, which the report can echo
            object.__setattr__(self, name, np.asarray(value).item())
        if self.t_grid is not None:
            if not self.t_grid:
                raise ValueError("t_grid must not be empty")
            if not all(math.isfinite(t) for t in self.t_grid):
                raise ValueError(f"t_grid must be finite, got {list(self.t_grid)}")
            # these compare two grid values t and s, and t = s passes any pair
            pairwise = [c for c in self.checks
                        if c in ("poisson", "commutator", "decompose")]
            if pairwise and len(set(self.t_grid)) < 2:
                raise ValueError(f"t_grid needs two distinct values for {pairwise}, "
                                 f"got {list(self.t_grid)}")
        if len(set(self.checks)) != len(self.checks):
            raise ValueError(f"checks must be distinct, got {list(self.checks)}")
        unknown = [c for c in self.checks if c not in CHECK_IDS]
        if unknown:
            raise ValueError(
                f"unknown checks {unknown}; known ids: {list(CHECK_IDS)}"
            )

    def threshold(self, check: str) -> float:
        if self.tol is not None:
            return self.tol
        return DEFAULT_THRESHOLDS[check]

    def drift_tolerance(self) -> float:
        """Local error tolerance of the drift integrator: a pass means I_t
        is conserved to within the threshold, with the integration error
        resolved three orders below it (or as far as rounding allows)."""
        return max(self.threshold("drift") * 1e-3, ops.MIN_TOLERANCE)


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one check at one point."""

    check: str
    point: tuple
    residual: float
    threshold: float
    # (key, value) pairs, YAML-safe values, in the fixed order of each check
    params: tuple = ()

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold

    def to_mapping(self) -> dict:
        return {
            "check": self.check,
            "point": [float(c) for c in self.point],
            "residual": float(self.residual),
            "threshold": float(self.threshold),
            "verdict": "pass" if self.passed else "fail",
            "params": {k: v for k, v in self.params},
        }


@dataclass
class VerificationReport:
    """Structured outcome of a full verification run."""

    pair_name: str
    source: str
    dimension: int
    config: VerifyConfig
    records: list = field(default_factory=list)
    expected_equivalent: Optional[bool] = None
    elapsed_seconds: float = 0.0
    check_seconds: dict = field(default_factory=dict)  # by check id

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def failures(self) -> int:
        return sum(not r.passed for r in self.records)

    def max_residuals(self) -> dict:
        """Worst residual per check, by the rule of ``_rank``."""
        out = {}
        for check in CHECK_IDS:
            residuals = [r.residual for r in self.records if r.check == check]
            if residuals:
                out[check] = max(residuals, key=_rank)
        return out

    def to_mapping(self) -> dict:
        cfg = self.config
        doc = {
            "schema_version": SCHEMA_VERSION,
            "pair": self.pair_name,
            "source": self.source,
            "dimension": self.dimension,
        }
        if self.expected_equivalent is not None:
            doc["expected_equivalent"] = self.expected_equivalent
        doc.update({
            "configuration": {
                "seed": cfg.seed,
                "points": cfg.points,
                "tol": "per-check defaults" if cfg.tol is None else float(cfg.tol),
                "t_grid": "eigenvalue-filtered default"
                if cfg.t_grid is None
                else [float(t) for t in cfg.t_grid],
                "checks": list(cfg.checks),
                "drift": {
                    "tolerance": cfg.drift_tolerance(),
                    "horizon": cfg.drift_horizon,
                    "trajectories": cfg.drift_trajectories,
                },
            },
            "summary": {
                "verdict": "pass" if self.passed else "fail",
                "records": len(self.records),
                "failures": self.failures,
                "max_residual": {
                    k: float(v) for k, v in self.max_residuals().items()
                },
            },
            "records": [r.to_mapping() for r in self.records],
            "timing": {"elapsed_seconds": round(self.elapsed_seconds, 3),
                       "check_seconds": {k: round(v, 3)
                                         for k, v in self.check_seconds.items()}},
        })
        return doc

    def render(self) -> str:
        """The report as block YAML, in the text of PyYAML's SafeDumper."""
        return yamltext.dump(self.to_mapping())


def _sample_points(pair: ProjectivePair, cfg: VerifyConfig,
                   rng: np.random.Generator) -> np.ndarray:
    """The first cfg.points domain draws at which both metrics are
    nondegenerate, in draw order, as a ``(P, n)`` array.  Draws come as many
    at a time as points are missing (the stream is this function's own);
    100 rejected draws in a row raise."""
    points, misses = [], 0
    while len(points) < cfg.points:
        block = pair.sample_point(rng, rows=cfg.points - len(points))
        ok = pair.g.nondegenerate(block) & pair.gbar.nondegenerate(block)
        for row, good in zip(block, ok.tolist()):
            misses = 0 if good else misses + 1
            if misses == 100:
                raise DegenerateMetricError(
                    f"could not sample a non-degenerate point in "
                    f"{pair.name or 'pair'} after 100 tries"
                )
            if good:
                points.append(row)
    return np.array(points)


def _rank(residual):
    """Sort key of a residual: a NaN ranks above every number, so a check
    that produces one fails instead of being skipped.  ``max`` with this key
    takes the first of equal maxima."""
    return (math.isnan(residual), residual)


def _block_records(pair, check, points, grids, momenta):
    """(residual, params) of one check other than drift at each row of a
    block of points.

    Row r keeps its own t grid: column c of ``cols`` holds every row's c-th
    t, a short grid padded with its last value.  One call evaluates every
    candidate, at columns (i, j), at every row, and each row takes the worst
    of the candidates on its own grid, in the order of that grid.
    """
    width = max(map(len, grids))
    cols = np.array([g + g[-1:] * (width - len(g)) for g in grids]).T
    if check in ("basic", "connection", "phi", "ricci-comm"):
        frame_check = {"basic": check_projective_equivalence,
                       "connection": check_connection_difference,
                       "phi": check_phi_identity,
                       "ricci-comm": check_ricci_commutation}[check]
        return [(r, ()) for r in frame_check(pair, points)]
    if check == "decompose":
        t, s = cols.min(axis=0), cols.max(axis=0)  # each row's extreme t
        dec = ops.commutator_decompose(
            ops.killing_operator(pair, t), ops.killing_operator(pair, s), points
        )
        return [(max(q, v), (("cubic_residual", float(c)), ("q_norm", float(q)),
                             ("s", float(b)), ("t", float(a)), ("v_norm", float(v))))
                for q, v, c, a, b in zip(dec.q_norm, dec.v_norm,
                                         dec.cubic_residual, t, s)]
    # residuals [candidate, row] of the candidates at columns (i[k], j[k])
    i, j = np.array(list(combinations_with_replacement(range(width), 2))).T
    if check in ("killing", "carter"):
        i = j = np.arange(width)
        family_check = (check_killing_tensor if check == "killing"
                        else check_carter_condition)
        residuals = family_check(pair, cols, points)
    elif check == "poisson":
        residuals = ops.poisson_residual(pair, cols[i], cols[j], (points, momenta))
    else:  # commutator, each function's candidates after the last one's
        suite = function_suite(pair.coordinates)
        B = ops.killing_commutator_grid(pair, suite, points)  # [f, row, l, k]
        value, scale = ops.commutator_from_grid(B[:, None], cols[i], cols[j])
        residuals = (np.abs(value) / scale).reshape(-1, len(grids))
        scale = scale.reshape(residuals.shape)
        i, j = np.tile(i, len(suite)), np.tile(j, len(suite))
    # each row's worst candidate by the rule of _rank: argmax takes the first of
    # equal maxima (never a padded copy of an earlier one) and the first NaN
    best = residuals.argmax(axis=0)
    out = []
    for r, k in enumerate(best.tolist()):
        t, s = float(cols[i[k], r]), float(cols[j[k], r])
        if check == "poisson":
            params = (("momentum", [float(c) for c in momenta[r]]), ("s", s), ("t", t))
        elif check == "commutator":
            params = (("function", suite[k // value.shape[1]]), ("s", s),
                      ("scale", float(scale[k, r])), ("t", t))
        else:
            params = (("t", t),)
        out.append((residuals[k, r], params))
    return out


def _drift_records(pair, points, grids, velocities, cfg: VerifyConfig):
    """(start point, residual, params) of each drift trajectory."""
    n = min(cfg.drift_trajectories, len(points))
    ts = [grid[0] for grid in grids[:n] or t_grid(pair, points[:n])]
    # one metric read for all starts; per-row gv @ v (a batched matmul may round differently)
    starts = [ops.PhaseSpacePoint(x0, tuple(gv @ v)) for x0, gv, v in
              zip(points[:n], pair.g.values(points[:n]), velocities[:n])]
    results = ops.geodesic_drifts(pair, ts, starts, cfg.drift_horizon,
                                  cfg.drift_tolerance(), velocities=velocities[:n])
    outcomes = []
    for t, phi0, v, result in zip(ts, starts, velocities, results):
        params = [
            ("exited", bool(result.exited)),
            ("max_error", float(result.max_error)),
            ("momentum", [float(c) for c in phi0.p]),
            ("steps", int(result.steps)),
            ("t", float(t)),
            ("velocity", [float(c) for c in v]),
        ]
        if result.exit_time is not None:
            params.insert(1, ("exit_time", float(result.exit_time)))
        outcomes.append((phi0.x, result.max_drift, tuple(params)))
    return outcomes


def verify_pair(
    pair: ProjectivePair,
    config: Optional[VerifyConfig] = None,
    *,
    source: str = "memory",
    expected_equivalent: Optional[bool] = None,
) -> VerificationReport:
    """Run the configured checks and return the structured report.

    Sampling is deterministic in the seed: points, momenta and drift
    velocities come from independent child streams so that restricting
    --checks never changes the data seen by the remaining checks.
    """
    cfg = config or VerifyConfig()
    started = time.perf_counter()

    ss = np.random.SeedSequence(cfg.seed)
    s_points, s_momenta, s_velocities = ss.spawn(3)
    points = _sample_points(pair, cfg, np.random.default_rng(s_points))
    momenta = np.random.default_rng(s_momenta).uniform(
        -2.0, 2.0, size=(cfg.points, pair.dim)
    )
    velocities = np.random.default_rng(s_velocities).uniform(
        -0.7, 0.7, size=(cfg.points, pair.dim)
    )

    # One frame per block of points, at the highest order the checks read
    # (lower orders are prefixes of its jets), gives the block's default t
    # grids and serves every check before the next block replaces it; the
    # records still come out check by check.  Drift alone grids its own starts.
    outcomes = {check: [] for check in cfg.checks}
    seconds = dict.fromkeys(cfg.checks, 0.0)
    frame_checks = [c for c in cfg.checks if _CHECKS[c][1] is not None]
    order = max((_CHECKS[c][1] for c in frame_checks), default=0)
    rows = block_points(pair.dim, order)
    grids = [] if cfg.t_grid is None else [tuple(cfg.t_grid)] * cfg.points
    for start in range(0, cfg.points if frame_checks else 0, rows):
        block = slice(start, start + rows)
        pair.frame(points[block], order)
        grids += t_grid(pair, points[block]) if cfg.t_grid is None else []
        for check in frame_checks:
            clock = time.perf_counter()
            found = _block_records(pair, check, points[block], grids[block],
                                   momenta[block])
            outcomes[check] += [(p, *rec) for p, rec in zip(points[block], found)]
            seconds[check] += time.perf_counter() - clock
    if "drift" in cfg.checks:
        clock = time.perf_counter()
        outcomes["drift"] = _drift_records(pair, points, grids, velocities, cfg)
        seconds["drift"] = time.perf_counter() - clock
    records = [
        CheckRecord(
            check=check,
            point=tuple(float(c) for c in point),
            residual=float(residual),
            threshold=cfg.threshold(check),
            params=params,
        )
        for check in cfg.checks
        for point, residual, params in outcomes[check]
    ]
    return VerificationReport(
        pair_name=pair.name or "unnamed",
        source=source,
        dimension=pair.dim,
        config=cfg,
        records=records,
        expected_equivalent=expected_equivalent,
        elapsed_seconds=time.perf_counter() - started,
        check_seconds=seconds,
    )


__all__ = [
    "CHECK_IDS",
    "DEFAULT_THRESHOLDS",
    "SCHEMA_VERSION",
    "CheckRecord",
    "VerificationReport",
    "VerifyConfig",
    "function_suite",
    "verify_pair",
]
