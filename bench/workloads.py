"""Benchmark inputs, made from the workload seed.

A workload is a list of metric pairs, each given as pair-file text, plus the
``VerifyConfig`` every pair is verified with.  Nothing here times anything;
``run.py`` parses the texts afresh for each timed pass so that no pass reads
frames an earlier pass built.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from benenti import catalog
from benenti.verify import CHECK_IDS, VerifyConfig

NON_DRIFT_CHECKS = tuple(c for c in CHECK_IDS if c != "drift")

# Sizes of one pass.  The default VerifyConfig (20 points, 3 trajectories of
# 1,000 RK4 steps) takes 10-20 s per catalog pass, and on a shared 2-core host
# identical passes measured 12.4 s and 18.5 s, so a run of a few tens of
# seconds cannot take a median over one.  Passes are therefore cut to a few
# seconds: fewer points, and drift spread over every sampled point with a
# short horizon.  Per-point work is unchanged, drift keeps about the share of
# a catalog pass it has at the defaults, and short trajectories rarely leave
# the domain, so the work of a pass hardly depends on the seed.
CATALOG_CONFIG = VerifyConfig(points=4, drift_trajectories=4, drift_horizon=0.12)
FRAMES_ND_CONFIG = VerifyConfig(points=4, checks=NON_DRIFT_CHECKS)
GEODESIC_CONFIG = VerifyConfig(
    points=5, drift_trajectories=5, drift_horizon=0.1, checks=("drift",)
)


@dataclass(frozen=True)
class PairInput:
    """One pair of a workload: its file text and the verdict it must get."""

    label: str
    text: str
    expected_equivalent: bool
    config: VerifyConfig


@dataclass(frozen=True)
class Workload:
    name: str
    pairs: tuple

    @property
    def catalog_names(self) -> tuple:
        return tuple(
            p.label.split(":", 1)[1] for p in self.pairs
            if p.label.startswith("catalog:")
        )

    @property
    def generated(self) -> tuple:
        return tuple(p for p in self.pairs if not p.label.startswith("catalog:"))


def pair_seed(seed: int, index: int) -> int:
    """VerifyConfig seed of the index-th pair of a workload.

    Each pair draws its own points, so that whether a drift trajectory leaves
    the domain early is not decided by one draw shared by every pair.
    """
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def catalog_text(name: str) -> str:
    """The catalog's own pair file, the text ``catalog.get_entry`` parses."""
    return resources.files("benenti").joinpath(f"pairs/{name}.yaml").read_text()


def levi_civita_text(n: int, seed: int) -> str:
    """Levi-Civita normal form with X_i = x_i, as pair-file text.

    g_ii = prod_{j != i} |x_i - x_j| and gbar_ii = g_ii / (x_i prod_j x_j),
    on boxes x_1 > x_2 > ... > x_n > 0 that are disjoint, so every factor
    keeps its sign and both metrics are Riemannian.  For n = 2 this is the
    catalog's ``dini``.  The seed draws the boxes.
    """
    rng = np.random.default_rng([seed, n])
    names = [f"x{i + 1}" for i in range(n)]
    boxes = [None] * n
    lo = rng.uniform(0.3, 0.6)
    for i in reversed(range(n)):
        hi = lo + rng.uniform(0.6, 1.0)
        boxes[i] = (round(lo, 3), round(hi, 3))
        lo = hi + rng.uniform(0.4, 0.8)
    everything = " * ".join(names)
    g_rows, gbar_rows = [], []
    for i in range(n):
        factors = " * ".join(
            f"({names[min(i, j)]} - {names[max(i, j)]})"
            for j in range(n) if j != i
        )
        zeros = ["0"] * i
        g_rows.append(zeros + [factors])
        gbar_rows.append(zeros + [f"{factors} / ({names[i]} * {everything})"])

    def matrix(rows):
        return "\n".join(
            "  - [" + ", ".join(f'"{e}"' for e in row) + "]" for row in rows
        )

    domain = "\n".join(f"  {c}: [{lo}, {hi}]" for c, (lo, hi) in zip(names, boxes))
    return (
        f"name: lc{n}\n"
        f"dim: {n}\n"
        f"coords: [{', '.join(names)}]\n"
        f"g:\n{matrix(g_rows)}\n"
        f"gbar:\n{matrix(gbar_rows)}\n"
        f"domain:\n{domain}\n"
    )


def _catalog_input(name: str, config: VerifyConfig) -> PairInput:
    return PairInput(
        label=f"catalog:{name}",
        text=catalog_text(name),
        expected_equivalent=name not in catalog.control_entries(),
        config=config,
    )


def _seeded(pairs, seed: int) -> tuple:
    return tuple(
        replace(p, config=replace(p.config, seed=pair_seed(seed, k)))
        for k, p in enumerate(pairs)
    )


def build(name: str, seed: int) -> Workload:
    """The workload's pairs, each with its seeded VerifyConfig."""
    if name == "catalog":
        pairs = [_catalog_input(n, CATALOG_CONFIG) for n in catalog.list_entries()]
    elif name == "geodesic":
        pairs = [_catalog_input(n, GEODESIC_CONFIG) for n in catalog.list_entries()]
    elif name == "frames_nd":
        pairs = [
            PairInput(f"generated:lc{n}", levi_civita_text(n, seed), True,
                      FRAMES_ND_CONFIG)
            for n in (3, 4)
        ]
        pairs.append(_catalog_input("control_nonequiv_curved", FRAMES_ND_CONFIG))
    else:
        raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")
    return Workload(name, _seeded(pairs, seed))


WORKLOADS = ("catalog", "frames_nd", "geodesic")
