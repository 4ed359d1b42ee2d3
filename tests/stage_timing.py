"""Print the cost of one drift stage and of one drift batch per catalog pair,
or of whole verification passes of a benchmark workload.

    python tests/stage_timing.py [--rounds 400] [--seed 42] [--against ../parent]
    python tests/stage_timing.py --workload frames_nd [--rounds 60] [--against ../parent]
    python tests/stage_timing.py --dims 4,5,6 [--rounds 10] [--against ../parent]

For every catalog pair the script draws the 5 start points, velocities and
t values of a drift-only run (``bench/workloads.py``'s ``geodesic`` sizes:
5 trajectories, horizon 0.1) and times two calls:

- ``stage``: one ``geometry.christoffel_values`` call on the 5 points, the
  per-stage work of the drift integrator;
- ``batch``: one ``operators.geodesic_drifts`` call on the 5 trajectories.

Each round times every call of every pair once, so the pairs and the two
calls are interleaved and a slow spell of a shared host spreads over all of
them; a ``batch`` is timed every tenth round only.  The medians over the
rounds are printed in microseconds.

With ``--workload`` (``catalog``, ``frames_nd`` or ``geodesic``) a round is
instead one pass of ``bench/workloads.py``'s pairs of that workload at
``--seed``, as ``bench/run.py`` makes one: the pairs are parsed afresh, then
each is verified and its report rendered under the clock.  The script prints
the median pass in seconds, and with ``--against`` the other side's median,
the rounds in which this checkout's pass was the faster, and whether every
report of both sides reads the same once its ``timing`` block is cut off.
Between two copies of one commit the rounds won scatter around half, so the
count of rounds won says more than the ratio of the medians.

With ``--dims``, a round is one pass of the nine non-drift checks at 20
points on ``bench/workloads.py``'s ``levi_civita_text(n, seed)``, timed and
compared as a workload's pass, for each n of the list in turn.  Without
``--against``, ``--workload`` and ``--dims`` also print the process's peak
resident set size (``ru_maxrss``) after each workload: after an n, it is
the peak of that n when the list holds one n, or when the n grow along it.
Both also print ``src_lines``, the line count of ``src/benenti/*.py`` (as
``wc -l`` counts it), and with ``--against`` the other checkout's count.

The script imports benenti from the ``src/`` of the checkout it lives in.
``--against`` names a second checkout, whose ``src/benenti`` is loaded
beside it in the same process: every call is then timed on both sides in
turn, the side that goes first alternating by round, and the table gives
both medians.  Two processes run one after the other on a shared host can
differ by more than the change being measured.  pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

import benenti  # noqa: E402

ROWS = 5
HORIZON = 0.1
BATCH_EVERY = 10  # a batch costs about 100 stages
MODULES = ("catalog", "geometry", "operators", "pairfile", "projective", "verify")


def load_side(package_dir: Path, name: str) -> dict:
    """The benenti modules of one checkout, imported as package ``name``."""
    if name != "benenti":
        spec = importlib.util.spec_from_file_location(
            name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return {m: importlib.import_module(f"{name}.{m}") for m in MODULES}


def src_lines(package_dir: Path) -> int:
    """Lines of the package's modules, as ``wc -l src/benenti/*.py`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in package_dir.glob("*.py"))


def drift_inputs(side: dict, pair, seed: int):
    """The arguments of one ``geodesic_drifts`` call, drawn like a
    drift-only ``verify_pair`` run draws them."""
    verify, operators = side["verify"], side["operators"]
    cfg = verify.VerifyConfig(points=ROWS, seed=seed, checks=("drift",))
    s_points, _, s_velocities = np.random.SeedSequence(seed).spawn(3)
    points = pair.sample_point(np.random.default_rng(s_points), rows=ROWS)
    velocities = np.random.default_rng(s_velocities).uniform(-0.7, 0.7, (ROWS, pair.dim))
    ts = [grid[0] for grid in side["projective"].t_grid(pair, points)]
    starts = [operators.PhaseSpacePoint(x0, tuple(gv @ v))
              for x0, gv, v in zip(points, pair.g.values(points), velocities)]
    return points, (pair, ts, starts, HORIZON, cfg.drift_tolerance()), velocities


def elapsed_us(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return (time.perf_counter() - start) * 1e6


def timed_pass(side: dict, workload) -> tuple:
    """Seconds of one verify-and-render pass over the workload's pairs, and
    each report's text up to its timing block."""
    verify = side["verify"]
    pairs = [side["pairfile"].parse_pair(p.text, p.label) for p in workload.pairs]
    seconds, texts = 0.0, []
    for spec, pair in zip(workload.pairs, pairs):
        config = verify.VerifyConfig(**dataclasses.asdict(spec.config))
        start = time.perf_counter()
        text = verify.verify_pair(pair, config, source=spec.label,
                                  expected_equivalent=spec.expected_equivalent).render()
        seconds += time.perf_counter() - start
        texts.append(text.rpartition("\ntiming:\n")[0])
    return seconds, texts


def bench_workloads():
    """bench/workloads.py, on this side's benenti."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    return workloads


def generated(n: int, seed: int):
    """A workload of the nine non-drift checks at 20 points on the
    generated Levi-Civita pair in n dimensions."""
    workloads = bench_workloads()
    config = dataclasses.replace(workloads.FRAMES_ND_CONFIG, points=20, seed=seed)
    spec = workloads.PairInput(f"generated:lc{n}", workloads.levi_civita_text(n, seed),
                               True, config)
    return workloads.Workload(f"lc{n}", (spec,))


def time_passes(sides: dict, workload, seed: int, rounds: int) -> None:
    """Print the median pass of each side, and how the sides compare."""
    seconds = {side: [] for side in sides}
    texts = {side: set() for side in sides}
    for r in range(rounds):
        for side in list(sides)[::-1 if r % 2 else 1]:
            s, t = timed_pass(sides[side], workload)
            seconds[side].append(s)
            texts[side].add(tuple(t))
    print(f"workload {workload.name}, seed {seed}, {rounds} rounds")
    for side, values in seconds.items():
        print(f"{side + '_s':<12}{statistics.median(values):12.4f}")
    if "against" in sides:
        this, other = (statistics.median(seconds[s]) for s in ("this", "against"))
        won = sum(a < b for a, b in zip(seconds["this"], seconds["against"]))
        print(f"{'change':<12}{(this / other - 1) * 100:+11.1f}%")
        print(f"this side faster in {won} of {rounds} rounds")
    same = len(texts["this"]) == 1 and all(t == texts["this"] for t in texts.values())
    print(f"reports identical apart from timing: {'yes' if same else 'no'}")
    if "against" not in sides:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        print(f"{'peak_rss_mb':<12}{peak:12.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int,
                        help="default 400, 60 with --workload or 10 with --dims")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--against", type=Path, help="checkout to time beside this one")
    kind = parser.add_mutually_exclusive_group()
    kind.add_argument("--workload", choices=("catalog", "frames_nd", "geodesic"),
                      help="time whole passes of this benchmark workload")
    kind.add_argument("--dims", type=lambda text: [int(n) for n in text.split(",")],
                      help="time the non-drift checks on generated pairs of these n")
    args = parser.parse_args(argv)
    dirs = {"this": Path(benenti.__file__).parent}
    if args.against:
        dirs["against"] = args.against / "src" / "benenti"
    sides = {side: load_side(path, "benenti" if side == "this" else "benenti_against")
             for side, path in dirs.items()}
    if args.workload or args.dims:
        for side, path in dirs.items():
            label = "src_lines" if side == "this" else f"{side}_src_lines"
            print(f"{label:<20}{src_lines(path):8d}")
    if args.workload:
        workload = bench_workloads().build(args.workload, args.seed)
        time_passes(sides, workload, args.seed, args.rounds or 60)
        return 0
    if args.dims:
        for n in args.dims:
            time_passes(sides, generated(n, args.seed), args.seed, args.rounds or 10)
        return 0
    rounds = args.rounds or 400
    names = sides["this"]["catalog"].list_entries()

    def pair(mods, name):  # parsed by the side's own code from its own file
        text = (Path(mods["pairfile"].__file__).parent / "pairs" / f"{name}.yaml").read_text()
        return mods["pairfile"].parse_pair(text)

    inputs = {(side, name): drift_inputs(mods, pair(mods, name), args.seed)
              for side, mods in sides.items() for name in names}
    stage = {key: [] for key in inputs}
    batch = {key: [] for key in inputs}
    for r in range(rounds):
        order = list(sides)[::-1 if r % 2 else 1]
        for name in names:
            for side in order:
                points, drift_args, velocities = inputs[side, name]
                stage[side, name].append(elapsed_us(
                    sides[side]["geometry"].christoffel_values, drift_args[0].g, points))
                if r % BATCH_EVERY == 0:
                    batch[side, name].append(elapsed_us(
                        sides[side]["operators"].geodesic_drifts, *drift_args,
                        velocities=velocities))
    columns = [f"{kind}_us" if side == "this" else f"{side}_{kind}_us"
               for kind in ("stage", "batch") for side in sides]
    print(f"{'pair':<26}" + "".join(f"{c:>18}" for c in columns))
    for name in names:
        cells = [statistics.median(table[side, name])
                 for table in (stage, batch) for side in sides]
        print(f"{name:<26}" + "".join(f"{c:18.1f}" for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
