"""Command line interface: verify, list and describe metric pairs.

Exit codes for ``verify``: 0 when every check passes, 1 when any check
fails, 2 when the input cannot be loaded (unknown catalog name, or a
pair file rejected with a line/column diagnostic), the options are invalid
or the report cannot be written.  Any command exits 141 (128 + SIGPIPE),
printing nothing, when the reader of its output closes the pipe.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import catalog
from .errors import BenentiError, UnknownEntryError
from .pairfile import load_pair
from .verify import CHECK_IDS, VerifyConfig, verify_pair


def _resolve_pair(spec: str):
    """(pair, source, expected_equivalent) from a catalog name or a path."""
    if spec in catalog.list_entries():
        entry = catalog.get_entry(spec)
        return entry.pair, "catalog", entry.expected_equivalent
    if os.path.exists(spec) or os.sep in spec or spec.endswith(".yaml"):
        return load_pair(spec), spec, None
    raise UnknownEntryError(spec, list(catalog.list_entries()))


def _build_config(args) -> VerifyConfig:
    return VerifyConfig(
        points=args.points,
        seed=args.seed,
        tol=args.tol,
        t_grid=None if args.t_grid is None else tuple(args.t_grid),
        checks=tuple(args.checks) if args.checks else CHECK_IDS,
    )


def cmd_verify(args) -> int:
    specs = list(args.pairs)
    if args.all:
        specs = [n for n in catalog.list_entries() if n not in specs] + specs
        specs.sort()
    if not specs:
        print("error: no pairs given (name, file path, or --all)", file=sys.stderr)
        return 2

    try:
        config = _build_config(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    documents = []
    all_passed = True
    for spec in specs:
        pair, source, expected = _resolve_pair(spec)
        report = verify_pair(
            pair, config, source=source, expected_equivalent=expected
        )
        all_passed = all_passed and report.passed
        documents.append(report)

    text = "---\n".join(doc.render() for doc in documents)
    if args.report is not None:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            print(f"error: cannot write {args.report}: {err}", file=sys.stderr)
            return 2
        for doc in documents:
            verdict = "pass" if doc.passed else "fail"
            print(
                f"{doc.pair_name}: {verdict} "
                f"({len(doc.records)} records, {doc.failures} failures)"
            )
        print(f"report written to {args.report}")
    else:
        sys.stdout.write(text)
    return 0 if all_passed else 1


def cmd_list(_args) -> int:
    for name in catalog.list_entries():
        entry = catalog.get_entry(name)
        flag = "equivalent" if entry.expected_equivalent else "control"
        print(f"{name:24s} dim {entry.pair.dim}  {flag:10s} {entry.signature}")
    return 0


def _signature_text(values: np.ndarray) -> str:
    eigs = np.linalg.eigvalsh(values)
    pos = int(np.sum(eigs > 0))
    neg = int(np.sum(eigs < 0))
    kind = {0: "riemannian", 1: "lorentzian"}.get(neg if neg <= pos else pos)
    label = kind if kind else "indefinite"
    return f"({pos}+,{neg}-) {label}"


def _structure(L: np.ndarray) -> str:
    """How L reads at a point: diagonalizable over the reals, diagonalizable
    with complex-conjugate eigenvalues, or with a Jordan block."""
    w, V = np.linalg.eig(L)
    if np.linalg.cond(V) <= 1e8:
        recon = V @ np.diag(w) @ np.linalg.inv(V)
        if np.max(np.abs(recon - L)) / max(1.0, np.max(np.abs(L))) <= 1e-8:
            if np.any(np.abs(w.imag) >= 1e-12):
                return "diagonalizable, with complex-conjugate eigenvalues"
            return "diagonalizable"
    return "not diagonalizable within tolerance: it has a Jordan block"


def cmd_describe(args) -> int:
    pair, source, expected = _resolve_pair(args.pair)
    print(f"pair: {pair.name or args.pair}")
    print(f"source: {source}")
    print(f"dimension: {pair.dim}")
    print(f"coordinates: {', '.join(pair.coordinates)}")
    domain = ", ".join(
        f"{c} in [{lo}, {hi}]" for c, (lo, hi) in pair.domain.items()
    )
    print(f"domain: {domain}")
    if expected is not None:
        print(f"expected_equivalent: {expected}")
    if pair.notes:
        print(f"notes: {pair.notes}")

    print("sampled points:")
    points = pair.sample_point(np.random.default_rng(args.seed), rows=args.samples)
    frame = pair.frame(points, 0)
    rows = zip(points, np.sort_complex(frame.L_eigenvalues()), frame.L.value(),
               frame.g.value(), frame.gbar.value())
    for p, eigs, Lv, gv, gbarv in rows:
        eig_text = ", ".join(
            f"{e.real:.6g}" if abs(e.imag) < 1e-12 else f"{e:.6g}"
            for e in eigs
        )
        coords = ", ".join(f"{c:.4f}" for c in p)
        print(f"  point ({coords}):")
        print(f"    g signature: {_signature_text(gv)}")
        print(f"    gbar signature: {_signature_text(gbarv)}")
        print(f"    L eigenvalues: {eig_text}")
        print(f"    L is {_structure(Lv)}")
    return 0


def _float_list(text: str):
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _check_list(text: str):
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        # no check would run, and an empty report passes
        raise argparse.ArgumentTypeError(f"no check ids in {text!r}")
    return names  # VerifyConfig rejects an unknown id


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benenti",
        description="Verify projective equivalence and its conserved "
        "quantities for pairs of metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run the check suite on catalog entries or pair files"
    )
    p_verify.add_argument("pairs", nargs="*", help="catalog names or file paths")
    p_verify.add_argument("--all", action="store_true", help="verify the whole catalog")
    p_verify.add_argument("--points", type=int, default=VerifyConfig.points,
                          help="sample points per check")
    p_verify.add_argument(
        "--tol", type=float, default=None,
        help="override every per-check threshold with one value",
    )
    p_verify.add_argument(
        "--t-grid", type=_float_list, default=None, metavar="T1,T2,...",
        help="family parameters to test (default: eigenvalue-filtered grid)",
    )
    p_verify.add_argument("--seed", type=int, default=VerifyConfig.seed,
                          help="sampling seed")
    p_verify.add_argument(
        "--checks", type=_check_list, default=None, metavar="ID1,ID2,...",
        help=f"subset of checks to run (known: {', '.join(CHECK_IDS)})",
    )
    p_verify.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the YAML report here instead of stdout",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_list = sub.add_parser("list", help="list built-in catalog entries")
    p_list.set_defaults(func=cmd_list)

    p_desc = sub.add_parser(
        "describe", help="summarize a pair: signature, structure eigenvalues"
    )
    p_desc.add_argument("pair", help="catalog name or file path")
    p_desc.add_argument("--samples", type=_int_at_least(1), default=3,
                        help="points to inspect")
    p_desc.add_argument("--seed", type=_int_at_least(0), default=42,
                        help="sampling seed")
    p_desc.set_defaults(func=cmd_describe)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a value that is not finite fails its record or raises a typed error
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            code = args.func(args)
        sys.stdout.flush()
        return code
    except BenentiError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: send what is left, and the interpreter's
        # final flush, to devnull, and exit as if killed by SIGPIPE
        sys.stdout = open(os.devnull, "w")
        return 141


if __name__ == "__main__":
    sys.exit(main())
