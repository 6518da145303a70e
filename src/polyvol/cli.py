"""Command-line interface.

Subcommands: classify, angles-check, volume, rectify, flow, selftest.
Exit codes: 0 success, 1 domain error (with a machine-readable
``ERR <code> <detail>`` line), 2 usage error.  A file that cannot be
opened is a domain error named after the OS error (``ERR FileNotFound
<path>``, ``ERR IsADirectory <path>``), and input that is not UTF-8 text
is ``BadFormat``.  Volumes are exact.
Numeric output uses 12 significant digits, except the plane normals of
``rectify``, which ``volume --rectified`` reads back as the same floats.
The environment variable ``POLYVOL_SEED`` overrides ``--seed``; a seed
that is not an integer >= 0 is a usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import BadFormat, PolyvolError
from .flow import FlowOptions, nudge_ideal_vertices, run_flow, trace_to_csv
from .graphs import check_hyperideal_angles, parse_graph
from .polyhedron import PointKind, classify_vertices, format_polyhedron, parse_polyhedron
from .rectify import rectification_and_volume
from .volume import polyhedron_volume


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise BadFormat(f"{path} is not UTF-8 text (byte {exc.start})") from None


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _numbers(text: str) -> list[float]:
    """``--angles``: numbers separated by commas or spaces."""
    try:
        return [float(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of numbers: {text!r}") from None


def _criteria(text: str) -> list[int]:
    """``selftest --criteria``: comma-separated numbers of criteria."""
    from .selftest import CRITERIA

    try:
        numbers = [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of integers: {text!r}") from None
    if not CRITERIA.keys() >= set(numbers):
        raise argparse.ArgumentTypeError(f"criteria are 1 to {len(CRITERIA)}, got {text!r}")
    return numbers


def _cmd_classify(args) -> int:
    P = parse_polyhedron(_read(args.input))
    report = classify_vertices(P, tol=args.tol_ideal)
    lines = []
    for kind, status in zip(report.kinds, report.statuses):
        lines.append(f"{kind} {status}")
    lines.append(f"OVERALL {report.overall}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_angles_check(args) -> int:
    g = parse_graph(_read(args.input))
    values = args.angles
    if len(values) != len(g.edges):
        print(f"ERR AngleOutOfRange expected {len(g.edges)} angles, got {len(values)}")
        return 1
    angles = {e: values[i] for i, e in enumerate(g.edges)}
    rep = check_hyperideal_angles(g, angles)
    out = str(rep.status)
    w = rep.witness
    if w is not None:
        edges = " ".join(f"{u}-{v}" for (u, v) in w.crossed_edges)
        out += f" edges {edges} sum {_fmt(w.angle_sum)} bound {_fmt(w.bound)}"
    _emit(out + "\n", args.out)
    return 0


def _cmd_volume(args) -> int:
    P = parse_polyhedron(_read(args.input), rectified=args.rectified)
    res = polyhedron_volume(P)
    _emit(f"VOL {_fmt(res.value)} {_fmt(res.error_estimate)}\n", args.out)
    return 0


def _cmd_rectify(args) -> int:
    P, res = rectification_and_volume(parse_graph(_read(args.input)))
    text = format_polyhedron(P) + f"VOL {_fmt(res.value)} {_fmt(res.error_estimate)}\n"
    _emit(text, args.out)
    return 0


def _cmd_flow(args) -> int:
    P = parse_polyhedron(_read(args.input))
    if any(k == PointKind.IDEAL for k in P.report.kinds):
        P = nudge_ideal_vertices(P)
    trace = run_flow(P, FlowOptions(seed=args.seed))
    _emit(trace_to_csv(trace), args.out)
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest

    results = selftest.run_all(seed=args.seed, criteria=args.criteria)
    lines = []
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        ok = ok and r.passed
        lines.append(f"{status} {r.name}: {r.detail} ({r.elapsed:.1f}s)")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="polyvol",
        description="Generalized hyperbolic polyhedra: classification, volumes, "
                    "rectifications, and volume-increasing angle flows.")
    p.add_argument("--seed", type=int, default=None,
                   help="random seed (env POLYVOL_SEED overrides)")
    p.add_argument("--tol-ideal", type=float, default=1e-9,
                   help="ideal-band tolerance on |p| - 1")
    p.add_argument("--out", default=None, help="write output to a file")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="per-vertex kind and properness status")
    c.add_argument("input", help="polyhedron text file")
    c.set_defaults(func=_cmd_classify)

    c = sub.add_parser("angles-check", help="hyperideal angle admissibility")
    c.add_argument("input", help="graph text file")
    c.add_argument("--angles", required=True, type=_numbers,
                   help="angles per edge, ordered by the sorted edge list")
    c.set_defaults(func=_cmd_angles_check)

    c = sub.add_parser("volume", help="hyperbolic volume of the truncation")
    c.add_argument("input", help="polyhedron text file")
    c.add_argument("--rectified", action="store_true",
                   help="input realizes a rectification (edges tangent)")
    c.set_defaults(func=_cmd_volume)

    c = sub.add_parser("rectify", help="edge-tangent realization of a graph")
    c.add_argument("input", help="graph text file")
    c.set_defaults(func=_cmd_rectify)

    c = sub.add_parser("flow", help="volume-increasing angle flow (CSV trace)")
    c.add_argument("input", help="polyhedron text file (the flow seed)")
    c.set_defaults(func=_cmd_flow)

    c = sub.add_parser("selftest", help="run the acceptance corpus")
    c.add_argument("--criteria", default=None, type=_criteria,
                   help="comma-separated criterion numbers (default: all)")
    c.set_defaults(func=_cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not (math.isfinite(args.tol_ideal) and args.tol_ideal >= 0):
        parser.error(f"--tol-ideal must be a finite number >= 0, got {args.tol_ideal!r}")
    env_seed = os.environ.get("POLYVOL_SEED")
    if env_seed is not None:
        try:
            args.seed = int(env_seed)
        except ValueError:
            parser.error(f"POLYVOL_SEED must be an integer, got {env_seed!r}")
    if args.seed is None:
        args.seed = 0
    if args.seed < 0:
        parser.error(f"the seed must be an integer >= 0, got {args.seed}")
    try:
        return args.func(args)
    except PolyvolError as exc:
        print(f"ERR {exc.code} {exc.detail}")
        return 1
    except OSError as exc:  # FileNotFoundError -> "FileNotFound", and so on
        print(f"ERR {type(exc).__name__.removesuffix('Error')} {exc.filename}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
