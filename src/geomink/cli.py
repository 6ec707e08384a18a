"""Command-line surface: Gaussian maps, Minkowski sums, collision
queries, convex hulls, worst-case generators, and assembly partitioning.

Exit codes: 0 success, 2 validation failure, 1 internal error."""

from __future__ import annotations

import argparse
import sys

from . import fileio
from .arrangement import dumps as dump_arrangement
from .assembly import ALL, FIRST, Assembly, partition
from .gaussian import InvalidMesh, build, primal_mesh
from .hull import DegenerateInput, convex_hull_3
from .kernel import Vec3, rat
from .minkowski import DegenerateCoincidence, minkowski, stats
from .proximity import collide
from .extremal import (
    NonTermination,
    ParamsRejected,
    multi_witness_sum,
    tune_params,
    verify_bound,
    witness_polytope,
)


def _parse_vec(text: str) -> Vec3:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected x,y,z with rational components")
    try:
        return Vec3(*(rat(p) for p in parts))
    except ZeroDivisionError as e:
        # argparse turns only ValueError and TypeError into a usage error
        raise argparse.ArgumentTypeError(f"bad rational in {text!r}: {e}") from None


def cmd_gmap(args) -> int:
    mesh = fileio.read_mesh(args.mesh)
    g = build(mesh)
    V, HE, F = g.counts()
    if args.counts or not args.dump:
        print(f"V={V} HE={HE} F={F}")
    if args.dump:
        sys.stdout.write(dump_arrangement(g.arrangement))
    return 0


def cmd_minkowski(args) -> int:
    g1 = build(fileio.read_mesh(args.a))
    g2 = build(fileio.read_mesh(args.b))
    s = minkowski(g1, g2)
    out_mesh = primal_mesh(s)
    if args.output:
        fileio.write_mesh(out_mesh, args.output)
    if args.stats:
        payload = {
            "facets": len(out_mesh.facets),
            "edges": out_mesh.edge_count(),
            "vertices": len(out_mesh.vertices),
        }
        try:
            st = stats(s, [g1, g2])
            payload["crossings"] = st.crossings
        except DegenerateCoincidence as e:
            payload["degenerate"] = str(e)
        sys.stdout.write(fileio.report(payload))
    else:
        print(f"facets={len(out_mesh.facets)} edges={out_mesh.edge_count()} "
              f"vertices={len(out_mesh.vertices)}")
    return 0


def cmd_collide(args) -> int:
    P = build(fileio.read_mesh(args.a))
    Q = build(fileio.read_mesh(args.b))
    hit, wit, _M = collide(P, Q, args.u, args.w)
    print(f"collision={'yes' if hit else 'no'} classification={wit.classification}")
    return 0


def cmd_hull(args) -> int:
    pts = fileio.read_points(args.points)
    try:
        mesh = convex_hull_3(pts)
    except DegenerateInput as e:
        raise DegenerateInput(f"{args.points}: {e}") from None
    if args.output:
        fileio.write_mesh(mesh, args.output)
    print(f"vertices={len(mesh.vertices)} facets={len(mesh.facets)}")
    return 0


def cmd_maxgen(args) -> int:
    ms = args.facets
    if len(ms) == 1:
        mesh = witness_polytope(tune_params(ms[0], ms[0])[0])
        if args.output:
            fileio.write_mesh(mesh, args.output)
        print(f"facets={len(mesh.facets)} edges={mesh.edge_count()} "
              f"vertices={len(mesh.vertices)}")
        return 0
    if len(ms) == 2 and args.verify:
        r = verify_bound(ms[0], ms[1])
        sys.stdout.write(
            fileio.report(
                {
                    "summands": ms,
                    "facetCount": r.facets,
                    "bound": r.bound,
                    "verdict": "PASS" if r.tight else "FAIL",
                }
            )
        )
        return 0 if r.tight else 2
    got, bound, _g = multi_witness_sum(ms)
    payload = {"summands": ms, "facetCount": got, "bound": bound}
    if args.verify:
        payload["verdict"] = "PASS" if got == bound else "NEAR-MISS"
    sys.stdout.write(fileio.report(payload))
    return 0


def cmd_partition(args) -> int:
    names, parts = fileio.read_scene(args.scene)
    assembly = Assembly(names, parts)
    res = partition(assembly, FIRST if args.mode == "first" else ALL)
    payload = {
        "parts": names,
        "interlocked": res.interlocked,
        "solutions": [
            {
                "cell": s.cell_kind,
                "direction": fileio.rational_triple(s.direction),
                "directionApprox": fileio.approx_triple(s.direction),
                "subset": [names[i] for i in s.subset],
            }
            for s in res.solutions
        ],
    }
    text = fileio.report(payload)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="geomink",
        description="exact spherical-arrangement toolkit for convex polytopes",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gmap", help="Gaussian map of a mesh")
    p.add_argument("mesh")
    p.add_argument("--counts", action="store_true")
    p.add_argument("--dump", action="store_true")
    p.set_defaults(func=cmd_gmap)

    p = sub.add_parser("minkowski", help="Minkowski sum of two meshes")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("-o", "--output")
    p.add_argument("--stats", action="store_true")
    p.set_defaults(func=cmd_minkowski)

    p = sub.add_parser("collide", help="collision query for two translated meshes")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--u", type=_parse_vec, required=True)
    p.add_argument("--w", type=_parse_vec, required=True)
    p.set_defaults(func=cmd_collide)

    p = sub.add_parser("hull", help="convex hull of an exact point file")
    p.add_argument("points")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("maxgen", help="worst-case Minkowski-sum witnesses")
    p.add_argument("--facets", type=int, action="append", required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_maxgen)

    p = sub.add_parser("partition", help="assembly partitioning by translation")
    p.add_argument("scene")
    p.add_argument("--mode", choices=["first", "all"], default="first")
    p.add_argument("--report")
    p.set_defaults(func=cmd_partition)
    return ap


VALIDATION_ERRORS = (
    InvalidMesh,
    fileio.ParseError,
    DegenerateInput,
    ParamsRejected,
    ValueError,
    OSError,  # an input or output path that cannot be used
)


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except VALIDATION_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NonTermination as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
