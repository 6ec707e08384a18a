"""Hypothesis profiles: `ci` derandomizes every property test, so a
failure seen in CI reproduces locally with HYPOTHESIS_PROFILE=ci.

Also the brute-force references that tests import from here."""

import os
from typing import List

from hypothesis import settings

from geomink.arrangement import Face, Halfedge, Vertex, overlay
from geomink.assembly import FIRST, PartitionResult, PartitionSolution, movable_subset
from geomink.gaussian import Mesh, _edge_table, cycle_normal
from geomink.kernel import cross3, dot3, integer_coords
from geomink.spherical import classify

settings.register_profile("ci", derandomize=True)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


def reachability_components(n: int, edges: frozenset) -> List[List[int]]:
    """Brute-force strongly connected components via reachability closure."""
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i, j in edges:
        reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    comp_of = {}
    comps = []
    for i in range(n):
        if i in comp_of:
            continue
        comp = [j for j in range(n) if reach[i][j] and reach[j][i]]
        for j in comp:
            comp_of[j] = len(comps)
        comps.append(comp)
    return comps


def movable_by_reachability(n: int, edges: frozenset):
    """movable_subset's answer from the brute-force components: None for
    one component, else the union of the sinks, or part 0's component
    when every component is a sink."""
    comps = reachability_components(n, edges)
    if len(comps) == 1:
        return None
    comp_of = {v: c for c, comp in enumerate(comps) for v in comp}
    leaving = {comp_of[i] for i, j in edges if comp_of[i] != comp_of[j]}
    sinks = [v for v in range(n) if comp_of[v] not in leaving]
    return tuple(sinks) if len(sinks) < n else tuple(comps[comp_of[0]])


def scan_motion_space(ms, mode: str = FIRST) -> PartitionResult:
    """The reference scan of a motion space built as an arrangement
    (build_motion_space), each cell read from its payload.

    The vertices come first; FIRST mode returns at the first solution.
    With no edge, the sphere is one face, which is scanned last.  Else a
    blocking graph gets sparser on lower-dimensional cells: each edge
    graph contains the graph of an incident vertex, and each face graph
    that of an incident edge.  So with no vertex solution the assembly
    is interlocked, and ALL mode scans the faces only when an edge was
    a solution."""
    arr = ms.arrangement
    n = ms.n_parts
    solutions = []

    def consider(kind, payload, direction) -> bool:
        subset = movable_subset(n, payload or frozenset())
        if subset is None:
            return False
        solutions.append(PartitionSolution(kind, direction, subset))
        return True

    for v in arr.vertices:
        if consider("vertex", v.payload, v.point.dir) and mode == FIRST:
            return PartitionResult(False, solutions)
    if not arr.halfedges:
        sphere = arr.faces[0]
        consider("face", sphere.payload, arr.interior_point(sphere).dir)
        return PartitionResult(not solutions, solutions)
    if not solutions:
        return PartitionResult(True, solutions)
    found = len(solutions)
    for h in arr.edges():
        consider("edge", h.payload, h.arc.interior_point().dir)
    if len(solutions) > found:
        for f in arr.faces:
            consider("face", f.payload, arr.interior_point(f).dir)
    return PartitionResult(False, solutions)


def pierces(region, d) -> bool:
    """Does every ray along d pierce the solid of the flagged region?
    The flag of the cell that holds d."""
    return bool(region.locate(classify(d)).payload)


def convex_by_scan(mesh: Mesh) -> bool:
    """Brute-force O(V F) convexity of a mesh whose topology and facets
    pass Mesh.validate's checks: every vertex lies on or below every
    facet plane, a vertex on a plane is on that facet, and no two
    neighbouring facets are coplanar."""
    pts = integer_coords(mesh.vertices)
    normals = []
    for fi, cyc in enumerate(mesh.facets):
        n = cycle_normal(fi, [pts[vi] for vi in cyc])
        b = dot3(n, pts[cyc[0]])
        for vi, p in enumerate(pts):
            s = dot3(n, p) - b
            if s > 0 or (s == 0 and vi not in cyc):
                return False
        normals.append(n)
    edge_facet = _edge_table(mesh)
    for (a, b), fi in edge_facet.items():
        ni, nj = normals[fi], normals[edge_facet[(b, a)]]
        if cross3(ni, nj) == (0, 0, 0) and dot3(ni, nj) > 0:
            return False
    return True


def labelled(arr):
    """arr with each payload wrapped with its feature's kind and id, so
    that a payload names its cell."""
    for v in arr.vertices:
        v.payload = ("vertex", v.id, v.payload)
    for h in arr.edges():
        arr.set_edge_payload(h, ("edge", h.id, h.payload))
    for f in arr.faces:
        f.payload = ("face", f.id, f.payload)
    return arr


FEATURE_KIND = {Vertex: "vertex", Halfedge: "edge", Face: "face"}


def case_tag(kind, fa, fb):
    """Overlay merge that tags a cell with its provenance case, named from
    the kinds of its source features, and with their payloads."""
    case = f"{FEATURE_KIND[type(fa)]}_{FEATURE_KIND[type(fb)]}"
    if case == "edge_edge" and kind == "edge":
        case = "edge_overlap"
    return (case, fa.payload, fb.payload)


def check_pointwise(a, b, directions):
    """Every output cell's payload is case_tag of the cells that locate
    finds in a and in b, at each output vertex, inside each output edge
    and face, and at the given directions."""
    a, b = labelled(a), labelled(b)
    out = overlay(a, b, case_tag)
    assert out.validate() == []
    probes = [(v.point, v) for v in out.vertices]
    probes += [(h.arc.interior_point(), h) for h in out.edges()]
    probes += [(out.interior_point(f), f) for f in out.faces]
    probes += [(classify(d), None) for d in directions]
    for q, feature in probes:
        cell = out.locate(q)
        assert feature is None or cell.ref is feature
        la, lb = a.locate(q), b.locate(q)
        case = f"{la.kind}_{lb.kind}"
        if case == "edge_edge" and cell.kind == "edge":
            case = "edge_overlap"
        assert cell.payload == (case, la.payload, lb.payload), (q, cell.kind)
