"""Assembly partitioning by infinite translations: the motion-space /
nondirectional-blocking-graph pipeline.

For every ordered pair of parts, the directions along which the first
part would eventually hit the second are exactly the central projection
of the Minkowski sum of the second part with the reflected first part.
Overlaying all those projections decomposes the direction sphere into
cells of constant blocking graph; any cell whose graph is not strongly
connected yields a partitioning direction and a movable subassembly.
Lower-dimensional cells matter: with sliding contact allowed, the only
valid motions may sit on single arrangement vertices.

`partition` runs these stages:

1. the Gaussian map of every sub-part and of its reflection;
2. the pairwise sums, for part pairs i < j only;
3. one scan of each sum's facet planes, read from the map's own table
   (`GaussianMap.facet_planes`), which both rejects overlapping
   interiors (the origin strictly inside the sum) and picks the
   projection's case: the spherical hull of the sum's vertices when the
   origin is separated from it (a monotone chain on their primitive
   integer triples), the polar cone when the origin is a vertex, the
   open hemisphere when it is inside a facet, and the lune when it is
   inside an edge.  All but the lune are bounded by one simple cycle,
   assembled in cycle order; the lune's two great circles are split at
   their two crossings, and its face is picked by its sides of the two
   facet planes, with no point location;
4. the union of each pair's projections, a left fold of overlays that
   removes buried cells after every step;
5. the antipodal image of each union for the reversed pair;
6. the motion space, the overlay of all pairs' unions, each cell
   carrying its blocking graph;
7. the scan of its vertices, then edges, then faces.  In FIRST mode the
   answer is the first solution in the arrangement's cell order; which
   solution that is is not part of the contract, only that it is one of
   the solutions ALL mode returns.
"""

from __future__ import annotations

import functools
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .arrangement import OverlayCallbacks, SphereArrangement, _assemble, new_arrangement, overlay
from .gaussian import GaussianMap, Mesh, build
from .kernel import ZERO3, Vec3, cross, det3, dot
from .minkowski import minkowski
from .spherical import (
    BoundaryClass,
    DirPoint,
    classify,
    full_circle_arcs,
    is_mergeable,
    make_arc,
    split,
    strictly_inside_arc,
)


class Assembly:
    """Named parts, each an ordered list of convex sub-part meshes whose
    interiors are pairwise disjoint across different parts."""

    def __init__(self, names: List[str], parts: List[List[Mesh]]):
        if len(names) != len(parts):
            raise ValueError("names and parts differ in length")
        self.names = names
        self.parts = parts


# -- spherical regions with piercing flags -------------------------------------


class SphericalRegion(NamedTuple):
    """An arrangement whose every cell carries a boolean flag: True when
    every ray from the origin in a direction of the cell pierces the
    interior of the associated solid."""

    arrangement: SphereArrangement

    def pierces(self, d: Vec3) -> bool:
        cell = self.arrangement.locate(classify(d))
        return bool(cell.ref.payload)


def _whole_sphere_region(flag: bool) -> SphericalRegion:
    arr = new_arrangement()
    arr.initial_face().payload = flag
    return SphericalRegion(arr)


def _cycle_region(arcs, interior_dir: Vec3) -> SphericalRegion:
    """Region bounded by arcs that form one simple closed cycle, given in
    cycle order, whose inside holds interior_dir.

    Each arc is re-made as sweep_build re-makes it and the pieces are
    assembled in cycle order, so the arrangement equals sweep_build's
    without its pairwise intersection tests.  The inside is convex, so
    it lies on one side of the first piece's great circle, which one
    sign decides."""
    pieces = [piece for a in arcs for piece in make_arc(a.source, a.target)]
    arr, along = _assemble(pieces)
    _clear_flags(arr)
    first = along[0]
    inside = first if dot(first.arc.normal, interior_dir) > 0 else first.twin
    inside.face.payload = True
    return SphericalRegion(arr)


def _lune_region(n1: Vec3, n2: Vec3) -> SphericalRegion:
    """The open lune <n1, d> < 0, <n2, d> < 0, bounded by the great
    circles of n1 and n2 (not parallel), flagged True.

    The circles meet only at +-cross(n1, n2), so their quarter arcs,
    re-made as sweep_build re-makes them and split there, are already
    the pieces sweep_build assembles.  A piece on the n1 circle runs
    with n1 on its left, and its interior lies on one side of n2's
    plane; the lune is right of any piece on the negative side."""
    q = cross(n1, n2)

    def circle(n: Vec3) -> list:
        pieces = []
        for quarter in full_circle_arcs(n):
            for a in make_arc(quarter.source, quarter.target):
                cut = next((p for p in (q, -q) if strictly_inside_arc(p, a)), None)
                pieces.extend([a] if cut is None else split(a, classify(cut)))
        return pieces

    first = circle(n1)
    arr, along = _assemble(first + circle(n2))
    _clear_flags(arr)
    border = next(
        h for h in along[: len(first)]
        if dot(h.source.point.dir, n2) + dot(h.target.point.dir, n2) < 0
    )
    border.twin.face.payload = True
    return SphericalRegion(arr)


def _polygon_arcs(points: list) -> list:
    """The arcs of the closed polygon through the given points, in order."""
    return [piece for p, q in zip(points, points[1:] + points[:1]) for piece in make_arc(p, q)]


def _clear_flags(arr: SphereArrangement) -> None:
    for f in arr.faces:
        f.payload = False
    for v in arr.vertices:
        v.payload = False
    for h in arr.halfedges:
        h.payload = False


def project_polytope(g: GaussianMap) -> SphericalRegion:
    """Central projection of the primal polytope onto the direction
    sphere, with interior cells flagged True (grazing rays do not pierce
    the interior).  Four cases by the position of the origin, read from
    the offsets of g's facet planes."""
    planes = g.facet_planes.values()
    if any(b < 0 for _, b in planes):
        return _project_separated(g, planes)
    tight = [n for n, b in planes if b == 0]
    if not tight:
        return _whole_sphere_region(True)  # origin strictly inside
    if len(tight) == 1:
        # Origin interior to one facet: the open opposite hemisphere.
        n = tight[0]
        return _cycle_region(full_circle_arcs(n), -n)
    if len(tight) == 2:
        return _lune_region(*tight)
    # Origin at a vertex: the polar cone of the incident facet normals.
    return _project_vertex_cone(g)


def _project_vertex_cone(g: GaussianMap) -> SphericalRegion:
    """Directions entering the solid through a vertex at the origin: the
    spherical polygon cut out by the incident facet halfspaces."""
    # Order the normals by walking the dual face of the origin vertex.
    origin_face = next(f for f in g.arrangement.faces if f.payload.is_zero())
    ring = [
        h.source.point.dir
        for h in origin_face.ccbs[0].cycle()
        if h.source in g.facet_planes
    ]
    k = len(ring)
    corners: List[Vec3] = []
    for i in range(k):
        c = cross(ring[i], ring[(i + 1) % k])
        if dot(c, ring[(i + 2) % k]) > 0:
            c = -c
        corners.append(c)
    return _cycle_region(_polygon_arcs(corners), sum(corners, ZERO3))


def _project_separated(g: GaussianMap, planes) -> SphericalRegion:
    """Origin separated from the polytope: the projection is the
    spherical hull of the projected vertices, the cycle the silhouette
    edges trace out (redundant collinear projections drop out of the
    hull automatically)."""
    verts = g.primal_vertices()
    # A facet plane the origin strictly violates supplies an exact
    # separator: every vertex has positive inner product with w.
    w = next(-n for n, b in planes if b < 0)
    hull = _gnomonic_hull({classify(v) for v in verts}, w)
    return _cycle_region(_polygon_arcs(hull), sum(verts, ZERO3))


def _gnomonic_hull(points: Set[DirPoint], w: Vec3) -> List[DirPoint]:
    """Monotone-chain hull, counterclockwise with strict turns (collinear
    points dropped), of distinct directions p with <p, w> > 0, taken in
    the plane <x, w> = 1 with coordinates (<x, e1>, <x, e2>) for e1, e2
    orthogonal to w.

    No point is divided out: the coordinates of p there are
    <p, e_i> / <p, w>, so keys compare by cross-multiplying with the
    positive <p, w>, and since e1 x e2 is a positive multiple of w, a
    planar turn o, a, b has the sign of det3(o, a, b)."""
    e1 = cross(w, Vec3(1, 0, 0))
    if e1.is_zero():
        e1 = cross(w, Vec3(0, 1, 0))
    e2 = cross(w, e1)
    key = {}
    for p in points:
        t = dot(p.dir, w)
        assert t > 0, "separator failed"
        key[p] = (dot(p.dir, e1), dot(p.dir, e2), t)

    def cmp(p: DirPoint, q: DirPoint) -> int:
        px, py, pt = key[p]
        qx, qy, qt = key[q]
        c = px * qt - qx * pt or py * qt - qy * pt
        return (c > 0) - (c < 0)

    pts = sorted(points, key=functools.cmp_to_key(cmp))
    if len(pts) < 3:
        raise ValueError("degenerate planar projection")

    def chain(seq: List[DirPoint]) -> List[DirPoint]:
        out: List[DirPoint] = []
        for p in seq:
            while len(out) >= 2 and det3(out[-2].dir, out[-1].dir, p.dir) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(pts[::-1])


# -- union of regions -----------------------------------------------------------


def _or_callbacks() -> OverlayCallbacks:
    orf = lambda a, b: bool(a) or bool(b)
    return OverlayCallbacks(
        vertex_vertex=orf, vertex_edge=orf, edge_vertex=orf,
        vertex_face=orf, face_vertex=orf, edge_edge=orf,
        edge_overlap=orf, edge_face=orf, face_edge=orf, face_face=orf,
    )


def union_regions(regions: Sequence[SphericalRegion]) -> SphericalRegion:
    """Non-regularized union: flags are or-combined under overlay, then
    cells interior to the pierced set are removed while lower-dimensional
    holes in it survive."""
    if not regions:
        raise ValueError("need at least one region")
    out = regions[0]
    for r in regions[1:]:
        out = SphericalRegion(overlay(out.arrangement, r.arrangement, _or_callbacks()))
        # Cleaning at every step keeps the fold's accumulator down to the
        # current union's boundary, so no buried edge is split again.
        cleanup_region(out)
    if len(regions) == 1:
        cleanup_region(out)
    return out


def cleanup_region(region: SphericalRegion) -> None:
    """Remove True-flagged cells buried in the interior of the pierced
    set and fuse collinear degree-2 boundary vertices."""
    arr = region.arrangement
    for h in list(arr.edges()):
        if h.payload and h.face.payload and h.twin.face.payload:
            arr.remove_edge(h)
    for v in list(arr.vertices):
        if v.is_isolated and v.payload and v.isolated_face.payload:
            arr.remove_isolated_vertex(v)
    # One pass: a merge keeps the outgoing payloads of the merged vertex's
    # two neighbours and its arc's circle, and only lengthens the arc, so
    # a vertex that cannot merge now cannot merge after a later merge.
    for v in list(arr.vertices):
        if v.is_isolated or v.degree != 2:
            continue
        if v.point.boundary_class is not BoundaryClass.INTERIOR:
            continue  # keep parameter-space splits intact
        h1, h2 = v.out
        if bool(v.payload) != bool(h1.payload) or bool(h1.payload) != bool(h2.payload):
            continue
        if is_mergeable(h1.twin.arc, h2.arc):
            arr.merge_edges_at(v)


def reflect_region(region: SphericalRegion) -> SphericalRegion:
    """The antipodal image of a region; a direction pierces the original
    solid iff its negation pierces the reflected solid.

    The source arcs are interior-disjoint, so their negations are
    assembled as they are, and every cell takes the flag of its source
    cell.  The antipodal map reverses orientation: the face left of an
    image arc is the image of the face right of its source arc."""
    src = region.arrangement
    pieces, sources = [], []
    for h in src.edges():
        for k, piece in enumerate(make_arc(-h.arc.source.dir, -h.arc.target.dir)):
            pieces.append(piece)
            sources.append((h, k > 0))
    isolated = [classify(-v.point.dir) for v in src.vertices if v.is_isolated]
    out, along = _assemble(pieces, isolated)
    out.faces[0].payload = src.faces[0].payload  # the one face when there are no arcs
    for g, (h, split_inside) in zip(along, sources):
        out.set_edge_payload(g, h.payload)
        g.face.payload = h.twin.face.payload
        g.twin.face.payload = h.face.payload
        if split_inside:  # a new seam or pole split inside the source edge
            g.source.payload = h.payload
    for v in out.vertices:
        sv = src.find_vertex(-v.point.dir)
        if sv is not None:
            v.payload = sv.payload
    return SphericalRegion(out)


# -- blocking graphs and the motion space ----------------------------------------

BlockSet = frozenset  # of ordered part-index pairs (i, j): i hits j


def tarjan_scc(n: int, edges: BlockSet) -> List[List[int]]:
    """Strongly connected components of the blocking graph, iteratively."""
    adj: List[List[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    comps: List[List[int]] = []
    counter = [0]

    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(adj[v]):
                w = adj[v][pi]
                pi += 1
                if index[w] is None:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work[-1] = (v, pi)
            if pi >= len(adj[v]):
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def movable_subset(n: int, edges: BlockSet) -> Optional[Tuple[int, ...]]:
    """A proper nonempty subset with no blocking edge into its complement
    (None when the graph is strongly connected): the union of the
    condensation sinks, or the sink holding part 0 if everything is a
    sink."""
    comps = tarjan_scc(n, edges)
    if len(comps) <= 1:
        return None
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    out_deg = [0] * len(comps)
    for i, j in edges:
        if comp_of[i] != comp_of[j]:
            out_deg[comp_of[i]] += 1
    sinks = [ci for ci in range(len(comps)) if out_deg[ci] == 0]
    union: List[int] = []
    for ci in sinks:
        union.extend(comps[ci])
    if len(union) < n:
        return tuple(sorted(union))
    return tuple(sorted(comps[comp_of[0]]))


class MotionSpace(NamedTuple):
    arrangement: SphereArrangement
    n_parts: int


class PartitionSolution(NamedTuple):
    cell_kind: str  # vertex | edge | face
    direction: Vec3
    subset: Tuple[int, ...]


class PartitionResult(NamedTuple):
    interlocked: bool
    solutions: List[PartitionSolution]


FIRST = "first"
ALL = "all"


def pairwise_subpart_sums(
    assembly: Assembly,
    gmaps: Optional[List[List[GaussianMap]]] = None,
    reflected: Optional[List[List[GaussianMap]]] = None,
    ordered_pairs: Optional[List[Tuple[int, int]]] = None,
) -> Dict[Tuple[int, int, int, int], GaussianMap]:
    """All Minkowski sums of a sub-part of one part with a reflected
    sub-part of another: M[i,j,k,l] is the sum of part j's sub-part l
    with the reflection of part i's sub-part k."""
    n = len(assembly.parts)
    if gmaps is None:
        gmaps = [[build(m) for m in subs] for subs in assembly.parts]
    if reflected is None:
        reflected = [[build(m.negated()) for m in subs] for subs in assembly.parts]
    if ordered_pairs is None:
        ordered_pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    sums: Dict[Tuple[int, int, int, int], GaussianMap] = {}
    for i, j in ordered_pairs:
        for k, gk in enumerate(reflected[i]):
            for l, gl in enumerate(gmaps[j]):
                sums[(i, j, k, l)] = minkowski(gl, gk)
    return sums


def build_motion_space(
    n_parts: int, q_regions: Dict[Tuple[int, int], SphericalRegion]
) -> MotionSpace:
    """Overlay all pairwise piercing regions into one arrangement whose
    cells carry the directional blocking graph."""

    def merge_cb(pair) -> OverlayCallbacks:
        edge = frozenset((pair,))
        empty = frozenset()

        def f(a, b):
            return (a or empty) | (edge if b else empty)

        return OverlayCallbacks(
            vertex_vertex=f, vertex_edge=f, edge_vertex=f, vertex_face=f,
            face_vertex=f, edge_edge=f, edge_overlap=f, edge_face=f,
            face_edge=f, face_face=f,
        )

    acc = new_arrangement()
    acc.initial_face().payload = frozenset()
    for pair in sorted(q_regions):
        acc = overlay(acc, q_regions[pair].arrangement, merge_cb(pair))
    return MotionSpace(acc, n_parts)


def find_partitions(ms: MotionSpace, mode: str = FIRST) -> PartitionResult:
    """Scan vertices, then edges, then faces of the motion space for
    cells whose blocking graph is not strongly connected.  A blocking
    graph gets sparser on lower-dimensional cells, so if every vertex
    graph is strongly connected the assembly is interlocked."""
    arr = ms.arrangement
    n = ms.n_parts
    solutions: List[PartitionSolution] = []

    def consider(kind, payload, direction) -> bool:
        subset = movable_subset(n, payload or frozenset())
        if subset is None:
            return False
        solutions.append(PartitionSolution(kind, direction, subset))
        return True

    for v in arr.vertices:
        if consider("vertex", v.payload, v.point.dir) and mode == FIRST:
            return PartitionResult(False, solutions)
    every_face_bounded = all(f.ccbs for f in arr.faces)
    if not solutions and arr.vertices and every_face_bounded and mode == FIRST:
        # each edge/face graph contains an incident vertex graph,
        # so all of them are strongly connected as well
        return PartitionResult(True, solutions)
    edge_solution = False
    for h in arr.edges():
        d = h.arc.interior_point().dir
        if consider("edge", h.payload, d):
            edge_solution = True
            if mode == FIRST:
                return PartitionResult(False, solutions)
    # A face graph contains any incident edge graph, so with every face
    # bounded and no edge solutions the face scan cannot add solutions.
    skip_faces = bool(arr.halfedges) and every_face_bounded and not edge_solution
    if not skip_faces:
        for f in arr.faces:
            d = arr.interior_point(f).dir
            if consider("face", f.payload, d) and mode == FIRST:
                return PartitionResult(False, solutions)
    return PartitionResult(not solutions, solutions)


def partition(assembly: Assembly, mode: str = FIRST) -> PartitionResult:
    """The full pipeline: sub-part Gaussian maps, reflections, pairwise
    sums, central projections, per-pair unions, motion space, and the
    strong-connectivity scan.  Only the sums for pairs i < j are built:
    q[j, i] is the antipodal image of q[i, j]."""
    n = len(assembly.parts)
    if n < 2:
        raise ValueError("an assembly needs at least two parts")
    gmaps = [[build(m) for m in subs] for subs in assembly.parts]
    reflected = [[build(m.negated()) for m in subs] for subs in assembly.parts]
    ordered = [(i, j) for i in range(n) for j in range(i + 1, n)]
    sums = pairwise_subpart_sums(assembly, gmaps, reflected, ordered)

    q: Dict[Tuple[int, int], SphericalRegion] = {}
    for i, j in ordered:
        regions = []
        for k in range(len(assembly.parts[i])):
            for l in range(len(assembly.parts[j])):
                m = sums[(i, j, k, l)]
                if all(b > 0 for _, b in m.facet_planes.values()):  # the origin is inside
                    raise ValueError(
                        f"sub-parts {i}.{k} and {j}.{l} have overlapping interiors"
                    )
                regions.append(project_polytope(m))
        q[(i, j)] = union_regions(regions)
        q[(j, i)] = reflect_region(q[(i, j)])

    ms = build_motion_space(n, q)
    return find_partitions(ms, mode)
