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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .arrangement import OverlayCallbacks, SphereArrangement, new_arrangement, overlay, sweep_build
from .gaussian import GaussianMap, Mesh, build
from .kernel import Vec3, cross, dot
from .minkowski import minkowski, primal_facets
from .proximity import INSIDE, classify_point
from .spherical import BoundaryClass, classify, full_circle_arcs, is_mergeable, make_arc


@dataclass
class Assembly:
    """Named parts, each an ordered list of convex sub-part meshes whose
    interiors are pairwise disjoint across different parts."""

    names: List[str]
    parts: List[List[Mesh]]

    def __post_init__(self):
        if len(self.names) != len(self.parts):
            raise ValueError("names and parts differ in length")

    def validate_meshes(self) -> None:
        for subs in self.parts:
            for m in subs:
                m.validate()


# -- spherical regions with piercing flags -------------------------------------


@dataclass
class SphericalRegion:
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


def _flag_boundary_region(arcs, interior_dir: Vec3) -> SphericalRegion:
    """Region bounded by the given arcs: the face containing interior_dir
    is flagged True, every other cell False."""
    arr = sweep_build(arcs)
    for f in arr.faces:
        f.payload = False
    for v in arr.vertices:
        v.payload = False
    for h in arr.halfedges:
        h.payload = False
    cell = arr.locate(classify(interior_dir))
    assert cell.kind == "face"
    cell.ref.payload = True
    return SphericalRegion(arr)


def project_polytope(g: GaussianMap) -> SphericalRegion:
    """Central projection of the primal polytope onto the direction
    sphere, with interior cells flagged True (grazing rays do not pierce
    the interior).  Four cases by the position of the origin."""
    facets = primal_facets(g)
    planes = []
    for w in facets:
        n = w.point.dir
        planes.append((w, n, dot(n, w.out[0].face.payload)))
    if any(b < 0 for _, _, b in planes):
        return _project_separated(g, planes)
    tight = [(w, n) for w, n, b in planes if b == 0]
    if not tight:
        return _whole_sphere_region(True)  # origin strictly inside
    if len(tight) == 1:
        # Origin interior to one facet: the open opposite hemisphere.
        n = tight[0][1]
        return _flag_boundary_region(full_circle_arcs(n), -n)
    if len(tight) == 2:
        n1, n2 = tight[0][1], tight[1][1]
        return _flag_boundary_region(
            full_circle_arcs(n1) + full_circle_arcs(n2),
            _lune_interior_direction(n1, n2),
        )
    # Origin at a vertex: the polar cone of the incident facet normals.
    return _project_vertex_cone(g, [n for _, n in tight])


def _lune_interior_direction(n1: Vec3, n2: Vec3) -> Vec3:
    """An exact direction with <n1,d> < 0 and <n2,d> < 0."""
    ip = dot(n1, n2)
    if ip >= 0:
        return -(n1 + n2)
    # -(q1*n1 + q2*n2) works iff q2/q1 lies strictly between
    # (-ip)/|n2|^2 and |n1|^2/(-ip); take the midpoint of that interval.
    lo = Fraction(-ip, n2.norm_sq())
    hi = Fraction(n1.norm_sq(), -ip)
    t = (lo + hi) / 2
    return -(n1 + n2.scale(t))


def _project_vertex_cone(g: GaussianMap, normals: List[Vec3]) -> SphericalRegion:
    """Directions entering the solid through a vertex at the origin: the
    spherical polygon cut out by the incident facet halfspaces."""
    corners: List[Vec3] = []
    k = len(normals)
    # Order the normals by walking the dual face of the origin vertex.
    arr = g.arrangement
    origin_face = None
    for f in arr.faces:
        if f.payload is not None and f.payload.is_zero():
            origin_face = f
            break
    assert origin_face is not None, "origin vertex has no dual face"
    ring: List[Vec3] = []
    rep = origin_face.ccbs[0]
    for h in rep.cycle():
        w = h.source
        from .gaussian import _is_split_artifact

        if not _is_split_artifact(arr, w):
            ring.append(w.point.dir)
    k = len(ring)
    for i in range(k):
        c = cross(ring[i], ring[(i + 1) % k])
        other = ring[(i + 2) % k]
        if dot(c, other) > 0:
            c = -c
        corners.append(c)
    arcs = []
    interior = Vec3(0, 0, 0)
    for c in corners:
        interior = interior + c
    for i in range(k):
        arcs.extend(make_arc(corners[i], corners[(i + 1) % k]))
    return _flag_boundary_region(arcs, interior)


def _project_separated(g: GaussianMap, planes) -> SphericalRegion:
    """Origin separated from the polytope: the projection is the
    spherical hull of the projected vertices, the cycle the silhouette
    edges trace out (redundant collinear projections drop out of the
    hull automatically)."""
    verts: List[Vec3] = []
    seen: Set[tuple] = set()
    for f in g.arrangement.faces:
        v = f.payload
        if v.as_tuple() not in seen:
            seen.add(v.as_tuple())
            verts.append(v)
    # A facet plane the origin strictly violates supplies an exact
    # separator: every vertex has positive inner product with w.
    w = next(-n for _f, n, b in planes if b < 0)
    e1 = cross(w, Vec3(1, 0, 0))
    if e1.is_zero():
        e1 = cross(w, Vec3(0, 1, 0))
    e2 = cross(w, e1)
    pts2d: Dict[Tuple[Fraction, Fraction], Vec3] = {}
    for v in verts:
        t = dot(v, w)
        assert t > 0, "separator failed"
        key = (Fraction(dot(v, e1), t), Fraction(dot(v, e2), t))
        pts2d.setdefault(key, v)
    hull2d = _convex_hull_2d(list(pts2d))
    cyc = [pts2d[key] for key in hull2d]
    centroid = Vec3(0, 0, 0)
    for v in verts:
        centroid = centroid + v
    arcs = []
    for i in range(len(cyc)):
        arcs.extend(make_arc(cyc[i], cyc[(i + 1) % len(cyc)]))
    return _flag_boundary_region(arcs, centroid)


def _convex_hull_2d(pts: List[Tuple[Fraction, Fraction]]):
    """Monotone-chain hull with strict turns (collinear points dropped),
    counterclockwise order."""
    pts = sorted(set(pts))
    if len(pts) < 3:
        raise ValueError("degenerate planar projection")

    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: List = []
    for p in pts:
        while len(lower) >= 2 and turn(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List = []
    for p in reversed(pts):
        while len(upper) >= 2 and turn(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


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
    acc = regions[0].arrangement
    for r in regions[1:]:
        acc = overlay(acc, r.arrangement, _or_callbacks())
    out = SphericalRegion(acc)
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
    changed = True
    while changed:
        changed = False
        for v in list(arr.vertices):
            if v.is_isolated or v.degree != 2:
                continue
            if v.point.boundary_class is not BoundaryClass.INTERIOR:
                continue  # keep parameter-space splits intact
            h1, h2 = v.out
            if bool(v.payload) != bool(h1.payload) or bool(h1.payload) != bool(
                h2.payload
            ):
                continue
            if is_mergeable(h1.twin.arc, h2.arc):
                arr.merge_edges_at(v)
                changed = True
                break


def reflect_region(region: SphericalRegion) -> SphericalRegion:
    """The antipodal image of a region; a direction pierces the original
    solid iff its negation pierces the reflected solid.

    The source arcs are interior-disjoint, so their negations go straight
    into a new arrangement, and every cell takes the flag of its source
    cell.  The antipodal map reverses orientation: the face left of an
    image arc is the image of the face right of its source arc."""
    src = region.arrangement
    out = new_arrangement()
    image = {}  # source face -> output halfedge with the face's image on its left

    def image_face(f):
        # Until all arcs are in, source faces merge across the edges not
        # inserted yet; any face of the merged region that borders an
        # inserted edge names the output face holding the region's image.
        seen, todo = {f}, [f]
        while todo:
            f = todo.pop()
            if f in image:
                return image[f].face
            for rep in f.ccbs:
                for e in rep.cycle():
                    if e.twin.face not in seen:
                        seen.add(e.twin.face)
                        todo.append(e.twin.face)
        return out.initial_face()

    for h in src.edges():
        pieces = make_arc(-h.arc.source.dir, -h.arc.target.dir)
        for piece in pieces:
            g = out.insert_disjoint_arc(piece, face=image_face(h.face))
            out.set_edge_payload(g, h.payload)
            image[h.twin.face], image[h.face] = g, g.twin
        for piece in pieces[1:]:
            # a new seam or pole split inside the source edge
            out.find_vertex(piece.source).payload = h.payload
    for f in src.faces:
        image_face(f).payload = f.payload
    for v in src.vertices:
        if v.is_isolated:
            out.insert_isolated_vertex(-v.point.dir, image_face(v.isolated_face))
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


def reachability_components(n: int, edges: BlockSet) -> List[List[int]]:
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


@dataclass
class MotionSpace:
    arrangement: SphereArrangement
    n_parts: int


@dataclass
class PartitionSolution:
    cell_kind: str  # vertex | edge | face
    direction: Vec3
    subset: Tuple[int, ...]


@dataclass
class PartitionResult:
    interlocked: bool
    solutions: List[PartitionSolution] = field(default_factory=list)


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
        return PartitionResult(True)
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


def partition(
    assembly: Assembly,
    mode: str = FIRST,
    use_reflection_identity: bool = True,
) -> PartitionResult:
    """The full pipeline: sub-part Gaussian maps, reflections, pairwise
    sums, central projections, per-pair unions, motion space, and the
    strong-connectivity scan."""
    n = len(assembly.parts)
    if n < 2:
        raise ValueError("an assembly needs at least two parts")
    assembly.validate_meshes()
    gmaps = [[build(m) for m in subs] for subs in assembly.parts]
    reflected = [[build(m.negated()) for m in subs] for subs in assembly.parts]

    if use_reflection_identity:
        ordered = [(i, j) for i in range(n) for j in range(n) if i < j]
    else:
        ordered = [(i, j) for i in range(n) for j in range(n) if i != j]
    sums = pairwise_subpart_sums(assembly, gmaps, reflected, ordered)

    origin = Vec3(0, 0, 0)
    for (i, j, k, l), m in sums.items():
        if classify_point(m, origin).classification == INSIDE:
            raise ValueError(
                f"sub-parts {i}.{k} and {j}.{l} have overlapping interiors"
            )

    q: Dict[Tuple[int, int], SphericalRegion] = {}
    for i, j in ordered:
        regions = [
            project_polytope(sums[(i, j, k, l)])
            for k in range(len(assembly.parts[i]))
            for l in range(len(assembly.parts[j]))
        ]
        q[(i, j)] = union_regions(regions)
    if use_reflection_identity:
        for i, j in list(q):
            q[(j, i)] = reflect_region(q[(i, j)])

    ms = build_motion_space(n, q)
    return find_partitions(ms, mode)
