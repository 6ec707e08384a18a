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

1. the Gaussian map of every sub-part, and of the reflection of every
   sub-part but the last part's, which no pair i < j reflects;
2. the pairwise sums, for part pairs i < j only, in (i, j, k, l) order,
   each made only when it can enlarge its part pair's blocked region:
   the sum of sub-parts k of part i and l of part j is skipped when a
   projection kept for the pair holds their whole difference body, which
   the two sub-parts' vertices decide against the kept projection's
   walls (see 3).  A made sum is read once, for its projection, and
   dropped, so no more than one sum is alive at once;
3. the projection of each made sum as a closed cone, its case picked by
   the offsets of the sum's facet planes (`GaussianMap.facet_planes`):
   the spherical hull of the directions of its nonzero vertices when the
   origin is outside it or at a vertex (a monotone chain on their
   primitive integer triples), the hemisphere when the origin is inside
   a facet, the lune when inside an edge, and the whole sphere, the one
   case with no edge, when inside the sum: that is the overlap verdict.
   Each bounded case is one convex cycle, described by two sets of int
   triples: its generators (corners and interior direction) and its
   walls (inward side normals); the lune's cycle runs through its two
   corners, where the two facet planes' great circles cross, and the
   midpoints of its two sides.  A made projection drops the kept ones
   whose generators lie inside its walls and is kept (a kept one cannot
   hold it, or its sum would have been skipped), so each pair keeps its
   maximal projections;
4. the boundary of the union of each pair's kept projections, its arcs
   and isolated points, with no region built (`_union_boundary`): one
   cut of the kept cones' sides, the pieces and points that no cone
   holds strictly kept, and the collinear degree-2 vertices off the
   seam and the poles fused as `cleanup_region` fuses them;
5. the motion space's edges and vertices, with no arrangement built:
   one cut of the union boundaries' arcs, then one of those pieces
   against their antipodal images, which bound the reversed pairs'
   regions: d is blocked for (j, i) iff -d is for (i, j);
6. each cell's blocking set, read off the kept cones' int walls at one
   point p of it: (i, j) blocks p iff <m, p> > 0 for every wall m of
   some cone kept for (i, j), and (j, i) iff <m, p> < 0 for every one;
7. the scan of the vertices, then the edges, then the faces, which ends
   at the verdict: a cell is a solution when its blocking graph is not
   strongly connected, read off a Warshall closure of per-part reach
   bitmasks (`movable_subset`).  In FIRST mode the answer is the first
   vertex solution in the cut's order; which solution that is is not
   part of the contract, only that it is one of the solutions ALL mode
   returns.
"""

from __future__ import annotations

import functools
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .arrangement import Halfedge, SphereArrangement, _assemble, _split_all, overlay
from .gaussian import GaussianMap, Mesh, build
from .kernel import ZERO3, Vec3, cross, cross3, det3, dot, dot3
from .minkowski import minkowski
from .spherical import (
    BoundaryClass,
    DirPoint,
    GeodesicArc,
    classify,
    full_circle_arcs,
    is_mergeable,
    make_arc,
    merge,
    primitive_point,
)


class Assembly:
    """Named parts, each an ordered list of convex sub-part meshes whose
    interiors are pairwise disjoint across different parts.  Every part
    has at least one sub-part."""

    def __init__(self, names: List[str], parts: List[List[Mesh]]):
        if len(names) != len(parts):
            raise ValueError("names and parts differ in length")
        for name, subs in zip(names, parts):
            if not subs:
                raise ValueError(f"part {name!r} has no sub-parts")
        self.names = names
        self.parts = parts


# -- spherical regions with piercing flags -------------------------------------
#
# A region is a SphereArrangement whose every cell carries a boolean flag:
# True when every ray from the origin in a direction of the cell pierces
# the interior of the associated solid.


class _Cone(NamedTuple):
    """The closure of a bounded projection, a convex cycle (a pointed
    cone, a lune or a hemisphere), as a polyhedral cone in two ways: the
    cone over its generators, the cycle's corners and its interior
    direction, and the intersection of the half-spaces <m, x> >= 0 of
    its walls, the inward normals cross(p, q) of its sides p -> q (equal
    walls kept once).  Generators and walls are int triples."""

    corners: List[DirPoint]  # in cycle order
    inside: Vec3
    generators: Tuple[tuple, ...]
    walls: Tuple[tuple, ...]

    def holds(self, other: "_Cone") -> bool:
        """Does this cone hold every generator of other, and so other's
        closed cone and its open region?"""
        return all(dot3(m, g) >= 0 for m in self.walls for g in other.generators)

    def holds_difference(self, vs: List[tuple], us: List[tuple]) -> bool:
        """Does this cone hold v - u for every v in vs and u in us, and
        so the whole difference body conv(vs) (+) -conv(us)?"""
        return all(
            min(dot3(m, v) for v in vs) >= max(dot3(m, u) for u in us) for m in self.walls
        )


def _cone(corners: List[DirPoint], inside: Vec3) -> _Cone:
    """The cone of the convex cycle through corners whose inside holds
    the direction inside, which no side's great circle passes through:
    it fixes the sign of every wall."""
    dirs = [p.dir.as_tuple() for p in corners]
    t = inside.as_tuple()
    walls = {}
    for p, q in zip(dirs, dirs[1:] + dirs[:1]):
        m = cross3(p, q)
        walls[m if dot3(m, t) > 0 else (-m[0], -m[1], -m[2])] = None
    return _Cone(corners, inside, (*dirs, t), tuple(walls))


def _cycle_region(cone: _Cone) -> SphereArrangement:
    """The open region of a bounded projection, flagged True: the region
    bounded by the closed polygon through its corners, in cycle order,
    whose inside holds its interior direction.

    Each side is made once, by make_arc as sweep_build makes its input
    arcs, and the pieces are assembled in cycle order, so the
    arrangement equals sweep_build's without its pairwise intersection
    tests.  The inside is convex, so it lies on one side of the first
    piece's great circle, which one sign decides."""
    corners = cone.corners
    pieces = [
        piece
        for p, q in zip(corners, corners[1:] + corners[:1])
        for piece in make_arc(p, q)
    ]
    arr, along = _assemble(pieces)
    _clear_flags(arr)
    first = along[0]
    inside = first if dot(first.arc.normal, cone.inside) > 0 else first.twin
    inside.face.payload = True
    return arr


def _lune_cone(n1: Vec3, n2: Vec3) -> _Cone:
    """The open lune <n1, d> < 0, <n2, d> < 0 between the great circles
    of n1 and n2 (not parallel): one convex cycle through its corners
    +-q, q = cross(n1, n2), and the midpoints of its sides.

    The side on n1's circle has its midpoint a = cross(n1, q), and the
    side on n2's circle b = cross(q, n2): by Lagrange's identity
    <n2, a> = <n1, b> = <n1, n2>^2 - |n1|^2 |n2|^2 < 0,
    so both lie on the lune's sides and a + b inside it."""
    q = cross(n1, n2)
    a, b = cross(n1, q), cross(q, n2)
    return _cone([classify(c) for c in (q, a, -q, b)], a + b)


def _clear_flags(arr: SphereArrangement) -> None:
    for f in arr.faces:
        f.payload = False
    for v in arr.vertices:
        v.payload = False
    for h in arr.halfedges:
        h.payload = False


def _projection_cone(g: GaussianMap) -> Optional[_Cone]:
    """The closed cone of the central projection of the primal polytope
    onto the direction sphere, or None when the projection is the whole
    sphere (the origin inside the polytope).  Four cases by the position
    of the origin, read from the offsets of g's facet planes.

    With the origin outside, or at a vertex, the projection is a pointed
    cone: the spherical hull of the directions of the nonzero primal
    vertices (a vertex at the origin adds nothing to the cone).  Its
    separator is w = -sum n over the planes <n, x> = b with b <= 0:
    every vertex v has <n, v> <= b, so <w, v> >= -sum b, which is
    positive when some b < 0; at a vertex every such b is 0, and
    <w, v> = 0 only where v lies on every tight plane, at the origin.
    The sum of the hull's corners lies inside the cone.  With the origin
    inside a facet it is the closed opposite hemisphere, inside an edge
    the lune of its two facets."""
    planes = g.facet_planes.values()
    tight = [n for n, b in planes if b == 0]
    if len(tight) >= 3 or any(b < 0 for _, b in planes):
        w = -sum((n for n, b in planes if b <= 0), ZERO3)
        dirs = {classify(v) for v in g.primal_vertices() if not v.is_zero()}
        hull = _gnomonic_hull(dirs, w)
        return _cone(hull, sum((p.dir for p in hull), ZERO3))
    if not tight:
        return None  # origin strictly inside
    if len(tight) == 1:
        n = tight[0]
        return _cone([a.source for a in full_circle_arcs(n)], -n)
    return _lune_cone(*tight)  # origin interior to an edge


def project_polytope(g: GaussianMap) -> SphereArrangement:
    """Central projection of the primal polytope onto the direction
    sphere, with interior cells flagged True (grazing rays do not pierce
    the interior): the open region of its _projection_cone, or the whole
    sphere."""
    cone = _projection_cone(g)
    if cone is not None:
        return _cycle_region(cone)
    arr = SphereArrangement()
    arr.faces[0].payload = True
    return arr


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


def union_regions(regions: Sequence[SphereArrangement]) -> SphereArrangement:
    """Non-regularized union: flags are or-combined under overlay, then
    cells interior to the pierced set are removed while lower-dimensional
    holes in it survive."""
    if not regions:
        raise ValueError("need at least one region")
    if len(regions) == 1:
        return cleanup_region(regions[0])
    out = regions[0]
    for r in regions[1:]:
        # Cleaning at every step keeps the fold's accumulator down to the
        # current union's boundary, so no buried edge is split again.
        out = cleanup_region(overlay(out, r, lambda kind, a, b: bool(a.payload or b.payload)))
    return out


def cleanup_region(arr: SphereArrangement) -> SphereArrangement:
    """The region without the True cells buried in the interior of the
    pierced set, and with collinear degree-2 boundary vertices fused,
    assembled anew from the arcs and points that survive.

    An edge is buried when it and both its faces are True, an isolated
    point when it and its face are True, and a vertex whose edges are all
    buried is such a point.  The fusion is one pass over the vertices in
    table order: a vertex off the parameter-space boundary with two kept
    edges, v -> a and v -> b in ring order, whose flags agree with its
    own, is fused when the arcs a -> v and v -> b make one.  Then a -> v
    runs on to b, keeps its normal and moves to the end of the edge
    table, as a newly made edge would.  A fused arc keeps its flags and
    its circle, and only lengthens, so a vertex that cannot fuse now
    cannot fuse after a later fusion.

    The survivors are assembled in table order, which the next overlay
    splits in, and every cell takes the flag of the cell it comes from;
    with no arc left, the sphere is True iff every face was."""
    # each kept edge by the halfedge that leads it in the table, and the
    # current arc and twin of each kept halfedge, which a fusion re-points
    order: Dict[Halfedge, None] = {}
    arc: Dict[Halfedge, GeodesicArc] = {}
    twin: Dict[Halfedge, Halfedge] = {}
    for h in arr.edges():
        if not (h.payload and h.face.payload and h.twin.face.payload):
            order[h] = None
            for e in (h, h.twin):
                arc[e], twin[e] = e.arc, e.twin
    points = []
    for v in arr.vertices:
        kept = [h for h in v.out if h in arc]
        if not kept:
            face = v.isolated_face if v.is_isolated else v.out[0].face
            if not (v.payload and face.payload):
                points.append(v.point)
            continue
        if len(kept) != 2 or v.point.boundary_class is not BoundaryClass.INTERIOR:
            continue  # parameter-space splits stay intact
        q2, p2 = kept  # v -> a and v -> b
        p1, q1 = twin[q2], twin[p2]  # a -> v and b -> v
        if bool(v.payload) == bool(q2.payload) == bool(p2.payload) and is_mergeable(
            arc[p1], arc[p2]
        ):
            arc[p1] = merge(arc[p1], arc[p2])
            arc[q1] = arc[p1].reversed()
            twin[p1], twin[q1] = q1, p1
            for e in (p1, q1, p2, q2):
                order.pop(e, None)
            order[p1] = None

    out, along = _assemble([arc[h] for h in order], points)
    if not along:
        out.faces[0].payload = all(f.payload for f in arr.faces)
    for g, h in zip(along, order):
        out.set_edge_payload(g, h.payload)
        g.face.payload = h.face.payload
        g.twin.face.payload = twin[h].face.payload
    for v in out.vertices:
        v.payload = arr.find_vertex(v.point).payload
    return out


def _union_boundary(kept: List[_Cone]) -> Tuple[List[GeodesicArc], List[DirPoint]]:
    """The boundary arcs and isolated points of the union of the kept
    cones' open regions, which union_regions of their _cycle_regions
    keeps, with no region made.

    Each cone's sides are made by make_arc, as _cycle_region makes them,
    and cut once (_split_all), a cone's own sides unpaired.  A piece is
    kept when its interior direction s + t lies strictly inside no cone,
    <m, s + t> > 0 for its every wall m: then it is not buried, and as
    the cut leaves no cone side crossing it, neither is any point inside
    it.  A piece endpoint whose pieces were all dropped is an isolated
    point when no cone holds it strictly, and buried otherwise.  A kept
    piece and its endpoints lie in no open cone, so their flags agree,
    as cleanup_region asks before it fuses.

    The fusion is cleanup_region's rule: a vertex off the parameter-space
    boundary with two kept arcs that make one (is_mergeable) is fused,
    the first arc running on over the second.  The vertices are taken
    once each, in the order the cut's pieces first meet them, source
    before target.  A fused arc only lengthens, so a vertex that cannot
    fuse now cannot fuse later.  On a collinear run of pi or more, which
    vertex stays unfused depends on that order, so it may differ from the
    one the fold keeps: the arcs cover the same points either way.

    A single cone takes the same path: no piece is held, and a vertex
    fuses only where make_arc cut a lune's half-circle side at the seam
    or a pole, which leaves the side's midpoint on a run shorter than
    pi."""
    sides = [
        (piece, (c,))
        for c, cone in enumerate(kept)
        for p, q in zip(cone.corners, cone.corners[1:] + cone.corners[:1])
        for piece in make_arc(p, q)
    ]
    pieces = [a for a, _ in _split_all(sides)]
    # each piece end's <m, p> for every wall m, by cone
    rows: Dict[DirPoint, List[List[int]]] = {}
    for a in pieces:
        for p in (a.source, a.target):
            if p not in rows:
                x, y, z = p.dir.x, p.dir.y, p.dir.z
                rows[p] = [
                    [mx * x + my * y + mz * z for mx, my, mz in cone.walls] for cone in kept
                ]
    arcs: Dict[int, GeodesicArc] = {}
    ring: Dict[DirPoint, List[int]] = {p: [] for p in rows}  # each end's kept pieces
    for k, a in enumerate(pieces):
        rs, rt = rows[a.source], rows[a.target]
        if any(all(u + w > 0 for u, w in zip(us, ws)) for us, ws in zip(rs, rt)):
            continue
        arcs[k] = a
        ring[a.source].append(k)
        ring[a.target].append(k)
    points = [
        p for p, ks in ring.items()
        if not ks and not any(all(u > 0 for u in us) for us in rows[p])
    ]
    for v, ks in ring.items():
        if len(ks) != 2 or v.boundary_class is not BoundaryClass.INTERIOR:
            continue
        ka, kb = ks
        if is_mergeable(arcs[ka], arcs[kb]):
            b = arcs.pop(kb)
            far = b.target if b.source == v else b.source
            arcs[ka] = merge(arcs[ka], b)
            ring[far] = [ka if k == kb else k for k in ring[far]]
    return list(arcs.values()), points


def reflect_region(src: SphereArrangement) -> SphereArrangement:
    """The antipodal image of a region; a direction pierces the original
    solid iff its negation pierces the reflected solid.

    The source arcs are interior-disjoint, so their negations are
    assembled as they are, and every cell takes the flag of its source
    cell.  The antipodal map reverses orientation: the face left of an
    image arc is the image of the face right of its source arc."""
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
    return out


# -- blocking graphs and the motion space ----------------------------------------

def movable_subset(n: int, edges: frozenset) -> Optional[Tuple[int, ...]]:
    """A proper nonempty subset of the parts with no blocking edge (i, j),
    i hits j, into its complement (None when the graph is strongly
    connected): the union of the condensation sinks, or the sink holding
    part 0 if everything is a sink.

    reach[i] is the bitmask of the parts that i reaches, closed by
    Warshall's algorithm.  Part i lies in a sink component exactly when
    every part it reaches reaches it back, that is, reaches the same
    parts as i."""
    reach = [1 << i for i in range(n)]
    for i, j in edges:
        reach[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if reach[i] >> k & 1:
                reach[i] |= reach[k]
    full = (1 << n) - 1
    if all(r == full for r in reach):
        return None
    sinks = [
        i for i in range(n)
        if all(reach[j] == reach[i] for j in range(n) if reach[i] >> j & 1)
    ]
    if len(sinks) < n:
        return tuple(sinks)
    return tuple(j for j in range(n) if reach[0] >> j & 1)  # every part a sink


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
    q_regions: Dict[Tuple[int, int], SphereArrangement]
) -> SphereArrangement:
    """Overlay all pairwise piercing regions into one arrangement whose
    cells carry the directional blocking graph.

    q_regions holds the regions of the pairs i < j only: the region of
    (j, i) is the antipodal image of the region of (i, j).  The i < j
    regions are folded into one half arrangement, whose cells carry sets
    of pairs (i, j); the half is reflected once, and overlaid with its
    image, whose pairs read as (j, i)."""
    if any(i >= j for i, j in q_regions):
        raise ValueError("q_regions takes the pairs i < j only")
    half = SphereArrangement()
    half.faces[0].payload = frozenset()
    for pair in sorted(q_regions):
        f = lambda kind, a, b, pair=pair: a.payload | {pair} if b.payload else a.payload
        half = overlay(half, q_regions[pair], f)
    image = reflect_region(half)
    f = lambda kind, a, b: a.payload | frozenset((j, i) for i, j in b.payload)
    return overlay(half, image, f)


def _motion_space_cells(boundaries: Sequence[Tuple[List[GeodesicArc], List[DirPoint]]]):
    """The motion space's edges, its vertices (each once, in order) and
    its points, from the union boundaries of the pairs i < j, each its
    arcs and its isolated points (_union_boundary), in two cuts.  The
    first splits the boundaries' arcs, a union's own arcs unpaired, at
    each other and at the isolated points.  The second splits those
    pieces and their antipodal images, make_arc(-s, -t) each, at each
    other and at the points and their antipodes.  Its pieces are the
    edges; their endpoints, then the points, are the vertices."""
    tagged = [(a, (k,)) for k, (arcs, _) in enumerate(boundaries) for a in arcs]
    points = [p for _, isolated in boundaries for p in isolated]
    half = [a for a, _ in _split_all(tagged, [(p, None) for p in points])]
    antipode = lambda p: primitive_point(-p.dir.x, -p.dir.y, -p.dir.z)
    points += [antipode(p) for p in points]
    images = [(b, (1,)) for a in half for b in make_arc(antipode(a.source), antipode(a.target))]
    cut = _split_all([(a, (0,)) for a in half] + images, [(p, None) for p in points])
    edges = [a for a, _ in cut]
    vertices = dict.fromkeys([p for a in edges for p in (a.source, a.target)] + points)
    return edges, list(vertices), points


def _blocking_pairs(cones: Dict[Tuple[int, int], List[_Cone]]):
    """The blocking set of a direction p: (i, j) when p lies inside a cone
    kept for (i, j), <m, p> > 0 for its every wall m, and (j, i) when -p
    does.  Each distinct wall's sign at p is taken once, into bitmasks of
    the positive and the negative walls; a cone is the mask of its walls,
    and testing it is one &."""
    bit: Dict[tuple, int] = {}
    masks = [
        (pair, sum(1 << bit.setdefault(m, len(bit)) for m in c.walls))
        for pair, kept in cones.items() for c in kept
    ]
    walls, bits = list(bit), [1 << k for k in bit.values()]

    def blocking(p: DirPoint) -> Set[Tuple[int, int]]:
        x, y, z = p.dir.x, p.dir.y, p.dir.z
        sides = [a * x + b * y + c * z for a, b, c in walls]
        pos = sum([b for s, b in zip(sides, bits) if s > 0])
        neg = sum([b for s, b in zip(sides, bits) if s < 0])
        pairs = set()
        for (i, j), m in masks:
            if pos & m == m:
                pairs.add((i, j))
            if neg & m == m:
                pairs.add((j, i))
        return pairs

    return blocking


def find_partitions(
    n_parts: int, cones: dict, boundaries: dict, mode: str = FIRST
) -> PartitionResult:
    """Scan the motion space of the pairs i < j, from each pair's kept
    cones and the (arcs, points) boundary of their union
    (_union_boundary), for blocking graphs that are not strongly
    connected, with one exit per verdict: the cells of
    _motion_space_cells, each graph from _blocking_pairs at one point of
    its cell.

    The vertices come first; FIRST mode returns at the first solution.
    As a blocking set is open, an edge's graph contains each of its
    endpoints' graphs and a face's that of a cell on its boundary, and a
    graph that holds a strongly connected one is strongly connected.  So
    with a vertex and no vertex solution the assembly is interlocked, ALL
    mode tests only the edges whose endpoints are both solutions, and it
    assembles the faces to test them only when an edge is one, or when
    there is no edge: then the sphere less the points is one face."""
    edges, vertices, points = _motion_space_cells(list(boundaries.values()))
    blocking = _blocking_pairs(cones)
    solutions: List[PartitionSolution] = []

    def consider(kind: str, p: DirPoint) -> bool:
        subset = movable_subset(n_parts, blocking(p))
        if subset is not None:
            solutions.append(PartitionSolution(kind, p.dir, subset))
        return subset is not None

    solved = set()
    for v in vertices:
        if consider("vertex", v):
            if mode == FIRST:
                return PartitionResult(False, solutions)
            solved.add(v)
    if vertices and not solutions:
        return PartitionResult(True, solutions)
    found = len(solutions)
    for a in edges:
        if a.source in solved and a.target in solved:
            consider("edge", a.interior_point())
    if edges and len(solutions) == found:
        return PartitionResult(False, solutions)
    arr, _ = _assemble(edges, points)
    for f in arr.faces:
        consider("face", arr.interior_point(f))
    return PartitionResult(not solutions, solutions)


def partition(assembly: Assembly, mode: str = FIRST) -> PartitionResult:
    """The full pipeline: sub-part Gaussian maps, reflections, pairwise
    sums, central projections, each pair's union boundary
    (_union_boundary, one cut of its kept cones' sides), and the scan of
    the motion space (find_partitions), which cuts the boundaries' arcs
    twice and reads each cell's blocking graph off the kept cones'
    walls.  The sums are the only overlays.  Only the sums, cones and
    boundaries for pairs i < j are made: the reversed pairs' boundaries
    are the antipodal images, and their cones are tested at -p.  Every
    map is built first, in part order, so the first invalid sub-part
    raises its own mesh error.

    The sub-part pairs (k, l) of a part pair are walked in (k, l) order,
    keeping only the maximal projections.  A sum is made only when no
    kept projection's closed cone holds the sub-parts' whole difference
    body.  A body in that cone projects into the kept projection's open
    region, so it adds nothing, and its interior misses the origin, so
    the two sub-parts' interiors do not overlap.  The test is exact: a
    cone holds the body iff it holds the body's closed projection, so no
    kept projection holds a made one.  Each made sum is projected and
    dropped, its projection is kept, and the kept ones it holds go.
    Every skipped or dropped projection lies inside a kept one, so each
    pair's pierced set is the union of the projections of all its
    sub-part pairs.  An overlapping sub-part pair is never skipped, so
    the first one in (i, j, k, l) order names the error."""
    n = len(assembly.parts)
    if n < 2:
        raise ValueError("an assembly needs at least two parts")
    gmaps = [[build(m) for m in subs] for subs in assembly.parts]
    # a pair i < j never reflects the last part
    reflected = [[build(m.negated()) for m in subs] for subs in assembly.parts[:-1]]
    # each sub-part's vertices, read by the containment test before a sum
    vertices = [[[v.as_tuple() for v in g.primal_vertices()] for g in maps] for maps in gmaps]
    cones: Dict[Tuple[int, int], List[_Cone]] = {}
    boundaries: Dict[Tuple[int, int], Tuple[List[GeodesicArc], List[DirPoint]]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            kept: List[_Cone] = []  # the maximal projections so far, in (k, l) order
            for k, gk in enumerate(reflected[i]):
                for l, gl in enumerate(gmaps[j]):
                    us, vs = vertices[i][k], vertices[j][l]
                    if any(c.holds_difference(vs, us) for c in kept):
                        continue
                    cone = _projection_cone(minkowski(gl, gk))
                    if cone is None:  # the whole sphere
                        raise ValueError(f"sub-parts {i}.{k} and {j}.{l} have overlapping interiors")
                    # no kept cone holds the new one: it would hold the body
                    kept = [c for c in kept if not cone.holds(c)] + [cone]
            cones[(i, j)] = kept
            boundaries[(i, j)] = _union_boundary(kept)
    del gmaps, reflected, vertices  # only the cones and boundaries are read from here on
    return find_partitions(n, cones, boundaries, mode)
