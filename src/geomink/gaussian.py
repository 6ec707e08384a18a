"""Gaussian maps of convex polytopes as decorated spherical arrangements.

The map of a polytope P assigns to every boundary point its outward
support-plane normals: facets become arrangement vertices (their exact
unnormalized normal directions), edges become geodesic arcs, and every
arrangement face carries the primal vertex it maps back to.  Overlaying
two such maps yields the map of the Minkowski sum.

`build` reads the arcs off the directed-edge -> facet table that
`Mesh.validate` builds, one arc per undirected edge, and assembles them
in the table's order: the assembly does not depend on the order.
`Mesh.validate` certifies convexity in time linear in the mesh size:
the vertex centroid strictly inside every facet plane, every edge
strictly convex, and one ray from the centroid that meets one facet
only (see its docstring); no vertex is tested against every facet.

Arcs are also split where they cross the identification curve or pass
through a pole, and those splits are degree-2 vertices that are not
facets.  The map names its facets once: `GaussianMap.facet_vertices`
is the one list of facet vertices, `GaussianMap.facet_planes` adds
their planes, and every reader of the primal facets (the primal mesh,
facet counts, projections and proximity queries) takes them from these.
The map also holds, each computed once, the primal mesh
(`GaussianMap.mesh`) and the facet planes and the centroid of the
primal vertices as ints over common denominators
(`GaussianMap.integer_planes`); `GaussianMap.facet_neighbors` reads a
facet's neighbours off the arrangement, across the splits.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Dict, List, NamedTuple, Tuple

from .arrangement import Face, SphereArrangement, Vertex, _assemble
from .kernel import (
    Rational,
    Vec3,
    ZeroVector,
    cross,
    cross3,
    dot,
    dot3,
    exact_vec,
    integer_point,
    integer_representative,
    turn3,
)
from .spherical import BoundaryClass, GeodesicArc, make_arc, primitive_point


class InvalidMesh(ValueError):
    pass


class InvalidGaussianMap(ValueError):
    pass


class Mesh:
    """A convex polyhedral mesh: exact vertices plus counterclockwise
    (viewed from outside) facet index cycles."""

    def __init__(self, vertices: List[Vec3], facets: List[List[int]]):
        self.vertices = vertices
        self.facets = facets

    def edge_count(self) -> int:
        return sum(len(f) for f in self.facets) // 2

    def facet_normal(self, i: int) -> Vec3:
        """Outward normal, computed exactly from the first non-collinear
        corner of the facet."""
        corners = [self.vertices[v].as_tuple() for v in self.facets[i]]
        return exact_vec(*cycle_normal(i, corners))

    def facet_offset(self, i: int) -> Rational:
        n = self.facet_normal(i)
        return dot(n, self.vertices[self.facets[i][0]])

    def validate(self) -> Tuple[List[tuple], Dict[Tuple[int, int], int]]:
        """Raise InvalidMesh unless this is a closed convex 2-manifold
        with planar, simple, strictly convex, consistently oriented
        facets, and every vertex on a facet.

        Every predicate runs on the common-denominator integer
        representative of the vertex set (kernel.integer_representative),
        with each facet's normal computed once, as the turn at its first
        corner (cycle_normal's if that corner is collinear), and divided by the
        gcd of its components: scaling all vertices by one positive
        integer, or a normal by a positive factor, changes no sign.  The
        mesh keeps its input coordinates.  Returns the facets' outward
        normals as primitive integer triples, positive multiples of
        facet_normal's, and the table that maps each directed edge (a, b)
        of a facet cycle to that facet.

        After the topology checks (a closed, oriented 2-manifold of Euler
        characteristic 2, every vertex on a facet) and the per-facet ones
        (planar, strictly convex and counterclockwise about its normal,
        winding once; a triangle is all four), convexity is certified in
        O(V + E + F) instead of testing every vertex against every facet
        plane.  With o = S / V the vertex centroid:

        (a) o lies strictly below every facet plane <n, x> = b, tested as
            <n, S> < V b;
        (b) every edge is strictly convex: the vertex that follows the
            edge in one of its facets lies strictly below the other's
            plane (the sign is the same from either side), which also
            rules out coplanar neighbours;
        (c) the ray from o through the vertex centroid q of facet 0 meets
            no other closed facet: with D = V k (q - o) for facet 0's k
            corners, no other facet has det(V u - S, V v - S, D) >= 0 on
            every edge u -> v, and only facets with <n, D> > 0 are tested.

        Why these suffice: by (a) central projection from o maps each
        facet one-to-one, keeping its orientation, onto a convex spherical
        polygon, so with (b) it makes the surface a branched covering of
        the sphere; by (c) the direction of q has one preimage, so the
        covering has degree 1 and is a homeomorphism.  A closed surface
        that is star-shaped about o and locally convex at every edge
        bounds a convex body (Tietze-Nakajima); no vertex lies outside or
        on a facet plane other than its own.  This is the checker of
        Mehlhorn, Naeher, Seel, Seidel, Schilz, Schirra and Uhrig,
        "Checking geometric programs or verification of geometric
        structures", CGTA 12 (1999), also CGAL's is_strongly_convex_3."""
        seen = _edge_table(self)
        pts, _ = integer_representative(self.vertices)
        nv = len(pts)
        sx, sy, sz = map(sum, zip(*pts))
        normals = []
        offsets = []
        for fi, cyc in enumerate(self.facets):
            # the turn at the first corner, unless it is collinear
            ax, ay, az = a = pts[cyc[0]]
            nx, ny, nz = n = turn3(a, pts[cyc[1]], pts[cyc[2]])
            if not (nx or ny or nz):
                nx, ny, nz = n = cycle_normal(fi, [pts[vi] for vi in cyc])
            g = gcd(nx, ny, nz)
            if g > 1:
                nx, ny, nz = n = (nx // g, ny // g, nz // g)
            b0 = nx * ax + ny * ay + nz * az
            if len(cyc) > 3:  # a triangle passes _check_facet
                _check_facet(fi, n, b0, [pts[vi] for vi in cyc])
            if nx * sx + ny * sy + nz * sz >= nv * b0:
                raise InvalidMesh(_first_outside(fi, n, b0, pts, cyc, seen))
            normals.append(n)
            offsets.append(b0)
        # (b): the edge (u, v) of facet gi, once per undirected edge,
        # against the plane of the facet fi across it, by the vertex w
        # that follows the edge in gi
        for gi, cyc in enumerate(self.facets):
            u, v = cyc[0], cyc[1]
            for w in (*cyc[2:], u, v):
                if v < u:
                    fi = seen[(v, u)]
                    nx, ny, nz = normals[fi]
                    px, py, pz = pts[w]
                    s = nx * px + ny * py + nz * pz - offsets[fi]
                    if s >= 0:
                        raise InvalidMesh(_off_plane(w, fi, gi, s, self.facets[fi]))
                u, v = v, w
        # (c): the ray o + t D, t >= 0, meets closed facet fi exactly when
        # D lies in the cone from o over it, det(u - o, v - o, D) >= 0 on
        # each edge u -> v, here on V u - S = V (u - o)
        cyc0 = self.facets[0]
        k = len(cyc0)
        qx, qy, qz = map(sum, zip(*(pts[v] for v in cyc0)))
        dx, dy, dz = nv * qx - k * sx, nv * qy - k * sy, nv * qz - k * sz
        for fi in range(1, len(normals)):
            nx, ny, nz = normals[fi]
            if nx * dx + ny * dy + nz * dz <= 0:
                continue
            cyc = self.facets[fi]
            x, y, z = pts[cyc[-1]]
            ux, uy, uz = nv * x - sx, nv * y - sy, nv * z - sz
            for v in cyc:
                x, y, z = pts[v]
                vx, vy, vz = nv * x - sx, nv * y - sy, nv * z - sz
                if (uy * vz - uz * vy) * dx + (uz * vx - ux * vz) * dy + (
                    ux * vy - uy * vx
                ) * dz < 0:
                    break
                ux, uy, uz = vx, vy, vz
            else:
                raise InvalidMesh(
                    f"facet {fi} meets the ray from the centroid through facet 0: "
                    "the facets wrap more than once around the centroid"
                )
        return normals, seen

    def translated(self, t: Vec3) -> "Mesh":
        return Mesh([v + t for v in self.vertices], [list(f) for f in self.facets])

    def negated(self) -> "Mesh":
        """Central reflection through the origin (facet cycles reversed)."""
        return Mesh([-v for v in self.vertices], [list(reversed(f)) for f in self.facets])


def cycle_normal(fi: int, corners: List[tuple]) -> tuple:
    """Normal of facet fi from the coordinate triples of its cycle: the
    turn (kernel.turn3) at its first non-collinear corner."""
    m = len(corners)
    for k in range(m):
        turn = turn3(corners[k], corners[(k + 1) % m], corners[(k + 2) % m])
        if turn != (0, 0, 0):
            return turn
    raise InvalidMesh(f"facet {fi} is collinear")


def _edge_table(mesh: Mesh) -> Dict[Tuple[int, int], int]:
    """Raise InvalidMesh unless the facet cycles make a closed, oriented
    2-manifold of Euler characteristic 2 with every vertex on a facet;
    return the table that maps each directed edge (a, b) of a facet
    cycle to that facet."""
    if len(mesh.vertices) < 4:
        raise InvalidMesh("need at least 4 vertices")
    if len(mesh.facets) < 4:
        raise InvalidMesh("need at least 4 facets")
    seen = {}
    for fi, cyc in enumerate(mesh.facets):
        if len(cyc) < 3 or len(set(cyc)) != len(cyc):
            raise InvalidMesh(f"facet {fi} has a bad vertex cycle")
        a = cyc[0]
        for b in (*cyc[1:], a):
            if (a, b) in seen:
                raise InvalidMesh(f"directed edge {(a, b)} appears twice")
            seen[(a, b)] = fi
            a = b
    for (a, b), fi in seen.items():
        if (b, a) not in seen:
            raise InvalidMesh(f"edge {(a, b)} of facet {fi} has no twin")
    if len(mesh.vertices) - len(seen) // 2 + len(mesh.facets) != 2:
        raise InvalidMesh("Euler characteristic is not 2")
    used = {a for a, _ in seen}
    for vi in range(len(mesh.vertices)):
        if vi not in used:
            raise InvalidMesh(f"vertex {vi} is on no facet")
    return seen


def _check_facet(fi: int, n: tuple, b0: int, corners: List[tuple]) -> None:
    """Raise InvalidMesh unless the facet with normal n, offset b0 and
    these corners is planar, strictly convex and counterclockwise about
    n, and winds once around its plane."""
    if any(dot3(n, c) != b0 for c in corners):
        raise InvalidMesh(f"facet {fi} is not planar")
    nx, ny, nz = n
    # Every turn a x b between consecutive edges must be strictly
    # left about n, so each is less than a half turn.  Then
    # s = det(e0, b, n) is > 0 when b's direction is a turn in
    # (0, pi) past e0's, < 0 in (pi, 2 pi) and 0 at 0 or pi, so the
    # directions come round to e0's once per step from s < 0 to
    # s >= 0: more than one such step is a facet that winds twice.
    edges = [
        (q[0] - p[0], q[1] - p[1], q[2] - p[2])
        for p, q in zip(corners, corners[1:] + corners[:1])
    ]
    cx, cy, cz = cross3(n, edges[0])
    ax, ay, az = edges[-1]
    s_a = ax * cx + ay * cy + az * cz
    rounds = 0
    for bx, by, bz in edges:
        if (ay * bz - az * by) * nx + (az * bx - ax * bz) * ny + (
            ax * by - ay * bx
        ) * nz <= 0:
            raise InvalidMesh(f"facet {fi} is not a strictly convex CCW polygon")
        s_b = bx * cx + by * cy + bz * cz
        rounds += s_a < 0 <= s_b
        ax, ay, az, s_a = bx, by, bz, s_b
    if rounds > 1:
        raise InvalidMesh(f"facet {fi} winds more than once around its plane")


def _first_outside(
    fi: int, n: tuple, b0: int, pts: List[tuple], cyc: List[int], seen: Dict
) -> str:
    """The rejection of facet fi, whose plane <n, x> = b0 does not have
    the vertex centroid strictly below it: the first vertex above the
    plane; else every vertex is on it, and the first one off the facet,
    or the facet across the facet's first edge, is named."""
    for vi, p in enumerate(pts):
        if dot3(n, p) > b0:
            return (
                f"vertex {vi} lies outside facet {fi}: not convex or facets "
                "are misoriented"
            )
    for vi in range(len(pts)):
        if vi not in cyc:
            return f"vertex {vi} is coplanar with facet {fi} but not on it"
    return f"facets {fi} and {seen[(cyc[1], cyc[0])]} are coplanar; merge them first"


def _off_plane(w: int, fi: int, gi: int, s: int, facet: List[int]) -> str:
    """The rejection of vertex w of facet gi, at height s >= 0 over the
    plane of its neighbour fi across an edge."""
    if s > 0:
        return f"vertex {w} lies outside facet {fi}: not convex or facets are misoriented"
    if w not in facet:
        return f"vertex {w} is coplanar with facet {fi} but not on it"
    return f"facets {fi} and {gi} are coplanar; merge them first"


class IntegerPlanes(NamedTuple):
    """The facet planes and the centroid as ints, so that side tests and
    comparisons of ratios cross-multiply ints.

    With D > 0 the lcm of the facet offsets' denominators and the
    centroid c = C / dc, C an int triple and dc > 0, `rows` maps each
    facet vertex w, in the order of facet_planes, to (nx, ny, nz, B, K):
    the primitive normal n of its plane <n, x> = b, B = b D, and the
    centroid slack K = B dc - D <n, C> = D dc (b - <n, c>), which is
    positive: the centroid is strictly inside every facet plane."""

    denominator: int
    centroid: Tuple[int, int, int]
    centroid_denominator: int
    rows: Dict[Vertex, Tuple[int, int, int, int, int]]


class GaussianMap:
    def __init__(self, arrangement: SphereArrangement):
        self.arrangement = arrangement

    def counts(self) -> Tuple[int, int, int]:
        """(V, HE, F) of the underlying arrangement."""
        return self.arrangement.counts()

    @cached_property
    def facet_vertices(self) -> List[Vertex]:
        """The facets of the primal polytope, in arrangement order: every
        arrangement vertex but the seam and pole splits.  Computed once:
        a map's arrangement is not changed once built."""
        return [w for w in self.arrangement.vertices if not _is_split_artifact(w)]

    @cached_property
    def facet_planes(self) -> Dict[Vertex, Tuple[Vec3, Rational]]:
        """Each facet vertex w, in the order of facet_vertices, maps to
        the plane <n, x> = b of its facet, with n the primitive integer
        normal w.point.dir and b = <n, v> for a primal vertex v on the
        facet."""
        return {
            w: (w.point.dir, dot(w.point.dir, w.out[0].face.payload))
            for w in self.facet_vertices
        }

    def facet_neighbors(self, w: Vertex) -> List[Vertex]:
        """The facet vertices adjacent to facet vertex w, one along each
        arc leaving w, in w's ring order; the walk along an arc hops over
        its seam and pole splits."""
        planes = self.facet_planes
        out = []
        for h in w.out:
            e, t = h, h.target
            while t not in planes:
                # a seam or pole split has degree 2
                e = t.out[0] if t.out[0] is not e.twin else t.out[1]
                t = e.target
            out.append(t)
        return out

    @cached_property
    def mesh(self) -> Mesh:
        """The primal mesh (primal_mesh), computed once."""
        return primal_mesh(self)

    @cached_property
    def integer_planes(self) -> IntegerPlanes:
        """facet_planes and the mean of the primal vertices as ints
        (IntegerPlanes), computed once."""
        planes = self.facet_planes
        den = lcm(*(b.denominator for _, b in planes.values()))
        pts = self.primal_vertices()
        cx, cy, cz, dc = integer_point(sum(pts, Vec3(0, 0, 0)).scale(Fraction(1, len(pts))))
        rows = {}
        for w, (n, b) in planes.items():
            nx, ny, nz = n.x, n.y, n.z
            big_b = b.numerator * (den // b.denominator)
            rows[w] = (nx, ny, nz, big_b, big_b * dc - den * (nx * cx + ny * cy + nz * cz))
        return IntegerPlanes(den, (cx, cy, cz), dc, rows)

    def primal_vertices(self) -> List[Vec3]:
        """The primal vertices, one per face: a face is the normal cone
        of its payload vertex."""
        return [f.payload for f in self.arrangement.faces]

    def support(self, d: Vec3) -> Tuple[Rational, Vec3]:
        """Support value max <d, v> over primal vertices and one maximizer."""
        if d.is_zero():
            raise ZeroVector("support direction must be nonzero")
        best = None
        arg = None
        for f in self.arrangement.faces:
            v = f.payload
            val = dot(d, v)
            if best is None or val > best:
                best, arg = val, v
        return best, arg


# -- construction -------------------------------------------------------------


def build(mesh: Mesh) -> GaussianMap:
    """Construct the decorated Gaussian map of a valid convex mesh, from
    what Mesh.validate returns for it: its facets' outward normals and
    its directed-edge -> facet table."""
    normals, edge_facet = mesh.validate()
    normals = [primitive_point(*n) for n in normals]

    # The dual arc of primal edge (a, b) runs from the normal of the facet
    # of a -> b to the normal of the facet of b -> a; the normal cone of b
    # lies on its left and that of a on its right.  One arc per undirected
    # edge, read from the edge table: the assembly takes them in any order.
    pieces: List[GeodesicArc] = []
    sides: List[Tuple[int, int]] = []
    for (a, b), fi in edge_facet.items():
        if a < b:
            for piece in make_arc(normals[fi], normals[edge_facet[(b, a)]]):
                pieces.append(piece)
                sides.append((b, a))

    arr, along = _assemble(pieces)
    owner: Dict[Face, int] = {}
    for h, (left, right) in zip(along, sides):
        for f, vi in ((h.face, left), (h.twin.face, right)):
            if owner.setdefault(f, vi) != vi:
                raise InvalidGaussianMap(
                    f"face {f} lies in the normal cones of primal vertices "
                    f"{owner[f]} and {vi}"
                )
            f.payload = mesh.vertices[vi]

    g = GaussianMap(arr)
    _check_decoration(g, mesh)
    return g


def _check_decoration(g: GaussianMap, mesh: Mesh) -> None:
    if len(g.arrangement.faces) != len(mesh.vertices):
        raise InvalidGaussianMap(
            f"face count {len(g.arrangement.faces)} != vertex count "
            f"{len(mesh.vertices)}"
        )
    payloads = {f.payload.ratio_key() for f in g.arrangement.faces}
    if len(payloads) != len(mesh.vertices):
        raise InvalidGaussianMap("face decoration is not a bijection")


def reflect(g: GaussianMap) -> GaussianMap:
    """The Gaussian map of the reflection of the primal polytope through
    the origin: directions negated, incidences reversed, payloads negated.
    It is built from the negated primal mesh, which is the one mesh
    validated."""
    return build(_primal_mesh(g).negated())


def _is_split_artifact(v: Vertex) -> bool:
    """Whether v was made only to split an arc at the parameter-space
    boundary: it is on the seam or at a pole, and its two arcs lie on one
    great circle.  Every other vertex of a Gaussian map, or of an overlay
    of two, is a facet."""
    return (
        len(v.out) == 2
        and v.point.boundary_class is not BoundaryClass.INTERIOR
        and cross(v.out[0].arc.normal, v.out[1].arc.normal).is_zero()
    )


def primal_mesh(g: GaussianMap) -> Mesh:
    """Invert the map: face payloads become vertices, and the facet
    vertices of g.facet_vertices become facets, in its order."""
    m = _primal_mesh(g)
    m.validate()
    return m


def _primal_mesh(g: GaussianMap) -> Mesh:
    """primal_mesh without the validation: vertex i is the payload of
    face i, and a facet's corners are the faces around its vertex."""
    coords = g.primal_vertices()
    if any(v is None for v in coords):
        raise InvalidGaussianMap("undecorated face")
    index = {f: i for i, f in enumerate(g.arrangement.faces)}
    facets = [
        [index[w.out[(i + 1) % w.degree].twin.face] for i in range(w.degree)]
        for w in g.facet_vertices
    ]
    return Mesh(coords, facets)
