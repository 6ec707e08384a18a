"""DCEL arrangements of geodesic arcs on the sphere.

The DCEL is intrinsic to the sphere: vertices at the poles or on the
identification curve are ordinary vertices (recorded in a topology
registry), and the circular order of edges around any vertex is the
exact 3D tangent order.  At a vertex v, the normal of an arc leaving v
is the arc's tangent there turned a quarter turn about v, so the ring
order is taken on the arc normals and no tangent is built.  Faces own
one or more boundary cycles (CCBs) plus isolated vertices, and a user
payload slot; payloads should be immutable values since face splits
share them.

Aggregate construction (`sweep_build`, `overlay`) splits all input arcs
at their exact pairwise intersections and assembles the interior-
disjoint pieces in one pass; the result is the same subdivision a sweep
would produce, independent of input order.  Arcs known to be interior-
disjoint (the pieces of one input arc, the edges of one overlay operand)
are never paired.  Two arcs on one great circle are cut at the endpoints
of one strictly inside the other, with no intersection test; two arcs on
different circles are tested only if they share no endpoint, neither has
both endpoints strictly on one side of the other's plane, and not both
have an endpoint on the other's circle; the sides come from one table of
<normal, endpoint> signs.  `loads` runs the same split over a dump's
arcs to check them before it assembles them.
The assembler sorts each vertex ring once, links the boundary cycles
from the rings, and gives each cycle of a connected component its own
face; a further component or isolated point is placed by side-of-cycle
tests, never by point location.  Its output has the same cells and
vertex rings as inserting the pieces one by one with
`insert_disjoint_arc`, with faces listed in the order they are found.
A side-of-cycle test reads q's side at a point of the cycle closest to
q, inside an arc or in a corner at a vertex; closeness is compared
exactly, and no probe arc is cast.  An overlay face takes its source
faces from the source edges its pieces run along, and a face that no
edge of one operand touches by a flood across the other operand's
edges, so `overlay` makes no point-location call either.

An arrangement owns its features, and no feature refers back to it, so
reference counting frees a dropped arrangement's DCEL at once: its
finalizer cuts its features' incidence links (a halfedge's twin, next,
prev and face, a vertex's ring and isolated face, a face's CCBs and
isolated vertices), and `remove_edge` and `merge_edges_at` cut those of
the features they discard.  A feature kept after its arrangement is
dropped still reads its point, arc and payload; its incidences end with
the arrangement.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from fractions import Fraction
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple,
)

from .kernel import Rational, Vec3, ccw_class, ccw_strictly_before, cross, det3, dot, format_rat
from .spherical import (
    BoundaryClass,
    DirPoint,
    GeodesicArc,
    _mk_arc,
    arc_between,
    as_point,
    classify,
    intersect,
    is_mergeable,
    make_arc,
    merge,
    point_on_arc,
    strictly_inside_arc,
)


class AnchorMismatch(ValueError):
    pass


class ArcNotDisjoint(ValueError):
    pass


class InvalidArc(ValueError):
    pass


LEFT = "left"
RIGHT = "right"


class Vertex:
    __slots__ = ("point", "out", "isolated_face", "payload", "id")

    def __init__(self, point: DirPoint, vid: int):
        self.point = point
        self.out: List["Halfedge"] = []  # outgoing halfedges in CCW order
        self.isolated_face: Optional["Face"] = None
        self.payload: Any = None
        self.id = vid

    @property
    def degree(self) -> int:
        return len(self.out)

    @property
    def is_isolated(self) -> bool:
        return self.isolated_face is not None

    def __repr__(self) -> str:
        return f"V{self.id}{self.point.dir!r}"


class Halfedge:
    __slots__ = ("source", "twin", "nxt", "prv", "face", "arc", "payload", "id")

    def __init__(self, source: Vertex, arc: GeodesicArc, hid: int):
        self.source = source
        self.arc = arc  # directed with this halfedge
        self.twin: "Halfedge" = None  # type: ignore
        self.nxt: "Halfedge" = None  # type: ignore
        self.prv: "Halfedge" = None  # type: ignore
        self.face: "Face" = None  # type: ignore
        self.payload: Any = None
        self.id = hid

    @property
    def target(self) -> Vertex:
        return self.twin.source

    def cycle(self) -> List["Halfedge"]:
        out = [self]
        e = self.nxt
        while e is not self:
            out.append(e)
            e = e.nxt
        return out

    def __repr__(self) -> str:
        return f"H{self.id}({self.source.id}->{self.target.id})"


class Face:
    __slots__ = ("ccbs", "isolated", "payload", "id")

    def __init__(self, fid: int):
        self.ccbs: List[Halfedge] = []  # one representative halfedge per CCB
        # an ordered set: iteration follows insertion, not memory addresses
        self.isolated: Dict[Vertex, None] = {}
        self.payload: Any = None
        self.id = fid

    def __repr__(self) -> str:
        return f"F{self.id}"


def _unlink(
    halfedges: Iterable[Halfedge], vertices: Iterable[Vertex], faces: Iterable[Face]
) -> None:
    """Cut the incidence links of discarded features.  Their points, arcs
    and payloads stay."""
    for h in halfedges:
        h.twin = h.nxt = h.prv = h.face = None
    for v in vertices:
        v.out.clear()
        v.isolated_face = None
    for f in faces:
        f.ccbs.clear()
        f.isolated.clear()


class Cell(NamedTuple):
    """Tagged reference to an arrangement feature."""

    kind: str  # "vertex" | "edge" | "face"
    ref: Any

    @property
    def payload(self):
        return self.ref.payload


class SphereArrangement:
    def __init__(self):
        self._next_id = itertools.count()
        self.vertices: List[Vertex] = []
        self.halfedges: List[Halfedge] = []
        self.faces: List[Face] = []
        self._vertex_map: Dict[DirPoint, Vertex] = {}
        f0 = Face(next(self._next_id))
        self.faces.append(f0)
        self._initial_face = f0
        # Topology registry: contraction-point and identification vertices.
        self.pole_vertices: Dict[str, Vertex] = {}
        self.identification_vertices: List[Vertex] = []

    def __del__(self):
        # The features link one another in cycles, and none links back to
        # the arrangement; cutting their incidences here lets reference
        # counting free the DCEL with the arrangement.
        _unlink(self.halfedges, self.vertices, self.faces)

    # -- basic queries ------------------------------------------------------

    def counts(self) -> Tuple[int, int, int]:
        """(V, HE, F)."""
        return (len(self.vertices), len(self.halfedges), len(self.faces))

    def edges(self) -> List[Halfedge]:
        """One halfedge per undirected edge (the lower-id one)."""
        return [h for h in self.halfedges if h.id < h.twin.id]

    def find_vertex(self, p) -> Optional[Vertex]:
        return self._vertex_map.get(as_point(p))

    def initial_face(self) -> Face:
        return self._initial_face

    # -- vertex bookkeeping --------------------------------------------------

    def _register_boundary_vertex(self, v: Vertex) -> None:
        bc = v.point.boundary_class
        if bc is BoundaryClass.NORTH_POLE:
            self.pole_vertices["north"] = v
        elif bc is BoundaryClass.SOUTH_POLE:
            self.pole_vertices["south"] = v
        elif bc is BoundaryClass.ON_IDENTIFICATION:
            self.identification_vertices.append(v)

    def _new_vertex(self, p: DirPoint) -> Vertex:
        v = Vertex(p, next(self._next_id))
        self.vertices.append(v)
        self._vertex_map[p] = v
        self._register_boundary_vertex(v)
        return v

    def _drop_vertex(self, v: Vertex) -> None:
        self.vertices.remove(v)
        del self._vertex_map[v.point]
        bc = v.point.boundary_class
        if bc is BoundaryClass.NORTH_POLE:
            self.pole_vertices.pop("north", None)
        elif bc is BoundaryClass.SOUTH_POLE:
            self.pole_vertices.pop("south", None)
        elif bc is BoundaryClass.ON_IDENTIFICATION:
            self.identification_vertices.remove(v)

    def insert_isolated_vertex(self, p, face: Optional[Face] = None) -> Vertex:
        q = as_point(p)
        if q in self._vertex_map:
            raise ArcNotDisjoint(f"vertex at {q} already exists")
        if face is None:
            cell = self.locate(q)
            if cell.kind != "face":
                raise ArcNotDisjoint(f"{q} lies on an existing feature")
            face = cell.ref
        v = self._new_vertex(q)
        v.isolated_face = face
        face.isolated[v] = None
        return v

    def remove_isolated_vertex(self, v: Vertex) -> None:
        if not v.is_isolated:
            raise ValueError("vertex is not isolated")
        del v.isolated_face.isolated[v]
        v.isolated_face = None
        self._drop_vertex(v)

    # -- angular order around a vertex ---------------------------------------

    def _insert_position(self, v: Vertex, n: Vec3) -> int:
        """Index i such that an arc leaving v with normal n fits CCW-between
        v.out[i] and v.out[i+1] (v.out is not empty)."""
        axis = v.point.dir
        normals = [h.arc.normal for h in v.out]
        for m in normals:
            if det3(m, n, axis) == 0 and dot(m, n) > 0:
                raise ArcNotDisjoint(
                    f"new arc overlaps an existing edge at vertex {v}"
                )
        k = len(normals)
        if k == 1:
            return 0
        for i in range(k):
            # n strictly inside the CCW gap (out[i], out[i+1])?
            if ccw_strictly_before(axis, normals[i], n, normals[(i + 1) % k]):
                return i
        raise AssertionError("no angular gap admits the new edge")

    # -- edge insertion -------------------------------------------------------

    def _make_pair(self, arc: GeodesicArc, v1: Vertex, v2: Vertex) -> Halfedge:
        h = Halfedge(v1, arc, next(self._next_id))
        g = Halfedge(v2, arc.reversed(), next(self._next_id))
        h.twin = g
        g.twin = h
        self.halfedges.extend((h, g))
        return h

    def _splice_at(self, v: Vertex, h_out: Halfedge, g_in: Halfedge) -> Optional[Face]:
        """Wire the new outgoing h_out / incoming g_in at vertex v.

        Returns the face of the surrounding gap (None when v was bare)."""
        if v.is_isolated:
            f = v.isolated_face
            del f.isolated[v]
            v.isolated_face = None
            g_in.nxt = h_out
            h_out.prv = g_in
            v.out.append(h_out)
            return f
        if not v.out:
            g_in.nxt = h_out
            h_out.prv = g_in
            v.out.append(h_out)
            return None
        pos = self._insert_position(v, h_out.arc.normal)
        # The face corner spanning the CCW gap (out[pos], out[pos+1]) turns
        # from the incoming twin(out[pos+1]) to the outgoing out[pos].
        t_in = v.out[(pos + 1) % len(v.out)].twin
        b = t_in.nxt
        t_in.nxt = h_out
        h_out.prv = t_in
        g_in.nxt = b
        b.prv = g_in
        v.out.insert(pos + 1, h_out)
        return t_in.face

    def insert_disjoint_arc(
        self,
        arc: GeodesicArc,
        v1: Optional[Vertex] = None,
        v2: Optional[Vertex] = None,
        face: Optional[Face] = None,
    ) -> Halfedge:
        """Insert an arc whose interior is disjoint from all existing
        features.  Anchors are checked against the endpoints and resolved
        automatically when omitted."""
        src, tgt = arc.source, arc.target
        if v1 is not None and v1.point != src:
            raise AnchorMismatch("v1 does not match the arc source")
        if v2 is not None and v2.point != tgt:
            raise AnchorMismatch("v2 does not match the arc target")
        if v1 is None:
            v1 = self.find_vertex(src)
        if v2 is None:
            v2 = self.find_vertex(tgt)

        if v1 is None and v2 is None:
            if face is None:
                cell = self.locate(arc.interior_point())
                if cell.kind != "face":
                    raise ArcNotDisjoint("arc interior touches an existing feature")
                face = cell.ref
            w1 = self._new_vertex(src)
            w2 = self._new_vertex(tgt)
            h = self._make_pair(arc, w1, w2)
            g = h.twin
            h.nxt = g
            g.nxt = h
            h.prv = g
            g.prv = h
            h.face = g.face = face
            face.ccbs.append(h)
            w1.out.append(h)
            w2.out.append(g)
            return h

        if v1 is not None and v2 is None:
            w2 = self._new_vertex(tgt)
            h = self._make_pair(arc, v1, w2)
            g = h.twin
            h.nxt = g
            g.prv = h
            w2.out.append(g)
            f = self._splice_at(v1, h, g)
            if f is None:
                raise AnchorMismatch("anchor vertex has no incident face")
            h.face = g.face = f
            if v1.degree == 1:
                f.ccbs.append(h)  # fresh component (vertex was bare)
            return h

        if v1 is None and v2 is not None:
            return self.insert_disjoint_arc(arc.reversed(), v2, None, face).twin

        # Both endpoints exist.
        h = self._make_pair(arc, v1, v2)
        g = h.twin
        was_isolated1, was_isolated2 = v1.is_isolated, v2.is_isolated
        bare1 = was_isolated1 or not v1.out
        bare2 = was_isolated2 or not v2.out
        f1 = self._splice_at(v1, h, g)
        f2 = self._splice_at(v2, g, h)
        f = f1 if f1 is not None else f2
        if f is None:
            raise AnchorMismatch("cannot determine the containing face")
        if f1 is not None and f2 is not None and f1 is not f2:
            raise ArcNotDisjoint("arc endpoints see different faces")

        if bare1 and bare2:
            h.face = g.face = f
            f.ccbs.append(h)
            return h

        orbit = h.cycle()
        if g in orbit:
            # No face split: the edge extended a component or merged two
            # CCBs of f into one.
            for e in orbit:
                e.face = f
            reps = [r for r in f.ccbs if r not in orbit]
            reps.append(h)
            f.ccbs = reps
            return h

        # Both endpoints were on the same CCB: the face splits.
        cycle_h = orbit
        cycle_g = g.cycle()
        f_new = Face(next(self._next_id))
        self.faces.append(f_new)
        f_new.payload = f.payload
        orbit_set = set(cycle_h) | set(cycle_g)
        other_reps = [r for r in f.ccbs if r not in orbit_set]
        for e in cycle_h:
            e.face = f
        for e in cycle_g:
            e.face = f_new
        f.ccbs = [h]
        f_new.ccbs = [g]
        for rep in other_reps:
            target = f_new if self.side_of_cycle(rep.source.point, cycle_g) == LEFT else f
            target.ccbs.append(rep)
            if target is f_new:
                for e in rep.cycle():
                    e.face = f_new
        moved = []
        for w in f.isolated:
            if self.side_of_cycle(w.point, cycle_g) == LEFT:
                moved.append(w)
        for w in moved:
            del f.isolated[w]
            f_new.isolated[w] = None
            w.isolated_face = f_new
        return h

    # -- edge removal and edge merging ----------------------------------------

    def remove_edge(self, h: Halfedge, keep_isolated: bool = True) -> None:
        """Delete the edge (h, twin).  Merges the two incident faces when
        they differ; a bridge split leaves both cycles on the same face.
        Endpoints left bare become isolated vertices (or are deleted)."""
        g = h.twin
        f1, f2 = h.face, g.face

        # Survivor wiring: bypass h at its source and target.
        a1 = h.prv  # arrives at h.source
        b1 = g.nxt  # leaves h.source
        a2 = g.prv  # arrives at h.target
        b2 = h.nxt  # leaves h.target
        v1, v2 = h.source, h.target
        v1.out.remove(h)
        v2.out.remove(g)

        survivors = []
        if a1 is not g:  # source keeps other edges
            a1.nxt = b1
            b1.prv = a1
            survivors.append(b1)
        if a2 is not h:  # target keeps other edges
            a2.nxt = b2
            b2.prv = a2
            survivors.append(b2)

        keep = f1
        drop = f2 if f2 is not f1 else None

        self.halfedges.remove(h)
        self.halfedges.remove(g)

        cycles: List[List[Halfedge]] = []
        seen: Set[Halfedge] = set()
        for s in survivors:
            if s in seen:
                continue
            cyc = s.cycle()
            seen.update(cyc)
            cycles.append(cyc)
        for cyc in cycles:
            for e in cyc:
                e.face = keep

        # Rebuild the kept face's CCB list.
        reps = [r for r in f1.ccbs if r not in (h, g) and r not in seen]
        if drop is not None:
            reps.extend(r for r in drop.ccbs if r not in (h, g) and r not in seen)
            for rep in reps:
                for e in rep.cycle():
                    e.face = keep
        reps.extend(cyc[0] for cyc in cycles)
        keep.ccbs = reps
        if drop is not None:
            for w in drop.isolated:
                w.isolated_face = keep
                keep.isolated[w] = None
            self.faces.remove(drop)
        _unlink((h, g), (), () if drop is None else (drop,))

        for v in (v1, v2):
            if not v.out:
                if keep_isolated:
                    v.isolated_face = keep
                    keep.isolated[v] = None
                else:
                    self._drop_vertex(v)

    def merge_edges_at(self, v: Vertex) -> Halfedge:
        """Fuse the two edges at a degree-2 vertex into one (the arcs must
        be mergeable); returns the merged halfedge."""
        if v.degree != 2 or v.is_isolated:
            raise ValueError("vertex must have exactly two incident edges")
        h1, h2 = v.out  # v->a and v->b
        p1 = h1.twin  # a->v
        p2 = h2  # v->b
        if not is_mergeable(p1.arc, p2.arc):
            raise ValueError("incident arcs are not mergeable")
        arc_f = merge(p1.arc, p2.arc)
        a_v, b_v = p1.source, p2.target
        H = Halfedge(a_v, arc_f, next(self._next_id))
        G = Halfedge(b_v, arc_f.reversed(), next(self._next_id))
        H.twin, G.twin = G, H
        q1 = h2.twin  # b->v
        q2 = h1  # v->a
        # p1.prv is q2 exactly when a has degree one (the walk turns
        # around there); same for the other three chain neighbors.
        H.prv = p1.prv if p1.prv is not q2 else G
        H.nxt = p2.nxt if p2.nxt is not q1 else G
        G.prv = q1.prv if q1.prv is not p2 else H
        G.nxt = q2.nxt if q2.nxt is not p1 else H
        H.prv.nxt = H
        H.nxt.prv = H
        G.prv.nxt = G
        G.nxt.prv = G
        H.face = p1.face
        G.face = q1.face
        H.payload = p1.payload
        G.payload = q1.payload
        a_v.out[a_v.out.index(p1)] = H
        b_v.out[b_v.out.index(q1)] = G
        for f in {p1.face, q1.face}:
            f.ccbs = [
                (H if r in (p1, p2) else (G if r in (q1, q2) else r)) for r in f.ccbs
            ]
            dedup = []
            for r in f.ccbs:
                if r not in dedup:
                    dedup.append(r)
            f.ccbs = dedup
        for e in (p1, p2, q1, q2):
            self.halfedges.remove(e)
        self.halfedges.extend((H, G))
        self._drop_vertex(v)
        _unlink((p1, p2, q1, q2), (v,), ())
        return H

    def set_edge_payload(self, h: Halfedge, value: Any) -> None:
        h.payload = value
        h.twin.payload = value

    # -- point location -------------------------------------------------------

    def side_of_cycle(self, q: DirPoint, cycle: Sequence[Halfedge]) -> str:
        """Which side of a boundary cycle q lies on; LEFT is the side the
        cycle's face lies on.  q must not lie on the cycle.

        The side is read at a point p of the cycle closest to q: the short
        arc from q to p meets the cycle nowhere else, so q lies on the side
        the cycle has next to p.  Closeness is the signed squared cosine of
        the angle to q, times |q|^2: <q,v>|<q,v>|/|v|^2 at a vertex v, and
        |q|^2 - <q,n>^2/|n|^2 at the foot q|n|^2 - <q,n>n of an arc with
        normal n, when the foot is strictly inside the arc.  At such a foot
        q is LEFT iff the arc's twin is in the cycle too or <n, q> > 0.  At
        a vertex v it is LEFT iff cross(v, q), the normal of the arc from
        v toward q, lies strictly inside one of the cycle's corners at v:
        the CCW gap from an outgoing normal to the normal of the twin of
        the halfedge before it (all of the ring at a degree-1 tip)."""
        x = q.dir
        qq = x.norm_sq()
        best: Optional[Fraction] = None
        for h in cycle:
            v = h.source.point.dir
            s = dot(x, v)
            c = Fraction(s * abs(s), v.norm_sq())
            if best is None or c > best:
                best, near, at_vertex = c, h, True
            n = h.arc.normal
            t = dot(x, n)
            nn = n.norm_sq()
            foot = Vec3(x.x * nn - n.x * t, x.y * nn - n.y * t, x.z * nn - n.z * t)
            if strictly_inside_arc(foot, h.arc):
                c = qq - Fraction(t * t, nn)
                if c > best:
                    best, near, at_vertex = c, h, False
        if not at_vertex:
            left = near.twin in cycle or dot(near.arc.normal, x) > 0
            return LEFT if left else RIGHT
        v = near.source
        axis = v.point.dir
        d = cross(axis, x)
        for h in cycle:
            if h.source is v:
                back = h.prv.twin
                if back is h or ccw_strictly_before(axis, h.arc.normal, d, back.arc.normal):
                    return LEFT
        return RIGHT

    def locate(self, p) -> Cell:
        """Naive point location: scan vertices, edges, then faces."""
        q = as_point(p)
        v = self.find_vertex(q)
        if v is not None:
            return Cell("vertex", v)
        for h in self.edges():
            if point_on_arc(q, h.arc):
                return Cell("edge", h)
        for f in self.faces:
            if all(self.side_of_cycle(q, rep.cycle()) == LEFT for rep in f.ccbs):
                return Cell("face", f)
        raise RuntimeError("locate found no containing cell")  # pragma: no cover

    def interior_point(self, face: Face) -> DirPoint:
        """An exact rational direction strictly inside the face."""
        if not face.ccbs:
            for cand in (
                Vec3(0, 0, 1), Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(1, 2, 3),
                Vec3(-1, 3, -2), Vec3(5, -4, 1),
            ):
                q = classify(cand)
                if all(w.point != q for w in face.isolated):
                    return q
            raise RuntimeError("no free direction found")  # pragma: no cover
        rep = None
        for r in face.ccbs:
            cyc = r.cycle()
            for h in cyc:
                if h.twin.face is not face:
                    rep = h
                    break
            if rep is not None:
                break
        if rep is None:
            rep = face.ccbs[0]
        m = rep.arc.interior_point()
        n = rep.arc.normal
        k = Fraction(1)
        for _ in range(128):
            q_dir = m.dir.scale(k) + n
            if not q_dir.is_zero():
                q = classify(q_dir)
                if self._strictly_inside(q, face):
                    return q
            k *= 4
        raise RuntimeError("interior point search failed")  # pragma: no cover

    def _strictly_inside(self, q: DirPoint, face: Face) -> bool:
        if q in self._vertex_map:
            return False
        for rep in face.ccbs:
            for h in rep.cycle():
                if point_on_arc(q, h.arc):
                    return False
        return all(self.side_of_cycle(q, rep.cycle()) == LEFT for rep in face.ccbs)

    # -- validation ------------------------------------------------------------

    def validate(self, geometry: bool = True) -> List[str]:
        """Check DCEL integrity, Euler's formula, and (optionally) the
        geometric consistency of the stored arcs.  Returns the list of
        violations; empty means the arrangement is sound."""
        errs: List[str] = []
        live = set(id(h) for h in self.halfedges)
        for h in self.halfedges:
            for link in (h.twin, h.nxt, h.prv):
                if id(link) not in live:
                    errs.append(f"{h}: dangling link to a removed halfedge")
            if h.twin.twin is not h or h.twin is h:
                errs.append(f"{h}: broken twin involution")
            if h.nxt.prv is not h or h.prv.nxt is not h:
                errs.append(f"{h}: next/prev not inverse")
            if h.nxt.source is not h.target:
                errs.append(f"{h}: next does not start at target")
            if h.face is not h.nxt.face:
                errs.append(f"{h}: face differs along CCB")
            if h not in h.source.out:
                errs.append(f"{h}: missing from source vertex ring")
        seen: Set[int] = set()
        for f in self.faces:
            for rep in f.ccbs:
                if rep.face is not f:
                    errs.append(f"{f}: CCB rep {rep} points to another face")
                    continue
                for e in rep.cycle():
                    if e.face is not f:
                        errs.append(f"{f}: cycle member {e} has wrong face")
                    if e.id in seen:
                        errs.append(f"{e}: appears in two CCBs")
                    seen.add(e.id)
            for w in f.isolated:
                if w.isolated_face is not f:
                    errs.append(f"{w}: isolated face link broken")
        for h in self.halfedges:
            if h.id not in seen:
                errs.append(f"{h}: not reachable from any face CCB")
        # Euler: V - E + F = 1 + C with isolated vertices their own components.
        parent = {v.id: v.id for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for h in self.halfedges:
            a, b = find(h.source.id), find(h.target.id)
            if a != b:
                parent[a] = b
        comps = len({find(v.id) for v in self.vertices})
        V = len(self.vertices)
        E = len(self.halfedges) // 2
        F = len(self.faces)
        if V - E + F != 1 + comps:
            errs.append(f"Euler failure: V={V} E={E} F={F} C={comps}")
        if geometry:
            for h in self.halfedges:
                if h.arc.source != h.source.point or h.arc.target != h.target.point:
                    errs.append(f"{h}: arc endpoints disagree with vertices")
                if dot(h.arc.normal, h.source.point.dir) != 0:
                    errs.append(f"{h}: source not on arc plane")
            for v in self.vertices:
                bc = v.point.boundary_class
                if bc is BoundaryClass.ON_IDENTIFICATION and v not in self.identification_vertices:
                    errs.append(f"{v}: missing from identification registry")
                if bc is BoundaryClass.NORTH_POLE and self.pole_vertices.get("north") is not v:
                    errs.append(f"{v}: missing from pole registry")
                if bc is BoundaryClass.SOUTH_POLE and self.pole_vertices.get("south") is not v:
                    errs.append(f"{v}: missing from pole registry")
                axis = v.point.dir
                ns = [h.arc.normal for h in v.out]
                k = len(ns)
                if k > 2 and not all(
                    ccw_strictly_before(axis, ns[i], ns[(i + 1) % k], ns[(i + 2) % k])
                    for i in range(k)
                ):
                    errs.append(f"{v}: vertex ring not CCW-sorted")
        return errs


def new_arrangement() -> SphereArrangement:
    return SphereArrangement()


# -- aggregate construction ---------------------------------------------------


def _order_along(arc: GeodesicArc, pts: List[DirPoint]) -> List[DirPoint]:
    n = arc.normal

    def cmp(a: DirPoint, b: DirPoint) -> int:
        if a == b:
            return 0
        return -1 if det3(a.dir, b.dir, n) > 0 else 1

    return sorted(pts, key=functools.cmp_to_key(cmp))


def _split_all(
    tagged_arcs: List[Tuple[GeodesicArc, Any]],
    extra_points: Sequence[Tuple[DirPoint, Any]] = (),
) -> List[Tuple[GeodesicArc, List[Any]]]:
    """Split arcs at all pairwise intersections (and at the given extra
    points).  Returns interior-disjoint sub-arcs, each with the list of
    tags of the input arcs it belongs to.  Arcs sharing a tag group key
    (tag[0]) are assumed interior-disjoint already and are not paired.

    Each pair is decided from a table of <normal, endpoint> on the
    integer triples, one entry per arc and per distinct endpoint of the
    other groups' arcs, by three rules:

    - Two arcs on one great circle are cut at each endpoint of one that
      lies strictly inside the other, with no intersect call: an overlap
      ends, and two arcs touch, only at endpoints of the two arcs.
    - Two arcs on different circles go to intersect only if they share
      no endpoint, neither has both endpoints strictly on one side of
      the other's plane, and not both have an endpoint on the other's
      circle.  A minor arc is made of positive combinations of its
      endpoints, so it misses a plane that has both of them strictly on
      one side; two arcs that share an endpoint p meet only at p, which
      cuts neither; and when each has an endpoint on the other's circle,
      those endpoints are antipodal and the arcs do not meet.
    - An arc with no cut inside it is its own piece."""
    arcs = [a for a, _ in tagged_arcs]
    n = len(arcs)
    index: Dict[DirPoint, int] = {}
    ends = [
        (index.setdefault(a.source, len(index)), index.setdefault(a.target, len(index)))
        for a in arcs
    ]
    points = list(index)
    coords = [(p.dir.x, p.dir.y, p.dir.z) for p in points]
    groups: Dict[Any, List[int]] = {}
    for i, (_, tag) in enumerate(tagged_arcs):
        groups.setdefault(tag[0], []).append(i)
    blocks = list(groups.values())
    # an arc's row of sides covers the endpoints of the other groups'
    # arcs: all but those its own group alone has
    block_ends = [{k for j in b for k in ends[j]} for b in blocks]
    users = Counter(k for e in block_ends for k in e)
    every = set(range(len(coords)))
    side: List[List[Any]] = [[]] * n
    for b, e in zip(blocks, block_ends):
        others = every.difference(k for k in e if users[k] == 1)
        for i in b:
            nx, ny, nz = arcs[i].normal.x, arcs[i].normal.y, arcs[i].normal.z
            row: List[Any] = [0] * len(coords)
            for k in others:
                x, y, z = coords[k]
                row[k] = nx * x + ny * y + nz * z
            side[i] = row

    # strictly_inside_arc on the ints: for an arc s -> t with normal n,
    # det3(s, q, n) = <q, n x s> and det3(q, t, n) = <q, t x n>; the two
    # triples are made on the arc's first same-circle pair
    wedges: List[Any] = [None] * n

    def inside(k: int, i: int) -> bool:
        w = wedges[i]
        if w is None:
            (sx, sy, sz), (tx, ty, tz) = coords[ends[i][0]], coords[ends[i][1]]
            m = arcs[i].normal
            nx, ny, nz = m.x, m.y, m.z
            w = wedges[i] = (
                ny * sz - nz * sy, nz * sx - nx * sz, nx * sy - ny * sx,
                ty * nz - tz * ny, tz * nx - tx * nz, tx * ny - ty * nx,
            )
        x, y, z = coords[k]
        return w[0] * x + w[1] * y + w[2] * z > 0 and w[3] * x + w[4] * y + w[5] * z > 0

    cuts: List[Set[DirPoint]] = [set() for _ in tagged_arcs]
    later = [i for b in blocks for i in b]
    for b in blocks:
        later = later[len(b):]  # each arc is paired with the arcs of later groups
        for i in b:
            si, ti = ends[i]
            row = side[i]
            for j in later:
                sj, tj = ends[j]
                d0, d1 = row[sj], row[tj]
                if not (d0 or d1):  # the arcs lie on one great circle
                    for k in (sj, tj):
                        if k != si and k != ti and inside(k, i):
                            cuts[i].add(points[k])
                    for k in (si, ti):
                        if k != sj and k != tj and inside(k, j):
                            cuts[j].add(points[k])
                    continue
                if si == sj or si == tj or ti == sj or ti == tj:
                    continue
                if d0 > 0 and d1 > 0 or d0 < 0 and d1 < 0:
                    continue
                e0, e1 = side[j][si], side[j][ti]
                if e0 > 0 and e1 > 0 or e0 < 0 and e1 < 0:
                    continue
                if (d0 == 0 or d1 == 0) and (e0 == 0 or e1 == 0):
                    # Each arc has an endpoint on the other's circle.  The
                    # circles meet only at +-cross(n_i, n_j), and the two
                    # endpoints are not shared, so they are antipodal.  A
                    # minor arc holds at most one of two antipodal points,
                    # so each arc meets the other's circle only at its own
                    # endpoint, and the arcs do not meet.
                    continue
                for p in intersect(arcs[i], arcs[j]).points:
                    cuts[i].add(p)
                    cuts[j].add(p)
    for p, _tag in extra_points:
        for i, (a, _t) in enumerate(tagged_arcs):
            if point_on_arc(p, a, closed=False):
                cuts[i].add(p)

    pieces: Dict[frozenset, Tuple[GeodesicArc, List[Any]]] = {}
    for i, (a, tag) in enumerate(tagged_arcs):
        # every cut is on the closed arc: intersect's points lie on both arcs
        pts = [p for p in cuts[i] if p != a.source and p != a.target]
        chain = [a.source] + _order_along(a, pts) + [a.target] if pts else [a.source, a.target]
        for s, t in zip(chain, chain[1:]):
            key = frozenset((s, t))
            if key in pieces:
                pieces[key][1].append(tag)
            else:
                # an uncut arc is its own piece; a cut piece keeps its input
                # arc's normal: the cross product of two split points would
                # be wider for the same plane
                pieces[key] = (_mk_arc(s, t, a.normal) if pts else a, [tag])
    return list(pieces.values())


def sweep_build(arcs: Iterable[GeodesicArc]) -> SphereArrangement:
    """Build the arrangement induced by a set of (possibly intersecting,
    possibly overlapping) geodesic arcs."""
    prepared: List[Tuple[GeodesicArc, Any]] = []
    for idx, a in enumerate(arcs):
        if not isinstance(a, GeodesicArc):
            raise InvalidArc(f"not a geodesic arc: {a!r}")
        for piece in make_arc(a.source, a.target):
            prepared.append((piece, (idx,)))
    arr, _ = _assemble([sub for sub, _tags in _split_all(prepared)])
    return arr


def _ring_sorted(v: Vertex) -> List[Halfedge]:
    """v's outgoing halfedges in CCW order of their normals, starting at
    the first one."""
    axis, start = v.point.dir, v.out[0].arc.normal
    turn = {h: ccw_class(axis, start, h.arc.normal) for h in v.out[1:]}
    if 0 in turn.values():
        raise ArcNotDisjoint(f"two arcs overlap at vertex {v}")

    def cmp(g: Halfedge, h: Halfedge) -> int:
        if turn[g] != turn[h]:
            return turn[g] - turn[h]
        d = det3(g.arc.normal, h.arc.normal, axis)
        if d == 0:  # same turn class and parallel normals: codirectional
            raise ArcNotDisjoint(f"two arcs overlap at vertex {v}")
        return -1 if d > 0 else 1

    return v.out[:1] + sorted(v.out[1:], key=functools.cmp_to_key(cmp))


def _assemble(
    arcs: Sequence[GeodesicArc], points: Iterable[DirPoint] = ()
) -> Tuple[SphereArrangement, List[Halfedge]]:
    """Build, in one pass, the arrangement of arcs whose interiors are
    pairwise disjoint and hold no endpoint of another arc, plus isolated
    points off every arc (a point that is already a vertex is skipped).
    Returns it with, for each arc, the halfedge directed along it.

    Vertices and twin pairs are made in arc order, each pair led by the
    halfedge along its arc.  Each vertex ring is sorted once, the
    next/prev links follow from the rings, and each boundary cycle of a
    connected component bounds its own face.  Every further component,
    and every point, lies in the face whose cycles all have it on their
    left (side_of_cycle); the face keeps one of the newcomer's cycles
    and hands each of its old cycles inside one of the newcomer's other
    cycles to the new face there.

    The result has the same vertices, vertex rings and cells as
    inserting the arcs in order with insert_disjoint_arc, then the
    points with insert_isolated_vertex.  Faces are listed in the order
    they are found, the initial face first, and each CCB is represented
    by the first halfedge of its cycle.  The input is trusted: nothing
    checks that the arcs are interior-disjoint."""
    arr = SphereArrangement()
    vmap = arr._vertex_map
    root: Dict[Vertex, Vertex] = {}  # union-find over the vertices

    def find(v: Vertex) -> Vertex:
        while root[v] is not v:
            root[v] = v = root[root[v]]
        return v

    def vertex(p: DirPoint) -> Vertex:
        v = vmap.get(p)
        if v is None:
            v = arr._new_vertex(p)
            root[v] = v
        return v

    along: List[Halfedge] = []
    for a in arcs:
        v1, v2 = vertex(a.source), vertex(a.target)
        root[find(v1)] = find(v2)
        h = arr._make_pair(a, v1, v2)
        v1.out.append(h)
        v2.out.append(h.twin)
        along.append(h)

    for v in arr.vertices:
        out = v.out = _ring_sorted(v) if len(v.out) > 2 else v.out
        # the face corner in the CCW gap (out[i], out[i+1]) turns from
        # the incoming twin of out[i+1] to out[i]
        for h, g in zip(out, out[1:] + out[:1]):
            g.twin.nxt = h
            h.prv = g.twin

    cycles: List[List[Halfedge]] = []
    seen: Set[Halfedge] = set()
    components: Dict[Vertex, List[int]] = {}
    for h in arr.halfedges:
        if h not in seen:
            cyc = h.cycle()
            seen.update(cyc)
            components.setdefault(find(h.source), []).append(len(cycles))
            cycles.append(cyc)

    region: Dict[Face, List[int]] = {arr.initial_face(): []}

    def face_of(q: DirPoint) -> Face:
        *tested, last = region
        for f in tested:
            if all(arr.side_of_cycle(q, cycles[c]) == LEFT for c in region[f]):
                return f
        return last

    for first, *others in components.values():
        host = face_of(cycles[first][0].source.point)
        old, region[host] = region[host], [first]
        fresh = [(Face(next(arr._next_id)), c) for c in others]
        region.update((f, [c]) for f, c in fresh)
        for c in old:
            q = cycles[c][0].source.point
            inside = (f for f, nc in fresh if arr.side_of_cycle(q, cycles[nc]) == LEFT)
            region[next(inside, host)].append(c)

    for f, cs in region.items():
        f.ccbs = [cycles[c][0] for c in cs]
        for c in cs:
            for e in cycles[c]:
                e.face = f
    arr.faces = list(region)

    for p in points:
        if p not in vmap:
            v = arr._new_vertex(p)
            v.isolated_face = f = face_of(p)
            f.isolated[v] = None
    return arr, along


# -- overlay -------------------------------------------------------------------


class OverlayCallbacks(NamedTuple):
    """The ten payload-merge functions of a map overlay, one per
    provenance case.  Each receives the payloads of the two inducing
    features (first the left operand's, then the right's) and returns
    the payload of the new feature."""

    vertex_vertex: Callable[[Any, Any], Any] = lambda a, b: None
    vertex_edge: Callable[[Any, Any], Any] = lambda a, b: None
    edge_vertex: Callable[[Any, Any], Any] = lambda a, b: None
    vertex_face: Callable[[Any, Any], Any] = lambda a, b: None
    face_vertex: Callable[[Any, Any], Any] = lambda a, b: None
    edge_edge: Callable[[Any, Any], Any] = lambda a, b: None
    edge_overlap: Callable[[Any, Any], Any] = lambda a, b: None
    edge_face: Callable[[Any, Any], Any] = lambda a, b: None
    face_edge: Callable[[Any, Any], Any] = lambda a, b: None
    face_face: Callable[[Any, Any], Any] = lambda a, b: None


def overlay(
    a: SphereArrangement, b: SphereArrangement, cb: OverlayCallbacks
) -> SphereArrangement:
    """Overlay two arrangements; every output cell's payload is produced
    by exactly one callback named after its provenance case."""
    tagged: List[Tuple[GeodesicArc, Any]] = []
    for side, arr in (("a", a), ("b", b)):
        for h in arr.edges():
            tagged.append((h.arc, (side, h)))
    iso_points: List[Tuple[DirPoint, Any]] = []
    for side, arr in (("a", a), ("b", b)):
        for v in arr.vertices:
            if v.is_isolated:
                iso_points.append((v.point, (side, v)))

    pieces = _split_all(tagged, iso_points)
    # Isolated source vertices not on an output feature stay isolated.
    out, along = _assemble([sub for sub, _ in pieces], [p for p, _ in iso_points])

    # --- provenance of output edges, and of the faces beside them --------
    # edge_prov[h][side] is the source halfedge of that side h runs along;
    # h's face lies in its face, and the twin's face in its twin's face.
    edge_prov: Dict[Halfedge, Dict[str, Halfedge]] = {}
    face_prov: Dict[Face, Dict[str, Face]] = {f: {} for f in out.faces}
    for h, (_, tags) in zip(along, pieces):
        prov: Dict[str, Halfedge] = {}
        back: Dict[str, Halfedge] = {}
        for side, src in tags:
            if dot(src.arc.normal, h.arc.normal) < 0:
                src = src.twin
            prov[side], back[side] = src, src.twin
            face_prov[h.face][side] = src.face
            face_prov[h.twin.face][side] = src.twin.face
        edge_prov[h], edge_prov[h.twin] = prov, back
    # A face no edge of a side touches takes that side's face by one
    # worklist flood from the faces that have it.  The flood crosses only
    # edges of the other color (both faces beside an edge of this side
    # have it already), and crossing one stays inside one source face of
    # this side, so the answer does not depend on the order.
    for side, arr in (("a", a), ("b", b)):
        work = [f for f in out.faces if side in face_prov[f]]
        while work:
            f = work.pop()
            src = face_prov[f][side]
            for rep in f.ccbs:
                for h in rep.cycle():
                    nb = h.twin.face
                    if side not in face_prov[nb]:
                        face_prov[nb][side] = src
                        work.append(nb)
        # The faces of a sphere map are connected across its edges, so a
        # face the flood does not reach meets no path to an edge of this
        # side: the operand has no edges, and then it has just one face.
        for f in out.faces:
            if side not in face_prov[f]:
                (face_prov[f][side],) = arr.faces

    # --- provenance of output vertices ------------------------------------
    def vertex_side_prov(v: Vertex, side: str, arr: SphereArrangement):
        sv = arr.find_vertex(v.point)
        if sv is not None:
            return ("vertex", sv)
        for h in v.out:
            prov = edge_prov[h]
            if side in prov:
                return ("edge", prov[side])
        # Interior to a face of that side: inherit from an incident cell.
        if v.out:
            f = v.out[0].face
            return ("face", face_prov[f][side])
        f = v.isolated_face
        return ("face", face_prov[f][side])

    # --- apply the ten callbacks ------------------------------------------
    for v in out.vertices:
        ka, ra = vertex_side_prov(v, "a", a)
        kb, rb = vertex_side_prov(v, "b", b)
        pa = ra.payload
        pb = rb.payload
        if ka == "vertex" and kb == "vertex":
            v.payload = cb.vertex_vertex(pa, pb)
        elif ka == "vertex" and kb == "edge":
            v.payload = cb.vertex_edge(pa, pb)
        elif ka == "edge" and kb == "vertex":
            v.payload = cb.edge_vertex(pa, pb)
        elif ka == "vertex" and kb == "face":
            v.payload = cb.vertex_face(pa, pb)
        elif ka == "face" and kb == "vertex":
            v.payload = cb.face_vertex(pa, pb)
        elif ka == "edge" and kb == "edge":
            v.payload = cb.edge_edge(pa, pb)
        else:  # pragma: no cover - an output vertex always has a feature side
            raise AssertionError("vertex with face/face provenance")

    for h in out.edges():
        prov = edge_prov[h]
        if "a" in prov and "b" in prov:
            val = cb.edge_overlap(prov["a"].payload, prov["b"].payload)
        elif "a" in prov:
            fb = face_prov[h.face]["b"]
            val = cb.edge_face(prov["a"].payload, fb.payload)
        else:
            fa = face_prov[h.face]["a"]
            val = cb.face_edge(fa.payload, prov["b"].payload)
        out.set_edge_payload(h, val)

    for f in out.faces:
        fa, fb = face_prov[f]["a"], face_prov[f]["b"]
        f.payload = cb.face_face(fa.payload, fb.payload)
    return out


# -- debug dump ------------------------------------------------------------------


def dumps(arr: SphereArrangement) -> str:
    """Round-trippable text dump: vertices, edges, face CCB index lists."""
    vid = {v: i for i, v in enumerate(arr.vertices)}
    lines = [f"spherical-arrangement {len(arr.vertices)} {len(arr.edges())} {len(arr.faces)}"]
    for v in arr.vertices:
        d = v.point.dir
        iso = " isolated" if v.is_isolated else ""
        lines.append(
            f"v {format_rat(d.x)} {format_rat(d.y)} {format_rat(d.z)}{iso}"
        )
    eid = {}
    for i, h in enumerate(arr.edges()):
        eid[min(h.id, h.twin.id)] = i
        n = h.arc.normal
        lines.append(
            f"e {vid[h.source]} {vid[h.target]} "
            f"{format_rat(n.x)} {format_rat(n.y)} {format_rat(n.z)}"
        )
    for f in arr.faces:
        cycles = []
        for rep in f.ccbs:
            cycles.append(",".join(str(vid[h.source]) for h in rep.cycle()))
        iso = ",".join(str(vid[w]) for w in sorted(f.isolated, key=lambda v: vid[v]))
        lines.append(f"f ccbs={';'.join(cycles)} isolated={iso}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> SphereArrangement:
    """Rebuild an arrangement from its dump (payloads are not carried).

    The dump is outside text, so it is checked before it is assembled:
    the arcs, split at their pairwise intersections and at the isolated
    points, must come back as themselves, and no isolated point may
    repeat or be an arc endpoint.  Otherwise ArcNotDisjoint is raised."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    nv, ne = int(head[1]), int(head[2])
    dirs: List[Vec3] = []
    isolated: List[bool] = []
    for ln in lines[1 : 1 + nv]:
        parts = ln.split()
        dirs.append(Vec3(parts[1], parts[2], parts[3]))
        isolated.append(ln.endswith(" isolated"))
    def num(text: str) -> Rational:
        # an integral value stays an int, as a computed normal is
        q = Fraction(text)
        return q.numerator if q.denominator == 1 else q

    arcs = []
    for ln in lines[1 + nv : 1 + nv + ne]:
        parts = ln.split()
        s, t = int(parts[1]), int(parts[2])
        normal = Vec3(*map(num, parts[3:6]))
        arcs.append(arc_between(dirs[s], dirs[t], normal))
    points = [classify(d) for d, iso in zip(dirs, isolated) if iso]
    pieces = _split_all([(a, (i,)) for i, a in enumerate(arcs)], [(p, None) for p in points])
    ends = {p for a in arcs for p in (a.source, a.target)}
    if (
        Counter(frozenset((a.source, a.target)) for a in arcs)
        != Counter(frozenset((a.source, a.target)) for a, _ in pieces)
        or len(set(points)) < len(points)
        or ends.intersection(points)
    ):
        raise ArcNotDisjoint("the dumped arcs and isolated points are not interior-disjoint")
    return _assemble(arcs, points)[0]
