"""Points and geodesic arcs on the unit sphere, with the exact predicate
and construction set the arrangement engine needs.

A point is named by an unnormalized rational direction vector and stored
as that direction's primitive integer triple: the coprime ints, sign
kept, that every positive multiple of the direction reduces to.  Point
equality is therefore a comparison of three ints.  An arc of a great
circle is a pair of endpoints plus a normal of the oriented plane through
the origin containing them.  Normals are not reduced: an arc's normal is
the cross product of the endpoints it was made from, and the pieces of a
split arc keep it.  Triple products go through ``kernel.det3``, which
builds no vector.  ``intersect`` decides whether two arcs cross from the
signs of four dot products, each of one arc's normal with an endpoint of
the other; only on a hit does it form cross(n1, n2) and reduce it to its
point (``classify``).

The sphere is parameterized by azimuth u in [-pi, pi] and latitude v in
[-pi/2, pi/2]; the u = +-pi meridian half (y = 0, x < 0) is the
identification curve and (0, 0, -+1) are the contraction poles.  All
predicates are exact over the rationals and invariant under positive
scaling of every input direction.
"""

from __future__ import annotations

from enum import Enum
from typing import List, NamedTuple, Optional, Tuple, Union

from .kernel import (
    EQUAL,
    LARGER,
    SMALLER,
    Frozen,
    Sign,
    Vec3,
    ZeroVector,
    ccw_class,
    ccw_strictly_before,
    cross,
    det3,
    dot,
    exact_vec,
    parallel_same_direction,
    scale_key,
    sign,
)


class PreconditionViolation(ValueError):
    pass


class DegenerateArc(ValueError):
    """Equal or antipodal arc endpoints."""


class PointNotInterior(ValueError):
    pass


class NotMergeable(ValueError):
    pass


class BoundaryClass(Enum):
    SOUTH_POLE = "south_pole"
    NORTH_POLE = "north_pole"
    ON_IDENTIFICATION = "on_identification"
    INTERIOR = "interior"


class BoundarySide(Enum):
    """Where an arc end sits in parameter space."""

    LEFT = "u_min"  # u = -pi
    RIGHT = "u_max"  # u = +pi
    BOTTOM = "v_min"  # south pole
    TOP = "v_max"  # north pole
    ON_IDENTIFICATION = "on_identification"  # the whole curve lies on u = +-pi
    INTERIOR = "interior"


MIN_END = 0
MAX_END = 1


class DirPoint(Frozen):
    """A point on the sphere.  `dir` is the primitive integer triple of
    the direction that names it (see `classify`, the one constructor), so
    two points are equal exactly when their triples are; `key_hash` is
    the hash of that triple, computed once."""

    __slots__ = ("dir", "boundary_class", "key_hash")
    dir: Vec3
    boundary_class: BoundaryClass
    key_hash: int

    def __init__(self, dir: Vec3, boundary_class: BoundaryClass, key_hash: int):
        object.__setattr__(self, "dir", dir)
        object.__setattr__(self, "boundary_class", boundary_class)
        object.__setattr__(self, "key_hash", key_hash)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DirPoint):
            return NotImplemented
        a, b = self.dir, other.dir
        return a.x == b.x and a.y == b.y and a.z == b.z

    def __hash__(self) -> int:
        return self.key_hash

    def __repr__(self) -> str:
        return f"DirPoint{self.dir!r}"


def classify(direction: Vec3) -> DirPoint:
    """The point a nonzero direction names: its primitive integer triple
    (scale_key), tagged with its boundary class."""
    if direction.is_zero():
        raise ZeroVector("cannot classify the zero vector")
    return primitive_point(*scale_key(direction.x, direction.y, direction.z))


def primitive_point(x: int, y: int, z: int) -> DirPoint:
    """The point of a primitive integer triple (coprime ints, not all
    zero), tagged with its boundary class: classify with no reduction."""
    if x == 0 and y == 0:
        cls = BoundaryClass.NORTH_POLE if z > 0 else BoundaryClass.SOUTH_POLE
    elif y == 0 and x < 0:
        cls = BoundaryClass.ON_IDENTIFICATION
    else:
        cls = BoundaryClass.INTERIOR
    return DirPoint(exact_vec(x, y, z), cls, hash((x, y, z)))


def as_point(p: Union[DirPoint, Vec3]) -> DirPoint:
    return p if isinstance(p, DirPoint) else classify(p)


NORTH = classify(Vec3(0, 0, 1))
SOUTH = classify(Vec3(0, 0, -1))

# Intersection of the identification arc with the xy-plane.
_IDENT_DIR = Vec3(-1, 0, 0)


def _is_pole(p: DirPoint) -> bool:
    return p.boundary_class in (BoundaryClass.NORTH_POLE, BoundaryClass.SOUTH_POLE)


def compare_u(p1: DirPoint, p2: DirPoint) -> Sign:
    """Compare azimuths.  Neither point may be a pole or lie on the
    identification curve."""
    for p in (p1, p2):
        if p.boundary_class is not BoundaryClass.INTERIOR:
            raise PreconditionViolation(f"compare_u needs interior points, got {p}")
    # the projections onto the xy-plane, turning about the north pole
    a = Vec3(p1.dir.x, p1.dir.y, 0)
    b = Vec3(p2.dir.x, p2.dir.y, 0)
    if ccw_class(NORTH.dir, a, b) == 0:
        return EQUAL
    # Rotating CCW from p1's projection, if the identification direction is
    # reached strictly before p2's projection then u(p1) > u(p2).
    return LARGER if ccw_strictly_before(NORTH.dir, a, _IDENT_DIR, b) else SMALLER


def compare_v(p1: DirPoint, p2: DirPoint) -> Sign:
    """Compare latitudes, exactly: by sign of z, then by squares of the
    normalized z-coordinates (flipped for the southern hemisphere)."""
    d1, d2 = p1.dir, p2.dir
    if d1.is_zero() or d2.is_zero():
        raise ZeroVector("compare_v needs nonzero directions")
    s1, s2 = sign(d1.z), sign(d2.z)
    if s1 != s2:
        return sign(s1 - s2)
    if s1 == 0:
        return EQUAL
    # Same hemisphere: compare z1^2 * |d2|^2 against z2^2 * |d1|^2.
    lhs = d1.z * d1.z * d2.norm_sq()
    rhs = d2.z * d2.z * d1.norm_sq()
    return sign(lhs - rhs) if s1 > 0 else sign(rhs - lhs)


def compare_uv(p1: DirPoint, p2: DirPoint) -> Sign:
    """Lexicographic comparison: u first, then v."""
    if p1 == p2:
        return EQUAL
    c = compare_u(p1, p2)
    return c if c != EQUAL else compare_v(p1, p2)


class GeodesicArc(Frozen):
    """A u-monotone arc of a great circle, subtending strictly less than pi.

    The arc runs counterclockwise from source to target around `normal`
    (so cross(source, target) is a positive multiple of `normal`).
    Two arcs are equal when their three fields are.
    """

    __slots__ = ("source", "target", "normal")
    source: DirPoint
    target: DirPoint
    normal: Vec3

    def __init__(self, source: DirPoint, target: DirPoint, normal: Vec3):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "normal", normal)

    def __eq__(self, other) -> bool:
        if other.__class__ is not GeodesicArc:
            return NotImplemented
        return (self.source, self.target, self.normal) == (
            other.source, other.target, other.normal
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.normal))

    def __repr__(self) -> str:
        return f"Arc[{self.source.dir!r} -> {self.target.dir!r}]"

    @property
    def is_vertical(self) -> bool:
        """Does the arc lie on a meridian plane, one containing the z-axis?"""
        return self.normal.z == 0

    def reversed(self) -> "GeodesicArc":
        return GeodesicArc(self.target, self.source, -self.normal)

    def endpoint(self, end: int) -> DirPoint:
        return self.source if end == MIN_END else self.target

    def interior_point(self) -> DirPoint:
        """Some exact rational point strictly inside the arc."""
        return classify(self.source.dir + self.target.dir)


def arc_between(source, target, normal: Optional[Vec3] = None) -> GeodesicArc:
    """Single arc from source to target (no boundary splitting).

    With no explicit normal, the short arc is taken.  An explicit normal
    must be a positive multiple of cross(source, target).
    """
    s, t = as_point(source), as_point(target)
    c = cross(s.dir, t.dir)
    if c.is_zero():
        raise DegenerateArc("equal or antipodal endpoints")
    if normal is None:
        normal = c
    elif not parallel_same_direction(c, normal):
        raise DegenerateArc("normal inconsistent with a short source->target arc")
    return GeodesicArc(s, t, normal)


def strictly_inside_arc(q: Vec3, arc: GeodesicArc) -> bool:
    """Is q (assumed coplanar with the arc) strictly between the endpoints?"""
    n = arc.normal
    return det3(arc.source.dir, q, n) > 0 and det3(q, arc.target.dir, n) > 0


def point_on_arc(p: Union[DirPoint, Vec3], arc: GeodesicArc, closed: bool = True) -> bool:
    """Exact membership of a point in an arc."""
    q = as_point(p)
    if dot(arc.normal, q.dir) != 0:
        return False
    if q == arc.source or q == arc.target:
        return closed
    return strictly_inside_arc(q.dir, arc)


def make_arc(source, target) -> List[GeodesicArc]:
    """The short great-circle arc from source to target, pre-split at the
    identification curve and the poles.  Pieces come back in source-to-
    target order and each is u-monotone."""
    s, t = as_point(source), as_point(target)
    n = cross(s.dir, t.dir)
    if n.is_zero():
        raise DegenerateArc("equal or antipodal endpoints")
    whole = GeodesicArc(s, t, n)

    cut: Optional[Vec3] = None
    if n.z == 0:
        # Vertical circle: passes through both poles; split at one if interior.
        for pole in (NORTH.dir, SOUTH.dir):
            if strictly_inside_arc(pole, whole):
                cut = pole
                break
    if cut is None and not (n.x == 0 and n.z == 0):
        # Crossing of the great circle with the y=0 plane on the x<0 side.
        for cand in (exact_vec(-n.z, 0, n.x), exact_vec(n.z, 0, -n.x)):
            if cand.x < 0 and strictly_inside_arc(cand, whole):
                cut = cand
                break
    if cut is None:
        return [whole]
    mid = classify(cut)
    return [GeodesicArc(s, mid, n), GeodesicArc(mid, t, n)]


def full_circle_arcs(normal: Vec3) -> List[GeodesicArc]:
    """A full great circle as four quadrant arcs, split so that crossings
    with the identification curve and the poles land on vertices."""
    if normal.is_zero():
        raise ZeroVector("great circle needs a nonzero normal")
    n = normal
    if n.z == 0:
        a = Vec3(0, 0, 1)
    else:
        cand = Vec3(-n.z, 0, n.x)
        a = cand if cand.x <= 0 else -cand
    b = cross(n, a)
    quarter_points = [a, b, -a, -b]
    arcs = []
    for i in range(4):
        arcs.append(arc_between(quarter_points[i], quarter_points[(i + 1) % 4], None))
    return arcs


def compare_v_at_u(p: Union[DirPoint, Vec3], arc: GeodesicArc) -> Sign:
    """Is p below (SMALLER), on (EQUAL), or above (LARGER) the arc at p's
    azimuth?  For vertical arcs p must be a pole or lie on the arc's
    meridian: on its plane, on the arc's side of the z-axis.  Along that
    meridian latitude is monotone, so a point off the arc lies above or
    below both of its ends."""
    q = as_point(p)
    if arc.is_vertical:
        if point_on_arc(q, arc):
            return EQUAL
        if not _is_pole(q):
            # an arc is shorter than pi, so one of its ends is no pole
            e = arc.target.dir if _is_pole(arc.source) else arc.source.dir
            d = q.dir
            if dot(arc.normal, d) != 0 or d.x * e.x + d.y * e.y <= 0:
                raise PreconditionViolation("point not on the vertical arc's meridian")
        return compare_v(q, arc.source)
    s = sign(dot(arc.normal, q.dir)) * sign(arc.normal.z)
    return Sign(s)


def _tangent_into(arc: GeodesicArc, p: DirPoint) -> Vec3:
    """Tangent vector at endpoint p pointing along the arc away from p."""
    if p == arc.source:
        return cross(arc.normal, arc.source.dir)
    if p == arc.target:
        return -cross(arc.normal, arc.target.dir)
    raise PreconditionViolation("p is not an endpoint of the arc")


def _frame(p: DirPoint) -> Tuple[Vec3, Vec3]:
    """(east, north) tangent frame at a non-pole point."""
    if _is_pole(p):
        raise PreconditionViolation("tangent frame undefined at a pole")
    east = cross(Vec3(0, 0, 1), p.dir)
    north = cross(p.dir, east)
    return east, north


def _compare_tangents(t1: Vec3, t2: Vec3, du: Vec3, north: Vec3) -> Sign:
    """Vertical order of two arcs by their tangents in the (du, north)
    frame; du is the direction the arcs extend in (east or west)."""
    c = dot(t1, du) * dot(t2, north) - dot(t1, north) * dot(t2, du)
    if c > 0:
        return SMALLER  # t2 turns further toward north: arc 2 is higher
    if c < 0:
        return LARGER
    if dot(t1, t2) > 0:
        return EQUAL  # same great circle: local overlap
    return Sign(sign(dot(t1, north)))


def compare_v_at_u_right(a1: GeodesicArc, a2: GeodesicArc, p) -> Sign:
    """Vertical order of two arcs immediately to the right of their shared
    left endpoint p."""
    q = as_point(p)
    t1, t2 = _tangent_into(a1, q), _tangent_into(a2, q)
    east, north = _frame(q)
    return _compare_tangents(t1, t2, east, north)


def compare_v_at_u_left(a1: GeodesicArc, a2: GeodesicArc, p) -> Sign:
    """Vertical order immediately to the left of the shared right endpoint."""
    q = as_point(p)
    t1, t2 = _tangent_into(a1, q), _tangent_into(a2, q)
    east, north = _frame(q)
    return _compare_tangents(t1, t2, -east, north)


class IntersectionResult(Frozen):
    """The points two arcs share, or the arc they overlap on."""

    __slots__ = ("points", "overlap")
    points: Tuple[DirPoint, ...]
    overlap: Optional[GeodesicArc]

    def __init__(self, points: Tuple[DirPoint, ...], overlap: Optional[GeodesicArc]):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "overlap", overlap)

    @property
    def empty(self) -> bool:
        return not self.points and self.overlap is None


def _reoriented(a2: GeodesicArc, n: Vec3) -> Tuple[DirPoint, DirPoint]:
    """Endpoints of a2 ordered CCW around n (a2 coplanar with n)."""
    if dot(a2.normal, n) > 0:
        return a2.source, a2.target
    return a2.target, a2.source


_NO_INTERSECTION = IntersectionResult((), None)


def intersect(a1: GeodesicArc, a2: GeodesicArc) -> IntersectionResult:
    """All intersections of two arcs: transversal points or the overlap
    sub-arc of coplanar arcs (a single-point overlap is reported as a
    point).  A transversal hit is decided by four dot products of a
    normal with an endpoint; the crossing point is formed only on a hit."""
    n1, n2 = a1.normal, a2.normal
    s1, t1, s2, t2 = a1.source.dir, a1.target.dir, a2.source.dir, a2.target.dir
    c = n1.x * s2.x + n1.y * s2.y + n1.z * s2.z
    d = n1.x * t2.x + n1.y * t2.y + n1.z * t2.z
    if c == 0 and d == 0:  # both ends of a2 on a1's circle: one circle
        s2, t2 = _reoriented(a2, n1)
        ends = [p for p in (a1.source, a1.target) if _on_circle_arc(p, s2, t2, n1)]
        ends += [
            p for p in (s2, t2) if _on_circle_arc(p, a1.source, a1.target, n1) and p not in ends
        ]
        if not ends:
            return _NO_INTERSECTION
        if len(ends) == 1:
            return IntersectionResult((ends[0],), None)
        # two distinct overlap endpoints, ordered CCW around n1
        p, q = ends if det3(ends[0].dir, ends[1].dir, n1) > 0 else ends[::-1]
        return IntersectionResult((), GeodesicArc(p, q, n1))
    # q = cross(n1, n2) and -q are where the two circles meet.  A point q
    # of an arc's circle lies on the closed arc (shorter than pi) iff both
    # end orientations det3(s, q, n) and det3(q, t, n) are >= 0, and -q iff
    # both are <= 0.  By Lagrange's identity, since <n1, s1> = <n1, t1> = 0,
    # a1's are |n1|^2 <n2, s1> and -|n1|^2 <n2, t1>, and a2's are
    # -|n2|^2 <n1, s2> and |n2|^2 <n1, t2>.  An arc's two are never both
    # zero, so at most one of +-q is on it.
    if c <= 0 and d >= 0:
        k = 1
    elif c >= 0 and d <= 0:
        k = -1
    else:
        return _NO_INTERSECTION
    e = k * (n2.x * s1.x + n2.y * s1.y + n2.z * s1.z)
    f = k * (n2.x * t1.x + n2.y * t1.y + n2.z * t1.z)
    if e < 0 or f > 0:
        return _NO_INTERSECTION
    x = n1.y * n2.z - n1.z * n2.y
    y = n1.z * n2.x - n1.x * n2.z
    z = n1.x * n2.y - n1.y * n2.x
    return IntersectionResult((classify(exact_vec(k * x, k * y, k * z)),), None)


def _on_circle_arc(q: DirPoint, s: DirPoint, t: DirPoint, n: Vec3) -> bool:
    """Is q, a point of the circle, on the closed arc from s CCW around n to t?"""
    return det3(s.dir, q.dir, n) >= 0 and det3(q.dir, t.dir, n) >= 0


def split(arc: GeodesicArc, p) -> Tuple[GeodesicArc, GeodesicArc]:
    """Split at an interior point; both halves keep the arc's normal."""
    q = as_point(p)
    if not point_on_arc(q, arc, closed=False):
        raise PointNotInterior(f"{q} is not interior to {arc}")
    return GeodesicArc(arc.source, q, arc.normal), GeodesicArc(q, arc.target, arc.normal)


def is_mergeable(a1: GeodesicArc, a2: GeodesicArc) -> bool:
    if not cross(a1.normal, a2.normal).is_zero():
        return False
    s2, t2 = _reoriented(a2, a1.normal)
    if a1.target == s2:
        lo, hi = a1.source, t2
    elif t2 == a1.source:
        lo, hi = s2, a1.target
    else:
        return False
    return det3(lo.dir, hi.dir, a1.normal) > 0


def merge(a1: GeodesicArc, a2: GeodesicArc) -> GeodesicArc:
    if not is_mergeable(a1, a2):
        raise NotMergeable(f"cannot merge {a1} and {a2}")
    s2, t2 = _reoriented(a2, a1.normal)
    if a1.target == s2:
        return GeodesicArc(a1.source, t2, a1.normal)
    return GeodesicArc(s2, a1.target, a1.normal)


# -- parameter-space boundary handling --------------------------------------


class BoundaryDescriptor(NamedTuple):
    u: BoundarySide  # LEFT, RIGHT, ON_IDENTIFICATION or INTERIOR
    v: BoundarySide  # BOTTOM, TOP or INTERIOR


def _arc_on_identification(arc: GeodesicArc) -> bool:
    """Does the whole arc lie on the u = +-pi meridian?"""
    if not (arc.normal.x == 0 and arc.normal.z == 0):
        return False
    probe = arc.interior_point()
    return probe.dir.y == 0 and probe.dir.x < 0


def boundary_predicates(arc: GeodesicArc, end: int) -> BoundaryDescriptor:
    """Locate an arc end in parameter space."""
    p = arc.endpoint(end)
    if p.boundary_class is BoundaryClass.SOUTH_POLE:
        return BoundaryDescriptor(BoundarySide.INTERIOR, BoundarySide.BOTTOM)
    if p.boundary_class is BoundaryClass.NORTH_POLE:
        return BoundaryDescriptor(BoundarySide.INTERIOR, BoundarySide.TOP)
    if p.boundary_class is BoundaryClass.ON_IDENTIFICATION:
        if _arc_on_identification(arc):
            return BoundaryDescriptor(BoundarySide.ON_IDENTIFICATION, BoundarySide.INTERIOR)
        tangent = _tangent_into(arc, p)
        # The arc leaves the identification into y > 0 (u near +pi, RIGHT)
        # or y < 0 (u near -pi, LEFT).
        if tangent.y > 0:
            side = BoundarySide.RIGHT
        elif tangent.y < 0:
            side = BoundarySide.LEFT
        else:  # pragma: no cover - tangent.y == 0 implies the coplanar case
            side = BoundarySide.ON_IDENTIFICATION
        return BoundaryDescriptor(side, BoundarySide.INTERIOR)
    return BoundaryDescriptor(BoundarySide.INTERIOR, BoundarySide.INTERIOR)


def _meridian_point(arc: GeodesicArc) -> DirPoint:
    """A non-pole point of a vertical arc, naming its meridian."""
    if not arc.is_vertical:
        raise PreconditionViolation("meridian comparisons need vertical arcs")
    for p in (arc.source, arc.target):
        if not _is_pole(p):
            return p
    raise PreconditionViolation("vertical arc spanning pole to pole")


def compare_u_near_boundary(p_or_arc, arc2: GeodesicArc, end2: int = MAX_END,
                            end1: Optional[int] = None) -> Sign:
    """Compare azimuths near the contracted boundary.

    Two variants: compare an interior point against a vertical arc-end at
    a pole (pass a DirPoint first), or compare two vertical arc-ends
    (pass an arc first and give both end indices).
    """
    d2 = boundary_predicates(arc2, end2)
    if d2.v is BoundarySide.INTERIOR:
        raise PreconditionViolation("arc end must coincide with a pole")
    m2 = _meridian_point(arc2)
    if isinstance(p_or_arc, GeodesicArc):
        if end1 is None:
            raise PreconditionViolation("two-arc variant needs both end indices")
        d1 = boundary_predicates(p_or_arc, end1)
        if d1.v is BoundarySide.INTERIOR:
            raise PreconditionViolation("arc end must coincide with a pole")
        m1 = _meridian_point(p_or_arc)
    else:
        m1 = as_point(p_or_arc)
    return compare_u(m1, m2)


def compare_v_near_boundary(a1: GeodesicArc, a2: GeodesicArc, end: int) -> Sign:
    """Order two arc ends lying on the same identified side of the
    parameter space: by latitude first, then by which arc climbs higher."""
    d1, d2 = boundary_predicates(a1, end), boundary_predicates(a2, end)
    for d in (d1, d2):
        if d.u not in (BoundarySide.LEFT, BoundarySide.RIGHT, BoundarySide.ON_IDENTIFICATION):
            raise PreconditionViolation("arc ends must lie on the identification")
    if d1.u != d2.u:
        raise PreconditionViolation("arc ends must lie on the same side")
    q1, q2 = a1.endpoint(end), a2.endpoint(end)
    c = compare_v(q1, q2)
    if c != EQUAL or q1 != q2:
        return c
    if d1.u is BoundarySide.LEFT:
        return compare_v_at_u_right(a1, a2, q1)
    return compare_v_at_u_left(a1, a2, q1)


def compare_v_on_identification(p1: DirPoint, p2: DirPoint) -> Sign:
    for p in (p1, p2):
        if as_point(p).boundary_class not in (
            BoundaryClass.ON_IDENTIFICATION,
            BoundaryClass.NORTH_POLE,
            BoundaryClass.SOUTH_POLE,
        ):
            raise PreconditionViolation("points must lie on the identification curve")
    return compare_v(as_point(p1), as_point(p2))
