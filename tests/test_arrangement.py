import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import FEATURE_KIND, case_tag, check_pointwise
from geomink.assembly import build_motion_space, project_polytope, union_regions
from geomink.gaussian import build, reflect
from geomink.kernel import Vec3, cross, det3, dot, scale_key
from geomink.minkowski import minkowski
from geomink import arrangement
from geomink.shapes import box, random_polytope, split_star_assembly
from geomink.arrangement import (
    LEFT,
    RIGHT,
    ArcNotDisjoint,
    AnchorMismatch,
    Halfedge,
    SphereArrangement,
    _assemble,
    _split_all,
    dumps,
    loads,
    overlay,
    sweep_build,
)
from geomink.spherical import (
    BoundaryClass,
    arc_between,
    classify,
    full_circle_arcs,
    intersect,
    make_arc,
    point_on_arc,
    strictly_inside_arc,
)


def quadrant():
    return make_arc(Vec3(1, 0, 0), Vec3(0, 1, 0))[0]


class TestBasics:
    def test_new_arrangement(self):
        arr = SphereArrangement()
        assert arr.counts() == (0, 0, 1)
        cell = arr.locate(Vec3(0, 0, 1))
        assert cell.kind == "face"
        assert cell.ref is arr.faces[0]
        assert arr.validate() == []

    def test_single_arc_insertion(self):
        arr = SphereArrangement()
        arr.insert_disjoint_arc(quadrant())
        assert arr.counts() == (2, 2, 1)
        assert arr.validate() == []

    def test_triangle_splits_face(self):
        arr = SphereArrangement()
        a, b, c = Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)
        arr.insert_disjoint_arc(arc_between(a, b))
        assert len(arr.faces) == 1
        arr.insert_disjoint_arc(arc_between(b, c))
        assert len(arr.faces) == 1
        arr.insert_disjoint_arc(arc_between(c, a))
        assert len(arr.faces) == 2
        assert arr.counts() == (3, 6, 2)
        assert arr.validate() == []

    def test_identification_crossing_input(self):
        arr = SphereArrangement()
        pieces = make_arc(Vec3(-1, -1, 0), Vec3(-1, 1, 0))
        assert len(pieces) == 2
        for p in pieces:
            arr.insert_disjoint_arc(p)
        assert arr.counts() == (3, 4, 1)
        classes = [v.point.boundary_class for v in arr.vertices]
        assert classes.count(BoundaryClass.ON_IDENTIFICATION) == 1
        assert arr.validate() == []

    def test_anchor_mismatch(self):
        arr = SphereArrangement()
        h = arr.insert_disjoint_arc(quadrant())
        other = arc_between(Vec3(0, 0, 1), Vec3(1, 1, 1))
        with pytest.raises(AnchorMismatch):
            arr.insert_disjoint_arc(other, v1=h.source)

    def test_overlapping_insert_detected(self):
        arr = SphereArrangement()
        arr.insert_disjoint_arc(quadrant())
        with pytest.raises(ArcNotDisjoint):
            arr.insert_disjoint_arc(arc_between(Vec3(1, 0, 0), Vec3(1, 1, 0)))

    @pytest.mark.parametrize("case", ["overlap at the source", "overlap at the target",
                                      "ends in two faces"])
    def test_rejected_insert_changes_nothing(self, case):
        """The arc is placed at both ends before anything changes, so an
        arc that is not disjoint leaves no vertex, edge or link behind."""
        arr = SphereArrangement()
        if case == "ends in two faces":
            for a in full_circle_arcs(Vec3(0, 0, 1)):
                arr.insert_disjoint_arc(a)
            arr.insert_isolated_vertex(Vec3(1, 1, 1))
            arr.insert_isolated_vertex(Vec3(1, 1, -1))
            bad = arc_between(Vec3(1, 1, 1), Vec3(1, 1, -1))
        else:
            arr.insert_disjoint_arc(quadrant())
            bad = (arc_between(Vec3(1, 0, 0), Vec3(1, 1, 0)) if case.endswith("source")
                   else arc_between(Vec3(1, 1, 0), Vec3(0, 1, 0)))
        counts, dump = arr.counts(), dumps(arr)
        with pytest.raises(ArcNotDisjoint):
            arr.insert_disjoint_arc(bad)
        assert arr.counts() == counts
        assert arr.validate() == []
        assert dumps(arr) == dump

    def test_isolated_vertices(self):
        arr = SphereArrangement()
        v = arr.insert_isolated_vertex(Vec3(1, 2, 3))
        assert arr.counts() == (1, 0, 1)
        assert arr.validate() == []
        cell = arr.locate(Vec3(2, 4, 6))
        assert cell.kind == "vertex" and cell.ref is v

    def test_arc_from_an_isolated_vertex_takes_it_into_the_ring(self):
        arr = SphereArrangement()
        v = arr.insert_isolated_vertex(Vec3(1, 0, 0))
        h = arr.insert_disjoint_arc(quadrant())
        assert h.source is v and not v.is_isolated and v.out == [h]
        assert not arr.faces[0].isolated
        assert arr.counts() == (2, 2, 1)
        assert arr.validate() == []
        assert arr.locate(Vec3(1, 0, 0)) == ("vertex", v)
        assert arr.locate(Vec3(1, 1, 0)).kind == "edge"
        assert arr.locate(Vec3(0, 0, 1)) == ("face", arr.faces[0])

    def test_face_split_hands_an_isolated_vertex_to_the_new_face(self):
        arr = SphereArrangement()
        inner = arr.insert_isolated_vertex(Vec3(1, 1, 1))
        outer = arr.insert_isolated_vertex(Vec3(-1, -1, -1))
        a, b, c = Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)
        for s, t in ((a, b), (b, c), (c, a)):
            arr.insert_disjoint_arc(arc_between(s, t))
        assert arr.counts() == (5, 6, 2)
        assert arr.validate() == []
        # one of the two isolated vertices is on the new face's side
        assert [len(f.isolated) for f in arr.faces] == [1, 1]
        for w, beside in ((inner, Vec3(2, 1, 1)), (outer, Vec3(-2, -1, -1))):
            assert arr.locate(w.point) == ("vertex", w)
            assert arr.locate(beside) == ("face", w.isolated_face)
        assert inner.isolated_face is not outer.isolated_face


class TestLocate:
    def test_locate_edge_and_vertex(self):
        arr = SphereArrangement()
        h = arr.insert_disjoint_arc(quadrant())
        assert arr.locate(Vec3(1, 1, 0)).kind == "edge"
        assert arr.locate(Vec3(1, 0, 0)).kind == "vertex"
        assert arr.locate(Vec3(0, 0, 1)).kind == "face"

    def test_locate_in_triangle(self):
        arr = SphereArrangement()
        a, b, c = Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)
        for s, t in ((a, b), (b, c), (c, a)):
            arr.insert_disjoint_arc(arc_between(s, t))
        inner = arr.locate(Vec3(1, 1, 1)).ref
        outer = arr.locate(Vec3(-1, -1, -1)).ref
        assert inner is not outer
        # every face boundary test agrees with brute re-check
        assert arr.locate(Vec3(1, 1, Fraction(1, 100))).ref is inner

    def test_interior_point_roundtrip(self):
        arr = SphereArrangement()
        a, b, c = Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)
        for s, t in ((a, b), (b, c), (c, a)):
            arr.insert_disjoint_arc(arc_between(s, t))
        for f in arr.faces:
            q = arr.interior_point(f)
            assert arr.locate(q).ref is f

    def test_interior_point_of_an_edgeless_face_with_taken_directions(self):
        # isolated points on (1, 0, 0) and (1, 1, 1), the first two of the
        # directions tried, and on other axis and small directions
        arr = SphereArrangement()
        face = arr.faces[0]
        for d in (
            Vec3(0, 0, 1), Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(1, 2, 3),
            Vec3(-1, 3, -2), Vec3(5, -4, 1), Vec3(1, 1, 1),
        ):
            arr.insert_isolated_vertex(d, face)
        q = arr.interior_point(face)
        assert q == classify(Vec3(1, 2, 4))
        assert arr.locate(q).ref is face

    def test_locate_against_sign_pattern_oracle(self):
        import random
        from geomink.kernel import dot, sign

        # For full great circles, the face of a probe is determined by
        # its vector of plane signs: an independent membership oracle.
        normals = [Vec3(0, 0, 1), Vec3(1, 1, 0), Vec3(1, -2, 3)]
        arcs = []
        for n in normals:
            arcs.extend(full_circle_arcs(n))
        arr = sweep_build(arcs)
        rng = random.Random(77)
        checked = 0
        while checked < 40:
            p = Vec3(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
            if p.is_zero() or any(dot(n, p) == 0 for n in normals):
                continue
            cell = arr.locate(classify(p))
            assert cell.kind == "face"
            q = arr.interior_point(cell.ref)
            assert all(sign(dot(n, p)) == sign(dot(n, q.dir)) for n in normals)
            checked += 1


class TestSweepBuild:
    def test_crossing_pair(self):
        a1 = arc_between(Vec3(1, -1, 0), Vec3(1, 1, 0))
        a2 = arc_between(Vec3(1, 0, -1), Vec3(1, 0, 1))
        arr = sweep_build([a1, a2])
        assert arr.counts() == (5, 8, 1)
        assert arr.validate() == []

    def test_three_great_circles(self):
        arcs = []
        for n in (Vec3(0, 0, 1), Vec3(0, 1, 0), Vec3(1, 0, 0)):
            arcs.extend(full_circle_arcs(n))
        arr = sweep_build(arcs)
        # n great circles in general position: n(n-1) + 2 faces
        assert len(arr.faces) == 8
        assert arr.validate() == []

    def test_permutation_independence(self):
        rng = random.Random(5)
        arcs = []
        for _ in range(6):
            while True:
                try:
                    u = Vec3(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
                    v = Vec3(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
                    arcs.extend(make_arc(u, v))
                    break
                except Exception:
                    continue
        ref = sweep_build(arcs)
        ref_counts = ref.counts()
        ref_verts = sorted(scale_key(*v.point.dir.as_tuple()) for v in ref.vertices)
        for _ in range(4):
            shuffled = arcs[:]
            rng.shuffle(shuffled)
            arr = sweep_build(shuffled)
            assert arr.counts() == ref_counts
            assert sorted(scale_key(*v.point.dir.as_tuple()) for v in arr.vertices) == ref_verts
            assert arr.validate() == []

    def test_overlapping_arcs_merged(self):
        a1 = arc_between(Vec3(1, 0, 0), Vec3(0, 1, 0))
        a2 = arc_between(Vec3(1, 1, 0), Vec3(-1, 2, 0))
        arr = sweep_build([a1, a2])
        # overlap (1,1,0)..(0,1,0) becomes a single edge
        assert arr.counts() == (4, 6, 1)
        assert arr.validate() == []


def _no_payload(kind, fa, fb):
    return None


class TestOverlay:
    def test_overlay_with_empty(self):
        a1 = arc_between(Vec3(1, -1, 0), Vec3(1, 1, 0))
        a2 = arc_between(Vec3(1, 0, -1), Vec3(1, 0, 1))
        x = sweep_build([a1, a2])
        e = SphereArrangement()
        out = overlay(x, e, _no_payload)
        assert out.counts() == x.counts()
        assert out.validate() == []

    def test_two_great_circles_make_four_lunes(self):
        a = sweep_build(full_circle_arcs(Vec3(0, 0, 1)))
        b = sweep_build(full_circle_arcs(Vec3(1, 0, 0)))
        out = overlay(a, b, _no_payload)
        assert len(out.faces) == 4
        assert out.validate() == []

    def test_face_payload_merge(self):
        a = sweep_build(full_circle_arcs(Vec3(0, 0, 1)))
        for f in a.faces:
            q = a.interior_point(f)
            f.payload = "N" if q.dir.z > 0 else "S"
        b = sweep_build(full_circle_arcs(Vec3(1, 0, 0)))
        for f in b.faces:
            q = b.interior_point(f)
            f.payload = "E" if q.dir.x > 0 else "W"
        out = overlay(a, b, lambda kind, x, y: x.payload + y.payload if kind == "face" else None)
        payloads = sorted(f.payload for f in out.faces)
        assert payloads == ["NE", "NW", "SE", "SW"]

    def test_overlay_crossing_counts(self):
        a = sweep_build([arc_between(Vec3(1, -1, Fraction(1, 3)), Vec3(1, 1, Fraction(1, 3)))])
        b = sweep_build([arc_between(Vec3(1, 0, -1), Vec3(1, 0, 1))])
        out = overlay(a, b, _no_payload)
        assert len(out.vertices) == 5
        assert out.validate() == []


def _tagging_merge(swap: bool):
    """The merge for overlay(a, b) whose payload is (feature kind in a,
    kind in b, a's payload, b's payload), both kinds "overlap" on an
    overlap edge; with swap, the merge for overlay(b, a) that gives every
    feature the same payload."""

    def merge(kind, fx, fy):
        fa, fb = (fy, fx) if swap else (fx, fy)
        ka, kb = FEATURE_KIND[type(fa)], FEATURE_KIND[type(fb)]
        if kind == ka == kb == "edge":
            ka = kb = "overlap"
        return (ka, kb, fa.payload, fb.payload)

    return merge


def _side_tagged(mesh, side):
    """The arrangement of mesh's Gaussian map with every payload tagged
    with its side."""
    arr = build(mesh).arrangement
    for v in arr.vertices:
        v.payload = (side, v.point)
    for h in arr.edges():
        arr.set_edge_payload(h, (side, frozenset((h.source.point, h.target.point))))
    for f in arr.faces:
        f.payload = (side, f.payload)
    return arr


def _cells(arr):
    return (
        Counter((v.point, v.payload) for v in arr.vertices),
        Counter((frozenset((h.source.point, h.target.point)), h.payload) for h in arr.edges()),
        Counter(f.payload for f in arr.faces),
    )


@st.composite
def _mesh_pairs(draw):
    sizes, seeds = st.integers(5, 10), st.integers(0, 10**6)
    ma = random_polytope(draw(sizes), draw(seeds))
    how = draw(st.sampled_from(["independent", "translated", "negated"]))
    if how == "independent":
        mb = random_polytope(draw(sizes), draw(seeds))
    elif how == "translated":  # the maps share every vertex and edge
        mb = ma.translated(Vec3(1, -2, 3))
    else:  # each map vertex is antipodal to one of the other's
        mb = ma.negated()
    return ma, mb


@settings(max_examples=20, deadline=None)
@given(_mesh_pairs())
def test_overlay_commutes_with_swapped_callbacks(pair):
    ma, mb = pair
    a, b = _side_tagged(ma, "a"), _side_tagged(mb, "b")
    ab = overlay(a, b, _tagging_merge(swap=False))
    ba = overlay(b, a, _tagging_merge(swap=True))
    assert _cells(ab) == _cells(ba)
    features = [v.payload for v in ab.vertices] + [h.payload for h in ab.edges()]
    for _ka, _kb, pa, pb in features + [f.payload for f in ab.faces]:
        assert pa[0] == "a" and pb[0] == "b"


@settings(max_examples=10, deadline=None)
@given(_mesh_pairs())
def test_merge_gets_each_edge_source_directed_along_the_edge(pair):
    """An edge's merge gets, from each operand, the halfedge the edge runs
    along, in the edge's direction, or the face that holds the edge."""
    a, b = (build(m).arrangement for m in pair)
    out = overlay(a, b, lambda kind, fa, fb: (fa, fb))
    for h in out.edges():
        q, left = h.arc.interior_point(), out.interior_point(h.face)
        for src, operand in zip(h.payload, (a, b)):
            if isinstance(src, Halfedge):
                assert operand.locate(q).ref in (src, src.twin)
                assert dot(src.arc.normal, h.arc.normal) > 0
                assert operand.locate(left).ref is src.face
            else:
                assert operand.locate(q).ref is src


class TestValidate:
    def test_corrupted_twin_reported(self):
        arr = SphereArrangement()
        h = arr.insert_disjoint_arc(quadrant())
        h.twin = h
        assert any("twin" in e for e in arr.validate())

    def test_octahedron_euler(self):
        # Eight faces of an octahedron's Gaussian map arise from the six
        # +-axis directions; here just check Euler on three great circles.
        arcs = []
        for n in (Vec3(0, 0, 1), Vec3(0, 1, 0), Vec3(1, 0, 0)):
            arcs.extend(full_circle_arcs(n))
        arr = sweep_build(arcs)
        V, HE, F = arr.counts()
        assert V - HE // 2 + F == 2


def test_dump_roundtrip():
    a1 = arc_between(Vec3(1, -1, 0), Vec3(1, 1, 0))
    a2 = arc_between(Vec3(1, 0, -1), Vec3(1, 0, 1))
    arr = sweep_build([a1, a2])
    arr.insert_isolated_vertex(Vec3(-1, -1, -1))
    text = dumps(arr)
    arr2 = loads(text)
    assert arr2.counts() == arr.counts()
    assert dumps(arr2) == text
    assert arr2.validate() == []


def _dump_text(vertices, edges):
    """A dump of the given vertices ((x, y, z), isolated) and edges
    (source index, target index), each arc's normal the cross product of
    its endpoints; loads reads no face line."""
    lines = [f"spherical-arrangement {len(vertices)} {len(edges)} 1"]
    for d, iso in vertices:
        lines.append("v %d %d %d" % d + (" isolated" if iso else ""))
    for s, t in edges:
        n = cross(Vec3(*vertices[s][0]), Vec3(*vertices[t][0]))
        lines.append(f"e {s} {t} {n.x} {n.y} {n.z}")
    return "\n".join(lines) + "\n"


_S, _N = ((1, -1, 0), False), ((1, 1, 0), False)  # the ends of a short arc through (1, 0, 0)


@pytest.mark.parametrize(
    "vertices, edges",
    [
        # (1, 0, 0)-(1, 1, 0) runs along the arc (1, 0, 0)-(0, 1, 0) from their shared vertex
        ([((1, 0, 0), False), ((1, 1, 0), False), ((0, 1, 0), False)], [(0, 1), (0, 2)]),
        ([_S, _N, ((1, 0, -1), False), ((1, 0, 1), False)], [(0, 1), (2, 3)]),  # crossing
        # a T-junction, with the stem listed first and last
        ([_S, _N, ((1, 0, 0), False), ((1, 0, 1), False)], [(2, 3), (0, 1)]),
        ([_S, _N, ((1, 0, 0), False), ((1, 0, 1), False)], [(0, 1), (2, 3)]),
        ([_S, _N, ((1, 0, 0), True)], [(0, 1)]),  # isolated point on an edge
        ([_S, _N, ((1, 1, 0), True)], [(0, 1)]),  # isolated point on a vertex
        ([_S, _N, ((0, 0, 1), True), ((0, 0, 1), True)], [(0, 1)]),  # one point twice
        ([_S, _N], [(0, 1), (1, 0)]),  # one arc twice
    ],
    ids=[
        "overlap", "crossing", "t-junction", "t-junction-stem-last", "point-on-edge",
        "point-on-vertex", "repeated-point", "repeated-arc",
    ],
)
def test_loads_rejects_malformed_dumps(vertices, edges):
    text = _dump_text(vertices, edges)
    with pytest.raises(ArcNotDisjoint):
        loads(text)


# -- one-pass assembly and the pair filter --------------------------------------

# Small integer directions, with the poles and points of the seam (the
# y = 0, x < 0 half-meridian) drawn as often as generic ones.
_coord = st.integers(min_value=-4, max_value=4)
_generic = st.builds(Vec3, _coord, _coord, _coord).filter(lambda v: not v.is_zero())
_special = st.sampled_from(
    [Vec3(0, 0, 1), Vec3(0, 0, -1), Vec3(-1, 0, 0), Vec3(-1, 0, 1), Vec3(-2, 0, -1)]
)
_directions = st.one_of(_generic, _special)


@st.composite
def _polygon(draw):
    """A small closed polygon around a drawn direction c, at one or two
    sizes, so that components nest, touch or lie apart."""
    c = draw(_directions)
    u = cross(c, Vec3(1, 2, 3))
    if u.is_zero():
        u = cross(c, Vec3(3, -1, 2))
    w = cross(c, u)
    far = c.scale(8 * u.norm_sq())
    triangle, square = [(1, 0), (0, 1), (-1, -1)], [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    shape = draw(st.sampled_from([triangle, square]))
    arcs = []
    for size in draw(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=2, unique=True)):
        ring = [far + u.scale(size * x) + w.scale(size * y) for x, y in shape]
        for p, q in zip(ring, ring[1:] + ring[:1]):
            arcs.extend(make_arc(p, q))
    return arcs


@st.composite
def _scenes(draw):
    arcs = [a for poly in draw(st.lists(_polygon(), min_size=1, max_size=3)) for a in poly]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        p, q = draw(_directions), draw(_directions)
        if not cross(p, q).is_zero():
            arcs.extend(make_arc(p, q))
    pieces = [a for a, _ in _split_all([(a, (i,)) for i, a in enumerate(arcs)])]
    points = []
    for d in draw(st.lists(_directions, max_size=4)):
        p = classify(d)
        if not any(point_on_arc(p, a) for a in pieces):
            points.append(p)
    return pieces, points


def _rings(arr):
    return [[h.target.point for h in v.out] for v in arr.vertices]


def _faces(arr):
    """Each face as its boundary cycles, each a set of directed
    (source, target) point pairs, and its isolated points; as a multiset,
    so neither the order of the faces nor of their CCBs counts."""
    return Counter(
        (
            frozenset(
                frozenset((h.source.point, h.target.point) for h in rep.cycle()) for rep in f.ccbs
            ),
            frozenset(w.point for w in f.isolated),
        )
        for f in arr.faces
    )


@settings(max_examples=60, deadline=None)
@given(_scenes())
def test_assembly_matches_arc_by_arc_insertion(scene):
    pieces, points = scene
    ref = SphereArrangement()
    for a in pieces:
        ref.insert_disjoint_arc(a)
    for p in points:
        if ref.find_vertex(p) is None:
            ref.insert_isolated_vertex(p)
    arr, along = _assemble(pieces, points)
    assert arr.validate() == []
    assert [(h.arc.source, h.arc.target) for h in along] == [(a.source, a.target) for a in pieces]
    assert [v.point for v in arr.vertices] == [v.point for v in ref.vertices]
    assert _rings(arr) == _rings(ref)
    # the same faces, each with the same boundary cycles and isolated points
    assert _faces(arr) == _faces(ref)


# A centre c and two tangent directions e1, e2 at it (both orthogonal to
# c, with cross(e1, e2) a positive multiple of c): an interior point, the
# north pole and a point on the seam.
_RING_CENTRES = {
    "interior": (Vec3(1, 2, 2), Vec3(2, -1, 0), Vec3(2, 4, -5)),
    "pole": (Vec3(0, 0, 1), Vec3(1, 0, 0), Vec3(0, 1, 0)),
    "seam": (Vec3(-1, 0, 0), Vec3(0, -1, 0), Vec3(0, 0, 1)),
}

# Tangent directions (a, b) ~ a e1 + b e2 of the arcs leaving the centre.
_RING_SPREADS = [
    [(4, 1), (3, 2), (1, 3)],  # within a quarter turn
    [(1, 0), (-1, 2), (-1, -2)],  # about a third of a turn apart
    [(1, 0), (0, 1), (-1, 0)],  # one arc opposite another
    [(2, 1), (-1, 2), (-3, -1), (1, -3), (3, -1)],  # all round
    [(3, 1), (2, 3), (0, 1), (-2, 3), (-3, 1)],  # within a half turn
]


@pytest.mark.parametrize("place", sorted(_RING_CENTRES))
@pytest.mark.parametrize("spread", range(len(_RING_SPREADS)))
def test_ring_order_matches_insertion_for_every_arc_order(place, spread):
    """The ring of a vertex of degree 3 or 5, at an interior point, a
    pole and the seam, with its arcs in one turn class from the first
    arc or split across classes: in every order of the arcs, _assemble's
    rings are insert_disjoint_arc's."""
    c, e1, e2 = _RING_CENTRES[place]
    targets = [c.scale(4) + e1.scale(a) + e2.scale(b) for a, b in _RING_SPREADS[spread]]
    for order in itertools.permutations(targets):
        pieces = [piece for t in order for piece in make_arc(c, t)]
        ref = SphereArrangement()
        for a in pieces:
            ref.insert_disjoint_arc(a)
        arr, _ = _assemble(pieces)
        assert arr.validate() == []
        assert ref.find_vertex(c).degree == len(targets)
        assert _rings(arr) == _rings(ref)


@st.composite
def _arc_pairs(draw):
    """Two arcs, biased to the cases the filter must not skip: a shared
    endpoint, one great circle, an endpoint inside the other arc, one arc
    inside the other on their circle, and endpoints at a pole or on the
    seam; and to one it skips: an endpoint antipodal to one of the other
    arc's endpoints."""
    a = None
    while a is None:
        p, q = draw(_directions), draw(_directions)
        if not cross(p, q).is_zero():
            a = arc_between(p, q)
    s, t = a.source.dir, a.target.dir
    k = st.integers(min_value=-3, max_value=3)
    pos = st.integers(min_value=1, max_value=3)
    on_circle = st.builds(lambda i, j: s.scale(i) + t.scale(j), k, k)
    inside = st.builds(lambda i, j: s.scale(i) + t.scale(j), pos, pos)
    ends = draw(
        st.sampled_from(
            ["free", "shared", "antipode", "circle", "touch", "touch_circle", "nested"]
        )
    )
    first = {
        "free": _directions,
        "shared": st.sampled_from([s, t]),
        "antipode": st.sampled_from([-s, -t]),
        "circle": on_circle,
        "touch": inside,
        "touch_circle": inside,
        "nested": inside,
    }[ends]
    second = {"circle": on_circle, "touch_circle": on_circle, "nested": inside}.get(
        ends, _directions
    )
    b_src, b_tgt = draw(first), draw(second)
    assume(not b_src.is_zero() and not b_tgt.is_zero() and not cross(b_src, b_tgt).is_zero())
    b = arc_between(b_src, b_tgt)
    return (a, b) if draw(st.booleans()) else (b, a)


def _cut_at(arc, cuts):
    """The (source, target) pairs of arc cut at the cuts strictly inside
    it, in order along it; every cut lies on the arc's circle."""
    inner = [p for p in cuts if strictly_inside_arc(p.dir, arc)]
    # a point comes first when most others follow it along the arc
    inner = sorted(inner, key=lambda p: -sum(det3(p.dir, q.dir, arc.normal) > 0 for q in inner))
    chain = [arc.source] + inner + [arc.target]
    return list(zip(chain, chain[1:]))


def _pieces_cut_at(arc, cuts):
    """The endpoint pairs of arc cut at the cuts strictly inside it."""
    return {frozenset(ends) for ends in _cut_at(arc, cuts)}


@settings(max_examples=300, deadline=None)
@given(_arc_pairs())
def test_pair_filter_keeps_every_pair_that_cuts(pair):
    a, b = pair
    r = intersect(a, b)
    cuts = set(r.points)
    if r.overlap is not None:
        cuts |= {r.overlap.source, r.overlap.target}
    want = _pieces_cut_at(a, cuts) | _pieces_cut_at(b, cuts)
    pieces = _split_all([(a, ("a",)), (b, ("b",))])
    got = [frozenset((x.source, x.target)) for x, _ in pieces]
    assert len(got) == len(want) and set(got) == want


def _split_all_reference(tagged, extra_points):
    """_split_all by brute force: intersect on every pair of arcs of
    different groups, each arc cut at the points strictly inside it, and
    one piece per endpoint pair, kept as first met, with the tags of
    every arc it lies on."""
    cuts = [set() for _ in tagged]
    for (i, (a, ta)), (j, (b, tb)) in itertools.combinations(enumerate(tagged), 2):
        if ta[0] == tb[0]:
            continue
        r = intersect(a, b)
        found = set(r.points)
        if r.overlap is not None:
            found |= {r.overlap.source, r.overlap.target}
        cuts[i] |= found
        cuts[j] |= found
    pieces = {}
    for (a, tag), found in zip(tagged, cuts):
        found |= {p for p, _ in extra_points if point_on_arc(p, a)}
        for s, t in _cut_at(a, found):
            key = frozenset((s, t))
            if key not in pieces:
                pieces[key] = (arc_between(s, t, a.normal), [])
            pieces[key][1].append(tag)
    return list(pieces.values())


_SPLIT_STAR_SUBPARTS = [m for _, subs in split_star_assembly() for m in subs]


@st.composite
def _gaussian_maps(draw):
    """A Gaussian map with arcs on shared great circles, on the seam and
    at the poles: a box, a Split Star sub-part or a random polytope,
    reflected or not."""
    kind = draw(st.sampled_from(["box", "split_star", "random"]))
    if kind == "box":
        lo = draw(st.tuples(*[st.integers(-3, 0)] * 3))
        hi = draw(st.tuples(*[st.integers(1, 3)] * 3))
        mesh = box(*lo, *hi)
    elif kind == "split_star":
        mesh = draw(st.sampled_from(_SPLIT_STAR_SUBPARTS))
    else:
        mesh = random_polytope(draw(st.integers(4, 8)), draw(st.integers(0, 10**6)))
    g = build(mesh)
    return reflect(g) if draw(st.booleans()) else g


@settings(max_examples=40, deadline=None)
@given(_gaussian_maps(), _gaussian_maps())
def test_overlay_split_matches_all_pairs_intersect(g1, g2):
    calls, one_circle = [], []
    real_split = arrangement._split_all

    def split_spy(tagged, extra_points=()):
        out = real_split(tagged, extra_points)
        calls.append((tagged, extra_points, out))
        return out

    def intersect_spy(a1, a2):
        if cross(a1.normal, a2.normal).is_zero():
            one_circle.append((a1, a2))
        return intersect(a1, a2)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arrangement, "_split_all", split_spy)
        mp.setattr(arrangement, "intersect", intersect_spy)
        minkowski(g1, g2)
    (call,) = calls
    tagged, extra_points, got = call
    assert got == _split_all_reference(tagged, extra_points)
    # arcs on one great circle are cut by endpoint containment alone
    assert one_circle == []


# -- the overlay, point by point -------------------------------------------------


def _half_space_region(axis, sign):
    """The open hemisphere on one side of a coordinate plane: the
    projection of a box with a facet through the origin."""
    lo, hi = [-1, -1, -1], [1, 1, 1]
    (lo if sign < 0 else hi)[axis] = 0
    (lo if sign > 0 else hi)[axis] = 2 * sign
    return project_polytope(build(box(*lo, *hi)))


@st.composite
def _regions(draw):
    """Pierced regions: hemispheres, and projections of random polytopes
    that may hold the origin, touch it or lie apart from it."""
    halves = draw(st.lists(st.tuples(st.integers(0, 2), st.sampled_from([-1, 1])), unique=True,
                           max_size=5))
    regions = [_half_space_region(*half) for half in halves]
    for _ in range(draw(st.integers(0 if regions else 1, 2))):
        mesh = random_polytope(draw(st.integers(4, 6)), draw(st.integers(0, 10**6)))
        offset = Vec3(*draw(st.tuples(*[st.integers(-15, 15)] * 3)))
        regions.append(project_polytope(build(mesh.translated(offset))))
    return regions


@st.composite
def _overlay_operands(draw):
    """An overlay operand as the library makes them: a built or reflected
    Gaussian map; a union accumulator, cleaned, with boolean flags (five
    hemispheres leave a pole as an isolated vertex); or a motion-space
    accumulator with frozenset payloads, from the edgeless start on."""
    kind = draw(st.sampled_from(["gaussian", "union", "motion"]))
    if kind == "gaussian":
        return draw(_gaussian_maps()).arrangement
    if kind == "union":
        return union_regions(draw(_regions()))
    pairs = {}
    if draw(st.booleans()):
        pairs = {(0, 1): union_regions(draw(_regions()))}
    return build_motion_space(2, pairs).arrangement


@settings(max_examples=100, deadline=None)
@given(_overlay_operands(), _overlay_operands(), st.lists(_directions, max_size=8))
def test_overlay_payloads_match_located_cells(a, b, directions):
    check_pointwise(a, b, directions)


def test_overlay_of_an_isolated_pole_matches_located_cells():
    five = [_half_space_region(axis, sign) for axis in (0, 1) for sign in (-1, 1)]
    union = union_regions(five + [_half_space_region(2, -1)])
    assert [v.point for v in union.vertices if v.is_isolated] == [classify(Vec3(0, 0, 1))]
    empty = SphereArrangement()
    empty.faces[0].payload = frozenset()
    check_pointwise(union, build(box(-1, -2, -3, 3, 2, 1)).arrangement, [Vec3(1, 1, 1)])
    check_pointwise(empty, union_regions(five), [Vec3(0, 0, -1)])


# -- interior points ---------------------------------------------------------------


def _quarter_circle_point(face):
    """m + n for the midpoint m and normal n of the arc of the face's
    first CCB halfedge: the first point on the face's side of that arc
    that interior_point tries."""
    arc = face.ccbs[0].arc
    return classify(arc.interior_point().dir + arc.normal)


# axis and small directions, then (1, k, k^2) for k = 1, 2, 3
_CROWDED = [
    Vec3(0, 0, 1), Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(1, 2, 3), Vec3(-1, 3, -2), Vec3(5, -4, 1),
    Vec3(1, 1, 1), Vec3(1, 2, 4), Vec3(1, 3, 9),
]


@settings(max_examples=60, deadline=None)
@given(
    _scenes(), st.booleans(), _overlay_operands(), _overlay_operands(),
    st.integers(0, len(_CROWDED)),
)
def test_interior_point_is_located_in_its_face(scene, block, a, b, crowded):
    # sweep_build scenes hold antenna edges, nested and touching cycles
    # and isolated points; with block, an isolated point sits where the
    # walk from each face's first arc would first stop; an edgeless
    # arrangement holds the first `crowded` of _CROWDED
    pieces, points = scene
    arr = sweep_build(pieces)
    for p in dict.fromkeys(points):
        arr.insert_isolated_vertex(p)
    if block:
        for f in list(arr.faces):
            if f.ccbs:
                p = _quarter_circle_point(f)
                if arr.locate(p).kind == "face":
                    arr.insert_isolated_vertex(p)
    edgeless = SphereArrangement()
    for d in _CROWDED[:crowded]:
        edgeless.insert_isolated_vertex(d)
    for out in (arr, overlay(a, b, case_tag), edgeless):
        assert out.validate() == []
        for f in out.faces:
            q = out.interior_point(f)
            assert out.locate(q).ref is f, (q, f)


# -- side of a cycle ---------------------------------------------------------------

_SEAM_AND_POLES = [Vec3(0, 0, 1), Vec3(0, 0, -1), Vec3(-1, 0, 0), Vec3(-1, 0, 1), Vec3(-3, 0, -2)]


@st.composite
def _convex_maps(draw):
    """A Gaussian map, or the sum of two, with small random probes."""
    sizes, seeds = st.integers(5, 10), st.integers(0, 10**6)
    g = build(random_polytope(draw(sizes), draw(seeds)))
    if draw(st.booleans()):
        g = minkowski(g, reflect(build(random_polytope(draw(sizes), draw(seeds)))))
    return g.arrangement, draw(st.lists(_generic, max_size=6))


@settings(max_examples=15, deadline=None)
@given(_convex_maps())
def test_side_of_cycle_matches_the_convex_cells(scene):
    # A face of a Gaussian map is a convex cell on the normal side of each
    # of its arcs, so q off its cycle is on the left iff it is on the
    # positive side of every arc's plane.
    arr, extra = scene
    dirs = _SEAM_AND_POLES + extra
    for h in arr.halfedges:
        dirs += [-h.source.point.dir, -(h.arc.source.dir + h.arc.target.dir), h.arc.normal]
    probes = {classify(d) for d in dirs}
    for f in arr.faces:
        (rep,) = f.ccbs
        cycle = rep.cycle()
        for q in probes:
            if any(point_on_arc(q, h.arc) for h in cycle):
                continue
            inside = all(dot(h.arc.normal, q.dir) > 0 for h in cycle)
            assert arr.side_of_cycle(q, cycle) == (LEFT if inside else RIGHT)


def test_side_of_cycle_at_an_antenna_and_a_pinch():
    # Two triangles touch at s, both above s in the plane y = 20; the
    # first holds an antenna from its corner b to the tip d.  The face
    # outside both is bounded by one 6-halfedge cycle through s twice.
    def at(x, z, k=1):
        return Vec3(x, 20 * k, z)

    s, b, c, d = at(0, 0), at(4, 1), at(1, 4), at(2, 2)
    e, f = at(-1, 4), at(-4, 1)
    arr = sweep_build(
        [arc_between(p, q) for p, q in [(s, b), (b, c), (c, s), (b, d), (s, e), (e, f), (f, s)]]
    )
    assert arr.validate() == []
    cycles = {len(cyc): cyc for cyc in (rep.cycle() for g in arr.faces for rep in g.ccbs)}
    assert sorted(cycles) == [3, 5, 6]

    def inside(tri, q):
        o = det3(*tri) > 0
        return all((det3(p, r, q) > 0) == o and det3(p, r, q) != 0
                   for p, r in zip(tri, tri[1:] + tri[:1]))

    t1, t2 = (s, b, c), (s, e, f)
    probes = [
        at(6, 3, 2),  # inside the antenna, halfway from b to d
        at(29, 13, 10), at(61, 32, 20),  # just off it, on either side
        d,  # the antenna's tip
        at(6, 9, 4),  # beyond the tip: the tip is the closest point
        at(0, -1), at(0, 1),  # the two outer wedges at s
        at(1, 1), at(-1, 1),  # inside each triangle next to s
    ]
    expected = {
        6: lambda q: not inside(t1, q) and not inside(t2, q),
        5: lambda q: inside(t1, q),
        3: lambda q: inside(t2, q),
    }
    checked = 0
    for n, cycle in cycles.items():
        for p in probes:
            q = classify(p)
            if any(point_on_arc(q, h.arc) for h in cycle):
                continue
            want = LEFT if expected[n](p) else RIGHT
            assert arr.side_of_cycle(q, cycle) == want, (n, p)
            checked += 1
    assert checked == 3 * len(probes) - 2  # the antenna lies on the 5-cycle
