import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geomink.kernel import EQUAL, LARGER, SMALLER, Vec3, cross, dot, parallel_same_direction
from geomink.spherical import (
    BoundaryClass,
    BoundarySide,
    DegenerateArc,
    MAX_END,
    MIN_END,
    NotMergeable,
    PointNotInterior,
    PreconditionViolation,
    arc_between,
    boundary_predicates,
    classify,
    compare_u,
    compare_u_near_boundary,
    compare_uv,
    compare_v,
    compare_v_at_u,
    compare_v_at_u_left,
    compare_v_at_u_right,
    compare_v_near_boundary,
    compare_v_on_identification,
    full_circle_arcs,
    intersect,
    is_mergeable,
    make_arc,
    merge,
    point_on_arc,
    primitive_point,
    split,
)


def rnd_dir(rng):
    while True:
        v = Vec3(
            Fraction(rng.randint(-12, 12), rng.randint(1, 5)),
            Fraction(rng.randint(-12, 12), rng.randint(1, 5)),
            Fraction(rng.randint(-12, 12), rng.randint(1, 5)),
        )
        if not v.is_zero():
            return v


def uv(d: Vec3):
    x, y, z = float(d.x), float(d.y), float(d.z)
    r = math.sqrt(x * x + y * y + z * z)
    return math.atan2(y, x), math.asin(z / r)


class TestClassify:
    def test_examples(self):
        assert classify(Vec3(0, 0, -5)).boundary_class is BoundaryClass.SOUTH_POLE
        assert classify(Vec3(-3, 0, 1)).boundary_class is BoundaryClass.ON_IDENTIFICATION
        assert classify(Vec3(1, 1, 1)).boundary_class is BoundaryClass.INTERIOR

    def test_equality_is_positive_proportionality(self):
        assert classify(Vec3(2, 4, 6)) == classify(Vec3(1, 2, 3))
        assert classify(Vec3(2, 4, 6)) != classify(Vec3(-1, -2, -3))


class TestCompare:
    def test_compare_u_examples(self):
        assert compare_u(classify(Vec3(1, 1, 5)), classify(Vec3(1, -1, -3))) == LARGER
        assert compare_u(classify(Vec3(2, 6, 1)), classify(Vec3(1, 3, -4))) == EQUAL
        assert compare_u(classify(Vec3(1, -1, 0)), classify(Vec3(1, 1, 0))) == SMALLER

    def test_compare_u_rejects_boundary_points(self):
        with pytest.raises(PreconditionViolation):
            compare_u(classify(Vec3(0, 0, 1)), classify(Vec3(1, 1, 1)))
        with pytest.raises(PreconditionViolation):
            compare_u(classify(Vec3(-1, 0, 1)), classify(Vec3(1, 1, 1)))

    def test_compare_v_examples(self):
        assert compare_v(classify(Vec3(1, 0, 1)), classify(Vec3(1, 0, 2))) == SMALLER
        assert compare_v(classify(Vec3(5, 5, 0)), classify(Vec3(-1, 2, 0))) == EQUAL
        assert compare_v(classify(Vec3(1, 0, -1)), classify(Vec3(1, 0, 1))) == SMALLER

    def test_compare_uv_examples(self):
        assert compare_uv(classify(Vec3(1, 1, 5)), classify(Vec3(1, -1, -3))) == LARGER
        assert compare_uv(classify(Vec3(1, 1, 0)), classify(Vec3(2, 2, 1))) == SMALLER
        p = classify(Vec3(3, -2, 7))
        assert compare_uv(p, p) == EQUAL

    def test_against_float_oracle(self):
        rng = random.Random(17)
        done = 0
        while done < 500:
            d1, d2 = rnd_dir(rng), rnd_dir(rng)
            p1, p2 = classify(d1), classify(d2)
            if (
                p1.boundary_class is not BoundaryClass.INTERIOR
                or p2.boundary_class is not BoundaryClass.INTERIOR
            ):
                continue
            (u1, v1), (u2, v2) = uv(d1), uv(d2)
            if abs(u1 - u2) < 1e-9 or abs(v1 - v2) < 1e-9:
                continue
            assert compare_u(p1, p2) == (LARGER if u1 > u2 else SMALLER)
            assert compare_v(p1, p2) == (LARGER if v1 > v2 else SMALLER)
            done += 1

    def test_antisymmetry_and_scale_invariance(self):
        rng = random.Random(23)
        for _ in range(200):
            d1, d2 = rnd_dir(rng), rnd_dir(rng)
            p1, p2 = classify(d1), classify(d2)
            if (
                p1.boundary_class is not BoundaryClass.INTERIOR
                or p2.boundary_class is not BoundaryClass.INTERIOR
            ):
                continue
            assert compare_uv(p1, p2) == -compare_uv(p2, p1)
            k = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            assert compare_uv(classify(d1.scale(k)), p2) == compare_uv(p1, p2)


class TestMakeArc:
    def test_simple_quadrant(self):
        arcs = make_arc(Vec3(1, 0, 0), Vec3(0, 1, 0))
        assert len(arcs) == 1
        a = arcs[0]
        assert a.normal == Vec3(0, 0, 1)
        assert not a.is_vertical

    def test_split_at_identification(self):
        arcs = make_arc(Vec3(-1, -1, 0), Vec3(-1, 1, 0))
        assert len(arcs) == 2
        mid = arcs[0].target
        assert mid.boundary_class is BoundaryClass.ON_IDENTIFICATION
        assert cross(mid.dir, Vec3(-1, 0, 0)).is_zero()
        assert arcs[1].source == mid

    def test_vertical_arc(self):
        arcs = make_arc(Vec3(1, 1, -1), Vec3(1, 1, 1))
        assert len(arcs) == 1
        a = arcs[0]
        assert a.is_vertical
        assert a.normal == Vec3(2, -2, 0)

    def test_split_at_pole(self):
        arcs = make_arc(Vec3(1, 0, 1), Vec3(-1, 0, 1))
        assert len(arcs) == 2
        assert arcs[0].target.boundary_class is BoundaryClass.NORTH_POLE

    def test_degenerate(self):
        with pytest.raises(DegenerateArc):
            make_arc(Vec3(1, 1, 0), Vec3(2, 2, 0))
        with pytest.raises(DegenerateArc):
            make_arc(Vec3(1, 1, 0), Vec3(-1, -1, 0))

    def test_endpoints_on_plane_and_interior_classes(self):
        rng = random.Random(5)
        for _ in range(100):
            a, b = rnd_dir(rng), rnd_dir(rng)
            if cross(a, b).is_zero():
                continue
            for arc in make_arc(a, b):
                assert dot(arc.normal, arc.source.dir) == 0
                assert dot(arc.normal, arc.target.dir) == 0
                # interior sample stays off the parameter-space boundary
                # unless the whole arc lies on the identification meridian
                mid = arc.interior_point()
                if arc.source.boundary_class is not BoundaryClass.ON_IDENTIFICATION or (
                    arc.target.boundary_class is not BoundaryClass.ON_IDENTIFICATION
                ):
                    assert mid.boundary_class is BoundaryClass.INTERIOR


class TestCompareVAtU:
    def test_examples(self):
        arc = make_arc(Vec3(1, 0, 0), Vec3(0, 1, 0))[0]
        assert compare_v_at_u(classify(Vec3(1, 1, 1)), arc) == LARGER
        assert compare_v_at_u(classify(Vec3(1, 1, 0)), arc) == EQUAL
        assert compare_v_at_u(classify(Vec3(1, 1, -2)), arc) == SMALLER

    def test_vertical_arc(self):
        """On a meridian arc: on, below and above it on its meridian; a
        point between its ends' latitudes on another meridian is refused."""
        arc = make_arc(Vec3(1, 1, -1), Vec3(1, 1, 1))[0]
        assert arc.is_vertical
        assert compare_v_at_u(classify(Vec3(1, 1, 0)), arc) == EQUAL
        assert compare_v_at_u(classify(Vec3(1, 1, -3)), arc) == SMALLER
        assert compare_v_at_u(classify(Vec3(1, 1, 3)), arc) == LARGER
        with pytest.raises(PreconditionViolation):
            compare_v_at_u(classify(Vec3(1, 2, 0)), arc)

    def test_right_examples(self):
        p = Vec3(1, 0, 0)
        equator = arc_between(p, Vec3(0, 1, 0))
        climbing = arc_between(p, Vec3(0, 1, 1))
        assert compare_v_at_u_right(equator, climbing, p) == SMALLER
        assert compare_v_at_u_right(climbing, equator, p) == LARGER
        assert compare_v_at_u_right(equator, equator, p) == EQUAL
        descending = arc_between(p, Vec3(0, 1, -1))
        assert compare_v_at_u_right(descending, equator, p) == SMALLER

    def test_left_mirrors_right(self):
        rng = random.Random(31)
        for _ in range(100):
            p = rnd_dir(rng)
            q1, q2 = rnd_dir(rng), rnd_dir(rng)
            if classify(p).boundary_class is not BoundaryClass.INTERIOR:
                continue
            try:
                a1 = arc_between(p, q1)
                a2 = arc_between(p, q2)
            except DegenerateArc:
                continue
            refl = lambda v: Vec3(-v.x, v.y, v.z)
            try:
                b1 = arc_between(refl(p), refl(q1))
                b2 = arc_between(refl(p), refl(q2))
            except DegenerateArc:
                continue
            r = compare_v_at_u_right(a1, a2, p)
            l = compare_v_at_u_left(b1, b2, refl(p))
            assert r == l

    def test_left_antisymmetry(self):
        p = Vec3(-1, 1, 0)
        a1 = arc_between(Vec3(0, 1, 1), p)
        a2 = arc_between(Vec3(0, 1, 0), p)
        assert compare_v_at_u_left(a1, a2, p) == -compare_v_at_u_left(a2, a1, p)


class TestIntersect:
    def test_transversal(self):
        equator = make_arc(Vec3(1, 0, 0), Vec3(0, 1, 0))[0]
        vertical = make_arc(Vec3(1, 1, -1), Vec3(1, 1, 1))[0]
        r = intersect(equator, vertical)
        assert r.overlap is None
        assert len(r.points) == 1
        assert r.points[0] == classify(Vec3(1, 1, 0))

    def test_disjoint(self):
        a = make_arc(Vec3(1, 0, 0), Vec3(1, 1, 0))[0]
        b = make_arc(Vec3(-1, 2, 0), Vec3(-1, 1, 0))[0]
        r = intersect(a, b)
        assert r.empty

    def test_overlap(self):
        a = make_arc(Vec3(1, 0, 0), Vec3(0, 1, 0))[0]
        b = make_arc(Vec3(1, 1, 0), Vec3(-1, 2, 0))[0]
        r = intersect(a, b)
        assert r.overlap is not None
        assert r.overlap.source == classify(Vec3(1, 1, 0))
        assert r.overlap.target == classify(Vec3(0, 1, 0))

    def test_symmetry_and_on_curve(self):
        rng = random.Random(41)
        for _ in range(150):
            try:
                a = arc_between(rnd_dir(rng), rnd_dir(rng))
                b = arc_between(rnd_dir(rng), rnd_dir(rng))
            except DegenerateArc:
                continue
            r1, r2 = intersect(a, b), intersect(b, a)
            assert set(r1.points) == set(r2.points)
            assert (r1.overlap is None) == (r2.overlap is None)
            for p in r1.points:
                assert point_on_arc(p, a) and point_on_arc(p, b)


class TestSplitMerge:
    def test_split_example(self):
        arc = make_arc(Vec3(1, 0, 0), Vec3(0, 1, 0))[0]
        a, b = split(arc, Vec3(1, 1, 0))
        assert a.source == classify(Vec3(1, 0, 0))
        assert a.target == classify(Vec3(1, 1, 0))
        assert b.source == classify(Vec3(1, 1, 0))
        assert b.target == classify(Vec3(0, 1, 0))
        assert a.normal == arc.normal and b.normal == arc.normal

    def test_split_then_merge_roundtrip(self):
        arc = make_arc(Vec3(1, 0, 0), Vec3(0, 1, 0))[0]
        a, b = split(arc, Vec3(2, 3, 0))
        assert is_mergeable(a, b) and is_mergeable(b, a)
        m = merge(a, b)
        assert m.source == arc.source and m.target == arc.target
        assert merge(b, a) == m == arc

    def test_split_at_endpoint_fails(self):
        arc = make_arc(Vec3(1, 0, 0), Vec3(0, 1, 0))[0]
        with pytest.raises(PointNotInterior):
            split(arc, Vec3(1, 0, 0))

    def test_not_mergeable_different_circles(self):
        a = make_arc(Vec3(1, 0, 0), Vec3(0, 1, 0))[0]
        b = make_arc(Vec3(0, 1, 0), Vec3(0, 1, 1))[0]
        assert not is_mergeable(a, b)
        with pytest.raises(NotMergeable):
            merge(a, b)

    def test_arcs_of_one_circle_that_do_not_touch_do_not_merge(self):
        arc = make_arc(Vec3(1, 0, 0), Vec3(0, 1, 0))[0]
        a, rest = split(arc, Vec3(2, 1, 0))
        _, c = split(rest, Vec3(1, 2, 0))
        for x, y in ((a, c), (c, a)):
            assert not is_mergeable(x, y)
            with pytest.raises(NotMergeable):
                merge(x, y)

    def test_not_mergeable_when_span_reaches_pi(self):
        a = make_arc(Vec3(1, 0, 0), Vec3(0, 1, 0))[0]
        b = make_arc(Vec3(0, 1, 0), Vec3(-1, Fraction(-1, 2), 0))[0]
        # combined span is over pi
        assert not is_mergeable(a, b)
        c = make_arc(Vec3(0, 1, 0), Vec3(-1, 0, 0))[0]
        # combined span is exactly pi
        assert not is_mergeable(a, c)


class TestBoundaryPredicates:
    def test_vertical_arc_to_pole(self):
        arc = make_arc(Vec3(1, 1, 1), Vec3(2, 2, 5))[0]
        north_end = arc_between(Vec3(1, 1, 1), Vec3(0, 0, 1))
        d = boundary_predicates(north_end, MAX_END)
        assert d.v is BoundarySide.TOP
        assert d.u is BoundarySide.INTERIOR
        assert boundary_predicates(arc, MIN_END).v is BoundarySide.INTERIOR
        south_end = arc_between(Vec3(1, 1, -1), Vec3(0, 0, -1))
        d = boundary_predicates(south_end, MAX_END)
        assert d == (BoundarySide.INTERIOR, BoundarySide.BOTTOM)

    def test_identification_sides(self):
        # Arc leaving the identification curve into y < 0: left end at u=-pi.
        a = arc_between(Vec3(-1, 0, 0), Vec3(-1, -1, 0))
        d = boundary_predicates(a, MIN_END)
        assert d.u is BoundarySide.LEFT
        # Into y > 0: the end sits at u = +pi.
        b = arc_between(Vec3(-1, 0, 0), Vec3(-1, 1, 0))
        d = boundary_predicates(b, MIN_END)
        assert d.u is BoundarySide.RIGHT
        # An arc on the identification curve: both ends are on it.
        c = arc_between(Vec3(-1, 0, -1), Vec3(-1, 0, 1))
        for end in (MIN_END, MAX_END):
            d = boundary_predicates(c, end)
            assert d == (BoundarySide.ON_IDENTIFICATION, BoundarySide.INTERIOR)

    def test_vertical_arcs_at_pole_u_order(self):
        # Two vertical arcs hanging from the north pole at azimuths 45 and 135.
        c4 = arc_between(Vec3(1, 1, 2), Vec3(0, 0, 1))
        c5 = arc_between(Vec3(-1, 1, 2), Vec3(0, 0, 1))
        assert compare_u_near_boundary(c4, c5, end2=MAX_END, end1=MAX_END) == SMALLER
        # A point with azimuth between them compares accordingly.
        p = classify(Vec3(0, 1, 0))
        assert compare_u_near_boundary(p, c4, end2=MAX_END) == LARGER
        assert compare_u_near_boundary(p, c5, end2=MAX_END) == SMALLER

    def test_left_ends_on_identification_order(self):
        # Three arcs with left ends on the identification at rising latitude.
        c1 = arc_between(Vec3(-2, 0, -1), Vec3(-1, -1, 0))
        c2 = arc_between(Vec3(-1, 0, 0), Vec3(-1, -1, 0))
        c3 = arc_between(Vec3(-2, 0, 1), Vec3(-1, -1, 1))
        assert compare_v_near_boundary(c1, c2, MIN_END) == SMALLER
        assert compare_v_near_boundary(c2, c3, MIN_END) == SMALLER
        # Same endpoint: tie broken by which arc climbs higher.
        d1 = arc_between(Vec3(-1, 0, 0), Vec3(-1, -1, 1))
        assert compare_v_near_boundary(c2, d1, MIN_END) == SMALLER

    def test_right_ends_sharing_a_seam_point(self):
        # Both arcs leave (-1, 0, 0) into y > 0, so the shared end sits at
        # u = +pi; the one climbing north is above the equator.
        equator = arc_between(Vec3(-1, 0, 0), Vec3(-1, 1, 0))
        climbing = arc_between(Vec3(-1, 0, 0), Vec3(-1, 1, 1))
        assert boundary_predicates(equator, MIN_END).u is BoundarySide.RIGHT
        assert boundary_predicates(climbing, MIN_END).u is BoundarySide.RIGHT
        assert compare_v_near_boundary(equator, climbing, MIN_END) == SMALLER
        assert compare_v_near_boundary(climbing, equator, MIN_END) == LARGER

    def test_compare_v_on_identification(self):
        p1 = classify(Vec3(-1, 0, -1))
        p2 = classify(Vec3(-2, 0, 1))
        assert compare_v_on_identification(p1, p2) == SMALLER
        with pytest.raises(PreconditionViolation):
            compare_v_on_identification(classify(Vec3(1, 1, 0)), p1)


def test_full_circle_arcs():
    arcs = full_circle_arcs(Vec3(1, 2, 3))
    assert len(arcs) == 4
    for i, a in enumerate(arcs):
        assert dot(a.normal, Vec3(1, 2, 3)) > 0 or cross(a.normal, Vec3(1, 2, 3)).is_zero()
        assert a.target == arcs[(i + 1) % 4].source
    # one split lands on the identification curve
    classes = {a.source.boundary_class for a in arcs}
    assert BoundaryClass.ON_IDENTIFICATION in classes


def test_no_square_roots_everything_rational():
    rng = random.Random(59)
    for _ in range(50):
        try:
            a = arc_between(rnd_dir(rng), rnd_dir(rng))
            b = arc_between(rnd_dir(rng), rnd_dir(rng))
        except DegenerateArc:
            continue
        r = intersect(a, b)
        for p in r.points:
            coords = p.dir.as_tuple()
            # exact and stored as the primitive integer triple, never a float
            assert all(type(c) is int for c in coords)
            assert math.gcd(*coords) == 1


_coords = st.one_of(
    st.integers(min_value=-60, max_value=60),
    st.fractions(min_value=-60, max_value=60, max_denominator=12),
)
_directions = st.builds(Vec3, _coords, _coords, _coords).filter(lambda v: not v.is_zero())
_positive = st.one_of(
    st.integers(min_value=1, max_value=10**6),
    st.fractions(min_value=0, max_value=1000, max_denominator=97).filter(lambda k: k > 0),
)


@settings(max_examples=200, deadline=None)
@given(_directions, _directions, _positive)
def test_point_is_the_primitive_triple_of_its_direction(d, e, k):
    p = classify(d)
    q = classify(d.scale(k))
    assert p == q and hash(p) == hash(q)
    assert p != classify(-d)
    coords = p.dir.as_tuple()
    assert all(type(c) is int for c in coords)
    assert math.gcd(*coords) == 1
    assert parallel_same_direction(p.dir, d)
    # equality on triples agrees with the geometric test on any representatives
    for other in (e, e.scale(k), d.scale(k), -d.scale(k)):
        assert (p == classify(other)) == parallel_same_direction(d, other)


_primitive_triples = st.tuples(*[st.integers(-10**6, 10**6)] * 3).filter(
    lambda t: math.gcd(*t) == 1
) | st.sampled_from([(0, 0, 1), (0, 0, -1), (-1, 0, 0), (-3, 0, 2), (1, 0, 0), (0, -1, 0)])


@settings(max_examples=200, deadline=None)
@given(_primitive_triples)
def test_primitive_point_is_classify_of_a_primitive_triple(t):
    # build hands Mesh.validate's primitive normals to primitive_point
    p, q = primitive_point(*t), classify(Vec3(*t))
    assert (p.dir.as_tuple(), p.boundary_class, p.key_hash) == (
        q.dir.as_tuple(), q.boundary_class, q.key_hash
    )
    assert all(type(c) is int for c in p.dir.as_tuple())


# Small-int arcs, biased toward the poles, the seam (y = 0, x < 0) and
# shared or antipodal endpoints.
_small = st.integers(min_value=-3, max_value=3)
_small_directions = st.one_of(
    st.sampled_from(
        [Vec3(0, 0, 1), Vec3(0, 0, -1), Vec3(-1, 0, 1), Vec3(-2, 0, -1), Vec3(-1, 0, 0), Vec3(1, 0, 0)]
    ),
    st.builds(Vec3, _small, _small, _small).filter(lambda v: not v.is_zero()),
)


@st.composite
def _small_arc(draw, source=None):
    s = draw(_small_directions) if source is None else source
    t = draw(_small_directions.filter(lambda v: not cross(s, v).is_zero()))
    arc = draw(st.sampled_from(make_arc(s, t)))
    return arc.reversed() if draw(st.booleans()) else arc


@st.composite
def _arc_pairs(draw):
    a = draw(_small_arc())
    end = draw(st.sampled_from([a.source.dir, a.target.dir]))
    source = draw(st.sampled_from([None, end, -end]))
    return a, draw(_small_arc(source))


def _reference_intersect(a, b):
    """Reduce both candidates +-cross(n1, n2) and test each on both arcs;
    on one great circle, the common endpoints."""
    c = cross(a.normal, b.normal)
    if c.is_zero():
        ends = {p for p in (a.source, a.target, b.source, b.target)
                if point_on_arc(p, a) and point_on_arc(p, b)}
        return ends, len(ends) == 2
    for cand in (c, -c):
        q = classify(cand)
        if point_on_arc(q, a) and point_on_arc(q, b):
            return {q}, False
    return set(), False


@settings(max_examples=400, deadline=None)
@given(_arc_pairs())
def test_intersect_matches_reduced_candidate_reference(pair):
    a, b = pair
    ends, overlap = _reference_intersect(a, b)
    r = intersect(a, b)
    if overlap:
        assert r.points == () and {r.overlap.source, r.overlap.target} == ends
        assert dot(cross(r.overlap.source.dir, r.overlap.target.dir), a.normal) > 0
    else:
        assert r.overlap is None and set(r.points) == ends and len(r.points) == len(ends)


@settings(max_examples=150, deadline=None)
@given(
    _small_arc(),
    st.lists(st.tuples(st.integers(1, 20), st.integers(1, 20)), min_size=1, max_size=8),
    st.randoms(use_true_random=False),
)
def test_order_along_matches_parameter_sort(arc, weights, rnd):
    from geomink.arrangement import _order_along

    # i*s + j*t runs from s to t as j/i grows
    s, t = arc.source.dir, arc.target.dir
    by_ratio = {Fraction(j, i): classify(s.scale(i) + t.scale(j)) for i, j in weights}
    expected = [by_ratio[k] for k in sorted(by_ratio)]
    pts = list(expected)
    rnd.shuffle(pts)
    assert _order_along(arc, pts) == expected


def test_points_and_arcs_are_immutable_values():
    a = arc_between(classify(Vec3(1, 0, 0)), classify(Vec3(0, 1, 0)))
    b = arc_between(classify(Vec3(2, 0, 0)), classify(Vec3(0, 3, 0)))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != a.reversed() and a.reversed().reversed() == a
    assert pickle.loads(pickle.dumps(a)) == a
    r = pickle.loads(pickle.dumps(intersect(a, b)))
    assert r.points == () and r.overlap == a
    for obj, name in ((a, "normal"), (a.source, "dir")):
        with pytest.raises(AttributeError):
            setattr(obj, name, Vec3(0, 0, 1))
