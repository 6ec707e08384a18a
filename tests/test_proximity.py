import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geomink.gaussian import GaussianMap, build, primal_mesh, reflect
from geomink.kernel import Vec3, ZeroVector, dot, scale_key
from geomink.minkowski import minkowski
from geomink.proximity import (
    INSIDE,
    ON_BOUNDARY,
    OUTSIDE,
    PointOutside,
    classify_point,
    collide,
    directional_penetration,
    separation_sq,
)
from geomink.shapes import box, cube, random_polytope


def sum_cube():
    """[-1,1]^3 as the Minkowski sum of two half-size cubes."""
    h = build(cube(Fraction(1, 2)))
    return minkowski(h, h)


class TestClassifyPoint:
    def test_cube_examples(self):
        M = sum_cube()
        assert classify_point(M, Vec3(0, 0, 0)).classification == INSIDE
        w = classify_point(M, Vec3(1, 0, 0))
        assert w.classification == ON_BOUNDARY
        assert scale_key(*w.facet_normal.as_tuple()) == (1, 0, 0)
        assert classify_point(M, Vec3(2, 0, 0)).classification == OUTSIDE

    def test_agrees_with_brute_force(self):
        rng = random.Random(13)
        m = random_polytope(10, 5)
        g = build(m)
        planes = [(m.facet_normal(i), m.facet_offset(i)) for i in range(len(m.facets))]
        for _ in range(300):
            s = Vec3(
                Fraction(rng.randint(-40, 40), 4),
                Fraction(rng.randint(-40, 40), 4),
                Fraction(rng.randint(-40, 40), 4),
            )
            sides = [dot(n, s) - b for n, b in planes]
            if all(x < 0 for x in sides):
                want = INSIDE
            elif all(x <= 0 for x in sides):
                want = ON_BOUNDARY
            else:
                want = OUTSIDE
            assert classify_point(g, s).classification == want

    def test_hint_never_changes_answer(self):
        rng = random.Random(29)
        m = random_polytope(10, 6)
        g = build(m)
        # arrangement vertex ids repeat across maps, so hints from another
        # sum look like ids of this map and must still be ignored
        other = minkowski(build(random_polytope(8, 61)), build(random_polytope(8, 62)))
        planes = [(m.facet_normal(i), m.facet_offset(i)) for i in range(len(m.facets))]
        c = sum(m.vertices, Vec3(0, 0, 0)).scale(Fraction(1, len(m.vertices)))

        def exit_parameter(n, b, d):
            return (b - dot(n, c)) / dot(n, d)

        hints = [None]
        foreign = [None]
        for _ in range(100):
            s = Vec3(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
            base = classify_point(g, s, None)
            again = classify_point(g, s, hints[-1])
            alien = classify_point(g, s, foreign[-1])
            assert base.classification == again.classification == alien.classification
            d = s - c
            if not d.is_zero():
                # the witness facet is where the ray from c through s exits
                want = min(exit_parameter(n, b, d) for n, b in planes if dot(n, d) > 0)
                for w in (base, again, alien):
                    assert exit_parameter(w.facet_normal, w.facet_offset, d) == want
            hints.append(again.hint)
            foreign.append(classify_point(other, s, foreign[-1]).hint)


class TestCollide:
    def test_grazing_and_offsets(self):
        P = build(box(0, 0, 0, 1, 1, 1))
        Q = build(box(0, 0, 0, 1, 1, 1))
        hit, wit, M = collide(P, Q, Vec3(0, 0, 0), Vec3(1, 0, 0))
        assert hit and wit.classification == ON_BOUNDARY
        eps = Fraction(1, 10**6)
        hit2, wit2, _ = collide(P, Q, Vec3(0, 0, 0), Vec3(1 + eps, 0, 0), cache=M)
        assert not hit2 and wit2.classification == OUTSIDE
        hit3, wit3, _ = collide(P, Q, Vec3(0, 0, 0), Vec3(1 - eps, 0, 0), cache=M)
        assert hit3 and wit3.classification == INSIDE

    def test_far_and_zero_offsets(self):
        P = build(box(0, 0, 0, 1, 1, 1))
        hit, wit, M = collide(P, P, Vec3(0, 0, 0), Vec3(3, 0, 0))
        assert not hit
        hit, wit, _ = collide(P, P, Vec3(0, 0, 0), Vec3(0, 0, 0), cache=M)
        assert hit and wit.classification == INSIDE

    def test_symmetry(self):
        A = build(random_polytope(8, 91))
        B = build(random_polytope(8, 92))
        rng = random.Random(7)
        for _ in range(10):
            u = Vec3(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
            w = Vec3(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
            h1, _, _ = collide(A, B, u, w)
            h2, _, _ = collide(B, A, w, u)
            assert h1 == h2


class TestSeparation:
    def test_cube_examples(self):
        M = sum_cube()
        assert separation_sq(M, Vec3(3, 0, 0)) == 4
        assert separation_sq(M, Vec3(3, 3, 0)) == 8  # closest point (1,1,0)
        assert separation_sq(M, Vec3(0, 0, 0)) == 0

    def test_vertex_closest(self):
        M = sum_cube()
        assert separation_sq(M, Vec3(3, 3, 3)) == 12

    def test_against_sampled_oracle(self):
        m = random_polytope(8, 55)
        g = build(m)
        rng = random.Random(3)
        for _ in range(20):
            s = Vec3(rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20))
            d2 = separation_sq(g, s)
            # no vertex is closer than the reported distance
            assert all((s - v).norm_sq() >= d2 for v in m.vertices)
            # and no sampled hull point beats it
            # combinations of combinations of vertices; none beats it
            for _ in range(40):
                ws = [rng.randint(0, 5) for _ in m.vertices]
                tot = sum(ws) or 1
                p = Vec3(0, 0, 0)
                for wgt, v in zip(ws, m.vertices):
                    p = p + v.scale(Fraction(wgt, tot))
                assert (s - p).norm_sq() >= d2


class TestDirectionalPenetration:
    def test_cube_examples(self):
        M = sum_cube()
        a, exit_pt = directional_penetration(M, Vec3(0, 0, 0), Vec3(1, 0, 0))
        assert a == 1 and exit_pt == Vec3(1, 0, 0)
        a, exit_pt = directional_penetration(M, Vec3(0, 0, 0), Vec3(1, 1, 0))
        assert a == 1 and exit_pt == Vec3(1, 1, 0)
        a, _ = directional_penetration(M, Vec3(1, 0, 0), Vec3(1, 0, 0))
        assert a == 0

    def test_exit_point_on_boundary(self):
        m = random_polytope(9, 77)
        g = build(m)
        planes = [(m.facet_normal(i), m.facet_offset(i)) for i in range(len(m.facets))]
        rng = random.Random(9)
        inner = Vec3(0, 0, 0)
        for v in m.vertices:
            inner = inner + v.scale(Fraction(1, len(m.vertices)))
        for _ in range(25):
            r = Vec3(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
            if r.is_zero():
                continue
            a, x = directional_penetration(g, inner, r)
            assert any(dot(n, x) == b for n, b in planes)
            assert all(dot(n, x) <= b for n, b in planes)

    def test_outside_point_rejected(self):
        M = sum_cube()
        with pytest.raises(PointOutside):
            directional_penetration(M, Vec3(5, 0, 0), Vec3(1, 0, 0))

    def test_zero_direction_rejected(self):
        with pytest.raises(ZeroVector, match="penetration direction must be nonzero"):
            directional_penetration(sum_cube(), Vec3(0, 0, 0), Vec3(0, 0, 0))


def test_simulation_trace():
    from geomink.proximity import PlacementQuery, trace
    from geomink.shapes import box
    from geomink.gaussian import build

    P = build(box(0, 0, 0, 1, 1, 1))
    frames = [
        PlacementQuery(Vec3(0, 0, 0), Vec3(t, 0, 0))
        for t in (0, Fraction(1, 2), 1, 2)
    ]
    lines = trace(P, P, frames)
    assert lines == [
        "frame 0 inside",
        "frame 1 inside",
        "frame 2 on_boundary",
        "frame 3 outside",
    ]


def _seeded_sum(seed):
    return minkowski(
        build(random_polytope(6 + seed % 4, seed)),
        reflect(build(random_polytope(6 + seed % 3, seed + 1))),
    )


def _fractions(lo, hi):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=12)


@st.composite
def _query_point(draw, mesh):
    """A primal vertex, a point on an edge or inside a facet, that point
    moved along the ray from the vertex centroid, or a point near it,
    all with mixed-denominator Fraction coordinates."""
    vs = mesh.vertices
    c = sum(vs, Vec3(0, 0, 0)).scale(Fraction(1, len(vs)))
    cyc = draw(st.sampled_from(mesh.facets))
    kind = draw(st.sampled_from(["vertex", "edge", "facet", "near"]))
    if kind == "vertex":
        p = vs[cyc[0]]
    elif kind == "edge":
        a, b = vs[cyc[0]], vs[cyc[1]]
        p = a + (b - a).scale(draw(_fractions(0, 1)))
    elif kind == "facet":
        weights = draw(st.lists(st.integers(1, 9), min_size=len(cyc), max_size=len(cyc)))
        total = Fraction(1, sum(weights))
        p = sum((vs[i].scale(w * total) for w, i in zip(weights, cyc)), Vec3(0, 0, 0))
    else:
        p = c + Vec3(*(draw(_fractions(-30, 30)) for _ in "xyz"))
    if draw(st.booleans()):
        p = c + (p - c).scale(draw(_fractions(0, 2)))
    return p


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.data())
def test_walk_matches_halfspaces_and_least_exit_parameter(seed, other_seed, data):
    """From no hint, the map's own previous hint and a hint of another
    map, the walk classifies as the facet halfspaces do, and its facet
    is one where the ray from the centroid leaves the polytope."""
    M = _seeded_sum(seed)
    # arrangement vertex ids repeat across maps, so another map's hints
    # look like ids of this one and must be ignored
    other = _seeded_sum(other_seed)
    mesh = primal_mesh(M)
    planes = [(mesh.facet_normal(i), mesh.facet_offset(i)) for i in range(len(mesh.facets))]
    c = sum(mesh.vertices, Vec3(0, 0, 0)).scale(Fraction(1, len(mesh.vertices)))

    def exit_parameter(n, b, d):
        return (b - dot(n, c)) / dot(n, d)

    own = foreign = None
    for _ in range(12):
        s = data.draw(_query_point(mesh))
        sides = [dot(n, s) - b for n, b in planes]
        if all(x < 0 for x in sides):
            want = INSIDE
        elif all(x <= 0 for x in sides):
            want = ON_BOUNDARY
        else:
            want = OUTSIDE
        d = s - c
        least = None
        if not d.is_zero():
            least = min(exit_parameter(n, b, d) for n, b in planes if dot(n, d) > 0)
        witnesses = [classify_point(M, s, h) for h in (None, own, foreign)]
        for wit in witnesses:
            assert wit.classification == want
            assert M.facet_planes[wit.hint] == (wit.facet_normal, wit.facet_offset)
            if least is not None:
                assert dot(wit.facet_normal, d) > 0
                assert exit_parameter(wit.facet_normal, wit.facet_offset, d) == least
        own = witnesses[1].hint
        foreign = classify_point(other, s, foreign).hint


def test_hintless_start_is_the_first_best_aligned_facet(monkeypatch):
    """With no hint the walk starts at the facet that maximizes
    <n, d> |<n, d>| / |n|^2, the first one in facet order on a tie."""
    # with no neighbours to move to, the walk stops where it starts
    monkeypatch.setattr(GaussianMap, "facet_neighbors", lambda self, w: [])
    rng = random.Random(5)
    ties = 0
    for M in (sum_cube(), _seeded_sum(11), _seeded_sum(12)):
        planes = M.facet_planes
        pts = M.primal_vertices()
        c = sum(pts, Vec3(0, 0, 0)).scale(Fraction(1, len(pts)))
        points = [Vec3(x, y, z) for x in (-1, 0, 1, 2) for y in (-1, 0, 2) for z in (0, 1)]
        points += [
            Vec3(*(Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in "xyz"))
            for _ in range(40)
        ]
        for s in points:
            d = s - c
            if d.is_zero():
                continue

            def key(w):
                n = planes[w][0]
                v = dot(n, d)
                return Fraction(v * abs(v), n.norm_sq())

            best = max(planes, key=key)
            assert classify_point(M, s).hint is best
            ties += sum(key(w) == key(best) for w in planes) > 1
    assert ties > 0
