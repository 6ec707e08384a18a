import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geomink.gaussian import InvalidMesh, Mesh
from geomink.hull import DegenerateInput, convex_hull_3, meshes_equivalent, pairwise_sums
from geomink.kernel import Vec3, dot, scale_key
from geomink.shapes import cube, octahedron, random_polytope, tetrahedron


def test_tetrahedron_from_four_points():
    m = convex_hull_3([Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)])
    assert len(m.vertices) == 4
    assert len(m.facets) == 4
    assert m.edge_count() == 6


def test_cube_with_center_dropped():
    pts = [Vec3(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    pts.append(Vec3(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    m = convex_hull_3(pts)
    assert len(m.vertices) == 8
    assert len(m.facets) == 6
    assert all(len(f) == 4 for f in m.facets)


def test_point_on_facet_and_edge_dropped():
    pts = [Vec3(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    pts.append(Vec3(1, 1, 2))  # interior of the top facet
    pts.append(Vec3(1, 0, 0))  # interior of a bottom edge
    m = convex_hull_3(pts)
    assert len(m.vertices) == 8
    assert len(m.facets) == 6


def test_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        convex_hull_3([Vec3(i, 0, 0) for i in range(5)])
    with pytest.raises(DegenerateInput):
        convex_hull_3([Vec3(i, j, 0) for i in range(3) for j in range(3)])


def test_every_point_inside_every_facet():
    rng = random.Random(99)
    pts = [
        Vec3(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        for _ in range(40)
    ]
    m = convex_hull_3(pts)
    for i in range(len(m.facets)):
        n, b = m.facet_normal(i), m.facet_offset(i)
        for p in pts:
            assert dot(n, p) <= b


def test_hull_idempotence():
    rng = random.Random(3)
    pts = [
        Vec3(rng.randint(-7, 7), rng.randint(-7, 7), rng.randint(-7, 7))
        for _ in range(30)
    ]
    m1 = convex_hull_3(pts)
    m2 = convex_hull_3(m1.vertices)
    assert meshes_equivalent(m1, m2)


def test_insertion_order_invariance():
    rng = random.Random(4)
    pts = [
        Vec3(rng.randint(-7, 7), rng.randint(-7, 7), rng.randint(-7, 7))
        for _ in range(25)
    ]
    m1 = convex_hull_3(pts, seed=1)
    m2 = convex_hull_3(list(reversed(pts)), seed=2)
    assert meshes_equivalent(m1, m2)


def test_pairwise_sums_cardinality():
    t, c = tetrahedron(), cube()
    assert len(pairwise_sums(t, c)) == 4 * 8


def test_meshes_equivalent_examples():
    c = cube()
    assert meshes_equivalent(c, convex_hull_3(list(reversed(c.vertices))))
    shifted = c.translated(Vec3(1, 0, 0))
    assert not meshes_equivalent(c, shifted)


def test_shapes_all_valid():
    for mesh in (tetrahedron(), cube(), octahedron(), random_polytope(12, 5)):
        mesh.validate()


def test_euler_on_random_hulls():
    for seed in range(6):
        m = random_polytope(15, seed)
        V, E, F = len(m.vertices), m.edge_count(), len(m.facets)
        assert V - E + F == 2


@pytest.mark.parametrize("n_points, spread", [(3, 12), (8, 0)])
def test_random_polytope_rejects_what_spans_no_space(n_points, spread):
    with pytest.raises(ValueError):
        random_polytope(n_points, 1, spread=spread)


def test_random_polytope_redraws_a_degenerate_draw(monkeypatch):
    """Four points with coordinates in [-1, 1] from seed 27 span no
    space: the draw and the hull seed are retaken from seed 27 + 7919."""
    import geomink.shapes as shapes

    hull_seeds = []

    def hull(pts, seed):
        hull_seeds.append(seed)
        return convex_hull_3(pts, seed=seed)

    monkeypatch.setattr(shapes, "convex_hull_3", hull)
    m = random_polytope(4, 27, spread=1)
    assert hull_seeds == [27 ^ 0xC0FFEE, (27 + 7919) ^ 0xC0FFEE]
    m.validate()
    again = random_polytope(4, 27 + 7919, spread=1)
    assert (m.vertices, m.facets) == (again.vertices, again.facets)


_coord = st.integers(min_value=-5, max_value=5)
_points = st.lists(st.tuples(_coord, _coord, _coord), min_size=4, max_size=14)
_scales = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
_shifts = st.tuples(*[st.fractions(min_value=-7, max_value=7, max_denominator=11)] * 3)


def _hull_outcome(pts):
    try:
        m = convex_hull_3(pts)
    except DegenerateInput as e:
        return str(e), None
    return m.facets, m.vertices


def _validate_outcome(mesh):
    try:
        mesh.validate()
    except InvalidMesh as e:
        return str(e)
    return None


@settings(max_examples=40, deadline=None)
@given(_points, _scales, _shifts, st.integers(min_value=0, max_value=3), st.integers(min_value=0))
def test_hull_and_validate_commute_with_scaling_and_translation(raw, k, shift, defect, pick):
    """A positive rational scaling plus a rational translation changes no
    exact sign: the hull keeps its facet cycles and its vertices are the
    transformed inputs, and validate gives the same verdict."""
    t = Vec3(*shift)

    def move(v):
        return v.scale(k) + t

    pts = [Vec3(*p) for p in raw]
    facets, verts = _hull_outcome(pts)
    moved_facets, moved_verts = _hull_outcome([move(p) for p in pts])
    assert moved_facets == facets
    if verts is None:
        assert moved_verts is None
        return
    assert moved_verts == [move(v) for v in verts]

    # The same verdict on the hull and on a damaged copy of it.
    verts, facets = list(verts), [list(f) for f in facets]
    i = pick % len(verts)
    if defect == 1:
        facets[pick % len(facets)].reverse()
    elif defect == 2:
        verts[i] = verts[i] + Vec3(1, 0, Fraction(-1, 2))
    elif defect == 3:
        verts[i] = verts[i].scale(Fraction(1, 2))
    mesh = Mesh(verts, facets)
    moved = Mesh([move(v) for v in verts], facets)
    assert _validate_outcome(moved) == _validate_outcome(mesh)


_seeds = st.integers(min_value=0, max_value=(1 << 30) - 1)
_int_shifts = st.tuples(*[st.integers(min_value=-6, max_value=6)] * 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=4, max_value=11), _seeds, _int_shifts,
       st.integers(min_value=4, max_value=11), _seeds, _int_shifts)
def test_integer_paths_match_the_rational_operators(n1, s1, t1, n2, s2, t2):
    """On random_polytopes with denominators 1 to 4, each moved by an
    integral translation: pairwise_sums equals the Vec3 sums element by
    element, an int exactly where a coordinate is integral; and on them,
    their sums' hull and that hull's inputs, Mesh.validate returns each
    facet's normal as the primitive positive multiple of facet_normal and
    the table of each directed edge, in facet-cycle order, to its facet."""
    m1 = random_polytope(n1, s1).translated(Vec3(*t1))
    m2 = random_polytope(n2, s2).translated(Vec3(*t2))
    sums = pairwise_sums(m1, m2)
    assert sums == [v + w for v in m1.vertices for w in m2.vertices]
    assert all((type(c) is int) == (c.denominator == 1) for v in sums for c in v.as_tuple())
    for m in (m1, m2, convex_hull_3(sums)):
        normals, table = m.validate()
        assert len(normals) == len(m.facets)
        for i, n in enumerate(normals):
            assert all(type(c) is int for c in n)
            assert tuple(n) == scale_key(*m.facet_normal(i).as_tuple())
        edges = [
            ((a, b), fi)
            for fi, cyc in enumerate(m.facets)
            for a, b in zip(cyc, cyc[1:] + cyc[:1])
        ]
        assert list(table.items()) == edges
