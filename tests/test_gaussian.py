import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import convex_by_scan
from geomink.arrangement import SphereArrangement, dumps
from geomink.extremal import default_params, witness_polytope
from geomink.gaussian import (
    InvalidMesh,
    Mesh,
    _check_facet,
    _edge_table,
    build,
    cycle_normal,
    primal_mesh,
    reflect,
)
from geomink.hull import DegenerateInput, convex_hull_3, meshes_equivalent, pairwise_sums
from geomink.kernel import (
    Vec3,
    dot,
    dot3,
    exact_vec,
    integer_representative,
    parallel_same_direction,
    scale_key,
)
from geomink.minkowski import minkowski
from geomink.shapes import box, cube, icosahedron, octahedron, random_polytope, tetrahedron
from geomink.spherical import NORTH, SOUTH, BoundaryClass


def identification_crossings(mesh: Mesh) -> int:
    """Independent count of Gaussian-map edges crossing the seam or
    hitting a pole in their interior: the number of extra split vertices."""
    from geomink.spherical import make_arc

    seen = set()
    s = 0
    for fi, cyc in enumerate(mesh.facets):
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if (b, a) in seen:
                continue
            seen.add((a, b))
    # recover adjacent facet pairs
    edge_face = {}
    pairs = []
    for fi, cyc in enumerate(mesh.facets):
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if (b, a) in edge_face:
                pairs.append((edge_face[(b, a)], fi))
            else:
                edge_face[(a, b)] = fi
    for f1, f2 in pairs:
        pieces = make_arc(mesh.facet_normal(f1), mesh.facet_normal(f2))
        s += len(pieces) - 1
    return s


class TestBuild:
    def test_tetrahedron_counts(self):
        g = build(tetrahedron())
        assert g.counts() == (4, 12, 4)
        assert g.arrangement.validate() == []

    def test_octahedron_counts(self):
        g = build(octahedron())
        assert g.counts() == (10, 28, 6)
        assert g.arrangement.validate() == []
        V, HE, F = g.counts()
        assert V - HE // 2 + F == 2

    def test_icosahedron_counts_via_crossing_law(self):
        m = icosahedron()
        s = identification_crossings(m)
        g = build(m)
        assert g.counts() == (20 + s, 2 * (30 + s), 12)

    def test_duality_law_on_random_polytopes(self):
        for seed in range(8):
            m = random_polytope(14, seed)
            s = identification_crossings(m)
            g = build(m)
            V, HE, F = g.counts()
            assert F == len(m.vertices)
            assert V == len(m.facets) + s
            assert HE == 2 * (m.edge_count() + s)
            assert g.arrangement.validate() == []

    def test_edge_bound_observation(self):
        # After fusing splits: E <= 3F-6 and V <= 2F-4 in primal terms.
        for seed in (3, 11):
            m = random_polytope(12, seed)
            mfacets, medges, mverts = len(m.facets), m.edge_count(), len(m.vertices)
            assert medges <= 3 * mfacets - 6
            assert mverts <= 2 * mfacets - 4

    def test_invalid_meshes_rejected(self):
        sq = Mesh(
            [Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(1, 1, 0), Vec3(0, 1, 0)],
            [[0, 1, 2, 3], [3, 2, 1, 0]],
        )
        with pytest.raises(InvalidMesh):
            build(sq)
        t = tetrahedron()
        bad = Mesh(t.vertices, [list(reversed(f)) for f in t.facets])
        with pytest.raises(InvalidMesh):
            build(bad)


# A box with mixed-denominator coordinates, with shapes.cube()'s vertex
# order and facet cycles; _CORNERS picks the low (0) or high (1) end of
# each axis.
_XS = (Fraction(-1, 2), Fraction(2, 3))
_YS = (Fraction(-3, 4), Fraction(1, 5))
_ZS = (Fraction(-1, 7), Fraction(5, 6))
_CORNERS = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0), (1, 1, 0), (1, 0, 0), (1, 0, 1), (1, 1, 1)]
_BOX_FACETS = [[0, 1, 2, 3], [0, 3, 4, 5], [1, 0, 5, 6], [7, 4, 3, 2], [5, 4, 7, 6], [1, 6, 7, 2]]


def _box_vertices():
    return [Vec3(_XS[i], _YS[j], _ZS[k]) for i, j, k in _CORNERS]


def _mid(a, b):
    return (a + b).scale(Fraction(1, 2))


def _bad_cycle():
    facets = [list(f) for f in _BOX_FACETS]
    facets[2] = [1, 0, 5, 0]
    return Mesh(_box_vertices(), facets)


def _edge_twice():
    return Mesh(_box_vertices(), _BOX_FACETS + [[0, 1, 2, 3]])


def _missing_twin():
    return Mesh(_box_vertices(), _BOX_FACETS[:5] + [[1, 6, 7]])


def _euler():
    v = _box_vertices()
    return Mesh(v + [_mid(v[0], v[7])], _BOX_FACETS)


def _collinear():
    a, b, d = Vec3(Fraction(1, 3), 0, Fraction(-1, 2)), Vec3(2, Fraction(3, 4), 1), Vec3(0, 1, Fraction(2, 5))
    return Mesh([a, b, _mid(a, b), d], [[0, 1, 2], [0, 2, 3], [2, 1, 3], [1, 0, 3]])


def _non_planar():
    v = _box_vertices()
    v[3] = v[3] + Vec3(Fraction(1, 9), 0, 0)
    return Mesh(v, _BOX_FACETS)


def _non_convex():
    # A vertex dented into facet 0 (the x = -1/2 side) from edge (0, 1).
    v = _box_vertices()
    dent = _mid(v[0], v[1]) + Vec3(0, Fraction(1, 11), 0)
    facets = [list(f) for f in _BOX_FACETS]
    facets[0] = [0, 8, 1, 2, 3]
    facets[2] = [1, 8, 0, 5, 6]
    return Mesh(v + [dent], facets)


def _vertex_outside():
    return Mesh(_box_vertices(), [list(reversed(f)) for f in _BOX_FACETS])


def _coplanar_not_on_facet():
    # The top facet split into a fan around its centre.
    v = _box_vertices()
    fan = [[1, 6, 8], [6, 7, 8], [7, 2, 8], [2, 1, 8]]
    return Mesh(v + [_mid(v[1], v[7])], _BOX_FACETS[:5] + fan)


def _coplanar_neighbours():
    # Facets 0 and 1 both pass through all six vertices of a convex
    # hexagon, each winding twice around it with every turn positive, so
    # no vertex is coplanar with either facet but off it.  An apex below
    # closes the hull edges, and two unused interior vertices make
    # V - E + F = 2.
    hexagon = [(0, 0), (8, 0), (10, 5), (8, 10), (0, 10), (-2, 5)]
    v = [Vec3(Fraction(x, 3), Fraction(y, 5), Fraction(1, 2)) for x, y in hexagon]
    v += [
        Vec3(Fraction(4, 3), 1, Fraction(-1, 2)),
        Vec3(Fraction(4, 3), 1, 0),
        Vec3(Fraction(4, 3), Fraction(6, 5), Fraction(1, 7)),
    ]
    sides = [[(a + 1) % 6, a, 6] for a in range(6)]
    return Mesh(v, [[0, 1, 4, 5, 2, 3], [0, 3, 4, 1, 2, 5]] + sides)


def _winds_twice():
    # A pyramid over a pentagram: facet 0 visits the five corners of a
    # convex pentagon in star order, every turn positive, and winds twice
    # around its plane; the side triangles close its edges.
    pentagon = [(0, 0), (6, 0), (8, 5), (3, 9), (-2, 5)]
    v = [Vec3(Fraction(x, 3), Fraction(y, 5), Fraction(1, 2)) for x, y in pentagon]
    v.append(Vec3(Fraction(2, 3), Fraction(4, 5), Fraction(-1, 2)))
    star = [0, 2, 4, 1, 3]
    sides = [[star[(k + 1) % 5], star[k], 5] for k in range(5)]
    return Mesh(v, [star] + sides)


def _flat_square():
    # A unit square as a closed surface, split along one diagonal on top
    # and the other below: every vertex lies on facet 0's plane, and
    # vertex 3 is off facet 0.
    v = [Vec3(0, 0, 0), Vec3(1, 0, 0), Vec3(1, 1, 0), Vec3(0, 1, 0)]
    return Mesh(v, [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])


def _flat_pentagon():
    # A convex pentagon on top, fanned into triangles below: facet 0
    # holds every vertex.
    v = [Vec3(x, y, 0) for x, y in [(0, 0), (2, 0), (3, 2), (1, 3), (-1, 2)]]
    return Mesh(v, [[0, 1, 2, 3, 4], [0, 2, 1], [0, 3, 2], [0, 4, 3]])


def _pentagram_bipyramid():
    # Two pyramids over a pentagram, glued along its five chords: locally
    # convex at every edge, with the centroid below every facet plane,
    # but it covers the sphere of directions twice, so only the ray test
    # rejects it.
    pentagon = [(0, 10), (9, 3), (6, -8), (-6, -8), (-9, 3)]
    v = [Vec3(x, y, 0) for x, y in pentagon] + [Vec3(0, 0, 5), Vec3(0, 0, -5)]
    star = [0, 2, 4, 1, 3]
    facets = []
    for k in range(5):
        a, b = star[k], star[(k + 1) % 5]
        facets += [[b, a, 5], [a, b, 6]]
    return Mesh(v, facets)


@pytest.mark.parametrize(
    "make, message",
    [
        (_bad_cycle, "facet 2 has a bad vertex cycle"),
        (_edge_twice, "directed edge (0, 1) appears twice"),
        (_missing_twin, "edge (1, 2) of facet 0 has no twin"),
        (_euler, "Euler characteristic is not 2"),
        (_collinear, "facet 0 is collinear"),
        (_non_planar, "facet 0 is not planar"),
        (_non_convex, "facet 0 is not a strictly convex CCW polygon"),
        (_vertex_outside, "vertex 4 lies outside facet 0: not convex or facets are misoriented"),
        (_coplanar_not_on_facet, "vertex 6 is coplanar with facet 8 but not on it"),
        # flat surfaces, whose centroid lies on facet 0's plane
        (_flat_square, "vertex 3 is coplanar with facet 0 but not on it"),
        (_flat_pentagon, "facets 0 and 1 are coplanar; merge them first"),
        # An orientable mesh has an even Euler characteristic, so unused
        # vertices pass the Euler check only in pairs, beside facets that
        # wind more than once, as here; the unused-vertex check now
        # rejects this mesh before the coplanar-neighbour check.
        (_coplanar_neighbours, "vertex 7 is on no facet"),
        (_winds_twice, "facet 0 winds more than once around its plane"),
        (
            _pentagram_bipyramid,
            "facet 4 meets the ray from the centroid through facet 0: "
            "the facets wrap more than once around the centroid",
        ),
    ],
    ids=lambda x: x.__name__.strip("_") if callable(x) else None,
)
def test_validate_rejection_messages(make, message):
    mesh = make()
    with pytest.raises(InvalidMesh) as exc:
        mesh.validate()
    assert str(exc.value) == message


@st.composite
def _hulls_and_damaged_copies(draw):
    """The integer hull of 4 to 14 points, as it is or damaged: a facet
    reversed, a vertex moved, pulled toward the centroid or reflected
    through it, or two vertices swapped."""
    coord = st.integers(-4, 4)
    points = draw(st.lists(st.tuples(coord, coord, coord), min_size=4, max_size=14))
    try:
        hull = convex_hull_3(Vec3(*p) for p in points)
    except DegenerateInput:
        assume(False)
    v, facets = list(hull.vertices), [list(f) for f in hull.facets]
    centroid = sum(v, Vec3(0, 0, 0)).scale(Fraction(1, len(v)))
    i = draw(st.integers(0, len(v) - 1))
    damage = draw(st.sampled_from(["none", "reverse", "move", "pull", "reflect", "swap"]))
    if damage == "reverse":
        fi = draw(st.integers(0, len(facets) - 1))
        facets[fi].reverse()
    elif damage == "move":
        v[i] = v[i] + Vec3(*draw(st.tuples(coord, coord, coord)))
    elif damage == "pull":
        v[i] = v[i] + (centroid - v[i]).scale(draw(st.fractions(0, 1, max_denominator=4)))
    elif damage == "reflect":
        v[i] = centroid.scale(2) - v[i]
    elif damage == "swap":
        j = draw(st.integers(0, len(v) - 1))
        v[i], v[j] = v[j], v[i]
    return Mesh(v, facets)


def _topology_and_facets_pass(mesh: Mesh) -> bool:
    try:
        _edge_table(mesh)
        pts, _ = integer_representative(mesh.vertices)
        for fi, cyc in enumerate(mesh.facets):
            corners = [pts[vi] for vi in cyc]
            n = cycle_normal(fi, corners)
            _check_facet(fi, n, dot3(n, corners[0]), corners)
    except InvalidMesh:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(_hulls_and_damaged_copies())
def test_validate_agrees_with_the_vertex_facet_scan(mesh):
    try:
        mesh.validate()
        accepted = True
    except InvalidMesh:
        accepted = False
    assert accepted == (_topology_and_facets_pass(mesh) and convex_by_scan(mesh))


def test_unmodified_fixture_box_is_valid():
    Mesh(_box_vertices(), _BOX_FACETS).validate()


def test_validate_computes_no_fraction_normals(monkeypatch):
    def refuse(mesh, i):
        raise AssertionError("validate called facet_normal")

    monkeypatch.setattr(Mesh, "facet_normal", refuse)
    Mesh(_box_vertices(), _BOX_FACETS).validate()
    random_polytope(12, 5).validate()


def test_build_computes_no_fraction_normals(monkeypatch):
    meshes = [Mesh(_box_vertices(), _BOX_FACETS), random_polytope(12, 5)]
    keys = [[scale_key(*m.facet_normal(i).as_tuple()) for i in range(len(m.facets))] for m in meshes]
    for m, k in zip(meshes, keys):
        normals, _ = m.validate()
        assert [scale_key(*n) for n in normals] == k

    def refuse(mesh, i):
        raise AssertionError("build called facet_normal")

    monkeypatch.setattr(Mesh, "facet_normal", refuse)
    for m, k in zip(meshes, keys):
        arr = build(m).arrangement
        assert all(arr.find_vertex(Vec3(*key)) is not None for key in k)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(5, 12),
    st.integers(0, 10**6),
    st.integers(1, 2**40),
    st.integers(2**60, 2**160),
)
def test_validate_returns_primitive_normals(size, seed, num, den):
    """On vertices with large denominators the normals validate returns
    are primitive integer triples, positive multiples of facet_normal's."""
    k = Fraction(num, den)
    mesh = random_polytope(size, seed)
    mesh = Mesh([v.scale(k) for v in mesh.vertices], mesh.facets)
    normals, _ = mesh.validate()
    for i, n in enumerate(normals):
        assert gcd(*n) == 1
        assert parallel_same_direction(mesh.facet_normal(i), exact_vec(*n))


class TestDecoration:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=5, max_value=12), st.integers(min_value=0, max_value=10**6))
    def test_extremal_property_inside_every_face(self, n_points, seed):
        m = random_polytope(n_points, seed)
        g = build(m)
        for f in g.arrangement.faces:
            v = f.payload
            d = g.arrangement.interior_point(f).dir
            best = max(dot(d, u) for u in m.vertices)
            assert dot(d, v) == best
            assert sum(1 for u in m.vertices if dot(d, u) == best) == 1

    def test_decoration_uses_mesh_adjacency_not_point_location(self, monkeypatch):
        calls = []
        real = SphereArrangement.locate

        def spy(arr, p):
            calls.append(p)
            return real(arr, p)

        monkeypatch.setattr(SphereArrangement, "locate", spy)
        for m in (tetrahedron(), icosahedron(), random_polytope(12, 4)):
            build(m)
            build(m.negated())
        assert calls == []

    def test_support_examples(self):
        g = build(box(0, 0, 0, 1, 1, 1))
        val, arg = g.support(Vec3(1, 1, 1))
        assert val == 3 and arg == Vec3(1, 1, 1)
        g2 = build(octahedron())
        val, arg = g2.support(Vec3(0, 0, 1))
        assert val == 1 and arg == Vec3(0, 0, 1)

    def test_support_against_brute_force(self):
        rng = random.Random(8)
        m = random_polytope(12, 31)
        g = build(m)
        for _ in range(50):
            d = Vec3(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
            if d.is_zero():
                continue
            val, arg = g.support(d)
            assert val == max(dot(d, u) for u in m.vertices)
            assert dot(d, arg) == val


class TestPrimalRoundTrip:
    def test_tetrahedron_roundtrip(self):
        t = tetrahedron()
        assert meshes_equivalent(primal_mesh(build(t)), t)

    def test_octahedron_roundtrip_with_fusing(self):
        o = octahedron()
        m = primal_mesh(build(o))
        assert len(m.facets) == 8
        assert meshes_equivalent(m, o)

    def test_random_roundtrips(self):
        for seed in range(5):
            m = random_polytope(12, 100 + seed)
            assert meshes_equivalent(primal_mesh(build(m)), m)


class TestReflect:
    def test_involution(self):
        t = tetrahedron()
        g = build(t)
        gg = reflect(reflect(g))
        assert meshes_equivalent(primal_mesh(gg), t)

    def test_reflect_negates_payloads(self):
        o = octahedron()
        g = reflect(build(o))
        m = primal_mesh(g)
        assert {v.as_tuple() for v in m.vertices} == {
            (-v).as_tuple() for v in o.vertices
        }

    def test_reflect_centrally_symmetric_is_isomorphic(self):
        o = octahedron()
        assert meshes_equivalent(primal_mesh(reflect(build(o))), o)

    def test_reflect_validates_one_mesh(self, monkeypatch):
        """reflect validates one mesh, the negated primal mesh; the map is
        the one that build makes of it, down to the arrangement's order."""
        validated = []
        validate = Mesh.validate

        def counted(mesh):
            validated.append(mesh)
            return validate(mesh)

        for mesh in (octahedron(), cube(), tetrahedron(), random_polytope(10, 3)):
            g = build(mesh)
            want = build(primal_mesh(g).negated())
            validated.clear()
            monkeypatch.setattr(Mesh, "validate", counted)
            got = reflect(g)
            monkeypatch.setattr(Mesh, "validate", validate)
            assert len(validated) == 1
            assert dumps(got.arrangement) == dumps(want.arrangement)
            assert [f.payload for f in got.arrangement.faces] == [
                f.payload for f in want.arrangement.faces
            ]


@st.composite
def _maps_and_facet_counts(draw):
    """A Gaussian map and its primal facet count: a random difference
    body (counted by the hull oracle), a box, a witness polytope, or the
    sum of both.  Box and witness normals sit at the poles and on the
    seam, where arcs are split."""
    kind = draw(st.sampled_from(["sum", "box", "witness", "box+witness"]))
    if kind == "sum":
        m1, m2 = (
            random_polytope(draw(st.integers(5, 9)), draw(st.integers(0, 10**6)), 6)
            for _ in range(2)
        )
        g = minkowski(build(m1), reflect(build(m2)))
        return g, len(convex_hull_3(pairwise_sums(m1, m2.negated())).facets)
    lo = draw(st.tuples(*[st.integers(-4, 3)] * 3))
    size = draw(st.tuples(*[st.integers(1, 3)] * 3))
    b = box(*lo, *(c + d for c, d in zip(lo, size)))
    w = witness_polytope(default_params(draw(st.integers(4, 8))))
    if kind == "box":
        return build(b), 6
    if kind == "witness":
        return build(w), len(w.facets)
    g = minkowski(build(b), build(w))
    return g, len(primal_mesh(g).facets)


@settings(max_examples=20, deadline=None)
@given(_maps_and_facet_counts())
def test_facet_table_names_the_primal_facets(case):
    g, facet_count = case
    arr = g.arrangement
    table = g.facet_planes
    mesh = primal_mesh(g)
    assert len(table) == len(mesh.facets) == facet_count
    assert list(table) == g.facet_vertices
    # keys in arrangement order; every other vertex is a seam or pole split
    assert list(table) == [w for w in arr.vertices if w in table]
    for w in arr.vertices:
        if w not in table:
            assert w.degree == 2
            assert w.point.boundary_class is not BoundaryClass.INTERIOR
    # the i-th key is the mesh's i-th facet: its normal, its corners, its plane
    for i, (w, (n, b)) in enumerate(table.items()):
        assert n == w.point.dir
        assert scale_key(*n.as_tuple()) == scale_key(*mesh.facet_normal(i).as_tuple())
        corners = [mesh.vertices[v] for v in mesh.facets[i]]
        assert {h.face.payload.as_tuple() for h in w.out} == {c.as_tuple() for c in corners}
        assert all(dot(n, c) == b for c in corners)
    # the integer plane table: the same planes over one denominator, and
    # the centroid slack of each, which is positive
    den, centroid, dc, rows = g.integer_planes
    assert list(rows) == list(table)
    pts = g.primal_vertices()
    mean = sum(pts, Vec3(0, 0, 0)).scale(Fraction(1, len(pts)))
    assert Vec3(*centroid).scale(Fraction(1, dc)) == mean
    for w, (n, b) in table.items():
        nx, ny, nz, big_b, slack = rows[w]
        assert Vec3(nx, ny, nz) == n and Fraction(big_b, den) == b
        assert Fraction(slack, den * dc) == b - dot(n, mean) > 0
    _check_facet_neighbors(g)


def _relabelled(mesh: Mesh, rng: random.Random) -> Mesh:
    """The same polytope with its facets permuted, each facet cycle
    rotated and its vertices relabelled."""
    label = list(range(len(mesh.vertices)))
    rng.shuffle(label)
    vertices = [None] * len(label)
    for old, new in enumerate(label):
        vertices[new] = mesh.vertices[old]
    facets = []
    for cyc in rng.sample(mesh.facets, len(mesh.facets)):
        k = rng.randrange(len(cyc))
        facets.append([label[v] for v in cyc[k:] + cyc[:k]])
    return Mesh(vertices, facets)


def _map_contents(g):
    """A map up to the order of its vertices, arcs and faces: its vertex
    points, its directed arcs with their normals, each face's payload with
    its boundary arcs, and its facet planes."""
    def arc(h):
        return (h.source.point.dir.as_tuple(), h.target.point.dir.as_tuple(),
                h.arc.normal.as_tuple())

    arr = g.arrangement
    return (
        sorted(v.point.dir.as_tuple() for v in arr.vertices),
        sorted(arc(h) for h in arr.halfedges),
        sorted(
            (f.payload.as_tuple(), sorted(arc(h) for rep in f.ccbs for h in rep.cycle()))
            for f in arr.faces
        ),
        sorted((n.as_tuple(), b) for n, b in g.facet_planes.values()),
    )


@settings(max_examples=25, deadline=None)
@given(
    st.one_of(
        st.sampled_from([cube, octahedron]),
        st.tuples(st.integers(5, 12), st.integers(0, 10**6)),
    ),
    st.randoms(use_true_random=False),
)
def test_build_is_order_free(shape, rng):
    # the cube's and octahedron's maps have seam and pole splits
    mesh = shape() if callable(shape) else random_polytope(*shape)
    assert _map_contents(build(_relabelled(mesh, rng))) == _map_contents(build(mesh))


_meshes = st.one_of(
    st.sampled_from([cube(), octahedron(), tetrahedron(), icosahedron()]),
    st.builds(random_polytope, st.integers(4, 10), st.integers(0, 10**6)),
)


@settings(max_examples=25, deadline=None)
@given(_meshes, _meshes, st.booleans())
def test_face_payloads_are_pairwise_distinct(m1, m2, reflect_second):
    # a face is the normal cone of one primal vertex, so the primal
    # vertices and the primal mesh take one vertex per face
    g1, g2 = build(m1), build(m2)
    summand = reflect(g2) if reflect_second else g2
    for g in (g1, reflect(g1), minkowski(g1, summand)):
        keys = [f.payload.ratio_key() for f in g.arrangement.faces]
        assert len(set(keys)) == len(keys)
        assert len(primal_mesh(g).vertices) == len(keys)


def test_cube_and_octahedron_maps_touch_the_seam_and_poles():
    # the octahedron's arcs are split there; the cube's facets map to them
    g = build(octahedron())
    assert len(g.facet_vertices) == 8 < len(g.arrangement.vertices)
    g = build(cube())
    assert len(g.facet_vertices) == len(g.arrangement.vertices) == 6
    assert None not in (g.arrangement.find_vertex(NORTH), g.arrangement.find_vertex(SOUTH))
    assert any(
        w.point.boundary_class is BoundaryClass.ON_IDENTIFICATION for w in g.facet_vertices
    )


def _check_facet_neighbors(g):
    mesh = g.mesh
    assert g.mesh is mesh
    facet_of = {}
    for fi, cyc in enumerate(mesh.facets):
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            facet_of[(a, b)] = fi
    index = {w: i for i, w in enumerate(g.facet_vertices)}
    for w, i in index.items():
        cyc = mesh.facets[i]
        across = {facet_of[(b, a)] for a, b in zip(cyc, cyc[1:] + cyc[:1])}
        got = [index[t] for t in g.facet_neighbors(w)]
        assert len(got) == len(cyc)
        assert set(got) == across


def test_facet_neighbors_share_a_primal_edge():
    # random maps are checked in test_facet_table_names_the_primal_facets
    for mesh in (cube(), octahedron(), witness_polytope(default_params(6))):
        _check_facet_neighbors(build(mesh))
        _check_facet_neighbors(reflect(build(mesh)))

