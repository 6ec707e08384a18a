import functools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geomink.extremal import (
    QUARTER_TURN, RationalRotation, rotate_mesh, tune_params, verify_bound, witness_polytope,
)
from geomink import arrangement, extremal, gaussian
from geomink.gaussian import GaussianMap, Mesh, build, primal_mesh, reflect
from geomink.hull import convex_hull_3, meshes_equivalent, pairwise_sums
from geomink.arrangement import overlay, sweep_build
from geomink.kernel import Vec3, cross, det3, dot
from geomink.minkowski import (
    DegenerateCoincidence,
    minkowski,
    minkowski_many,
    stats,
    sum_facet_count,
)
from geomink.shapes import box, cube, icosahedron, octahedron, random_polytope, tetrahedron
from geomink.spherical import arc_between


class TestMinkowski:
    def test_self_sum_of_tetrahedron_is_doubled(self):
        t = tetrahedron()
        g = build(t)
        s = minkowski(g, g)
        m = primal_mesh(s)
        assert len(m.facets) == 4
        assert {v.as_tuple() for v in m.vertices} == {
            (u + u).as_tuple() for u in t.vertices
        }

    def test_icosahedron_self_sum_counts(self):
        g = build(icosahedron())
        s = minkowski(g, g)
        m = primal_mesh(s)
        assert (len(m.vertices), m.edge_count(), len(m.facets)) == (12, 30, 20)

    def test_support_additivity(self):
        rng = random.Random(77)
        g1 = build(random_polytope(10, 1))
        g2 = build(random_polytope(10, 2))
        s = minkowski(g1, g2)
        for _ in range(60):
            d = Vec3(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
            if d.is_zero():
                continue
            assert s.support(d)[0] == g1.support(d)[0] + g2.support(d)[0]

    def test_oracle_equivalence_small(self):
        for sa, sb in ((3, 4), (5, 6), (7, 8)):
            m1 = random_polytope(8, sa)
            m2 = random_polytope(8, sb)
            got = primal_mesh(minkowski(build(m1), build(m2)))
            want = convex_hull_3(pairwise_sums(m1, m2))
            assert meshes_equivalent(got, want)

    def test_commutativity(self):
        m1 = random_polytope(8, 41)
        m2 = random_polytope(8, 42)
        g1, g2 = build(m1), build(m2)
        a = primal_mesh(minkowski(g1, g2))
        b = primal_mesh(minkowski(g2, g1))
        assert meshes_equivalent(a, b)

    def test_face_count_bound_lemma(self):
        g1 = build(random_polytope(9, 51))
        g2 = build(random_polytope(9, 52))
        s = minkowski(g1, g2)
        assert len(s.arrangement.faces) <= len(g1.arrangement.faces) * len(
            g2.arrangement.faces
        )


class TestMinkowskiMany:
    def test_three_cubes(self):
        g = build(cube(1))
        s = minkowski_many([g, g, g])
        m = primal_mesh(s)
        assert len(m.facets) == 6
        assert s.support(Vec3(1, 0, 0))[0] == 3

    def test_two_reduces_to_pairwise(self):
        g1 = build(random_polytope(7, 61))
        g2 = build(random_polytope(7, 62))
        a = primal_mesh(minkowski_many([g1, g2]))
        b = primal_mesh(minkowski(g1, g2))
        assert meshes_equivalent(a, b)

    def test_requires_two(self):
        with pytest.raises(ValueError):
            minkowski_many([build(cube(1))])

    def test_kway_face_bound(self):
        gs = [build(random_polytope(7, 800 + s)) for s in range(3)]
        out = minkowski_many(gs)
        f = [len(g.arrangement.faces) for g in gs]
        k = len(f)
        bound = (
            sum(f[i] * f[j] for i in range(k) for j in range(i + 1, k))
            - (k - 2) * sum(f)
            + (k - 1) * (k - 2)
        )
        assert len(out.arrangement.faces) <= bound


class TestStats:
    def test_identical_summands_degenerate(self):
        g = build(icosahedron())
        s = minkowski(g, g)
        with pytest.raises(DegenerateCoincidence):
            stats(s, [g, g])

    def test_crossing_count_on_generic_pair(self):
        g1 = build(random_polytope(8, 71))
        g2 = build(random_polytope(8, 72))
        s = minkowski(g1, g2)
        st = stats(s, [g1, g2])
        assert st.sum_vertices == g1.counts()[0] + g2.counts()[0] + st.crossings
        assert st.degree_identity_holds(
            [g1.counts()[1] // 2, g2.counts()[1] // 2]
        )

    def test_normal_inside_a_dual_arc_is_tagged_and_degenerate(self):
        # one facet of the tetrahedron lies in the plane x + y = 1: its
        # normal (1, 1, 0) is strictly inside the octahedron's dual arc
        # from (1, 1, 1) to (1, 1, -1)
        g1 = build(octahedron())
        pts = [Vec3(1, 0, 0), Vec3(0, 1, 2), Vec3(2, -1, 1), Vec3(-3, -2, -2)]
        g2 = build(convex_hull_3(pts))
        for a, b, tag in ((g1, g2, "ev"), (g2, g1, "ve")):
            s = minkowski(a, b)
            tags = Counter(v.payload for v in s.arrangement.vertices)
            assert tags[tag] == 1
            assert set(tags) == {tag, "vf", "fv", "xx"}
            with pytest.raises(DegenerateCoincidence, match=rf"DirPoint\(1, 1, 0\): {tag}$"):
                stats(s, [a, b])

    def test_generic_pair_tags_only_face_vertices_and_crossings(self):
        g1 = build(random_polytope(8, 71))
        g2 = build(random_polytope(8, 72))
        s = minkowski(g1, g2)
        tags = Counter(v.payload for v in s.arrangement.vertices)
        assert set(tags) == {"vf", "fv", "xx"}
        assert tags["vf"] == g1.counts()[0] and tags["fv"] == g2.counts()[0]
        assert stats(s, [g1, g2]).crossings == tags["xx"]

    def test_reflect_then_sum_is_difference_body(self):
        c = build(box(0, 0, 0, 1, 1, 1))
        s = minkowski(c, reflect(c))
        m = primal_mesh(s)
        assert meshes_equivalent(m, cube(1))


def _quaternion_rotation(w: int, x: int, y: int, z: int) -> RationalRotation:
    """The rotation of the (nonzero, unnormalized) integer quaternion."""
    n = Fraction(1, w * w + x * x + y * y + z * z)
    return RationalRotation(
        (
            ((w * w + x * x - y * y - z * z) * n, 2 * (x * y - w * z) * n, 2 * (x * z + w * y) * n),
            (2 * (x * y + w * z) * n, (w * w - x * x + y * y - z * z) * n, 2 * (y * z - w * x) * n),
            (2 * (x * z - w * y) * n, 2 * (y * z + w * x) * n, (w * w - x * x - y * y + z * z) * n),
        )
    )


_quaternions = st.tuples(*[st.integers(min_value=-3, max_value=3)] * 4).filter(any)
_shapes = st.sampled_from([tetrahedron, cube, lambda: box(0, 0, 0, 3, 1, 2)])
_scales = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=5)
_shifts = st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=4)] * 3)
_FAMILIES = ["independent", "same rotation", "scaled copy"]


def test_quaternion_rotations_are_rotations():
    for q in ((1, 0, 0, 0), (1, 1, 0, 0), (2, -1, 3, 1), (0, 1, 1, 1)):
        rows = [Vec3(*row) for row in _quaternion_rotation(*q).rows]
        assert [[dot(a, b) for b in rows] for a in rows] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert det3(*rows) == 1


@settings(max_examples=25, deadline=None)
@given(_shapes, _shapes, _quaternions, _quaternions, st.sampled_from(_FAMILIES), _scales, _shifts)
def test_sum_matches_hull_oracle_on_degenerate_families(
    shape_p, shape_q, qp, qq, family, k, shift
):
    """Rationally rotated cubes, boxes and tetrahedra.  Under one shared
    rotation, the box and cube share all their facet normals; a scaled
    and translated copy of P shares every normal with P.  Their Gaussian
    maps then overlap vertex on vertex and arc on arc."""
    p = rotate_mesh(shape_p(), _quaternion_rotation(*qp))
    if family == "scaled copy":
        t = Vec3(*shift)
        q = Mesh([v.scale(k) + t for v in p.vertices], [list(f) for f in p.facets])
    else:
        rot = qp if family == "same rotation" else qq
        q = rotate_mesh(shape_q(), _quaternion_rotation(*rot))
    got = primal_mesh(minkowski(build(p), build(q)))
    assert meshes_equivalent(got, convex_hull_3(pairwise_sums(p, q)))


def test_facet_count_computes_no_plane_offset(monkeypatch):
    """Counting facets reads the facet list alone: no offset <n, v> of a
    facet plane is computed, on integer or rational payloads."""
    sums = [
        minkowski(build(cube()), build(tetrahedron())),
        minkowski(build(random_polytope(9, 3)), reflect(build(random_polytope(8, 4)))),
    ]
    want = [len(primal_mesh(s).facets) for s in sums]

    def no_offset(u, v):
        raise AssertionError("counting facets computed a plane offset")

    monkeypatch.setattr(gaussian, "dot", no_offset)
    for s, n in zip(sums, want):
        g = GaussianMap(s.arrangement)
        assert len(g.facet_vertices) == n
        assert "facet_planes" not in vars(g)


_polytopes = st.builds(random_polytope, st.integers(4, 12), st.integers(0, 10**6))


@settings(max_examples=40, deadline=None)
@given(_polytopes, _polytopes, st.sampled_from(["pair", "reflected", "self", "self reflected"]))
def test_sum_facet_count_matches_the_assembled_sum(pa, pb, how):
    """Counting the facets off the overlay split agrees with the facet
    list of the assembled sum: on random pairs, one side reflected or
    not; on a polytope and its reflection (every normal antipodal to one
    of the other's); and on self-sums (every normal coincides)."""
    g1 = build(pa)
    g2 = g1 if how.startswith("self") else build(pb)
    if how.endswith("reflected"):
        g2 = reflect(g2)
    assert sum_facet_count(g1, g2) == len(minkowski(g1, g2).facet_vertices)


def test_sum_facet_count_on_seam_and_pole_normals():
    """The cube's and octahedron's normals lie at the poles and on the
    seam, where the maps have their split vertices."""
    maps = [build(cube()), build(octahedron()), build(cube(3).translated(Vec3(1, 2, 3)))]
    maps += [reflect(g) for g in maps]
    for g1 in maps:
        for g2 in maps:
            assert sum_facet_count(g1, g2) == len(minkowski(g1, g2).facet_vertices)


def test_sum_facet_count_on_every_tuner_attempt(monkeypatch):
    """Every candidate pair of witnesses the tuner tries for m, n in
    4..8, the rejected ones too."""
    count = extremal.sum_facet_count
    attempts = []

    def checked(g1, g2):
        got = count(g1, g2)
        assert got == len(minkowski(g1, g2).facet_vertices)
        attempts.append(got)
        return got

    monkeypatch.setattr(extremal, "sum_facet_count", checked)
    for m in range(4, 9):
        for n in range(4, 9):
            assert verify_bound(m, n).tight
    assert len(attempts) > 25  # some candidates were rejected


def test_sum_facet_count_orders_no_cut_point(monkeypatch):
    """The count reads the cut points alone: it never orders them along
    an arc, so it builds no split piece."""
    pairs = [
        (build(random_polytope(9, 3)), reflect(build(random_polytope(8, 4)))),
        (build(cube()), build(octahedron())),
    ]
    want = [len(minkowski(g1, g2).facet_vertices) for g1, g2 in pairs]

    def no_order(arc, pts):
        raise AssertionError("sum_facet_count ordered cut points along an arc")

    monkeypatch.setattr(arrangement, "_order_along", no_order)
    assert [sum_facet_count(g1, g2) for g1, g2 in pairs] == want


# small directions, many of them on the seam's plane y = 0 or at a pole
_directions = st.builds(
    Vec3, st.integers(-2, 2), st.sampled_from([0, 0, -1, 1, 2]), st.integers(-2, 2)
).filter(lambda d: not d.is_zero())


@st.composite
def _arc_arrangements(draw):
    pairs = draw(st.lists(st.tuples(_directions, _directions), min_size=1, max_size=5))
    return sweep_build([arc_between(p, q) for p, q in pairs if not cross(p, q).is_zero()])


@settings(max_examples=150, deadline=None)
@given(_arc_arrangements(), _arc_arrangements())
def test_sum_facet_count_matches_the_overlay_of_any_arcs(a, b):
    """The count follows the facet rule of the assembled overlay on any
    two arrangements, also at what no polytope's map has: antenna tips
    and corners of two arcs on the seam and at the poles."""
    want = len(GaussianMap(overlay(a, b, lambda kind, fa, fb: None)).facet_vertices)
    assert sum_facet_count(GaussianMap(a), GaussianMap(b)) == want


@functools.lru_cache(maxsize=None)
def _witness_meshes(m, n):
    pm, pn = tune_params(m, n)
    return witness_polytope(pm), rotate_mesh(witness_polytope(pn), QUARTER_TURN)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(4, 8),
    st.integers(4, 8),
    st.tuples(st.integers(1, 8), *[st.integers(-2, 2)] * 3),
)
def test_sum_facet_count_on_turned_witnesses(m, n, q):
    """The tuned witness pairs near their tight bound, the second turned
    further by a small integer-quaternion rotation (the identity among
    them), where cut points crowd the seam and the poles."""
    mesh_m, mesh_n = _witness_meshes(m, n)
    g1, g2 = build(mesh_m), build(rotate_mesh(mesh_n, _quaternion_rotation(*q)))
    assert sum_facet_count(g1, g2) == len(minkowski(g1, g2).facet_vertices)


_stock_solids = st.sampled_from(
    [tetrahedron, cube, octahedron, icosahedron, lambda: box(0, 0, 0, 3, 1, 2)]
).map(lambda make: make())


@st.composite
def _summand_maps(draw):
    """2 to 4 maps of random polytopes and stock solids.  Each is left
    as it is, turned by one integer quaternion that all of the turned
    ones share, or by its own, and then reflected or not.  Unturned or
    jointly turned cubes, boxes and octahedra share their normals, and
    unturned ones hold them at the poles and on the seam."""
    shared = _quaternion_rotation(*draw(_quaternions))
    maps = []
    for _ in range(draw(st.integers(2, 4))):
        mesh = draw(st.one_of(_polytopes, _stock_solids))
        turn = draw(st.sampled_from(["none", "shared", "own"]))
        if turn != "none":
            rot = shared if turn == "shared" else _quaternion_rotation(*draw(_quaternions))
            mesh = rotate_mesh(mesh, rot)
        g = build(mesh)
        maps.append(reflect(g) if draw(st.booleans()) else g)
    return maps


@settings(max_examples=100, deadline=None)
@given(_summand_maps())
def test_sum_facet_count_of_many_maps_matches_the_folded_sum(gs):
    """One cut of all k maps' arcs counts the facets that the left fold
    of pairwise sums assembles."""
    assert sum_facet_count(*gs) == len(minkowski_many(gs).facet_vertices)
