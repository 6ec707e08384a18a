import random

import pytest
from hypothesis import given, settings, strategies as st

from geomink.arrangement import SphereArrangement
from geomink.gaussian import InvalidMesh, Mesh, build, primal_mesh, reflect
from geomink.hull import meshes_equivalent
from geomink.kernel import Vec3, dot
from geomink.shapes import box, icosahedron, octahedron, random_polytope, tetrahedron


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
