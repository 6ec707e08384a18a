from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from geomink.extremal import (
    InvalidFacetCount,
    QUARTER_TURN,
    _witness_mesh,
    default_params,
    max_complexity,
    multi_witness_sum,
    rotate_mesh,
    rotation_about_y,
    tune_params,
    verify_bound,
    witness_polytope,
)
from geomink.gaussian import Mesh, build
from geomink.kernel import Vec3, cross, det3, dot
from geomink.minkowski import facet_count, minkowski, stats
from geomink.shapes import random_polytope
from geomink.spherical import NORTH

_rationals = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(-(2**100), 2**100), st.integers(1, 2**80)),
)


class TestMaxComplexity:
    def test_known_values(self):
        assert max_complexity([11, 11]) == 312
        assert max_complexity([4, 4]) == 18
        assert max_complexity([4, 4, 4]) == 42  # 5k^2 - k at k = 3
        assert max_complexity([5, 7]) == 58

    def test_k2_closed_form(self):
        for m in range(4, 12):
            for n in range(4, 12):
                assert max_complexity([m, n]) == 4 * m * n - 9 * m - 9 * n + 26

    def test_rejects_small(self):
        with pytest.raises(InvalidFacetCount):
            max_complexity([3, 5])


class TestRotation:
    def test_identity_and_quarter(self):
        I = rotation_about_y(0)
        assert I.apply(Vec3(3, 4, 5)) == Vec3(3, 4, 5)
        R = rotation_about_y(1)
        assert R.apply(Vec3(1, 0, 0)) == Vec3(0, 0, -1)
        assert R.apply(Vec3(0, 0, 1)) == Vec3(1, 0, 0)

    def test_orthogonality_exact(self):
        for t in (Fraction(0), Fraction(1), Fraction(577, 1000), Fraction(-3, 7)):
            rows = [Vec3(*row) for row in rotation_about_y(t).rows]
            assert [[dot(a, b) for b in rows] for a in rows] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
            assert det3(*rows) == 1


@settings(max_examples=200, deadline=None)
@given(_rationals, _rationals, _rationals, _rationals)
def test_rotation_apply_equals_the_operator_expression(t, x, y, z):
    """apply gives the value and the type of the nine-product expression."""
    rot = rotation_about_y(t)
    v = Vec3(x, y, z)
    r = rot.rows
    want = [r[i][0] * v.x + r[i][1] * v.y + r[i][2] * v.z for i in range(3)]
    got = rot.apply(v).as_tuple()
    assert [type(c) for c in got] == [type(c) for c in want]
    assert list(got) == want


def _fraction_orientation(mesh: Mesh) -> Mesh:
    """Reference: each cycle flipped when its turn at the first corner
    points toward the Fraction vertex centroid."""
    centroid = sum(mesh.vertices, Vec3(0, 0, 0)).scale(Fraction(1, len(mesh.vertices)))
    fixed = []
    for cyc in mesh.facets:
        a, b, c = (mesh.vertices[cyc[k]] for k in (0, 1, 2))
        n = cross(b - a, c - b)
        fixed.append(list(reversed(cyc)) if dot(n, centroid) > dot(n, a) else list(cyc))
    return Mesh(mesh.vertices, fixed)


@pytest.mark.parametrize("i", range(4, 17))
def test_witness_cycles_run_outward(i):
    """Every hand-written cycle already turns away from the vertex
    centroid, as the reference orients it, and the mesh validates, at
    three scalings."""
    for k in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
        mesh = _witness_mesh(default_params(i).scaled(k))
        assert mesh.facets == _fraction_orientation(mesh).facets
        mesh.validate()


class TestWitness:
    @pytest.mark.parametrize("i", [4, 5, 6, 7, 9, 11])
    def test_feature_counts(self, i):
        m = witness_polytope(default_params(i))
        assert len(m.facets) == i
        assert m.edge_count() == 3 * i - 6
        assert len(m.vertices) == 2 * i - 4

    def test_vertices_on_unit_cylinder(self):
        m = witness_polytope(default_params(8))
        for v in m.vertices:
            assert v.x * v.x + v.y * v.y == 1

    def test_gaussian_map_shape(self, i=9):
        from geomink.gaussian import _is_split_artifact

        m = witness_polytope(default_params(i))
        g = build(m)
        arr = g.arrangement
        # the flat top facet maps exactly to the north pole
        assert arr.find_vertex(NORTH) is not None
        # exactly one primal edge maps to an arc with its whole interior
        # in y > 0 (pieces are fused across parameterization splits)
        plus = 0
        seen = set()
        for h in arr.halfedges:
            if _is_split_artifact(h.source):
                continue
            pieces = [h]
            e = h
            while _is_split_artifact(e.target):
                e = e.target.out[0] if e.target.out[0] is not e.twin else e.target.out[1]
                pieces.append(e)
            key = frozenset((pieces[0].source.id, pieces[-1].target.id))
            if key in seen:
                continue
            seen.add(key)
            ok = all(p.arc.interior_point().dir.y > 0 for p in pieces)
            ok = ok and all(
                p.target.point.dir.y > 0 for p in pieces[:-1]
            )
            if ok:
                plus += 1
        assert plus == 1


class TestBound:
    def test_4x4_is_18(self):
        r = verify_bound(4, 4)
        assert r.tight and r.facets == 18

    def test_5x5_is_36(self):
        r = verify_bound(5, 5)
        assert r.tight and r.facets == 36

    def test_5x7_is_58(self):
        r = verify_bound(5, 7)
        assert r.tight and r.facets == 58

    def test_crossing_count_formula(self):
        m = n = 5
        pm, pn = tune_params(m, n)
        g1 = build(witness_polytope(pm))
        g2 = build(rotate_mesh(witness_polytope(pn), QUARTER_TURN))
        s = minkowski(g1, g2)
        st = stats(s, [g1, g2])
        assert st.crossings == (2 * m - 5) * (2 * n - 5) + 1

    def test_random_pairs_respect_bound(self):
        for seed in range(4):
            m1 = random_polytope(9, 300 + seed)
            m2 = random_polytope(9, 400 + seed)
            s = minkowski(build(m1), build(m2))
            fm, fn = len(m1.facets), len(m2.facets)
            assert facet_count(s) <= max_complexity([fm, fn])


def test_multi_witness_tetrahedra():
    got, bound, _g = multi_witness_sum([4, 4, 4])
    assert bound == 42
    assert got <= bound
