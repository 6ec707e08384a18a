import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import geomink
from geomink.kernel import (
    Sign,
    Vec3,
    ZeroNormal,
    ccw_strictly_before,
    cross,
    det3,
    dot,
    dot_sign,
    dot3,
    exact_vec,
    format_rat,
    integer_coords,
    integer_point,
    rat,
    side_of_origin_plane,
    turn3,
)


def test_dot_sign_examples():
    assert dot_sign(Vec3(1, 0, 0), Vec3(0, 1, 0)) == Sign.ZERO
    assert dot_sign(Vec3(1, 2, 3), Vec3(1, 2, 3)) == Sign.POSITIVE
    # 1 + 1 - 1 = 1
    assert dot_sign(Vec3(1, 1, -1), Vec3(1, 1, 1)) == Sign.POSITIVE


def test_cross_examples():
    assert cross(Vec3(1, 0, 0), Vec3(0, 1, 0)) == Vec3(0, 0, 1)
    assert cross(Vec3(2, 0, 0), Vec3(4, 0, 0)) == Vec3(0, 0, 0)
    assert cross(Vec3(1, 1, -1), Vec3(1, 1, 1)) == Vec3(2, -2, 0)


def test_side_of_origin_plane_examples():
    assert side_of_origin_plane(Vec3(0, 0, 1), Vec3(3, -2, 5)) == Sign.POSITIVE
    assert side_of_origin_plane(Vec3(0, 0, 1), Vec3(3, -2, 0)) == Sign.ZERO
    assert side_of_origin_plane(Vec3(2, -2, 0), Vec3(1, 1, 7)) == Sign.ZERO
    with pytest.raises(ZeroNormal):
        side_of_origin_plane(Vec3(0, 0, 0), Vec3(1, 1, 1))


_Z = Vec3(0, 0, 1)


def test_ccw_strictly_before_examples():
    # From the u-comparison geometry: d-hat is reached strictly before p2-hat.
    assert ccw_strictly_before(_Z, Vec3(1, 1, 0), Vec3(-1, 0, 0), Vec3(1, -1, 0)) is True
    # Probe coincident with start is never strictly before.
    assert ccw_strictly_before(_Z, Vec3(1, 0, 0), Vec3(1, 0, 0), Vec3(0, 1, 0)) is False
    # A probe codirectional with the target ties toward "not before".
    assert ccw_strictly_before(_Z, Vec3(1, 0, 0), Vec3(0, 2, 0), Vec3(0, 1, 0)) is False
    # CCW from +y reaches -x before +x.
    assert ccw_strictly_before(_Z, Vec3(0, 1, 0), Vec3(1, 0, 0), Vec3(-1, 0, 0)) is False
    # About -z the turn runs the other way.
    assert ccw_strictly_before(-_Z, Vec3(0, 1, 0), Vec3(1, 0, 0), Vec3(-1, 0, 0)) is True


def test_cross_antisymmetry_and_orthogonality():
    rng = random.Random(7)
    for _ in range(200):
        u = Vec3(*(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)))
        v = Vec3(*(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(3)))
        assert cross(u, v) == -cross(v, u)
        c = cross(u, v)
        assert dot_sign(c, u) == Sign.ZERO
        assert dot_sign(c, v) == Sign.ZERO


def test_side_of_origin_plane_scale_invariance():
    rng = random.Random(11)
    for _ in range(100):
        n = Vec3(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 5))
        p = Vec3(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
        s = side_of_origin_plane(n, p)
        k1 = Fraction(rng.randint(1, 20), rng.randint(1, 20))
        k2 = Fraction(rng.randint(1, 20), rng.randint(1, 20))
        assert side_of_origin_plane(n.scale(k1), p.scale(k2)) == s


def test_ccw_strictly_before_against_atan2():
    # Vectors x e1 + y e2 in the plane normal to a random integer axis,
    # where (e1, e2, axis) is right-handed and e2 is |axis| times as long
    # as e1, so the float oracle reads the angle of (x, |axis| y).
    rng = random.Random(3)
    checked = 0
    while checked < 1000:
        axis = Vec3(*(rng.randint(-3, 3) for _ in range(3)))
        e1 = cross(axis, Vec3(1, 2, 4))
        if e1.is_zero():
            continue
        e2 = cross(axis, e1)
        stretch = math.sqrt(axis.norm_sq())
        pts = []
        for _ in range(3):
            x = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
            y = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
            if x == 0 and y == 0:
                break
            pts.append((x, y))
        if len(pts) < 3:
            continue
        s, p, t = pts

        def ang_from_start(v):
            a = math.atan2(float(v[1]) * stretch, float(v[0])) - math.atan2(
                float(s[1]) * stretch, float(s[0])
            )
            return a % (2 * math.pi)

        ap, at = ang_from_start(p), ang_from_start(t)
        # Only judge well-separated angles with the float oracle.
        if min(ap, at, abs(ap - at), 2 * math.pi - ap, 2 * math.pi - at) < 1e-6:
            continue
        s3, p3, t3 = (e1.scale(x) + e2.scale(y) for x, y in (s, p, t))
        assert ccw_strictly_before(axis, s3, p3, t3) == (ap < at)
        checked += 1


def test_rat_parsing_and_formatting():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == Fraction(-7)
    assert rat(5) == Fraction(5)
    assert format_rat(Fraction(3, 4)) == "3/4"
    assert format_rat(Fraction(-8, 2)) == "-4"


def test_integer_coords_scales_by_the_common_denominator():
    pts = [Vec3(Fraction(1, 2), 0, Fraction(-2, 3)), Vec3(3, Fraction(4, 2), Fraction(5, 6))]
    assert integer_coords(pts) == [(3, 0, -4), (18, 12, 5)]
    ints = [Vec3(1, -2, 3), Vec3(0, 5, Fraction(8, 4))]
    got = integer_coords(ints)
    assert got == [(1, -2, 3), (0, 5, 2)]
    assert all(type(c) is int for t in got for c in t)


def test_integer_point_puts_a_vector_over_the_lcm_of_its_denominators():
    assert integer_point(Vec3(Fraction(1, 2), 0, Fraction(-2, 3))) == (3, 0, -4, 6)
    assert integer_point(Vec3(Fraction(5, 4), Fraction(1, 6), 7)) == (15, 2, 84, 12)
    got = integer_point(Vec3(1, -2, Fraction(8, 4)))
    assert got == (1, -2, 2, 1) and all(type(c) is int for c in got)


def test_integer_coords_keep_orientation_signs():
    rng = random.Random(12)
    for _ in range(200):
        pts = [
            Vec3(*(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(3)))
            for _ in range(4)
        ]
        a, b, c, d = pts
        want = dot_sign(cross(b - a, c - a), d - a)
        ia, ib, ic, id_ = integer_coords(pts)
        got = dot3(turn3(ia, ib, ic), (id_[0] - ia[0], id_[1] - ia[1], id_[2] - ia[2]))
        assert (got > 0) - (got < 0) == want


# ints, Fractions with denominator 1, zeros and negatives among them, and
# ~200-bit numerators, mixed freely within a vector
_coords = st.one_of(
    st.integers(-9, 9),
    st.integers(-9, 9).map(Fraction),
    st.integers(-(2**200), 2**200),
    st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**64)),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
)
# Vec3 stores an all-integral vector as ints; exact_vec keeps the
# Fraction(n, 1)s, as the results of rational arithmetic do
_vecs = st.one_of(
    st.builds(Vec3, _coords, _coords, _coords),
    st.builds(exact_vec, _coords, _coords, _coords),
)


def _same(got, want):
    return type(got) is type(want) and got == want


@settings(max_examples=300, deadline=None)
@given(_vecs, _vecs, _vecs)
def test_kernel_products_equal_the_operator_expressions(u, v, w):
    """dot, norm_sq, det3 and cross give the value and the type of the
    plain operator expression, on the int and rational paths alike: an
    int exactly when every coordinate involved is an int."""
    cx = u.y * v.z - u.z * v.y
    cy = u.z * v.x - u.x * v.z
    cz = u.x * v.y - u.y * v.x
    c = cross(u, v)
    assert _same(c.x, cx) and _same(c.y, cy) and _same(c.z, cz)
    assert _same(dot(u, v), u.x * v.x + u.y * v.y + u.z * v.z)
    assert _same(u.norm_sq(), u.x * u.x + u.y * u.y + u.z * u.z)
    assert _same(det3(u, v, w), cx * w.x + cy * w.y + cz * w.z)
    if all(type(k) is int for k in u.as_tuple() + v.as_tuple() + w.as_tuple()):
        assert type(dot(u, v)) is type(u.norm_sq()) is type(det3(u, v, w)) is int
        assert all(type(k) is int for k in c.as_tuple())


def test_vectors_are_immutable_values():
    v = Vec3(1, Fraction(2), Fraction(3, 4))
    w = Vec3(Fraction(1), 2, Fraction(6, 8))
    assert v == w and hash(v) == hash(w) and len({v, w}) == 1
    assert v != Vec3(1, 2, 1) and v != (1, 2, Fraction(3, 4))
    with pytest.raises(AttributeError):
        v.x = 5
    with pytest.raises(AttributeError):
        del v.y
    assert v.as_tuple() == (1, 2, Fraction(3, 4))
    assert pickle.loads(pickle.dumps(v)) == v


def test_an_all_integral_vector_holds_ints():
    v = Vec3(Fraction(2), Fraction(4), 6)
    assert [type(c) for c in v.as_tuple()] == [int, int, int]
    assert [type(c) for c in Vec3("6/3", Fraction(-8, 2), 0).as_tuple()] == [int, int, int]
    w = Vec3(Fraction(1, 2), Fraction(4), 6)
    assert [type(c) for c in w.as_tuple()] == [Fraction, Fraction, int]
    # equal, and hashed alike, to the same values held as Fractions
    kept = exact_vec(Fraction(2), Fraction(4), Fraction(6))
    assert v == kept == Vec3(2, 4, 6) and hash(v) == hash(kept) == hash(Vec3(2, 4, 6))
    assert w == exact_vec(Fraction(1, 2), 4, Fraction(6)) and len({w, Vec3("1/2", 4, "12/2")}) == 1
    assert v.ratio_key() == kept.ratio_key()


def test_importing_the_package_loads_no_dataclasses():
    """The value classes are hand-written or NamedTuples: importing
    dataclasses also loads inspect, ast and dis, about 0.9 MB of resident
    memory in every process that uses geomink."""
    modules = ["arrangement", "assembly", "cli", "extremal", "fileio", "gaussian",
               "hull", "kernel", "minkowski", "proximity", "shapes", "spherical"]
    src = os.path.dirname(os.path.dirname(geomink.__file__))
    code = f"import sys\nsys.path.insert(0, {src!r})\n"
    code += "".join(f"import geomink.{m}\n" for m in modules)
    code += "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
