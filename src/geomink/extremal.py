"""Worst-case witness polytopes and the tight Minkowski-sum facet bound.

A witness with i facets is a thin wafer: a big top facet in the plane
z = 0, a second top facet tilted against it along a horizontal hinge
chord, and a fan of bottom facets whose outward normals crowd the south
pole.  All vertices lie on the unit cylinder about the Z axis.  Summing
two such wafers, one rotated exactly 90 degrees about Y, makes every
long dual edge of one map cross every long dual edge of the other,
attaining the exact bound on the number of facets.

The bound is checked by counting the facets of each candidate sum off
the overlay split (`minkowski.sum_facet_count`): `tune_params` and
`verify_bound` assemble no sum.  `multi_witness_sum` returns its sum, so
it builds it.

The construction fixes the combinatorics: every facet cycle is written
counterclockwise as seen from outside, and the feature counts follow
from it.  The vertices carry large denominators, so the exact work stays
on small values: a rotation takes one rational dot per coordinate, and
the tuning loop validates each candidate mesh once, in `build`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

from .gaussian import GaussianMap, InvalidMesh, Mesh, build
from .kernel import Rational, Vec3, dot, exact_vec
from .minkowski import facet_count, minkowski_many, sum_facet_count


class InvalidFacetCount(ValueError):
    pass


class ParamsRejected(ValueError):
    """The validity iteration rejected these angles (chain failed)."""


class NonTermination(RuntimeError):
    """The angle-shrinking loop hit its cap; this signals a bug."""


def max_complexity(ms: Sequence[int]) -> int:
    """Tight bound on the number of facets of a Minkowski sum of k
    polytopes with the given facet counts."""
    ms = list(ms)
    if any(m < 4 for m in ms):
        raise InvalidFacetCount("every summand needs at least 4 facets")
    k = len(ms)
    total = sum(ms) + k * (k - 1) // 2
    for a in range(k):
        for b in range(a + 1, k):
            total += (2 * ms[a] - 5) * (2 * ms[b] - 5)
    return total


class RationalRotation(NamedTuple):
    """Exact rational orthogonal matrix with determinant one."""

    rows: Tuple[Tuple[Rational, ...], ...]

    def apply(self, v: Vec3) -> Vec3:
        """The rotated vector: each coordinate one dot of a row with v,
        which on Fraction coordinates builds one Fraction."""
        a, b, c = (exact_vec(*row) for row in self.rows)
        return exact_vec(dot(a, v), dot(b, v), dot(c, v))


def rotation_about_y(t: Rational) -> RationalRotation:
    """Rotation about the Y axis with cos = (1-t^2)/(1+t^2) and
    sin = 2t/(1+t^2); t = 1 is an exact quarter turn."""
    t = Fraction(t)
    den = 1 + t * t
    c = (1 - t * t) / den
    s = 2 * t / den
    return RationalRotation(
        (
            (c, Fraction(0), s),
            (Fraction(0), Fraction(1), Fraction(0)),
            (-s, Fraction(0), c),
        )
    )


def rotate_mesh(mesh: Mesh, rot: RationalRotation) -> Mesh:
    return Mesh([rot.apply(v) for v in mesh.vertices], [list(f) for f in mesh.facets])


class WitnessParams(NamedTuple):
    """Angles of a witness polytope, all encoded as exact rational
    tangent-half-angle values so every coordinate stays rational.

    alpha_t: tan(alpha/2) for the exterior-dihedral tilt alpha at the
        hinge edge; beta_t: tan(beta/4), placing the two deepest bottom
        vertices at azimuth 270 +- beta/2; gamma_t: tan(gamma/2) for the
        spread of the clustered top vertices."""

    facets: int
    alpha_t: Fraction
    beta_t: Fraction
    gamma_t: Fraction

    def tilt(self) -> Fraction:
        """tan(alpha), the slope of the tilted top plane."""
        a = self.alpha_t
        return 2 * a / (1 - a * a)

    def scaled(self, k: Fraction) -> "WitnessParams":
        return WitnessParams(
            self.facets, self.alpha_t * k, self.beta_t * k, self.gamma_t * k
        )


def default_params(i: int) -> WitnessParams:
    """Starting angles: the tilt shrinks fast with the facet count (the
    worst-case crossings need flatter and flatter wafers), the others
    stay moderate; tune_params keeps shrinking until the sum validates."""
    if i < 4:
        raise InvalidFacetCount("witness polytopes need at least 4 facets")
    return WitnessParams(
        i,
        alpha_t=Fraction(1, 2 ** (5 + 2 * max(0, i - 5))),
        beta_t=Fraction(1, 10 * i),
        gamma_t=Fraction(1, 16),
    )


def _circle_point(angle_rad: float) -> Tuple[Fraction, Fraction]:
    """A rational point on the unit circle near the requested azimuth;
    small denominators (the half-angle tangent's at most 200) keep all
    downstream arithmetic light."""
    t = Fraction(math.tan(angle_rad / 2)).limit_denominator(200)
    den = 1 + t * t
    return (1 - t * t) / den, 2 * t / den


def _second_circle_hit(p, q) -> Tuple[Fraction, Fraction]:
    """Second intersection of the line through circle point p and the
    plane point q with the unit circle."""
    (px, py), (qx, qy) = p, q
    dx, dy = qx - px, qy - py
    den = dx * dx + dy * dy
    if den == 0:
        raise ParamsRejected("degenerate chain step")
    t = -2 * (px * dx + py * dy) / den
    if t == 0:
        raise ParamsRejected("chain step did not advance")
    return px + t * dx, py + t * dy


def _ccw(a, b) -> bool:
    return a[0] * b[1] - a[1] * b[0] > 0


def _tangent_pivot(p, y_c: Fraction) -> Fraction:
    """Where the circle tangent at p meets the hinge line y = y_c."""
    x, y = p
    if x == 0:
        raise ParamsRejected("vertical tangent at a chain point")
    return (1 - y_c * y) / x


def _simple_rational_between(lo: Fraction, hi: Fraction) -> Fraction:
    """A small-denominator rational strictly inside (lo, hi)."""
    mid = (lo + hi) / 2
    den = 16
    while den < 10**9:
        cand = mid.limit_denominator(den)
        if lo < cand < hi:
            return cand
        den *= 4
    return mid


def _pivot_chain(
    t0, b0, p_j0, y_c: Fraction, steps: int, weight: Fraction
):
    """Derive the clustered top and bottom vertices of one side.

    Each side quad is planar exactly when its top chord, its bottom
    chord, and the hinge line are concurrent, so every step picks one
    pivot point on the hinge inside the feasible window and shoots both
    chords through it.  The window (hinge-corner abscissa, tangent
    limits) is never empty, so any number of steps succeeds."""
    tops, bottoms = [], []
    t_cur, b_cur = t0, b0
    lo = p_j0[0]
    for _ in range(steps):
        hi = min(_tangent_pivot(t_cur, y_c), _tangent_pivot(b_cur, y_c))
        if not hi > lo:
            raise ParamsRejected("empty pivot window")
        # a simple rational around lo + (hi-lo)*weight, strictly inside
        sub_hi = lo + (hi - lo) * min(2 * weight, Fraction(1))
        xi = _simple_rational_between(lo, sub_hi)
        pivot = (xi, y_c)
        t_nxt = _second_circle_hit(t_cur, pivot)
        b_nxt = _second_circle_hit(b_cur, pivot)
        # tops march from azimuth 360 down toward the hinge corner; the
        # bottoms climb from the deepest point up toward it
        if not (_ccw(p_j0, t_nxt) and _ccw(t_nxt, t_cur) and t_nxt[1] < 0):
            raise ParamsRejected("top chain left its arc")
        if not (_ccw(b_cur, b_nxt) and _ccw(b_nxt, p_j0) and b_nxt[1] < y_c):
            raise ParamsRejected("bottom chain left its arc")
        tops.append(t_nxt)
        bottoms.append(b_nxt)
        t_cur, b_cur = t_nxt, b_nxt
    return tops, bottoms


def witness_polytope(params: WitnessParams) -> Mesh:
    """A convex polytope with exactly `facets` facets, 3i-6 edges and
    2i-4 vertices whose Gaussian map matches the worst-case layout.
    Raises ParamsRejected when the angles give no such polytope."""
    mesh = _witness_mesh(params)
    try:
        mesh.validate()
    except InvalidMesh as e:
        raise ParamsRejected(f"witness mesh invalid: {e}") from e
    return mesh


def _witness_mesh(params: WitnessParams) -> Mesh:
    """The witness polytope's vertices and facet cycles, each cycle
    counterclockwise seen from outside; not yet validated.  The vertex
    loop makes 2i-4 vertices and the facet list has 3 + n_right + n_left
    + 2 = i entries."""
    i = params.facets
    if i < 4:
        raise InvalidFacetCount("need at least 4 facets")
    if i == 4:
        return _witness_p4(params)

    j1 = (i - 2) // 2
    j2, j3 = j1 + 1, i - 2
    j4 = (3 * i - 7) // 2
    j5 = j4 + 1
    n_right = j1 - 1
    n_left = j3 - j2 - 1

    tb = params.beta_t
    den_b = 1 + tb * tb
    c_b = (1 - tb * tb) / den_b  # cos(beta/2)
    s_b = 2 * tb / den_b  # sin(beta/2)
    beta = 4 * math.atan(float(tb))

    # The hinge corners: the bisector placement puts them at azimuth
    # 315 + beta/4 and its mirror image.
    a_j0 = math.radians(315) + beta / 4
    p_j0 = _circle_point(a_j0)
    if not (p_j0[0] > 0 and p_j0[1] < 0):
        raise ParamsRejected("hinge corner left its quadrant")
    p_j3 = (-p_j0[0], p_j0[1])
    y_c = p_j0[1]
    if not (-c_b < y_c < 0):
        raise ParamsRejected("hinge does not separate top from bottom")

    weight = params.gamma_t
    if not 0 < weight < 1:
        weight = Fraction(1, 2)
    tops, bottoms = _pivot_chain(
        (Fraction(1), Fraction(0)),
        (s_b, -c_b),
        p_j0,
        y_c,
        max(n_right, n_left),
        weight,
    )

    pos2d: dict = {
        j1: (Fraction(1), Fraction(0)),
        j2: (Fraction(-1), Fraction(0)),
        0: p_j0,
        j3: p_j3,
        j4: (-s_b, -c_b),
        j5: (s_b, -c_b),
    }
    for m in range(1, n_right + 1):
        pos2d[j1 - m] = tops[m - 1]
        pos2d[j5 + m] = bottoms[m - 1]
    for m in range(1, n_left + 1):
        tx, ty = tops[m - 1]
        bx, by = bottoms[m - 1]
        pos2d[j2 + m] = (-tx, ty)
        pos2d[j4 - m] = (-bx, by)

    tilt = params.tilt()
    verts: List[Vec3] = []
    for idx in range(2 * i - 4):
        x, y = pos2d[idx]
        z = Fraction(0) if idx <= j3 else tilt * (y - y_c)
        verts.append(Vec3(x, y, z))

    facets: List[List[int]] = []
    facets.append(list(range(0, i - 1)))  # f_v: the z=0 top facet
    facets.append(list(range(j3, 2 * i - 4)) + [0])  # f_w: the tilted one
    facets.append([j5, j4, j2, j1])  # f_u: straddles the x axis
    for m in range(n_right):
        facets.append([j5 + 1 + m, j5 + m, j1 - m, j1 - 1 - m])
    for m in range(n_left):
        facets.append([j4 - m, j4 - 1 - m, j2 + m + 1, j2 + m])
    facets.append([1, 0, 2 * i - 5])  # right triangle
    facets.append([j3 + 1, j3, j3 - 1])  # left triangle

    return Mesh(verts, facets)


def _witness_p4(params: WitnessParams) -> Mesh:
    """The four-facet special case: a sliver tetrahedron on the cylinder."""
    tb = params.beta_t
    den_b = 1 + tb * tb
    c_b = (1 - tb * tb) / den_b
    s_b = 2 * tb / den_b
    h = params.tilt()
    v0 = Vec3(1, 0, 0)
    v1 = Vec3(-1, 0, -h)
    v2 = Vec3(-s_b, -c_b, 0)
    v3 = Vec3(s_b, -c_b, -h)
    return Mesh([v0, v1, v2, v3], [[0, 1, 2], [0, 2, 3], [3, 1, 0], [3, 2, 1]])


QUARTER_TURN = rotation_about_y(Fraction(1))


def _witness_maps(pm: WitnessParams, pn: WitnessParams):
    """The Gaussian maps of the two witnesses, the second turned a
    quarter turn about Y.  build validates each mesh, once: a rejected
    mesh rejects the params, as witness_polytope would."""
    mesh_m = _witness_mesh(pm)
    mesh_n = mesh_m if pn == pm else _witness_mesh(pn)
    try:
        return build(mesh_m), build(rotate_mesh(mesh_n, QUARTER_TURN))
    except InvalidMesh as e:
        raise ParamsRejected(f"witness mesh invalid: {e}") from e


def _tune_full(m: int, n: int):
    pm, pn = default_params(m), default_params(n)
    bound = max_complexity([m, n])
    for _ in range(64):
        try:
            g_m, g_n = _witness_maps(pm, pn)
        except ParamsRejected:
            pm = pm.scaled(Fraction(1, 2))
            pn = pn.scaled(Fraction(1, 2))
            continue
        got = sum_facet_count(g_m, g_n)
        if got == bound:
            return pm, pn, got
        pm = WitnessParams(pm.facets, pm.alpha_t / 8, pm.beta_t, pm.gamma_t)
        pn = WitnessParams(pn.facets, pn.alpha_t / 8, pn.beta_t, pn.gamma_t)
    raise NonTermination(f"no valid angles found for ({m}, {n})")


def tune_params(m: int, n: int) -> Tuple[WitnessParams, WitnessParams]:
    """Find witness angles for which the two polytopes (the second one
    rotated a quarter turn about Y) reach the exact facet bound.

    Closed forms for the inter-polytope angle conditions are not used;
    the facet count of the actual sum, counted off the overlay split, is
    the arbiter, and the tilt is shrunk geometrically until every
    worst-case crossing materializes."""
    pm, pn, _got = _tune_full(m, n)
    return pm, pn


class BoundReport(NamedTuple):
    m: int
    n: int
    bound: int
    facets: int

    @property
    def tight(self) -> bool:
        return self.facets == self.bound


def verify_bound(m: int, n: int) -> BoundReport:
    """Build both witnesses, rotate the second a quarter turn about Y,
    count the facets of their sum off the overlay split, and compare the
    count with the bound."""
    _pm, _pn, got = _tune_full(m, n)
    return BoundReport(m, n, max_complexity([m, n]), got)


def multi_witness_sum(ms: Sequence[int]) -> Tuple[int, int, GaussianMap]:
    """Sum k witnesses rotated 180(i-1)/k degrees about Y (rational
    approximations for k > 2); returns (facet count, bound, map).  Each
    distinct facet count is tuned once."""
    k = len(ms)
    witness = {m: witness_polytope(tune_params(m, m)[0]) for m in set(ms)}
    maps = []
    for idx, m in enumerate(ms):
        mesh = witness[m]
        angle = math.pi * idx / k
        t = Fraction(math.tan(angle / 2)).limit_denominator(10**4)
        mesh = rotate_mesh(mesh, rotation_about_y(t))
        maps.append(build(mesh))
    s = minkowski_many(maps)
    return facet_count(s), max_complexity(ms), s
