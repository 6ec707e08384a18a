"""Exact incremental 3D convex hull, used as the independent oracle for
Minkowski sums and as a mesh utility.

Internally the hull is kept simplicial, with one map from each directed
edge to its live triangle that every insertion updates: the edges of the
triangles a point sees leave it, those of the new triangles enter it,
and the horizon is read from it.  Coplanar triangles are merged into
maximal facets at the end so facet counts compare directly against
Gaussian-map results, and the output passes Mesh.validate's linear-time
convexity certificate.  All predicates are exact signs, taken on the
integer representative of the input (kernel.integer_representative:
every point scaled by the lcm of all the denominators, which changes no
sign), on which equal points are also found; each triangle keeps its
plane as four ints, read inline by every visibility test.  The output mesh holds the
input points themselves.  pairwise_sums adds ints too (see there).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from .gaussian import Mesh, cycle_normal
from .kernel import (
    Rational, Vec3, dot3, exact_vec, integer_representative, scale_key, turn3,
)


class DegenerateInput(ValueError):
    """Input points do not affinely span 3-space."""


def _orient(a: tuple, b: tuple, c: tuple, d: tuple) -> int:
    return dot3(turn3(a, b, c), (d[0] - a[0], d[1] - a[1], d[2] - a[2]))


class _Tri:
    """Triangle a, b, c and its plane <(nx, ny, nz), x> = off, as four ints."""

    __slots__ = ("a", "b", "c", "nx", "ny", "nz", "off", "alive")

    def __init__(self, a: int, b: int, c: int, pts: List[tuple]):
        self.a, self.b, self.c = a, b, c
        self.nx, self.ny, self.nz = n = turn3(pts[a], pts[b], pts[c])
        self.off = dot3(n, pts[a])
        self.alive = True

    def edges(self) -> List[Tuple[int, int]]:
        return [(self.a, self.b), (self.b, self.c), (self.c, self.a)]


def convex_hull_3(points: Iterable[Vec3], seed: int = 20111) -> Mesh:
    """Exact convex hull; output vertices are exactly the extreme points
    and coplanar facets are merged into maximal planar facets."""
    given = list(points)
    # equal points have equal integer triples: keep each one's first index
    first: Dict[tuple, int] = {}
    for i, t in enumerate(integer_representative(given)[0]):
        first.setdefault(t, i)
    if len(first) < 4:
        raise DegenerateInput("need at least 4 distinct points")
    inputs = [given[i] for i in first.values()]
    pts = list(first)

    # Seed simplex: four affinely independent points.
    i0 = 0
    i1 = next((i for i in range(len(pts)) if pts[i] != pts[i0]), None)
    i2 = next(
        (
            i
            for i in range(len(pts))
            if i not in (i0, i1)
            and turn3(pts[i0], pts[i1], pts[i]) != (0, 0, 0)
        ),
        None,
    )
    if i2 is None:
        raise DegenerateInput("points are collinear")
    i3 = next(
        (
            i
            for i in range(len(pts))
            if i not in (i0, i1, i2) and _orient(pts[i0], pts[i1], pts[i2], pts[i]) != 0
        ),
        None,
    )
    if i3 is None:
        raise DegenerateInput("points are coplanar")
    if _orient(pts[i0], pts[i1], pts[i2], pts[i3]) > 0:
        i1, i2 = i2, i1

    tris: List[_Tri] = [
        _Tri(i0, i1, i2, pts),
        _Tri(i0, i2, i3, pts),
        _Tri(i2, i1, i3, pts),
        _Tri(i1, i0, i3, pts),
    ]

    order = [i for i in range(len(pts)) if i not in (i0, i1, i2, i3)]
    random.Random(seed).shuffle(order)

    # each directed edge of a live triangle -> that triangle
    owner: Dict[Tuple[int, int], _Tri] = {e: t for t in tris for e in t.edges()}
    for pi in order:
        px, py, pz = pts[pi]
        visible = [t for t in tris if t.nx * px + t.ny * py + t.nz * pz > t.off]
        if not visible:
            continue
        for t in visible:
            t.alive = False
        # the horizon: edges of visible triangles whose twins' triangles live
        horizon = [
            (a, b) for t in visible for (a, b) in t.edges() if owner[(b, a)].alive
        ]
        for t in visible:
            for e in t.edges():
                del owner[e]
        for (a, b) in horizon:
            t = _Tri(a, b, pi, pts)
            tris.append(t)
            for e in t.edges():
                owner[e] = t
        tris = [t for t in tris if t.alive]

    # Merge coplanar triangles into maximal facets.
    groups: Dict[tuple, List[_Tri]] = {}
    for t in tris:
        groups.setdefault(scale_key(t.nx, t.ny, t.nz, t.off), []).append(t)

    facets: List[List[int]] = []
    for group in groups.values():
        # each directed edge lies on one live triangle, so the group's
        # boundary edges are those whose reverse is not in the group
        edges = dict.fromkeys(e for t in group for e in t.edges())
        boundary = {a: b for (a, b) in edges if (b, a) not in edges}
        start = next(iter(boundary))
        cycle = [start]
        cur = boundary[start]
        while cur != start:
            cycle.append(cur)
            cur = boundary[cur]
        # Drop the collinear boundary vertices (non-extreme points): a
        # deletion leaves its neighbours on the same lines, so one pass
        # over the walked cycle finds them all.
        facets.append([
            b
            for a, b, c in zip(cycle[-1:] + cycle[:-1], cycle, cycle[1:] + cycle[:1])
            if turn3(pts[a], pts[b], pts[c]) != (0, 0, 0)
        ])

    remap = {}
    verts = []
    for f in facets:
        for vi in f:
            if vi not in remap:
                remap[vi] = len(verts)
                verts.append(inputs[vi])
    mesh = Mesh(verts, [[remap[v] for v in f] for f in facets])
    mesh.validate()
    return mesh


def pairwise_sums(m1: Mesh, m2: Mesh) -> List[Vec3]:
    """[v + w for v in m1.vertices for w in m2.vertices], added as ints
    over one common denominator d (kernel.integer_representative): a
    coordinate s / d is the int s // d, or one Fraction(s, d)."""
    k = len(m1.vertices)
    pts, d = integer_representative([*m1.vertices, *m2.vertices])
    return [exact_vec(_over(ax + bx, d), _over(ay + by, d), _over(az + bz, d))
            for ax, ay, az in pts[:k] for bx, by, bz in pts[k:]]


def _over(s: int, d: int) -> Rational:
    return s // d if s % d == 0 else Fraction(s, d)


def meshes_equivalent(a: Mesh, b: Mesh) -> bool:
    """Same vertex sets and the same facet supporting planes (up to
    positive scaling of normals)."""
    va = {v.ratio_key() for v in a.vertices}
    vb = {v.ratio_key() for v in b.vertices}
    if va != vb:
        return False
    return _plane_keys(a) == _plane_keys(b)


def _plane_keys(m: Mesh) -> set:
    """Keys of the facets' oriented supporting planes, taken on the
    integer representative of m's vertices: the keys of two meshes
    compare when their vertex sets are equal, which meshes_equivalent
    checks first."""
    pts, _ = integer_representative(m.vertices)
    keys = set()
    for fi, cyc in enumerate(m.facets):
        n = cycle_normal(fi, [pts[v] for v in cyc])
        keys.add(scale_key(*n, dot3(n, pts[cyc[0]])))
    return keys
