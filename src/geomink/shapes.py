"""Stock polytopes and assemblies used by the command-line demos and the
test-suite: boxes, simplices, rational platonic-like solids, random
convex polytopes, and the puzzle assemblies."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

from .gaussian import Mesh
from .hull import DegenerateInput, convex_hull_3
from .kernel import Vec3


def tetrahedron() -> Mesh:
    """A tetrahedron oriented so its Gaussian map stays clear of the
    identification curve and the poles (no dual arc gets split)."""
    pts = [Vec3(-3, -2, -5), Vec3(-1, -4, -4), Vec3(-1, -1, -3), Vec3(1, 4, -1)]
    return convex_hull_3(pts)


def box(ax, ay, az, bx, by, bz) -> Mesh:
    """Axis-aligned box [ax,bx] x [ay,by] x [az,bz]."""
    pts = [
        Vec3(x, y, z)
        for x in (ax, bx)
        for y in (ay, by)
        for z in (az, bz)
    ]
    return convex_hull_3(pts)


def cube(half=1) -> Mesh:
    return box(-half, -half, -half, half, half, half)


def octahedron() -> Mesh:
    """Axis-aligned octahedron with vertices at the +-unit directions."""
    pts = [
        Vec3(1, 0, 0), Vec3(-1, 0, 0),
        Vec3(0, 1, 0), Vec3(0, -1, 0),
        Vec3(0, 0, 1), Vec3(0, 0, -1),
    ]
    return convex_hull_3(pts)


def icosahedron() -> Mesh:
    """Rational near-regular icosahedron: the golden ratio is replaced by
    the Fibonacci quotient 144/89, which preserves the combinatorics."""
    phi = Fraction(144, 89)
    pts = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            pts.append(Vec3(0, s1, s2 * phi))
            pts.append(Vec3(s1, s2 * phi, 0))
            pts.append(Vec3(s1 * phi, 0, s2))
    return convex_hull_3(pts)


def random_polytope(n_points: int, seed: int, spread: int = 12) -> Mesh:
    """Hull of random rational points (at most n_points hull vertices).
    Degenerate draws are redrawn with seed + 7919 until one spans space."""
    if n_points < 4:
        raise ValueError("a polytope needs at least 4 points")
    if spread < 1:
        raise ValueError("spread must be at least 1")
    while True:
        rng = random.Random(seed)

        def coord() -> Fraction:
            return Fraction(rng.randint(-spread, spread), rng.randint(1, 4))

        pts = [Vec3(coord(), coord(), coord()) for _ in range(n_points)]
        try:
            return convex_hull_3(pts, seed=seed ^ 0xC0FFEE)
        except DegenerateInput:
            seed += 7919


# -- assemblies ---------------------------------------------------------------


def _axis_bipyramid(axis: Vec3) -> Mesh:
    """Square bipyramid between the origin and 2*axis filling one sixth
    of the rhombic dodecahedron."""
    ring = []
    # the four cube corners adjacent to the axis direction
    e1, e2 = _unit_perp_pair(axis)
    for s1, s2 in ((1, 1), (1, -1), (-1, -1), (-1, 1)):
        ring.append(axis + e1.scale(s1) + e2.scale(s2))
    return convex_hull_3([Vec3(0, 0, 0), axis.scale(2), *ring])


def _unit_perp_pair(axis: Vec3) -> Tuple[Vec3, Vec3]:
    if axis.x != 0:
        return Vec3(0, 1, 0), Vec3(0, 0, 1)
    if axis.y != 0:
        return Vec3(1, 0, 0), Vec3(0, 0, 1)
    return Vec3(1, 0, 0), Vec3(0, 1, 0)


def _spike(apex: Vec3) -> Mesh:
    """Pyramid over a rhombic-dodecahedron face; apex has exactly two
    nonzero coordinates equal to +-2."""
    nz = [c for c in (apex.x, apex.y, apex.z) if c != 0]
    assert len(nz) == 2
    half = apex.scale(Fraction(1, 2))
    corners = []
    # the two octahedron-type vertices of the rhombus
    if apex.x != 0:
        corners.append(Vec3(apex.x, 0, 0))
    if apex.y != 0:
        corners.append(Vec3(0, apex.y, 0))
    if apex.z != 0:
        corners.append(Vec3(0, 0, apex.z))
    # the two cube-type vertices
    zero_axis = 0 if apex.x == 0 else (1 if apex.y == 0 else 2)
    for s in (1, -1):
        c = [half.x, half.y, half.z]
        c[zero_axis] = s
        corners.append(Vec3(*c))
    return convex_hull_3([apex, *corners])


SPLIT_STAR_PART_NAMES = ("Y", "T", "P", "B", "R", "G")

_PART_AXES = {
    "Y": Vec3(1, 0, 0),
    "T": Vec3(-1, 0, 0),
    "P": Vec3(0, 1, 0),
    "B": Vec3(0, -1, 0),
    "R": Vec3(0, 0, 1),
    "G": Vec3(0, 0, -1),
}

_PART_SPIKES = {
    "Y": (Vec3(2, 2, 0), Vec3(2, -2, 0)),
    "T": (Vec3(-2, 2, 0), Vec3(-2, -2, 0)),
    "P": (Vec3(0, 2, 2), Vec3(0, 2, -2)),
    "B": (Vec3(0, -2, 2), Vec3(0, -2, -2)),
    "R": (Vec3(2, 0, 2), Vec3(-2, 0, 2)),
    "G": (Vec3(2, 0, -2), Vec3(-2, 0, -2)),
}


def split_star_assembly() -> List[Tuple[str, List[Mesh]]]:
    """The six-part Split Star puzzle: the first stellation of the rhombic
    dodecahedron cut into six congruent concave parts, each decomposed
    into one square bipyramid plus two rhombic-face pyramids."""
    parts = []
    for name in SPLIT_STAR_PART_NAMES:
        axis = _PART_AXES[name]
        sub = [_axis_bipyramid(axis)]
        for apex in _PART_SPIKES[name]:
            sub.append(_spike(apex))
        parts.append((name, sub))
    return parts


def peg_in_hole_assembly() -> List[Tuple[str, List[Mesh]]]:
    """A snug square peg in a one-ended square channel; the channel part
    is five box sub-parts.  The peg escapes only straight up."""
    walls = [
        box(1, -2, 0, 2, 2, 2),
        box(-2, -2, 0, -1, 2, 2),
        box(-1, 1, 0, 1, 2, 2),
        box(-1, -2, 0, 1, -1, 2),
        box(-2, -2, -1, 2, 2, 0),
    ]
    peg = box(-1, -1, 0, 1, 1, 2)
    return [("peg", [peg]), ("block", walls)]


def hollow_box_assembly() -> List[Tuple[str, List[Mesh]]]:
    """A cube sealed inside a hollow box of six slab sub-parts."""
    slabs = [
        box(-2, -2, -2, 2, 2, -1),  # bottom
        box(-2, -2, 1, 2, 2, 2),  # top
        box(-2, -2, -1, -1, 2, 1),
        box(1, -2, -1, 2, 2, 1),
        box(-1, -2, -1, 1, -1, 1),
        box(-1, 1, -1, 1, 2, 1),
    ]
    core = cube(1)
    return [("core", [core]), ("shell", slabs)]


def separated_boxes_assembly(n: int, seed: int) -> List[Tuple[str, List[Mesh]]]:
    """n integer boxes b0, b1, ..., one sub-part each, with sides 1 to 3,
    placed by random.Random(seed) in [0, 3n]^3: each box draws its sides,
    then its lower corner, again until it overlaps no earlier box."""
    rng = random.Random(seed)
    placed: List[Tuple[List[int], List[int]]] = []
    while len(placed) < n:
        sides = [rng.randint(1, 3) for _ in range(3)]
        lo = [rng.randint(0, 3 * n - s) for s in sides]
        hi = [a + s for a, s in zip(lo, sides)]
        if all(any(a >= d or c >= b for a, b, c, d in zip(lo, hi, *q)) for q in placed):
            placed.append((lo, hi))
    return [(f"b{i}", [box(*lo, *hi)]) for i, (lo, hi) in enumerate(placed)]


def _write_scenes(outdir: str) -> None:
    import os

    from .fileio import write_mesh, write_scene

    os.makedirs(outdir, exist_ok=True)
    for name, assembly in (
        ("split_star", split_star_assembly()),
        ("peg_in_hole", peg_in_hole_assembly()),
        ("hollow_box", hollow_box_assembly()),
    ):
        write_scene(
            [n for n, _ in assembly],
            [p for _, p in assembly],
            os.path.join(outdir, f"{name}.asm"),
        )
    for name, mesh in (
        ("tetrahedron", tetrahedron()),
        ("cube", cube()),
        ("octahedron", octahedron()),
        ("icosahedron", icosahedron()),
    ):
        write_mesh(mesh, os.path.join(outdir, f"{name}.eoff"))


if __name__ == "__main__":  # pragma: no cover
    import sys

    _write_scenes(sys.argv[1] if len(sys.argv) > 1 else "scenes")
