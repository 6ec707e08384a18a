"""Integer inputs give exact answers, never floats.

Integer coordinates are stored as Python ints, and a true division of two
ints is a float, so every division in the library builds a Fraction.
These checks feed integer-coordinate polytopes and points through the
queries and the partition pipeline, and assert that every returned scalar
and coordinate is an int or a Fraction.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import pierces
import geomink
from geomink.assembly import ALL, Assembly, partition, project_polytope
from geomink.gaussian import build, reflect
from geomink.hull import convex_hull_3
from geomink.kernel import Vec3
from geomink.minkowski import minkowski
from geomink.proximity import (
    INSIDE,
    OUTSIDE,
    classify_point,
    directional_penetration,
    separation_sq,
)
from geomink.shapes import box, peg_in_hole_assembly, tetrahedron


def is_exact(x) -> bool:
    return type(x) in (int, Fraction)


def is_exact_vec(v: Vec3) -> bool:
    return all(is_exact(c) for c in v.as_tuple())


def int_points(coords):
    return [Vec3(x, y, z) for x in coords for y in coords for z in coords]


def _sum():
    # box and tetrahedron have integer vertices, so M does as well
    return minkowski(build(box(-2, -1, -3, 2, 3, 1)), reflect(build(tetrahedron())))


def test_proximity_answers_are_exact():
    M = _sum()
    seen = set()
    for s in int_points(range(-7, 8, 2)):
        wit = classify_point(M, s)
        seen.add(wit.classification)
        assert is_exact_vec(wit.facet_normal) and is_exact(wit.facet_offset)
        d2 = separation_sq(M, s)
        assert is_exact(d2)
        assert (d2 > 0) == (wit.classification == OUTSIDE)
        if wit.classification == INSIDE:
            for r in (Vec3(1, 0, 0), Vec3(2, -3, 5), Vec3(0, 0, -1)):
                alpha, exit_point = directional_penetration(M, s, r)
                assert is_exact(alpha) and is_exact_vec(exit_point)
                assert exit_point == s + r.scale(alpha)
    assert seen == {"inside", "on_boundary", "outside"}


def _region_is_exact(arr) -> bool:
    return all(is_exact_vec(v.point.dir) for v in arr.vertices) and all(
        is_exact_vec(h.arc.normal) for h in arr.halfedges
    )


def test_projections_are_exact_in_every_origin_case():
    wedge = convex_hull_3(
        [Vec3(0, -1, 0), Vec3(0, 1, 0), Vec3(4, -1, 1), Vec3(4, 1, 1),
         Vec3(4, -1, -1), Vec3(4, 1, -1)]
    )  # origin on a sharp edge: its two facet normals make an obtuse angle
    cases = [
        (box(-1, -1, -1, 1, 1, 1), Vec3(1, 2, 3), None),  # origin inside
        (box(-1, -1, -2, 1, 1, 0), Vec3(0, 0, -1), Vec3(1, 0, 0)),  # on a facet
        (box(0, -1, -2, 2, 1, 0), Vec3(1, 0, -1), Vec3(0, 0, -1)),  # on an edge
        (wedge, Vec3(1, 0, 0), Vec3(-1, 0, 0)),
        (box(0, 0, 0, 2, 2, 2), Vec3(1, 1, 1), Vec3(1, 1, 0)),  # at a vertex
        (box(3, 1, -2, 5, 4, 2), Vec3(4, 2, 0), Vec3(-4, 2, 0)),  # separated
    ]
    for mesh, hit, miss in cases:
        region = project_polytope(build(mesh))
        assert _region_is_exact(region)
        assert pierces(region, hit)
        if miss is not None:
            assert not pierces(region, miss)


def test_separated_projection_is_an_exact_hull():
    # The projection is a triangle, and one of the other two vertices
    # projects exactly onto a side of it: rounded planar coordinates
    # would make that point a fourth corner.
    pts = [(9, 0, 9), (6, -4, 8), (9, -1, 9), (10, -2, 5), (7, -2, 8)]
    region = project_polytope(build(convex_hull_3([Vec3(*p) for p in pts])))
    assert _region_is_exact(region)
    assert len(region.vertices) == 3


def test_partition_directions_are_exact():
    parts = peg_in_hole_assembly()
    assembly = Assembly([n for n, _ in parts], [p for _, p in parts])
    result = partition(assembly, ALL)
    assert result.solutions
    for sol in result.solutions:
        assert is_exact_vec(sol.direction)


def test_a_float_coordinate_raises():
    with pytest.raises(TypeError):
        Vec3(0.5, 0, 0)
    with pytest.raises(TypeError):
        Vec3(1, 2, 3).scale(0.5)


EXACT_MODULES = [
    "kernel", "spherical", "arrangement", "gaussian", "minkowski", "proximity", "assembly", "hull",
]

# The one statement that may use `random` in a module that imports it:
# the hull's seeded insertion order, which changes no exact sign.
SEEDED_RANDOM = {"hull": "random.Random(seed).shuffle(order)"}


@pytest.mark.parametrize("name", EXACT_MODULES)
def test_exact_modules_use_no_random_and_no_float(name):
    """Static guard: the modules that make geometric decisions import no
    `random` (but for the statement in SEEDED_RANDOM), take nothing from
    `math` but gcd and lcm, and call no `float`."""
    path = Path(geomink.__file__).with_name(f"{name}.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            banned = ("math",) if name in SEEDED_RANDOM else ("random", "math")
            bad += [a.name for a in node.names if a.name.split(".")[0] in banned]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                bad.append("from random")
            elif node.module == "math":
                bad += [a.name for a in node.names if a.name not in ("gcd", "lcm")]
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            bad.append(f"float() at line {node.lineno}")
        elif isinstance(node, ast.Name) and node.id == "random":
            stmt = node
            while not isinstance(stmt, ast.stmt):
                stmt = parent[stmt]
            if ast.unparse(stmt) != SEEDED_RANDOM.get(name):
                bad.append(f"random at line {node.lineno}")
    assert bad == [], f"{path.name}: {bad}"
