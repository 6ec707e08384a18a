"""Output digests: sha256 values of order-free canonical forms of what
the library computes, so that "outputs unchanged" is a test.

A canonical form names points by their primitive integer triples, lists
every cell as a sorted line, and writes payloads by value (frozensets
sorted, `Vec3` as exact strings), so face order, halfedge ids and
`dumps` text are not part of it.  What is:

- the partition verdict and the set of ALL-mode solutions of Split
  Star, peg-in-hole and the hollow box, each FIRST-mode answer being
  one of them;
- each scene's pair unions and its motion space;
- `build` and `reflect` of the stock solids and of 20 seeded random
  polytopes;
- the primal meshes of 20 seeded Minkowski sums;
- `tune_params` and `verify_bound` for m, n in 4..8, and each tuned
  m x m witness mesh and its quarter turn, vertices and facet cycles in
  their order;
- the proximity queries on 6 seeded sums and on cube (+) -cube and
  cube (+) -octahedron: each query point's `classify_point` witness,
  with and without the hint carried from the previous query,
  `separation_sq` where it is OUTSIDE and `directional_penetration`
  where it is INSIDE;
- `convex_hull_3` of the 25 sum-oracle point sets, of integer points near
  a sphere and of the {0,1,2}^3 grid, vertices and facets in their order;
- `project_polytope` of the stock solids and of 4 seeded sums, each
  translated so that the origin lies at a vertex, inside an edge and
  inside a facet.

A changed digest means a changed output; if the change is meant, the
value is recomputed with `digests()` below and the reason recorded.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from geomink.assembly import (
    ALL,
    FIRST,
    Assembly,
    build_motion_space,
    pairwise_subpart_sums,
    partition,
    project_polytope,
    union_regions,
)
from geomink.extremal import QUARTER_TURN, rotate_mesh, tune_params, verify_bound, witness_polytope
from geomink.gaussian import build, primal_mesh, reflect
from geomink.hull import convex_hull_3, pairwise_sums
from geomink.kernel import Vec3, format_rat, scale_key
from geomink.minkowski import minkowski
from geomink.proximity import (
    INSIDE,
    OUTSIDE,
    classify_point,
    directional_penetration,
    separation_sq,
)
from geomink.shapes import (
    box,
    cube,
    hollow_box_assembly,
    icosahedron,
    octahedron,
    peg_in_hole_assembly,
    random_polytope,
    split_star_assembly,
    tetrahedron,
)

SCENES = {
    "split_star": split_star_assembly,
    "peg_in_hole": peg_in_hole_assembly,
    "hollow_box": hollow_box_assembly,
}

SOLIDS = {
    "cube": cube,
    "octahedron": octahedron,
    "icosahedron": icosahedron,
    "tetrahedron": tetrahedron,
    "box": lambda: box(0, -1, -2, 2, 1, 0),
}

EXPECTED = {
    "partition/split_star": "4a48d0e9e23e2363916166f2c0c3d0a762b4bf1a756daa700ea2b60df0f892b2",
    "unions/split_star": "8941df081ae0a601d7a64b47847ca1c184a1ac494840ee8e2868439f3880dca8",
    "motion_space/split_star": "99d7c30f7eb5124b227e6dae48e5494cd4270c5781aa741161d9a5c6e13431be",
    "partition/peg_in_hole": "e9345202f271140084ffe48cc2029bff692a822e6e9d5a3adb7b5b2c6ef77326",
    "unions/peg_in_hole": "b5f764fe3a17f8862186a8f748ddc66874cdc082a12ef5acee79cd7995eb1bc9",
    "motion_space/peg_in_hole": "f79682cc905d048b6db79f9f1302b3b33d4e88650b126134a3d7f99dbb2df794",
    "partition/hollow_box": "5200fb21294655fc212142c5b187ea87be5f6f3cbe552d8dfc611ffc6f7b2d2f",
    "unions/hollow_box": "671500bcaa3b3338cec69333ec7159d75dec769f2a1daa096d832b46f0788871",
    "motion_space/hollow_box": "b3332533ec4321444301afbdde9c85032c84121d2fb13c50c264423a3de66964",
    "gaussian/cube": "fdb195fd52355607bdd9969759be74e548a81a9a682c7cf7431fc3bcf7336962",
    "gaussian/octahedron": "fb3ddc3344ea859ced4db7e2ae5f36aa502a023dca942c8d2f97c12d6f2720be",
    "gaussian/icosahedron": "4be2d512f7beab89df1e0cff203007a1b24f87da586c54ac0b7a694c8e561f7e",
    "gaussian/tetrahedron": "127bb2ec2f1e4e4d36eb32b25f7969bb21fc719e59b0046a58230ec01d8cd01f",
    "gaussian/box": "791bf7102913cb10b7adc7bc7e7d16e7d445ea49e17b8368da81e8078a016c5c",
    "gaussian/random": "c23bd7fcb83d97c9dfa87956301429f2d521b3ee2e586a6dc512354fbdc7fbb8",
    "sums/random": "f9b9731d0f5511cb4102d7204748a84854ff7882c59d90878426a70282848f14",
    "tuner": "2ff73559d5e3880313370a43abc3a121e839ce897c11adfbb77d17650f1e5684",
    "proximity": "0dc6eaa187da32ae73e0e98d5ff1cd84f30edadb6175258f412c9a14fb517b37",
    "hulls": "9ddebaf7b4cc0cee2e12a53f8925f7f1d1298665982dbb43bfdb69e1763f2349",
    "projections": "c8520ae9421d5730c08a77aa5ba303c9c913d156a325ba8cf78429c4a41d88b9",
}


# -- canonical forms ----------------------------------------------------------


def _value(x) -> str:
    """A payload written by value: no hash or address reaches the text."""
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "T" if x else "F"
    if isinstance(x, (int, Fraction)):
        return format_rat(x)
    if isinstance(x, Vec3):
        return repr(x)
    if isinstance(x, frozenset):
        return "{" + ",".join(sorted(_value(e) for e in x)) + "}"
    if isinstance(x, tuple):
        return "(" + ",".join(_value(e) for e in x) + ")"
    raise TypeError(f"no canonical form for {x!r}")


def _triple(v: Vec3) -> str:
    return " ".join(str(c) for c in scale_key(*v.as_tuple()))


def _least_rotation(seq) -> tuple:
    seq = tuple(seq)
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


def arrangement_form(arr) -> str:
    """Every vertex, edge and face as one sorted line each: an edge is
    written from its lesser endpoint with its circle's primitive normal,
    its flag and the flags of its left and right faces; a face by its
    flag, its boundary cycles (each from its least rotation) and its
    isolated points."""
    pt = lambda p: _triple(p.dir)
    lines = []
    for v in arr.vertices:
        kind = "isolated" if v.is_isolated else f"degree {v.degree}"
        lines.append(f"v [{pt(v.point)}] {kind} {_value(v.payload)}")
    for h in arr.edges():
        if pt(h.target.point) < pt(h.source.point):
            h = h.twin
        lines.append(
            f"e [{pt(h.source.point)}] [{pt(h.target.point)}] n [{_triple(h.arc.normal)}]"
            f" {_value(h.payload)} L {_value(h.face.payload)} R {_value(h.twin.face.payload)}"
        )
    for f in arr.faces:
        cycles = sorted(
            " ".join(_least_rotation(f"[{pt(e.source.point)}]" for e in rep.cycle()))
            for rep in f.ccbs
        )
        isolated = sorted(f"[{pt(w.point)}]" for w in f.isolated)
        lines.append(f"f {_value(f.payload)} ccbs {'; '.join(cycles)} isolated {' '.join(isolated)}")
    return "\n".join(sorted(lines))


def mesh_form(mesh) -> str:
    """The facets as cycles of exact vertex coordinates, each from its
    least rotation, sorted."""
    return "\n".join(
        sorted(" ".join(_least_rotation(repr(mesh.vertices[i]) for i in f)) for f in mesh.facets)
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- the outputs ----------------------------------------------------------------


def _assembly(scene) -> Assembly:
    named = scene()
    return Assembly([n for n, _ in named], [p for _, p in named])


def _solution_form(s) -> str:
    return f"{s.cell_kind} [{_triple(s.direction)}] {s.subset}"


def partition_form(scene) -> str:
    """The verdict and the sorted ALL-mode solutions; the FIRST-mode
    answer must be among them."""
    a = _assembly(scene)
    every = partition(a, ALL)
    first = partition(a, FIRST)
    solutions = sorted(_solution_form(s) for s in every.solutions)
    assert first.interlocked == every.interlocked
    assert len(first.solutions) == (0 if every.interlocked else 1)
    assert all(_solution_form(s) in solutions for s in first.solutions)
    return f"interlocked {every.interlocked}\n" + "\n".join(solutions)


def unions_and_motion_space_forms(scene):
    """Each pair i < j's union, made as partition makes it, and the
    motion space of those unions."""
    a = _assembly(scene)
    n = len(a.parts)
    gmaps = [[build(m) for m in subs] for subs in a.parts]
    reflected = [[build(m.negated()) for m in subs] for subs in a.parts[:-1]]
    q = {}
    for i in range(n):
        for j in range(i + 1, n):
            sums = pairwise_subpart_sums(a, gmaps, reflected, [(i, j)])
            q[(i, j)] = union_regions([project_polytope(g) for g in sums.values()])
    unions = "\n".join(
        f"pair {pair}\n{arrangement_form(r)}" for pair, r in sorted(q.items())
    )
    return unions, arrangement_form(build_motion_space(q))


def gaussian_form(mesh) -> str:
    g = build(mesh)
    return f"{arrangement_form(g.arrangement)}\nreflected\n{arrangement_form(reflect(g).arrangement)}"


def random_gaussian_form() -> str:
    return "\n".join(
        f"seed {seed}\n{gaussian_form(random_polytope(8 + seed % 5, 9000 + seed))}"
        for seed in range(20)
    )


def random_sum_form() -> str:
    forms = []
    for seed in range(20):
        g1 = build(random_polytope(7 + seed % 4, 9100 + seed))
        g2 = build(random_polytope(7 + (seed + 1) % 4, 9200 + seed))
        forms.append(f"seed {seed}\n{mesh_form(primal_mesh(minkowski(g1, g2)))}")
    return "\n".join(forms)


def mesh_literal(mesh) -> str:
    """The vertices in order, then the facet cycles as index lists."""
    return "\n".join([" ".join(repr(v) for v in mesh.vertices), *(str(f) for f in mesh.facets)])


def tuner_form() -> str:
    """The tuned parameters and the bound report of every m x n witness
    pair, every scalar written with format_rat, then each tuned m x m
    witness and its quarter turn."""
    lines = []
    tuned = {}
    for m in range(4, 9):
        for n in range(4, 9):
            tuned[(m, n)] = tune_params(m, n)
            lines.append(f"tune {m} {n} {_value(tuned[(m, n)])} bound {_value(verify_bound(m, n))}")
    for m in range(4, 9):
        mesh = witness_polytope(tuned[(m, m)][0])
        lines.append(f"witness {m}\n{mesh_literal(mesh)}")
        lines.append(f"quarter turn\n{mesh_literal(rotate_mesh(mesh, QUARTER_TURN))}")
    return "\n".join(lines)


def _query_points(mesh, rng: random.Random):
    """Points on the mesh's vertices, on its edges and on its facets, the
    same points moved toward and away from the vertex centroid, and points
    of mixed small denominators around it."""
    vs = mesh.vertices
    c = sum(vs, Vec3(0, 0, 0)).scale(Fraction(1, len(vs)))
    on = [vs[i] for i in range(0, len(vs), 3)]
    for cyc in mesh.facets[::2]:
        a, b = vs[cyc[0]], vs[cyc[1]]
        on.append(a + (b - a).scale(Fraction(rng.randint(1, 6), 7)))
        weights = [rng.randint(1, 5) for _ in cyc]
        total = Fraction(1, sum(weights))
        on.append(sum((vs[i].scale(w * total) for w, i in zip(weights, cyc)), Vec3(0, 0, 0)))
    points = [c]
    for p in on:
        points.append(p)
        points.append(c + (p - c).scale(Fraction(rng.randint(1, 9), rng.randint(10, 13))))
        points.append(c + (p - c).scale(Fraction(rng.randint(14, 19), rng.randint(10, 13))))
    for _ in range(10):
        points.append(c + Vec3(*(Fraction(rng.randint(-60, 60), rng.randint(1, 9)) for _ in "xyz")))
    return points


def proximity_form() -> str:
    """For every query point in order: its witness without a hint and with
    the hint carried from the previous point (classification, the plane's
    scale_key, the hint's index in facet_vertices); then the squared
    separation of every fourth OUTSIDE point, or the penetration (alpha
    and exit point) of an INSIDE point along two directions."""
    lines = []
    directions = [Vec3(-2, 3, 1), Vec3(Fraction(1, 3), -1, Fraction(-5, 2))]
    sums = [
        minkowski(
            build(random_polytope(7 + seed % 3, 9300 + seed)),
            reflect(build(random_polytope(7 + (seed + 1) % 3, 9400 + seed))),
        )
        for seed in range(6)
    ]
    # symmetric sums, whose rays through vertices and edges tie facets
    # in their exit parameters, and the cube's also in their alignment
    sums += [minkowski(build(cube()), reflect(build(m))) for m in (cube(), octahedron())]
    for seed, M in enumerate(sums):
        index = {w: i for i, w in enumerate(M.facet_vertices)}
        lines.append(f"sum {seed}")
        hint = None
        outside = 0
        for s in _query_points(M.mesh, random.Random(seed)):
            for wit in (classify_point(M, s), classify_point(M, s, hint)):
                plane = scale_key(*wit.facet_normal.as_tuple(), wit.facet_offset)
                lines.append(f"{s!r} {wit.classification} {plane} {index[wit.hint]}")
            hint = wit.hint
            if wit.classification == OUTSIDE:
                if outside % 4 == 0:
                    lines.append(f"separation {format_rat(separation_sq(M, s))}")
                outside += 1
            elif wit.classification == INSIDE:
                for r in directions:
                    alpha, exit_point = directional_penetration(M, s, r)
                    lines.append(f"penetration {r!r} {format_rat(alpha)} {exit_point!r}")
    return "\n".join(lines)


def near_sphere_points(n: int, seed: int, R: int = 10**6):
    """n integer points p with 0.98 R^2 < |p|^2 < R^2, drawn uniformly
    from the cube [-R, R]^3."""
    rng = random.Random(seed)
    points = []
    while len(points) < n:
        p = Vec3(rng.randint(-R, R), rng.randint(-R, R), rng.randint(-R, R))
        if 49 * R * R < 50 * p.norm_sq() < 50 * R * R:
            points.append(p)
    return points


def hull_inputs():
    """The 25 pairwise-sum point sets of the sum-oracle benchmark at seed
    1, near-sphere points at 160 and 320 points with seeds 1 and 2, and
    the {0,1,2}^3 grid."""
    rng = random.Random(1)
    for i in range(25):
        m1 = random_polytope(9 + i % 4, rng.randrange(1 << 30))
        m2 = random_polytope(8 + i % 5, rng.randrange(1 << 30))
        yield f"sum-oracle {i}", pairwise_sums(m1, m2)
    for n in (160, 320):
        for seed in (1, 2):
            yield f"near-sphere {n} {seed}", near_sphere_points(n, seed)
    yield "grid", [Vec3(x, y, z) for x in range(3) for y in range(3) for z in range(3)]


def hull_form() -> str:
    """Each hull's vertices in output order, by ratio_key, then its facet
    index lists in output order."""
    lines = []
    for name, points in hull_inputs():
        mesh = convex_hull_3(points)
        lines.append(f"hull {name}")
        lines.append(" ".join(str(v.ratio_key()) for v in mesh.vertices))
        lines.extend(str(f) for f in mesh.facets)
    return "\n".join(lines)


def origin_case_meshes():
    """The stock solids and 4 seeded sums, each translated so that the
    origin lies at a vertex, inside an edge and inside a facet: at the
    first vertex of a facet, the midpoint of its first edge and the mean
    of its corners, for the first facet and the last."""
    meshes = [(name, solid()) for name, solid in sorted(SOLIDS.items())]
    for seed in range(4):
        g1 = build(random_polytope(7 + seed % 3, 9500 + seed))
        g2 = build(random_polytope(6 + (seed + 1) % 3, 9600 + seed))
        meshes.append((f"sum {seed}", primal_mesh(minkowski(g1, g2))))
    for name, mesh in meshes:
        for fi in (0, len(mesh.facets) - 1):
            corners = [mesh.vertices[i] for i in mesh.facets[fi]]
            a, b = corners[0], corners[1]
            midpoint = (a + b).scale(Fraction(1, 2))
            mean = sum(corners, Vec3(0, 0, 0)).scale(Fraction(1, len(corners)))
            for case, o in (("vertex", a), ("edge", midpoint), ("facet", mean)):
                yield f"{name} facet {fi} {case}", mesh.translated(-o)


def projection_form() -> str:
    """Each origin-case projection as its region's canonical form."""
    return "\n".join(
        f"projection {name}\n{arrangement_form(project_polytope(build(mesh)))}"
        for name, mesh in origin_case_meshes()
    )


def digests() -> dict:
    """Every digest by name, as EXPECTED holds them."""
    out = {}
    for name, scene in SCENES.items():
        out[f"partition/{name}"] = _sha(partition_form(scene))
        unions, ms = unions_and_motion_space_forms(scene)
        out[f"unions/{name}"] = _sha(unions)
        out[f"motion_space/{name}"] = _sha(ms)
    for name, solid in SOLIDS.items():
        out[f"gaussian/{name}"] = _sha(gaussian_form(solid()))
    out["gaussian/random"] = _sha(random_gaussian_form())
    out["sums/random"] = _sha(random_sum_form())
    out["tuner"] = _sha(tuner_form())
    out["proximity"] = _sha(proximity_form())
    out["hulls"] = _sha(hull_form())
    out["projections"] = _sha(projection_form())
    return out


# -- the tests -------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SCENES))
def test_partition_digest(name):
    assert _sha(partition_form(SCENES[name])) == EXPECTED[f"partition/{name}"]


@pytest.mark.parametrize("name", sorted(SCENES))
def test_union_and_motion_space_digests(name):
    unions, ms = unions_and_motion_space_forms(SCENES[name])
    assert _sha(unions) == EXPECTED[f"unions/{name}"]
    assert _sha(ms) == EXPECTED[f"motion_space/{name}"]


@pytest.mark.parametrize("name", sorted(SOLIDS))
def test_gaussian_map_digest(name):
    assert _sha(gaussian_form(SOLIDS[name]())) == EXPECTED[f"gaussian/{name}"]


def test_random_gaussian_map_digest():
    assert _sha(random_gaussian_form()) == EXPECTED["gaussian/random"]


def test_random_sum_mesh_digest():
    assert _sha(random_sum_form()) == EXPECTED["sums/random"]


def test_tuner_digest():
    assert _sha(tuner_form()) == EXPECTED["tuner"]


def test_proximity_digest():
    assert _sha(proximity_form()) == EXPECTED["proximity"]


def test_hull_digest():
    assert _sha(hull_form()) == EXPECTED["hulls"]


def test_origin_case_projection_digest():
    assert _sha(projection_form()) == EXPECTED["projections"]


def test_canonical_forms_do_not_see_order():
    """Payload sets write the same whatever their iteration order, and a
    cycle the same from any starting vertex."""
    pairs = [(2, 0), (0, 1), (1, 2)]
    assert _value(frozenset(pairs)) == _value(frozenset(reversed(pairs))) == "{(0,1),(1,2),(2,0)}"
    assert _value(Vec3(Fraction(1, 2), -3, 0)) == "(1/2, -3, 0)"
    assert _least_rotation("cab") == _least_rotation("abc") == tuple("abc")


if __name__ == "__main__":
    for name, value in digests().items():
        print(f'    "{name}": "{value}",')
