import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reachability_components
from geomink import assembly
from geomink.assembly import (
    ALL,
    Assembly,
    FIRST,
    SphericalRegion,
    _or_callbacks,
    cleanup_region,
    movable_subset,
    pairwise_subpart_sums,
    partition,
    project_polytope,
    reflect_region,
    tarjan_scc,
    union_regions,
)
from geomink.arrangement import OverlayCallbacks, SphereArrangement, new_arrangement, overlay
from geomink.gaussian import InvalidMesh, Mesh, build, primal_mesh, reflect
from geomink.hull import convex_hull_3
from geomink.kernel import Vec3, dot
from geomink.minkowski import minkowski
from geomink.shapes import (
    box,
    cube,
    hollow_box_assembly,
    peg_in_hole_assembly,
    random_polytope,
    split_star_assembly,
    tetrahedron,
)
from geomink.spherical import classify


def ray_pierces_interior(mesh: Mesh, d: Vec3) -> bool:
    """Brute oracle: does {t*d : t>0} meet the interior of the solid?"""
    return ray_meets_planes(mesh_planes(mesh), d)


def mesh_planes(mesh: Mesh):
    """The facet planes <n, x> = b, each scaled to make n its primitive
    integer triple: no ray test below changes, and on integer vertices
    they are integer planes."""
    planes = []
    for i, cyc in enumerate(mesh.facets):
        n = Vec3(*mesh.facet_normal(i).canonical())
        planes.append((n, dot(n, mesh.vertices[cyc[0]])))
    return planes


def ray_meets_planes(planes, d: Vec3) -> bool:
    """Does {t*d : t>0} meet the open intersection of the halfspaces
    <n, x> < b?  Solved exactly as a 1-D feasibility problem."""
    lo, hi = Fraction(0), None  # open interval (lo, hi) of admissible t
    for n, b in planes:
        a = dot(n, d)
        if a == 0:
            if b <= 0:
                return False
            continue
        t = Fraction(b, a)
        if a > 0:
            hi = t if hi is None else min(hi, t)
        else:
            lo = max(lo, t)
    return hi is not None and lo < hi


class TestTarjan:
    def test_simple_cycle_and_chain(self):
        assert len(tarjan_scc(3, frozenset({(0, 1), (1, 2), (2, 0)}))) == 1
        comps = tarjan_scc(3, frozenset({(0, 1), (1, 2)}))
        assert sorted(map(sorted, comps)) == [[0], [1], [2]]

    def test_against_reachability_closure(self):
        rng = random.Random(11)
        for n in range(2, 9):
            for _ in range(30):
                edges = frozenset(
                    (i, j)
                    for i in range(n)
                    for j in range(n)
                    if i != j and rng.random() < 0.3
                )
                a = sorted(map(sorted, tarjan_scc(n, edges)))
                b = sorted(map(sorted, reachability_components(n, edges)))
                assert a == b

    def test_movable_subset_rules(self):
        # chain 0 -> 1: sink {1}
        assert movable_subset(2, frozenset({(0, 1)})) == (1,)
        # no edges: all sinks; fall back to part 0's component
        assert movable_subset(2, frozenset()) == (0,)
        # strongly connected: no subset
        assert movable_subset(2, frozenset({(0, 1), (1, 0)})) is None
        # nothing in S may be blocked by the complement
        edges = frozenset({(0, 1), (2, 1), (1, 0)})
        s = movable_subset(3, edges)
        assert s is not None
        for i in s:
            for j in range(3):
                if j not in s:
                    assert (i, j) not in edges


class TestProjection:
    def test_origin_inside(self):
        g = build(cube(1))
        r = project_polytope(g)
        assert r.pierces(Vec3(1, 2, 3)) and r.pierces(Vec3(-1, 0, 0))

    def test_origin_on_facet(self):
        # cube lying in z <= 0 with its top facet through the origin
        g = build(box(-1, -1, -2, 1, 1, 0))
        r = project_polytope(g)
        assert r.pierces(Vec3(0, 0, -1))
        assert r.pierces(Vec3(Fraction(1, 2), 0, -3))
        assert not r.pierces(Vec3(0, 0, 1))
        assert not r.pierces(Vec3(1, 0, 0))  # equator grazes, open interior
        assert not r.pierces(Vec3(1, 1, 0))

    def test_origin_on_edge(self):
        g = build(box(0, -1, -2, 2, 1, 0))  # origin interior to an edge
        r = project_polytope(g)
        assert r.pierces(Vec3(1, 0, -1))
        assert not r.pierces(Vec3(1, 0, 1))
        assert not r.pierces(Vec3(0, 0, -1))  # boundary plane grazes
        assert not r.pierces(Vec3(-1, 0, -2))

    def test_origin_at_vertex(self):
        g = build(box(0, 0, 0, 2, 2, 2))
        r = project_polytope(g)
        assert r.pierces(Vec3(1, 1, 1))
        assert not r.pierces(Vec3(1, 1, 0))  # on the cone boundary
        assert not r.pierces(Vec3(-1, 1, 1))

    def test_separated_matches_brute_rays(self):
        rng = random.Random(5)
        probes = 0
        mesh = random_polytope(10, 17).translated(Vec3(9, -4, 6))
        g = build(mesh)
        r = project_polytope(g)
        while probes < 150:
            d = Vec3(rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(-8, 8))
            if d.is_zero():
                continue
            assert r.pierces(d) == ray_pierces_interior(mesh, d), f"d={d}"
            probes += 1

    def test_projection_lemma_various_cases(self):
        rng = random.Random(6)
        cases = [
            random_polytope(8, 31).translated(Vec3(12, 0, 0)),
            box(-1, -1, -4, 1, 1, -2),
            cube(2),
            box(0, -1, -1, 4, 1, 1),
        ]
        for mesh in cases:
            r = project_polytope(build(mesh))
            for _ in range(60):
                d = Vec3(rng.randint(-7, 7), rng.randint(-7, 7), rng.randint(-7, 7))
                if d.is_zero():
                    continue
                assert r.pierces(d) == ray_pierces_interior(mesh, d)


class TestUnion:
    def test_two_complementary_hemispheres_cover_sphere(self):
        a = project_polytope(build(box(-2, -2, -3, 2, 2, 0)))
        b = project_polytope(build(box(-2, -2, 0, 2, 2, 3)))
        u = union_regions([a, b])
        # the equator itself pierces neither solid's interior
        assert not u.pierces(Vec3(1, 0, 0))
        assert u.pierces(Vec3(0, 0, 1)) and u.pierces(Vec3(0, 0, -1))

    def test_idempotence(self):
        mesh = tetrahedron().translated(Vec3(8, 0, 0))
        r1 = project_polytope(build(mesh))
        solo = union_regions([project_polytope(build(mesh))])
        u = union_regions([r1, project_polytope(build(mesh))])
        assert u.arrangement.counts() == solo.arrangement.counts()

    def test_peg_in_hole_complement_is_single_vertex(self):
        parts = dict(peg_in_hole_assembly())
        peg = parts["peg"][0]
        walls = parts["block"]
        g_peg = build(peg)
        from geomink.gaussian import reflect
        from geomink.minkowski import minkowski

        neg_peg = reflect(g_peg)
        regions = [
            project_polytope(minkowski(build(w), neg_peg)) for w in walls
        ]
        u = union_regions(regions)
        arr = u.arrangement
        # complement of the union: a single isolated non-pierced vertex
        false_vertices = [v for v in arr.vertices if not v.payload]
        assert len(false_vertices) == 1
        assert v_dir_matches(false_vertices[0].point.dir, Vec3(0, 0, 1))
        assert all(f.payload for f in arr.faces)
        assert all(h.payload for h in arr.halfedges)
        assert false_vertices[0].is_isolated

    def test_reflect_region_flags(self):
        mesh = tetrahedron().translated(Vec3(7, 1, -2))
        r = project_polytope(build(mesh))
        rr = reflect_region(r)
        rng = random.Random(3)
        for _ in range(40):
            d = Vec3(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(-6, 6))
            if d.is_zero():
                continue
            assert r.pierces(d) == rr.pierces(-d)
        # every vertex, edge and face, both ways, including seam and pole
        # splits, isolated vertices and a region without edges
        for r in sample_regions():
            rr = reflect_region(r)
            assert rr.arrangement.validate() == []
            for d, flag in cell_directions(rr.arrangement):
                assert r.pierces(-d) == flag, f"d={d}"
            for d, flag in cell_directions(r.arrangement):
                assert rr.pierces(-d) == flag, f"d={d}"

    def test_reflect_region_uses_no_point_location(self, monkeypatch):
        regions = sample_regions()
        calls = []
        real = SphereArrangement.locate

        def spy(arr, p):
            calls.append(p)
            return real(arr, p)

        monkeypatch.setattr(SphereArrangement, "locate", spy)
        for r in regions:
            reflect_region(r)
        assert calls == []


def sample_regions():
    """Projections for each position of the origin, a union of two
    separate projections, and the peg-in-hole union, whose complement is
    one isolated vertex."""
    regions = [
        project_polytope(build(mesh))
        for mesh in (
            random_polytope(9, 12).translated(Vec3(-3, 8, 5)),  # separated
            cube(1),  # origin inside: no edges
            box(-1, -1, -2, 1, 1, 0),  # on a facet
            box(0, -1, -2, 2, 1, 0),  # on an edge
            box(0, 0, 0, 2, 2, 2),  # at a vertex
        )
    ]
    # two components: the second one's first arc floats in a split sphere
    regions.append(
        union_regions(
            [
                project_polytope(build(tetrahedron().translated(t)))
                for t in (Vec3(9, 0, 1), Vec3(-8, 3, -2))
            ]
        )
    )
    parts = dict(peg_in_hole_assembly())
    neg_peg = build(parts["peg"][0].negated())
    regions.append(
        union_regions(
            [project_polytope(minkowski(build(w), neg_peg)) for w in parts["block"]]
        )
    )
    return regions


def cell_directions(arr):
    """A direction inside every vertex, edge and face, with the cell's flag."""
    out = [(v.point.dir, v.payload) for v in arr.vertices]
    out += [(h.arc.interior_point().dir, h.payload) for h in arr.edges()]
    out += [(arr.interior_point(f).dir, f.payload) for f in arr.faces]
    return out


def v_dir_matches(a: Vec3, b: Vec3) -> bool:
    from geomink.kernel import cross, dot_sign, Sign

    return cross(a, b).is_zero() and dot_sign(a, b) == Sign.POSITIVE


class TestPartition:
    def test_two_separated_cubes(self):
        a = Assembly(
            ["one", "two"],
            [[cube(1)], [cube(1).translated(Vec3(10, 0, 0))]],
        )
        res = partition(a, FIRST)
        assert not res.interlocked
        sol = res.solutions[0]
        assert sol.subset in ((0,), (1,))

    def test_hollow_box_interlocked(self):
        names_parts = hollow_box_assembly()
        a = Assembly([n for n, _ in names_parts], [p for _, p in names_parts])
        res = partition(a, FIRST)
        assert res.interlocked

    def test_overlapping_interiors_rejected(self):
        a = Assembly(["one", "two"], [[cube(1)], [cube(1)]])
        with pytest.raises(ValueError):
            partition(a, FIRST)

    def test_invalid_subpart_raises_its_mesh_error(self):
        # The first invalid sub-part in part order names the error, as
        # Mesh.validate words it; the open box after it is never reached.
        c = cube(1)
        bent = list(c.vertices)
        bent[0] = bent[0] + Vec3(0, 0, 1)
        non_planar = Mesh(bent, c.facets).translated(Vec3(10, 0, 0))
        open_box = Mesh(c.vertices, c.facets[:-1]).translated(Vec3(20, 0, 0))
        a = Assembly(
            ["one", "two", "three"],
            [[cube(1)], [cube(1).translated(Vec3(0, 10, 0)), non_planar], [open_box]],
        )
        with pytest.raises(InvalidMesh) as exc:
            partition(a, ALL)
        assert str(exc.value) == "facet 1 is not planar"

    def test_pairwise_sum_counts(self):
        from geomink.assembly import pairwise_subpart_sums

        meshes = [
            cube(1),
            cube(1).translated(Vec3(9, 0, 0)),
            cube(1).translated(Vec3(0, 9, 0)),
        ]
        a = Assembly(["a", "b", "c"], [[m] for m in meshes])
        full = pairwise_subpart_sums(a)
        assert len(full) == 6  # every ordered pair, one sub-part each
        half = pairwise_subpart_sums(
            a, ordered_pairs=[(i, j) for i in range(3) for j in range(3) if i < j]
        )
        assert len(half) == 3

    def test_reflected_region_matches_direct_projection(self):
        # partition builds only the i < j sums and reflects their unions;
        # every ordered pair's reflection must carry the flags of the
        # directly projected opposite pair, cell by cell.
        for scene in (peg_in_hole_assembly(), hollow_box_assembly(), split_star_assembly()):
            a = Assembly([n for n, _ in scene], [p for _, p in scene])
            sums = pairwise_subpart_sums(a)
            q = {}
            for (i, j, _k, _l), m in sums.items():
                q.setdefault((i, j), []).append(project_polytope(m))
            q = {pair: union_regions(regions) for pair, regions in q.items()}
            for (i, j), region in q.items():
                xor = overlay(
                    reflect_region(region).arrangement, q[(j, i)].arrangement, _xor_callbacks()
                )
                assert not any(_payloads(xor)), (i, j)


def _xor_callbacks() -> OverlayCallbacks:
    xor = lambda a, b: bool(a) != bool(b)
    return OverlayCallbacks(*([xor] * 10))


def _payloads(arr):
    return [c.payload for c in arr.vertices + arr.halfedges + arr.faces]


def _origin_cases(mesh: Mesh):
    """The mesh translated to put the origin at a vertex, inside an edge,
    inside a facet, strictly inside, and outside."""
    vs = mesh.vertices
    facet = mesh.facets[0]
    mid_edge = (vs[facet[0]] + vs[facet[1]]).scale(Fraction(1, 2))
    mid_facet = sum((vs[i] for i in facet), Vec3(0, 0, 0)).scale(Fraction(1, len(facet)))
    centroid = sum(vs, Vec3(0, 0, 0)).scale(Fraction(1, len(vs)))
    extent = max(abs(c) for v in vs for c in (v.x, v.y, v.z))
    far = Vec3(2 * extent + 1, 0, 0)
    return {
        "vertex": mesh.translated(-vs[facet[0]]),
        "edge": mesh.translated(-mid_edge),
        "facet": mesh.translated(-mid_facet),
        "interior": mesh.translated(-centroid),
        "outside": mesh.translated(far),
    }


_small = st.integers(-6, 6)


@settings(max_examples=12, deadline=None)
@given(
    st.integers(5, 12),
    st.integers(0, 10**6),
    st.lists(st.tuples(_small, _small, _small), min_size=12, max_size=12),
)
def test_projection_matches_ray_oracle_for_every_origin_position(size, seed, dirs):
    for case, mesh in _origin_cases(random_polytope(size, seed)).items():
        region = project_polytope(build(mesh))
        # the directions toward the vertices include boundary directions
        probes = [Vec3(*d) for d in dirs] + mesh.vertices
        for d in probes:
            if d.is_zero():
                continue
            assert region.pierces(d) == ray_pierces_interior(mesh, d), (case, d)


@st.composite
def _separated_assemblies(draw):
    """2 or 3 random polytopes, each in its own cell of a grid wider than
    any of them, with one or two sub-parts per part."""
    n = draw(st.integers(2, 3))
    cells = draw(
        st.lists(st.tuples(_small, _small, _small), min_size=n, max_size=n, unique=True)
    )
    parts = []
    for cell in cells:
        subs = []
        for _ in range(draw(st.integers(1, 2))):
            mesh = random_polytope(draw(st.integers(5, 7)), draw(st.integers(0, 10**6)), 4)
            subs.append(mesh.translated(Vec3(*(20 * c for c in cell))))
        parts.append(subs)
    # sub-parts of one part may overlap; across parts the grid separates them
    return Assembly([f"p{i}" for i in range(n)], parts)


def _difference_planes(a: Assembly):
    """For each ordered part pair (i, j), the facet planes of the
    difference bodies of their sub-parts: i moving along d meets j iff
    the ray along d enters the interior of any of them."""
    return {
        (i, j): [
            mesh_planes(convex_hull_3([b - c for b in pj.vertices for c in pi.vertices]))
            for pi in a.parts[i]
            for pj in a.parts[j]
        ]
        for i in range(len(a.parts))
        for j in range(len(a.parts))
        if i != j
    }


@settings(max_examples=10, deadline=None)
@given(_separated_assemblies())
def test_partition_solutions_are_free_motions(a):
    res = partition(a, ALL)
    assert res.interlocked == (not res.solutions)
    if len(a.parts) == 2:
        assert res.solutions  # a separating plane gives a free direction
    # FIRST gives the same verdict, and its solution is one ALL lists
    first = partition(a, FIRST)
    assert first.interlocked == res.interlocked
    assert len(first.solutions) == (0 if first.interlocked else 1)
    assert all(sol in res.solutions for sol in first.solutions)
    diffs = _difference_planes(a)
    for sol in res.solutions:
        assert 0 < len(sol.subset) < len(a.parts)
        for i in sol.subset:
            for j in set(range(len(a.parts))) - set(sol.subset):
                for planes in diffs[(i, j)]:
                    assert not ray_meets_planes(planes, sol.direction), (sol, i, j)


def _or_union_cleaned_once(regions):
    """Reference union: every overlay first, then one cleanup."""
    acc = regions[0].arrangement
    for r in regions[1:]:
        acc = overlay(acc, r.arrangement, _or_callbacks())
    out = SphericalRegion(acc)
    cleanup_region(out)
    return out


@st.composite
def _projection_lists(draw):
    """2 to 9 projections of random sums, each placed apart from the
    origin or touching it at a vertex, inside an edge or inside a facet."""
    regions = []
    for _ in range(draw(st.integers(2, 9))):
        a = build(random_polytope(draw(st.integers(5, 7)), draw(st.integers(0, 10**6)), 6))
        b = build(random_polytope(draw(st.integers(5, 7)), draw(st.integers(0, 10**6)), 6))
        mesh = primal_mesh(minkowski(a, reflect(b)))
        case = draw(st.sampled_from(["vertex", "edge", "facet", "outside"]))
        mesh = _origin_cases(mesh)["interior" if case == "outside" else case]
        if case == "outside":
            # one coordinate moves past the extent of the centred sum
            step = max(abs(c) for v in mesh.vertices for c in (v.x, v.y, v.z)) + 1
            d = draw(st.tuples(_small, _small, _small).filter(any))
            mesh = mesh.translated(Vec3(*(step * c for c in d)))
        regions.append(project_polytope(build(mesh)))
    return regions


@settings(max_examples=10, deadline=None)
@given(_projection_lists())
def test_union_cleaned_per_step_matches_union_cleaned_once(regions):
    u = union_regions(regions)
    ref = _or_union_cleaned_once(regions)
    xor = overlay(u.arrangement, ref.arrangement, _xor_callbacks())
    assert not any(_payloads(xor))
    assert u.arrangement.validate() == []


@settings(max_examples=10, deadline=None)
@given(
    _separated_assemblies(),
    st.lists(st.tuples(_small, _small, _small), min_size=12, max_size=12),
)
def test_motion_space_cells_carry_every_blocking_pair(a, dirs):
    # the blocking graph of each cell, not only of the solutions: a
    # partition that skipped the antipodal reflection fails here
    spaces = []
    real = assembly.build_motion_space

    def capture(n, q):
        spaces.append(real(n, q))
        return spaces[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "build_motion_space", capture)
        partition(a, ALL)
    (ms,) = spaces
    arr = ms.arrangement
    diffs = _difference_planes(a)
    # random directions, and one inside every vertex, edge and face
    probes = [Vec3(*d) for d in dirs if any(d)] + [d for d, _ in cell_directions(arr)]
    for d in probes:
        blocking = frozenset(
            pair for pair, bodies in diffs.items()
            if any(ray_meets_planes(planes, d) for planes in bodies)
        )
        assert arr.locate(classify(d)).payload == blocking, d


def _overlay_refusing_point_location(monkeypatch):
    """overlay, also bound in assembly, with SphereArrangement.locate and
    interior_point raising while it runs."""
    running = []
    for name in ("locate", "interior_point"):
        real = getattr(SphereArrangement, name)

        def refuse(arr, *args, real=real, name=name):
            if running:
                raise AssertionError(f"overlay called {name}")
            return real(arr, *args)

        monkeypatch.setattr(SphereArrangement, name, refuse)

    def guarded(a, b, cb):
        running.append(True)
        try:
            return overlay(a, b, cb)
        finally:
            running.pop()

    monkeypatch.setattr(assembly, "overlay", guarded)
    return guarded


def test_overlay_takes_face_provenance_without_point_location(monkeypatch):
    region = project_polytope(build(random_polytope(9, 12).translated(Vec3(-3, 8, 5))))
    isolated = new_arrangement()
    face = isolated.initial_face()
    face.payload = "F"
    for d in (Vec3(0, 0, 1), Vec3(-1, 0, 0), Vec3(1, 2, 3)):  # pole, seam, inside
        isolated.insert_isolated_vertex(d, face).payload = "V"
    overlay_ = _overlay_refusing_point_location(monkeypatch)
    tag = OverlayCallbacks(*([lambda a, b: (a, b)] * 10))

    # an empty accumulator, as build_motion_space starts its fold
    acc = new_arrangement()
    acc.initial_face().payload = frozenset()
    out = overlay_(acc, region.arrangement, tag)
    assert {f.payload for f in out.faces} == {(frozenset(), True), (frozenset(), False)}

    # an operand with isolated vertices and no edges, on either side
    for a, b in ((region.arrangement, isolated), (isolated, region.arrangement)):
        out = overlay_(a, b, tag)
        assert out.validate() == []
        assert all("F" in f.payload for f in out.faces)
        assert sum(v.is_isolated for v in out.vertices) == 3

    # the folds of a whole partition
    scene = peg_in_hole_assembly()
    res = partition(Assembly([n for n, _ in scene], [p for _, p in scene]), ALL)
    assert not res.interlocked
