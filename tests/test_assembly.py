import random
from fractions import Fraction

import importlib

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import check_pointwise, movable_by_reachability, pierces, scan_motion_space
from geomink import assembly
from geomink.assembly import (
    ALL,
    Assembly,
    FIRST,
    cleanup_region,
    movable_subset,
    pairwise_subpart_sums,
    partition,
    project_polytope,
    reflect_region,
    union_regions,
)
from geomink.arrangement import SphereArrangement, _assemble, overlay
from geomink.gaussian import InvalidMesh, Mesh, build, primal_mesh, reflect
from geomink.hull import convex_hull_3
from geomink.kernel import Vec3, cross, dot, dot3, scale_key
from geomink.minkowski import minkowski
from geomink.shapes import (
    box,
    cube,
    hollow_box_assembly,
    peg_in_hole_assembly,
    random_polytope,
    separated_boxes_assembly,
    split_star_assembly,
    tetrahedron,
)
from geomink.spherical import (
    BoundaryClass,
    classify,
    full_circle_arcs,
    is_mergeable,
    make_arc,
    point_on_arc,
)


def ray_pierces_interior(mesh: Mesh, d: Vec3) -> bool:
    """Brute oracle: does {t*d : t>0} meet the interior of the solid?"""
    return ray_meets_planes(mesh_planes(mesh), d)


def mesh_planes(mesh: Mesh):
    """The facet planes <n, x> = b, each scaled to make n its primitive
    integer triple: no ray test below changes, and on integer vertices
    they are integer planes."""
    planes = []
    for i, cyc in enumerate(mesh.facets):
        n = Vec3(*scale_key(*mesh.facet_normal(i).as_tuple()))
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


@st.composite
def _digraphs(draw):
    n = draw(st.integers(2, 8))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    return n, frozenset(draw(st.sets(st.sampled_from(pairs))))


class TestMovableSubset:
    @settings(max_examples=300, deadline=None)
    @given(_digraphs())
    def test_matches_the_reachability_rule(self, graph):
        n, edges = graph
        subset = movable_subset(n, edges)
        assert subset == movable_by_reachability(n, edges)
        if subset is not None:
            assert 0 < len(subset) < n
            assert not any(i in subset and j not in subset for i, j in edges)

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
        assert pierces(r, Vec3(1, 2, 3)) and pierces(r, Vec3(-1, 0, 0))

    def test_origin_on_facet(self):
        # cube lying in z <= 0 with its top facet through the origin
        g = build(box(-1, -1, -2, 1, 1, 0))
        r = project_polytope(g)
        assert pierces(r, Vec3(0, 0, -1))
        assert pierces(r, Vec3(Fraction(1, 2), 0, -3))
        assert not pierces(r, Vec3(0, 0, 1))
        assert not pierces(r, Vec3(1, 0, 0))  # equator grazes, open interior
        assert not pierces(r, Vec3(1, 1, 0))

    def test_origin_on_edge(self):
        g = build(box(0, -1, -2, 2, 1, 0))  # origin interior to an edge
        r = project_polytope(g)
        assert pierces(r, Vec3(1, 0, -1))
        assert not pierces(r, Vec3(1, 0, 1))
        assert not pierces(r, Vec3(0, 0, -1))  # boundary plane grazes
        assert not pierces(r, Vec3(-1, 0, -2))
        # one cycle through the corners (0, +-1, 0) and the midpoints of
        # the sides: no edge of the two great circles off the lune
        assert len(r.edges()) == 4 and len(r.faces) == 2

    def test_origin_at_vertex(self):
        g = build(box(0, 0, 0, 2, 2, 2))
        r = project_polytope(g)
        assert pierces(r, Vec3(1, 1, 1))
        assert not pierces(r, Vec3(1, 1, 0))  # on the cone boundary
        assert not pierces(r, Vec3(-1, 1, 1))

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
            assert pierces(r, d) == ray_pierces_interior(mesh, d), f"d={d}"
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
                assert pierces(r, d) == ray_pierces_interior(mesh, d)


class TestUnion:
    def test_two_complementary_hemispheres_cover_sphere(self):
        a = project_polytope(build(box(-2, -2, -3, 2, 2, 0)))
        b = project_polytope(build(box(-2, -2, 0, 2, 2, 3)))
        u = union_regions([a, b])
        # the equator itself pierces neither solid's interior
        assert not pierces(u, Vec3(1, 0, 0))
        assert pierces(u, Vec3(0, 0, 1)) and pierces(u, Vec3(0, 0, -1))

    def test_idempotence(self):
        mesh = tetrahedron().translated(Vec3(8, 0, 0))
        r1 = project_polytope(build(mesh))
        solo = union_regions([project_polytope(build(mesh))])
        u = union_regions([r1, project_polytope(build(mesh))])
        assert u.counts() == solo.counts()

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
        arr = union_regions(regions)
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
            assert pierces(r, d) == pierces(rr, -d)
        # every vertex, edge and face, both ways, including seam and pole
        # splits, isolated vertices and a region without edges
        for r in sample_regions():
            rr = reflect_region(r)
            assert rr.validate() == []
            for d, flag in cell_directions(rr):
                assert pierces(r, -d) == flag, f"d={d}"
            for d, flag in cell_directions(r):
                assert pierces(rr, -d) == flag, f"d={d}"

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
        for mode in (FIRST, ALL):
            res = partition(a, mode)
            assert res.interlocked and not res.solutions

    def test_a_part_with_no_sub_parts_is_rejected(self):
        with pytest.raises(ValueError, match="part 'two' has no sub-parts"):
            Assembly(["one", "two"], [[cube(1)], []])

    def test_overlapping_interiors_rejected(self):
        a = Assembly(["one", "two"], [[cube(1)], [cube(1)]])
        with pytest.raises(ValueError):
            partition(a, FIRST)
        # Part pairs (0, 2) and (1, 2) both overlap, (0, 2) twice: the
        # error names the first overlapping sub-part pair in (i, j, k, l)
        # order, 0.0 and 2.2 (in (i, j, l, k) order it would be 0.1 and 2.1).
        at_x, at_y = cube(1).translated(Vec3(10, 0, 0)), cube(1).translated(Vec3(0, 10, 0))
        a = Assembly(
            ["zero", "one", "two"],
            [[at_x, cube(1)], [at_y], [at_y, cube(1), at_x]],
        )
        for mode in (FIRST, ALL):
            with pytest.raises(ValueError) as exc:
                partition(a, mode)
            assert str(exc.value) == "sub-parts 0.0 and 2.2 have overlapping interiors"

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

    def test_no_gaussian_map_is_built_unread(self, monkeypatch):
        # every sub-part's map, and the reflections of every part but the
        # last: a pair i < j never reflects part n - 1
        calls = []
        real = assembly.build
        monkeypatch.setattr(assembly, "build", lambda m: calls.append(m) or real(m))
        for scene, builds in ((split_star_assembly, 33), (hollow_box_assembly, 8)):
            named = scene()
            a = Assembly([n for n, _ in named], [p for _, p in named])
            calls.clear()
            partition(a, ALL)
            subparts = sum(map(len, a.parts))
            assert len(calls) == builds == 2 * subparts - len(a.parts[-1])

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
                xor = overlay(reflect_region(region), q[(j, i)], _xor_flags)
                assert not any(_payloads(xor)), (i, j)


def _as_assembly(scene) -> Assembly:
    return Assembly([n for n, _ in scene], [p for _, p in scene])


def _scan_inputs(a: Assembly, mode: str = ALL):
    """partition(a, mode), and the part count, kept cones and pair union
    boundaries that it hands to find_partitions."""
    captured = []
    real = assembly.find_partitions
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "find_partitions", lambda *a: captured.append(a[:3]) or real(*a))
        res = partition(a, mode)
    ((n, cones, boundaries),) = captured
    return res, n, cones, boundaries


def _held(kept, p) -> bool:
    """Does p lie strictly inside a kept cone, <m, p> > 0 for its every
    wall m?"""
    d = p.dir.as_tuple()
    return any(all(dot3(m, d) > 0 for m in c.walls) for c in kept)


def _boundary_region(kept, boundary):
    """The union region of kept cones from its (arcs, points) boundary:
    the arrangement of the boundary, every cell flagged by the cones'
    wall tests at one point of it."""
    arcs, points = boundary
    arr, _ = _assemble(arcs, points)
    for f in arr.faces:
        f.payload = _held(kept, arr.interior_point(f))
    for h in arr.edges():
        arr.set_edge_payload(h, _held(kept, h.arc.interior_point()))
    for v in arr.vertices:
        v.payload = _held(kept, v.point)
    return arr


def _boundary_regions(cones, boundaries):
    """Each pair's _boundary_region, from what partition hands to
    find_partitions."""
    return {pair: _boundary_region(cones[pair], b) for pair, b in boundaries.items()}


def _pair_unions(scene):
    """The union region of every part pair i < j, of the projections of
    all its sub-part sums."""
    a = Assembly([n for n, _ in scene], [p for _, p in scene])
    n = len(a.parts)
    q = {}
    for (i, j, _k, _l), m in pairwise_subpart_sums(
        a, ordered_pairs=[(i, j) for i in range(n) for j in range(i + 1, n)]
    ).items():
        q.setdefault((i, j), []).append(project_polytope(m))
    return n, {pair: union_regions(regions) for pair, regions in q.items()}


def _folded_motion_space(q):
    """The reference motion space: one left fold over every ordered pair,
    each reversed pair's region reflected on its own."""
    regions = dict(q)
    regions.update({(j, i): reflect_region(r) for (i, j), r in q.items()})
    acc = SphereArrangement()
    acc.faces[0].payload = frozenset()
    for pair in sorted(regions):
        f = lambda kind, a, b, pair=pair: a.payload | {pair} if b.payload else a.payload
        acc = overlay(acc, regions[pair], f)
    return acc


def _cells(arr):
    """Each vertex's point and payload, each edge's endpoints and payload,
    and the multiset of face payloads: the arrangement up to feature order."""
    vertices = sorted((v.point.dir.as_tuple(), sorted(v.payload)) for v in arr.vertices)
    edges = sorted(
        (sorted((h.source.point.dir.as_tuple(), h.target.point.dir.as_tuple())), sorted(h.payload))
        for h in arr.edges()
    )
    return vertices, edges, sorted(sorted(f.payload) for f in arr.faces)


@pytest.mark.parametrize(
    "scene", [peg_in_hole_assembly, hollow_box_assembly, split_star_assembly]
)
def test_motion_space_equals_the_fold_over_ordered_pairs(scene):
    _, q = _pair_unions(scene())
    ms = assembly.build_motion_space(q)
    ref = _folded_motion_space(q)
    assert ms.validate() == []
    xor = overlay(ms, ref, lambda kind, a, b: a.payload ^ b.payload)
    assert not any(_payloads(xor))
    assert _cells(ms) == _cells(ref)


def test_motion_space_reflects_once_and_overlays_once_per_pair(monkeypatch):
    calls = {"overlay": 0, "reflect_region": 0}
    for name in calls:
        real = getattr(assembly, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(assembly, name, counted)
    _, q = _pair_unions(split_star_assembly())
    calls.update(overlay=0, reflect_region=0)
    assembly.build_motion_space(q)
    assert calls == {"overlay": len(q) + 1, "reflect_region": 1}
    assert len(q) == 15


@pytest.mark.parametrize("scene", [peg_in_hole_assembly, split_star_assembly])
def test_partition_overlays_only_in_its_sums(monkeypatch, scene):
    # each pair's union boundary is one cut of its kept cones' sides, and
    # the scan cuts the boundaries and reads the cones' walls: every
    # overlay is one sum's, and no region is made, united, cleaned,
    # reflected or folded into a motion space
    minkowski_module = importlib.import_module("geomink.minkowski")
    events = []
    watched = [(minkowski_module, "overlay", "sum overlay"), (assembly, "minkowski", "sum")]
    watched += [
        (assembly, name, name)
        for name in (
            "overlay", "union_regions", "cleanup_region", "_cycle_region",
            "reflect_region", "build_motion_space",
        )
    ]
    for module, name, event in watched:
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, real=real, event=event: events.append(event) or real(*a)
        )
    for mode in (FIRST, ALL):
        events.clear()
        partition(_as_assembly(scene()), mode)
        sums = events.count("sum")
        assert sums > 0 and events == ["sum", "sum overlay"] * sums


def test_interlocked_exit_scans_only_the_vertices(monkeypatch):
    # With every blocking graph strongly connected, no vertex is a
    # solution, and the edges and faces, whose graphs contain a vertex
    # graph, are not read: one test per vertex of Split Star's motion
    # space, and no face is assembled.
    a = _as_assembly(split_star_assembly())
    _, _, _, boundaries = _scan_inputs(a)
    _, vertices, _ = assembly._motion_space_cells(list(boundaries.values()))
    calls = []
    monkeypatch.setattr(assembly, "movable_subset", lambda *a: calls.append(a))
    monkeypatch.setattr(SphereArrangement, "interior_point", lambda *a: pytest.fail("a face"))
    for mode in (FIRST, ALL):
        calls.clear()
        assert partition(a, mode) == (True, [])
        assert len(calls) == len(vertices) == 26


def test_motion_space_rejects_a_reversed_pair():
    r = project_polytope(build(cube(1).translated(Vec3(5, 0, 0))))
    with pytest.raises(ValueError):
        assembly.build_motion_space({(1, 0): r})
    with pytest.raises(ValueError):
        assembly.build_motion_space({(0, 1): r, (1, 0): reflect_region(r)})


def _xor_flags(kind, a, b):
    return bool(a.payload) != bool(b.payload)


def _or_flags(kind, a, b):
    return bool(a.payload) or bool(b.payload)


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


def _needless_edges(region):
    """Edges flagged alike with the faces on both sides: removing one
    would change no direction's flag."""
    return [
        h for h in region.edges()
        if h.payload == h.face.payload == h.twin.face.payload
    ]


@settings(max_examples=10, deadline=None)
@given(st.integers(5, 12), st.integers(0, 10**6))
def test_every_projection_edge_separates_differently_flagged_cells(size, seed):
    regions = {
        case: project_polytope(build(mesh))
        for case, mesh in _origin_cases(random_polytope(size, seed)).items()
    }
    off_origin = [r for case, r in regions.items() if case != "interior"]
    unions = [union_regions(off_origin), union_regions(list(regions.values()))]
    for region in [*regions.values(), *unions]:
        assert _needless_edges(region) == []


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
            assert pierces(region, d) == ray_pierces_interior(mesh, d), (case, d)


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
    acc = regions[0]
    for r in regions[1:]:
        acc = overlay(acc, r, _or_flags)
    return cleanup_region(acc)


def _spans_a_plane(pts) -> bool:
    (x0, y0), (x1, y1) = pts[0], pts[1]
    return any((x1 - x0) * (y - y0) != (y1 - y0) * (x - x0) for x, y in pts[2:])


@st.composite
def _prism(draw, d: Vec3, e1: Vec3, e2: Vec3) -> Mesh:
    """A prism along d over a random polygon in the plane of e1 and e2."""
    corners = draw(
        st.lists(st.tuples(_small, _small), min_size=3, max_size=6, unique=True).filter(
            _spans_a_plane
        )
    )
    base = [e1.scale(x) + e2.scale(y) for x, y in corners]
    top = d.scale(draw(st.integers(1, 3)))
    return convex_hull_3(base + [p + top for p in base])


@st.composite
def _sliding_walls(draw):
    """Projections that share one sliding-contact direction d, as
    peg-in-hole's walls do: one sum of two prisms along d, placed with
    the origin inside each of its walls (the facets parallel to d) and
    inside a few of its edges along d.  The pierced sides of the walls
    surround d, so the union is everything but the isolated points d
    and -d."""
    d = Vec3(*draw(st.tuples(_small, _small, _small).filter(any)))
    e1 = cross(d, Vec3(1, 0, 0))
    if e1.is_zero():
        e1 = cross(d, Vec3(0, 1, 0))
    e2 = cross(d, e1)
    a = build(draw(_prism(d, e1, e2)))
    b = build(draw(_prism(d, e1, e2)))
    mesh = primal_mesh(minkowski(a, reflect(b)))
    vs = mesh.vertices
    walls = [
        sum((vs[k] for k in cyc), Vec3(0, 0, 0)).scale(Fraction(1, len(cyc)))
        for i, cyc in enumerate(mesh.facets)
        if dot(mesh.facet_normal(i), d) == 0
    ]
    edges = [
        (vs[u] + vs[v]).scale(Fraction(1, 2))
        for cyc in mesh.facets
        for u, v in zip(cyc, cyc[1:] + cyc[:1])
        if u < v and cross(vs[v] - vs[u], d).is_zero()
    ]
    contacts = walls + draw(st.lists(st.sampled_from(edges), max_size=3, unique=True))
    return [project_polytope(build(mesh.translated(-p))) for p in contacts]


@st.composite
def _projection_lists(draw):
    """Projections of random sums, each placed apart from the origin or
    touching it at a vertex, inside an edge or inside a facet: 2 to 9 of
    them, or 0 to 2 after sliding walls (_sliding_walls)."""
    regions = draw(_sliding_walls()) if draw(st.booleans()) else []
    for _ in range(draw(st.integers(0, 2) if regions else st.integers(2, 9))):
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
    xor = overlay(u, ref, _xor_flags)
    assert not any(_payloads(xor))
    assert u.validate() == []


def _fusable(v) -> bool:
    """A vertex off the parameter-space boundary with two edges that
    make one arc, flagged alike with them."""
    if v.is_isolated or v.degree != 2 or v.point.boundary_class is not BoundaryClass.INTERIOR:
        return False
    h1, h2 = v.out
    return v.payload == h1.payload == h2.payload and is_mergeable(h1.twin.arc, h2.arc)


def _check_cleaned(raw, clean):
    """clean reads raw's flag at every vertex of raw, inside every edge
    and inside every face, and keeps no buried edge, no buried isolated
    point and no vertex it could fuse."""
    for d, flag in cell_directions(raw):
        assert clean.locate(classify(d)).payload == flag, d
    assert clean.validate() == []
    assert _needless_edges(clean) == []
    assert [v for v in clean.vertices if v.is_isolated and v.payload and v.isolated_face.payload] == []
    assert [v for v in clean.vertices if _fusable(v)] == []


@settings(max_examples=10, deadline=None)
@given(_projection_lists())
def test_cleanup_keeps_every_flag_and_no_buried_or_fusable_cell(regions):
    raw = regions[0]
    for r in regions[1:]:
        raw = overlay(raw, r, _or_flags)
    _check_cleaned(raw, cleanup_region(raw))


def test_cleanup_keeps_a_lune_side_vertex_and_a_hole_and_drops_a_buried_point():
    # the lune x > 0, y > 0 between the poles: its sides are half circles,
    # so each keeps its midpoint vertex, which no arc can fuse over
    raw = project_polytope(build(box(0, 0, -1, 2, 2, 1)))
    for d, flag in ((Vec3(1, 1, 1), False), (Vec3(2, 1, -1), True), (Vec3(-1, -1, 1), True)):
        raw.insert_isolated_vertex(d).payload = flag
    clean = cleanup_region(raw)
    _check_cleaned(raw, clean)
    interior = {v.point for v in clean.vertices if v.point.boundary_class is BoundaryClass.INTERIOR}
    # the two side midpoints, the False hole in the lune and the True
    # point outside it; the True point inside the lune is buried
    assert interior == {classify(Vec3(*d)) for d in ((1, 0, 0), (0, 1, 0), (1, 1, 1), (-1, -1, 1))}
    assert clean.counts() == (6, 8, 2)
    assert clean.find_vertex(Vec3(2, 1, -1)) is None


@settings(max_examples=10, deadline=None)
@given(
    _separated_assemblies(),
    st.lists(st.tuples(_small, _small, _small), min_size=12, max_size=12),
)
def test_motion_space_cells_carry_every_blocking_pair(a, dirs):
    # the blocking graph of each cell, not only of the solutions: a scan
    # that skipped the reversed pairs fails here, and so does a fold
    # that skipped the antipodal reflection
    _, _, cones, boundaries = _scan_inputs(a)
    arr = assembly.build_motion_space(_boundary_regions(cones, boundaries))
    edges, vertices, _ = assembly._motion_space_cells(list(boundaries.values()))
    scan = assembly._blocking_pairs(cones)
    diffs = _difference_planes(a)

    def blocking(d):
        return frozenset(
            pair for pair, bodies in diffs.items()
            if any(ray_meets_planes(planes, d) for planes in bodies)
        )

    # the fold at random directions and inside every vertex, edge and face
    for d in [Vec3(*d) for d in dirs if any(d)] + [d for d, _ in cell_directions(arr)]:
        assert arr.locate(classify(d)).payload == blocking(d), d
    # the scan at random directions, every candidate vertex and every
    # piece interior
    probes = [classify(Vec3(*d)) for d in dirs if any(d)] + vertices
    for p in probes + [e.interior_point() for e in edges]:
        assert frozenset(scan(p)) == blocking(p.dir), p


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

    def guarded(a, b, merge):
        running.append(True)
        try:
            return overlay(a, b, merge)
        finally:
            running.pop()

    monkeypatch.setattr(assembly, "overlay", guarded)
    return guarded


def test_overlay_takes_face_provenance_without_point_location(monkeypatch):
    region = project_polytope(build(random_polytope(9, 12).translated(Vec3(-3, 8, 5))))
    isolated = SphereArrangement()
    face = isolated.faces[0]
    face.payload = "F"
    for d in (Vec3(0, 0, 1), Vec3(-1, 0, 0), Vec3(1, 2, 3)):  # pole, seam, inside
        isolated.insert_isolated_vertex(d, face).payload = "V"
    overlay_ = _overlay_refusing_point_location(monkeypatch)
    tag = lambda kind, a, b: (a.payload, b.payload)

    # an empty accumulator, as build_motion_space starts its fold
    acc = SphereArrangement()
    acc.faces[0].payload = frozenset()
    out = overlay_(acc, region, tag)
    assert {f.payload for f in out.faces} == {(frozenset(), True), (frozenset(), False)}

    # an operand with isolated vertices and no edges, on either side
    for a, b in ((region, isolated), (isolated, region)):
        out = overlay_(a, b, tag)
        assert out.validate() == []
        assert all("F" in f.payload for f in out.faces)
        assert sum(v.is_isolated for v in out.vertices) == 3

    # the folds of a whole partition
    scene = peg_in_hole_assembly()
    res = partition(Assembly([n for n, _ in scene], [p for _, p in scene]), ALL)
    assert not res.interlocked


# -- the sums partition makes, and the projections it keeps ---------------------


def _cone_of(mesh: Mesh):
    return assembly._projection_cone(build(mesh))


def test_cone_holds_a_nested_cone_and_a_hemisphere_holds_a_lune():
    small_box, lune_box = box(3, -1, -1, 4, 1, 1), box(0, -1, -2, 2, 1, 0)
    big = _cone_of(box(2, -2, -2, 4, 2, 2))  # corners (1, +-1, +-1)
    small = _cone_of(small_box)  # corners (3, +-1, +-1)
    assert big.holds(small) and not small.holds(big)
    hemisphere = _cone_of(box(-1, -1, -2, 1, 1, 0))  # z < 0
    lune = _cone_of(lune_box)  # x > 0, z < 0
    assert hemisphere.walls == ((0, 0, -1),) and len(lune.walls) == 2
    assert hemisphere.holds(lune) and not lune.holds(hemisphere)
    assert not hemisphere.holds(big) and not big.holds(lune)
    # every direction that pierces the held solid pierces the holder's region
    for outer, mesh in ((big, small_box), (hemisphere, lune_box)):
        region = assembly._cycle_region(outer)
        for d in mesh.vertices + [Vec3(7, 1, -3), Vec3(1, 0, -1), Vec3(0, 0, 1)]:
            if ray_pierces_interior(mesh, d):
                assert pierces(region, d), d


def test_cone_corner_on_a_hemisphere_circle_is_held():
    hemisphere = _cone_of(box(0, -1, -1, 2, 1, 1))  # x > 0
    touching = _cone_of(box(0, 1, 1, 2, 3, 3))  # corners on the circle x = 0
    assert any(g[0] == 0 for g in touching.generators)
    assert hemisphere.holds(touching) and not touching.holds(hemisphere)
    beyond = _cone_of(box(-1, 1, 1, 2, 3, 3))  # one unit past the circle
    assert not hemisphere.holds(beyond)


def test_cones_with_corners_on_the_seam_and_at_a_pole():
    # the pole (0, 0, 1) is a corner of both cones, (-1, 0, 1) on the seam
    # a corner of the outer one
    outer_mesh = convex_hull_3([Vec3(0, 0, 3), Vec3(-3, 0, 3), Vec3(0, 3, 3), Vec3(-1, 1, 6)])
    inner_mesh = convex_hull_3([Vec3(0, 0, 3), Vec3(-1, 0, 6), Vec3(0, 1, 6), Vec3(-1, 1, 10)])
    outer, inner = _cone_of(outer_mesh), _cone_of(inner_mesh)
    assert {p.boundary_class for p in outer.corners} >= {
        BoundaryClass.NORTH_POLE, BoundaryClass.ON_IDENTIFICATION
    }
    assert classify(Vec3(0, 0, 1)) in inner.corners
    assert outer.holds(inner) and not inner.holds(outer)
    regions = [project_polytope(build(m)) for m in (outer_mesh, inner_mesh)]
    xor = overlay(union_regions(regions), regions[0], _xor_flags)
    assert not any(_payloads(xor))


_tiny = st.integers(-2, 2)
_triples = st.tuples(_tiny, _tiny, _tiny).filter(any)


@st.composite
def _hemisphere(draw):
    """The open hemisphere <n, d> < 0: its circle runs through the poles
    when n is horizontal, and else crosses the seam at a corner."""
    n = Vec3(*draw(_triples))
    return assembly._cone([a.source for a in full_circle_arcs(n)], -n)


@st.composite
def _lune(draw):
    n1, n2 = Vec3(*draw(_triples)), Vec3(*draw(_triples))
    assume(not cross(n1, n2).is_zero())
    return assembly._lune_cone(n1, n2)


@st.composite
def _pointed(draw):
    """The spherical hull of 3 to 6 small directions on the positive side
    of w, as _projection_cone makes it: poles and seam points are among
    the directions, and w among them or not."""
    w = Vec3(*draw(st.sampled_from([(0, 0, 1), (0, 0, -1), (-1, 0, 0), (-1, 0, 1), (1, 1, 1)])))
    dirs = {classify(w)} if draw(st.booleans()) else set()
    dirs |= {classify(Vec3(*t)) for t in draw(st.lists(_triples, min_size=3, max_size=6))}
    dirs = {p for p in dirs if dot(p.dir, w) > 0}
    assume(len(dirs) >= 3)
    hull = assembly._gnomonic_hull(dirs, w)
    assume(len(hull) >= 3)
    return assembly._cone(hull, sum((p.dir for p in hull), Vec3(0, 0, 0)))


def _arcs_at(arcs):
    """Each endpoint of arcs, with the arcs that end there."""
    ends = {}
    for a in arcs:
        for p in (a.source, a.target):
            ends.setdefault(p, []).append(a)
    return ends


def _plain_vertices(arcs):
    """The endpoints of arcs, but those of exactly two arcs on one great
    circle."""
    return {
        p for p, at in _arcs_at(arcs).items()
        if len(at) != 2 or not cross(at[0].normal, at[1].normal).is_zero()
    }


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(_hemisphere(), _lune(), _pointed()), min_size=1, max_size=5))
def test_union_boundary_matches_the_fold(kept):
    arcs, points = assembly._union_boundary(kept)
    ref = union_regions([assembly._cycle_region(c) for c in kept])
    ref_arcs = [h.arc for h in ref.edges()]
    assert set(points) == {v.point for v in ref.vertices if v.is_isolated}
    assert len(points) == len(set(points))
    assert _plain_vertices(arcs) == _plain_vertices(ref_arcs)
    # no vertex off the seam and the poles is left that cleanup_region
    # would fuse, and no arc runs over the seam or a pole
    for p, at in _arcs_at(arcs).items():
        if len(at) == 2 and p.boundary_class is BoundaryClass.INTERIOR:
            assert not is_mergeable(*at) and not is_mergeable(*at[::-1]), p
    assert all(len(make_arc(a.source, a.target)) == 1 for a in arcs)
    for mine, other in ((arcs, ref_arcs), (ref_arcs, arcs)):
        for a in mine:
            for p in (a.source, a.interior_point(), a.target):
                assert any(point_on_arc(p, b) for b in other), (a, p)
            # shorter than pi: cross(s, t) a positive multiple of the normal
            assert dot(cross(a.source.dir, a.target.dir), a.normal) > 0, a
    # the boundary, flagged by the walls, is the fold's region at every point
    region = _boundary_region(kept, (arcs, points))
    assert region.validate() == []
    assert not any(_payloads(overlay(region, ref, _xor_flags)))


def _made_sums(monkeypatch):
    """The summands (part j's sub-part l, part i's reflected sub-part k)
    of every sum made through assembly.minkowski, in order."""
    made = []
    real = assembly.minkowski
    monkeypatch.setattr(assembly, "minkowski", lambda a, b: made.append((a, b)) or real(a, b))
    return made


def test_equal_projections_keep_the_first(monkeypatch):
    # both sub-parts of part 1 touch the cube's facet x = 1: their
    # projections are the one hemisphere x > 0, and only the first sum
    # is made
    wide, deep = box(1, -1, -1, 3, 1, 1), box(1, -2, -2, 4, 2, 2)
    first = assembly._projection_cone(minkowski(build(wide), build(cube(1).negated())))
    second = assembly._projection_cone(minkowski(build(deep), build(cube(1).negated())))
    assert first == second and first.holds(second) and second.holds(first)
    made = _made_sums(monkeypatch)
    a = Assembly(["cube", "slabs"], [[cube(1)], [wide, deep]])
    res, _, cones, _ = _scan_inputs(a)
    assert [g.primal_vertices() for g, _ in made] == [build(wide).primal_vertices()]
    assert cones == {(0, 1): [first]}
    assert {s.subset for s in res.solutions} == {(0,), (1,)}


def test_difference_body_on_a_wall_is_skipped_and_one_unit_past_it_is_summed(monkeypatch):
    # 1.0 touches the cube's facet x = 1, so the pair keeps the
    # hemisphere x > 0.  1.1's difference body with the cube reaches
    # x = 0, the hemisphere's wall, and its sum is skipped; 1.2's reaches
    # x = -1 and is made.
    contact = box(1, -1, -1, 3, 1, 1)
    on_wall = box(1, 2, -1, 3, 4, 1)
    past_wall = box(0, 2, -1, 2, 4, 1)
    a = Assembly(["cube", "rest"], [[cube(1)], [contact, on_wall, past_wall]])
    made = _made_sums(monkeypatch)
    res = partition(a, ALL)
    assert [g.primal_vertices() for g, _ in made] == [
        build(m).primal_vertices() for m in (contact, past_wall)
    ]
    _, ref = _reference_partition(a)
    assert not res.interlocked and {s.subset for s in res.solutions} == {
        s.subset for s in ref.solutions
    }


def test_overlap_after_a_hemisphere_names_the_overlapping_pair():
    # 0.0 and 1.0 touch at a facet (a hemisphere, kept first); 0.0 and
    # 1.1 lie inside it and are skipped; 0.1 and 1.1 overlap
    a = Assembly(
        ["zero", "one"],
        [
            [cube(1), cube(1).translated(Vec3(10, 0, 0))],
            [box(1, -1, -1, 3, 1, 1), cube(1).translated(Vec3(11, 0, 0))],
        ],
    )
    for mode in (FIRST, ALL):
        with pytest.raises(ValueError) as exc:
            partition(a, mode)
        assert str(exc.value) == "sub-parts 0.1 and 1.1 have overlapping interiors"


def _reference_partition(a: Assembly):
    """partition(a, ALL) from the public pieces: every i < j sum
    projected, each pair's projections united in (k, l) order, the motion
    space and its scan.  Returns the pair unions and the result."""
    _, unions = _pair_unions([(n, p) for n, p in zip(a.names, a.parts)])
    return unions, scan_motion_space(len(a.parts), assembly.build_motion_space(unions), ALL)


_CELL_SIDES = [(0, 2), (0, 2), (0, 1), (1, 2)]  # the whole cell side weighs double


@st.composite
def _cell_solid(draw, cell):
    """A box or a tetrahedron in the 2-unit cell at 2 * cell: a box spans
    the whole cell or one half of it along each axis; a tetrahedron is a
    corner of the cell and its three neighbours along the cell's edges."""
    c = [2 * x for x in cell]
    if draw(st.booleans()):
        sides = [draw(st.sampled_from(_CELL_SIDES)) for _ in range(3)]
        return box(*(c[k] + sides[k][0] for k in range(3)), *(c[k] + sides[k][1] for k in range(3)))
    corner = [c[k] + 2 * draw(st.integers(0, 1)) for k in range(3)]
    toward = [1 if corner[k] == c[k] else -1 for k in range(3)]
    points = [Vec3(*corner)]
    for k in range(3):
        p = list(corner)
        p[k] += 2 * toward[k]
        points.append(Vec3(*p))
    return convex_hull_3(points)


@st.composite
def _touching_assemblies(draw):
    """2 or 3 parts of 1 or 2 sub-parts each, every sub-part a box or a
    tetrahedron in its own cell of a 2 x 2 x 2 grid: sub-parts in
    neighbouring cells touch at a facet, an edge or a vertex, or are
    apart, and no two overlap."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    coords = st.integers(0, 1)
    cells = iter(
        draw(
            st.lists(
                st.tuples(coords, coords, coords),
                min_size=sum(sizes),
                max_size=sum(sizes),
                unique=True,
            )
        )
    )
    parts = [[draw(_cell_solid(next(cells))) for _ in range(s)] for s in sizes]
    return Assembly([f"p{i}" for i in range(len(parts))], parts)


@settings(max_examples=25, deadline=None)
@given(_touching_assemblies(), st.lists(st.tuples(_small, _small, _small), max_size=6))
def test_partition_matches_the_reference_from_every_sum(a, dirs):
    events = []  # each made cone, and None after each pair's union boundary
    with pytest.MonkeyPatch.context() as mp:
        real_cone, real_boundary = assembly._projection_cone, assembly._union_boundary

        def made(g):
            events.append(real_cone(g))
            return events[-1]

        mp.setattr(assembly, "_projection_cone", made)
        mp.setattr(assembly, "_union_boundary", lambda k: events.append(None) or real_boundary(k))
        res, n, cones, boundaries = _scan_inputs(a)
    # the fold over the unions partition made: each pair's boundary, its
    # cells flagged by its kept cones' walls
    q = _boundary_regions(cones, boundaries)
    ms = assembly.build_motion_space(q)
    ref_q, ref = _reference_partition(a)

    # the verdict and the movable subsets are the reference's
    assert res.interlocked == ref.interlocked
    assert {s.subset for s in res.solutions} == {s.subset for s in ref.solutions}
    # each pair keeps maximal projections that hold every one it made
    pairs = iter(sorted(cones))
    made = []
    for event in events:
        if event is not None:
            made.append(event)
            continue
        kept = cones[next(pairs)]
        assert kept and all(any(k.holds(c) for k in kept) for c in made)
        assert not any(x.holds(y) for x in kept for y in kept if x is not y)
        made = []
    assert next(pairs, None) is None and made == []
    # every ALL direction is a free motion
    diffs = _difference_planes(a)
    for sol in res.solutions:
        for i in sol.subset:
            for j in set(range(len(a.parts))) - set(sol.subset):
                for planes in diffs[(i, j)]:
                    assert not ray_meets_planes(planes, sol.direction), (sol, i, j)
    # each pair union and the motion space equal the reference's at every
    # point: an xor overlay flags no cell, and the overlay is checked
    # against point location in both operands
    probes = [Vec3(*d) for d in dirs if any(d)]
    assert q.keys() == ref_q.keys()
    for key in q:
        xor = overlay(q[key], ref_q[key], _xor_flags)
        assert not any(_payloads(xor)), key
    ref_ms = assembly.build_motion_space(ref_q)
    xor = overlay(ms, ref_ms, lambda kind, x, y: x.payload ^ y.payload)
    assert not any(_payloads(xor))
    for key in q:
        check_pointwise(q[key], ref_q[key], probes)
    check_pointwise(ms, ref_ms, probes)


@st.composite
def _unit_cube_grids(draw):
    """2 or 3 parts of unit cubes in a 2 x 2 x 2 grid about the origin,
    each cube a sub-part of one part: cubes touch at facets, edges and
    vertices, and the contacts' hemisphere and lune boundaries lie on the
    coordinate planes, through the seam and both poles."""
    coords = st.integers(-1, 0)
    cells = draw(
        st.lists(st.tuples(coords, coords, coords), min_size=2, max_size=8, unique=True)
    )
    n = draw(st.integers(2, min(3, len(cells))))
    owners = list(range(n)) + draw(
        st.lists(st.integers(0, n - 1), min_size=len(cells) - n, max_size=len(cells) - n)
    )
    parts = [
        [box(x, y, z, x + 1, y + 1, z + 1) for (x, y, z), o in zip(cells, owners) if o == k]
        for k in range(n)
    ]
    return Assembly([f"p{k}" for k in range(n)], parts)


def _boxes(n, seed):
    return _as_assembly(separated_boxes_assembly(n, seed))


@settings(max_examples=20, deadline=None)
@given(
    st.one_of(
        st.builds(_boxes, st.integers(2, 6), st.integers(0, 10**6)), _unit_cube_grids()
    )
)
def test_scan_matches_the_fold_motion_space(a):
    res, n, cones, boundaries = _scan_inputs(a)
    arr = assembly.build_motion_space(_boundary_regions(cones, boundaries))
    edges, vertices, _ = assembly._motion_space_cells(list(boundaries.values()))
    blocking = assembly._blocking_pairs(cones)
    # the candidates are the fold's vertices, once each, with its payloads,
    # and the pieces are its edges
    assert len(vertices) == len(set(vertices))
    assert set(vertices) == {v.point for v in arr.vertices}
    for p in vertices:
        assert frozenset(blocking(p)) == arr.find_vertex(p).payload, p
    fold_edges = {frozenset((h.source.point, h.target.point)): h for h in arr.edges()}
    assert {frozenset((e.source, e.target)) for e in edges} == fold_edges.keys()
    for e in edges:
        h = fold_edges[frozenset((e.source, e.target))]
        assert frozenset(blocking(e.interior_point())) == h.payload, e
    # verdicts and ALL solutions; a face solution by the fold's face that
    # holds its direction
    ref = scan_motion_space(n, arr, ALL)

    def solution_set(solutions):
        return {
            (s.cell_kind, id(arr.locate(classify(s.direction)).ref), s.subset)
            if s.cell_kind == "face" else s
            for s in solutions
        }

    assert res.interlocked == ref.interlocked
    assert solution_set(res.solutions) == solution_set(ref.solutions)
    first = partition(a, FIRST)
    assert first.interlocked == res.interlocked
    assert all(s in res.solutions for s in first.solutions)
    assert len(first.solutions) == (0 if first.interlocked else 1)
