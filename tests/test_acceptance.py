"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line (run with `pytest tests/test_acceptance.py -s`).

All checks are exact; the time caps are generous desk-scale budgets."""

import json
import random
import time
from fractions import Fraction

from conftest import reachability_components
from geomink.arrangement import sweep_build
from geomink.assembly import (
    FIRST,
    Assembly,
    partition,
    project_polytope,
    tarjan_scc,
)
from geomink.cli import main as cli_main
from geomink.extremal import verify_bound
from geomink.fileio import write_scene
from geomink.gaussian import Mesh, build, primal_mesh, reflect
from geomink.hull import convex_hull_3, meshes_equivalent, pairwise_sums
from geomink.kernel import Vec3, dot
from geomink.minkowski import facet_count, minkowski
from geomink.proximity import INSIDE, ON_BOUNDARY, OUTSIDE, collide
from geomink.shapes import (
    box,
    hollow_box_assembly,
    octahedron,
    random_polytope,
    split_star_assembly,
    tetrahedron,
)
from geomink.spherical import make_arc


def _report(num: int, name: str, ok: bool, elapsed: float, budget: float):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{verdict}] {name} ({elapsed:.1f}s / {budget:.0f}s)")
    assert ok, f"criterion {num} failed"
    assert elapsed < budget, f"criterion {num} blew its {budget}s budget: {elapsed:.1f}s"


def _seam_crossings(mesh: Mesh) -> int:
    """Independent recount of the identification/pole splits of the
    Gaussian-map arcs, straight from the facet normals."""
    edge_face = {}
    pairs = []
    for fi, cyc in enumerate(mesh.facets):
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if (b, a) in edge_face:
                pairs.append((edge_face[(b, a)], fi))
            else:
                edge_face[(a, b)] = fi
    return sum(
        len(make_arc(mesh.facet_normal(f1), mesh.facet_normal(f2))) - 1
        for f1, f2 in pairs
    )


def _ray_pierces_interior(mesh: Mesh, d: Vec3) -> bool:
    lo, hi = Fraction(0), None
    for i in range(len(mesh.facets)):
        n, b = mesh.facet_normal(i), mesh.facet_offset(i)
        a = dot(n, d)
        if a == 0:
            if b <= 0:
                return False
            continue
        t = b / a
        if a > 0:
            hi = t if hi is None else min(hi, t)
        else:
            lo = max(lo, t)
    return hi is not None and lo < hi


def test_criterion_01_gaussian_map_duality_counts():
    t0 = time.time()
    ok = build(octahedron()).counts() == (10, 28, 6)
    ok = ok and build(tetrahedron()).counts() == (4, 12, 4)
    for seed in range(20):
        m = random_polytope(9 + seed % 5, 1000 + seed)
        s = _seam_crossings(m)
        V, HE, F = build(m).counts()
        ok = ok and (V, HE, F) == (len(m.facets) + s, 2 * (m.edge_count() + s), len(m.vertices))
        if not ok:
            break
    _report(1, "Gaussian-map duality counts", ok, time.time() - t0, 5)


def test_criterion_02_minkowski_oracle_equivalence():
    t0 = time.time()
    ok = True
    for seed in range(25):
        m1 = random_polytope(9 + seed % 4, 2000 + seed)
        m2 = random_polytope(8 + seed % 5, 3000 + seed)
        assert len(m1.vertices) <= 20 and len(m2.vertices) <= 20
        got = primal_mesh(minkowski(build(m1), build(m2)))
        want = convex_hull_3(pairwise_sums(m1, m2))
        ok = ok and meshes_equivalent(got, want)
        if not ok:
            break
    _report(2, "Minkowski sums match the hull oracle (25 pairs)", ok, time.time() - t0, 60)


def test_criterion_03_tight_bound_witnesses():
    t0 = time.time()
    r44 = verify_bound(4, 4)
    r11 = verify_bound(11, 11)
    ok = r44.tight and r44.facets == 18 and r11.tight and r11.facets == 312
    _report(3, "tight bound: (4,4) -> 18 and (11,11) -> 312 facets", ok, time.time() - t0, 30)


def test_criterion_04_upper_bound_property():
    t0 = time.time()
    ok = True
    for seed in range(50):
        m1 = random_polytope(7 + seed % 4, 4000 + seed)
        m2 = random_polytope(7 + (seed + 2) % 4, 5000 + seed)
        g1, g2 = build(m1), build(m2)
        s = minkowski(g1, g2)
        fm, fn = len(m1.facets), len(m2.facets)
        ok = ok and facet_count(s) <= 4 * fm * fn - 9 * fm - 9 * fn + 26
        ok = ok and len(s.arrangement.faces) <= len(g1.arrangement.faces) * len(
            g2.arrangement.faces
        )
        if not ok:
            break
    _report(4, "upper bound and overlay face bound (50 pairs)", ok, time.time() - t0, 60)


def test_criterion_05_support_additivity():
    t0 = time.time()
    rng = random.Random(99)
    ok = True
    for seed in range(10):
        g1 = build(random_polytope(8, 6000 + seed))
        g2 = build(random_polytope(8, 7000 + seed))
        s = minkowski(g1, g2)
        for _ in range(200):
            d = Vec3(rng.randint(-20, 20), rng.randint(-20, 20), rng.randint(-20, 20))
            if d.is_zero():
                continue
            if s.support(d)[0] != g1.support(d)[0] + g2.support(d)[0]:
                ok = False
                break
        if not ok:
            break
    _report(5, "support additivity (10 pairs x 200 directions)", ok, time.time() - t0, 10)


def test_criterion_06_grazing_collision_semantics():
    t0 = time.time()
    P = build(box(0, 0, 0, 1, 1, 1))
    eps = Fraction(1, 10**6)
    hit, wit, M = collide(P, P, Vec3(0, 0, 0), Vec3(1, 0, 0))
    ok = hit and wit.classification == ON_BOUNDARY
    _h, w2, _ = collide(P, P, Vec3(0, 0, 0), Vec3(1 + eps, 0, 0), cache=M)
    ok = ok and w2.classification == OUTSIDE
    _h, w3, _ = collide(P, P, Vec3(0, 0, 0), Vec3(1 - eps, 0, 0), cache=M)
    ok = ok and w3.classification == INSIDE
    _report(6, "grazing cubes classify ON_BOUNDARY, eps flips sides", ok, time.time() - t0, 1)


def test_criterion_07_projection_lemma():
    t0 = time.time()
    rng = random.Random(7)
    ok = True
    probes = 0
    case = 0
    while probes < 500 and ok:
        case += 1
        shift = Vec3(rng.randint(-15, 15), rng.randint(-15, 15), rng.randint(-15, 15))
        mesh = random_polytope(8, 8000 + case).translated(shift)
        try:
            region = project_polytope(build(mesh))
        except Exception:
            ok = False
            break
        for _ in range(50):
            d = Vec3(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
            if d.is_zero():
                continue
            if region.pierces(d) != _ray_pierces_interior(mesh, d):
                ok = False
                break
            probes += 1
    _report(7, "projection lemma on 500 ray probes", ok, time.time() - t0, 30)


SPLIT_STAR_TABLE = {
    (-1, -1, -1): {"G", "B", "T"},
    (-1, -1, 1): {"R", "B", "T"},
    (-1, 1, -1): {"G", "P", "T"},
    (-1, 1, 1): {"R", "P", "T"},
    (1, -1, -1): {"G", "B", "Y"},
    (1, -1, 1): {"R", "B", "Y"},
    (1, 1, -1): {"G", "P", "Y"},
    (1, 1, 1): {"R", "P", "Y"},
}


def test_criterion_08_split_star_end_to_end(tmp_path, capsys):
    t0 = time.time()
    parts = split_star_assembly()
    scene = tmp_path / "split_star.asm"
    write_scene([n for n, _ in parts], [p for _, p in parts], str(scene))
    rpt = tmp_path / "report.json"
    code = cli_main(["partition", str(scene), "--mode", "all", "--report", str(rpt)])
    capsys.readouterr()
    data = json.loads(rpt.read_text())
    ok = code == 0 and not data["interlocked"] and len(data["solutions"]) == 8
    seen = {}
    for sol in data["solutions"]:
        ok = ok and sol["cell"] == "vertex"
        d = tuple(Fraction(c) for c in sol["direction"])
        m = max(abs(c) for c in d)
        key = tuple(int(c / m) for c in d)
        ok = ok and all(abs(c) == 1 for c in key)
        seen[key] = set(sol["subset"])
    ok = ok and seen == SPLIT_STAR_TABLE
    _report(8, "Split Star: 8 vertex solutions matching the table", ok, time.time() - t0, 120)


def test_criterion_09_interlock_detection():
    t0 = time.time()
    named = hollow_box_assembly()
    a = Assembly([n for n, _ in named], [p for _, p in named])
    res = partition(a, FIRST)
    ok = res.interlocked
    # Brute cross-validation: both parts block each other along 10^4
    # sampled rational directions.
    core, slabs = a.parts[0][0], a.parts[1]
    sums_fwd = [primal_mesh(minkowski(build(s), reflect(build(core)))) for s in slabs]
    sums_rev = [primal_mesh(minkowski(build(core), reflect(build(s)))) for s in slabs]
    rng = random.Random(42)
    samples = 0
    while samples < 10**4 and ok:
        d = Vec3(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        if d.is_zero():
            continue
        fwd = any(_ray_pierces_interior(m, d) for m in sums_fwd)
        rev = any(_ray_pierces_interior(m, d) for m in sums_rev)
        ok = fwd and rev
        samples += 1
    _report(9, "hollow box interlocked incl. brute 10^4-direction check", ok, time.time() - t0, 60)


def test_criterion_10_structural_invariants():
    t0 = time.time()
    rng = random.Random(5)
    ok = True
    # sweep_build permutation independence on 10 random arc sets,
    # validating every arrangement produced
    for trial in range(10):
        arcs = []
        while len(arcs) < 7:
            u = Vec3(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
            v = Vec3(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
            try:
                arcs.extend(make_arc(u, v))
            except Exception:
                continue
        ref = sweep_build(arcs)
        ok = ok and ref.validate() == []
        key = (ref.counts(), sorted(v.point.dir.canonical() for v in ref.vertices))
        for _ in range(3):
            shuffled = arcs[:]
            rng.shuffle(shuffled)
            arr = sweep_build(shuffled)
            ok = ok and arr.validate() == []
            ok = ok and key == (
                arr.counts(),
                sorted(v.point.dir.canonical() for v in arr.vertices),
            )
    # arrangements produced by the other modules stay valid
    g = build(octahedron())
    ok = ok and g.arrangement.validate() == []
    s = minkowski(g, build(tetrahedron()))
    ok = ok and s.arrangement.validate() == []
    # Tarjan agrees with reachability closure on every graph with n <= 8
    for n in range(2, 9):
        for _ in range(40):
            edges = frozenset(
                (i, j)
                for i in range(n)
                for j in range(n)
                if i != j and rng.random() < 0.35
            )
            a = sorted(map(sorted, tarjan_scc(n, edges)))
            b = sorted(map(sorted, reachability_components(n, edges)))
            ok = ok and a == b
    _report(10, "DCEL validation, sweep permutation-independence, Tarjan", ok, time.time() - t0, 30)
