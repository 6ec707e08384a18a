import json

import pytest

from geomink.cli import main
from geomink.extremal import max_complexity
from geomink.fileio import read_mesh, write_mesh, write_scene
from geomink.gaussian import Mesh
from geomink.kernel import Vec3
from geomink.gaussian import build
from geomink.minkowski import minkowski, stats
from geomink.shapes import (
    box,
    cube,
    octahedron,
    peg_in_hole_assembly,
    random_polytope,
    tetrahedron,
)


@pytest.fixture
def octa_path(tmp_path):
    p = tmp_path / "octa.eoff"
    write_mesh(octahedron(), str(p))
    return str(p)


def test_gmap_counts(octa_path, capsys):
    assert main(["gmap", octa_path, "--counts"]) == 0
    out = capsys.readouterr().out
    assert "V=10 HE=28 F=6" in out


def test_gmap_dump_roundtrip(octa_path, capsys):
    assert main(["gmap", octa_path, "--dump"]) == 0
    out = capsys.readouterr().out
    from geomink.arrangement import loads

    arr = loads(out)
    assert arr.counts() == (10, 28, 6)


def test_minkowski_writes_mesh(tmp_path, octa_path, capsys):
    out_path = tmp_path / "sum.eoff"
    assert main(["minkowski", octa_path, octa_path, "-o", str(out_path), "--stats"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["facets"] == 8
    assert "degenerate" in report  # identical summands coincide everywhere
    from geomink.fileio import read_mesh

    m = read_mesh(str(out_path))
    assert len(m.facets) == 8


def test_minkowski_prints_counts_without_stats(octa_path, capsys):
    assert main(["minkowski", octa_path, octa_path]) == 0
    assert capsys.readouterr().out == "facets=8 edges=12 vertices=6\n"


def test_minkowski_stats_count_crossings_of_a_generic_pair(tmp_path, capsys):
    a, b = random_polytope(8, 71), random_polytope(8, 72)
    paths = [str(tmp_path / "a.eoff"), str(tmp_path / "b.eoff")]
    write_mesh(a, paths[0])
    write_mesh(b, paths[1])
    assert main(["minkowski", *paths, "--stats"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "degenerate" not in report
    ga, gb = build(a), build(b)
    assert report["crossings"] == stats(minkowski(ga, gb), [ga, gb]).crossings


def test_collide(tmp_path, capsys):
    a = tmp_path / "a.eoff"
    write_mesh(box(0, 0, 0, 1, 1, 1), str(a))
    assert main(["collide", str(a), str(a), "--u", "0,0,0", "--w", "1,0,0"]) == 0
    assert "on_boundary" in capsys.readouterr().out
    assert main(["collide", str(a), str(a), "--u", "0,0,0", "--w", "5,0,0"]) == 0
    assert "collision=no" in capsys.readouterr().out


def test_hull(tmp_path, capsys):
    pts = tmp_path / "p.txt"
    pts.write_text("0 0 0\n2 0 0\n0 2 0\n0 0 2\n1/2 1/2 1/2\n")
    out = tmp_path / "hull.eoff"
    assert main(["hull", str(pts), "-o", str(out)]) == 0
    assert "vertices=4 facets=4" in capsys.readouterr().out


def test_maxgen_verify(capsys):
    assert main(["maxgen", "--facets", "4", "--facets", "4", "--verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["facetCount"] == 18 and report["bound"] == 18
    assert report["verdict"] == "PASS"


def test_maxgen_writes_one_witness(tmp_path, capsys):
    out = tmp_path / "w6.eoff"
    assert main(["maxgen", "--facets", "6", "-o", str(out)]) == 0
    assert capsys.readouterr().out == "facets=6 edges=12 vertices=8\n"
    assert len(read_mesh(str(out)).facets) == 6


def test_maxgen_verifies_three_summands(capsys):
    assert main(["maxgen", "--facets", "4", "--facets", "4", "--facets", "4", "--verify"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["facetCount"] <= report["bound"] == max_complexity([4, 4, 4])
    assert (report["verdict"] == "PASS") == (report["facetCount"] == report["bound"])


def test_partition_report(tmp_path, capsys):
    parts = peg_in_hole_assembly()
    scene = tmp_path / "peg.asm"
    write_scene([n for n, _ in parts], [p for _, p in parts], str(scene))
    rpt = tmp_path / "out.json"
    assert main(["partition", str(scene), "--mode", "first", "--report", str(rpt)]) == 0
    data = json.loads(rpt.read_text())
    assert data["interlocked"] is False
    assert data["solutions"][0]["subset"] == ["peg"]
    assert data["schema"] == 1


def test_bad_mesh_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.eoff"
    bad.write_text("EOFF\n4 4\n0 0 3/0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n3 0 3 1\n3 1 3 2\n3 0 2 3\n")
    assert main(["gmap", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("u, w", [("1/0,0,0", "0,0,0"), ("0,0,0", "0,1/0,0")])
def test_zero_denominator_in_a_vector_exits_2(tmp_path, capsys, u, w):
    a = tmp_path / "a.eoff"
    write_mesh(cube(1), str(a))
    with pytest.raises(SystemExit) as exc:
        main(["collide", str(a), str(a), "--u", u, "--w", w])
    assert exc.value.code == 2
    assert "/0,0" in capsys.readouterr().err


def test_missing_input_exits_2_and_names_path(tmp_path, capsys):
    missing = str(tmp_path / "missing.eoff")
    assert main(["gmap", missing]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and missing in err


def test_bad_count_exits_2_with_path_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.asm"
    bad.write_text("assembly 1\npart a x\n")
    assert main(["partition", str(bad)]) == 2
    assert f"{bad}:2:" in capsys.readouterr().err


def test_trailing_facet_line_exits_2_with_path_and_line(tmp_path, capsys):
    bad = tmp_path / "cube.eoff"
    write_mesh(box(0, 0, 0, 1, 1, 1), str(bad))
    where = len(bad.read_text().splitlines()) + 1
    bad.write_text(bad.read_text() + "3 0 1 2\n")
    assert main(["gmap", str(bad)]) == 2
    assert f"{bad}:{where}:" in capsys.readouterr().err


def _flipped_tetrahedron() -> Mesh:
    t = tetrahedron()
    return Mesh(t.vertices, [f[::-1] for f in t.facets])


def test_invalid_mesh_file_exits_2_with_path_and_line(tmp_path, capsys):
    bad = tmp_path / "flip.eoff"
    write_mesh(_flipped_tetrahedron(), str(bad))
    assert main(["gmap", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}:1: vertex ")


def test_invalid_scene_block_exits_2_with_path_and_line(tmp_path, capsys):
    # the second part holds a cube and a flipped tetrahedron, whose EOFF
    # header is on line 36: two part lines, two 16-line cube blocks and
    # the assembly line come before it
    scene = tmp_path / "scene.asm"
    write_scene(
        ["a", "b"],
        [[cube(1)], [cube(1).translated(Vec3(10, 0, 0)), _flipped_tetrahedron()]],
        str(scene),
    )
    assert scene.read_text().splitlines()[35] == "EOFF"
    assert main(["partition", str(scene)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {scene}:36: vertex ")


def test_coplanar_points_exit_2_and_name_the_file(tmp_path, capsys):
    pts = tmp_path / "flat.txt"
    pts.write_text("0 0 0\n2 0 0\n0 2 0\n2 2 0\n")
    assert main(["hull", str(pts)]) == 2
    assert capsys.readouterr().err == f"error: {pts}: points are coplanar\n"
