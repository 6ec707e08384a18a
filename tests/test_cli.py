import json
import math
from fractions import Fraction

import pytest

from geomink.arrangement import dumps
from geomink import cli
from geomink.cli import main
from geomink.extremal import NonTermination, max_complexity
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
    assert out == dumps(build(read_mesh(octa_path)).arrangement)
    assert out.splitlines()[0] == "spherical-arrangement 10 14 6"


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


def test_minkowski_names_an_output_past_the_digit_limit(tmp_path, capsys, int_str_limit):
    """Each summand's coordinates have about 2 600 digits, under the
    4 300-digit int-to-str limit, and the sum's about 5 200: the write
    fails, exit 2 names the output path, and the old file stays."""
    t, c = tetrahedron(), cube(1)
    a = Mesh([v.scale(Fraction(1, 10**2600)) for v in t.vertices], t.facets)
    b = Mesh([v.scale(Fraction(1, 3**5450)) for v in c.vertices], c.facets)
    paths = [str(tmp_path / "a.eoff"), str(tmp_path / "b.eoff")]
    write_mesh(a, paths[0])
    write_mesh(b, paths[1])
    out = tmp_path / "sum.eoff"
    out.write_text("old\n")
    assert main(["minkowski", *paths, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: Exceeds the limit (4300 digits)"), err
    assert "Traceback" not in err
    assert out.read_text() == "old\n"


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


def test_maxgen_counts_a_pair_the_same_with_and_without_verify(capsys):
    """Two summands take one path, verify_bound; --verify only adds the
    verdict."""
    for m in range(4, 13):
        for n in range(4, 13):
            assert main(["maxgen", "--facets", str(m), "--facets", str(n)]) == 0
            plain = json.loads(capsys.readouterr().out)
            assert main(["maxgen", "--facets", str(m), "--facets", str(n), "--verify"]) == 0
            verified = json.loads(capsys.readouterr().out)
            assert "verdict" not in plain and verified.pop("verdict") == "PASS"
            assert plain == verified
            assert plain["facetCount"] == plain["bound"] == max_complexity([m, n])


@pytest.mark.parametrize(
    "argv, option",
    [
        (["--facets", "5", "--facets", "6", "-o"], "-o/--output"),
        (["--facets", "4", "--facets", "4", "--facets", "4", "-o"], "-o/--output"),
        (["--facets", "5", "--verify"], "--verify"),
    ],
)
def test_maxgen_option_a_mode_would_ignore_exits_2(tmp_path, capsys, argv, option):
    if argv[-1] == "-o":
        argv = argv + [str(tmp_path / "w.eoff")]
    assert main(["maxgen"] + argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {option} ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("error", [NonTermination("no valid angles found"), RuntimeError("a bug")])
def test_a_command_that_fails_inside_exits_1(monkeypatch, capsys, error):
    def fail(m, n):
        raise error

    monkeypatch.setattr(cli, "verify_bound", fail)
    assert main(["maxgen", "--facets", "5", "--facets", "5"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"internal error: {error}\n"


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


@pytest.mark.parametrize("mode", ["first", "all"])
def test_partition_reports_directions_with_400_digit_coordinates(tmp_path, capsys, mode):
    """directionApprox divides by the largest |coordinate|, so a direction
    whose ints would overflow a float still has finite approximations."""
    b = 10**400
    scene = tmp_path / "big.asm"
    parts = [[box(0, 0, 0, b, 3, 1)], [box(b + 1, 5, 2, 2 * b + 7, 9, b)]]
    write_scene(["a", "b"], parts, str(scene))
    assert main(["partition", str(scene), "--mode", mode]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["interlocked"] is False and data["solutions"]
    for s in data["solutions"]:
        approx = s["directionApprox"]
        assert all(math.isfinite(c) and abs(c) <= 1 for c in approx) and 1 in map(abs, approx)
        # a coordinate may round to zero next to a 400-digit one, but
        # no sign flips
        exact = [Fraction(c) for c in s["direction"]]
        assert not any(a > 0 > e or a < 0 < e for a, e in zip(approx, exact))


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
    bad.write_text("assembly 2\npart a x\n")
    assert main(["partition", str(bad)]) == 2
    assert f"{bad}:2:" in capsys.readouterr().err


@pytest.mark.parametrize("count", [0, 1])
def test_scene_with_fewer_than_two_parts_exits_2_naming_its_header(tmp_path, capsys, count):
    scene = tmp_path / "one.asm"
    write_scene(["a"] * count, [[cube(1)]] * count, str(scene))
    assert main(["partition", str(scene)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {scene}:1: an assembly needs at least two parts, got {count}\n"


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
