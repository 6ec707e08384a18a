import json
import sys
from fractions import Fraction

import pytest

from geomink.fileio import (
    ParseError,
    format_mesh,
    format_scene,
    parse_mesh,
    parse_scene,
    read_mesh,
    read_points,
    report,
    write_mesh,
    write_scene,
)
from geomink.gaussian import InvalidMesh, Mesh
from geomink.kernel import Vec3
from geomink.shapes import cube, octahedron, split_star_assembly, tetrahedron


def test_roundtrip_is_bit_exact(tmp_path):
    for mesh in (tetrahedron(), cube(), octahedron()):
        p = tmp_path / "m.eoff"
        write_mesh(mesh, str(p))
        text = p.read_text()
        again = read_mesh(str(p))
        write_mesh(again, str(p))
        assert p.read_text() == text


def test_rational_coordinates_roundtrip(tmp_path):
    from fractions import Fraction

    m = cube()
    m.vertices[0] = Vec3(Fraction(-7, 3), Fraction(1, 9), Fraction(2, 5))
    # not a valid cube anymore; only exercise formatting
    text = format_mesh(m)
    assert "-7/3" in text and "1/9" in text


def test_malformed_rational_reports_line():
    bad = "EOFF\n4 4\n0 0 3/0\n1 0 0\n0 1 0\n0 0 1\n3 0 1 2\n3 0 3 1\n3 1 3 2\n3 0 2 3\n"
    with pytest.raises(ParseError) as exc:
        parse_mesh(bad, "bad.eoff")
    assert "bad.eoff:3" in str(exc.value)


def test_nonconvex_mesh_rejected():
    # flipped orientation: every facet sees the others outside
    t = tetrahedron()
    lines = format_mesh(t).splitlines()
    head, counts = lines[0], lines[1]
    nv = len(t.vertices)
    verts = lines[2 : 2 + nv]
    facets = []
    for ln in lines[2 + nv :]:
        toks = ln.split()
        facets.append(" ".join([toks[0]] + toks[1:][::-1]))
    bad = "\n".join([head, counts] + verts + facets)
    with pytest.raises(InvalidMesh) as exc:
        parse_mesh(bad, "flip.eoff")
    assert "facet" in str(exc.value)


def test_scene_roundtrip(tmp_path):
    parts = split_star_assembly()
    names = [n for n, _ in parts]
    meshes = [p for _, p in parts]
    path = tmp_path / "scene.asm"
    write_scene(names, meshes, str(path))
    names2, meshes2 = parse_scene(path.read_text(), str(path))
    assert names2 == names
    assert [len(p) for p in meshes2] == [len(p) for p in meshes]
    write_scene(names2, meshes2, str(path))
    text = path.read_text()
    write_scene(*parse_scene(text), str(path))
    assert path.read_text() == text


def test_point_file(tmp_path):
    p = tmp_path / "pts.txt"
    p.write_text("0 0 0\n1 0 0\n0 1 0\n0 0 1\n1/2 1/2 1/2\n")
    pts = read_points(str(p))
    assert len(pts) == 5


def test_report_schema():
    data = json.loads(report({"x": 1}))
    assert data["schema"] == 1 and data["x"] == 1


@pytest.mark.parametrize(
    "parse, text, where",
    [
        (parse_mesh, "EOFF\n4 x\n", "in.txt:2"),
        (parse_scene, "assembly x\n", "in.txt:1"),
        (parse_scene, "assembly 1\n# one part\npart a x\n", "in.txt:3"),
        (parse_mesh, "EOFF\n-1 4\n", "in.txt:2"),
        (parse_scene, "assembly -2\n", "in.txt:1"),
        (parse_scene, "assembly 2\npart a 0\npart b 0\n", "in.txt:2: part 'a' has no sub-parts"),
    ],
)
def test_bad_count_reports_line(parse, text, where):
    with pytest.raises(ParseError) as exc:
        parse(text, "in.txt")
    assert where in str(exc.value)


@pytest.mark.parametrize("extra", ["3 0 1 2", "garbage here"])
def test_mesh_with_trailing_lines_is_rejected(extra):
    text = format_mesh(cube())
    where = len(text.splitlines()) + 1
    with pytest.raises(ParseError) as exc:
        parse_mesh(text + extra + "\n", "cube.eoff")
    assert f"cube.eoff:{where}:" in str(exc.value)


def test_scene_with_an_undeclared_part_is_rejected():
    parts = split_star_assembly()[:2]
    text = format_scene([n for n, _ in parts], [p for _, p in parts])
    where = len(text.splitlines()) + 1
    with pytest.raises(ParseError) as exc:
        parse_scene(text + "part c 1\n", "two.asm")
    assert f"two.asm:{where}:" in str(exc.value)


TETRA_VERTICES = "EOFF\n4 4\n0 0 0\n1 0 0\n0 1 0\n0 0 1\n"


@pytest.mark.parametrize(
    "parse, text, line, message",
    [
        (parse_mesh, "", 0, "empty mesh block"),
        (parse_mesh, "# a comment\nOFF\n", 2, "expected EOFF header, got OFF"),
        (parse_mesh, "EOFF\n4\n", 2, "expected '<vertices> <facets>' counts line"),
        (parse_mesh, "EOFF\n", 1, "expected '<vertices> <facets>' counts line"),
        (parse_mesh, "EOFF\n4 4\n0 0 0\n1 0\n", 4, "expected three rationals"),
        (parse_mesh, TETRA_VERTICES + "3 0 2 1\n", 7, "missing facet line"),
        (parse_mesh, TETRA_VERTICES + "3 0 x 1\n", 7, "bad facet line"),
        (parse_mesh, TETRA_VERTICES + "4 0 2 1\n", 7, "facet lists 3 indices, header says 4"),
        (parse_mesh, TETRA_VERTICES + "3 0 2 4\n", 7, "facet index out of range"),
        (parse_scene, "", 0, "expected 'assembly <count>' header"),
        (parse_scene, "scene 1\n", 1, "expected 'assembly <count>' header"),
        (parse_scene, "assembly 1\npart a\n", 2, "expected 'part <name> <subparts>'"),
        (parse_scene, "assembly 1\nparts a 1\n", 2, "expected 'part <name> <subparts>'"),
    ],
)
def test_parse_errors_name_their_line(parse, text, line, message):
    with pytest.raises(ParseError) as exc:
        parse(text, "in.txt")
    assert exc.value.line == line
    assert str(exc.value).startswith(f"in.txt:{line}: {message}")


def test_bad_point_line_names_its_line(tmp_path):
    p = tmp_path / "pts.txt"
    p.write_text("0 0 0\n1 0 0\n0 1\n")
    with pytest.raises(ParseError) as exc:
        read_points(str(p))
    assert str(exc.value) == f"{p}:3: expected three rationals per point"


@pytest.fixture
def int_str_limit():
    """Python's default limit on the digits of an int turned into a str."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_a_failed_write_keeps_the_old_file(tmp_path, int_str_limit):
    """A 5 001-digit denominator cannot be formatted; the file at the
    path keeps its contents."""
    t = tetrahedron()
    tiny = Mesh([v.scale(Fraction(1, 10**5000)) for v in t.vertices], t.facets)
    p = tmp_path / "old.eoff"
    write_mesh(t, str(p))
    before = p.read_text()
    with pytest.raises(ValueError):
        write_mesh(tiny, str(p))
    assert p.read_text() == before
    with pytest.raises(ValueError):
        write_scene(["a", "b"], [[t], [tiny]], str(p))
    assert p.read_text() == before
