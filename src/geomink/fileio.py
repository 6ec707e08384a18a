"""Exact text file formats: EOFF meshes, assembly scenes, JSON reports.

Every number in these files is an exact rational literal "p/q" (or a
bare integer); floating point appears only in explicitly labeled
"approx" report fields derived from the exact values.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import List

from .gaussian import InvalidMesh, Mesh
from .kernel import Vec3, format_rat, rat


class ParseError(ValueError):
    def __init__(self, path: str, line: int, msg: str):
        super().__init__(f"{path}:{line}: {msg}")
        self.path = path
        self.line = line


def _tokens(text: str):
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def format_mesh(mesh: Mesh) -> str:
    lines = ["EOFF", f"{len(mesh.vertices)} {len(mesh.facets)}"]
    for v in mesh.vertices:
        lines.append(f"{format_rat(v.x)} {format_rat(v.y)} {format_rat(v.z)}")
    for f in mesh.facets:
        lines.append(" ".join([str(len(f))] + [str(i) for i in f]))
    return "\n".join(lines) + "\n"


def _parse_count(tok: str, path: str, line: int) -> int:
    try:
        value = int(tok)
    except ValueError:
        value = -1
    if value < 0:
        raise ParseError(path, line, f"expected a non-negative count, got {tok!r}")
    return value


def _parse_rat(tok: str, path: str, line: int) -> Fraction:
    try:
        value = rat(tok)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(path, line, f"bad rational {tok!r}: {e}") from None
    return value


def parse_mesh_tokens(tok_iter, path: str) -> Mesh:
    try:
        line, head = next(tok_iter)
    except StopIteration:
        raise ParseError(path, 0, "empty mesh block") from None
    if head != ["EOFF"]:
        raise ParseError(path, line, f"expected EOFF header, got {' '.join(head)}")
    header = line
    line, counts = next(tok_iter, (line, None))
    if counts is None or len(counts) != 2:
        raise ParseError(path, line, "expected '<vertices> <facets>' counts line")
    nv, nf = (_parse_count(t, path, line) for t in counts)
    verts: List[Vec3] = []
    for _ in range(nv):
        line, toks = next(tok_iter, (line, None))
        if toks is None or len(toks) != 3:
            raise ParseError(path, line, "expected three rationals")
        verts.append(Vec3(*(_parse_rat(t, path, line) for t in toks)))
    facets: List[List[int]] = []
    for _ in range(nf):
        line, toks = next(tok_iter, (line, None))
        if toks is None:
            raise ParseError(path, line, "missing facet line")
        try:
            k = int(toks[0])
            idx = [int(t) for t in toks[1:]]
        except ValueError as e:
            raise ParseError(path, line, f"bad facet line: {e}") from None
        if len(idx) != k:
            raise ParseError(path, line, f"facet lists {len(idx)} indices, header says {k}")
        if any(i < 0 or i >= nv for i in idx):
            raise ParseError(path, line, "facet index out of range")
        facets.append(idx)
    mesh = Mesh(verts, facets)
    try:
        mesh.validate()
    except InvalidMesh as e:
        raise InvalidMesh(f"{path}:{header}: {e}") from None
    return mesh


def _expect_end(tok_iter, path: str) -> None:
    """Reject any content after the declared counts."""
    line, toks = next(tok_iter, (0, None))
    if toks is not None:
        raise ParseError(path, line, f"extra line after the declared counts: {' '.join(toks)}")


def parse_mesh(text: str, path: str = "<string>") -> Mesh:
    tok_iter = _tokens(text)
    mesh = parse_mesh_tokens(tok_iter, path)
    _expect_end(tok_iter, path)
    return mesh


def read_mesh(path: str) -> Mesh:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_mesh(fh.read(), path)


def write_mesh(mesh: Mesh, path: str) -> None:
    text = format_mesh(mesh)  # before the open: a failed format keeps the file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- assembly scenes ------------------------------------------------------------


def format_scene(names: List[str], parts: List[List[Mesh]]) -> str:
    lines = [f"assembly {len(parts)}"]
    for name, subs in zip(names, parts):
        lines.append(f"part {name} {len(subs)}")
        for m in subs:
            lines.append(format_mesh(m).rstrip("\n"))
    return "\n".join(lines) + "\n"


def parse_scene(text: str, path: str = "<string>"):
    tok_iter = _tokens(text)
    line, head = next(tok_iter, (0, None))
    if head is None or head[0] != "assembly" or len(head) != 2:
        raise ParseError(path, line, "expected 'assembly <count>' header")
    n = _parse_count(head[1], path, line)
    names: List[str] = []
    parts: List[List[Mesh]] = []
    for _ in range(n):
        line, toks = next(tok_iter, (line, None))
        if toks is None or toks[0] != "part" or len(toks) != 3:
            raise ParseError(path, line, "expected 'part <name> <subparts>'")
        names.append(toks[1])
        count = _parse_count(toks[2], path, line)
        if count == 0:
            raise ParseError(path, line, f"part {toks[1]!r} has no sub-parts")
        parts.append([parse_mesh_tokens(tok_iter, path) for _ in range(count)])
    _expect_end(tok_iter, path)
    return names, parts


def read_scene(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scene(fh.read(), path)


def write_scene(names: List[str], parts: List[List[Mesh]], path: str) -> None:
    text = format_scene(names, parts)  # before the open, as in write_mesh
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# -- point clouds ----------------------------------------------------------------


def read_points(path: str) -> List[Vec3]:
    pts = []
    with open(path, "r", encoding="utf-8") as fh:
        for line, toks in _tokens(fh.read()):
            if len(toks) != 3:
                raise ParseError(path, line, "expected three rationals per point")
            pts.append(Vec3(*(_parse_rat(t, path, line) for t in toks)))
    return pts


# -- JSON reports -----------------------------------------------------------------


def rational_triple(v: Vec3):
    return [format_rat(v.x), format_rat(v.y), format_rat(v.z)]


def approx_triple(v: Vec3):
    return [float(v.x), float(v.y), float(v.z)]


def report(payload: dict) -> str:
    """Versioned machine-readable report; any 'approx*' field is derived
    from the exact values next to it."""
    return json.dumps({"schema": 1, **payload}, indent=2) + "\n"
