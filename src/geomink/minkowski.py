"""Exact Minkowski sums of convex polytopes by overlaying their Gaussian
maps.

The overlay identifies every pair of features with parallel supporting
planes; a face of the result is decorated with the sum of the primal
vertices of the two inducing faces, so the output is again a decorated
Gaussian map.  The facet counts come from each map's own facet list,
`GaussianMap.facet_vertices`.

A sum's facet count alone needs none of that assembly:
`sum_facet_count` counts the facets off the overlay's split step, as
the endpoints of the split pieces that are not seam or pole splits.
The worst-case witness tuner (`extremal`) checks the tight bound this
way.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Tuple

from .arrangement import OverlayCallbacks, _split_operands, overlay
from .gaussian import GaussianMap, _is_split
from .kernel import Vec3
from .spherical import DirPoint


class DegenerateCoincidence(ValueError):
    """Overlay vertices coincide; crossing counts are only lower bounds."""


_SUM_CALLBACKS = OverlayCallbacks(
    vertex_vertex=lambda a, b: ("vv", a, b),
    vertex_edge=lambda a, b: ("ve", a),
    edge_vertex=lambda a, b: ("ev", b),
    vertex_face=lambda a, b: ("vf", a),
    face_vertex=lambda a, b: ("fv", b),
    edge_edge=lambda a, b: ("xx",),
    edge_overlap=lambda a, b: None,
    edge_face=lambda a, b: None,
    face_edge=lambda a, b: None,
    face_face=lambda a, b: a + b,
)


def minkowski(g1: GaussianMap, g2: GaussianMap) -> GaussianMap:
    """Gaussian map of the Minkowski sum: overlay with primal vertices
    added face by face.  Vertices keep provenance tags; edges carry no
    payload."""
    arr = overlay(g1.arrangement, g2.arrangement, _SUM_CALLBACKS)
    return GaussianMap(arr)


def minkowski_many(gs: Sequence[GaussianMap]) -> GaussianMap:
    """Left-to-right fold of pairwise sums."""
    if len(gs) < 2:
        raise ValueError("need at least two summands")
    acc = gs[0]
    for g in gs[1:]:
        acc = minkowski(acc, g)
    return acc


class SumStats(NamedTuple):
    """Feature bookkeeping of a Minkowski-sum overlay."""

    summand_facets: Tuple[int, ...]
    sum_facets: int
    sum_edges: int
    sum_vertices: int
    crossings: int  # v_x: intersections of edges of the two maps

    def degree_identity_holds(self, input_edges: Sequence[int]) -> bool:
        return 2 * sum(input_edges) + 4 * self.crossings == 2 * self.sum_edges


def stats(g_out: GaussianMap, inputs: Sequence[GaussianMap]) -> SumStats:
    """Derive the crossing count v_x = V_out - sum(V_in) and check the
    vertex-degree identity; raises DegenerateCoincidence when overlay
    vertices coincide (the count is then only a lower bound)."""
    for v in g_out.arrangement.vertices:
        tag = v.payload
        if isinstance(tag, tuple) and tag and tag[0] in ("vv", "ve", "ev"):
            raise DegenerateCoincidence(
                f"coincident overlay features at {v.point}: {tag[0]}"
            )
    V_out, HE_out, F_out = g_out.counts()
    v_in = sum(g.counts()[0] for g in inputs)
    e_in = [g.counts()[1] // 2 for g in inputs]
    v_x = V_out - v_in
    st = SumStats(
        summand_facets=tuple(len(g.facet_vertices) for g in inputs),
        sum_facets=len(g_out.facet_vertices),
        sum_edges=HE_out // 2,
        sum_vertices=V_out,
        crossings=v_x,
    )
    if not st.degree_identity_holds(e_in):
        raise DegenerateCoincidence(
            f"degree identity failed: inputs e={e_in}, v_x={v_x}, "
            f"e_out={st.sum_edges}"
        )
    return st


def facet_count(g: GaussianMap) -> int:
    return len(g.facet_vertices)


def sum_facet_count(g1: GaussianMap, g2: GaussianMap) -> int:
    """facet_count(minkowski(g1, g2)), without assembling the sum.

    The overlay's vertices are the endpoints of the pieces its split
    step makes, plus the operands' isolated points; each vertex's arcs
    are the pieces that end at it.  The sum's facets are the vertices
    that _is_split, the rule of GaussianMap.facet_vertices, does not
    call seam or pole splits."""
    pieces, iso_points = _split_operands(g1.arrangement, g2.arrangement)
    normals: Dict[DirPoint, List[Vec3]] = {p: [] for p, _ in iso_points}
    for arc, _tags in pieces:
        normals.setdefault(arc.source, []).append(arc.normal)
        normals.setdefault(arc.target, []).append(arc.normal)
    return sum(not _is_split(p, ns) for p, ns in normals.items())
