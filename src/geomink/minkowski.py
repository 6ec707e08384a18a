"""Exact Minkowski sums of convex polytopes by overlaying their Gaussian
maps.

The overlay identifies every pair of features with parallel supporting
planes; a face of the result is decorated with the sum of the primal
vertices of the two inducing faces, so the output is again a decorated
Gaussian map.  A vertex is tagged with its provenance case, named from
the types of its two source features: "vv", "ve", "ev", "vf", "fv", or
"xx" where two edges cross.
Edges carry no payload.  The facet counts come from each map's own
facet list, `GaussianMap.facet_vertices`.

A sum's facet count alone needs none of that assembly, nor the split
pieces: `sum_facet_count` counts the vertices of the overlay of any
number of maps off one cut of all their arcs, less the seam and pole
points that only split an arc.  The worst-case witnesses (`extremal`)
check the tight bound this way, for two summands and for more.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Sequence, Set, Tuple

from .arrangement import Face, Halfedge, Vertex, _cut_sets, _operand_features, overlay
from .gaussian import GaussianMap
from .kernel import scale_key
from .spherical import BoundaryClass, DirPoint


class DegenerateCoincidence(ValueError):
    """Overlay vertices coincide; crossing counts are only lower bounds."""


_VERTEX_TAGS = {
    (Vertex, Vertex): "vv", (Vertex, Halfedge): "ve", (Halfedge, Vertex): "ev",
    (Vertex, Face): "vf", (Face, Vertex): "fv", (Halfedge, Halfedge): "xx",
}


def _sum_payload(kind: str, a, b):
    """The overlay merge of a sum: a face gets the sum of its two source
    faces' primal vertices, a vertex its provenance tag, an edge None."""
    if kind == "face":
        return a.payload + b.payload
    if kind == "vertex":
        return _VERTEX_TAGS[type(a), type(b)]
    return None


def minkowski(g1: GaussianMap, g2: GaussianMap) -> GaussianMap:
    """Gaussian map of the Minkowski sum: overlay with primal vertices
    added face by face.  Vertices keep provenance tags; edges carry no
    payload."""
    return GaussianMap(overlay(g1.arrangement, g2.arrangement, _sum_payload))


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
    vertex-degree identity; raises DegenerateCoincidence, naming the tag,
    when overlay vertices coincide (the count is then only a lower
    bound): when a vertex tag is "vv", "ve" or "ev"."""
    for v in g_out.arrangement.vertices:
        if v.payload in ("vv", "ve", "ev"):
            raise DegenerateCoincidence(f"coincident overlay features at {v.point}: {v.payload}")
    V_out, HE_out, _ = g_out.counts()
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


def sum_facet_count(*gs: GaussianMap) -> int:
    """len(minkowski_many(gs).facet_vertices), without splitting or
    assembling, for any number of maps.

    The overlay's vertices are the maps' arc endpoints, the points where
    _cut_sets cuts their arcs, and their isolated points.  A vertex is a
    facet unless GaussianMap.facet_vertices would call it a seam or pole
    split (_is_split_artifact): an arc through a non-interior point p
    leaves p along +n (unless p is its target) and -n (unless p is its
    source), and two split pieces at p coincide exactly when they leave p
    the same way, so p is a split when exactly two opposite directions
    leave it."""
    tagged, iso_points = _operand_features(*(g.arrangement for g in gs))
    vertices = {p for p, _ in iso_points}
    leaving: Dict[DirPoint, Set[Tuple[int, int, int]]] = {}
    for (arc, _tag), cut in zip(tagged, _cut_sets(tagged, iso_points)):
        s, t = arc.source, arc.target
        vertices.update((s, t), cut)
        ends = [p for p in (s, t, *cut) if p.boundary_class is not BoundaryClass.INTERIOR]
        if ends:
            fwd = scale_key(arc.normal.x, arc.normal.y, arc.normal.z)
            back = (-fwd[0], -fwd[1], -fwd[2])
            for p in ends:
                dirs = leaving.setdefault(p, set())
                if p != t:
                    dirs.add(fwd)
                if p != s:
                    dirs.add(back)
    splits = sum(
        len(dirs) == 2 and {(-x, -y, -z) for x, y, z in dirs} == dirs
        for dirs in leaving.values()
    )
    return len(vertices) - splits
