"""Hypothesis profiles: `ci` derandomizes every property test, so a
failure seen in CI reproduces locally with HYPOTHESIS_PROFILE=ci.

Also the brute-force references that tests import from here."""

import os
from typing import List

from hypothesis import settings

from geomink.assembly import BlockSet
from geomink.gaussian import Mesh, _edge_table, cycle_normal
from geomink.kernel import cross3, dot3, integer_coords

settings.register_profile("ci", derandomize=True)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


def reachability_components(n: int, edges: BlockSet) -> List[List[int]]:
    """Brute-force strongly connected components via reachability closure."""
    reach = [[i == j for j in range(n)] for i in range(n)]
    for i, j in edges:
        reach[i][j] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                for j in range(n):
                    if reach[k][j]:
                        reach[i][j] = True
    comp_of = {}
    comps = []
    for i in range(n):
        if i in comp_of:
            continue
        comp = [j for j in range(n) if reach[i][j] and reach[j][i]]
        for j in comp:
            comp_of[j] = len(comps)
        comps.append(comp)
    return comps


def convex_by_scan(mesh: Mesh) -> bool:
    """Brute-force O(V F) convexity of a mesh whose topology and facets
    pass Mesh.validate's checks: every vertex lies on or below every
    facet plane, a vertex on a plane is on that facet, and no two
    neighbouring facets are coplanar."""
    pts = integer_coords(mesh.vertices)
    normals = []
    for fi, cyc in enumerate(mesh.facets):
        n = cycle_normal(fi, [pts[vi] for vi in cyc])
        b = dot3(n, pts[cyc[0]])
        for vi, p in enumerate(pts):
            s = dot3(n, p) - b
            if s > 0 or (s == 0 and vi not in cyc):
                return False
        normals.append(n)
    edge_facet = _edge_table(mesh)
    for (a, b), fi in edge_facet.items():
        ni, nj = normals[fi], normals[edge_facet[(b, a)]]
        if cross3(ni, nj) == (0, 0, 0) and dot3(ni, nj) > 0:
            return False
    return True
