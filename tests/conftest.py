"""Hypothesis profiles: `ci` derandomizes every property test, so a
failure seen in CI reproduces locally with HYPOTHESIS_PROFILE=ci.

Also the brute-force references that tests import from here."""

import os
from typing import List

from hypothesis import settings

from geomink.assembly import BlockSet

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
