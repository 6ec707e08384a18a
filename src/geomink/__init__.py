"""Exact spherical-geometry toolkit: geodesic-arc arrangements on the
unit sphere, Gaussian maps of convex polytopes, Minkowski sums,
proximity queries, worst-case sum generators, and assembly partitioning
by infinite translations."""

from .arrangement import SphereArrangement, overlay, sweep_build
from .assembly import Assembly, PartitionResult, partition
from .extremal import max_complexity, verify_bound, witness_polytope
from .gaussian import GaussianMap, Mesh, build, primal_mesh, reflect
from .hull import convex_hull_3, meshes_equivalent, pairwise_sums
from .kernel import Rational, Sign, Vec3, cross, dot, dot_sign, side_of_origin_plane
from .minkowski import minkowski, minkowski_many
from .proximity import classify_point, collide, directional_penetration, separation_sq
from .spherical import DirPoint, GeodesicArc, classify, intersect, make_arc

__all__ = [
    "Assembly",
    "DirPoint",
    "GaussianMap",
    "GeodesicArc",
    "Mesh",
    "PartitionResult",
    "Rational",
    "Sign",
    "SphereArrangement",
    "Vec3",
    "build",
    "classify",
    "classify_point",
    "collide",
    "convex_hull_3",
    "cross",
    "directional_penetration",
    "dot",
    "dot_sign",
    "intersect",
    "make_arc",
    "max_complexity",
    "meshes_equivalent",
    "minkowski",
    "minkowski_many",
    "overlay",
    "pairwise_sums",
    "partition",
    "primal_mesh",
    "reflect",
    "separation_sq",
    "side_of_origin_plane",
    "sweep_build",
    "verify_bound",
    "witness_polytope",
]

__version__ = "0.1.0"
