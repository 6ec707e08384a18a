"""A dropped arrangement frees its DCEL by reference counting alone.

Each case builds and drops arrangements with the cyclic collector off;
a collection afterwards, with every unreachable object saved, must find
no arrangement feature and no arrangement.  The working-set tests check
that the pipelines drop their intermediate sums as soon as they are
used: weak references count the sums alive at each call of their
consumer; the witness tuner makes no sum at all.  The module needs only the standard library, so it also runs
without pytest:

    PYTHONPATH=src python tests/test_lifetime.py
"""

import gc
import sys
import weakref
from collections import Counter
from fractions import Fraction
from typing import Tuple

from geomink import assembly
from geomink.arrangement import (
    Face, Halfedge, SphereArrangement, Vertex, dumps, loads, overlay,
    sweep_build,
)
from geomink.assembly import (
    Assembly, build_motion_space, cleanup_region, partition, project_polytope,
    union_regions,
)
from geomink.extremal import WitnessParams, tune_params, verify_bound
from geomink.gaussian import build, primal_mesh, reflect
from geomink.kernel import Vec3
from geomink.minkowski import minkowski
from geomink.shapes import (
    box, cube, octahedron, peg_in_hole_assembly, random_polytope, split_star_assembly,
)
from geomink.spherical import arc_between, make_arc

DCEL_TYPES = (Vertex, Halfedge, Face, SphereArrangement)


def cyclic_garbage(run) -> Counter:
    """The DCEL objects, by type name, that only the cyclic collector
    frees after run() returns."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = Counter(type(o).__name__ for o in gc.garbage if isinstance(o, DCEL_TYPES))
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    return found


def _build_and_reflect():
    reflect(build(octahedron()))  # seam and pole splits
    build(random_polytope(10, 3))


def _minkowski_and_primal_mesh():
    primal_mesh(minkowski(build(cube(1)), build(random_polytope(8, 5))))


def _projections():
    project_polytope(build(random_polytope(8, 31).translated(Vec3(12, 0, 0))))  # hull
    project_polytope(build(box(-1, -1, -2, 1, 1, 0)))  # hemisphere
    project_polytope(build(box(0, -1, -2, 2, 1, 0)))  # lune
    project_polytope(build(box(0, 0, 0, 2, 2, 2)))  # cone


def _union_and_cleanup():
    regions = [project_polytope(build(box(-2, -2, -3, 2, 2, 0))),
               project_polytope(build(box(-2, -2, 0, 2, 2, 3))),
               project_polytope(build(cube(1).translated(Vec3(5, 1, 0))))]
    cleanup_region(union_regions(regions))


def _reflect_region_and_motion_space():
    q = union_regions([project_polytope(build(box(1, -1, -1, 3, 1, 1))),
                       project_polytope(build(box(-1, 2, -1, 1, 4, 1)))])
    build_motion_space(2, {(0, 1): q})


def _sweep_build_and_loads():
    arcs = [arc_between(Vec3(1, 0, 0), Vec3(0, 1, 1)), arc_between(Vec3(0, 1, 0), Vec3(1, 0, 1)),
            arc_between(Vec3(0, 0, 1), Vec3(1, 1, 0)), arc_between(Vec3(-1, 0, 0), Vec3(0, -1, 0))]
    loads(dumps(sweep_build(arcs)))


def _insert_with_face_split():
    arr = SphereArrangement()
    a, b, c = Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)
    for p, q in ((a, b), (b, c), (c, a)):
        for piece in make_arc(p, q):
            arr.insert_disjoint_arc(piece)
    assert len(arr.faces) == 2


def _partition_and_verify_bound():
    named = peg_in_hole_assembly()
    partition(Assembly([n for n, _ in named], [p for _, p in named]))
    verify_bound(4, 4)


CASES = [
    _build_and_reflect,
    _minkowski_and_primal_mesh,
    _projections,
    _union_and_cleanup,
    _reflect_region_and_motion_space,
    _sweep_build_and_loads,
    _insert_with_face_split,
    _partition_and_verify_bound,
]


def test_dropped_arrangements_leave_no_cyclic_garbage():
    for case in CASES:
        assert cyclic_garbage(case) == Counter(), case.__name__


def test_kept_feature_keeps_its_values():
    arr = sweep_build([arc_between(Vec3(1, 0, 0), Vec3(0, 1, 0))])
    h = arr.halfedges[0]
    h.payload = "kept"
    arc, v = h.arc, h.source
    del arr
    assert (h.arc, h.payload, h.source) == (arc, "kept", v)
    assert h.twin is None and h.face is None and v.out == []


def most_alive(module, maker: str, user: str, run) -> Tuple[int, int]:
    """The most results of module.<maker> alive at once when module.<user>
    is entered, while run() runs with the cyclic collector off, and the
    number of results made."""
    saved = {name: getattr(module, name) for name in (maker, user)}
    made = []
    most = 0

    def make(*args, **kwargs):
        out = saved[maker](*args, **kwargs)
        made.append(weakref.ref(out))
        return out

    def use(*args, **kwargs):
        nonlocal most
        most = max(most, sum(r() is not None for r in made))
        return consume(*args, **kwargs)

    enabled = gc.isenabled()
    gc.disable()
    try:
        setattr(module, maker, make)
        consume = getattr(module, user)  # the maker's wrapper when maker is user
        setattr(module, user, use)
        run()
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)
        if enabled:
            gc.enable()
    return most, len(made)


def calls_into(functions, run) -> int:
    """How many calls run() makes into the given functions, through
    whatever names they are bound to."""
    codes = {f.__code__ for f in functions}
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code in codes:
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def test_partition_holds_one_part_pair_of_sums():
    # Split Star's 15 part pairs (i < j) have 9 sub-part pairs each; a
    # sum is made only when no kept projection of its part pair holds
    # the pair's difference body, and dropped once its cone is read
    named = split_star_assembly()
    a = Assembly([n for n, _ in named], [p for _, p in named])
    most, made = most_alive(assembly, "minkowski", "_projection_cone", lambda: partition(a))
    assert made == 33
    assert most <= 1


def test_witness_tuner_drops_rejected_sums():
    # the tuner counts each candidate's facets off the overlay split, so
    # verify_bound enters no minkowski, not even for the candidates it
    # rejects
    made = calls_into((minkowski, overlay), lambda: verify_bound(11, 11))
    assert made == 0
    # the angles tune_params finds, as the tuner found them when it still
    # assembled every candidate sum; (11, 11) starts at alpha_t = 2**-17
    # and rejects that candidate
    for m, n, alpha_m, alpha_n in ((4, 4, 32, 32), (5, 7, 32, 512), (11, 11, 2**20, 2**20)):
        assert tune_params(m, n) == (
            WitnessParams(m, Fraction(1, alpha_m), Fraction(1, 10 * m), Fraction(1, 16)),
            WitnessParams(n, Fraction(1, alpha_n), Fraction(1, 10 * n), Fraction(1, 16)),
        )


if __name__ == "__main__":
    import sys

    left = {case.__name__: cyclic_garbage(case) for case in CASES}
    for name, found in left.items():
        print(f"{name}: {dict(found) or 'none'}")
    test_kept_feature_keeps_its_values()
    test_partition_holds_one_part_pair_of_sums()
    test_witness_tuner_drops_rejected_sums()
    sys.exit(1 if any(left.values()) else 0)
