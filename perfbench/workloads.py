"""The four paper workloads, each a closed loop with one caller.

A workload makes its inputs from the seed in ``setup`` (the library sees
only the generated meshes, points and frames), runs one *pass* of timed
library calls in ``run_pass``, and checks every output of the pass for
exactness in ``check``, outside the timed regions.  Split Star, the
hollow box and the (11,11) witness are fixed inputs from the paper: the
seed does not change them.

``smoke`` shrinks every workload to a few seconds, for the benchmark's own
tests: 2 sum pairs, the (4,4) witness, 20 frames on 10-point polytopes,
and the peg-in-hole scene in place of Split Star.
"""

from __future__ import annotations

import random
import sys
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from statistics import median, quantiles
from time import perf_counter
from typing import Dict, List

from geomink.assembly import ALL, FIRST, Assembly, partition
from geomink.extremal import verify_bound
from geomink.gaussian import build, primal_mesh, reflect
from geomink.hull import convex_hull_3, meshes_equivalent, pairwise_sums
from geomink.kernel import Vec3, dot
from geomink.minkowski import minkowski
from geomink.proximity import (
    INSIDE,
    ON_BOUNDARY,
    OUTSIDE,
    classify_point,
    directional_penetration,
    separation_sq,
)
from geomink.shapes import (
    hollow_box_assembly,
    peg_in_hole_assembly,
    random_polytope,
    split_star_assembly,
)


class Checks:
    """Exactness checks made outside the timed regions."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 10:
                print(f"check failed: {what}", file=sys.stderr)


class Clock:
    """Timed regions of the passes; the tracer, when given, records only
    inside them."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.passes: List[Dict[str, float]] = []
        self.items: List[List[float]] = []  # per pass, each timed region in order
        self._current: Dict[str, float] = defaultdict(float)
        self._items: List[float] = []

    @contextmanager
    def timed(self, region: str):
        if self.tracer is not None:
            self.tracer.enabled = True
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            if self.tracer is not None:
                self.tracer.enabled = False
            self.samples[region].append(dt)
            self._current[region] += dt
            self._items.append(dt)

    @contextmanager
    def traced(self):
        """Trace an untimed library call (the oracle comparison)."""
        if self.tracer is not None:
            self.tracer.enabled = True
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.enabled = False

    def end_pass(self) -> None:
        self.passes.append(dict(self._current))
        self.items.append(self._items)
        self._current = defaultdict(float)
        self._items = []

    def best_pass(self) -> float:
        """A pass's timed seconds with each timed region at its fastest over
        the passes.  Every pass times the same regions in the same order."""
        return sum(min(times) for times in zip(*self.items))

    def pass_median(self, region: str) -> float:
        return median(p.get(region, 0.0) for p in self.passes)


def _p90(xs: List[float]) -> float:
    return quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


class Workload:
    def check_setup(self, inputs, checks: Checks) -> None:
        """Checks on the set-up itself, made once per run."""


# -- partition ------------------------------------------------------------------

# Criterion 8: each Split Star solution direction, as a sign pattern, and
# the names of the parts that move along it.
SPLIT_STAR_TABLE = {
    (-1, -1, -1): {"G", "B", "T"},
    (-1, -1, 1): {"R", "B", "T"},
    (-1, 1, -1): {"G", "P", "T"},
    (-1, 1, 1): {"R", "P", "T"},
    (1, -1, -1): {"G", "B", "Y"},
    (1, -1, 1): {"R", "B", "Y"},
    (1, 1, -1): {"G", "P", "Y"},
    (1, 1, 1): {"R", "P", "Y"},
}


def _assembly(named) -> Assembly:
    return Assembly([n for n, _ in named], [p for _, p in named])


def _sign_pattern(d: Vec3) -> tuple:
    m = max(abs(c) for c in (d.x, d.y, d.z))
    return tuple(c / m for c in (d.x, d.y, d.z))


class Partition(Workload):
    """Split Star (mode ALL), then the hollow box (mode FIRST)."""

    def __init__(self, smoke: bool):
        self.smoke = smoke

    def setup(self, seed: int):
        first = peg_in_hole_assembly() if self.smoke else split_star_assembly()
        return _assembly(first), _assembly(hollow_box_assembly())

    def run_pass(self, inputs, clock: Clock):
        star, hollow = inputs
        with clock.timed("split_star"):
            r_star = partition(star, ALL)
        with clock.timed("hollow_box"):
            r_hollow = partition(hollow, FIRST)
        return r_star, r_hollow

    def check(self, inputs, outputs, checks: Checks, clock: Clock) -> None:
        star, _ = inputs
        r_star, r_hollow = outputs
        checks.expect(r_hollow.interlocked and not r_hollow.solutions,
                      "hollow box must be interlocked")
        if self.smoke:
            # The peg leaves its channel straight up, or the block straight down.
            up = {"peg": (0, 0, 1), "block": (0, 0, -1)}
            ok = not r_star.interlocked and bool(r_star.solutions)
            for sol in r_star.solutions:
                names = {star.names[i] for i in sol.subset}
                ok = ok and len(names) == 1 and _sign_pattern(sol.direction) == up[names.pop()]
            checks.expect(ok, "peg-in-hole solutions")
            return
        seen = {}
        ok = not r_star.interlocked and len(r_star.solutions) == 8
        for sol in r_star.solutions:
            key = _sign_pattern(sol.direction)
            ok = ok and sol.cell_kind == "vertex" and all(abs(c) == 1 for c in key)
            seen[tuple(int(c) for c in key)] = {star.names[i] for i in sol.subset}
        checks.expect(ok and seen == SPLIT_STAR_TABLE,
                      "Split Star must give the 8 vertex solutions of criterion 8")

    def detail(self, clock: Clock):
        return [
            ("split_star_s", clock.pass_median("split_star"), "s", len(clock.passes)),
            ("hollow_box_s", clock.pass_median("hollow_box"), "s", len(clock.passes)),
        ]


# -- sum-oracle ---------------------------------------------------------------------


class SumOracle(Workload):
    """Criterion 2's family: the Gaussian-map sum of random_polytope pairs
    against the hull oracle."""

    def __init__(self, smoke: bool):
        self.pairs = 2 if smoke else 25

    def setup(self, seed: int):
        # Criterion 2's sizes (9 to 12 and 8 to 12 points), with the
        # polytope seeds drawn from the workload seed.
        rng = random.Random(seed)
        return [
            (random_polytope(9 + i % 4, rng.randrange(1 << 30)),
             random_polytope(8 + i % 5, rng.randrange(1 << 30)))
            for i in range(self.pairs)
        ]

    def run_pass(self, inputs, clock: Clock):
        out = []
        for m1, m2 in inputs:
            with clock.timed("sum"):
                got = primal_mesh(minkowski(build(m1), build(m2)))
            with clock.timed("hull"):
                want = convex_hull_3(pairwise_sums(m1, m2))
            out.append((got, want))
        return out

    def check(self, inputs, outputs, checks: Checks, clock: Clock) -> None:
        for i, (got, want) in enumerate(outputs):
            with clock.traced():
                same = meshes_equivalent(got, want)
            checks.expect(same, f"pair {i}: sum differs from the hull oracle")

    def detail(self, clock: Clock):
        n = len(clock.passes)
        return [
            ("sums_per_s", self.pairs / clock.pass_median("sum"), "pairs/s", n),
            ("hull_oracle_s", clock.pass_median("hull"), "s", n),
        ]


# -- witness ------------------------------------------------------------------------


class Witness(Workload):
    """The (11,11) tight-bound witness, tuning loop included."""

    def __init__(self, smoke: bool):
        self.m = 4 if smoke else 11

    def setup(self, seed: int):
        return self.m

    def run_pass(self, m, clock: Clock):
        with clock.timed("witness"):
            return verify_bound(m, m)

    def check(self, m, report, checks: Checks, clock: Clock) -> None:
        bound = 4 * m * m - 18 * m + 26
        checks.expect(report.bound == bound and report.facets == bound,
                      f"({m},{m}) witness: {report.facets} facets, bound {bound}")

    def detail(self, clock: Clock):
        return [("witness_s", clock.pass_median("witness"), "s", len(clock.passes))]


# -- collision-trace ------------------------------------------------------------------


class CollisionTrace(Workload):
    """A coherent placement path against M = P (+) (-Q).

    The path is a chain of straight segments through an interior point
    of M; each runs from outside, across M and out again, and stops
    exactly on the two boundary crossings, so some frames are
    ON_BOUNDARY.  The classification hint is carried from frame to frame.
    Every INSIDE frame is followed by two penetration queries, along the
    path and back along it.  separation_sq rebuilds the primal mesh on
    each call and costs about as much as 40 classifications, so it runs
    on every SEPARATION_EVERY-th OUTSIDE frame only: each of the three
    queries then takes a sizeable share of the pass.
    """

    STEPS = 10  # evenly spaced frames per segment, besides the two crossings
    SEPARATION_EVERY = 24
    CANDIDATES = 6
    TARGET_FACETS = 49  # the most common count for two 16-point polytopes
    ZERO_CHECK_EVERY = 8  # of the other frames, checked for zero separation

    def __init__(self, smoke: bool):
        self.frames = 20 if smoke else 400
        self.points = 10 if smoke else 16
        self.verified = None

    def setup(self, seed: int):
        rng = random.Random(seed)
        # Between seeds, M's facet count alone ranges from about 40 to 60.
        # Of CANDIDATES seeded pairs, the one whose M has the facet count
        # nearest TARGET_FACETS is kept, so that every seed times about
        # the same amount of work, and every set-up does the same work.
        # The path needs M's facet planes; they come from the hull
        # oracle, which the checks use too.
        candidates = []
        for _ in range(self.CANDIDATES):
            p_mesh = random_polytope(self.points, rng.randrange(1 << 30))
            q_mesh = random_polytope(self.points, rng.randrange(1 << 30))
            oracle = convex_hull_3(pairwise_sums(p_mesh, q_mesh.negated()))
            candidates.append((abs(len(oracle.facets) - self.TARGET_FACETS),
                               len(candidates), p_mesh, q_mesh, oracle))
        _, _, p_mesh, q_mesh, oracle = min(candidates, key=lambda c: c[:2])
        M = minkowski(build(p_mesh), reflect(build(q_mesh)))
        planes = [(oracle.facet_normal(i), oracle.facet_offset(i))
                  for i in range(len(oracle.facets))]
        c = Vec3(0, 0, 0)
        for v in oracle.vertices:
            c = c + v
        c = c.scale(Fraction(1, len(oracle.vertices)))
        path = []
        while len(path) < self.frames:
            d = Vec3(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
            if d.is_zero():
                continue
            t_out = min((b - dot(n, c)) / dot(n, d) for n, b in planes if dot(n, d) > 0)
            t_in = max((b - dot(n, c)) / dot(n, d) for n, b in planes if dot(n, d) < 0)
            lo, hi = 2 * t_in, 2 * t_out
            ts = {lo + (hi - lo) * Fraction(k, self.STEPS) for k in range(self.STEPS + 1)}
            path.extend((c + d.scale(t), d) for t in sorted(ts | {t_in, t_out}))
        path = path[: self.frames]
        outside = [k for k, (s, _) in enumerate(path)
                   if self._halfspace_class(planes, s) == OUTSIDE]
        separated = set(outside[:: self.SEPARATION_EVERY])
        others = sorted(set(range(len(path))) - set(outside))
        zero_checked = others[:: self.ZERO_CHECK_EVERY]
        classify_point(M, path[0][0])  # builds M's lazy facet index
        return M, oracle, planes, path, separated, zero_checked

    @staticmethod
    def _halfspace_class(planes, s: Vec3) -> str:
        side = max(dot(n, s) - b for n, b in planes)
        return OUTSIDE if side > 0 else (ON_BOUNDARY if side == 0 else INSIDE)

    def check_setup(self, inputs, checks: Checks) -> None:
        # separation_sq is timed on OUTSIDE frames only; its value on the
        # other frames depends on nothing a pass changes, so it is checked
        # once a run, on a sample of them (ON_BOUNDARY and INSIDE alike).
        M, oracle, planes, path, _, zero_checked = inputs
        checks.expect(meshes_equivalent(primal_mesh(M), oracle),
                      "M differs from the hull of the pairwise differences")
        for k in zero_checked:
            checks.expect(separation_sq(M, path[k][0]) == 0, f"frame {k}: nonzero separation")

    def run_pass(self, inputs, clock: Clock):
        M, _, _, path, separated, _ = inputs
        out = []
        hint = None
        for k, (s, d) in enumerate(path):
            with clock.timed("classify"):
                wit = classify_point(M, s, hint)
            hint = wit.hint
            extra = None
            if wit.classification == OUTSIDE and k in separated:
                with clock.timed("separation"):
                    extra = separation_sq(M, s)
            elif wit.classification == INSIDE:
                with clock.timed("penetration"):
                    ahead = directional_penetration(M, s, d)
                with clock.timed("penetration"):
                    back = directional_penetration(M, s, -d)
                extra = (ahead, back)
            out.append((wit.classification, extra))
        return out

    def check(self, inputs, outputs, checks: Checks, clock: Clock) -> None:
        if self.verified is not None:
            # Same inputs, same exact outputs: later passes must repeat the
            # first, which was checked in full.
            for k, (got, want) in enumerate(zip(outputs, self.verified)):
                checks.expect(got == want, f"frame {k}: differs from the first pass")
            return
        M, _, planes, path, separated, _ = inputs
        for k, ((s, d), (cls, extra)) in enumerate(zip(path, outputs)):
            want = self._halfspace_class(planes, s)
            checks.expect(cls == want, f"frame {k}: {cls}, halfspace test says {want}")
            if cls == OUTSIDE and k in separated:
                checks.expect(extra > 0, f"frame {k}: outside but separation {extra}")
            elif cls == INSIDE:
                for r, (alpha, exit_point) in zip((d, -d), extra):
                    ok = alpha > 0 and exit_point == s + r.scale(alpha)
                    ok = ok and classify_point(M, exit_point).classification == ON_BOUNDARY
                    checks.expect(ok, f"frame {k}: penetration exit point is not on the boundary")
        self.verified = outputs

    def detail(self, clock: Clock):
        n = len(clock.passes)
        classify = clock.samples["classify"]
        return [
            ("trace_frames_per_s", self.frames / median(sum(p.values()) for p in clock.passes),
             "frames/s", n),
            ("classify_p50_us", median(classify) * 1e6, "us", len(classify)),
            ("classify_p90_us", _p90(classify) * 1e6, "us", len(classify)),
            ("separation_p50_ms", median(clock.samples["separation"]) * 1e3, "ms",
             len(clock.samples["separation"])),
            ("penetration_p50_us", median(clock.samples["penetration"]) * 1e6, "us",
             len(clock.samples["penetration"])),
        ]


WORKLOADS = {
    "partition": Partition,
    "sum-oracle": SumOracle,
    "witness-11x11": Witness,
    "collision-trace": CollisionTrace,
}
