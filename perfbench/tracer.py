"""Per-layer spans and counts for the traced benchmark run.

The library has no tracing of its own, so the tracer wraps the public
functions of each geomink module from outside.  geomink modules import
each other's functions by name (``from .spherical import intersect``),
so a wrapper is bound in *every* geomink module namespace that holds the
original, not only in the defining module; methods are patched on their
class.  A call made through a reference the tracer missed would be
silently uncounted, so ``install`` re-scans and fails if any remains.

Only calls made while ``enabled`` is true are recorded: the runner turns
the tracer on around the timed library calls of each pass, so set-up and
the exactness checks do not pollute the counts.

A span's self time is its duration minus the time covered by the spans
it encloses.  Counted-only functions (the kernel predicates and the
cheap spherical helpers) open no span, so their time is part of the self
time of the span that called them.
"""

from __future__ import annotations

import sys
from statistics import median
from time import perf_counter
from types import ModuleType
from typing import Callable, Dict, List, Sequence, Tuple

# Functions that open a span (calls and self time are recorded).
SPANNED = [
    ("spherical", "intersect"),
    ("arrangement", "overlay"),
    ("arrangement", "SphereArrangement.insert_disjoint_arc"),
    ("arrangement", "SphereArrangement.locate"),
    ("gaussian", "build"),
    ("gaussian", "reflect"),
    ("gaussian", "primal_mesh"),
    ("minkowski", "minkowski"),
    ("proximity", "classify_point"),
    ("proximity", "separation_sq"),
    ("proximity", "directional_penetration"),
    ("assembly", "pairwise_subpart_sums"),
    ("assembly", "project_polytope"),
    ("assembly", "union_regions"),
    ("assembly", "reflect_region"),
    ("assembly", "build_motion_space"),
    ("assembly", "find_partitions"),
    ("hull", "convex_hull_3"),
    ("hull", "meshes_equivalent"),
    ("extremal", "witness_polytope"),
]
# Functions called too often for a span: calls are counted only.
COUNTED = [
    ("kernel", "cross"),
    ("kernel", "dot"),
    ("spherical", "point_on_arc"),
    ("spherical", "make_arc"),
    ("arrangement", "SphereArrangement.side_of_cycle"),
]

def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.split('.')[-1]}"


class Stat:
    __slots__ = ("calls", "self_s", "hits", "out_vertices", "max_bits")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0
        self.out_vertices = 0
        self.max_bits = 0


def _max_bits(v) -> int:
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for c in (v.x, v.y, v.z)
    )


class Tracer:
    """Aggregated spans and counts per wrapped function."""

    def __init__(self):
        self.enabled = False
        self.stats: Dict[str, Stat] = {
            _span_name(m, a): Stat() for m, a in SPANNED + COUNTED
        }
        self._stack: List[float] = []
        self._undo: List[Tuple[object, str, object]] = []

    def take(self) -> Dict[str, Stat]:
        """Return the stats gathered so far and start a fresh set."""
        old = self.stats
        self.stats = {name: Stat() for name in old}
        return old

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name: str, fn: Callable) -> Callable:
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stat = self.stats[name]
            stat.calls += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
            if name == "spherical.intersect":
                stat.hits += not result.empty
            elif name == "arrangement.overlay":
                stat.out_vertices += len(result.vertices)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        if name == "kernel.cross":

            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if self.enabled:
                    stat = self.stats[name]
                    stat.calls += 1
                    stat.max_bits = max(stat.max_bits, _max_bits(result))
                return result

        else:

            def wrapper(*args, **kwargs):
                if self.enabled:
                    self.stats[name].calls += 1
                return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self, callers: Sequence[ModuleType] = ()) -> None:
        """Bind a wrapper wherever an original is reachable by name: in
        every geomink module and in the given calling modules."""
        import geomink  # noqa: F401  (imports the modules it re-exports)
        import geomink.cli  # noqa: F401
        import geomink.shapes  # noqa: F401

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "geomink" or n.startswith("geomink.")]
        modules += callers
        originals = []
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module, attr in table:
                name = _span_name(module, attr)
                owner = sys.modules[f"geomink.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    fn = vars(cls)[meth]
                    self._set(cls, meth, make(name, fn))
                else:
                    fn = getattr(owner, attr)
                    wrapped = make(name, fn)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                self._set(mod, key, wrapped)
                originals.append(fn)
        self._verify(modules, originals)

    def _set(self, obj, key: str, value) -> None:
        self._undo.append((obj, key, vars(obj)[key]))
        setattr(obj, key, value)

    @staticmethod
    def _verify(modules, originals) -> None:
        ids = {id(fn) for fn in originals}
        for mod in modules:
            for key, value in vars(mod).items():
                if id(value) in ids:
                    raise RuntimeError(f"{mod.__name__}.{key} is still unwrapped")
                if isinstance(value, type):
                    for meth, f in vars(value).items():
                        if id(f) in ids:
                            raise RuntimeError(
                                f"{mod.__name__}.{key}.{meth} is still unwrapped")

    def uninstall(self) -> None:
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)


def layer_metrics(passes: List[Dict[str, Stat]],
                  wanted: List[Tuple[str, str]]) -> Dict[str, Tuple[float, str]]:
    """The wanted (name, unit) per-layer metrics of a traced run: counts
    of the first pass (every pass does identical work) and the median self
    time over all passes.  Names outside the tracer's spans are skipped."""
    first = passes[0]
    inter = first["spherical.intersect"]
    derived = {
        "spherical.intersect.hits": inter.hits,
        "spherical.intersect.hit_ratio": inter.hits / inter.calls if inter.calls else 0.0,
        "arrangement.overlay.out_vertices": first["arrangement.overlay"].out_vertices,
        "kernel.cross.max_bits": first["kernel.cross"].max_bits,
    }
    out: Dict[str, Tuple[float, str]] = {}
    for metric, unit in wanted:
        span, what = metric.rsplit(".", 1)
        if span not in first:
            continue
        if metric in derived:
            value = derived[metric]
        elif what == "calls":
            value = first[span].calls
        else:
            value = median(p[span].self_s for p in passes)
        out[metric] = (value, unit)
    return out


def counts_of(stats: Dict[str, Stat]) -> Dict[str, Tuple[int, int, int, int]]:
    """The machine-independent part of one pass, for repeat checks."""
    return {k: (s.calls, s.hits, s.out_vertices, s.max_bits) for k, s in stats.items()}
