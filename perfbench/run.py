"""geomink benchmark runner.

    python3 perfbench/run.py --workload partition --seed 1 --seconds 20 --trace 0

Runs one workload of ``workloads.py`` from the root of a geomink checkout,
on one thread in this one process, and measures it for ``--seconds``:
passes of the workload repeat until the next one would end past that
time (there is always at least one).  Every pass's outputs are checked
for exactness outside the timed regions.

Human-readable lines come first: ``metric <name> <value> <unit> n=<samples>``
for each of the workload's named metrics (untraced runs only) and
``fail_ratio``.  The last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json:

* ``pass_s``: timed seconds of one pass of the workload, with each timed
  region at its fastest over the run's passes (``Clock.best_pass``): a
  pass repeats the same regions, and the minimum is what stays steady
  when the machine's speed drifts;
* ``setup_s``: seconds to import geomink and make the inputs, the
  fastest of several set-ups from a clean import, made in two batches,
  before the passes and after them (see ``set_up``);
* ``peak_rss_mb``: the process's peak resident set size.

With ``--trace 1`` a separate run wraps each layer's public functions
(``tracer.py``) and reports the per-layer metrics instead, plus
``bench.pass_s``, the traced pass time: the tracing overhead is its
difference from an untraced run's ``pass_s``.  A traced run re-executes
itself once with address-space randomization off, so that its counts
repeat exactly (see ``pin_memory_layout``).
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import compileall
import importlib
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# A batch of set-ups repeats at least SETUP_MIN_REPEATS times and until
# it has taken SETUP_SECONDS in all, at most SETUP_MAX_REPEATS times.
SETUP_MIN_REPEATS = 2
SETUP_MAX_REPEATS = 30
SETUP_SECONDS = 1.0
DEFAULT_SEED = 1
HELD_OUT_SEED = 7  # kept out of tuning; confirm claims on it
WORKLOAD_NAMES = ["partition", "sum-oracle", "witness-11x11", "collision-trace"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def pin_memory_layout() -> None:
    """Re-execute this process with address-space randomization off.

    geomink iterates some sets of objects hashed by identity (for example
    a face's isolated vertices, scanned with a short-circuiting ``all``),
    so a few kernel counts depend on where objects lie in memory.  With
    randomization off and the same allocations before the first pass,
    traced runs give identical counts.  Where the personality flag
    cannot be set, the run goes on as it is."""
    addr_no_randomize = 0x0040000
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        persona = libc.personality(0xFFFFFFFF)
    except (OSError, AttributeError):
        return
    if persona == -1 or persona & addr_no_randomize:
        return
    if libc.personality(persona | addr_no_randomize) == -1:
        return
    os.execv(sys.executable, sys.orig_argv)


def set_up(args, repeat: bool):
    """Import geomink and the workloads from this checkout and make the
    inputs from a clean import: once, or a batch of times if ``repeat``.
    Returns the seconds of each set-up, the workloads module, the workload
    and its inputs.

    A set-up is short (from 20 ms of import to two seconds with
    collision-trace's sums), and the machine's speed drifts over tens of
    seconds, so the runner takes the fastest of two batches, made before
    and after the passes."""
    times = []
    while not times or (repeat and (len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX_REPEATS))):
        for name in [n for n in sys.modules if n.split(".")[0] in ("geomink", "workloads")]:
            del sys.modules[name]
        gc.collect()  # frees the previous import, which is full of cycles
        t0 = perf_counter()
        workloads = importlib.import_module("workloads")
        workload = workloads.WORKLOADS[args.workload](args.smoke)
        inputs = workload.setup(args.seed)
        times.append(perf_counter() - t0)
    origin = Path(sys.modules["geomink"].__file__).resolve().parent
    if origin != SRC / "geomink":
        raise ImportError(f"geomink was imported from {origin}, not {SRC}")
    return times, workloads, workload, inputs


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.trace:
        pin_memory_layout()
    if not (SRC / "geomink" / "__init__.py").is_file():
        print(f"run.py: no geomink sources in {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "geomink"), quiet=1)
    sys.path.insert(0, str(SRC))
    # A traced run sets up once: its allocations before the first pass
    # must not depend on the machine's speed.
    setup_times, workloads, workload, inputs = set_up(args, repeat=not args.trace)
    from tracer import Tracer, counts_of, layer_metrics

    checks = workloads.Checks()
    workload.check_setup(inputs, checks)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(callers=[workloads])
    clock = workloads.Clock(tracer)
    traced = []
    start = perf_counter()
    longest = 0.0
    while True:
        t0 = perf_counter()
        outputs = workload.run_pass(inputs, clock)
        clock.end_pass()
        workload.check(inputs, outputs, checks, clock)
        if tracer is not None:
            traced.append(tracer.take())
        longest = max(longest, perf_counter() - t0)
        if perf_counter() - start + longest > args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    if tracer is None:
        # Read before the second batch, which sets up beside the inputs.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup_times += set_up(args, repeat=True)[0]
        for name, value, unit, n in workload.detail(clock):
            print(f"metric {name} {value:.6g} {unit} n={n}")
        metrics = {
            "pass_s": (clock.best_pass(), "s"),
            "setup_s": (min(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        first = counts_of(traced[0])
        if any(counts_of(t) != first for t in traced[1:]):
            print("warning: layer counts differ between passes", file=sys.stderr)
        wanted = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = layer_metrics(traced, [(m["name"], m["unit"]) for m in wanted])
        metrics["bench.pass_s"] = (clock.best_pass(), "s")
    print(f"metric fail_ratio {checks.failed / checks.attempted:.6g} "
          f"failed/attempted n={checks.attempted}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
