"""Every workload's metrics by name and unit, in one command.

    python3 perfbench/report.py [--seed 1] [--seconds 20] [--baseline FILE]

For each workload this runs ``run.py`` once untraced and twice traced,
each in its own process, one after another.  It prints the workload's
named end-to-end metrics, ``fail_ratio``, the tracing overhead (traced
minus untraced pass time) and whether the two traced runs gave identical
work counts.  ``--baseline FILE`` also writes all of it as JSON with the
git commit, Python version and processor count of the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, HELD_OUT_SEED, WORKLOAD_NAMES  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int, smoke: bool = False):
    """Run one benchmark process; return (named metric lines, result JSON)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    named = {}
    for line in lines[:-1]:
        if line.startswith("metric "):
            _, name, value, unit, n = line.split()
            named[name] = {"value": float(value), "unit": unit, "n": int(n[2:])}
    return named, json.loads(lines[-1])


def machine_independent(result) -> dict:
    """The traced metrics that must repeat exactly: every count, not times."""
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"}


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--baseline", type=Path)
    args = ap.parse_args(argv)

    report = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in WORKLOAD_NAMES:
        named, plain = run_once(workload, args.seed, args.seconds, trace=0)
        # As long as the untraced run, so that both pass times are the
        # fastest over as many passes.
        _, traced_a = run_once(workload, args.seed, args.seconds, trace=1)
        _, traced_b = run_once(workload, args.seed, args.seconds, trace=1)
        counts_a, counts_b = machine_independent(traced_a), machine_independent(traced_b)
        pass_s = plain["metrics"]["pass_s"]["value"]
        overhead = traced_a["metrics"]["bench.pass_s"]["value"] - pass_s
        entry = {
            "correct": plain["correct"] and traced_a["correct"] and traced_b["correct"],
            "end_to_end": plain["metrics"],
            "named": named,
            "trace_overhead_s": overhead,
            "counts_repeat": counts_a == counts_b,
            "counts": counts_a,
        }
        report["workloads"][workload] = entry

        print(f"== {workload} (seed {args.seed})")
        for name, m in {**named, **plain["metrics"]}.items():
            n = f"  n={m['n']}" if "n" in m else ""
            print(f"  {name:22s} {m['value']:12.6g} {m['unit']}{n}")
        print(f"  {'trace_overhead_s':22s} {overhead:12.6g} s  ({overhead / pass_s:+.1%} of pass_s)")
        differing = sorted(k for k in counts_a if counts_a[k] != counts_b.get(k))
        print(f"  counts repeat across two traced runs: "
              f"{'yes' if not differing else 'NO: ' + ', '.join(differing)}")
        sys.stdout.flush()

    if args.baseline:
        args.baseline.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    ok = all(w["correct"] and w["counts_repeat"] for w in report["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
