"""Benchmark for walshcodes: three workloads timed from outside the library.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 35 --trace 0

Run from the repository root; the library is imported from ./src.  One run:

1. set-up: import walshcodes and warm the lazy caches of every field the
   workload uses;
2. a first pass over all instances, which fills the library's remaining
   caches; its outputs are checked against oracle.py;
3. timed passes until ``--seconds`` have gone by; each must reproduce the
   first pass's outputs exactly.  After each pass the set-up is timed once
   more on a fresh import.

With ``--trace 1`` the layers are wrapped by spans.py, and the last line
carries the per-layer metrics in place of the end-to-end ones.  The last
line of standard output is the JSON result; reference figures go to
standard error and, with the full result, to perfbench/runs/.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
TRACES = os.path.join(HERE, "traces")

import numpy as np  # noqa: E402  (imported before any set-up is timed)

import spans as tracing  # noqa: E402
import workloads  # noqa: E402


def purge() -> dict:
    """Remove walshcodes from sys.modules, returning the removed entries."""
    return {name: sys.modules.pop(name) for name in list(sys.modules)
            if name == "walshcodes" or name.startswith("walshcodes.")}


def fresh_setup(fields) -> tuple[float, object]:
    """Import walshcodes and its CLI anew and warm the caches of ``fields``;
    seconds taken.  Whatever copy of the library was loaded before stays in
    use by its holders."""
    old = purge()
    gc.collect()
    t0 = perf_counter()
    lib = importlib.import_module("walshcodes")
    importlib.import_module("walshcodes.cli")
    warm(lib, fields)
    seconds = perf_counter() - t0
    if old:
        purge()
        sys.modules.update(old)
    return seconds, lib


def warm(lib, fields) -> None:
    for m in fields:
        f = lib.gf2.field(m)
        f.trace_form_rows
        f.dual_polynomial_basis
        f.primitive_element


def upper_quartile(values) -> float:
    """The statistic for every repeated timing.  On a shared virtual machine
    the speed can drift by 2x in phases of seconds to tens of seconds, mostly
    towards faster; a fast phase shorter than a quarter of the run cannot
    move the upper quartile, while a median flips whenever fast phases cover
    about half of it.  README.md gives the measurements."""
    return float(np.percentile(values, 75))


def calibration_s() -> float:
    """A fixed loop in pure Python, to tell a slow machine phase from a regression."""
    t0 = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc ^= i * i
    return perf_counter() - t0


def run_pass(wl, lib, tracer=None):
    """One pass over all instances: (wall s, latency s or None, outputs or None)."""
    lat, outs = [], []
    t0 = perf_counter()
    for inst in wl.instances:
        if tracer is not None:
            tracer.op += 1
        a = perf_counter()
        try:
            out = wl.run(lib, inst)
        except (Exception, SystemExit):
            out = None
        lat.append(None if out is None else perf_counter() - a)
        outs.append(out)
    return perf_counter() - t0, lat, outs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "walshcodes", "__init__.py")):
        print(f"error: no walshcodes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl_cls = workloads.WORKLOADS[args.workload]
    calib = [calibration_s()]

    seconds, lib = fresh_setup(wl_cls.fields)
    setups = [seconds]
    if not lib.__file__.startswith(SRC + os.sep):
        print(f"error: walshcodes imported from {lib.__file__}, not {SRC}", file=sys.stderr)
        return 2

    os.makedirs(RUNS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS)
    try:
        wl = wl_cls(args.seed, workdir)
        tracer = None
        setup_self = {}
        if args.trace:
            # set-up again, under the tracer, so gf2.field sees cold caches
            purge()
            lib = importlib.import_module("walshcodes")
            importlib.import_module("walshcodes.cli")
            tracer = tracing.Tracer()
            tracer.install()
            for m in wl.fields:
                tracer.wrap("gf2.field", warm)(lib, (m,))
            tracer.uninstall()
            setup_self = tracer.self_ms()
            tracer.counts.clear()

        gc.collect()
        _, _, first = run_pass(wl, lib)
        attempted = len(first)
        failed = sum(out is None for out in first)
        reference = [None if out is None else wl.fingerprint(out) for out in first]

        walls, lats, mismatches = [], [], 0
        # a traced run alternates traced passes with passes that have the
        # tracer taken out; the difference of their walls is the overhead
        plain_walls = []
        t_end = perf_counter() + args.seconds
        while not walls or perf_counter() < t_end:
            traced = tracer is not None and len(walls) <= len(plain_walls)
            if traced:
                tracer.install()
            wall, lat, outs = run_pass(wl, lib, tracer if traced else None)
            if traced:
                tracer.uninstall()
            if tracer is None or traced:
                walls.append(wall)
                lats.append(lat)
            else:
                plain_walls.append(wall)
            attempted += len(outs)
            failed += sum(out is None for out in outs)
            mismatches += sum((out is None) != (ref is None)
                              or (out is not None and wl.fingerprint(out) != ref)
                              for out, ref in zip(outs, reference))
            del outs
            if tracer is None:
                # one more set-up after every pass, so that setup_s samples
                # the machine over the whole run as wall_s does
                setups.append(fresh_setup(wl.fields)[0])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        problems = wl.check(lib, [(i, out) for i, out in enumerate(first) if out is not None])
        if mismatches:
            problems.append(f"{mismatches} outputs of timed passes differ from the first pass")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calib.append(calibration_s())

    passes = len(walls)
    # an instance's latency is the upper quartile of its times over the timed
    # passes; failed instances have none
    per_instance = [upper_quartile(ts) for ts in zip(*lats) if None not in ts]
    if tracer is None:
        metrics = {
            "setup_s": (upper_quartile(setups), "s"),
            "wall_s": (upper_quartile(walls), "s"),
            "instance_p50_ms": (float(np.percentile(per_instance, 50)) * 1e3, "ms"),
            "instance_p90_ms": (float(np.percentile(per_instance, 90)) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        # per pass, with the one cold set-up added
        total_self = tracer.self_ms()
        loop_self = {name: total_self.get(name, 0.0) - setup_self.get(name, 0.0)
                     for name in tracing.SPAN_NAMES}
        metrics = {f"{name}.self_ms": (setup_self.get(name, 0.0) + loop_self[name] / passes,
                                       "ms")
                   for name in tracing.SPAN_NAMES}
        metrics.update({name: (tracer.counts.get(name, 0) / passes,
                               "bytes" if name.endswith("bytes") else "count")
                        for name in tracing.COUNT_NAMES})

    reference_figures = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "calibration_s": calib,
        "passes": passes, "pass_wall_s": walls, "setup_reps_s": setups,
        "instances_per_pass": len(wl.instances), "timed_instances": len(per_instance),
    }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, reference=reference_figures,
                  problems=problems[:50], pass_latencies_s=lats)
    if tracer is not None:
        total = sum(walls) / passes * 1e3
        record["trace_overhead"] = {
            "traced_wall_s": statistics.median(walls),
            "untraced_wall_s": statistics.median(plain_walls) if plain_walls else None}
        record["self_share_of_pass"] = {name: loop_self[name] / passes / total
                                        for name in tracing.SPAN_NAMES}
        os.makedirs(TRACES, exist_ok=True)
        with open(os.path.join(TRACES, f"{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "instances_per_pass": len(wl.instances), "traced_passes": passes,
                       "spans": tracer.spans, "counts": dict(tracer.counts)}, fh)
    with open(os.path.join(RUNS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"reference": reference_figures}), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
