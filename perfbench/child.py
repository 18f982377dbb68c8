"""One unit of a workload, in a process of its own.

    python3 perfbench/child.py --workload NAME --seed N [--trace-file PATH]

Imports qzeta from the checkout's ``src``, builds the workload's set-up
state, prints ``ready``, runs the timed unit, and prints one JSON line:
the unit's wall and CPU time, its peak resident memory, and the outputs
that the parent checks.  An untraced unit runs under ``probe.HostProbe``,
and the line also carries the factor that scales the child's times to the
reference host speed and the unit's time without the probe's slices,
scaled by it.  With ``--trace-file`` the unit runs traced, without the
probe, and the line carries the per-layer metrics instead; the spans go
to that file.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import qzeta

    if not Path(qzeta.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"qzeta was imported from {qzeta.__file__}, not from the checkout")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    state = workload.setup(qzeta)
    print("ready", flush=True)

    tracer = None
    if args.trace_file:
        import tracer as tracing

        tracer = tracing.install(qzeta)
        tracer.on = True
        probe = contextlib.nullcontext()
    else:
        from probe import HostProbe

        probe = HostProbe()
    with probe:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        results = workload.unit(qzeta, state)
        wall1, cpu1 = time.perf_counter(), time.process_time()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {"wall_s": wall1 - wall0, "cpu_s": cpu1 - cpu0, "peak_rss_mb": peak_kb / 1024}
    if tracer is None:
        # the unit's own time, without the probe's slices, at the reference speed
        record["wall_s"] -= probe.handler_s
        record["cpu_s"] -= probe.handler_cpu_s
        record.update(work_s=record["wall_s"] * probe.factor, factor=probe.factor,
                      mean_slice_s=probe.mean_slice_s)
    else:
        tracer.on = False
        record["layers"] = tracer.layer_metrics()
        tracer.write(args.trace_file)
    record["export"] = workload.export(qzeta, state, results, args.seed)
    print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
