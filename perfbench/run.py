"""The qzeta benchmark: one run of one workload.

    python3 perfbench/run.py --workload {beta_table,relations,root_survey}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout that holds ``src/qzeta``.  A run starts one
child process at a time (``child.py``), each doing one cold unit of the
workload, until ``--seconds`` of wall time would be exceeded; at least
MIN_UNITS units run.  Every output is checked by ``checks.py``.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are ``setup_s`` (spawn of the first child to
its ``ready``: interpreter start, ``import qzeta`` and the workload's
set-up state), ``work_s`` (median unit wall time) and ``peak_rss_mb``
(median child peak RSS).  Both times are scaled to the reference host
speed by the factor that ``probe.HostProbe`` measured in the same child;
``work_s`` leaves out the time the probe took.
With ``--trace 1`` untraced and traced units alternate, and the metrics
are the per-layer ones of ``tracer.py`` plus ``process.cpu_s``,
``process.wall_s``, ``host.slice_s`` and ``trace.overhead_s``, all
unscaled.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_UNITS = 2
LOOP_LIMIT_S = 150  # no unit starts, and every child is killed, after this
DEFAULT_SECONDS = 36  # BENCHMARK.json's run_seconds


class BenchError(RuntimeError):
    """Nothing could be measured: the first child never became ready, or
    no unit finished."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_unit(workload: str, seed: int, trace_file: Path | None, timeout: float) -> dict:
    """Start one child, wait for it, and return its record.

    The record holds ``setup_s`` (spawn to ``ready``) once the child got
    that far, and ``error`` instead of outputs when it failed."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter()
        rest, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        rest = ""
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
    if first.strip() != "ready":
        return {"error": f"child exited {proc.returncode} before set-up ended"}
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"child exited {proc.returncode}", "setup_s": ready - start}
    return {**json.loads(lines[-1]), "setup_s": ready - start}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload}-seed{seed}.jsonl"
    units: list[dict] = []
    loop_start = time.perf_counter()
    while True:
        traced = trace and len(units) % 2 == 1  # untraced, traced, untraced, ...
        unit_start = time.perf_counter()
        record = run_unit(workload, seed, trace_file if traced else None,
                          LOOP_LIMIT_S - (unit_start - loop_start))
        record["traced"] = traced
        record["elapsed_s"] = time.perf_counter() - unit_start
        if not units and "setup_s" not in record:
            raise BenchError(record["error"])
        units.append(record)
        elapsed = time.perf_counter() - loop_start
        next_unit = statistics.median(u["elapsed_s"] for u in units)
        if elapsed + next_unit > (seconds if len(units) >= MIN_UNITS else LOOP_LIMIT_S):
            break

    per_unit = WORKLOADS[workload].ops
    cache: dict[str, list] = {}  # identical outputs get one verdict
    attempted = failed = 0
    correct = True
    for unit in units:
        attempted += per_unit
        if "error" in unit:
            failed += per_unit
            print(f"unit failed: {unit['error']}", file=sys.stderr)
            continue
        blob = json.dumps(unit["export"], sort_keys=True)
        key = hashlib.sha256(blob.encode()).hexdigest()
        if key not in cache:
            try:
                cache[key] = WORKLOADS[workload].check(unit["export"], seed)
            except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
                cache[key] = [f"malformed output: {exc!r}"] * per_unit
        bad = [v for v in cache[key] if v is not None]
        failed += len(bad)
        if bad:
            correct = correct and all(isinstance(v, checks.Raised) for v in bad)
            print(f"failed: {bad[0]} (+{len(bad) - 1} more)", file=sys.stderr)

    done = [u for u in units if "error" not in u]
    plain = [u for u in done if not u["traced"]]
    if not plain or (trace and len(plain) == len(done)):
        raise BenchError("no unit finished")
    if not trace:
        # the first child's own factor, unless it failed after set-up
        factor = units[0].get("factor", statistics.median(u["factor"] for u in plain))
        metrics = {
            "setup_s": {"value": units[0]["setup_s"] * factor, "unit": "s"},
            "work_s": {"value": statistics.median(u["work_s"] for u in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(u["peak_rss_mb"] for u in plain),
                            "unit": "MB"},
        }
    else:
        metrics = layer_metrics([u for u in done if u["traced"]], plain)
    print(f"{workload}: {len(units)} units, "
          + ", ".join(f"wall {u['wall_s']:.3f} s"
                      + (" (traced)" if u["traced"] else f" x {u['factor']:.3f}")
                      for u in done))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_metrics(traced: list[dict], plain: list[dict]) -> dict:
    counts = [{k: v for k, v in u["layers"].items() if not k.endswith("self_s")}
              for u in traced]
    if any(c != counts[0] for c in counts):
        print("per-layer counts differ between traced units", file=sys.stderr)
    out = {}
    for name in LAYER_METRICS:
        if name.endswith("self_s"):
            out[name] = {"value": statistics.median(u["layers"][name] for u in traced),
                         "unit": "s"}
        else:
            unit = name.rsplit("_", 1)[-1] if ".max_" in name else "count"
            out[name] = {"value": counts[0][name], "unit": unit}
    wall = statistics.median(u["wall_s"] for u in plain)
    out["process.cpu_s"] = {"value": statistics.median(u["cpu_s"] for u in plain),
                            "unit": "s"}
    out["process.wall_s"] = {"value": wall, "unit": "s"}
    out["host.slice_s"] = {"value": statistics.median(u["mean_slice_s"] for u in plain),
                           "unit": "s"}
    out["trace.overhead_s"] = {
        "value": statistics.median(u["wall_s"] for u in traced) - wall, "unit": "s"}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qzeta" / "__init__.py").is_file():
        print(f"no qzeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"nothing measured: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
