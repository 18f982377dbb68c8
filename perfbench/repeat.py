"""Run one workload many times and summarise each metric.

    python3 perfbench/repeat.py --workload relations --runs 10 [--first-seed 1]
                                [--seconds 36] [--trace 0|1] [--against OLD.jsonl]

Each run is ``run.py`` in a process of its own, with seeds first-seed,
first-seed + 1, ...  The raw result lines go to
``perfbench/out/repeat-<workload>-trace<k>-<time>.jsonl``.  For every metric
the summary gives the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread: the distance between the quartiles as a share of the
median.  With ``--against`` it also gives, for each metric, by how much this
set's median is worse than that earlier set's, next to the metric's bound
in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def load(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def medians(results: list[dict]) -> dict[str, float]:
    names = results[0]["metrics"]
    return {m: statistics.median(r["metrics"][m]["value"] for r in results) for m in names}


def summarise(results: list[dict], against: list[dict] | None) -> None:
    failed = {(r["failed"], r["attempted"]) for r in results}
    shares = sorted({f / a for f, a in failed})
    print(f"{len(results)} runs, correct in {sum(r['correct'] for r in results)}, "
          f"failed share(s) {shares}")
    bounds = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    old = medians(against) if against else {}
    print(f"{'metric':40s} {'unit':>6s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s}" + ("  worse-than-old / bound" if old else ""))
    for name, value in medians(results).items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [value] * 3
        spread = (q3 - q1) / value if value else 0.0
        line = (f"{name:40s} {results[0]['metrics'][name]['unit']:>6s} {value:12.6g} "
                f"{q1:12.6g} {q3:12.6g} {spread:7.3f}")
        if name in old and old[name]:
            sign = 1 if bounds.get(name, {}).get("better", "lower") == "lower" else -1
            worse = sign * (value - old[name]) / old[name]
            line += f"  {worse:+.3f} / {bounds.get(name, {}).get('bound', '-')}"
        print(line)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args()
    (HERE / "out").mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = HERE / "out" / f"repeat-{args.workload}-trace{args.trace}-{stamp}.jsonl"
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        *notes, line = proc.stdout.strip().splitlines()
        results.append(json.loads(line))
        with path.open("a") as fh:
            fh.write(line + "\n")
        print(f"seed {seed}: {notes[-1] if notes else ''}", flush=True)
    print(f"raw results: {path.relative_to(HERE.parent)}")
    summarise(results, load(args.against) if args.against else None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
