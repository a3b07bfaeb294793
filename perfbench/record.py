"""Repeat the benchmark over seeds and summarize each end-to-end metric.

    python3 perfbench/record.py --workloads suite solve_grid membership \\
        --seeds 1 2 3 4 5 6 7 8 9 10 [--traced] [--write perfbench/baseline.json]

Runs ``perfbench/run.py`` once per (workload, seed), in sequence, with the
settings in BENCHMARK.json.  For every metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and their distance as a
share of the median, flagged when it is not below a third of the metric's
bound.  ``--traced`` adds one traced run per workload at the first seed.
``--write`` stores the summary, the run record of each workload's first run
and the excluded-cell ledger as the baseline file.
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
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=str(ROOT), timeout=900)
    elapsed = time.time() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def spread(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--write", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    summary, steady = {}, True
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        elapsed = []
        for seed in args.seeds:
            result, secs = run_once(workload, seed, seconds, 0)
            elapsed.append(secs)
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: incorrect result")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {secs:.1f} s", file=sys.stderr, flush=True)
        rows = {}
        print(f"\n{workload} ({len(args.seeds)} seeds, run wall {min(elapsed):.1f}-{max(elapsed):.1f} s)")
        for name, meta in bounds.items():
            med, q1, q3, sp = spread(values[name])
            ok = sp < meta["bound"] / 3 or name == "setup_s"
            steady &= ok
            rows[name] = {"unit": meta["unit"], "better": meta["better"], "median": med,
                          "q1": q1, "q3": q3, "spread": sp, "values": values[name]}
            print(f"  {name:16s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {sp:7.2%} bound {meta['bound']:.2f} {'' if ok else '  <-- not steady'}")
        entry = {"seeds": args.seeds, "run_wall_s": elapsed, "metrics": rows}
        record = HERE / "out" / f"run-{workload}-s{args.seeds[0]}-t0.json"
        first = json.loads(record.read_text()) if record.exists() else None
        if args.traced:
            result, secs = run_once(workload, args.seeds[0], seconds, 1)
            entry["traced"] = {"seed": args.seeds[0], "run_wall_s": secs,
                               "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
            print(f"  traced run: {secs:.1f} s, overhead "
                  f"{result['metrics']['trace.overhead_frac']['value']:.1%}")
        entry["first_run_record"] = first
        summary[workload] = entry
    if args.write:
        ledger = json.loads((HERE / "excluded_cells.json").read_text())
        args.write.write_text(json.dumps({"workloads": summary, "excluded_cells": ledger},
                                         indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
