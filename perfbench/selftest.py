"""Self-test of the benchmark at the smallest size of each workload.

    python3 perfbench/selftest.py

Checks, for every workload, that the metric tables in the code match
BENCHMARK.json (name, unit, better-direction) and that a run emits every
end-to-end and every per-layer metric; that one injected wrong result is
counted as failed; and that a second seed runs clean.  Exits non-zero on the
first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

workloads = run.import_hetres()
import tracing  # noqa: E402


def corrupt(workload: str, key: str, result):
    """A wrong answer of the kind each workload's checks must catch."""
    if workload == "suite":
        return {**result, "passed": False, "expected_checks": [
            {"path": "injected", "op": "fail", "passed": False}]}
    if workload == "solve_grid":
        return dataclasses.replace(result, value=result.upper_bound + 1.0)
    if key.startswith("contains/"):
        return not result
    raise ValueError(f"no corruption for {key}")


def small_pass(workload: str, seed: int, k: int = 0):
    return workloads.PASSES[workload](seed, k, small=True)


def check(cond: bool, what: str):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    check(declared == run.END_TO_END, "end-to-end table matches BENCHMARK.json")
    layers = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    check(layers == tracing.per_layer_metric_names(), "per-layer table matches BENCHMARK.json")
    names = [w["name"] for w in bench["workloads"]]
    check(sorted(names) == sorted(run.COUNTED_PASSES), "workloads match BENCHMARK.json")
    ledger = workloads.load_ledger()
    grid = set(workloads.grid_cells())
    check(set(ledger) <= grid, "every excluded cell is a grid cell")
    check(set(workloads.included_cells()) | set(ledger) == grid,
          "every grid cell is either run or in the excluded-cell ledger")

    for workload in names:
        passes = [run.run_pass(small_pass(workload, 1, k), k) for k in range(2)]
        metrics, _ = run.end_to_end(passes, 1, [0.0], [0.0])
        check(all(r["ok"] for p in passes for r in p["items"]), f"{workload}: seed 1 runs clean")
        check(sorted(metrics) == sorted(n for n, _, _ in run.END_TO_END + run.RECORDED),
              f"{workload}: every end-to-end and recorded metric emitted")
        check(metrics["passed_frac"] == 1.0, f"{workload}: passed_frac is 1 on clean outputs")

        items = small_pass(workload, 1)
        target = next(i for i, it in enumerate(items)
                      if workload != "membership" or it.key.startswith("contains/"))
        orig = items[target]
        items[target] = dataclasses.replace(
            orig, call=lambda o=orig: corrupt(workload, o.key, o.call()))
        bad = run.run_pass(items, 0)
        failed = [r["key"] for r in bad["items"] if not r["ok"]]
        check(failed == [orig.key], f"{workload}: injected wrong result counted as failed")
        frac = run.outcome_metrics(bad["items"])["passed_frac"]
        check(frac == 1.0 - 1.0 / len(items), f"{workload}: failed_frac = 1/{len(items)}")

        second = run.run_pass(small_pass(workload, 2), 0)
        check(all(r["ok"] for r in second["items"]), f"{workload}: seed 2 runs clean")

        tracer = tracing.Tracer(tracing.hetres_modules())
        plain = run.run_pass(small_pass(workload, 1), 0)
        tracer.install(extra_modules=[workloads])
        try:
            traced = run.run_pass(small_pass(workload, 1), 0)
        finally:
            tracer.uninstall()
        layer = tracer.per_layer(0.0)
        check(list(layer) == [n for n, _, _ in layers], f"{workload}: every per-layer metric emitted")
        same = [(a["ok"], a["certs"]) for a in plain["items"]] == [
            (b["ok"], b["certs"]) for b in traced["items"]]
        check(same, f"{workload}: traced outputs identical to untraced")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
