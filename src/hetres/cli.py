"""Command-line front end: run scenarios, batch suites, describe them.

Exit codes: 0 success, 1 expectation failure, 2 schema violation,
3 numerical non-convergence (the partial report is still written).
Reports go to stdout or ``--out`` as JSON (default) or CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .scenarios import ScenarioError, builtin_scenarios, run_scenario, validate_scenario

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_SCHEMA = 2
EXIT_NONCONVERGED = 3


def _load_scenario(ref: str) -> dict:
    builtins = builtin_scenarios()
    if ref in builtins:
        return builtins[ref]
    path = Path(ref)
    if not path.exists():
        raise ScenarioError(f"{ref!r} is neither a built-in scenario nor a file")
    try:
        obj = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON in {ref}: {exc}") from exc
    return validate_scenario(obj)


def _emit(payload: dict, fmt: str, out: str | None):
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    else:
        text = _to_csv(payload)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _json_default(obj):
    import numpy as np

    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _to_csv(payload: dict) -> str:
    rows = ["scenario,key,value"]
    reports = payload.get("reports", [payload])
    for rep in reports:
        name = rep.get("scenario", "")
        for key, val in sorted(rep.get("results", {}).items()):
            if isinstance(val, float) and math.isinf(val):
                val = "inf"
            rows.append(f"{name},{key},{val}")
        rows.append(f"{name},passed,{rep.get('passed')}")
    return "\n".join(rows)


def _report_exit(report: dict) -> int:
    if not report.get("converged", True):
        return EXIT_NONCONVERGED
    if not report.get("passed", False):
        return EXIT_FAILED
    return EXIT_OK


def cmd_run(args) -> int:
    scenario = _load_scenario(args.scenario)
    report = run_scenario(scenario, seed_override=args.seed, gap_override=args.gap)
    _emit(report, args.format, args.out)
    return _report_exit(report)


def cmd_suite(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise ScenarioError(f"{directory} is not a directory")
    scenarios = [_load_scenario(str(path)) for path in sorted(directory.glob("*.json"))]
    reports = [run_scenario(obj, args.seed, args.gap) for obj in scenarios]

    summary = {
        "n_scenarios": len(reports),
        "n_passed": sum(1 for r in reports if r["passed"]),
        "all_passed": all(r["passed"] for r in reports),
        "all_converged": all(r.get("converged", True) for r in reports),
        "reports": reports,
    }
    _emit(summary, args.format, args.out)
    for rep in reports:
        status = "pass" if rep["passed"] else "FAIL"
        print(f"[{status}] {rep['scenario']} ({rep['wall_time_s']:.2f}s)", file=sys.stderr)
    if not summary["all_converged"]:
        return EXIT_NONCONVERGED
    return EXIT_OK if summary["all_passed"] else EXIT_FAILED


def cmd_describe(args) -> int:
    scenario = _load_scenario(args.scenario)
    lines = [
        f"name:        {scenario['name']}",
        f"kind:        {scenario['kind']}",
        f"description: {scenario.get('description', '(none)')}",
        f"seed:        {scenario.get('params', {}).get('seed', 0)}",
        "expected:",
    ]
    for exp in scenario.get("expected", []):
        target = exp.get("target", "")
        tol = exp.get("tol", "")
        lines.append(f"  - {exp['path']} {exp.get('op', 'approx')} {target} (tol {tol})")
    print("\n".join(lines))
    return EXIT_OK


def cmd_export(args) -> int:
    directory = Path(args.directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, obj in builtin_scenarios().items():
        (directory / f"{name}.json").write_text(json.dumps(obj, indent=2, sort_keys=True))
    print(f"wrote {len(builtin_scenarios())} scenarios to {directory}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetres",
        description="Composite quantum resource theories: scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario (file path or built-in name)")
    run_p.add_argument("scenario")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--gap", type=float, default=None, help="override the solver gap")
    run_p.add_argument("--format", choices=("json", "csv"), default="json")
    run_p.add_argument("--out", default=None, help="write the report here instead of stdout")
    run_p.set_defaults(func=cmd_run)

    suite_p = sub.add_parser("suite", help="run every scenario file in a directory")
    suite_p.add_argument("directory")
    suite_p.add_argument("--seed", type=int, default=None)
    suite_p.add_argument("--gap", type=float, default=None)
    suite_p.add_argument("--format", choices=("json", "csv"), default="json")
    suite_p.add_argument("--out", default=None)
    suite_p.set_defaults(func=cmd_suite)

    desc_p = sub.add_parser("describe", help="show a scenario's inputs and expected values")
    desc_p.add_argument("scenario")
    desc_p.set_defaults(func=cmd_describe)

    exp_p = sub.add_parser("export", help="write the built-in scenarios as JSON files")
    exp_p.add_argument("directory")
    exp_p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
