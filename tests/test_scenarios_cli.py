import json
import math
from pathlib import Path

import pytest

from hetres import certify as ct
from hetres import scenarios as sc
from hetres.cli import main

GOLDEN_SUITE = Path(__file__).parent / "golden" / "suite_report.json"
LIGHT_BUILTINS = [
    "coherence_golden_unit",
    "hypothesis_floor",
    "rng_nonmonotonicity",
    "no_maximal_free_operations",
    "witness_channel_construction",
]


class TestScenarioRunner:
    def test_builtins_are_valid(self):
        for name, obj in sc.builtin_scenarios().items():
            assert sc.validate_scenario(json.loads(json.dumps(obj)))["name"] == name

    @pytest.mark.parametrize("name", LIGHT_BUILTINS)
    def test_light_builtins_pass(self, name):
        rep = sc.run_scenario(sc.builtin_scenarios()[name])
        assert rep["passed"], rep["expected_checks"]
        assert rep["converged"]

    @pytest.mark.parametrize("b_dim", [3, 4])
    def test_lfocc_ceiling_other_b_dims(self, b_dim):
        obj = json.loads(json.dumps(sc.builtin_scenarios()["lfocc_certification_ceiling"]))
        obj["inputs"].update(b_dim=b_dim, n_protocols=4)
        rep = sc.run_scenario(obj)
        assert rep["passed"], rep["expected_checks"]

    def test_lfocc_ceiling_is_one_solve_with_its_certificate(self, monkeypatch):
        # the diagonal ceiling depends on no protocol: one solve serves all 25
        solve, calls = ct.hypothesis_testing, []
        monkeypatch.setattr(ct, "hypothesis_testing",
                            lambda *a, **k: calls.append(k["restrict"]) or solve(*a, **k))
        rep = sc.run_scenario(sc.builtin_scenarios()["lfocc_certification_ceiling"])
        assert rep["passed"] and rep["converged"]
        assert calls == ["diagonal"]
        (cert,) = rep["certificates"]
        assert cert["value"] == rep["results"]["ceiling"]
        assert cert["converged"] and cert["upper_bound"] - cert["lower_bound"] == 0.0
        assert cert["extras"]["stop"] == "gap" and cert["iterations"] > 0

    def test_deterministic_replay(self):
        obj = sc.builtin_scenarios()["hypothesis_floor"]
        first = sc.run_scenario(obj)
        second = sc.run_scenario(obj)
        strip = lambda r: json.dumps(
            {k: v for k, v in r.items() if k != "wall_time_s"}, sort_keys=True
        )
        assert strip(first) == strip(second)

    def test_seed_override_recorded(self):
        rep = sc.run_scenario(sc.builtin_scenarios()["hypothesis_floor"], seed_override=123)
        assert rep["seed"] == 123

    def test_unknown_kind_rejected(self):
        with pytest.raises(sc.ScenarioError):
            sc.validate_scenario({"name": "x", "kind": "nope", "inputs": {}})

    def test_missing_inputs_rejected(self):
        with pytest.raises(sc.ScenarioError):
            sc.validate_scenario({"name": "x", "kind": "divergence"})

    def test_expected_path_must_exist(self):
        obj = {
            "name": "bad-path",
            "kind": "divergence",
            "inputs": {"state": "plus", "theory": {"kind": "incoherent", "dim": 2}},
            "params": {"seed": 0},
            "expected": [{"path": "results.missing", "op": "approx", "target": 0}],
        }
        with pytest.raises(sc.ScenarioError):
            sc.run_scenario(obj)

    def test_custom_scenario_from_literals(self):
        from hetres.qcore import mat_to_json
        import numpy as np

        obj = {
            "name": "literal-state",
            "kind": "divergence",
            "inputs": {
                "state": {"matrix": mat_to_json(np.eye(2) / 2)},
                "theory": {"kind": "incoherent", "dim": 2},
            },
            "params": {"seed": 0},
            "expected": [{"path": "value", "op": "approx", "target": 0.0, "tol": 1e-9}],
        }
        assert sc.run_scenario(obj)["passed"]


class TestCli:
    def test_run_builtin(self, capsys):
        assert main(["run", "coherence_golden_unit"]) == 0
        out = capsys.readouterr().out
        report = json.loads(out)
        assert report["passed"] is True

    def test_run_unknown_is_schema_error(self, capsys):
        assert main(["run", "does_not_exist"]) == 2

    def test_run_corrupt_file_is_schema_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        assert main(["run", str(bad)]) == 2

    def test_nonconvergence_exit_code(self, tmp_path, capsys):
        # an evaluated regularization is an estimate that never reports converged
        scen = {
            "name": "never-certified",
            "kind": "divergence",
            "inputs": {"state": "plus", "theory": {"kind": "incoherent", "dim": 2},
                       "which": "regularized"},
            "params": {"seed": 0, "mode": "evaluate-n", "n": 2},
            "expected": [],
        }
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(scen))
        code = main(["run", str(path)])
        assert code == 3
        # the partial report was still emitted
        report = json.loads(capsys.readouterr().out)
        assert report["converged"] is False

    def test_describe(self, capsys):
        assert main(["describe", "hypothesis_floor"]) == 0
        out = capsys.readouterr().out
        assert "hypothesis_floor" in out and "expected:" in out

    def test_export_and_suite_subset(self, tmp_path, capsys):
        exp_dir = tmp_path / "all"
        assert main(["export", str(exp_dir)]) == 0
        capsys.readouterr()
        sub = tmp_path / "sub"
        sub.mkdir()
        for name in LIGHT_BUILTINS:
            (sub / f"{name}.json").write_text((exp_dir / f"{name}.json").read_text())
        out_file = tmp_path / "summary.json"
        assert main(["suite", str(sub), "--out", str(out_file)]) == 0
        summary = json.loads(out_file.read_text())
        assert summary["all_passed"] and summary["n_scenarios"] == len(LIGHT_BUILTINS)

    def test_suite_matches_the_golden_report(self, tmp_path, capsys):
        """Every built-in scenario's report equals the committed one without
        its wall time.  A change that moves a number on purpose rewrites the
        file (``hetres export DIR``, ``hetres suite DIR --out FILE``, each
        report's ``wall_time_s`` dropped) and says so in CHANGES.md."""
        assert main(["export", str(tmp_path / "all")]) == 0
        out_file = tmp_path / "summary.json"
        assert main(["suite", str(tmp_path / "all"), "--out", str(out_file)]) == 0
        got = json.loads(out_file.read_text())
        for report in got["reports"]:
            del report["wall_time_s"]
        assert _mismatches(got, json.loads(GOLDEN_SUITE.read_text())) == []

    def test_empty_suite_ok(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["suite", str(empty), "--out", str(tmp_path / "s.json")]) == 0
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["n_scenarios"] == 0

    def test_suite_with_corrupt_file(self, tmp_path, capsys):
        d = tmp_path / "d"
        d.mkdir()
        (d / "bad.json").write_text("{{{")
        assert main(["suite", str(d)]) == 2

    def test_suite_with_unknown_state_is_schema_error(self, tmp_path, capsys):
        # the file is schema-valid; the state name fails only when it runs
        scen = {
            "name": "unknown-state",
            "kind": "divergence",
            "inputs": {"state": "no_such_state", "theory": {"kind": "incoherent", "dim": 2}},
            "params": {"seed": 0},
            "expected": [],
        }
        d = tmp_path / "d"
        d.mkdir()
        (d / "scen.json").write_text(json.dumps(scen))
        assert main(["run", str(d / "scen.json")]) == 2
        run_err = capsys.readouterr().err
        assert run_err.startswith("error: unknown state")
        assert main(["suite", str(d)]) == 2
        assert capsys.readouterr().err == run_err

    def test_failing_expectation_nonzero(self, tmp_path, capsys):
        scen = {
            "name": "wrong-expectation",
            "kind": "divergence",
            "inputs": {"state": "plus", "theory": {"kind": "incoherent", "dim": 2}},
            "params": {"seed": 0},
            "expected": [{"path": "value", "op": "approx", "target": 2.0, "tol": 1e-6}],
        }
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(scen))
        assert main(["run", str(path)]) == 1

    def test_csv_format(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["run", "coherence_golden_unit", "--format", "csv", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("scenario,key,value")
        assert "coherence_golden_unit,value," in text

    def test_suite_csv_format(self, tmp_path, capsys):
        sub = tmp_path / "sub"
        sub.mkdir()
        exp_dir = tmp_path / "all"
        main(["export", str(exp_dir)])
        capsys.readouterr()
        for name in ("coherence_golden_unit", "hypothesis_floor"):
            (sub / f"{name}.json").write_text((exp_dir / f"{name}.json").read_text())
        out = tmp_path / "s.csv"
        assert main(["suite", str(sub), "--format", "csv", "--out", str(out)]) == 0
        text = out.read_text()
        assert "coherence_golden_unit,passed,True" in text
        assert "hypothesis_floor,passed,True" in text

    def test_describe_every_builtin(self, capsys):
        for name in sc.builtin_scenarios():
            assert main(["describe", name]) == 0
            out = capsys.readouterr().out
            assert name in out

    def test_gap_override(self, capsys):
        assert main(["run", "entanglement_golden_unit", "--gap", "5e-3"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["passed"]


def test_report_embeds_certificates_and_version():
    rep = sc.run_scenario(sc.builtin_scenarios()["coherence_golden_unit"])
    assert rep["version"]
    assert rep["certificates"]
    assert all("value" in c for c in rep["certificates"])
    assert not math.isnan(rep["wall_time_s"])


def _mismatches(got, want, path="$"):
    """The paths where a report differs from the golden one: a float by more
    than 1e-9 absolute plus 1e-9 relative, anything else (verdicts, modes,
    counts, details such as "states checked: n") by any change."""
    if isinstance(want, float) and isinstance(got, float):
        return [] if math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9) else [path]
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [p for k in want for p in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in _mismatches(g, w, f"{path}[{i}]")]
    return [] if type(got) is type(want) and got == want else [path]
