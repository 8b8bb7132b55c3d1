"""Tests for repro.analysis: the determinism/security/sim-time lint suite.

Three layers of coverage:

- fixture snippets under ``tests/analysis_fixtures/`` where every rule must
  fire exactly once (and clean/suppressed fixtures must stay silent);
- the machinery: suppression comments, the content-addressed baseline, the
  JSON reporter against a committed golden file, CLI exit codes;
- the self-scan: ``repro lint src/`` must be clean modulo the committed
  baseline — the same gate CI enforces.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import ProjectRule, all_rules, analyze_paths
from repro.analysis.baseline import Baseline
from repro.analysis.cli import main as lint_main
from repro.analysis.finding import FindingStatus, UNJUSTIFIED_SUPPRESSION_RULE
from repro.analysis.report import render_json
from repro.cli import main as repro_main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "analysis_fixtures"

# fixture file -> the one rule it must trip, exactly once
RULE_FIXTURES = {
    "det_import_random.py": "det-import-random",
    "det_import_random_search.py": "det-import-random",
    "det_wallclock.py": "det-wallclock",
    "det_id_order.py": "det-id-order",
    "det_unordered_iter.py": "det-unordered-iter",
    "perf_hot_loop_alloc.py": "perf-hot-loop-alloc",
    "sec_layering.py": "sec-layering",
    "sec_key_containment.py": "sec-key-containment",
    "sec_key_containment_serve.py": "sec-key-containment",
    "sec_key_containment_stats.py": "sec-key-containment",
    "sec_key_containment_loop.py": "sec-key-containment",
    "sec_boundary_bypass.py": "sec-boundary-bypass",
    "sim_float_eq.py": "sim-float-eq",
    "sim_private_mutation.py": "sim-private-mutation",
    "resilience_unbounded_retry.py": "resilience-unbounded-retry",
    "recovery_unserialized_state.py": "recovery-unserialized-state",
    "fleet_unseeded_topology.py": "det-unseeded-path",
    "search_unseeded_randomness.py": "det-unseeded-path",
    # whole-program rules on single-finding inputs: a secret-named
    # parameter, local, attribute or serve key reaching a sink, and a
    # swallowing broad except outside the enclave packages
    "sec_telemetry_leak.py": "flow-secret-escape",
    "serve_session_key_leak.py": "flow-secret-escape",
    "flow_secret_escape_local.py": "flow-secret-escape",
    "flow_secret_escape_attr.py": "flow-secret-escape",
    "sec_broad_except.py": "flow-exception-containment",
    "flow_exception_containment_fleet.py": "flow-exception-containment",
    # ... from every scope: a closure, a lambda, a nested class's method, a
    # def under a module-level `try`, a getter beside its setter, a
    # decorator argument, a callee expression, a call to a closure
    "flow_secret_escape_closure.py": "flow-secret-escape",
    "flow_secret_escape_lambda.py": "flow-secret-escape",
    "flow_secret_escape_nested_class.py": "flow-secret-escape",
    "flow_secret_escape_branch_def.py": "flow-secret-escape",
    "flow_secret_escape_getter.py": "flow-secret-escape",
    "flow_secret_escape_decorator.py": "flow-secret-escape",
    "flow_secret_escape_callee.py": "flow-secret-escape",
    "flow_secret_escape_closure_call.py": "flow-secret-escape",
    "flow_exception_containment_closure.py": "flow-exception-containment",
}


def scan(path: Path, **kwargs):
    return analyze_paths([path], root=FIXTURES, **kwargs)


class TestRuleFixtures:
    @pytest.mark.parametrize(
        "fixture,rule", sorted(RULE_FIXTURES.items()), ids=sorted(RULE_FIXTURES)
    )
    def test_rule_fires_exactly_once(self, fixture, rule):
        result = scan(FIXTURES / fixture)
        fired = [f.rule for f in result.findings]
        assert fired == [rule]
        assert result.findings[0].status is FindingStatus.NEW
        assert result.exit_code == 1

    def test_recovery_rule_checks_annotated_attributes(self):
        result = scan(FIXTURES / "recovery_unserialized_annotated.py")
        fired = [(f.rule, f.line_text) for f in result.findings]
        assert fired == [("recovery-unserialized-state", "self.pending: List[int] = []")]

    def test_recovery_rule_reads_declared_state(self):
        result = scan(FIXTURES / "recovery_unserialized_declared.py")
        fired = [(f.rule, f.line_text) for f in result.findings]
        assert fired == [("recovery-unserialized-state", "self.misses = 0")]

    def test_key_stored_in_stats_is_one_finding(self, tmp_path):
        """In the stats module each secret name is one finding, however it
        is bound: an assignment, tuple unpacking or a loop target."""
        victim = tmp_path / "victim.py"
        victim.write_text(
            "# analysis-module: repro.sim.stats\n"
            "aes_key = b''\n"
            "otp = b''\n"
            "aes_key, mac_key = b'', b''\n"
            "for session_key in ():\n"
            "    pass\n"
        )
        fired = [(f.rule, f.line) for f in analyze_paths([victim], root=tmp_path).findings]
        assert fired == [("sec-key-containment", line) for line in (2, 3, 4, 4, 5)]

    def test_every_registered_rule_has_a_fixture(self):
        # project-level (interprocedural) rules have their own fixture map
        # in tests/test_analysis_flow.py; a rule may have several fixtures
        module_rules = {r.id for r in all_rules() if not isinstance(r, ProjectRule)}
        assert module_rules <= set(RULE_FIXTURES.values()) <= {r.id for r in all_rules()}

    def test_every_rule_family_is_covered(self):
        families = {r.family for r in all_rules()}
        assert families == {
            "determinism",
            "flow",
            "perf",
            "recovery",
            "resilience",
            "security-flow",
            "sim-time",
        }
        for rule in all_rules():
            assert rule.summary and rule.rationale

    def test_clean_fixture_has_no_findings(self):
        result = scan(FIXTURES / "clean.py")
        assert result.findings == []
        assert result.exit_code == 0


class TestSuppressions:
    def test_justified_suppression_is_clean(self):
        result = scan(FIXTURES / "suppressed_ok.py")
        assert result.exit_code == 0
        statuses = [f.status for f in result.findings]
        assert statuses == [FindingStatus.SUPPRESSED]
        assert "justified waivers" in result.findings[0].justification

    def test_unjustified_suppression_is_a_finding(self):
        result = scan(FIXTURES / "unjustified_suppression.py")
        assert result.exit_code == 1
        by_rule = {f.rule: f.status for f in result.findings}
        # the waiver still silences the import, but is itself reported
        assert by_rule["det-import-random"] is FindingStatus.SUPPRESSED
        assert by_rule[UNJUSTIFIED_SUPPRESSION_RULE] is FindingStatus.NEW


class TestBaseline:
    def test_baseline_absorbs_then_releases_on_edit(self, tmp_path):
        victim = tmp_path / "victim.py"
        victim.write_text("import random\n")
        first = analyze_paths([victim], root=tmp_path)
        assert first.exit_code == 1

        baseline = Baseline.from_findings(first.new_findings)
        baseline_path = tmp_path / "baseline.json"
        baseline.save(baseline_path)

        absorbed = analyze_paths(
            [victim], root=tmp_path, baseline=Baseline.load(baseline_path)
        )
        assert absorbed.exit_code == 0
        assert [f.status for f in absorbed.findings] == [FindingStatus.BASELINED]

        # line content changed -> the baseline entry no longer matches
        victim.write_text("import random as rnd\n")
        changed = analyze_paths(
            [victim], root=tmp_path, baseline=Baseline.load(baseline_path)
        )
        assert changed.exit_code == 1

    def test_baseline_counts_cap_absorption(self, tmp_path):
        victim = tmp_path / "victim.py"
        victim.write_text("import random\n")
        baseline = Baseline.from_findings(
            analyze_paths([victim], root=tmp_path).new_findings
        )
        # two identical findings, one baseline slot: the second stays new
        victim.write_text("import random\nimport random\n")
        result = analyze_paths([victim], root=tmp_path, baseline=baseline)
        statuses = sorted(f.status.value for f in result.findings)
        assert statuses == ["baselined", "new"]

    def test_baseline_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError):
            Baseline.load(path)


class TestGoldenReport:
    def test_json_report_matches_golden(self):
        result = scan(FIXTURES / "golden_input.py")
        rendered = render_json(result.findings, result.files_scanned)
        golden = (FIXTURES / "golden_report.json").read_text()
        assert json.loads(rendered) == json.loads(golden)
        assert rendered == golden  # byte-identical: the reporter is deterministic


class TestCli:
    def test_lint_subcommand_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        assert repro_main(["lint", str(clean), "--no-baseline"]) == 0
        assert repro_main(["lint", str(dirty), "--no-baseline"]) == 1
        assert repro_main(["lint", str(tmp_path / "absent.py")]) == 2
        capsys.readouterr()

    def test_json_format_and_list_rules(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        assert lint_main([str(dirty), "--no-baseline", "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["new"] == 1
        assert lint_main(["--list-rules"]) == 0
        listing = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in listing

    def test_update_baseline_round_trip(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import random\n")
        baseline_path = tmp_path / "baseline.json"
        args = [str(dirty), "--baseline", str(baseline_path), "--root", str(tmp_path)]
        assert lint_main(args + ["--update-baseline"]) == 0
        assert lint_main(args) == 0
        capsys.readouterr()

    def test_parse_error_fails_lint(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def oops(:\n")
        assert lint_main([str(broken), "--no-baseline"]) == 1
        assert "meta-parse-error" in capsys.readouterr().out


class TestSelfScan:
    """The gate CI enforces: the real tree is clean modulo the baseline.

    ``src_scan`` (tests/conftest.py) is one whole-``src`` scan with the
    committed baseline, shared with ``test_analysis_flow.py``.
    """

    def test_src_is_clean_modulo_committed_baseline(self, src_scan):
        result = src_scan.result
        offenders = [
            f"{f.path}:{f.line}: {f.rule}: {f.message}" for f in result.new_findings
        ]
        assert offenders == [], "\n".join(offenders)

    def test_committed_baseline_is_not_stale(self, src_scan):
        """Every baseline entry still matches a real finding (no dead weight)."""
        baselined = sum(
            1 for f in src_scan.result.findings if f.status is FindingStatus.BASELINED
        )
        assert baselined == src_scan.baseline.total()

    def test_intentional_waivers_are_justified(self, src_scan):
        """The recovery-state waivers all carry a reason."""
        result = src_scan.result
        suppressed = [
            f for f in result.findings if f.status is FindingStatus.SUPPRESSED
        ]
        assert len(suppressed) >= 3
        assert all(f.justification for f in suppressed)
