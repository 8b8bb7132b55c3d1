"""Tests for repro.analysis.flow: the interprocedural analysis layer.

Four layers of coverage:

- fixtures: every flow rule has at least one positive it catches and one
  near-miss it must ignore, plus a cross-module case only the summary
  fixpoint can see;
- the machinery: SARIF reporter, `--graph` export, entropy-source
  extensions to the determinism rules;
- the self-scan regression: zero unbaselined flow findings on `src/repro`
  (the serve `stop()` race and the stale layer grants are FIXED, and must
  stay fixed);
- determinism + budget: two consecutive runs are byte-identical and the
  whole-program pass fits the CI wall-time budget.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import ProjectRule, all_rules, analyze_paths
from repro.analysis.cli import main as lint_main
from repro.analysis.finding import FindingStatus
from repro.analysis.flow.graph import build_graph, render_graph
from repro.analysis.report import render_json, render_sarif

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "analysis_fixtures"

FLOW_RULE_IDS = sorted(
    rule.id for rule in all_rules() if isinstance(rule, ProjectRule)
)

# (fixture files scanned together) -> expected flow findings (rule, path)
FLOW_FIXTURES = {
    ("flow_secret_escape.py",): [
        ("flow-secret-escape", "flow_secret_escape.py")
    ],
    ("flow_secret_escape_ok.py",): [],
    ("flow_cross_tcb.py", "flow_cross_leak.py"): [
        ("flow-secret-escape", "flow_cross_leak.py")
    ],
    ("flow_exception_containment.py",): [
        ("flow-exception-containment", "flow_exception_containment.py")
    ],
    ("flow_exception_containment_ok.py",): [],
    ("flow_drift_a.py", "flow_drift_b.py"): [
        ("flow-layer-drift", "flow_drift_a.py")
    ],
    ("flow_drift_used.py", "flow_drift_b.py"): [],
}

# The key TCB: every module `sec-key-containment` lets hold keys and cipher
# primitives. Both pins move only on purpose, with a CHANGES.md line.
KEY_TCB_MODULES = [
    "repro.core.attestation",
    "repro.core.cipher_engine",
    "repro.core.fde",
    "repro.core.functional_mee",
    "repro.core.integrity",
    "repro.core.key_management",
    "repro.core.secure_boot",
    "repro.crypto",
    "repro.crypto.aes",
    "repro.crypto.mac",
    "repro.crypto.prng",
    "repro.crypto.trivium_fast",
    "repro.serve.session",
]
KEY_TCB_MAX_LINES = 1757  # measured when the Merkle tree declared its checkpoint STATE


def scan(*names):
    return analyze_paths([FIXTURES / n for n in names], root=FIXTURES)


def flow_findings(result):
    return [
        f for f in result.findings
        if f.rule in FLOW_RULE_IDS and f.status is FindingStatus.NEW
    ]


class TestFlowFixtures:
    @pytest.mark.parametrize(
        "names,expected",
        sorted(FLOW_FIXTURES.items()),
        ids=["+".join(k) for k in sorted(FLOW_FIXTURES)],
    )
    def test_fixture_flow_findings(self, names, expected):
        result = scan(*names)
        got = [(f.rule, f.path) for f in flow_findings(result)]
        assert got == expected

    def test_every_flow_rule_has_positive_and_near_miss(self):
        fired = {rule for hits in FLOW_FIXTURES.values() for rule, _ in hits}
        assert fired == set(FLOW_RULE_IDS)
        # every rule with a positive also has a scan that stays silent
        assert any(not hits for hits in FLOW_FIXTURES.values())

    def test_secret_escape_defeats_name_heuristic_only(self):
        """The positive is invisible to the old name-based rule."""
        result = scan("flow_secret_escape.py")
        assert [f.rule for f in result.findings] == ["flow-secret-escape"]
        message = result.findings[0].message
        assert "session_key" in message  # the origin is named in the report

    def test_containment_near_miss_uses_interprocedural_reachability(self):
        """escalate() -> throw_out_tee() is only visible to the fixpoint."""
        result = scan("flow_exception_containment_ok.py")
        assert flow_findings(result) == []
        # the broad except itself is waived, not silently ignored
        statuses = {f.rule: f.status for f in result.findings}
        assert statuses.get("sec-broad-except") is FindingStatus.SUPPRESSED


class TestEntropyRules:
    """Satellite: det-import-random covers secrets/os.urandom/uuid4."""

    @pytest.mark.parametrize(
        "snippet",
        [
            "import secrets\n",
            "from secrets import token_bytes\n",
            "import os\nx = os.urandom(16)\n",
            "import uuid\nx = uuid.uuid4()\n",
            "from uuid import uuid4\n",
        ],
    )
    def test_entropy_source_is_flagged(self, tmp_path, snippet):
        victim = tmp_path / "victim.py"
        victim.write_text(snippet)
        result = analyze_paths([victim], root=tmp_path)
        fired = [f.rule for f in result.findings]
        assert fired == ["det-import-random"], snippet

    def test_plain_os_and_uuid_imports_are_fine(self, tmp_path):
        victim = tmp_path / "victim.py"
        victim.write_text("import os\nimport uuid\np = os.sep\n")
        result = analyze_paths([victim], root=tmp_path)
        assert result.findings == []


class TestSarifReporter:
    def test_sarif_shape_and_determinism(self, tmp_path):
        victim = tmp_path / "victim.py"
        victim.write_text("import secrets\n")
        result = analyze_paths([victim], root=tmp_path)
        rendered = render_sarif(result.findings, result.files_scanned)
        assert rendered == render_sarif(result.findings, result.files_scanned)
        payload = json.loads(rendered)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert set(FLOW_RULE_IDS) <= rule_ids
        (sarif_result,) = run["results"]
        assert sarif_result["ruleId"] == "det-import-random"
        assert sarif_result["level"] == "error"
        region = sarif_result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 1

    def test_suppressed_findings_become_sarif_suppressions(self):
        result = scan("flow_exception_containment_ok.py")
        payload = json.loads(
            render_sarif(result.findings, result.files_scanned)
        )
        suppressed = [
            r for r in payload["runs"][0]["results"] if "suppressions" in r
        ]
        assert suppressed, "waived finding must carry a SARIF suppression"
        assert all(r["level"] == "note" for r in suppressed)

    def test_cli_sarif_format(self, tmp_path, capsys):
        victim = tmp_path / "victim.py"
        victim.write_text("import random\n")
        code = lint_main([str(victim), "--no-baseline", "--format", "sarif"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"]


class TestGraphExport:
    def test_graph_reports_drift_sets(self):
        result = analyze_paths(
            [FIXTURES / "flow_drift_a.py", FIXTURES / "flow_drift_b.py"],
            root=FIXTURES,
            need_project=True,
        )
        graph = build_graph(result.project.index)
        assert "flash -> crypto" in graph["layers"]["unused_grants"]

    def test_cli_graph_export(self, tmp_path, capsys):
        out = tmp_path / "graph.json"
        code = lint_main(
            [
                str(FIXTURES / "flow_cross_tcb.py"),
                str(FIXTURES / "flow_cross_leak.py"),
                "--no-baseline",
                "--root", str(FIXTURES),
                "--graph", str(out),
            ]
        )
        assert code == 1  # the cross-module leak still fails the lint
        capsys.readouterr()
        graph = json.loads(out.read_text())
        assert graph["version"] == 2
        callers = graph["call_graph"][
            "repro.core.fixture_flow_caller.report"
        ]
        assert "repro.core.fixture_flow_tcb.stretch" in callers


    def test_container_receivers_take_no_same_name_edge(self):
        result = analyze_paths(
            [FIXTURES / "flow_container_receiver.py"], root=FIXTURES, need_project=True
        )
        calls = build_graph(result.project.index)["call_graph"]
        fixture = "repro.core.fixture_containers."
        assert fixture + "read_state" not in calls  # `state: dict`
        assert fixture + "Holder.dump" not in calls  # `self.store = {}`
        assert calls[fixture + "untyped_items"] == [fixture + "Table.items"]
        assert calls[fixture + "Holder.lookup"] == [fixture + "Memo.get"]


class TestSelfScan:
    """The gates CI enforces for the whole-program pass.

    ``src_scan`` and ``src_rescan`` (tests/conftest.py) are two independent
    whole-``src`` scans with the committed baseline, shared across modules.
    """

    def test_zero_unbaselined_flow_findings_on_src(self, src_scan):
        """Regression pin: the serve stop() race and the stale layer grants
        are fixed; new flow findings on src must be fixed, not baselined."""
        offenders = [
            f"{f.path}:{f.line}: {f.rule}: {f.message}"
            for f in flow_findings(src_scan.result)
        ]
        assert offenders == [], "\n".join(offenders)

    def test_flow_pass_is_deterministic_and_within_budget(self, src_scan, src_rescan):
        elapsed = src_scan.seconds + src_rescan.seconds
        assert elapsed < 30.0, "flow pass blew the CI lint budget"
        first, second = src_scan.result, src_rescan.result
        first_json = render_json(first.findings, first.files_scanned)
        second_json = render_json(second.findings, second.files_scanned)
        assert first_json == second_json  # byte-identical double run

    def test_graph_export_is_deterministic_and_drift_free(self, src_scan, src_rescan):
        a = render_graph(src_scan.result.project.index)
        b = render_graph(src_rescan.result.project.index)
        assert a == b
        graph = json.loads(a)
        assert graph["layers"]["unused_grants"] == []
        assert graph["layers"]["undocumented"] == []
        # the taint engine resolved real cross-layer edges, not nothing
        assert len(graph["call_graph"]) > 100

    def test_key_tcb_is_pinned(self, src_scan):
        graph = build_graph(src_scan.result.project.index)
        assert graph["key_tcb"]["modules"] == KEY_TCB_MODULES
        assert graph["key_tcb"]["lines"] <= KEY_TCB_MAX_LINES
        # the timing MEE sits outside the TCB: no cipher, MAC or tree import
        assert not [
            target for target in graph["modules"]["repro.core.mee"]
            if target.startswith("repro.crypto") or target == "repro.core.integrity"
        ]
