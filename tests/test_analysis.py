"""Tests for repro.analysis — the determinism lint engine.

The fixture files under ``tests/analysis_fixtures/`` are scanned, never
imported; each planted violation carries a trailing ``EXPECT[RULE]``
marker, and the tests below require the linter's findings to match the
marker table *exactly* — every planted bug caught, nothing flagged on
the clean/sanctioned fixtures.

The meta-test at the bottom runs the full pack over the real ``src/``
tree against the committed ``lint_baseline.json``: tier-1 fails on any
non-baselined finding even without CI.
"""

import json
import re
from pathlib import Path

import pytest

from repro.analysis import run_lint, update_baseline
from repro.analysis.baseline import BASELINE_NAME, Baseline, find_baseline
from repro.analysis.engine import all_rules, default_target
from repro.analysis.model import pragma_allows
from repro.analysis.rules import LintConfig
from repro.analysis.taint import build_call_graph
from repro.analysis.visitor import Project
from repro.cli import main

FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).resolve().parent.parent
EXPECT = re.compile(r"EXPECT\[([A-Z0-9]+)\]")

RULE_IDS = tuple(rule.rule_id for rule in all_rules())


def _expected_findings():
    """(relpath, line, rule) per EXPECT marker, as a sorted multiset."""
    expected = []
    for path in sorted(FIXTURES.rglob("*.py")):
        relpath = path.relative_to(FIXTURES).as_posix()
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            for rule_id in EXPECT.findall(line):
                expected.append((relpath, lineno, rule_id))
    return sorted(expected)


@pytest.fixture(scope="module")
def fixture_result():
    # baseline=False: never let the repo's own lint_baseline.json (found
    # by walking up from tests/) absorb or stale-flag fixture findings
    return run_lint([FIXTURES], baseline=False)


class TestRulePack:
    def test_rule_pack_is_complete(self):
        assert RULE_IDS == (
            "CKP001", "DET001", "DET002", "DET003", "DET004", "RES001",
        )

    def test_fixture_findings_match_markers_exactly(self, fixture_result):
        actual = sorted(
            (f.path, f.line, f.rule) for f in fixture_result.findings
        )
        assert actual == _expected_findings()

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_each_rule_catches_its_planted_fixtures(
        self, rule_id, fixture_result
    ):
        expected = [e for e in _expected_findings() if e[2] == rule_id]
        assert expected, f"no planted fixture for {rule_id}"
        actual = sorted(
            (f.path, f.line, f.rule)
            for f in fixture_result.findings
            if f.rule == rule_id
        )
        assert actual == expected

    def test_findings_carry_location_and_hint(self, fixture_result):
        for finding in fixture_result.findings:
            assert re.match(r".+\.py:\d+$", finding.location())
            assert finding.hint
            assert finding.snippet

    def test_clean_fixture_is_silent(self, fixture_result):
        assert not [
            f for f in fixture_result.findings if f.path == "clean.py"
        ]

    def test_sanctioned_rng_module_is_exempt(self, fixture_result):
        # path suffix sim/rng.py is the one sanctioned RNG home
        assert not [
            f for f in fixture_result.findings if f.path == "sim/rng.py"
        ]


class TestPragmas:
    def test_pragma_parses(self):
        assert pragma_allows("t = time.time()  # lint: allow[DET002] why") \
            == frozenset({"DET002"})
        assert pragma_allows("# lint: allow[DET001, DET004]") \
            == frozenset({"DET001", "DET004"})
        assert pragma_allows("# lint: allow[*] escape hatch") \
            == frozenset({"*"})
        assert pragma_allows("x = 1  # a normal comment") == frozenset()

    def test_fixture_pragma_suppresses(self, fixture_result):
        # det002_wallclock.py sanctions one perf_counter read inline
        assert fixture_result.suppressed >= 1
        sanctioned_line = [
            line
            for line in (FIXTURES / "det002_wallclock.py").read_text().splitlines()
            if "lint: allow[DET002]" in line
        ]
        assert len(sanctioned_line) == 1

    def test_pragma_on_line_above(self, tmp_path):
        bad = tmp_path / "mod.py"
        bad.write_text(
            "import numpy as np\n"
            "\n"
            "def draw():\n"
            "    # lint: allow[DET001] reviewed\n"
            "    return np.random.default_rng()\n"
        )
        result = run_lint([bad], baseline=False)
        assert result.findings == []
        assert result.suppressed == 1


BAD_MODULE = (
    "import numpy as np\n"
    "\n"
    "def draw():\n"
    "    return np.random.default_rng()\n"
)


class TestBaseline:
    def test_round_trip(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(BAD_MODULE)
        baseline_path = tmp_path / BASELINE_NAME

        refreshed, recorded = update_baseline(
            [mod], baseline_path=baseline_path
        )
        assert baseline_path.exists()
        assert len(recorded.findings) == 1

        # same findings, now absorbed
        result = run_lint([mod], baseline=baseline_path)
        assert result.new == []
        assert len(result.baselined) == 1
        assert result.stale == {}
        assert result.gate_failures() == 0

    def test_fingerprints_survive_line_moves(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(BAD_MODULE)
        baseline_path = tmp_path / BASELINE_NAME
        update_baseline([mod], baseline_path=baseline_path)

        # shift the violation down: the baseline entry must still match
        mod.write_text("# a new leading comment\n\n" + BAD_MODULE)
        result = run_lint([mod], baseline=baseline_path)
        assert result.new == []
        assert len(result.baselined) == 1

    def test_new_finding_gates(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(BAD_MODULE)
        baseline_path = tmp_path / BASELINE_NAME
        update_baseline([mod], baseline_path=baseline_path)

        mod.write_text(BAD_MODULE + "\ndef extra():\n    return np.random.normal()\n")
        result = run_lint([mod], baseline=baseline_path)
        assert len(result.new) == 1
        assert result.new[0].context == "extra"
        assert result.gate_failures() == 1

    def test_fixed_finding_goes_stale(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text(BAD_MODULE)
        baseline_path = tmp_path / BASELINE_NAME
        update_baseline([mod], baseline_path=baseline_path)

        mod.write_text("def draw(rng):\n    return rng.random()\n")
        result = run_lint([mod], baseline=baseline_path)
        assert result.new == []
        assert len(result.stale) == 1
        # lenient gate passes; --check (strict) forces the burn-down
        assert result.gate_failures(strict=False) == 0
        assert result.gate_failures(strict=True) == 1

    def test_find_baseline_walks_up(self, tmp_path):
        (tmp_path / BASELINE_NAME).write_text(json.dumps({
            "_comment": "test", "schema": 1, "entries": {},
        }))
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        assert find_baseline(nested) == tmp_path / BASELINE_NAME
        assert find_baseline(tmp_path / "a" / "mod.py") \
            == tmp_path / BASELINE_NAME

    def test_baseline_save_is_sorted_and_stable(self, tmp_path):
        path = tmp_path / BASELINE_NAME
        Baseline(entries={"b::X": 1, "a::Y": 2}, path=path).save()
        first = path.read_text()
        Baseline(entries={"a::Y": 2, "b::X": 1}, path=path).save()
        assert path.read_text() == first
        keys = list(json.loads(first)["entries"])
        assert keys == sorted(keys)


class TestCli:
    def test_lint_clean_exit_zero(self, capsys):
        rc = main(["lint", str(FIXTURES / "clean.py"), "--no-baseline"])
        assert rc == 0
        assert "0 new" in capsys.readouterr().out

    def test_lint_findings_exit_one(self, capsys):
        rc = main(
            ["lint", str(FIXTURES / "det001_raw_rng.py"), "--no-baseline"]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "det001_raw_rng.py:" in out
        assert "fix:" in out

    def test_lint_parse_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        assert main(["lint", str(bad), "--no-baseline"]) == 2
        assert "parse error" in capsys.readouterr().out

    def test_lint_json_report(self, tmp_path, capsys):
        report = tmp_path / "lint-report.json"
        main([
            "lint", str(FIXTURES / "det004_env.py"),
            "--no-baseline", "--json", str(report),
        ])
        capsys.readouterr()
        payload = json.loads(report.read_text())
        assert payload["schema"] == 1
        assert payload["rule_counts"] == {"DET004": len(payload["new"])}
        assert all(f["rule"] == "DET004" for f in payload["new"])
        assert payload["stale_baseline_entries"] == {}

    def test_lint_rules_catalog(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out

    def test_check_fails_on_stale_baseline(self, tmp_path, capsys):
        mod = tmp_path / "mod.py"
        mod.write_text("def fine():\n    return 1\n")
        baseline_path = tmp_path / BASELINE_NAME
        Baseline(entries={"gone::DET001::f::x": 1}, path=baseline_path).save()
        args = ["lint", str(mod), "--baseline", str(baseline_path)]
        assert main(args) == 0  # lenient: stale debt only warns
        capsys.readouterr()
        assert main(args + ["--check"]) == 1  # CI mode forces burn-down
        assert "stale" in capsys.readouterr().out


class TestRealSource:
    """The acceptance gate, mirrored into tier-1."""

    def test_src_is_clean_or_baselined(self):
        result = run_lint(
            [REPO_ROOT / "src" / "repro"],
            baseline=REPO_ROOT / BASELINE_NAME,
        )
        assert result.parse_errors == []
        new = [f"{f.location()} {f.rule} {f.snippet}" for f in result.new]
        assert new == [], (
            "non-baselined lint findings (fix them, sanction with "
            "# lint: allow[RULE], or record debt via "
            "scripts/lint_baseline.py --update):\n" + "\n".join(new)
        )
        # --check (CI) also fails on stale entries; keep tier-1 aligned
        assert result.stale == {}, (
            f"stale baseline entries (run scripts/lint_baseline.py "
            f"--update): {sorted(result.stale)}"
        )

    def test_full_pack_is_fast(self):
        result = run_lint(
            [REPO_ROOT / "src" / "repro"], baseline=False
        )
        assert result.files > 50
        assert result.duration_seconds < 10.0

    def test_artifact_path_reaches_the_kernel_and_the_controller(self):
        """DET002/DET003 check only what the call graph reaches from the
        artifact entry points; a refactor that cuts these edges would
        silently stop checking the kernel or the control plane."""
        project = Project([REPO_ROOT / "src" / "repro"])
        reachable, _ = build_call_graph(project, LintConfig())
        missing = [
            name for name in (
                "repro.sim.shard.ChannelShard.advance_epoch",
                "repro.vod.multi.MultiChannelSimulator.step",
                "repro.vod.multi.MultiChannelSimulator._deliver_and_complete",
                "repro.vod.delivery.P2PDelivery.allocate",
                "repro.sim.shard.merge_epoch_reports",
                "repro.core.provisioner.ProvisioningController.provision",
                "repro.workload.trace.generate_trace",
                "repro.workload.catalog.build_shard_trace_arrays",
            )
            if name not in reachable
        ]
        assert missing == []

    def test_default_target_is_the_package(self):
        assert default_target().name == "repro"
        assert (default_target() / "analysis" / "engine.py").exists()
