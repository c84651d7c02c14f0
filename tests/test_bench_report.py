"""Unit tests for benchmarks/bench_report.py gate plumbing.

These cover the reference-resolution logic only — the scenarios
themselves run in the benchmark suite, not here.  ``bench_report`` is
loaded straight from the ``benchmarks/`` directory since it is a
script, not part of the installed package.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).parent.parent / "benchmarks" / "bench_report.py"


@pytest.fixture(scope="module")
def bench_report():
    spec = importlib.util.spec_from_file_location("_bench_report", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    saved = sys.modules.get("_bench_report")
    sys.modules["_bench_report"] = module
    spec.loader.exec_module(module)
    yield module
    if saved is None:
        sys.modules.pop("_bench_report", None)
    else:
        sys.modules["_bench_report"] = saved


@pytest.fixture
def bench_dir(bench_report, tmp_path, monkeypatch):
    """Point the module's baseline discovery at an empty directory."""
    monkeypatch.setattr(
        bench_report, "BASELINE_PATH", tmp_path / "BENCH_baseline.json"
    )
    return tmp_path


class TestLatestReference:
    def test_empty_directory_returns_none(self, bench_report, bench_dir):
        assert bench_report.latest_reference() is None

    def test_prefers_newest_numbered_report(self, bench_report, bench_dir):
        (bench_dir / "BENCH_baseline.json").write_text("{}")
        (bench_dir / "BENCH_3.json").write_text("{}")
        (bench_dir / "BENCH_12.json").write_text("{}")
        assert bench_report.latest_reference().name == "BENCH_12.json"

    def test_falls_back_to_baseline(self, bench_report, bench_dir):
        (bench_dir / "BENCH_baseline.json").write_text("{}")
        assert (
            bench_report.latest_reference().name == "BENCH_baseline.json"
        )

    def test_ignores_non_numbered_names(self, bench_report, bench_dir):
        (bench_dir / "BENCH_old.json").write_text("{}")
        assert bench_report.latest_reference() is None

    def test_excludes_the_report_being_written(
        self, bench_report, bench_dir
    ):
        """Gating a fresh report against itself would always pass."""
        (bench_dir / "BENCH_6.json").write_text("{}")
        current = bench_dir / "BENCH_7.json"
        current.write_text("{}")
        assert bench_report.latest_reference().name == "BENCH_7.json"
        assert (
            bench_report.latest_reference(exclude=current).name
            == "BENCH_6.json"
        )

    def test_excluding_only_report_falls_back(
        self, bench_report, bench_dir
    ):
        (bench_dir / "BENCH_baseline.json").write_text("{}")
        current = bench_dir / "BENCH_7.json"
        current.write_text("{}")
        assert (
            bench_report.latest_reference(exclude=current).name
            == "BENCH_baseline.json"
        )


class TestCompare:
    @pytest.mark.parametrize("want, got, regressions", [
        # A zero reference cannot bound growth relatively: past the
        # slack of 1 it is a regression "from 0", not a division by 0.
        (0, 480, ["s.snode_batch_reevals: 480 > 0 (from 0, limit +10%)"]),
        (0, 1, []),
        (100, 150, ["s.snode_batch_reevals: 150 > 100 (+50%, limit +10%)"]),
    ], ids=["zero-reference-grows", "zero-reference-slack", "relative"])
    def test_growth_is_gated(self, bench_report, want, got, regressions):
        def report(value):
            return {"scenarios": {
                "s": {"counters": {"snode_batch_reevals": value}},
            }}

        assert bench_report.compare(report(got), report(want)) == (
            regressions, []
        )


class TestCheckWithoutBaseline:
    @pytest.fixture
    def stub_scenarios(self, bench_report, monkeypatch):
        """Replace the real scenario sweep with an instant stub."""
        report = {"schema": 1, "scenarios": {}}
        monkeypatch.setattr(
            bench_report, "run_scenarios", lambda: report
        )
        monkeypatch.setattr(
            bench_report, "print_report", lambda report: None
        )
        return report

    def test_check_exits_2_with_clear_message(
        self, bench_report, bench_dir, stub_scenarios, capsys, tmp_path
    ):
        out = tmp_path / "out" / "BENCH_X.json"
        out.parent.mkdir()
        code = bench_report.main(["--check", "--output", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "no benchmark baseline found" in captured.err
        assert "--write-baseline" in captured.err

    def test_check_passes_against_written_baseline(
        self, bench_report, bench_dir, stub_scenarios, tmp_path
    ):
        out = tmp_path / "out" / "BENCH_X.json"
        out.parent.mkdir()
        assert bench_report.main(["--write-baseline",
                                  "--output", str(out)]) == 0
        assert bench_report.BASELINE_PATH.exists()
        assert bench_report.main(["--check", "--output", str(out)]) == 0

    def test_report_written_even_when_check_fails(
        self, bench_report, bench_dir, stub_scenarios, tmp_path
    ):
        out = tmp_path / "out" / "BENCH_X.json"
        out.parent.mkdir()
        bench_report.main(["--check", "--output", str(out)])
        assert json.loads(out.read_text())["scenarios"] == {}


class TestCommittedReference:
    def test_newest_reference_matches_the_scenario_set(self, bench_report):
        """``compare`` treats a reference scenario the script no longer
        runs as a regression, so trimming scenarios (the kernel-mode
        runs went with the mode) must come with a fresh committed
        reference under the default output's name."""
        reference = bench_report.latest_reference()
        assert reference.name == bench_report.DEFAULT_OUTPUT.name
        committed = json.loads(reference.read_text())
        assert set(committed["scenarios"]) == set(bench_report.SCENARIOS)
        assert set(committed) == {"schema", "scenarios"}
        assert not any(name.startswith("kernel_") for name in
                       bench_report.SCENARIOS)
