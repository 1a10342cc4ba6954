"""Optimization remarks: golden reasons, negative corpus, differential.

The remark stream is a contract: stable reason codes (repro.obs.remarks
REASONS) anchored to the memory references of the paper's Livermore-5
kernel, and a guarantee that collecting remarks never changes the code
the compiler emits.
"""

import ast
import json
import pathlib

import pytest

from repro.compiler import compile_source
from repro.obs import (
    NULL_REMARKS, NULL_TRACER, REASONS, Remark, RemarkCollector,
    build_explain_report, format_explain_report, get_remark_sink,
    sarif_report, use_remarks,
)
from repro.opt.pipeline import OptOptions

LIVERMORE5 = (pathlib.Path(__file__).resolve().parent.parent
              / "examples" / "livermore5.c").read_text()


def compile_with_remarks(source, options=None):
    collector = RemarkCollector()
    with use_remarks(collector):
        result = compile_source(source, options=options)
    return collector, result


class TestSink:
    def test_null_sink_is_default(self):
        assert get_remark_sink() is NULL_REMARKS
        assert not NULL_REMARKS.enabled

    def test_null_sink_records_nothing(self):
        NULL_REMARKS.emit(Remark("streaming", "applied", "streamed"))
        assert NULL_REMARKS.remarks == []
        assert NULL_REMARKS.position() == 0
        assert NULL_REMARKS.since(0) == []

    def test_use_remarks_restores(self):
        collector = RemarkCollector()
        with use_remarks(collector):
            assert get_remark_sink() is collector
        assert get_remark_sink() is NULL_REMARKS

    def test_collector_validates_kind(self):
        with pytest.raises(ValueError):
            RemarkCollector().emit(
                Remark("streaming", "bogus", "streamed"))

    def test_collector_validates_reason(self):
        with pytest.raises(ValueError):
            RemarkCollector().emit(
                Remark("streaming", "missed", "no-such-code"))

    def test_slicing(self):
        collector = RemarkCollector()
        collector.emit(Remark("licm", "applied", "hoisted"))
        pos = collector.position()
        collector.emit(Remark("dce", "applied", "dead-code-removed"))
        tail = collector.since(pos)
        assert [r.reason for r in tail] == ["dead-code-removed"]

    def test_counts_rollup(self):
        collector = RemarkCollector()
        collector.emit(Remark("streaming", "applied", "streamed"))
        collector.emit(Remark("streaming", "missed", "fifo-pressure"))
        collector.emit(Remark("streaming", "applied", "streamed"))
        assert collector.counts() == {
            "streaming": {"applied": 2, "missed": 1}}


@pytest.fixture(scope="module")
def lloop5():
    return compile_with_remarks(LIVERMORE5)


class TestGoldenLivermore5:
    """The paper's kernel: x[i] = z[i] * (y[i] - x[i-1])."""

    def test_kernel_streams_and_rotation(self, lloop5):
        collector, _ = lloop5
        applied = [r.reason for r in collector.remarks
                   if r.function == "kernel" and r.kind == "applied"]
        assert applied.count("streamed") == 3     # z[i], y[i] in; x[i] out
        assert applied.count("rotated") == 1      # x[i-1]
        assert "loop-test-replaced" in applied
        assert "iv-deleted" in applied

    def test_rotation_degree_one(self, lloop5):
        collector, _ = lloop5
        rotated, = [r for r in collector.remarks
                    if r.function == "kernel" and r.reason == "rotated"]
        assert rotated.args["degree"] == 1
        assert rotated.args["iterations_back"] == 1

    def test_streamed_remarks_carry_fifo_and_stride(self, lloop5):
        collector, _ = lloop5
        for remark in collector.remarks:
            if remark.reason in ("streamed", "streamed-infinite"):
                assert remark.args["fifo"]
                assert remark.args["stride"] != 0
                assert remark.args["direction"] in ("in", "out")
                assert remark.args["vector"] is not None

    def test_design_doc_lists_every_reason_code(self):
        design = (pathlib.Path(__file__).resolve().parent.parent
                  / "DESIGN.md").read_text()
        missing = [code for code in REASONS if f"`{code}`" not in design]
        assert not missing, f"DESIGN.md reason table is stale: {missing}"

    def test_every_reason_code_is_registered(self, lloop5):
        collector, _ = lloop5
        for remark in collector.remarks:
            assert remark.reason in REASONS

    def test_every_registered_reason_has_an_emitter(self):
        # The converse of the check above: a code no source names can
        # never be emitted, so it documents behaviour that does not exist
        src = (pathlib.Path(__file__).resolve().parent.parent
               / "src" / "repro")
        literals = set()
        for path in src.rglob("*.py"):
            if path == src / "obs" / "remarks.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Constant) and \
                        isinstance(node.value, str):
                    literals.add(node.value)
        unused = [code for code in REASONS if code not in literals]
        assert not unused, f"registered but never emitted: {unused}"

    def test_per_function_report_slicing(self, lloop5):
        collector, result = lloop5
        for name, reports in result.reports.items():
            assert reports.remarks, f"no remarks sliced for {name}"
            assert all(r.function == name for r in reports.remarks)
        total = sum(len(r.remarks) for r in result.reports.values())
        assert total == len(collector.remarks)

    def test_full_reference_coverage(self, lloop5):
        """Every memory reference of every loop has a disposition."""
        collector, _ = lloop5
        report = build_explain_report(collector.remarks,
                                      source="livermore5.c")
        kernel_loops = report["functions"]["kernel"]["loops"]
        (loop,) = kernel_loops.values()
        refs = loop["references"]
        assert len(refs) == 4                     # x[i-1], z[i], y[i], x[i]
        for ref in refs:
            assert ref["disposition"]
            assert ref["chain"]
        dispositions = sorted(r["disposition"] for r in refs)
        assert dispositions == ["rotated", "streamed", "streamed",
                                "streamed"]


class TestNegativeCorpus:
    """Rejections carry the sharpest applicable stable code."""

    def test_non_affine_subscript(self):
        collector, _ = compile_with_remarks("""
            double a[100];
            int main(void) {
                int i;
                for (i = 0; i < 10; i++) a[i*i] = 1.0;
                return 0;
            }
        """)
        missed = [r for r in collector.remarks
                  if r.pass_name == "streaming" and r.kind == "missed"]
        assert [r.reason for r in missed] == ["non-constant-scale"]
        analysis = [r.reason for r in collector.remarks
                    if r.kind == "analysis"]
        assert "no-stream-candidates" in analysis

    def test_conditionally_guarded_store(self):
        collector, _ = compile_with_remarks("""
            double a[100];
            int main(void) {
                int i;
                for (i = 0; i < 100; i++) { if (i < 50) a[i] = 1.0; }
                return 0;
            }
        """)
        missed = [r for r in collector.remarks
                  if r.pass_name == "streaming" and r.kind == "missed"]
        assert [r.reason for r in missed] == ["not-every-iteration"]

    UNKNOWN_COUNT = """
        double a[100];
        int main(void) {
            int i; double s;
            s = 0.0; i = 0;
            a[99] = -1.0; a[0] = 1.0;
            while (a[i] > 0.0) { s = s + a[i]; i = i + 1; }
            return (int)s;
        }
    """

    def test_unknown_loop_count_analysis(self):
        collector, _ = compile_with_remarks(self.UNKNOWN_COUNT)
        analysis = [r for r in collector.remarks
                    if r.reason == "unknown-loop-count"]
        assert analysis, "data-dependent exit must be reported"
        assert analysis[0].kind == "analysis"
        assert analysis[0].detail        # says *why* the count is unknown
        # ...and the loads still stream, via infinite streams.
        assert any(r.reason == "streamed-infinite"
                   for r in collector.remarks)

    def test_unknown_count_with_infinite_disallowed(self):
        collector, _ = compile_with_remarks(
            self.UNKNOWN_COUNT,
            options=OptOptions(allow_infinite_streams=False))
        missed = {r.reason for r in collector.remarks
                  if r.kind == "missed" and r.pass_name == "streaming"}
        assert "infinite-disallowed" in missed

    def test_fifo_exhaustion(self):
        collector, _ = compile_with_remarks("""
            double a[100]; double b[100]; double c[100]; double d[100];
            int main(void) {
                int i;
                for (i = 0; i < 100; i++) {
                    a[i] = 1.0; b[i] = 2.0; c[i] = 3.0; d[i] = 4.0;
                }
                return 0;
            }
        """)
        reasons = [r.reason for r in collector.remarks
                   if r.pass_name == "streaming" and r.lno]
        assert reasons.count("streamed") == 1
        assert reasons.count("fifo-pressure") == 3


class TestDifferential:
    """Remarks observe; they must never change the emitted code."""

    @pytest.mark.parametrize("opt", [None, OptOptions.no_streaming(),
                                     OptOptions.baseline()])
    def test_listing_and_cycles_identical(self, opt):
        plain = compile_source(LIVERMORE5, options=opt)
        with use_remarks(RemarkCollector()):
            observed = compile_source(LIVERMORE5, options=opt)
        assert plain.listing() == observed.listing()
        assert plain.simulate().cycles == observed.simulate().cycles

    def test_remarks_off_by_default_after_scope(self):
        with use_remarks(RemarkCollector()):
            pass
        collector, _ = compile_with_remarks(LIVERMORE5)
        assert collector.remarks
        # outside the scope the null sink is back and nothing records
        before = len(NULL_REMARKS.remarks)
        compile_source(LIVERMORE5)
        assert len(NULL_REMARKS.remarks) == before == 0


class TestExplainReport:
    def test_report_structure(self, lloop5):
        collector, _ = lloop5
        report = build_explain_report(collector.remarks,
                                      source="livermore5.c",
                                      target="wm", opt="full",
                                      argv=["repro", "explain"])
        assert set(report["manifest"]) == {
            "repro_version", "compiler_rev", "python", "pythonhashseed",
            "platform", "argv", "cache"}
        assert report["source"] == "livermore5.c"
        assert {"kernel", "main"} <= set(report["functions"])
        assert report["counts"]["streaming"]["applied"] >= 1
        # round-trips through json
        json.dumps(report)

    def test_text_rendering(self, lloop5):
        collector, _ = lloop5
        report = build_explain_report(collector.remarks,
                                      source="livermore5.c")
        text = format_explain_report(report)
        assert "function kernel" in text
        assert "rotated" in text
        assert "streamed" in text

    def test_sarif_rules_and_levels(self, lloop5):
        collector, _ = lloop5
        sarif = sarif_report(collector.remarks, source="livermore5.c")
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        rules = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert rules <= set(REASONS)
        levels = {r["level"] for r in run["results"]}
        assert levels <= {"note", "warning"}
        assert run["properties"]["manifest"]["repro_version"]
        json.dumps(sarif)


class TestMetricsLeak:
    """Back-to-back CLI invocations start from a clean metrics slate."""

    def test_back_to_back_compiles_report_identical_metrics(
            self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "prog.c"
        path.write_text(LIVERMORE5)
        assert main(["compile", str(path), "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["compile", str(path), "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["metrics"]["counters"] == \
            second["metrics"]["counters"]

    def test_registry_reset(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h").record(2.0)
        registry.reset()
        assert registry.to_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}}

    def test_cli_main_resets_shared_registry(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "prog.c"
        path.write_text(LIVERMORE5)
        NULL_TRACER.metrics.counter("stale.count").inc(9)
        assert main(["compile", str(path)]) == 0
        capsys.readouterr()
        assert "stale.count" not in \
            NULL_TRACER.metrics.to_dict()["counters"]
