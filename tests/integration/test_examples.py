"""The example scripts must at least import and expose a main()."""

import importlib.util
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_at_least_three_examples_exist(self):
        assert len(EXAMPLE_FILES) >= 3

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
    def test_example_defines_main(self, path):
        module = _load(path)
        assert callable(getattr(module, "main", None)), f"{path.name} has no main()"

    @pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
    def test_example_has_docstring(self, path):
        module = _load(path)
        assert module.__doc__ and len(module.__doc__) > 40


class TestTraceAnalysis:
    """``examples/trace_analysis.py`` on a short run, so the port cannot rot."""

    @pytest.fixture(scope="class")
    def traced(self):
        module = _load(EXAMPLES_DIR / "trace_analysis.py")
        from repro import paper_defaults

        config = paper_defaults()
        results, completions, spans = module.traced_run(
            config, seed=3, warmup=200.0, duration=1500.0
        )
        return module, config, results, completions, spans

    def test_one_record_per_measured_completion(self, traced):
        _, _, results, completions, _ = traced
        measured = [event for event in completions if event.time >= 200.0]
        assert len(measured) == results.completions
        for event in completions:
            assert event.remote == (event.execution_site != event.home_site)
            assert event.created_at <= event.allocated_at <= event.started_at
            assert event.started_at <= event.finished_at <= event.time

    def test_report_covers_every_section(self, traced):
        module, config, _, completions, spans = traced
        text = module.report(config, completions, spans)
        assert f"traced {len(completions)} completed queries" in text
        assert "Ten slowest queries:" in text
        assert "Remote queries:" in text
        for spec in config.classes:
            assert f"  {spec.name:4s} " in text

    def test_span_delays_match_completion_timestamps(self, traced):
        module, _, _, completions, spans = traced
        remote = [event for event in completions if event.remote]
        assert remote
        delays = module.remote_delays(completions, spans)
        outbound = sum(e.started_at - e.allocated_at for e in remote) / len(remote)
        back = sum(e.time - e.finished_at for e in remote) / len(remote)
        assert delays["outbound"] == pytest.approx(outbound)
        assert delays["return"] == pytest.approx(back)
        assert 0.0 < delays["outbound_hop"] <= delays["outbound"]
        assert 0.0 < delays["return_hop"] <= delays["return"]

    def test_waits_match_the_completion_records(self, traced):
        module, _, _, completions, _ = traced
        waits = module.waiting_by_class_and_site(completions)
        cpu0 = [
            e.waiting_time
            for e in completions
            if e.class_name == "cpu" and e.execution_site == 0
        ]
        assert waits[("cpu", 0)] == pytest.approx(sum(cpu0) / len(cpu0))
