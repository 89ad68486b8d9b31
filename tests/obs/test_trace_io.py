"""Tests for trace persistence and the report renderer
(repro.obs.trace_io / repro.obs.report)."""

import json

import pytest

from repro.obs.events import EventTracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.observation import Observation
from repro.obs.profiling import PhaseProfiler
from repro.obs.report import ascii_sparkline, format_table, render_report
from repro.obs.trace_io import (
    chrome_trace,
    load_any,
    read_trace,
    run_trace,
    write_chrome_trace,
    write_jsonl,
)


def recorded_observation():
    """A small hand-built Observation with all three planes populated."""
    obs = Observation(
        registry=MetricsRegistry(),
        tracer=EventTracer(),
        profiler=PhaseProfiler(clock=iter([0.0, 1.0, 1.5, 1.5]).__next__),
    )
    obs.registry.counter("delivered_bits_total").inc(4096)
    obs.registry.counter("grants_issued_total").inc(src=0, dst=1)
    gauge = obs.registry.gauge("net_backlog_cells", track=True)
    gauge.set(5, at=0)
    gauge.set(2, at=4)
    obs.tracer.at(0, 0.0)
    obs.tracer.emit("epoch")
    obs.tracer.at(4, 1.6e-6)
    obs.tracer.emit("cell.enqueue", node=1, queue="fwd", flow=3, dst=2)
    t = obs.profiler.start_run()
    t = obs.profiler.lap("deliver", t)
    obs.profiler.lap("transmit", t)
    obs.profiler.end_run()
    return obs


class TestJsonlRoundTrip:
    def test_everything_survives(self, tmp_path):
        obs = recorded_observation()
        path = write_jsonl(tmp_path / "run.jsonl", obs,
                           meta={"epochs": 5, "epoch_duration_s": 4e-7})
        trace = read_trace(path)
        assert trace.meta["epochs"] == 5
        assert trace.event_counts() == {"epoch": 1, "cell.enqueue": 1}
        assert trace.events[1].node == 1
        assert trace.events[1].fields["queue"] == "fwd"
        assert trace.metric("delivered_bits_total")["value"] == 4096
        assert trace.metric("grants_issued_total",
                            src=0, dst=1)["value"] == 1
        assert trace.series("net_backlog_cells") == [[0, 5], [4, 2]]
        assert trace.profile.totals_s == {"deliver": 1.0, "transmit": 0.5}

    def test_run_trace_matches_disk_round_trip(self, tmp_path):
        obs = recorded_observation()
        in_memory = run_trace(obs, meta={"epochs": 5})
        path = write_jsonl(tmp_path / "run.jsonl", obs, meta={"epochs": 5})
        from_disk = read_trace(path)
        # Disk adds the format/version header keys.
        assert from_disk.meta.pop("format") == "sirius-trace"
        from_disk.meta.pop("version")
        assert in_memory.meta == from_disk.meta
        assert in_memory.events == from_disk.events
        # JSON round-trips tuples as lists; compare normalized.
        assert json.loads(json.dumps(in_memory.metrics)) == from_disk.metrics

    def test_dropped_events_recorded_in_meta(self, tmp_path):
        obs = Observation(tracer=EventTracer(max_events=1))
        obs.tracer.emit("epoch")
        obs.tracer.emit("epoch")
        trace = read_trace(write_jsonl(tmp_path / "run.jsonl", obs))
        assert trace.meta["events_dropped"] == 1

    def test_bad_line_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "meta"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_trace(path)

    def test_unknown_record_kind_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"record": "mystery"}\n')
        with pytest.raises(ValueError, match="unknown record kind"):
            read_trace(path)


class TestChromeTrace:
    def test_structure(self, tmp_path):
        obs = recorded_observation()
        trace = run_trace(obs, meta={"epoch_duration_s": 4e-7})
        payload = chrome_trace(trace)
        assert "traceEvents" in payload
        phases = {r["ph"] for r in payload["traceEvents"]}
        assert {"M", "i", "C", "X"} <= phases
        instants = [r for r in payload["traceEvents"] if r["ph"] == "i"]
        assert instants[1]["args"]["epoch"] == 4
        assert instants[1]["tid"] == 1  # per-node track

    def test_file_is_plain_json(self, tmp_path):
        obs = recorded_observation()
        path = write_chrome_trace(tmp_path / "t.json", run_trace(obs))
        assert "traceEvents" in json.loads(path.read_text())

    def test_load_any_sniffs_both_formats(self, tmp_path):
        obs = recorded_observation()
        meta = {"epoch_duration_s": 4e-7}
        jsonl = write_jsonl(tmp_path / "run.jsonl", obs, meta=meta)
        chrome = write_chrome_trace(
            tmp_path / "run.trace.json", run_trace(obs, meta=meta)
        )
        from_jsonl = load_any(jsonl)
        from_chrome = load_any(chrome)
        assert from_jsonl.event_counts() == from_chrome.event_counts()
        assert from_chrome.profile.totals_s == pytest.approx(
            from_jsonl.profile.totals_s
        )


class TestReport:
    def test_report_renders_all_sections(self, tmp_path):
        obs = recorded_observation()
        trace = run_trace(obs, meta={"epochs": 5, "epoch_duration_s": 4e-7})
        text = render_report(trace, title="unit run")
        assert "unit run" in text
        assert "cell.enqueue" in text
        assert "delivered_bits_total" in text
        assert "deliver" in text          # phase table
        assert "net_backlog_cells" in text or "backlog" in text

    def test_report_of_empty_trace_is_graceful(self):
        from repro.obs.trace_io import RunTrace

        text = render_report(RunTrace())
        assert "no events" in text or "events" in text


class TestFormatting:
    def test_format_table_aligns_columns(self):
        table = format_table(["name", "n"], [["a", 1], ["long", 250]])
        lines = table.splitlines()
        assert len({len(line) for line in lines}) == 1  # rectangular

    def test_sparkline_rejects_negative_values(self):
        with pytest.raises(ValueError, match="non-negative"):
            ascii_sparkline([3, -1, 4])

    def test_sparkline_constant_and_empty(self):
        with pytest.raises(ValueError, match="empty"):
            ascii_sparkline([])
        assert ascii_sparkline([5, 5, 5])

    def test_sparkline_length_capped_at_width(self):
        assert len(ascii_sparkline(list(range(1000)), width=40)) == 40

    def test_sparkline_short_series_kept_whole(self):
        assert len(ascii_sparkline([1, 2, 3])) == 3

    def test_sparkline_peak_maps_to_densest_glyph(self):
        assert ascii_sparkline([0.0, 1.0])[-1] == "@"

    def test_sparkline_rejects_zero_width(self):
        with pytest.raises(ValueError, match="width"):
            ascii_sparkline([1.0], width=0)
