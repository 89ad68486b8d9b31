"""The bench harness emits schema-valid, self-consistent payloads."""

import json
from pathlib import Path

import pytest

from repro.perf import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_V1,
    BENCH_SCHEMA_V2,
    BENCH_SCHEMA_V3,
    VECTORIZED_4096_RSS_BUDGET_KB,
    run_bench,
    validate_payload,
    write_payload,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _with_fast(payload, schema=BENCH_SCHEMA_V3):
    """A pre-v4 payload: a ``fast`` micro record and ``micro_speedup``."""
    records = [dict(r) for r in payload["records"]]
    reference = next(r for r in records
                     if r["scenario"] == "micro_epoch_loop[reference]")
    records.append(dict(reference, scenario="micro_epoch_loop[fast]",
                        backend="fast"))
    return dict(payload, schema=schema, records=records, micro_speedup=2.0)


@pytest.fixture(scope="module")
def quick_payload():
    # The tier-1 smoke invocation of `sirius-repro bench --quick`: the
    # pinned 64-node micro scenario runs for both backends even in
    # quick mode (only fluid/sweep shrink and the scale runs drop out).
    return run_bench(quick=True, workers=2)


class TestQuickRun:
    def test_schema_and_validation(self, quick_payload):
        assert quick_payload["schema"] == BENCH_SCHEMA
        assert quick_payload["quick"] is True
        validate_payload(quick_payload)

    def test_all_scenarios_present(self, quick_payload):
        scenarios = {r["scenario"] for r in quick_payload["records"]}
        assert scenarios == {
            "micro_epoch_loop[reference]",
            "micro_epoch_loop[vectorized]",
            "fluid_events[reference]",
            "fluid_events[incremental]",
            "sweep_e2e",
        }

    def test_micro_covers_all_backends_at_full_scale(self, quick_payload):
        micro = [r for r in quick_payload["records"]
                 if r["scenario"].startswith("micro_epoch_loop")]
        assert {r["backend"] for r in micro} == {
            "reference", "vectorized",
        }
        assert all(r["nodes"] == 64 for r in micro)

    def test_speedups_recorded(self, quick_payload):
        assert "micro_speedup" not in quick_payload
        assert quick_payload["vectorized_speedup"] > 0
        assert quick_payload["fluid_speedup"] > 0

    def test_fluid_records_report_events_per_s(self, quick_payload):
        fluid = [r for r in quick_payload["records"]
                 if r["scenario"].startswith("fluid_events[")]
        assert {r["backend"] for r in fluid} == {
            "reference", "incremental",
        }
        for record in fluid:
            # Explicit events_per_s; cells_per_s is pinned to zero —
            # the fluid model has no cells (the old schema leaked
            # completed flows/s under that key).
            assert record["events_per_s"] > 0
            assert record["events"] > 0
            assert record["cells_per_s"] == 0.0

    def test_sweep_reports_real_cell_throughput(self, quick_payload):
        sweep = next(r for r in quick_payload["records"]
                     if r["scenario"] == "sweep_e2e")
        # The sweep delivers cells, so its throughput cannot be the
        # 0.0 placeholder it once was — and each job reports goodput.
        assert sweep["cells_per_s"] > 0
        assert len(sweep["goodputs"]) == sweep["jobs"]
        assert all(g > 0 for g in sweep["goodputs"])

    def test_phase_totals_attached_to_micro(self, quick_payload):
        # The profiled pass runs the default engine.
        default = next(r for r in quick_payload["records"]
                       if r["scenario"] == "micro_epoch_loop[vectorized]")
        totals = default["phase_totals_s"]
        # The profiled pass must cover the epoch loop's phases.
        assert {"deliver", "control", "transmit"} <= set(totals)
        assert all(v >= 0 for v in totals.values())

    def test_payload_is_json_round_trippable(self, quick_payload, tmp_path):
        path = write_payload(quick_payload, str(tmp_path / "bench.json"))
        reloaded = json.loads(Path(path).read_text())
        validate_payload(reloaded)
        assert (reloaded["vectorized_speedup"]
                == quick_payload["vectorized_speedup"])


class TestValidation:
    def test_rejects_wrong_schema(self, quick_payload):
        bad = dict(quick_payload, schema="sirius-bench/0")
        with pytest.raises(ValueError, match="schema"):
            validate_payload(bad)

    def test_rejects_empty_records(self, quick_payload):
        with pytest.raises(ValueError, match="records"):
            validate_payload(dict(quick_payload, records=[]))

    def test_rejects_missing_field(self, quick_payload):
        records = [dict(r) for r in quick_payload["records"]]
        del records[0]["wall_s"]
        with pytest.raises(ValueError, match="wall_s"):
            validate_payload(dict(quick_payload, records=records))

    def test_rejects_missing_scenario(self, quick_payload):
        records = [r for r in quick_payload["records"]
                   if r["scenario"] != "fluid_events[incremental]"]
        with pytest.raises(ValueError, match="fluid_events"):
            validate_payload(dict(quick_payload, records=records))

    def test_rejects_fluid_record_without_events_per_s(self, quick_payload):
        records = [dict(r) for r in quick_payload["records"]]
        for record in records:
            record.pop("events_per_s", None)
        with pytest.raises(ValueError, match="events_per_s"):
            validate_payload(dict(quick_payload, records=records))

    def test_rejects_v3_payload_without_fluid_speedup(self, quick_payload):
        bad = dict(quick_payload)
        bad.pop("fluid_speedup")
        with pytest.raises(ValueError, match="fluid_speedup"):
            validate_payload(bad)

    def test_rejects_missing_vectorized_scenario(self, quick_payload):
        records = [r for r in quick_payload["records"]
                   if r["scenario"] != "micro_epoch_loop[vectorized]"]
        with pytest.raises(ValueError, match="vectorized"):
            validate_payload(dict(quick_payload, records=records))

    def test_full_payload_requires_scale_scenarios(self, quick_payload):
        # A non-quick v2 payload without the paper-scale records is
        # incomplete by definition.
        with pytest.raises(ValueError, match="scale_"):
            validate_payload(dict(quick_payload, quick=False))

    def test_rejects_scale_4096_over_memory_budget(self, quick_payload):
        records = [dict(r) for r in quick_payload["records"]]
        records.append({
            "scenario": "scale_512[vectorized]", "nodes": 512,
            "epochs": 10_000, "wall_s": 1.0, "cells_per_s": 1.0,
            "peak_rss_kb": 50_000,
        })
        records.append({
            "scenario": "scale_4096[vectorized]", "nodes": 4096,
            "epochs": 10_000, "wall_s": 1.0, "cells_per_s": 1.0,
            "peak_rss_kb": VECTORIZED_4096_RSS_BUDGET_KB + 1,
        })
        with pytest.raises(ValueError, match="slab budget"):
            validate_payload(dict(quick_payload, quick=False,
                                  records=records))

    def test_accepts_v3_payload_with_fast_record(self, quick_payload):
        # Committed v1-v3 baselines also measured the since-removed
        # ``fast`` backend; they keep validating, and still need it.
        v3 = _with_fast(quick_payload, BENCH_SCHEMA_V3)
        validate_payload(v3)
        v3.pop("micro_speedup")
        with pytest.raises(ValueError, match="micro_speedup"):
            validate_payload(v3)
        with pytest.raises(ValueError, match=r"micro_epoch_loop\[fast\]"):
            validate_payload(dict(quick_payload, schema=BENCH_SCHEMA_V3,
                                  micro_speedup=2.0))

    def test_accepts_v1_payload_without_vectorized(self, quick_payload):
        # Committed v1 baselines predate the vectorized backend and
        # the split fluid scenarios; they must keep validating without
        # those records or speedup fields.
        records = [dict(r) for r in _with_fast(quick_payload)["records"]
                   if r["scenario"] != "micro_epoch_loop[vectorized]"
                   and r["scenario"] != "fluid_events[incremental]"]
        for record in records:
            if record["scenario"] == "fluid_events[reference]":
                record["scenario"] = "fluid_events"
        v1 = dict(quick_payload, schema=BENCH_SCHEMA_V1, records=records,
                  micro_speedup=2.0)
        v1.pop("vectorized_speedup")
        v1.pop("fluid_speedup")
        validate_payload(v1)

    def test_accepts_v2_payload_with_single_fluid_record(self, quick_payload):
        # Committed v2 baselines have one fluid_events record with no
        # events_per_s field and no fluid_speedup headline.
        records = [dict(r) for r in _with_fast(quick_payload)["records"]
                   if r["scenario"] != "fluid_events[incremental]"]
        for record in records:
            if record["scenario"] == "fluid_events[reference]":
                record["scenario"] = "fluid_events"
                record.pop("events_per_s")
        v2 = dict(quick_payload, schema=BENCH_SCHEMA_V2, records=records,
                  micro_speedup=2.0)
        v2.pop("fluid_speedup")
        validate_payload(v2)


class TestCommittedBaseline:
    def test_baseline_exists_and_validates(self):
        baselines = sorted(REPO_ROOT.glob("BENCH_*.json"))
        assert baselines, "no committed BENCH_<date>.json baseline"
        for path in baselines:
            payload = json.loads(path.read_text())
            validate_payload(payload)

    def test_baseline_records_backend_wins(self):
        # The acceptance bars: >= 3x cells/s for the vectorized backend
        # over the reference on the pinned (non-quick) micro scenario,
        # and >= 2x for the since-removed fast path where a baseline
        # recorded it.
        full = [
            json.loads(path.read_text())
            for path in REPO_ROOT.glob("BENCH_*.json")
        ]
        full = [p for p in full if not p["quick"]]
        assert full, "no full-scale committed baseline"
        for payload in full:
            if "micro_speedup" in payload:
                assert payload["micro_speedup"] >= 2.0
            if payload["schema"] != BENCH_SCHEMA_V1:
                assert payload["vectorized_speedup"] >= 3.0

    def test_baseline_records_fluid_win(self):
        # The incremental fluid engine's acceptance bar: the committed
        # full-scale v3+ baseline must show >= 10x events/s over the
        # reference loop on the bench matrix workload.
        v3 = [
            json.loads(path.read_text())
            for path in REPO_ROOT.glob("BENCH_*.json")
        ]
        v3 = [p for p in v3
              if p["schema"] in (BENCH_SCHEMA, BENCH_SCHEMA_V3)
              and not p["quick"]]
        assert v3, "no committed v3 full-scale baseline"
        for payload in v3:
            assert payload["fluid_speedup"] >= 10.0

    def test_v2_baseline_covers_paper_scale(self):
        v2 = [
            json.loads(path.read_text())
            for path in REPO_ROOT.glob("BENCH_*.json")
        ]
        v2 = [p for p in v2
              if p["schema"] != BENCH_SCHEMA_V1 and not p["quick"]]
        assert v2, "no committed v2+ full-scale baseline"
        for payload in v2:
            scale = {r["scenario"]: r for r in payload["records"]
                     if r["scenario"].startswith("scale_")}
            assert set(scale) == {"scale_512[vectorized]",
                                  "scale_4096[vectorized]"}
            big = scale["scale_4096[vectorized]"]
            # The headline acceptance run: a 4096-node, ~10k-epoch
            # vectorized simulation in far under five minutes.
            assert big["epochs"] >= 9000
            assert big["wall_s"] < 300
            assert big["peak_rss_kb"] <= VECTORIZED_4096_RSS_BUDGET_KB
