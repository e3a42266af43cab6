"""Exporter tests: Chrome trace JSON, metrics dumps, self-time tables."""

from __future__ import annotations

import csv
import json

from repro.obs import (
    MetricsRegistry,
    SpanRecord,
    chrome_trace_events,
    render_self_time,
    self_time_table,
    total_root_seconds,
    write_chrome_trace,
    write_metrics_csv,
    write_metrics_json,
)
from repro.stats.breakdown import MissBreakdown


def spans_fixture():
    """One root with two children (0.6 s self) plus a worker track."""
    return [
        SpanRecord("system.run", 10.0, 2.0, 1, "main", {"engine": "general"}),
        SpanRecord("engine.general", 10.1, 1.0, 1, "main"),
        SpanRecord("trace.build", 11.2, 0.4, 1, "main"),
        SpanRecord("campaign.job", 10.5, 0.5, 42, "worker"),
    ]


class TestChromeTrace:
    def test_events_are_microseconds_relative_to_first_span(self):
        events = chrome_trace_events(spans_fixture())
        complete = [e for e in events if e["ph"] == "X"]
        by_name = {e["name"]: e for e in complete}
        assert by_name["system.run"]["ts"] == 0.0
        assert by_name["system.run"]["dur"] == 2_000_000.0
        assert by_name["engine.general"]["ts"] == 100_000.0
        assert by_name["campaign.job"]["ts"] == 500_000.0
        assert by_name["system.run"]["args"] == {"engine": "general"}
        assert "args" not in by_name["engine.general"]

    def test_one_process_name_metadata_event_per_pid(self):
        events = chrome_trace_events(spans_fixture())
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["pid"] for e in meta} == {1, 42}
        assert all(e["name"] == "process_name" for e in meta)
        assert meta[0]["args"] == {"name": "repro pid 1"}

    def test_empty_span_list(self):
        assert chrome_trace_events([]) == []

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        path = tmp_path / "out.trace.json"
        write_chrome_trace(spans_fixture(), str(path))
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == len(spans_fixture()) + 2
        for event in payload["traceEvents"]:
            assert event["ph"] in ("X", "M")


class TestMetricsDumps:
    def registry(self):
        reg = MetricsRegistry()
        reg.count("integrity.checks_run", 2)
        series = reg.new_series(label="8M8w", engine="general")
        series.sample(5, MissBreakdown(d_local=3, d_remote_dirty=1),
                      i_refs=20, dir_lines=7, rac_probes=4, rac_hits=1)
        series.sample(6, MissBreakdown(d_local=5, d_remote_dirty=2),
                      i_refs=45, dir_lines=8, rac_probes=6, rac_hits=2)
        return reg

    def test_json_dump(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics_json(self.registry(), str(path))
        data = json.loads(path.read_text())
        assert data["counters"] == {"integrity.checks_run": 2}
        (series,) = data["series"]
        assert series["meta"] == {"label": "8M8w", "engine": "general"}
        assert series["miss_local"] == [3, 2]
        assert series["dirty_share"] == round(2 / 7, 6)

    def test_csv_dump_one_row_per_quantum(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(self.registry(), str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        first = rows[0]
        assert first["series"] == "0"
        assert first["label"] == "8M8w"
        assert first["engine"] == "general"
        assert first["quantum"] == "5"
        assert first["miss_3hop"] == "1"
        assert first["dir_lines"] == "7"
        assert float(first["rac_hit_rate"]) == 0.25


class TestSelfTime:
    def test_self_time_is_duration_minus_direct_children(self):
        rows = {r["name"]: r for r in self_time_table(spans_fixture())}
        # system.run: 2.0 total, children engine.general (1.0) and
        # trace.build (0.4) leave 0.6 self.
        assert abs(rows["system.run"]["self"] - 0.6) < 1e-9
        assert abs(rows["engine.general"]["self"] - 1.0) < 1e-9
        assert rows["campaign.job"]["calls"] == 1

    def test_self_sums_to_root_total(self):
        spans = spans_fixture()
        rows = self_time_table(spans)
        assert abs(sum(r["self"] for r in rows)
                   - total_root_seconds(spans)) < 1e-9
        assert abs(total_root_seconds(spans) - 2.5) < 1e-9

    def test_rows_sorted_by_descending_self_time(self):
        selves = [r["self"] for r in self_time_table(spans_fixture())]
        assert selves == sorted(selves, reverse=True)

    def test_repeated_names_aggregate(self):
        spans = [
            SpanRecord("campaign.job", 0.0, 1.0, 1, "main"),
            SpanRecord("campaign.job", 2.0, 3.0, 1, "main"),
        ]
        (row,) = self_time_table(spans)
        assert row["calls"] == 2
        assert row["total"] == 4.0

    def test_render_self_time_table_text(self):
        text = render_self_time(spans_fixture(), wall_seconds=2.5)
        lines = text.splitlines()
        assert lines[0] == "span self-time profile"
        assert "span" in lines[1] and "self%" in lines[1]
        assert any(line.lstrip().startswith("system.run") for line in lines)
        assert lines[-1].endswith("covers 100.0% of 2.500s wall")
