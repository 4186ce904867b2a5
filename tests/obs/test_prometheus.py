"""Exposition rendering, the format linter, and the HTTP exporter."""

from __future__ import annotations

import json
import math
import time
import urllib.request

import numpy as np
import pytest

from repro.obs import (
    CONTENT_TYPE,
    MetricFamily,
    MetricsExporter,
    check_counters_monotonic,
    collect_families,
    lint_exposition,
    parse_exposition,
    render_exposition,
    scrape,
)
from repro.serve import InferenceEngine, ModelServer
from tests.serve.cluster_models import build_simple


class TestRendering:
    def test_basic_family(self):
        family = MetricFamily("repro_widgets_total", "counter", "Widgets made.")
        family.add(3, {"model": "m"})
        text = render_exposition([family])
        assert "# HELP repro_widgets_total Widgets made." in text
        assert "# TYPE repro_widgets_total counter" in text
        assert 'repro_widgets_total{model="m"} 3' in text

    def test_label_values_escaped(self):
        family = MetricFamily("repro_x_total", "counter", "X.")
        family.add(1, {"model": 'a"b\\c\nd'})
        text = render_exposition([family])
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        assert not lint_exposition(text)

    def test_invalid_metric_name_rejected(self):
        with pytest.raises(ValueError, match="metric name"):
            MetricFamily("bad-name", "counter", "nope")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="type"):
            MetricFamily("repro_ok_total", "exotic", "nope")


class TestLinter:
    def test_clean_text_passes(self):
        text = (
            "# HELP repro_a_total A.\n"
            "# TYPE repro_a_total counter\n"
            'repro_a_total{x="1"} 5\n'
        )
        assert lint_exposition(text) == []

    def test_missing_help_flagged(self):
        text = "# TYPE repro_a_total counter\nrepro_a_total 1\n"
        assert any("no # HELP" in p for p in lint_exposition(text))

    def test_counter_without_total_suffix_flagged(self):
        text = "# HELP repro_a A.\n# TYPE repro_a counter\nrepro_a 1\n"
        assert any("_total" in p for p in lint_exposition(text))

    def test_bad_metric_name_flagged(self):
        text = "# HELP repro_a_total A.\n# TYPE repro_a_total counter\n1bad 1\n"
        assert any("invalid metric name" in p or "unparseable" in p for p in lint_exposition(text))

    def test_duplicate_series_flagged(self):
        text = (
            "# HELP repro_a_total A.\n# TYPE repro_a_total counter\n"
            'repro_a_total{x="1"} 1\nrepro_a_total{x="1"} 2\n'
        )
        assert any("duplicate series" in p for p in lint_exposition(text))

    def test_sample_without_header_flagged(self):
        assert any("no # HELP" in p for p in lint_exposition("repro_orphan 1\n"))

    def test_monotonicity_check(self):
        before = "# HELP a_total A.\n# TYPE a_total counter\na_total 5\n"
        after_ok = before.replace(" 5", " 9")
        after_bad = before.replace(" 5", " 2")
        assert check_counters_monotonic(before, after_ok) == []
        assert any("backwards" in p for p in check_counters_monotonic(before, after_bad))

    def test_parse_round_trip(self):
        family = MetricFamily("repro_latency_seconds", "summary", "Latency.")
        family.add(0.5, {"model": "m", "quantile": "0.5"})
        family.add(10, {"model": "m"}, suffix="_count")
        family.add(1.25, {"model": "m"}, suffix="_sum")
        parsed = parse_exposition(render_exposition([family]))
        samples = parsed["repro_latency_seconds"]["samples"]
        assert samples[("repro_latency_seconds_count", (("model", "m"),))] == 10

    def test_empty_exposition_lints_clean(self):
        assert lint_exposition("") == []
        assert lint_exposition("\n\n") == []
        assert check_counters_monotonic("", "") == []

    def test_nonfinite_values_render_lint_and_parse(self):
        # The text format spells non-finite samples NaN/+Inf/-Inf; they must
        # render without raising, lint clean, and round-trip through parse.
        family = MetricFamily("repro_x", "gauge", "X.")
        family.add(float("nan"), {"a": "1"})
        family.add(float("inf"), {"a": "2"})
        family.add(float("-inf"), {"a": "3"})
        text = render_exposition([family])
        assert 'repro_x{a="1"} NaN' in text
        assert 'repro_x{a="2"} +Inf' in text
        assert 'repro_x{a="3"} -Inf' in text
        assert lint_exposition(text) == []
        samples = parse_exposition(text)["repro_x"]["samples"]
        assert math.isnan(samples[("repro_x", (("a", "1"),))])
        assert samples[("repro_x", (("a", "2"),))] == math.inf
        assert samples[("repro_x", (("a", "3"),))] == -math.inf

    def test_counter_reset_reported_with_values(self):
        before = "# HELP repro_c_total C.\n# TYPE repro_c_total counter\nrepro_c_total 5\n"
        after = before.replace(" 5", " 3")
        problems = check_counters_monotonic(before, after)
        assert problems == ["counter repro_c_total{} went backwards: 5.0 -> 3.0"]

    def test_nan_counters_do_not_trip_the_monotonic_check(self):
        # NaN compares false either way; a NaN sample must not be flagged as
        # "went backwards" (nor mask a genuine reset elsewhere).
        before = "# HELP repro_c_total C.\n# TYPE repro_c_total counter\nrepro_c_total NaN\n"
        after = before.replace(" NaN", " 7")
        assert check_counters_monotonic(before, after) == []
        assert check_counters_monotonic(after, before) == []

    def test_duplicate_family_names_flagged(self):
        text = (
            "# HELP repro_a_total A.\n# TYPE repro_a_total counter\n"
            "repro_a_total 1\n"
            "# HELP repro_a_total A again.\n# TYPE repro_a_total counter\n"
            "repro_a_total 2\n"
        )
        problems = lint_exposition(text)
        assert any("duplicate # HELP" in p for p in problems)
        assert any("duplicate # TYPE" in p for p in problems)
        assert any("duplicate series" in p for p in problems)


@pytest.fixture
def server():
    model = build_simple(seed=0)
    engine = InferenceEngine(model, batch_size=16)
    with ModelServer(max_batch_size=8, max_delay_ms=0.0) as ms:
        ms.register("simple", engine=engine)
        yield ms


class TestModelServerExposition:
    def test_collect_and_lint_live_server(self, server):
        rng = np.random.default_rng(0)
        for _ in range(4):
            server.predict("simple", rng.standard_normal((3, 12, 12)).astype(np.float32))
        text = render_exposition(collect_families(server))
        assert lint_exposition(text) == []
        assert 'repro_completed_total{model="simple"} 4' in text
        assert "repro_spans_recorded_total 4" in text

    def test_exporter_http_round_trip(self, server):
        rng = np.random.default_rng(1)
        with MetricsExporter(server) as exporter:
            server.predict(
                "simple",
                rng.standard_normal((3, 12, 12)).astype(np.float32),
                trace_id="http-t1",
            )
            first = scrape(exporter.url)
            assert lint_exposition(first) == []
            server.predict("simple", rng.standard_normal((3, 12, 12)).astype(np.float32))
            second = scrape(exporter.url)
            assert check_counters_monotonic(first, second) == []

            base = exporter.url.replace("/metrics", "")
            with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
                assert response.headers["Content-Type"] == CONTENT_TYPE
            with urllib.request.urlopen(base + "/spans", timeout=10) as response:
                spans = json.loads(response.read().decode("utf-8"))
            assert any(span["trace_id"] == "http-t1" for span in spans)
            with urllib.request.urlopen(base + "/healthz", timeout=10) as response:
                assert response.read() == b"ok\n"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(base + "/nope", timeout=10)

    def test_exporter_requires_telemetry_source(self):
        with pytest.raises(TypeError, match="telemetry_targets"):
            MetricsExporter(object())


def _get_json(url: str) -> object:
    with urllib.request.urlopen(url, timeout=10) as response:
        assert response.headers["Content-Type"] == "application/json"
        return json.loads(response.read().decode("utf-8"))


class TestHealthAndAlertEndpoints:
    def test_build_info_in_exposition(self, server):
        text = render_exposition(collect_families(server))
        parsed = parse_exposition(text)
        ((_, labels), value) = next(iter(parsed["repro_build_info"]["samples"].items()))
        assert value == 1
        labels = dict(labels)
        assert labels["python_version"]
        assert int(labels["cpu_count"]) >= 1

    def test_alerts_endpoint_well_formed_without_engine(self, server):
        with MetricsExporter(server) as exporter:
            base = exporter.url.replace("/metrics", "")
            document = _get_json(base + "/alerts")
        assert document["objectives"] == []
        assert document["alerts"] == []
        assert document["transitions"] == []
        assert document["generated_at"] > 0

    def test_alerts_endpoint_reflects_an_attached_engine(self, server):
        from repro.obs import SLOEngine, default_objectives, server_view

        engine = SLOEngine(server_view(server), default_objectives())
        engine.evaluate()
        with MetricsExporter(server, slo=engine) as exporter:
            base = exporter.url.replace("/metrics", "")
            document = _get_json(base + "/alerts")
            # The exporter-attached engine's families ride the exposition too.
            text = scrape(exporter.url)
        names = [o["objective"] for o in document["objectives"]]
        assert "availability" in names
        assert "repro_slo_state" in text
        assert lint_exposition(text) == []

    def test_health_endpoint_lists_model_health(self, server):
        server.enable_model_health(shadow_sample_every=0)
        rng = np.random.default_rng(2)
        server.predict("simple", rng.standard_normal((3, 12, 12)).astype(np.float32))
        with MetricsExporter(server) as exporter:
            base = exporter.url.replace("/metrics", "")
            # The worker observes health after it resolves the caller's
            # future, so the observation may land just after predict returns.
            deadline = time.monotonic() + 5.0
            while True:
                document = _get_json(base + "/health")
                drift = document["models"].get("simple", {}).get("drift", {})
                if drift.get("observations") or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
        assert "simple" in document["models"]
        assert document["models"]["simple"]["drift"]["observations"] == 1

    def test_spans_endpoint_filters(self, server):
        rng = np.random.default_rng(3)
        with MetricsExporter(server) as exporter:
            for trace in ("keep-1", "keep-2"):
                server.predict(
                    "simple",
                    rng.standard_normal((3, 12, 12)).astype(np.float32),
                    trace_id=trace,
                )
            base = exporter.url.replace("/metrics", "")
            by_trace = _get_json(base + "/spans?trace_id=keep-1")
            by_status = _get_json(base + "/spans?status=completed")
            none = _get_json(base + "/spans?status=failed")
        assert {s["trace_id"] for s in by_trace} == {"keep-1"}
        assert {s["trace_id"] for s in by_status} >= {"keep-1", "keep-2"}
        assert none == []

    def test_export_bundle_carries_build_info_and_uptime(self, server):
        from repro.obs import export_bundle

        bundle = export_bundle(server, uptime_s=12.5)
        assert bundle["build_info"]["python_version"]
        assert bundle["uptime_s"] == 12.5
        assert "metrics" in bundle and "spans" in bundle and "events" in bundle

    def test_exporter_uptime_tracks_start(self, server):
        exporter = MetricsExporter(server)
        assert exporter.uptime_s == 0.0
        with exporter:
            assert exporter.uptime_s >= 0.0
