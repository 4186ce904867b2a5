"""Prometheus text exposition (format 0.0.4) over stdlib ``http.server``.

Three layers, each usable on its own:

* **Model** — :class:`MetricFamily` (name, kind, help, labelled samples) and
  :func:`render_exposition`, which serialises families to the Prometheus
  text format: ``# HELP`` / ``# TYPE`` headers, escaped label values, one
  sample per line.
* **Collection** — :func:`collect_families` walks any *source* exposing
  ``telemetry_targets()`` (both :class:`~repro.serve.frontend.ModelServer`
  and :class:`~repro.serve.cluster.ClusterServer` do) and turns every
  ``ServerMetrics`` counter into a ``repro_*_total`` counter family with
  per-model / per-variant / per-shard labels, plus latency summaries,
  queue-depth gauges, span-ring counters, and ``repro_events_total{kind=}``.
* **Serving** — :class:`MetricsExporter`, a threaded stdlib HTTP server
  mountable on either server class: ``/metrics`` (exposition), ``/spans``
  (JSON ring, ``?trace_id=``/``?status=`` filters) and ``/events`` (JSON
  ring), ``/health`` (model-health snapshots), ``/alerts`` (SLO engine
  document), ``/healthz``.

Also here: :func:`lint_exposition`, the small in-repo format linter CI runs
against a live scrape (metric-name charset, HELP/TYPE pairing, counter
naming, parseable values, no duplicate series), and
:func:`check_counters_monotonic`, which compares two scrapes and flags any
counter that went backwards.  No third-party client library anywhere —
the stdlib-only constraint holds.
"""

from __future__ import annotations

import json
import math
import platform
import os
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterable, List, Optional, Tuple
from urllib.parse import parse_qs

__all__ = [
    "MetricFamily",
    "render_exposition",
    "collect_families",
    "MetricsExporter",
    "lint_exposition",
    "parse_exposition",
    "check_counters_monotonic",
    "build_info",
    "export_bundle",
    "health_document",
    "CONTENT_TYPE",
]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Prometheus metric-name grammar (text format 0.0.4).
METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
KNOWN_TYPES = ("counter", "gauge", "summary", "histogram", "untyped")

#: HELP text for every ``ServerMetrics`` counter field we export.
_COUNTER_HELP = {
    "admitted": "Requests admitted past the bounded queue.",
    "rejected": "Requests rejected at admission (queue full).",
    "completed": "Requests completed with a result.",
    "failed": "Requests failed with an error.",
    "cancelled": "Requests cancelled by the caller before serving.",
    "batches": "Micro-batches served.",
    "samples": "Samples (array rows) served across all batches.",
    "expired": "Requests failed because their deadline passed.",
    "shed": "Requests shed for a higher-priority arrival under overload.",
    "retried": "Requests re-dispatched after a worker crash.",
    "breaker_open": "Circuit-breaker transitions to OPEN.",
}

_SUMMARY_HELP = {
    "latency": "End-to-end request latency (submit to future resolved), seconds.",
    "queue_wait": "Queue wait (submit to batch formation), seconds.",
    "batch_service": "Batch service time (formation to logits), seconds.",
}


class MetricFamily:
    """One exposition family: a name, a kind, help text, labelled samples.

    ``samples`` rows are ``(suffix, labels, value)`` — ``suffix`` is appended
    to the family name (``_count`` / ``_sum`` for summaries, empty
    otherwise), so one summary family owns its quantile and aggregate lines.
    """

    def __init__(self, name: str, kind: str, help_text: str) -> None:
        if not METRIC_NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if kind not in KNOWN_TYPES:
            raise ValueError(f"unknown metric type {kind!r}")
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.samples: List[Tuple[str, Dict[str, str], float]] = []

    def add(self, value: float, labels: Optional[Dict[str, str]] = None, suffix: str = "") -> None:
        self.samples.append((suffix, dict(labels or {}), float(value)))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"' for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    # The text format spells non-finite values NaN/+Inf/-Inf (and int(value)
    # would raise on them anyway).
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_exposition(families: Iterable[MetricFamily]) -> str:
    """Serialise ``families`` to Prometheus text format 0.0.4."""
    lines: List[str] = []
    for family in families:
        lines.append(f"# HELP {family.name} {_escape_help(family.help_text)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for suffix, labels, value in family.samples:
            lines.append(f"{family.name}{suffix}{_format_labels(labels)} {_format_value(value)}")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# collection from a serving source
# --------------------------------------------------------------------------- #
def build_info() -> Dict[str, str]:
    """Deployment metadata, exported as ``repro_build_info`` labels.

    Backend name, CPU count, the quantized-checkpoint format version and the
    cluster wire-protocol version — the facts an operator cross-references
    first when two hosts disagree.  Imports are deferred (and failure-proof)
    so this module stays import-cycle-free and usable standalone.
    """
    info = {
        "python_version": platform.python_version(),
        "cpu_count": str(os.cpu_count() or 0),
    }
    try:
        from ..backend import get_backend

        info["backend"] = get_backend().name
    except Exception:  # pragma: no cover - backend misconfiguration
        info["backend"] = "unknown"
    try:
        from ..utils.serialization import QUANTIZED_CHECKPOINT_VERSION

        info["checkpoint_format_version"] = str(QUANTIZED_CHECKPOINT_VERSION)
    except Exception:  # pragma: no cover
        info["checkpoint_format_version"] = "unknown"
    try:
        from ..serve.cluster.protocol import PROTOCOL_VERSION

        info["protocol_version"] = str(PROTOCOL_VERSION)
    except Exception:  # pragma: no cover
        info["protocol_version"] = "unknown"
    return info


def _health_families(targets: List[Dict[str, object]]) -> List[MetricFamily]:
    """``repro_quant_*`` / ``repro_drift_*`` families from target health.

    A health object shared by several targets (a cluster variant's health
    referenced from every shard row) is emitted once, under the target's
    ``health_labels`` when given (else its ``labels``).
    """
    clip = MetricFamily(
        "repro_quant_clip_ratio",
        "gauge",
        "Fraction of activations saturated at the layer's PACT alpha.",
    )
    zero = MetricFamily(
        "repro_quant_zero_ratio", "gauge", "Fraction of activations quantized to zero."
    )
    occupancy = MetricFamily(
        "repro_quant_occupancy",
        "gauge",
        "Mean activation magnitude as a fraction of the PACT range.",
    )
    headroom = MetricFamily(
        "repro_quant_headroom_bits",
        "gauge",
        "Minimum observed int32-accumulator headroom, bits (integer mode).",
    )
    tap_runs = MetricFamily(
        "repro_quant_tap_runs_total",
        "counter",
        "Plan runs sampled by the quantization-health tap.",
    )
    shadow_batches = MetricFamily(
        "repro_quant_shadow_batches_total",
        "counter",
        "Served batches rerun through the float shadow reference.",
    )
    shadow_div_max = MetricFamily(
        "repro_quant_shadow_divergence_max",
        "gauge",
        "Max per-sample int-vs-float logit divergence seen by shadow runs.",
    )
    shadow_div_mean = MetricFamily(
        "repro_quant_shadow_divergence_mean",
        "gauge",
        "Mean per-sample int-vs-float logit divergence over shadowed samples.",
    )
    shadow_top1 = MetricFamily(
        "repro_quant_shadow_top1_agreement",
        "gauge",
        "Top-1 agreement between served and shadow-reference predictions.",
    )
    drift_score = MetricFamily(
        "repro_drift_score",
        "gauge",
        "PSI drift score: live prediction histogram vs reference window.",
    )
    drift_entropy = MetricFamily(
        "repro_drift_entropy",
        "gauge",
        "Mean prediction entropy per drift window (reference vs live).",
    )
    drift_observations = MetricFamily(
        "repro_drift_observations_total",
        "counter",
        "Prediction samples observed by the drift detector.",
    )

    seen: set = set()
    for target in targets:
        health = target.get("health")
        if health is None or id(health) in seen:
            continue
        seen.add(id(health))
        raw_labels = target.get("health_labels") or target["labels"]
        labels = {str(k): str(v) for k, v in raw_labels.items()}
        snapshot = health.snapshot()
        quant = snapshot.get("quant")
        if quant is not None:
            tap_runs.add(quant["sampled_runs"], labels)
            for layer in quant["layers"]:
                layer_labels = dict(labels, layer=layer["layer"])
                clip.add(layer["clip_ratio"], layer_labels)
                zero.add(layer["zero_ratio"], layer_labels)
                occupancy.add(layer["occupancy"], layer_labels)
                if layer["headroom_bits"] is not None:
                    headroom.add(layer["headroom_bits"], layer_labels)
        shadow = snapshot.get("shadow")
        if shadow is not None:
            shadow_batches.add(shadow["batches_shadowed"], labels)
            shadow_div_max.add(shadow["divergence_max"], labels)
            shadow_div_mean.add(shadow["divergence_mean"], labels)
            shadow_top1.add(shadow["top1_agreement"], labels)
        drift = snapshot.get("drift")
        if drift is not None:
            drift_score.add(drift["score"], labels)
            drift_entropy.add(drift["reference_entropy"], dict(labels, window="reference"))
            drift_entropy.add(drift["live_entropy"], dict(labels, window="live"))
            drift_observations.add(drift["observations"], labels)

    candidates = [
        clip, zero, occupancy, headroom, tap_runs, shadow_batches,
        shadow_div_max, shadow_div_mean, shadow_top1,
        drift_score, drift_entropy, drift_observations,
    ]
    return [family for family in candidates if family.samples]


def collect_families(source: object) -> List[MetricFamily]:
    """Build the full family set from a server-like ``source``.

    ``source`` must expose ``telemetry_targets() -> List[dict]`` where each
    target is ``{"labels": {...}, "metrics": ServerMetrics,
    "queue_depth": int}``; ``source.spans`` (:class:`SpanRecorder`) and
    ``source.events`` (:class:`EventLog`) are picked up when present.
    Targets may additionally carry a ``"health"``
    (:class:`~repro.obs.health.ModelHealth`) entry — emitted as the
    ``repro_quant_*`` / ``repro_drift_*`` families, once per distinct health
    object under its ``"health_labels"`` (or the target labels) — and a
    ``source.slo`` (:class:`~repro.obs.slo.SLOEngine`) contributes the
    ``repro_slo_*`` families.  A ``repro_build_info`` gauge (value 1, all
    metadata in labels) rides along on every collection.
    """
    targets = list(source.telemetry_targets())

    counter_families = {
        field: MetricFamily(
            f"repro_{field}_total",
            "counter",
            _COUNTER_HELP.get(field, f"ServerMetrics counter {field!r}."),
        )
        for field in _COUNTER_HELP
    }
    summary_families = {
        key: MetricFamily(f"repro_{key}_seconds", "summary", help_text)
        for key, help_text in _SUMMARY_HELP.items()
    }
    queue_depth = MetricFamily("repro_queue_depth", "gauge", "Current bounded-queue depth.")
    queue_highwater = MetricFamily(
        "repro_queue_depth_highwater", "gauge", "Queue-depth high-water mark since start."
    )
    parts = MetricFamily(
        "repro_metrics_parts", "gauge", "Number of ServerMetrics parts merged into this series."
    )

    for target in targets:
        labels = {str(k): str(v) for k, v in target["labels"].items()}
        metrics = target["metrics"]
        counters = metrics.counters()
        for field, family in counter_families.items():
            family.add(counters[field], labels)
        for key, summary in metrics.raw_summaries().items():
            family = summary_families[key]
            for quantile in ("0.5", "0.95", "0.99"):
                family.add(summary[f"q{quantile}"], dict(labels, quantile=quantile))
            family.add(summary["count"], labels, suffix="_count")
            family.add(summary["sum"], labels, suffix="_sum")
        if target.get("queue_depth") is not None:
            queue_depth.add(target["queue_depth"], labels)
        queue_highwater.add(metrics.depth_highwater, labels)
        parts.add(metrics.parts, labels)

    families: List[MetricFamily] = list(counter_families.values())
    families.extend(summary_families.values())
    families.extend([queue_depth, queue_highwater, parts])

    spans = getattr(source, "spans", None)
    if spans is not None:
        recorded = MetricFamily(
            "repro_spans_recorded_total", "counter", "Trace spans recorded into the span ring."
        )
        recorded.add(spans.recorded_total)
        dropped = MetricFamily(
            "repro_spans_dropped_total", "counter", "Trace spans evicted from the full span ring."
        )
        dropped.add(spans.dropped_total)
        retained = MetricFamily(
            "repro_spans_retained", "gauge", "Trace spans currently retained in the ring."
        )
        retained.add(len(spans))
        families.extend([recorded, dropped, retained])

    events = getattr(source, "events", None)
    if events is not None:
        family = MetricFamily(
            "repro_events_total", "counter", "Structured lifecycle events emitted, by kind."
        )
        for kind, count in sorted(events.counts().items()):
            family.add(count, {"kind": kind})
        if family.samples:
            families.append(family)

    families.extend(_health_families(targets))

    slo = getattr(source, "slo", None)
    if slo is not None and hasattr(slo, "families"):
        families.extend(slo.families())

    info = MetricFamily(
        "repro_build_info",
        "gauge",
        "Build/deployment metadata carried in labels; value is always 1.",
    )
    info.add(1.0, build_info())
    families.append(info)

    return families


def health_document(source: object) -> Dict[str, object]:
    """The ``/health`` endpoint body: every distinct health snapshot by name."""
    models: Dict[str, object] = {}
    seen: set = set()
    targets = getattr(source, "telemetry_targets", None)
    if callable(targets):
        for target in targets():
            health = target.get("health")
            if health is None or id(health) in seen:
                continue
            seen.add(id(health))
            models[str(getattr(health, "name", len(models)))] = health.snapshot()
    return {"generated_at": time.time(), "models": models}


# --------------------------------------------------------------------------- #
# the HTTP exporter
# --------------------------------------------------------------------------- #
class MetricsExporter:
    """Serve ``/metrics`` plus the observability side endpoints for a server.

    Endpoints: ``/metrics`` (exposition), ``/spans`` (JSON ring, filterable
    with ``?trace_id=`` / ``?status=``), ``/events`` (JSON ring),
    ``/health`` (model-health snapshots), ``/alerts`` (the SLO engine's
    document), ``/healthz`` (liveness).  Stdlib
    :class:`~http.server.ThreadingHTTPServer` on a daemon thread; ``port=0``
    binds an ephemeral port (read it back from :attr:`port`).  Mount on a
    :class:`ModelServer` or :class:`ClusterServer`::

        exporter = MetricsExporter(cluster, port=9100, slo=engine).start()
        ...  # curl http://127.0.0.1:9100/metrics
        exporter.close()

    ``slo`` attaches an :class:`~repro.obs.slo.SLOEngine`; a ``source.slo``
    attribute works too — either way ``/alerts`` serves its document and the
    ``repro_slo_*`` families join the exposition.
    """

    def __init__(
        self,
        source: object,
        host: str = "127.0.0.1",
        port: int = 0,
        slo: Optional[object] = None,
    ) -> None:
        if not hasattr(source, "telemetry_targets"):
            raise TypeError(
                f"{type(source).__name__} has no telemetry_targets(); "
                "mount the exporter on a ModelServer or ClusterServer"
            )
        self.source = source
        self.host = host
        self.slo = slo
        self._requested_port = int(port)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("exporter not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    @property
    def uptime_s(self) -> float:
        """Seconds since :meth:`start` (0.0 before it)."""
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    def _slo_engine(self) -> Optional[object]:
        return self.slo if self.slo is not None else getattr(self.source, "slo", None)

    def render(self) -> str:
        families = collect_families(self.source)
        # An exporter-attached engine that the source itself does not carry
        # still belongs in the exposition (collect_families only sees the
        # source).
        if self.slo is not None and self.slo is not getattr(self.source, "slo", None):
            families.extend(self.slo.families())
        return render_exposition(families)

    def alerts_document(self) -> Dict[str, object]:
        """The ``/alerts`` body — well-formed even without an SLO engine."""
        engine = self._slo_engine()
        document: Dict[str, object] = (
            {"objectives": [], "alerts": [], "transitions": []}
            if engine is None
            else engine.document()
        )
        document["generated_at"] = time.time()
        return document

    def start(self) -> "MetricsExporter":
        if self._httpd is not None:
            return self
        exporter = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                path, _, query = self.path.partition("?")
                if path == "/metrics":
                    self._reply(200, exporter.render().encode("utf-8"), CONTENT_TYPE)
                elif path == "/spans":
                    spans = getattr(exporter.source, "spans", None)
                    if spans is None:
                        body = "[]"
                    else:
                        params = parse_qs(query)
                        trace_id = params.get("trace_id", [None])[0]
                        status = params.get("status", [None])[0]
                        body = json.dumps(
                            spans.spans(trace_id=trace_id, status=status), default=str
                        )
                    self._reply(200, body.encode("utf-8"), "application/json")
                elif path == "/events":
                    events = getattr(exporter.source, "events", None)
                    body = events.export_json() if events is not None else "[]"
                    self._reply(200, body.encode("utf-8"), "application/json")
                elif path == "/alerts":
                    body = json.dumps(exporter.alerts_document(), default=str)
                    self._reply(200, body.encode("utf-8"), "application/json")
                elif path == "/health":
                    body = json.dumps(health_document(exporter.source), default=str)
                    self._reply(200, body.encode("utf-8"), "application/json")
                elif path == "/healthz":
                    self._reply(200, b"ok\n", "text/plain")
                else:
                    self._reply(404, b"not found\n", "text/plain")

            def _reply(self, status: int, body: bytes, content_type: str) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: object) -> None:
                pass  # scrapes must not spam the server's stderr

        self._httpd = ThreadingHTTPServer((self.host, self._requested_port), _Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics-exporter", daemon=True
        )
        self._started_at = time.monotonic()
        self._thread.start()
        return self

    def close(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "MetricsExporter":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# the format linter (used by CI against a live scrape)
# --------------------------------------------------------------------------- #
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str) -> Dict[str, Dict[str, object]]:
    """Parse exposition text into ``{family: {type, help, samples}}``.

    ``samples`` maps ``(sample_name, sorted-label-tuple)`` to the float
    value.  Raises :class:`ValueError` on lines that are not comments,
    blank, or well-formed samples — callers wanting a report instead should
    use :func:`lint_exposition`.
    """
    families: Dict[str, Dict[str, object]] = {}
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4:
                raise ValueError(f"line {line_number}: malformed {parts[1]} comment: {line!r}")
            _, directive, name, rest = parts
            family = families.setdefault(name, {"type": None, "help": None, "samples": {}})
            family["help" if directive == "HELP" else "type"] = rest
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {line_number}: unparseable sample line: {line!r}")
        name = match.group("name")
        value = float(match.group("value"))
        labels: Tuple[Tuple[str, str], ...] = ()
        if match.group("labels"):
            labels = tuple(sorted(_LABEL_RE.findall(match.group("labels"))))
        # A summary's _count/_sum lines belong to the base family.
        base = name
        for suffix in ("_count", "_sum", "_bucket"):
            if base.endswith(suffix) and base[: -len(suffix)] in families:
                base = base[: -len(suffix)]
                break
        family = families.setdefault(base, {"type": None, "help": None, "samples": {}})
        family["samples"][(name, labels)] = value
    return families


def lint_exposition(text: str) -> List[str]:
    """Validate Prometheus text format; returns a list of problems (empty = clean).

    Checks: metric-name and label-name charset, HELP/TYPE present and paired
    for every exposed family, TYPE is a known kind, counter families named
    ``*_total``, every value parses as a float, no duplicate series.
    """
    problems: List[str] = []
    seen_series: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], int] = {}
    declared: Dict[str, Dict[str, Optional[str]]] = {}

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4:
                problems.append(f"line {line_number}: malformed comment: {line!r}")
                continue
            _, directive, name, rest = parts
            if not METRIC_NAME_RE.match(name):
                problems.append(f"line {line_number}: invalid metric name {name!r}")
            entry = declared.setdefault(name, {"help": None, "type": None})
            key = directive.lower()
            if entry[key] is not None:
                problems.append(f"line {line_number}: duplicate # {directive} for {name!r}")
            entry[key] = rest
            if directive == "TYPE" and rest not in KNOWN_TYPES:
                problems.append(f"line {line_number}: unknown TYPE {rest!r} for {name!r}")
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {line_number}: unparseable sample line: {line!r}")
            continue
        name = match.group("name")
        if not METRIC_NAME_RE.match(name):
            problems.append(f"line {line_number}: invalid metric name {name!r}")
        try:
            float(match.group("value"))
        except ValueError:
            problems.append(
                f"line {line_number}: value {match.group('value')!r} of {name!r} is not a float"
            )
        labels: Tuple[Tuple[str, str], ...] = ()
        if match.group("labels"):
            labels = tuple(sorted(_LABEL_RE.findall(match.group("labels"))))
            for label_name, _ in labels:
                if not LABEL_NAME_RE.match(label_name):
                    problems.append(f"line {line_number}: invalid label name {label_name!r}")
        series = (name, labels)
        if series in seen_series:
            problems.append(
                f"line {line_number}: duplicate series {name}{dict(labels)} "
                f"(first at line {seen_series[series]})"
            )
        else:
            seen_series[series] = line_number
        # Which family does this sample belong to?
        base = name
        if base not in declared:
            for suffix in ("_count", "_sum", "_bucket"):
                if base.endswith(suffix) and base[: -len(suffix)] in declared:
                    base = base[: -len(suffix)]
                    break
        if base not in declared:
            problems.append(f"line {line_number}: sample {name!r} has no # HELP/# TYPE header")

    for name, entry in declared.items():
        if entry["help"] is None:
            problems.append(f"family {name!r} has # TYPE but no # HELP")
        if entry["type"] is None:
            problems.append(f"family {name!r} has # HELP but no # TYPE")
        if entry["type"] == "counter" and not name.endswith("_total"):
            problems.append(f"counter family {name!r} does not end in _total")

    return problems


def check_counters_monotonic(before_text: str, after_text: str) -> List[str]:
    """Compare two scrapes; flag any counter series that decreased."""
    problems: List[str] = []
    before = parse_exposition(before_text)
    after = parse_exposition(after_text)
    for name, family in before.items():
        if family["type"] != "counter" or name not in after:
            continue
        after_samples = after[name]["samples"]
        for series, value in family["samples"].items():
            if series in after_samples and after_samples[series] < value:
                problems.append(
                    f"counter {series[0]}{dict(series[1])} went backwards: "
                    f"{value} -> {after_samples[series]}"
                )
    return problems


def export_bundle(source: object, uptime_s: Optional[float] = None) -> Dict[str, object]:
    """One JSON-friendly observability dump: metrics, spans, events, health.

    Always stamps :func:`build_info` (and ``uptime_s`` when given) so a
    bundle pulled off a crashed host identifies the build that produced it.
    """
    bundle: Dict[str, object] = {
        "metrics": render_exposition(collect_families(source)),
        "build_info": build_info(),
    }
    if uptime_s is not None:
        bundle["uptime_s"] = float(uptime_s)
    spans = getattr(source, "spans", None)
    if spans is not None:
        bundle["spans"] = spans.spans()
    events = getattr(source, "events", None)
    if events is not None:
        bundle["events"] = events.events()
    health = health_document(source)
    if health["models"]:
        bundle["health"] = health
    slo = getattr(source, "slo", None)
    if slo is not None and hasattr(slo, "document"):
        bundle["slo"] = slo.document()
    return bundle


def scrape(url: str, timeout_s: float = 5.0) -> str:
    """Fetch a ``/metrics`` URL (stdlib urllib) and return the body text."""
    from urllib.request import urlopen

    with urlopen(url, timeout=timeout_s) as response:
        return response.read().decode("utf-8")
