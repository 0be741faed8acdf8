package glasswing

import (
	"io"

	"glasswing/internal/obs"
)

// The unified observability layer: a metrics registry, span recording, a
// Chrome trace_event exporter and a pipeline stall analyzer, shared by the
// simulated and native runtimes. Enable sim tracing with Config.Trace,
// native spans with NativeConfig.Telemetry; hand either runtime a registry
// (Config.Metrics / Telemetry.Metrics) to collect counters and gauges.

type (
	// Span is one interval of pipeline activity on a node's stage track.
	Span = obs.Span
	// TraceInstant is a zero-duration event (e.g. a node death).
	TraceInstant = obs.Instant
	// MetricsRegistry holds counters, gauges and histograms with
	// lock-cheap atomic recording, snapshottable to JSON.
	MetricsRegistry = obs.Registry
	// Metric is one snapshotted metric value.
	Metric = obs.Metric
	// Telemetry bundles a registry and a span buffer for the native
	// runtime.
	Telemetry = obs.Telemetry
	// PipelineReport is the per-stage busy/stall/occupancy analysis of a
	// traced run.
	PipelineReport = obs.Report
	// StageReport is one (node, stage) row of a PipelineReport.
	StageReport = obs.StageReport
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTelemetry returns a Telemetry bundle with a fresh registry and span
// buffer.
func NewTelemetry() *Telemetry { return obs.NewTelemetry() }

// TraceSpans extracts a traced sim result's spans for the exporter and
// analyzer (empty if the job ran without Config.Trace).
func TraceSpans(r *Result) []Span {
	if r.Trace == nil {
		return nil
	}
	return r.Trace.Spans
}

// TraceInstants extracts a traced sim result's instant events (node deaths).
func TraceInstants(r *Result) []TraceInstant {
	if r.Trace == nil {
		return nil
	}
	return r.Trace.Instants
}

// WriteChromeTrace exports spans (plus optional instants) as Chrome
// trace_event JSON: one process per node, one track per pipeline stage. The
// output opens in chrome://tracing or https://ui.perfetto.dev.
func WriteChromeTrace(w io.Writer, spans []Span, instants ...TraceInstant) error {
	return obs.WriteChromeTrace(w, spans, instants...)
}

// WriteChromeTraceWithMeta is WriteChromeTrace plus a run-level metadata
// object (e.g. obs.TraceMeta output) carried in the trace's otherData field;
// nil meta writes exactly what WriteChromeTrace writes.
func WriteChromeTraceWithMeta(w io.Writer, spans []Span, meta map[string]any, instants ...TraceInstant) error {
	return obs.WriteChromeTraceWithMeta(w, spans, meta, instants...)
}

// TraceMeta pulls named metrics out of reg as a metadata object for
// WriteChromeTraceWithMeta.
func TraceMeta(reg *MetricsRegistry, names ...string) map[string]any {
	return obs.TraceMeta(reg, names...)
}

// WriteMetricsProm writes a registry snapshot in the Prometheus text
// exposition format (version 0.0.4): histograms as cumulative _bucket/_sum/
// _count series, counters and gauges as single samples.
func WriteMetricsProm(w io.Writer, reg *MetricsRegistry) error { return reg.WriteProm(w) }

// AnalyzePipeline computes per-stage busy/stall time, occupancy, the overlap
// factor and a critical-path estimate from a run's spans.
func AnalyzePipeline(spans []Span) *PipelineReport { return obs.Analyze(spans) }

// RenderTrace renders a traced sim result's Gantt chart (kept for parity
// with Result.Trace.Render; prefer WriteChromeTrace for real inspection).
func RenderTrace(r *Result, w io.Writer, width int) {
	if r.Trace == nil {
		return
	}
	r.Trace.Render(w, width)
}
