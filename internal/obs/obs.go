// Package obs is the shared observability layer consumed by every Glasswing
// runtime: the simulated cluster (internal/core, virtual seconds), the
// native host runtime (internal/native) and the distributed one
// (internal/dist), both in wall-clock seconds.
//
// It provides these pieces, all runtime-agnostic:
//
//   - a metrics Registry — counters, gauges and fixed-bucket histograms with
//     atomic hot-path recording, labeled (node/stage/partition/...), and
//     snapshottable to JSON;
//   - one span type, Span, under one stage vocabulary (the Stage*
//     constants, in TrackOrder's order), a SpanSink interface plus
//     SpanBuffer — the timeline feed: the sim core's Trace and the cl
//     command-queue profiling events record Spans;
//   - Tracer — the native and dist runtimes' wall-clock stage timer: busy
//     totals per stage and, when it has a buffer, Spans with
//     cluster-unique ids and parent links;
//   - consumers of the timeline: WriteChromeTrace exports any run as Chrome
//     trace_event JSON (open in chrome://tracing or Perfetto), and Analyze
//     computes the paper's §V per-stage breakdown — busy/stall time,
//     occupancy, the overlap factor and a critical-path estimate.
//
// The package depends only on the standard library, so every layer of the
// system (core, cl, native, the facade, the experiment drivers) can feed it
// without import cycles.
package obs

// Telemetry bundles the two collection surfaces a run needs: a metrics
// registry and a span buffer. It is the unit callers hand to a runtime
// (native.Config.Telemetry) or build piecemeal (the sim core takes the
// registry via core.Config.Metrics and records spans in its own Trace).
type Telemetry struct {
	Metrics *Registry
	Spans   *SpanBuffer
}

// NewTelemetry returns an empty telemetry collector.
func NewTelemetry() *Telemetry {
	return &Telemetry{Metrics: NewRegistry(), Spans: &SpanBuffer{}}
}
