package obs

import (
	"fmt"
	"sync"
)

// Span is one interval of pipeline activity on one node's stage track.
// Times are seconds — virtual seconds for the simulated runtime, wall-clock
// seconds since run start for the native one.
//
// ID and Parent carry distributed trace identity: a cluster-unique span id
// and the id of the span that caused this one (0 = none). The Chrome
// exporter turns Parent links into cross-process flow arrows. Runtimes that
// don't propagate context leave both zero and the output is unchanged.
type Span struct {
	Node   int     `json:"node"`
	Stage  string  `json:"stage"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	ID     uint64  `json:"id,omitempty"`
	Parent uint64  `json:"parent,omitempty"`
	// Tags annotate the span with small key/value facts (e.g. the block
	// read's locality verdict). Nil for the common case; exporters only
	// emit them when present, so untagged output is byte-identical to
	// what it was before tags existed.
	Tags map[string]string `json:"tags,omitempty"`
}

// Instant is an instantaneous event on a node's timeline (a node death, a
// phase boundary) — a Chrome trace "instant" rather than a duration.
type Instant struct {
	Node int     `json:"node"`
	Name string  `json:"name"`
	At   float64 `json:"at"`
}

// SpanSink receives spans as they complete. Implementations must tolerate
// concurrent calls: the native runtime records from many goroutines.
type SpanSink interface {
	Span(s Span)
}

// SpanBuffer is the straightforward SpanSink: it accumulates spans and
// instants under a mutex for later export or analysis.
type SpanBuffer struct {
	mu       sync.Mutex
	spans    []Span
	instants []Instant
}

// Span records one span. Degenerate spans (End <= Start) are dropped.
func (b *SpanBuffer) Span(s Span) {
	if b == nil || s.End <= s.Start {
		return
	}
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (b *SpanBuffer) Spans() []Span {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Span(nil), b.spans...)
}

// Mark records one instant.
func (b *SpanBuffer) Mark(i Instant) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.instants = append(b.instants, i)
	b.mu.Unlock()
}

// Instants returns a copy of the recorded instants.
func (b *SpanBuffer) Instants() []Instant {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Instant(nil), b.instants...)
}

// The stage vocabulary: every span any runtime records lies on one of these
// tracks, and Result.Stages in the native runtime is keyed by them. This is
// the one place the names are written; the values are read by name outside
// the module (benchmark harnesses, trace viewers), so they never change.
const (
	// Coordinator-side scheduling (dist): the tenure of one map attempt or
	// reduce partition from dispatch to its done report, the root of each
	// task's causal chain.
	StageSchedAssign = "sched/assign"
	StageSchedReduce = "sched/reduce"

	StageMapInput     = "map/input"
	StageMapStage     = "map/stage"
	StageMapKernel    = "map/kernel"
	StageMapRetrieve  = "map/retrieve"
	StageMapPartition = "map/partition"
	StageNetSend      = "net/send"
	StageNetRecv      = "net/recv"

	StageMerge       = "merge"
	StageSpill       = "spill"
	StageRetry       = "retry"
	StageSpeculative = "speculative"

	StageReduceInput  = "reduce/input"
	StageReduceStage  = "reduce/stage"
	StageReduceKernel = "reduce/kernel"
	// StageReduce is the real runtimes' single reduce track (merge and
	// kernel together), placed next to its simulated analog.
	StageReduce       = "reduce"
	StageReduceRetr   = "reduce/retr"
	StageReduceOutput = "reduce/output"

	// Device-level tracks: cl command-queue events, named "cl/" + event.
	StageCLWrite  = "cl/write"
	StageCLKernel = "cl/kernel"
	StageCLRead   = "cl/read"
)

// Instant names: the membership changes a dist coordinator marks on its own
// track (node -1) — a worker's death, a live join, a completed drain, a
// coordinator resuming from its journal — and the simulator's node death.
const (
	InstantDeath  = "node-death"
	InstantJoin   = "node-join"
	InstantDrain  = "node-drain"
	InstantResume = "coord-resume"
)

// stages lists the vocabulary in track order: the scheduling group, the map
// group, intermediate-data and recovery work, the reduce group, then
// device-level tracks.
var stages = [...]string{
	StageSchedAssign, StageSchedReduce,
	StageMapInput, StageMapStage, StageMapKernel, StageMapRetrieve, StageMapPartition, StageNetSend, StageNetRecv,
	StageMerge, StageSpill, StageRetry, StageSpeculative,
	StageReduceInput, StageReduceStage, StageReduceKernel, StageReduce, StageReduceRetr, StageReduceOutput,
	StageCLWrite, StageCLKernel, StageCLRead,
}

// stageIndex maps a stage name to its position in stages; trackKey holds
// each position's sort key.
var stageIndex, trackKey = func() (map[string]int, [len(stages)]string) {
	idx := make(map[string]int, len(stages))
	var keys [len(stages)]string
	for i, st := range stages {
		idx[st] = i
		keys[i] = fmt.Sprintf("%02d", i)
	}
	return idx, keys
}()

// TrackOrder returns a sort key placing stage tracks in pipeline execution
// order (the order of stages), then unknown stages lexicographically. The
// core Gantt renderer, the Chrome exporter and the analyzer all use it, so
// every view agrees on row order.
func TrackOrder(stage string) string {
	if i, ok := stageIndex[stage]; ok {
		return trackKey[i]
	}
	return "z" + stage
}
