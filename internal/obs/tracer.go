package obs

import (
	"sync/atomic"
	"time"
)

// Tracer times one node's stage work against that node's own wall clock.
// Every interval it records adds to its stage's busy total; when the tracer
// has a buffer the interval also becomes a Span with a cluster-unique id and
// the id of the span that caused it, so a trace links each task's work into
// a causal chain. The native runtime and every dist node time their kernel,
// partition, spill and reduce work through it; a dist node ships its buffer
// to the coordinator, which rebases every node's spans onto its own epoch.
//
// A tracer without a buffer keeps only the busy totals: it mints no ids and
// records no spans, so an uninstrumented run pays a few atomic adds per task.
type Tracer struct {
	node  int
	epoch time.Time
	buf   *SpanBuffer
	ctr   atomic.Uint64
	busy  [len(stages)]atomic.Int64
}

// spanIDBits is how many id bits belong to the per-tracer counter; the bits
// above carry the node salt (node+2, so a dist coordinator's node -1 salts
// as 1 and node 0 as 2 — never 0, which marks "no span").
const spanIDBits = 48

// NewTracer returns node's tracer, its epoch now. buf receives the spans;
// nil keeps busy totals only.
func NewTracer(node int, buf *SpanBuffer) *Tracer {
	return &Tracer{node: node, epoch: time.Now(), buf: buf}
}

// Epoch is the wall-clock instant span times are measured from.
func (t *Tracer) Epoch() time.Time { return t.epoch }

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span { return t.buf.Spans() }

// Instants returns the recorded instants.
func (t *Tracer) Instants() []Instant { return t.buf.Instants() }

// Mark books an instant named name on this node's timeline, now. Without a
// buffer it records nothing.
func (t *Tracer) Mark(name string) {
	t.buf.Mark(Instant{Node: t.node, Name: name, At: time.Since(t.epoch).Seconds()})
}

// NewID mints a cluster-unique span id — node salt in the high bits, a
// per-tracer counter below — for a span that must be named before it ends:
// its id parents other spans or crosses the wire first. Without a buffer it
// returns 0.
func (t *Tracer) NewID() uint64 {
	if t.buf == nil {
		return 0
	}
	return uint64(t.node+2)<<spanIDBits | (t.ctr.Add(1) & (1<<spanIDBits - 1))
}

// Record books stage work that began at start and ends now under a fresh
// id, returning the id so it can parent later spans.
func (t *Tracer) Record(stage string, start time.Time, parent uint64) uint64 {
	id := t.NewID()
	t.RecordID(id, stage, start, parent, nil)
	return id
}

// RecordID books stage work that began at start and ends now under a
// pre-minted id; tags (may be nil) ride on the span.
func (t *Tracer) RecordID(id uint64, stage string, start time.Time, parent uint64, tags map[string]string) {
	end := time.Now()
	if i, ok := stageIndex[stage]; ok {
		t.busy[i].Add(int64(end.Sub(start)))
	}
	if t.buf == nil {
		return
	}
	begin := start.Sub(t.epoch).Seconds()
	t.buf.Span(Span{
		Node: t.node, Stage: stage,
		Start: begin, End: begin + end.Sub(start).Seconds(),
		ID: id, Parent: parent, Tags: tags,
	})
}

// Busy returns each stage's summed busy time; stages that never ran are
// absent.
func (t *Tracer) Busy() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i := range t.busy {
		if v := t.busy[i].Load(); v > 0 {
			out[stages[i]] = time.Duration(v)
		}
	}
	return out
}
