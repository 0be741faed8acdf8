package core

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"glasswing/internal/obs"
)

// Trace is a job's activity timeline, recorded when Config.Trace is set.
// It shows the overlap the Glasswing pipeline achieves — which stages run
// concurrently, where the pipeline stalls, how the merge phase interleaves
// with the map phase. Instants (a node death) are kept apart from Spans so
// every span keeps the invariant End > Start.
type Trace struct {
	Spans    []obs.Span
	Instants []obs.Instant
}

func (t *Trace) add(node int, stage string, start, end float64) {
	t.Span(obs.Span{Node: node, Stage: stage, Start: start, End: end})
}

func (t *Trace) mark(node int, name string, at float64) {
	if t == nil {
		return
	}
	t.Instants = append(t.Instants, obs.Instant{Node: node, Name: name, At: at})
}

// Span implements obs.SpanSink, so a Trace can be handed to instrumented
// components (cl command queues) as their span destination.
func (t *Trace) Span(s obs.Span) {
	if t == nil || s.End <= s.Start {
		return
	}
	t.Spans = append(t.Spans, s)
}

// Window returns the earliest start and latest end across all spans. A nil
// or empty trace has no window: it returns the documented zero (0, 0)
// rather than the (+Inf, -Inf) a naive min/max fold would produce.
func (t *Trace) Window() (start, end float64) {
	if t == nil || len(t.Spans) == 0 {
		return 0, 0
	}
	start, end = math.Inf(1), math.Inf(-1)
	for _, s := range t.Spans {
		start = math.Min(start, s.Start)
		end = math.Max(end, s.End)
	}
	return start, end
}

// Busy returns the total busy time of one node's stage.
func (t *Trace) Busy(node int, stage string) float64 {
	var total float64
	for _, s := range t.Spans {
		if s.Node == node && s.Stage == stage {
			total += s.End - s.Start
		}
	}
	return total
}

// Render writes an ASCII Gantt chart, one row per (node, stage), width
// columns across the job's time window. Concurrent activity shows as
// overlapping filled regions on different rows.
func (t *Trace) Render(w io.Writer, width int) {
	if width < 20 {
		width = 20
	}
	start, end := t.Window()
	if end <= start {
		fmt.Fprintln(w, "(empty trace)")
		return
	}
	type key struct {
		node  int
		stage string
	}
	rows := map[key][]obs.Span{}
	var keys []key
	for _, s := range t.Spans {
		k := key{s.Node, s.Stage}
		if _, ok := rows[k]; !ok {
			keys = append(keys, k)
		}
		rows[k] = append(rows[k], s)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].node != keys[j].node {
			return keys[i].node < keys[j].node
		}
		return obs.TrackOrder(keys[i].stage) < obs.TrackOrder(keys[j].stage)
	})
	scale := float64(width) / (end - start)
	fmt.Fprintf(w, "timeline %.3fs .. %.3fs (%.3fs total), one column = %.4fs\n",
		start, end, end-start, (end-start)/float64(width))
	for _, k := range keys {
		cells := make([]byte, width)
		for i := range cells {
			cells[i] = ' '
		}
		for _, s := range rows[k] {
			lo := int((s.Start - start) * scale)
			hi := int(math.Ceil((s.End - start) * scale))
			if hi > width {
				hi = width
			}
			if lo >= width {
				lo = width - 1
			}
			// A span shorter than one column still paints one cell; lo ==
			// hi would otherwise drop it from the chart entirely.
			if hi <= lo {
				hi = lo + 1
			}
			for i := lo; i < hi && i < width; i++ {
				cells[i] = '#'
			}
		}
		fmt.Fprintf(w, "node%02d %-16s |%s|\n", k.node, k.stage, string(cells))
	}
}

// String renders the trace at a default width.
func (t *Trace) String() string {
	var sb strings.Builder
	t.Render(&sb, 100)
	return sb.String()
}
