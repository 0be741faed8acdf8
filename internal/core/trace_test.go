package core

import (
	"reflect"
	"strings"
	"testing"

	"glasswing/internal/obs"
)

// A span much shorter than one chart column must still paint a cell: the
// truncated lo and the rounded-up hi can land on the same column, which used
// to drop the span from the Gantt chart entirely.
func TestTraceRenderSubColumnSpan(t *testing.T) {
	tr := &Trace{}
	tr.add(0, "map/kernel", 0, 100) // sets the window: one column = 1s
	tr.add(0, "merge", 50.2, 50.3)  // a tenth of a column
	tr.add(0, "spill", 99.95, 100)  // sub-column at the very edge of the window
	var sb strings.Builder
	tr.Render(&sb, 100)
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.Contains(line, "merge") && !strings.Contains(line, "spill") {
			continue
		}
		if !strings.Contains(line, "#") {
			t.Errorf("sub-column span renders no cells:\n%s", sb.String())
		}
	}
}

// A Trace holds the obs.Span and obs.Instant values the exporter and
// analyzer read: a cl span keeps every field, and a degenerate span is
// dropped as SpanBuffer drops it.
func TestTraceRecordsObsTypes(t *testing.T) {
	tr := &Trace{}
	tr.add(1, obs.StageMapKernel, 1, 2)
	tr.add(1, obs.StageMerge, 3, 3)
	tr.Span(obs.Span{Node: 2, Stage: obs.StageCLKernel, Start: 1, End: 4, ID: 7, Parent: 5})
	tr.mark(1, "node-death", 1.5)
	want := []obs.Span{
		{Node: 1, Stage: obs.StageMapKernel, Start: 1, End: 2},
		{Node: 2, Stage: obs.StageCLKernel, Start: 1, End: 4, ID: 7, Parent: 5},
	}
	if !reflect.DeepEqual(tr.Spans, want) {
		t.Errorf("spans = %+v, want %+v", tr.Spans, want)
	}
	if len(tr.Instants) != 1 || tr.Instants[0] != (obs.Instant{Node: 1, Name: "node-death", At: 1.5}) {
		t.Errorf("instants = %+v", tr.Instants)
	}

	// On a nil trace, add, mark and Span are no-ops.
	var nilTr *Trace
	nilTr.add(0, obs.StageMapKernel, 0, 1)
	nilTr.mark(0, "x", 1)
	nilTr.Span(obs.Span{Stage: obs.StageMapKernel, End: 1})
}
