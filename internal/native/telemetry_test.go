package native

import (
	"strings"
	"testing"

	"glasswing/internal/apps"
	"glasswing/internal/dfs"
	"glasswing/internal/obs"
)

// An instrumented run must report nonzero wall-clock busy time for every
// pipeline stage it executes, emit matching spans, and publish its counters.
func TestTelemetryInstrumentsEveryStage(t *testing.T) {
	data, want := apps.WCData(9, 256<<10, 2000)
	blocks := dfs.SplitLines(data, 16<<10)
	tel := obs.NewTelemetry()
	res, err := Run(apps.WordCount(), blocks, Config{
		Partitions:     4,
		CacheThreshold: 64 << 10, // low enough that spills trigger
		Telemetry:      tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if res.SpillFiles == 0 || res.SpillBytes == 0 {
		t.Fatalf("expected spills: files=%d bytes=%d", res.SpillFiles, res.SpillBytes)
	}

	// Every stage that ran reports nonzero busy time.
	for _, stage := range []string{stageMapKernel, stageMapPartition, stageSpill, stageReduce} {
		if res.Stages[stage] <= 0 {
			t.Errorf("stage %q busy = %v, want > 0 (stages: %v)", stage, res.Stages[stage], res.Stages)
		}
	}

	// Spans cover the same stages, with sane bounds.
	seen := map[string]bool{}
	for _, s := range tel.Spans.Spans() {
		seen[s.Stage] = true
		if s.End <= s.Start || s.Start < 0 {
			t.Errorf("bad span %+v", s)
		}
	}
	for stage := range res.Stages {
		if !seen[stage] {
			t.Errorf("no span for stage %q (saw %v)", stage, seen)
		}
	}

	// Metrics: counters and gauges reflect the run.
	reg := tel.Metrics
	if got := reg.Counter("native_chunks_total").Value(); got != int64(len(blocks)) {
		t.Errorf("chunks counter = %d, want %d", got, len(blocks))
	}
	if got := reg.Counter("native_spill_bytes_total").Value(); got != res.SpillBytes {
		t.Errorf("spill bytes counter = %d, want %d", got, res.SpillBytes)
	}
	if got := reg.Counter("native_output_pairs_total").Value(); got != int64(res.OutputPairs) {
		t.Errorf("output pairs counter = %d, want %d", got, res.OutputPairs)
	}
	if reg.Gauge("native_total_seconds").Value() <= 0 {
		t.Error("total seconds gauge not set")
	}
	if reg.Histogram("native_chunk_seconds", nil).Count() != int64(len(blocks)) {
		t.Error("chunk histogram count mismatch")
	}
	if reg.Gauge("native_mallocs_delta").Value() <= 0 {
		t.Error("mallocs delta not recorded")
	}

	// The span set renders as a Chrome trace with native tracks present.
	var sb strings.Builder
	if err := obs.WriteChromeTrace(&sb, tel.Spans.Spans()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"map/kernel"`) || !strings.Contains(sb.String(), `"spill"`) {
		t.Error("chrome trace missing native stage tracks")
	}
}

// Without a Telemetry bundle the cheap busy totals are still collected, but
// no spans exist anywhere to leak.
func TestStagesCollectedWithoutTelemetry(t *testing.T) {
	data, want := apps.WCData(10, 64<<10, 500)
	blocks := dfs.SplitLines(data, 16<<10)
	res, err := Run(apps.WordCount(), blocks, Config{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if res.Stages[stageMapKernel] <= 0 || res.Stages[stageReduce] <= 0 {
		t.Errorf("busy totals missing without telemetry: %v", res.Stages)
	}
}
