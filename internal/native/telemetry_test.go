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
	for _, stage := range []string{obs.StageMapKernel, obs.StageMapPartition, obs.StageSpill, obs.StageReduce} {
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
	if res.Stages[obs.StageMapKernel] <= 0 || res.Stages[obs.StageReduce] <= 0 {
		t.Errorf("busy totals missing without telemetry: %v", res.Stages)
	}
}

// A traced native run links its spans the way a dist node does: every span
// has a unique non-zero id, every map/partition span parents on the
// map/kernel span of its chunk, and the Chrome exporter draws those links as
// flow arrows.
func TestNativeTraceLinksPartitionToKernel(t *testing.T) {
	data, _ := apps.WCData(12, 64<<10, 500)
	blocks := dfs.SplitLines(data, 8<<10)
	tel := obs.NewTelemetry()
	if _, err := Run(apps.WordCount(), blocks, Config{Partitions: 2, KernelWorkers: 2, Telemetry: tel}); err != nil {
		t.Fatal(err)
	}
	spans := tel.Spans.Spans()
	byID := map[uint64]obs.Span{}
	for _, s := range spans {
		if s.ID == 0 {
			t.Fatalf("span without an id: %+v", s)
		}
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("span id %x recorded twice", s.ID)
		}
		byID[s.ID] = s
	}
	partitions := 0
	for _, s := range spans {
		if s.Stage != obs.StageMapPartition {
			continue
		}
		partitions++
		if k, ok := byID[s.Parent]; !ok || k.Stage != obs.StageMapKernel || k.Node != s.Node {
			t.Errorf("map/partition span %+v does not parent on a map/kernel span of its node (parent %+v)", s, k)
		}
	}
	if partitions != len(blocks) {
		t.Fatalf("%d map/partition spans for %d blocks", partitions, len(blocks))
	}

	var sb strings.Builder
	if err := obs.WriteChromeTrace(&sb, spans); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(sb.String(), `"ph": "s"`); got < partitions {
		t.Errorf("%d flow starts in the Chrome trace, want at least %d", got, partitions)
	}
}

// A map/partition span times Chunk.Partition alone, as dist's does: a spill
// that committing the chunk's runs triggers is booked as its own spill span,
// never inside a partition span. One map worker keeps the spans sequential,
// so any overlap is nesting.
func TestPartitionSpanExcludesSpill(t *testing.T) {
	data, _ := apps.WCData(13, 256<<10, 2000)
	blocks := dfs.SplitLines(data, 16<<10)
	tel := obs.NewTelemetry()
	res, err := Run(apps.WordCount(), blocks, Config{
		Partitions: 4, CacheThreshold: 64 << 10, KernelWorkers: 1, Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpillFiles == 0 {
		t.Fatal("expected spills")
	}
	var parts, spills []obs.Span
	for _, s := range tel.Spans.Spans() {
		switch s.Stage {
		case obs.StageMapPartition:
			parts = append(parts, s)
		case obs.StageSpill:
			spills = append(spills, s)
		}
	}
	for _, sp := range spills {
		for _, p := range parts {
			if sp.Start >= p.Start && sp.End <= p.End {
				t.Fatalf("spill span %+v lies inside map/partition span %+v", sp, p)
			}
		}
	}
}
