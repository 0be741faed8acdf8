package expt

import (
	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/obs"
)

// PipelineStalls traces a WC breakdown run through the observability layer
// and reports the analyzer's per-stage busy/active/stall/occupancy rows.
// The overlap factor (stage-seconds retired per wall second) quantifies the
// paper's pipelining claim the same way AblationOverlap does by elapsed
// time; a NoOverlap run is analyzed alongside as the serial reference.
func PipelineStalls(s Sizes) *Table {
	t := &Table{
		ID: "obs-stall", Paper: "§IV-B (stall analysis)",
		Title:   "WC pipeline stall analysis (1 node, local FS, traced)",
		Columns: []string{"stage", "spans", "busy(s)", "active(s)", "stall(s)", "occupancy"},
	}
	blocks, blockSize, want := wcBreakdownData(s)
	run := func(noOverlap bool) *obs.Report {
		cfg := core.Config{
			Collector: core.HashTable, UseCombiner: true, Compress: true,
			Trace: true, NoOverlap: noOverlap,
		}
		res := breakdownRun(apps.WordCount(), blocks, blockSize, cfg, false, nil)
		mustVerify(apps.VerifyCounts(res.Output(), want), "stall WC")
		return obs.Analyze(res.Trace.Spans)
	}
	rep := run(false)
	for _, row := range rep.Rows {
		t.AddRow(row.Stage, row.Spans, row.Busy, row.Active, row.Stall, row.Occupancy)
	}
	seq := run(true)
	t.Note("overlap factor %.2fx overlapped vs %.2fx sequential (1.0 = fully serial)",
		rep.OverlapFactor, seq.OverlapFactor)
	t.Note("critical path %.1fs of %.1fs wall; total stage busy %.1fs",
		rep.CriticalPath, rep.Wall, rep.TotalBusy)
	return t
}
