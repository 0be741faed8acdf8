package nativebench

import "testing"

func guardBase() []Result {
	return []Result{
		{
			Name:        "wc-hash",
			AllocsPerOp: 100000,
			StageNs:     map[string]int64{"map/kernel": 100e6, "map/partition": 50e6, "reduce": 1e6},
		},
		{Name: "terasort", AllocsPerOp: 500, StageNs: map[string]int64{"map/partition": 10e6}},
	}
}

func TestGuardPassesWithinBudget(t *testing.T) {
	fresh := []Result{
		{
			Name:        "wc-hash",
			AllocsPerOp: 120000, // +20%, inside the 25% alloc budget
			// map/partition +40%: past the alloc budget but inside the wider 50%
			// stage budget — stage time gets noise headroom, allocs don't.
			StageNs: map[string]int64{"map/kernel": 110e6, "map/partition": 70e6, "reduce": 9e6},
		},
		{Name: "terasort", AllocsPerOp: 5000, StageNs: map[string]int64{"map/partition": 12e6}},
	}
	if regs := CompareResults(guardBase(), fresh, GuardOpts{}); len(regs) != 0 {
		t.Fatalf("expected no regressions, got %v", regs)
	}
}

func TestGuardFlagsAllocRegression(t *testing.T) {
	fresh := []Result{
		{Name: "wc-hash", AllocsPerOp: 130000, StageNs: map[string]int64{"map/kernel": 100e6, "map/partition": 50e6}},
		{Name: "terasort", StageNs: map[string]int64{"map/partition": 10e6}},
	}
	regs := CompareResults(guardBase(), fresh, GuardOpts{})
	if len(regs) != 1 || regs[0].Metric != "allocs_per_op" || regs[0].Scenario != "wc-hash" {
		t.Fatalf("expected one wc-hash allocs_per_op regression, got %v", regs)
	}
}

func TestGuardFlagsStageRegression(t *testing.T) {
	fresh := []Result{
		{
			Name:        "wc-hash",
			AllocsPerOp: 100000,
			// map/partition blew up 2x; reduce also "blew up" but its 1ms baseline is
			// under the noise floor and must be ignored.
			StageNs: map[string]int64{"map/kernel": 100e6, "map/partition": 100e6, "reduce": 10e6},
		},
		{Name: "terasort", StageNs: map[string]int64{"map/partition": 10e6}},
	}
	regs := CompareResults(guardBase(), fresh, GuardOpts{})
	if len(regs) != 1 || regs[0].Metric != "stage_ns/map/partition" {
		t.Fatalf("expected one stage_ns/map/partition regression, got %v", regs)
	}
	if regs[0].Ratio < 1.9 || regs[0].Ratio > 2.1 {
		t.Fatalf("ratio = %.2f, want ~2.0", regs[0].Ratio)
	}
}

func TestGuardFlagsMissingScenario(t *testing.T) {
	fresh := []Result{
		{Name: "wc-hash", AllocsPerOp: 100000, StageNs: map[string]int64{"map/kernel": 100e6, "map/partition": 50e6}},
	}
	regs := CompareResults(guardBase(), fresh, GuardOpts{})
	if len(regs) != 1 || regs[0].Metric != "missing" || regs[0].Scenario != "terasort" {
		t.Fatalf("expected terasort flagged missing, got %v", regs)
	}
}

func TestGuardIgnoresTinyAllocBase(t *testing.T) {
	// terasort's 500-alloc baseline is under MinAllocs: even a 10x jump must
	// not trip the guard (relative noise on tiny counts).
	fresh := []Result{
		{Name: "wc-hash", AllocsPerOp: 100000, StageNs: map[string]int64{"map/kernel": 100e6, "map/partition": 50e6}},
		{Name: "terasort", AllocsPerOp: 5000, StageNs: map[string]int64{"map/partition": 10e6}},
	}
	if regs := CompareResults(guardBase(), fresh, GuardOpts{}); len(regs) != 0 {
		t.Fatalf("expected no regressions, got %v", regs)
	}
}

func TestGuardCustomRatio(t *testing.T) {
	fresh := []Result{
		{Name: "wc-hash", AllocsPerOp: 110000, StageNs: map[string]int64{"map/kernel": 100e6, "map/partition": 50e6}},
		{Name: "terasort", StageNs: map[string]int64{"map/partition": 10e6}},
	}
	if regs := CompareResults(guardBase(), fresh, GuardOpts{MaxRatio: 1.05}); len(regs) != 1 {
		t.Fatalf("expected the tighter 5%% budget to flag +10%% allocs, got %v", regs)
	}
}

func TestGuardAllocOverride(t *testing.T) {
	// +20% allocs on wc-hash: inside the default 25% budget, outside a
	// per-scenario 10% override. terasort keeps the default.
	fresh := []Result{
		{Name: "wc-hash", AllocsPerOp: 120000, StageNs: map[string]int64{"map/kernel": 100e6, "map/partition": 50e6}},
		{Name: "terasort", StageNs: map[string]int64{"map/partition": 10e6}},
	}
	opts := GuardOpts{AllocOverride: map[string]float64{"wc-hash": 1.10}}
	regs := CompareResults(guardBase(), fresh, opts)
	if len(regs) != 1 || regs[0].Metric != "allocs_per_op" || regs[0].Scenario != "wc-hash" {
		t.Fatalf("expected the 10%% override to flag +20%% allocs, got %v", regs)
	}
}

func TestGuardFlagsShuffleBytes(t *testing.T) {
	base := []Result{{Name: "dist-wc", ShuffleBytes: 100000, StageNs: map[string]int64{"net/send": 50e6}}}
	within := []Result{{Name: "dist-wc", ShuffleBytes: 105000, StageNs: map[string]int64{"net/send": 50e6}}}
	if regs := CompareResults(base, within, GuardOpts{}); len(regs) != 0 {
		t.Fatalf("+5%% shuffle bytes is inside the 10%% budget, got %v", regs)
	}
	fatter := []Result{{Name: "dist-wc", ShuffleBytes: 120000, StageNs: map[string]int64{"net/send": 50e6}}}
	regs := CompareResults(base, fatter, GuardOpts{})
	if len(regs) != 1 || regs[0].Metric != "shuffle_bytes" {
		t.Fatalf("expected +20%% shuffle bytes flagged, got %v", regs)
	}
	// A scenario with no baseline shuffle volume (native rows) is never
	// gated on it.
	nonDist := []Result{{Name: "wc-hash", AllocsPerOp: 100000, StageNs: map[string]int64{"map/kernel": 100e6, "map/partition": 50e6}, ShuffleBytes: 999999}}
	if regs := CompareResults(guardBase()[:1], nonDist, GuardOpts{}); len(regs) != 0 {
		t.Fatalf("native row gated on shuffle_bytes: %v", regs)
	}
}

func TestGuardFlagsLocalityAndSpill(t *testing.T) {
	base := []Result{{Name: "dist-wc-ooc", ReadLocalBytes: 80000, ReadRemoteBytes: 20000, SpillBytes: 50000}}
	within := []Result{{Name: "dist-wc-ooc", ReadLocalBytes: 60000, ReadRemoteBytes: 40000, SpillBytes: 55000}}
	if regs := CompareResults(base, within, GuardOpts{}); len(regs) != 0 {
		t.Fatalf("60%% local and +10%% spill are inside budget, got %v", regs)
	}
	// Locality collapse below the 50% floor is flagged even though the run
	// still completed.
	cold := []Result{{Name: "dist-wc-ooc", ReadLocalBytes: 30000, ReadRemoteBytes: 70000, SpillBytes: 50000}}
	regs := CompareResults(base, cold, GuardOpts{})
	if len(regs) != 1 || regs[0].Metric != "read_local_bytes" {
		t.Fatalf("expected locality floor violation flagged, got %v", regs)
	}
	// Spilling nothing means the out-of-core path stopped engaging; spilling
	// far more means eviction went wild. Both gate.
	for _, spill := range []int64{0, 100000} {
		fresh := []Result{{Name: "dist-wc-ooc", ReadLocalBytes: 80000, ReadRemoteBytes: 20000, SpillBytes: spill}}
		regs := CompareResults(base, fresh, GuardOpts{})
		if len(regs) != 1 || regs[0].Metric != "spill_bytes" {
			t.Fatalf("spill %d: expected spill_bytes flagged, got %v", spill, regs)
		}
	}
	// Rows without baseline block-store reads (plain dist, native) are never
	// gated on locality.
	plain := []Result{{Name: "wc-hash", AllocsPerOp: 100000, StageNs: map[string]int64{"map/kernel": 100e6, "map/partition": 50e6}, ReadLocalBytes: 0, ReadRemoteBytes: 999}}
	if regs := CompareResults(guardBase()[:1], plain, GuardOpts{}); len(regs) != 0 {
		t.Fatalf("non-blockstore row gated on locality: %v", regs)
	}
}

func TestGuardStageOverride(t *testing.T) {
	// A per-scenario stage override widens the budget for that scenario
	// alone: a 2x swing passes the overridden dist row but still gates an
	// identical swing elsewhere, and blowing through even the wide budget
	// gates the overridden row too.
	base := []Result{
		{Name: "dist-wc-3w", StageNs: map[string]int64{"net/send": 100e6}},
		{Name: "dist-wc", StageNs: map[string]int64{"net/send": 100e6}},
	}
	fresh := []Result{
		{Name: "dist-wc-3w", StageNs: map[string]int64{"net/send": 190e6}},
		{Name: "dist-wc", StageNs: map[string]int64{"net/send": 190e6}},
	}
	opts := GuardOpts{StageOverride: map[string]float64{"dist-wc-3w": 2.0}}
	regs := CompareResults(base, fresh, opts)
	if len(regs) != 1 || regs[0].Scenario != "dist-wc" || regs[0].Metric != "stage_ns/net/send" {
		t.Fatalf("expected only the non-overridden row flagged, got %v", regs)
	}
	blown := []Result{
		{Name: "dist-wc-3w", StageNs: map[string]int64{"net/send": 250e6}},
		{Name: "dist-wc", StageNs: map[string]int64{"net/send": 100e6}},
	}
	regs = CompareResults(base, blown, opts)
	if len(regs) != 1 || regs[0].Scenario != "dist-wc-3w" {
		t.Fatalf("expected overridden row flagged past its wide budget, got %v", regs)
	}
}

func TestGuardIgnoresQueueStage(t *testing.T) {
	// net/queue is scheduler contention, not pipeline work: a 10x swing must
	// never gate, while a real stage regression alongside it still does.
	base := []Result{{Name: "dist-wc", StageNs: map[string]int64{"net/queue": 50e6, "net/send": 50e6}}}
	fresh := []Result{{Name: "dist-wc", StageNs: map[string]int64{"net/queue": 500e6, "net/send": 110e6}}}
	regs := CompareResults(base, fresh, GuardOpts{})
	if len(regs) != 1 || regs[0].Metric != "stage_ns/net/send" {
		t.Fatalf("expected only net/send flagged, got %v", regs)
	}
}
