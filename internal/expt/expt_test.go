package expt

import (
	"strconv"
	"strings"
	"testing"
)

// cellF parses a numeric table cell.
func cellF(t *testing.T, tab *Table, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Cell(row, col), 64)
	if err != nil {
		t.Fatalf("%s row %d col %q: %v", tab.ID, row, col, err)
	}
	return v
}

// shape marks a test that runs whole simulated experiments and checks the
// shape of their tables: 80 s of the tier-1 run, so skipped under -short
// (CI runs without -short, so it still runs them all).
func shape(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs simulated experiments; skipped under -short")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{ID: "x", Paper: "p", Title: "t", Columns: []string{"a", "b"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("str", 1234.5678)
	tab.Note("note %d", 7)
	var sb strings.Builder
	tab.Print(&sb)
	out := sb.String()
	for _, want := range []string{"== x", "a", "b", "1", "2.50", "str", "1235", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed table missing %q:\n%s", want, out)
		}
	}
	if tab.Cell(0, "b") != "2.50" {
		t.Errorf("Cell = %q", tab.Cell(0, "b"))
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "tab1", "fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "fig3c", "fig3d", "fig3e",
		"tab2", "tab3", "fig4a", "fig4b", "fig5", "vert", "vert-k20m",
		"abl-olap", "abl-buf", "abl-push", "abl-comp", "abl-net", "ext-hadoopcl", "ext-hetero", "ext-straggler",
		"obs-stall"}
	if len(All) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(All), len(want))
	}
	for _, id := range want {
		if Lookup(id) == nil {
			t.Errorf("missing experiment %q", id)
		}
	}
	if Lookup("nope") != nil {
		t.Error("Lookup of unknown id should be nil")
	}
}

// TestPipelineStallsShape: the traced stall analysis reports every map
// pipeline stage and its notes carry the overlap-factor comparison.
func TestPipelineStallsShape(t *testing.T) {
	shape(t)
	tab := PipelineStalls(Quick())
	stages := map[string]bool{}
	for _, row := range tab.Rows {
		stages[row[0]] = true
	}
	for _, stage := range []string{"map/input", "map/kernel", "map/partition", "reduce/kernel"} {
		if !stages[stage] {
			t.Errorf("stall table missing stage %q (rows: %v)", stage, tab.Rows)
		}
	}
	if len(tab.Notes) < 2 || !strings.Contains(tab.Notes[0], "overlap factor") {
		t.Errorf("expected overlap-factor note, got %v", tab.Notes)
	}
}

// TestFig2WCShape asserts the headline WC relationships at quick scale:
// Glasswing beats Hadoop at every cluster size and scales at least as well.
// TestFig1Renders: the traced pipeline timeline covers every stage of both
// pipelines and shows activity.
func TestFig1Renders(t *testing.T) {
	tab := Fig1(Quick())
	var all strings.Builder
	for _, row := range tab.Rows {
		all.WriteString(row[0])
		all.WriteByte('\n')
	}
	out := all.String()
	for _, stage := range []string{"map/input", "map/stage", "map/kernel", "map/retrieve", "map/partition", "merge", "reduce/input", "reduce/kernel", "reduce/output"} {
		if !strings.Contains(out, stage) {
			t.Errorf("figure 1 timeline missing stage %q", stage)
		}
	}
	if !strings.Contains(out, "#") {
		t.Error("no activity rendered")
	}
}

func TestTableIComplete(t *testing.T) {
	tab := TableI(Quick())
	if len(tab.Rows) != 12 {
		t.Fatalf("Table I has %d rows, want 12 (as in the paper)", len(tab.Rows))
	}
	if tab.Rows[len(tab.Rows)-1][0] != "Glasswing" {
		t.Fatal("Glasswing must be the last row, as in the paper")
	}
}

func TestFig2WCShape(t *testing.T) {
	shape(t)
	tab := Fig2WC(Quick())
	for r := range tab.Rows {
		h := cellF(t, tab, r, "hadoop(s)")
		g := cellF(t, tab, r, "glasswing(s)")
		if g >= h {
			t.Errorf("row %d: glasswing (%g) not faster than hadoop (%g)", r, g, h)
		}
	}
	gw1 := cellF(t, tab, 0, "glasswing(s)")
	gwN := cellF(t, tab, len(tab.Rows)-1, "glasswing(s)")
	if gwN >= gw1 {
		t.Errorf("glasswing does not scale: 1 node %g, max nodes %g", gw1, gwN)
	}
	h1 := cellF(t, tab, 0, "hadoop(s)")
	ratio := h1 / gw1
	if ratio < 1.2 || ratio > 4.5 {
		t.Errorf("single-node WC advantage %.2fx outside the paper band [1.2, 4.5]", ratio)
	}
}

// TestFig3KMShape asserts the compute-bound relationships: GPU beats CPU
// beats Hadoop, and Glasswing GPU is competitive with GPMR.
func TestFig3KMShape(t *testing.T) {
	shape(t)
	tab := Fig3KMGPU(Quick())
	for r := range tab.Rows {
		h := cellF(t, tab, r, "hadoop(s)")
		c := cellF(t, tab, r, "gw-cpu(s)")
		g := cellF(t, tab, r, "gw-gpu-hdfs(s)")
		if c >= h {
			t.Errorf("row %d: glasswing CPU (%g) not faster than Hadoop (%g)", r, c, h)
		}
		if g >= c {
			t.Errorf("row %d: GPU (%g) not faster than CPU (%g)", r, g, c)
		}
	}
	h1 := cellF(t, tab, 0, "hadoop(s)")
	g1 := cellF(t, tab, 0, "gw-gpu-hdfs(s)")
	if h1/g1 < 3 {
		t.Errorf("single-node GPU gain %.1fx too small", h1/g1)
	}
}

// TestTableIIShape asserts the paper's Table II relationships. The
// kernel-time contrast between collectors needs the benchmark-scale WC
// dataset to rise above contention noise; the experiment is single-node
// and still fast.
func TestTableIIShape(t *testing.T) {
	shape(t)
	s := Quick()
	s.WCBytes = Default().WCBytes
	tab := TableII(s)
	col := map[string]int{}
	for i, c := range tab.Columns {
		col[c] = i
	}
	get := func(metric, config string) float64 {
		for _, row := range tab.Rows {
			if row[0] == metric {
				v, err := strconv.ParseFloat(row[col[config]], 64)
				if err != nil {
					t.Fatalf("parse %s/%s: %v", metric, config, err)
				}
				return v
			}
		}
		t.Fatalf("no metric %q", metric)
		return 0
	}
	// Simple collection: cheapest kernel, most expensive partitioning.
	if get("Kernel", "simple(dbl)") >= get("Kernel", "hash(dbl)") {
		t.Error("simple collection kernel should beat plain hash table")
	}
	if get("Partitioning", "simple(dbl)") <= get("Partitioning", "hash+comb(dbl)") {
		t.Error("simple collection partitioning should exceed hash+combiner")
	}
	// The combiner shrinks downstream work.
	if get("Reduce time", "hash(dbl)") <= get("Reduce time", "hash+comb(dbl)") {
		t.Error("no-combiner reduce should exceed combiner reduce")
	}
	// Single buffering serializes the input group.
	if get("Map elapsed", "hash+comb(single)") < get("Map elapsed", "hash+comb(dbl)") {
		t.Error("single buffering should not beat double buffering")
	}
}

// TestTableIIIShape asserts the CPU/GPU contrast of Table III.
func TestTableIIIShape(t *testing.T) {
	shape(t)
	tab := TableIII(Quick())
	col := map[string]int{}
	for i, c := range tab.Columns {
		col[c] = i
	}
	get := func(metric, config string) float64 {
		for _, row := range tab.Rows {
			if row[0] == metric {
				v, _ := strconv.ParseFloat(row[col[config]], 64)
				return v
			}
		}
		t.Fatalf("no metric %q", metric)
		return 0
	}
	if get("Kernel", "gpu:hash+comb") >= get("Kernel", "cpu:hash+comb") {
		t.Error("GPU kernel should beat CPU kernel for compute-bound KM")
	}
	// Stage/Retrieve must be active on the GPU, disabled on the CPU.
	if get("Stage", "cpu:hash+comb") != 0 {
		t.Error("CPU Stage should be zero (unified memory)")
	}
	if get("Stage", "gpu:hash+comb") <= 0 {
		t.Error("GPU Stage should be non-zero")
	}
	// Partitioning is cheaper when the kernel is not contending for the CPU.
	if get("Partitioning", "gpu:hash") > get("Partitioning", "cpu:hash")*1.05 {
		t.Error("GPU-device partitioning should not exceed CPU-device partitioning")
	}
}

// TestFig4aShape: partitioning parallelizes with N.
func TestFig4aShape(t *testing.T) {
	shape(t)
	tab := Fig4a(Quick())
	p1 := cellF(t, tab, 0, "partitioning(s)")
	p8 := cellF(t, tab, 3, "partitioning(s)")
	if p8 >= p1 {
		t.Errorf("partitioning with N=8 (%g) should beat N=1 (%g)", p8, p1)
	}
	if p1/p8 < 1.5 {
		t.Errorf("partitioning speedup N=1->8 only %.2fx", p1/p8)
	}
}

// TestFig5Shape: kernel-launch amortization.
func TestFig5Shape(t *testing.T) {
	shape(t)
	tab := Fig5(Quick())
	e1 := cellF(t, tab, 0, "reduce-elapsed(s)")
	e4096 := cellF(t, tab, 3, "reduce-elapsed(s)")
	if e4096 >= e1 {
		t.Errorf("4096 concurrent keys (%g) should beat one key per launch (%g)", e4096, e1)
	}
	k1 := cellF(t, tab, 0, "reduce-kernel(s)")
	k4096 := cellF(t, tab, 3, "reduce-kernel(s)")
	if k4096 >= k1 {
		t.Errorf("kernel busy time should fall with concurrency: %g vs %g", k4096, k1)
	}
	// Keys-per-thread amortizes thread spawn further.
	kpt1 := cellF(t, tab, 3, "reduce-kernel(s)")
	kpt16 := cellF(t, tab, 6, "reduce-kernel(s)")
	if kpt16 > kpt1 {
		t.Errorf("16 keys/thread (%g) should not exceed 1 key/thread (%g)", kpt16, kpt1)
	}
}

// TestVerticalShape: every accelerator beats the CPU for compute-bound KM.
func TestVerticalShape(t *testing.T) {
	shape(t)
	tab := Vertical(Quick())
	cpu := cellF(t, tab, 0, "KM(s)")
	for r := 1; r < len(tab.Rows); r++ {
		dev := cellF(t, tab, r, "KM(s)")
		if dev >= cpu {
			t.Errorf("device row %d (%s): KM %g not faster than CPU %g", r, tab.Rows[r][0], dev, cpu)
		}
	}
	// Device generations must be ordered sensibly: K20m >= GTX480 speedup.
	g480 := cellF(t, tab, 1, "KM-speedup-vs-CPU")
	k20 := cellF(t, tab, 3, "KM-speedup-vs-CPU")
	if k20 < g480 {
		t.Errorf("K20m speedup (%g) below GTX480 (%g)", k20, g480)
	}
}

func TestK20mScalingShape(t *testing.T) {
	shape(t)
	tab := VerticalK20mScaling(Quick())
	last := len(tab.Rows) - 1
	sp := cellF(t, tab, last, "speedup")
	// At quick scale fixed costs cap the curve; the calibrated run in
	// EXPERIMENTS.md reaches ~6.4x on 8 nodes.
	if sp < 2.0 {
		t.Errorf("8-node K20m speedup %.2f too low", sp)
	}
}

// TestExtHadoopCLShape: HadoopCL lands between Hadoop and Glasswing GPU.
func TestExtHadoopCLShape(t *testing.T) {
	shape(t)
	tab := ExtHadoopCL(Quick())
	for r := range tab.Rows {
		h := cellF(t, tab, r, "hadoop(s)")
		c := cellF(t, tab, r, "hadoopcl-gpu(s)")
		g := cellF(t, tab, r, "glasswing-gpu(s)")
		// At quick scale the single-node point is dominated by Hadoop
		// framework overheads both systems share; require the win from
		// 2 nodes up (the calibrated run has it everywhere).
		if r > 0 && c >= h {
			t.Errorf("row %d: HadoopCL (%g) should beat plain Hadoop (%g)", r, c, h)
		}
		if g >= c {
			t.Errorf("row %d: Glasswing GPU (%g) should beat HadoopCL (%g)", r, g, c)
		}
	}
}

// TestExtHeterogeneousShape: mixed beats all-CPU; weighted beats even.
func TestExtHeterogeneousShape(t *testing.T) {
	shape(t)
	tab := ExtHeterogeneous(Quick())
	allCPU := cellF(t, tab, 0, "job(s)")
	staticEven := cellF(t, tab, 1, "job(s)")
	weighted := cellF(t, tab, 2, "job(s)")
	dynamic := cellF(t, tab, 3, "job(s)")
	// A static even split buys almost nothing: the makespan is set by the
	// CPU stragglers, same as the homogeneous cluster — that is the point.
	if staticEven > allCPU*1.02 {
		t.Errorf("static-even (%g) should not exceed all-CPU (%g)", staticEven, allCPU)
	}
	if weighted >= staticEven {
		t.Errorf("capacity-weighted (%g) should beat the static even split (%g)", weighted, staticEven)
	}
	if dynamic >= staticEven {
		t.Errorf("dynamic stealing (%g) should beat the static even split (%g)", dynamic, staticEven)
	}
}

// TestExtStragglerShape: speculation recovers part of the straggler's cost.
func TestExtStragglerShape(t *testing.T) {
	shape(t)
	tab := ExtStraggler(Quick())
	plain := cellF(t, tab, 0, "map-phase(s)")
	spec := cellF(t, tab, 1, "map-phase(s)")
	if spec >= plain {
		t.Errorf("speculative Hadoop map phase (%g) should beat plain (%g) with a straggler", spec, plain)
	}
	static := cellF(t, tab, 2, "map-phase(s)")
	dynamic := cellF(t, tab, 3, "map-phase(s)")
	if dynamic >= static {
		t.Errorf("dynamic scheduling map phase (%g) should beat static (%g) with a straggler", dynamic, static)
	}
}

func TestAblationShapes(t *testing.T) {
	shape(t)
	s := Quick()
	ol := AblationOverlap(s)
	for r := range ol.Rows {
		if cellF(t, ol, r, "sequential/overlapped") < 1.0 {
			t.Errorf("overlap should not hurt: row %d", r)
		}
	}
	buf := AblationBuffering(s)
	for r := range buf.Rows {
		if cellF(t, buf, r, "double(s)") > cellF(t, buf, r, "single(s)")*1.02 {
			t.Errorf("double buffering slower than single in row %d", r)
		}
	}
	comp := AblationCompression(s)
	if cellF(t, comp, 0, "intermediate-bytes") >= cellF(t, comp, 1, "intermediate-bytes") {
		t.Error("compression should shrink intermediate data")
	}
	pp := AblationPushPull(s)
	if cellF(t, pp, 1, "merge-delay(s)") <= cellF(t, pp, 0, "merge-delay(s)") {
		t.Error("pull shuffle should pay a larger merge delay than push")
	}
	// The fabric only shows once the shuffle volume outgrows what the
	// pipeline can hide; use the benchmark-scale TS dataset.
	s2 := s
	s2.TSRecords = Default().TSRecords
	net := AblationNetwork(s2)
	if cellF(t, net, 1, "job(s)") <= cellF(t, net, 0, "job(s)") {
		t.Error("GbE should be slower than IPoIB for shuffle-heavy TS")
	}
}

// TestFig3Deterministic runs Fig 3(a) and Fig 3(c) twice each: a simulated
// experiment's table is a function of its sizes, byte for byte. Both spawn
// same-named processes whose flows finish together, so a wake order left
// to map iteration shows here as two different rows.
func TestFig3Deterministic(t *testing.T) {
	for _, run := range []func(Sizes) *Table{Fig3KMCPU, Fig3KMGPU} {
		var a, b strings.Builder
		run(Quick()).Print(&a)
		run(Quick()).Print(&b)
		if a.String() != b.String() {
			t.Fatalf("two runs printed different tables:\n%s\n%s", a.String(), b.String())
		}
	}
}
