package hadoop

import (
	"strconv"
	"strings"
	"testing"

	"glasswing/internal/core"
	"glasswing/internal/dfs"
	"glasswing/internal/hw"
	"glasswing/internal/kv"
	"glasswing/internal/sim"
)

func wcApp() *core.App {
	sum := func(key []byte, values [][]byte, out *kv.Batch) {
		total := 0
		for _, v := range values {
			n, _ := strconv.Atoi(string(v))
			total += n
		}
		out.AppendKV(key, []byte(strconv.Itoa(total)))
	}
	return &core.App{
		Name: "wc",
		Parse: func(block []byte) []kv.Pair {
			var recs []kv.Pair
			for _, line := range strings.Split(string(block), "\n") {
				if line != "" {
					recs = append(recs, kv.Pair{Value: []byte(line)})
				}
			}
			return recs
		},
		ParseCostPerByte: 1,
		MapBatch: func(recs []kv.Pair, out kv.Sink) {
			for _, rec := range recs {
				for _, w := range strings.Fields(string(rec.Value)) {
					out.AppendKV([]byte(w), []byte("1"))
				}
			}
		},
		MapCost:     core.CostModel{OpsPerRecord: 50, OpsPerByte: 8, OpsPerEmit: 20},
		Combine:     sum,
		CombineCost: core.CostModel{OpsPerRecord: 20, OpsPerValue: 10, OpsPerEmit: 20},
		ReduceBatch: sum,
		ReduceCost:  core.CostModel{OpsPerRecord: 20, OpsPerValue: 10, OpsPerEmit: 20},
	}
}

func corpus(lines int) ([]byte, map[string]int) {
	var sb strings.Builder
	want := map[string]int{}
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for i := 0; i < lines; i++ {
		for j := 0; j <= i%3; j++ {
			w := words[(i+j)%len(words)]
			sb.WriteString(w)
			sb.WriteByte(' ')
			want[w]++
		}
		sb.WriteByte('\n')
	}
	return []byte(sb.String()), want
}

func setup(nodes int, lines int) (*Runtime, map[string]int) {
	env := sim.NewEnv()
	cluster := hw.NewCluster(env, nodes, hw.Type1(false))
	d := dfs.New(cluster, 4<<10, min(3, nodes))
	data, want := corpus(lines)
	d.PreloadBlocks("in", dfs.SplitLines(data, 4<<10), 0)
	return &Runtime{Cluster: cluster, FS: d}, want
}

func checkCounts(t *testing.T, res *Result, want map[string]int) {
	t.Helper()
	got := map[string]int{}
	for _, pr := range res.Output() {
		n, err := strconv.Atoi(string(pr.Value))
		if err != nil {
			t.Fatalf("bad count %q", pr.Value)
		}
		got[string(pr.Key)] += n
	}
	if len(got) != len(want) {
		t.Fatalf("got %d distinct words, want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			t.Errorf("word %q: got %d, want %d", w, got[w], n)
		}
	}
}

func TestWordCountCorrect(t *testing.T) {
	for _, nodes := range []int{1, 4} {
		rt, want := setup(nodes, 600)
		res, err := Run(rt, wcApp(), Config{Input: []string{"in"}, UseCombiner: true})
		if err != nil {
			t.Fatal(err)
		}
		checkCounts(t, res, want)
		if res.JobTime < jobStartupSecs {
			t.Fatalf("job time %g below bare startup", res.JobTime)
		}
	}
}

func TestWordCountNoCombiner(t *testing.T) {
	rt, want := setup(2, 500)
	res, err := Run(rt, wcApp(), Config{Input: []string{"in"}})
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res, want)
}

func TestPhasesAccounted(t *testing.T) {
	rt, _ := setup(2, 800)
	res, err := Run(rt, wcApp(), Config{Input: []string{"in"}, UseCombiner: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MapPhase <= 0 || res.ReducePhase <= 0 {
		t.Fatalf("phases not accounted: %+v", res)
	}
	if res.MapPhase+res.ShuffleDrain+res.ReducePhase > res.JobTime*1.001 {
		t.Fatalf("phase sum exceeds job time: %+v", res)
	}
}

func TestMoreNodesFaster(t *testing.T) {
	run := func(nodes int) float64 {
		env := sim.NewEnv()
		// Dilate the hardware so per-node work dominates the fixed
		// JobTracker overheads, as it would at real dataset sizes.
		cluster := hw.NewCluster(env, nodes, hw.Type1(false).Slowed(100))
		d := dfs.New(cluster, 256<<10, min(3, nodes))
		data, _ := corpus(120000)
		d.PreloadBlocks("in", dfs.SplitLines(data, 256<<10), 0)
		rt := &Runtime{Cluster: cluster, FS: d}
		res, err := Run(rt, wcApp(), Config{Input: []string{"in"}, UseCombiner: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.JobTime
	}
	one := run(1)
	four := run(4)
	if four >= one {
		t.Fatalf("4 nodes (%g) not faster than 1 (%g)", four, one)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() float64 {
		rt, _ := setup(3, 500)
		res, err := Run(rt, wcApp(), Config{Input: []string{"in"}})
		if err != nil {
			t.Fatal(err)
		}
		return res.JobTime
	}
	if run() != run() {
		t.Fatal("nondeterministic job time")
	}
}

func TestValidation(t *testing.T) {
	rt, _ := setup(1, 10)
	if _, err := Run(rt, &core.App{Name: "x"}, Config{Input: []string{"in"}}); err == nil {
		t.Error("want error for app without kernels")
	}
	if _, err := Run(rt, wcApp(), Config{}); err == nil {
		t.Error("want error for missing input")
	}
	if _, err := Run(rt, wcApp(), Config{Input: []string{"none"}}); err == nil {
		t.Error("want error for missing file")
	}
}

func TestCombinerEquivalence(t *testing.T) {
	// With and without the combiner, the final counts are identical —
	// the combiner only moves aggregation earlier.
	rt1, want := setup(3, 700)
	with, err := Run(rt1, wcApp(), Config{Input: []string{"in"}, UseCombiner: true})
	if err != nil {
		t.Fatal(err)
	}
	rt2, _ := setup(3, 700)
	without, err := Run(rt2, wcApp(), Config{Input: []string{"in"}})
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, with, want)
	checkCounts(t, without, want)
	// And the combiner must not be slower (it shrinks shuffle+reduce).
	if with.JobTime > without.JobTime*1.05 {
		t.Errorf("combiner run (%g) slower than plain (%g)", with.JobTime, without.JobTime)
	}
}

func TestReducerCountSweep(t *testing.T) {
	// Any reducer count computes the same answer.
	for _, reducers := range []int{1, 3, 16} {
		rt, want := setup(2, 400)
		res, err := Run(rt, wcApp(), Config{Input: []string{"in"}, Reducers: reducers, UseCombiner: true})
		if err != nil {
			t.Fatal(err)
		}
		checkCounts(t, res, want)
	}
}

func TestPullShuffleOverlapsMapPhase(t *testing.T) {
	// Reducers start fetching before the map phase finishes (slowstart):
	// the shuffle drain after maps must be below total map time.
	rt, _ := setup(4, 4000)
	res, err := Run(rt, wcApp(), Config{Input: []string{"in"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ShuffleDrain >= res.MapPhase {
		t.Fatalf("shuffle drain %g should be below map phase %g (copy overlaps maps)", res.ShuffleDrain, res.MapPhase)
	}
}
