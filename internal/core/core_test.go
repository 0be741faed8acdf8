package core

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"glasswing/internal/dfs"
	"glasswing/internal/hw"
	"glasswing/internal/kv"
	"glasswing/internal/sim"
)

// toyWordCount is a minimal word-count App used throughout the core tests.
func toyWordCount() *App {
	sum := func(key []byte, values [][]byte, out *kv.Batch) {
		total := 0
		for _, v := range values {
			n, _ := strconv.Atoi(string(v))
			total += n
		}
		out.AppendKV(key, []byte(strconv.Itoa(total)))
	}
	return &App{
		Name: "toy-wc",
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
		MapCost:     CostModel{OpsPerRecord: 50, OpsPerByte: 8, OpsPerEmit: 20},
		Combine:     sum,
		CombineCost: CostModel{OpsPerRecord: 20, OpsPerValue: 10, OpsPerEmit: 20},
		ReduceBatch: sum,
		ReduceCost:  CostModel{OpsPerRecord: 20, OpsPerValue: 10, OpsPerEmit: 20},
	}
}

// corpus builds a small text with known word counts.
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

func newRuntime(nodes int, withGPU bool, blockSize int64) (*Runtime, *dfs.DFS) {
	env := sim.NewEnv()
	cluster := hw.NewCluster(env, nodes, hw.Type1(withGPU))
	d := dfs.New(cluster, blockSize, min(3, nodes))
	return &Runtime{Cluster: cluster, FS: d}, d
}

// preloadText installs a text corpus with line-aligned splits.
func preloadText(d *dfs.DFS, name string, data []byte) {
	d.PreloadBlocks(name, dfs.SplitLines(data, d.BlockSize), 0)
}

func checkWordCounts(t *testing.T, res *Result, want map[string]int) {
	t.Helper()
	got := map[string]int{}
	for _, pr := range res.Output() {
		n, err := strconv.Atoi(string(pr.Value))
		if err != nil {
			t.Fatalf("bad count %q for key %q", pr.Value, pr.Key)
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

func TestWordCountEndToEndSingleNode(t *testing.T) {
	rt, d := newRuntime(1, false, 4<<10)
	data, want := corpus(500)
	preloadText(d, "in", data)
	res, err := Run(rt, toyWordCount(), Config{
		Input: []string{"in"}, Collector: HashTable, UseCombiner: true, Compress: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkWordCounts(t, res, want)
	if res.JobTime <= 0 || res.MapElapsed <= 0 || res.ReduceElapsed <= 0 {
		t.Fatalf("degenerate timings: %+v", res)
	}
}

func TestWordCountEndToEndCluster(t *testing.T) {
	for _, nodes := range []int{2, 4} {
		for _, coll := range []CollectorKind{HashTable, BufferPool} {
			name := fmt.Sprintf("%dnodes-%v", nodes, coll)
			t.Run(name, func(t *testing.T) {
				rt, d := newRuntime(nodes, false, 4<<10)
				data, want := corpus(800)
				preloadText(d, "in", data)
				cfg := Config{Input: []string{"in"}, Collector: coll}
				if coll == HashTable {
					cfg.UseCombiner = true
				}
				res, err := Run(rt, toyWordCount(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkWordCounts(t, res, want)
			})
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() *Result {
		rt, d := newRuntime(3, false, 4<<10)
		data, _ := corpus(400)
		preloadText(d, "in", data)
		res, err := Run(rt, toyWordCount(), Config{Input: []string{"in"}, Collector: HashTable, UseCombiner: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.JobTime != b.JobTime || a.MapElapsed != b.MapElapsed || a.MergeDelay != b.MergeDelay {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestCombinerShrinksIntermediateData(t *testing.T) {
	run := func(useComb bool) *Result {
		rt, d := newRuntime(2, false, 4<<10)
		data, want := corpus(600)
		preloadText(d, "in", data)
		res, err := Run(rt, toyWordCount(), Config{
			Input: []string{"in"}, Collector: HashTable, UseCombiner: useComb,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkWordCounts(t, res, want)
		return res
	}
	with := run(true)
	without := run(false)
	if with.IntermediateBytes >= without.IntermediateBytes {
		t.Fatalf("combiner did not shrink intermediate data: %d vs %d",
			with.IntermediateBytes, without.IntermediateBytes)
	}
}

func TestBufferingLevelsAllCorrectAndOverlapHelps(t *testing.T) {
	var times []float64
	for _, buf := range []int{1, 2, 3} {
		rt, d := newRuntime(1, false, 2<<10)
		data, want := corpus(600)
		preloadText(d, "in", data)
		res, err := Run(rt, toyWordCount(), Config{
			Input: []string{"in"}, Collector: HashTable, UseCombiner: true, Buffering: buf,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkWordCounts(t, res, want)
		times = append(times, res.JobTime)
	}
	if times[1] > times[0]*1.001 {
		t.Errorf("double buffering (%g) should not be slower than single (%g)", times[1], times[0])
	}
}

func TestNoOverlapAblationSlower(t *testing.T) {
	run := func(noOverlap bool) *Result {
		rt, d := newRuntime(1, false, 2<<10)
		data, want := corpus(800)
		preloadText(d, "in", data)
		res, err := Run(rt, toyWordCount(), Config{
			Input: []string{"in"}, Collector: HashTable, UseCombiner: true, NoOverlap: noOverlap,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkWordCounts(t, res, want)
		return res
	}
	overlapped := run(false)
	sequential := run(true)
	if sequential.MapElapsed <= overlapped.MapElapsed {
		t.Fatalf("sequential map (%g) should be slower than pipelined (%g)",
			sequential.MapElapsed, overlapped.MapElapsed)
	}
}

func TestPullShuffleSlowerThanPush(t *testing.T) {
	run := func(pull bool) *Result {
		rt, d := newRuntime(4, false, 2<<10)
		data, want := corpus(800)
		preloadText(d, "in", data)
		res, err := Run(rt, toyWordCount(), Config{
			Input: []string{"in"}, Collector: HashTable, UseCombiner: true, PullShuffle: pull,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkWordCounts(t, res, want)
		return res
	}
	push := run(false)
	pull := run(true)
	if pull.MergeDelay <= push.MergeDelay {
		t.Fatalf("pull shuffle merge delay (%g) should exceed push (%g)",
			pull.MergeDelay, push.MergeDelay)
	}
}

func TestGPUDeviceRuns(t *testing.T) {
	rt, d := newRuntime(2, true, 4<<10)
	data, want := corpus(500)
	preloadText(d, "in", data)
	res, err := Run(rt, toyWordCount(), Config{
		Input: []string{"in"}, Device: 1, Collector: HashTable, UseCombiner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkWordCounts(t, res, want)
	// Discrete device: Stage/Retrieve must actually cost something.
	st := res.MaxMapStage()
	if st.Stage <= 0 || st.Retrieve <= 0 {
		t.Fatalf("GPU Stage/Retrieve should be non-zero: %+v", st)
	}
	// CPU runs must have them disabled.
	rt2, d2 := newRuntime(2, true, 4<<10)
	d2.Preload("in", data, 0)
	res2, err := Run(rt2, toyWordCount(), Config{
		Input: []string{"in"}, Device: 0, Collector: HashTable, UseCombiner: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st2 := res2.MaxMapStage()
	if st2.Stage != 0 || st2.Retrieve != 0 {
		t.Fatalf("unified Stage/Retrieve should be zero: %+v", st2)
	}
}

func TestIdentityJobNoReduceKeepsOrder(t *testing.T) {
	// A no-reduce app (TeraSort-style) with a range partitioner: output
	// concatenated by partition must be globally sorted.
	app := &App{
		Name: "toy-sort",
		Parse: func(block []byte) []kv.Pair {
			var recs []kv.Pair
			for i := 0; i+4 <= len(block); i += 4 {
				recs = append(recs, kv.Pair{Key: block[i : i+2], Value: block[i+2 : i+4]})
			}
			return recs
		},
		ParseCostPerByte: 1,
		MapBatch: func(recs []kv.Pair, out kv.Sink) {
			for _, rec := range recs {
				out.AppendKV(rec.Key, rec.Value)
			}
		},
		MapCost: CostModel{OpsPerRecord: 10, OpsPerByte: 2, OpsPerEmit: 10},
	}
	var data []byte
	rng := uint32(12345)
	for i := 0; i < 4000; i++ {
		rng = rng*1664525 + 1013904223
		data = append(data, byte('a'+rng%26), byte('a'+(rng>>8)%26), byte(rng>>16), byte(rng>>24))
	}
	rt, d := newRuntime(4, false, 1<<10)
	d.PreloadBlocks("in", dfs.SplitFixed(data, 1<<10, 4), 0)
	res, err := Run(rt, app, Config{
		Input: []string{"in"}, Collector: BufferPool,
		Partitioner: func(key []byte, n int) int {
			// Range partition on the first byte: preserves global order.
			return int(key[0]-'a') * n / 26
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Output()
	if len(out) != 4000 {
		t.Fatalf("output pairs = %d, want 4000", len(out))
	}
	for i := 1; i < len(out); i++ {
		if bytes.Compare(out[i-1].Key, out[i].Key) > 0 {
			t.Fatalf("output not totally ordered at %d: %q > %q", i, out[i-1].Key, out[i].Key)
		}
	}
}

func TestMergeDelayRespondsToCachePressure(t *testing.T) {
	run := func(threshold int64) *Result {
		rt, d := newRuntime(1, false, 1<<10)
		data, want := corpus(1200)
		preloadText(d, "in", data)
		res, err := Run(rt, toyWordCount(), Config{
			Input: []string{"in"}, Collector: HashTable, UseCombiner: false,
			CacheThreshold: threshold, PartitionsPerNode: 2, MaxSpillFiles: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkWordCounts(t, res, want)
		return res
	}
	tight := run(2 << 10) // force spills and merges
	loose := run(1 << 30) // everything stays cached
	if tight.JobTime <= loose.JobTime {
		t.Fatalf("spilling run (%g) should be slower than cached run (%g)",
			tight.JobTime, loose.JobTime)
	}
}

func TestConfigValidation(t *testing.T) {
	rt, d := newRuntime(1, false, 4<<10)
	d.Preload("in", []byte("x"), 0)
	if _, err := Run(rt, &App{Name: "broken"}, Config{Input: []string{"in"}}); err == nil {
		t.Error("app without Map/Parse should fail")
	}
	app := toyWordCount()
	if _, err := Run(rt, app, Config{}); err == nil {
		t.Error("missing input should fail")
	}
	if _, err := Run(rt, app, Config{Input: []string{"in"}, Device: 5}); err == nil {
		t.Error("bad device index should fail")
	}
	if _, err := Run(rt, app, Config{Input: []string{"nope"}}); err == nil {
		t.Error("missing file should fail")
	}
}

func TestOutputWrittenToFS(t *testing.T) {
	rt, d := newRuntime(2, false, 4<<10)
	data, _ := corpus(300)
	preloadText(d, "in", data)
	cfg := Config{Input: []string{"in"}, OutputPath: "result", PartitionsPerNode: 2,
		Collector: HashTable, UseCombiner: true}
	if _, err := Run(rt, toyWordCount(), cfg); err != nil {
		t.Fatal(err)
	}
	found := 0
	for g := 0; g < 4; g++ {
		if d.Exists(fmt.Sprintf("result-%05d", g)) {
			found++
		}
	}
	if found != 4 {
		t.Fatalf("found %d output partition files, want 4", found)
	}
}

func TestTaskFailureReExecution(t *testing.T) {
	// Every split fails exactly twice before succeeding; the output must
	// still be exactly right and the retries accounted.
	rt, d := newRuntime(2, false, 2<<10)
	data, want := corpus(600)
	preloadText(d, "in", data)
	attempts := map[[2]int]int{}
	var splits int
	if f, err := d.Open("in"); err == nil {
		splits = len(f.Blocks)
	}
	res, err := Run(rt, toyWordCount(), Config{
		Input: []string{"in"}, Collector: HashTable, UseCombiner: true,
		FaultInjector: func(file string, split, attempt int) bool {
			attempts[[2]int{split, attempt}]++
			return attempt <= 2
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkWordCounts(t, res, want)
	if res.TaskRetries != 2*splits {
		t.Fatalf("TaskRetries = %d, want %d", res.TaskRetries, 2*splits)
	}
	for key, n := range attempts {
		if n != 1 {
			t.Fatalf("split %d attempt %d ran %d times", key[0], key[1], n)
		}
	}
}

func TestTaskFailureCostsTime(t *testing.T) {
	run := func(fail bool) *Result {
		rt, d := newRuntime(1, false, 2<<10)
		data, want := corpus(600)
		preloadText(d, "in", data)
		cfg := Config{Input: []string{"in"}, Collector: HashTable, UseCombiner: true}
		if fail {
			cfg.FaultInjector = func(_ string, split, attempt int) bool {
				return split%2 == 0 && attempt == 1
			}
		}
		res, err := Run(rt, toyWordCount(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkWordCounts(t, res, want)
		return res
	}
	clean := run(false)
	faulty := run(true)
	if faulty.TaskRetries == 0 {
		t.Fatal("no retries recorded")
	}
	if faulty.JobTime <= clean.JobTime {
		t.Fatalf("re-execution should cost time: faulty %g vs clean %g", faulty.JobTime, clean.JobTime)
	}
}

func TestTaskFailureExhaustsAttempts(t *testing.T) {
	rt, d := newRuntime(1, false, 2<<10)
	data, _ := corpus(100)
	preloadText(d, "in", data)
	_, err := Run(rt, toyWordCount(), Config{
		Input: []string{"in"}, Collector: HashTable, UseCombiner: true,
		MaxTaskAttempts: 2,
		FaultInjector:   func(string, int, int) bool { return true },
	})
	if err == nil {
		t.Fatal("expected job failure after exhausting attempts")
	}
}

func TestNoOverlapFaultRetry(t *testing.T) {
	rt, d := newRuntime(1, false, 2<<10)
	data, want := corpus(400)
	preloadText(d, "in", data)
	res, err := Run(rt, toyWordCount(), Config{
		Input: []string{"in"}, Collector: HashTable, UseCombiner: true, NoOverlap: true,
		FaultInjector: func(_ string, split, attempt int) bool { return split == 0 && attempt == 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	checkWordCounts(t, res, want)
	if res.TaskRetries != 1 {
		t.Fatalf("TaskRetries = %d, want 1", res.TaskRetries)
	}
}

func TestDeviceMemoryBudget(t *testing.T) {
	// Triple buffering of huge blocks must not fit a GTX480's 1.5 GiB.
	env := sim.NewEnv()
	cluster := hw.NewCluster(env, 1, hw.Type1(true))
	d := dfs.New(cluster, 512<<20, 1)
	big := make([]byte, 600<<20)
	for i := 0; i < len(big); i += 101 {
		big[i] = '\n'
	}
	d.Preload("in", big, 0)
	rt := &Runtime{Cluster: cluster, FS: d}
	_, err := Run(rt, toyWordCount(), Config{
		Input: []string{"in"}, Device: 1, Buffering: 3,
		Collector: HashTable, UseCombiner: true,
	})
	if err == nil {
		t.Fatal("triple-buffered 512MiB blocks should exceed GTX480 memory")
	}
}

func TestTraceRecordsOverlap(t *testing.T) {
	rt, d := newRuntime(2, true, 2<<10)
	data, want := corpus(600)
	preloadText(d, "in", data)
	res, err := Run(rt, toyWordCount(), Config{
		Input: []string{"in"}, Device: 1, Collector: HashTable, UseCombiner: true,
		Trace: true, CacheThreshold: 1 << 10, PartitionsPerNode: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkWordCounts(t, res, want)
	tr := res.Trace
	if tr == nil || len(tr.Spans) == 0 {
		t.Fatal("no trace recorded")
	}
	stages := map[string]bool{}
	for _, sp := range tr.Spans {
		if sp.End <= sp.Start {
			t.Fatalf("degenerate span %+v", sp)
		}
		stages[sp.Stage] = true
	}
	for _, want := range []string{"map/input", "map/stage", "map/kernel", "map/retrieve", "map/partition", "reduce/input", "reduce/kernel", "reduce/output"} {
		if !stages[want] {
			t.Errorf("trace missing stage %q (have %v)", want, stages)
		}
	}
	// Busy times from the trace must match the stage accounting.
	st := res.MapStages[0]
	if got := tr.Busy(0, "map/input"); got < st.Input*0.99 || got > st.Input*1.01 {
		t.Errorf("trace input busy %g vs stage accounting %g", got, st.Input)
	}
	// Overlap: some map/input span must intersect a map/kernel span.
	overlaps := false
	for _, a := range tr.Spans {
		if a.Stage != "map/input" {
			continue
		}
		for _, b := range tr.Spans {
			if b.Stage == "map/kernel" && a.Node == b.Node && a.Start < b.End && b.Start < a.End {
				overlaps = true
			}
		}
	}
	if !overlaps {
		t.Error("expected input/kernel overlap in the pipeline trace")
	}
	// The Gantt renderer must produce a sane chart.
	out := tr.String()
	if !strings.Contains(out, "map/kernel") || !strings.Contains(out, "#") {
		t.Errorf("render output unexpected:\n%s", out)
	}
	start, end := tr.Window()
	if !(start >= 0 && end > start) {
		t.Errorf("bad window %g..%g", start, end)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	rt, d := newRuntime(1, false, 4<<10)
	data, _ := corpus(100)
	preloadText(d, "in", data)
	res, err := Run(rt, toyWordCount(), Config{Input: []string{"in"}, Collector: HashTable, UseCombiner: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Fatal("trace should be nil unless requested")
	}
}

// TestQuickRandomConfigCorrectness is the engine's central property: for
// ANY combination of buffering level, collector, combiner, compression,
// partition counts, thread counts, cache thresholds, shuffle mode, overlap
// mode and device, the job computes exactly the same answer.
func TestQuickRandomConfigCorrectness(t *testing.T) {
	data, want := corpus(500)
	f := func(seed uint32) bool {
		r := seed
		next := func(n int) int {
			r = r*1664525 + 1013904223
			return int(r>>8) % n
		}
		nodes := 1 + next(4)
		cfg := Config{
			Input:             []string{"in"},
			Buffering:         1 + next(3),
			PartitionThreads:  1 + next(16),
			PartitionsPerNode: 1 + next(8),
			CacheThreshold:    int64(1 << (8 + next(16))),
			MaxSpillFiles:     1 + next(8),
			ConcurrentKeys:    1 + next(2048),
			KeysPerThread:     1 + next(8),
			ThreadsPerKey:     1 + next(4),
			Compress:          next(2) == 0,
			NoOverlap:         next(8) == 0,
			PullShuffle:       next(4) == 0,
		}
		gpu := next(2) == 0
		if gpu {
			cfg.Device = 1
		}
		switch next(3) {
		case 0:
			cfg.Collector = HashTable
			cfg.UseCombiner = true
		case 1:
			cfg.Collector = HashTable
		default:
			cfg.Collector = BufferPool
		}
		rt, d := newRuntime(nodes, true, int64(1<<(10+next(4))))
		preloadText(d, "in", data)
		res, err := Run(rt, toyWordCount(), cfg)
		if err != nil {
			t.Logf("seed %d: %v (cfg %+v)", seed, err, cfg)
			return false
		}
		got := map[string]int{}
		for _, pr := range res.Output() {
			n, err := strconv.Atoi(string(pr.Value))
			if err != nil {
				return false
			}
			got[string(pr.Key)] += n
		}
		if len(got) != len(want) {
			t.Logf("seed %d: %d distinct keys, want %d (cfg %+v)", seed, len(got), len(want), cfg)
			return false
		}
		for w, n := range want {
			if got[w] != n {
				t.Logf("seed %d: key %q = %d, want %d (cfg %+v)", seed, w, got[w], n, cfg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
