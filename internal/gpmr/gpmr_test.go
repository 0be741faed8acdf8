package gpmr

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

func setup(nodes, lines int, gpu bool) (*Runtime, map[string]int) {
	env := sim.NewEnv()
	cluster := hw.NewCluster(env, nodes, hw.Type1(gpu))
	l := dfs.NewLocal(cluster, 4<<10)
	var sb strings.Builder
	want := map[string]int{}
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for i := 0; i < lines; i++ {
		w := words[i%len(words)]
		sb.WriteString(w + " " + w + "\n")
		want[w] += 2
	}
	l.PreloadBlocks("in", dfs.SplitLines([]byte(sb.String()), 4<<10), 0)
	return &Runtime{Cluster: cluster, FS: l}, want
}

func TestRequiresGPU(t *testing.T) {
	rt, _ := setup(2, 100, false)
	if _, err := Run(rt, wcApp(), Config{Input: []string{"in"}}); err == nil {
		t.Fatal("GPMR must refuse to run without GPUs")
	}
}

func TestWordCountCorrect(t *testing.T) {
	for _, partial := range []bool{false, true} {
		rt, want := setup(2, 600, true)
		res, err := Run(rt, wcApp(), Config{Input: []string{"in"}, PartialReduce: partial})
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		for _, pr := range res.Output() {
			n, _ := strconv.Atoi(string(pr.Value))
			got[string(pr.Key)] += n
		}
		for w, n := range want {
			if got[w] != n {
				t.Errorf("partial=%v word %q: got %d, want %d", partial, w, got[w], n)
			}
		}
	}
}

func TestTotalIsSumOfIOAndCompute(t *testing.T) {
	rt, _ := setup(1, 4000, true)
	res, err := Run(rt, wcApp(), Config{Input: []string{"in"}, PartialReduce: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.IOTime <= 0 {
		t.Fatal("no I/O time charged")
	}
	if res.Compute <= 0 {
		t.Fatal("no compute time")
	}
	// The defining GPMR property: no overlap, so JobTime ~ IO + compute.
	if res.JobTime < res.IOTime+res.Compute*0.999 {
		t.Fatalf("total %g < IO %g + compute %g", res.JobTime, res.IOTime, res.Compute)
	}
}

func TestGenerateInputSkipsIO(t *testing.T) {
	rt, _ := setup(1, 1000, true)
	res, err := Run(rt, wcApp(), Config{Input: []string{"in"}, GenerateInput: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.IOTime != 0 {
		t.Fatalf("GenerateInput should zero the I/O phase, got %g", res.IOTime)
	}
}

func TestValidation(t *testing.T) {
	rt, _ := setup(1, 10, true)
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
