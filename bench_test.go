package glasswing

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation section, each regenerating its rows/series on the
// simulated cluster and reporting the headline virtual time as a custom
// metric (virtual-seconds). Wall-clock ns/op measures the simulator, not
// the simulated system — the virtual metrics are the reproduction.
//
// Benchmarks run the Quick dataset sizes so `go test -bench=.` stays in
// minutes; `go run ./cmd/benchtables` regenerates the full calibrated
// tables recorded in EXPERIMENTS.md.

import (
	"strconv"
	"testing"

	"glasswing/internal/expt"
	"glasswing/internal/kv"
	"glasswing/internal/sim"
)

// benchExperiment runs one registered experiment per iteration and reports
// the first and last numeric cells of its headline column as metrics.
func benchExperiment(b *testing.B, id, metricColumn string) {
	e := expt.Lookup(id)
	if e == nil {
		b.Fatalf("unknown experiment %q", id)
	}
	s := expt.Quick()
	var tab *expt.Table
	for i := 0; i < b.N; i++ {
		tab = e.Run(s)
	}
	if metricColumn != "" && len(tab.Rows) > 0 {
		first, err1 := strconv.ParseFloat(tab.Cell(0, metricColumn), 64)
		last, err2 := strconv.ParseFloat(tab.Cell(len(tab.Rows)-1, metricColumn), 64)
		if err1 == nil {
			b.ReportMetric(first, "vsec-first-row")
		}
		if err2 == nil {
			b.ReportMetric(last, "vsec-last-row")
		}
	}
}

// Figure 1 and Table I: the pipeline timeline and the system comparison.

func BenchmarkFig1PipelineTrace(b *testing.B) { benchExperiment(b, "fig1", "") }

// Figure 2: I/O-bound horizontal scalability (Hadoop vs Glasswing, HDFS).

func BenchmarkFig2aPVC(b *testing.B) { benchExperiment(b, "fig2a", "glasswing(s)") }
func BenchmarkFig2bWC(b *testing.B)  { benchExperiment(b, "fig2b", "glasswing(s)") }
func BenchmarkFig2cTS(b *testing.B)  { benchExperiment(b, "fig2c", "glasswing(s)") }

// Figure 3: compute-bound applications, CPU and GPU, vs Hadoop and GPMR.

func BenchmarkFig3aKMCPU(b *testing.B)   { benchExperiment(b, "fig3a", "glasswing(s)") }
func BenchmarkFig3bMMCPU(b *testing.B)   { benchExperiment(b, "fig3b", "glasswing(s)") }
func BenchmarkFig3cKMGPU(b *testing.B)   { benchExperiment(b, "fig3c", "gw-gpu-hdfs(s)") }
func BenchmarkFig3dMMGPU(b *testing.B)   { benchExperiment(b, "fig3d", "gw-gpu-hdfs(s)") }
func BenchmarkFig3eKMSmall(b *testing.B) { benchExperiment(b, "fig3e", "glasswing(s)") }

// Tables II and III: map-pipeline breakdowns.

func BenchmarkTableIIWCBreakdown(b *testing.B)  { benchExperiment(b, "tab2", "") }
func BenchmarkTableIIIKMBreakdown(b *testing.B) { benchExperiment(b, "tab3", "") }

// Figure 4: intermediate-data handling (partitioner threads, partitions).

func BenchmarkFig4aPartitionThreads(b *testing.B) { benchExperiment(b, "fig4a", "partitioning(s)") }
func BenchmarkFig4bMergeDelay(b *testing.B)       { benchExperiment(b, "fig4b", "P=8") }

// Figure 5: reduce-pipeline key concurrency.

func BenchmarkFig5ReduceConcurrency(b *testing.B) { benchExperiment(b, "fig5", "reduce-elapsed(s)") }

// Vertical scalability (§IV-C): the device zoo and K20m scaling.

func BenchmarkVerticalDevices(b *testing.B)     { benchExperiment(b, "vert", "KM(s)") }
func BenchmarkVerticalK20mScaling(b *testing.B) { benchExperiment(b, "vert-k20m", "time(s)") }

// Ablations of the design choices DESIGN.md calls out.

func BenchmarkAblationOverlap(b *testing.B)     { benchExperiment(b, "abl-olap", "overlapped(s)") }
func BenchmarkAblationBuffering(b *testing.B)   { benchExperiment(b, "abl-buf", "double(s)") }
func BenchmarkAblationPushPull(b *testing.B)    { benchExperiment(b, "abl-push", "job(s)") }
func BenchmarkAblationCompression(b *testing.B) { benchExperiment(b, "abl-comp", "job(s)") }
func BenchmarkAblationNetwork(b *testing.B)     { benchExperiment(b, "abl-net", "job(s)") }

// Extension: the HadoopCL comparison the paper could not run.
func BenchmarkExtHadoopCL(b *testing.B) { benchExperiment(b, "ext-hadoopcl", "hadoopcl-gpu(s)") }

// Extension: heterogeneous cluster scheduling (paper §II, Shirahata et al.).
func BenchmarkExtHeterogeneous(b *testing.B) { benchExperiment(b, "ext-hetero", "job(s)") }

// Extension: a straggler node, with and without speculative execution.
func BenchmarkExtStraggler(b *testing.B) { benchExperiment(b, "ext-straggler", "job(s)") }

// Micro-benchmarks of the substrates (wall-clock: these measure the real
// Go implementation, not the simulation).

func BenchmarkKVMarshal(b *testing.B) {
	pairs := make([]kv.Pair, 1000)
	for i := range pairs {
		pairs[i] = kv.Pair{
			Key:   []byte("key-" + strconv.Itoa(i%100)),
			Value: []byte(strconv.Itoa(i)),
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blob := kv.Marshal(pairs)
		if _, err := kv.Unmarshal(blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKVMergeRuns(b *testing.B) {
	var runs []*kv.Run
	for r := 0; r < 8; r++ {
		var buf kv.Batch
		for i := 0; i < 500; i++ {
			buf.AppendKV([]byte("k"+strconv.Itoa((i*7+r)%300)), []byte{byte(i)})
		}
		buf.Sort()
		runs = append(runs, buf.RunRange(0, buf.Len(), false))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.MergeRuns(runs, false)
	}
}

func BenchmarkSimEventThroughput(b *testing.B) {
	// How many simulated events per second the DES kernel sustains.
	env := sim.NewEnv()
	env.Spawn("ticker", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Delay(1)
		}
	})
	env.Run()
}

func BenchmarkEndToEndWordCount(b *testing.B) {
	// Full job per iteration: the wall cost of simulating one WC run.
	data := []byte{}
	for i := 0; i < 2000; i++ {
		data = append(data, "alpha beta gamma delta epsilon zeta\n"...)
	}
	b.ResetTimer()
	var last float64
	for i := 0; i < b.N; i++ {
		cluster := NewCluster(ClusterConfig{Nodes: 4, BlockSize: 8 << 10})
		cluster.LoadText("in", data)
		res, err := cluster.Run(WordCountApp(), Config{
			Input: []string{"in"}, Collector: HashTable, UseCombiner: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res.JobTime
	}
	b.ReportMetric(last, "vsec-job")
}
