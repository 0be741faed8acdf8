// Command glasswing runs one of the paper's five MapReduce applications on
// a simulated cluster (or, with -native, on the real host) and prints the
// job's timing profile.
//
// Usage:
//
//	glasswing -app wc|pvc|ts|km|mm [-nodes N] [-gpu] [-fs hdfs|local]
//	          [-size BYTES] [-slow FACTOR] [-buffering 1|2|3]
//	          [-partitions P] [-partition-threads N] [-collector hash|pool]
//	          [-fault-seed S -map-fault P -reduce-fault P] [-kill NODE@T,...]
//	          [-speculate FACTOR] [-max-attempts N] [-verify]
//	          [-trace-out FILE] [-metrics-out FILE] [-report]
//	glasswing -dist N -app wc|ts|km ...       (N-worker TCP cluster in one process)
//	glasswing -serve ADDR [-fleet N]          (resident multi-tenant job service, HTTP API)
//
// Every run processes real generated data; -verify checks the output
// against an independent reference implementation. The fault flags exercise
// the §III-E fault tolerance: seeded random attempt failures, scheduled
// node deaths and speculative execution, all deterministic per seed.
//
// The -dist family runs the genuinely distributed runtime (internal/dist):
// -dist N alone spins up a coordinator plus N workers inside this process,
// connected over real loopback TCP with the shuffle streamed
// worker-to-worker during the map phase. cmd/distnode runs the same
// cluster split across processes or machines.
//
// The observability flags work on both runtimes: -trace-out writes Chrome
// trace_event JSON (open in chrome://tracing or ui.perfetto.dev),
// -metrics-out writes a metrics snapshot as JSON, and -report prints the
// pipeline stall analysis (per-stage busy/stall/occupancy, overlap factor).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"glasswing"
	"glasswing/internal/apps"
	"glasswing/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("glasswing: ")
	var (
		appName    = flag.String("app", "wc", "application: wc, pvc, ts, km, mm")
		nodes      = flag.Int("nodes", 4, "cluster nodes")
		gpu        = flag.Bool("gpu", false, "run kernels on the GPU (device 1)")
		fsKind     = flag.String("fs", "hdfs", "file system: hdfs or local")
		size       = flag.Int("size", 2<<20, "approximate input size in bytes")
		slow       = flag.Float64("slow", 1, "hardware slowdown factor (simulate larger data)")
		buffering  = flag.Int("buffering", 2, "pipeline buffering level (1-3)")
		parts      = flag.Int("partitions", 8, "intermediate partitions per node (P)")
		pthreads   = flag.Int("partition-threads", 8, "partitioner threads (N)")
		collector  = flag.String("collector", "hash", "map output collector: hash or pool")
		combine    = flag.Bool("combiner", true, "run the combiner (hash collector only)")
		verify     = flag.Bool("verify", false, "verify output against a reference implementation")
		trace      = flag.Bool("trace", false, "print the pipeline activity timeline (Gantt)")
		useNative  = flag.Bool("native", false, "run on the native runtime (real host, wall-clock) instead of the simulated cluster")
		traceOut   = flag.String("trace-out", "", "write the run's Chrome trace_event JSON to this file")
		metricsOut = flag.String("metrics-out", "", "write the run's metrics snapshot as JSON to this file")
		report     = flag.Bool("report", false, "print the pipeline stall analysis (busy/stall/occupancy per stage)")

		serveAddr   = flag.String("serve", "", "run the resident multi-tenant job service on this HTTP address (e.g. 127.0.0.1:8844)")
		fleetSlots  = flag.Int("fleet", 8, "worker-slot budget shared by all jobs in -serve mode")
		serveFaults = flag.Bool("serve-faults", false, "allow fault-injection request fields in -serve mode (CI and conformance)")

		distWorkers = flag.Int("dist", 0, "run on the distributed runtime with N TCP workers (0 disables)")
		elastic     = flag.String("elastic", "", "membership schedule for -dist runs: kind[:worker]@threshold[,...] — join, drain:W, kill:W, restart; threshold N fires after N map tasks resolve, rN after N reduce outputs accept")
		journalPath = flag.String("journal", "", "coordinator checkpoint journal path for -dist runs (empty: a restart event resumes from a throwaway one)")
		distInput   = flag.String("input", "", "-dist runs: read the input from this file (wc or ts) instead of generating it")
		bstore      = flag.String("blockstore", "", "-dist runs: ingest input into worker block stores — 'local' (locality-preferred) or 'remote' (forced-remote baseline)")
		replication = flag.Int("replication", 0, "-dist runs: block replicas per block (0 = 3, capped at cluster width)")
		spillThresh = flag.Int64("spill-threshold", 0, "-dist runs: workers spill committed shuffle partitions to disk past this many resident bytes (0 = never)")
		storeDir    = flag.String("store-dir", "", "-dist runs: worker scratch directory for block replicas and spill files (default: OS temp)")

		faultSeed   = flag.Int64("fault-seed", 1, "seed for the deterministic fault schedule")
		mapFault    = flag.Float64("map-fault", 0, "probability a map attempt fails (0 disables)")
		reduceFault = flag.Float64("reduce-fault", 0, "probability a reduce attempt fails (0 disables)")
		kill        = flag.String("kill", "", "node deaths as NODE@SECONDS[,NODE@SECONDS...], timed from map-phase start")
		speculate   = flag.Float64("speculate", 0, "speculative execution slowdown threshold (0 disables)")
		maxAttempts = flag.Int("max-attempts", 0, "max failed attempts per task before the job fails (0 = default 4)")
	)
	flag.Parse()

	if *serveAddr != "" {
		runServe(*serveAddr, *fleetSlots, *serveFaults)
		return
	}
	if *distWorkers > 0 {
		runDistJob(distJobConfig{
			app:            *appName,
			size:           *size,
			partitions:     *parts,
			workers:        *distWorkers,
			elastic:        *elastic,
			journal:        *journalPath,
			verify:         *verify,
			traceOut:       *traceOut,
			metricsOut:     *metricsOut,
			report:         *report,
			input:          *distInput,
			combiner:       *combine,
			blockstore:     *bstore,
			replication:    *replication,
			spillThreshold: *spillThresh,
			storeDir:       *storeDir,
		})
		return
	}

	cc := glasswing.ClusterConfig{
		Nodes:     *nodes,
		GPU:       *gpu,
		SlowDown:  *slow,
		BlockSize: int64(*size / 64),
	}
	if *fsKind == "local" {
		cc.FS = glasswing.LocalFS
	}
	cluster := glasswing.NewCluster(cc)

	cfg := glasswing.Config{
		Buffering:         *buffering,
		PartitionsPerNode: *parts,
		PartitionThreads:  *pthreads,
		Compress:          true,
	}
	cfg.Trace = *trace || *traceOut != "" || *report
	reg := glasswing.NewMetricsRegistry()
	cfg.Metrics = reg
	if *collector == "pool" {
		cfg.Collector = glasswing.BufferPool
	} else {
		cfg.Collector = glasswing.HashTable
		cfg.UseCombiner = *combine
	}
	if *gpu {
		cfg.Device = 1
	}

	haveFaults := *mapFault > 0 || *reduceFault > 0 || *kill != "" || *speculate > 0
	if *mapFault > 0 || *reduceFault > 0 {
		cfg.FaultInjector, cfg.ReduceFaultInjector = glasswing.SeededFaults(*faultSeed, *mapFault, *reduceFault)
	}
	if *kill != "" {
		nf, err := parseKills(*kill)
		if err != nil {
			log.Fatal(err)
		}
		cfg.NodeFailures = nf
	}
	cfg.SpeculativeSlowdown = *speculate
	cfg.MaxTaskAttempts = *maxAttempts
	if *useNative && haveFaults {
		log.Fatal("fault injection flags apply to the simulated cluster only, not -native")
	}

	var (
		app      *glasswing.App
		run      func() (*glasswing.Result, error)
		validate func(*glasswing.Result) error
	)
	switch *appName {
	case "wc":
		data, want := apps.WCData(1, *size, *size/400)
		cluster.LoadText("input", data)
		app = glasswing.WordCountApp()
		cfg.Input = []string{"input"}
		run = func() (*glasswing.Result, error) { return cluster.Run(app, cfg) }
		validate = func(r *glasswing.Result) error { return apps.VerifyCounts(r.Output(), want) }
	case "pvc":
		data, want := apps.PVCData(2, *size)
		cluster.LoadText("input", data)
		app = glasswing.PageviewCountApp()
		cfg.Input = []string{"input"}
		run = func() (*glasswing.Result, error) { return cluster.Run(app, cfg) }
		validate = func(r *glasswing.Result) error { return apps.VerifyCounts(r.Output(), want) }
	case "ts":
		data := apps.TSData(3, *size/workload.TeraRecordSize)
		cluster.LoadRecords("input", data, workload.TeraRecordSize)
		app = glasswing.TeraSortApp()
		cfg.Input = []string{"input"}
		cfg.Collector = glasswing.BufferPool
		cfg.UseCombiner = false
		cfg.Partitioner = glasswing.TeraSortPartitioner(data, 64)
		cfg.OutputReplication = 1
		run = func() (*glasswing.Result, error) { return cluster.Run(app, cfg) }
		validate = func(r *glasswing.Result) error { return apps.VerifyTeraSort(r.Output(), data) }
	case "km":
		points := *size / 16
		data, spec := apps.KMData(4, points, 4, 64)
		cluster.LoadRecords("input", data, int64(spec.Dim*4))
		app = glasswing.KMeansApp(spec)
		cfg.Input = []string{"input"}
		run = func() (*glasswing.Result, error) {
			return cluster.RunWithBroadcast(app, cfg, spec.CentersBytes())
		}
		validate = func(r *glasswing.Result) error { return apps.VerifyKMeans(r.Output(), data, spec) }
	case "mm":
		spec := glasswing.MatMulSpec{N: 256, Tile: 32}
		input, a, b, err := apps.MMData(5, spec)
		if err != nil {
			log.Fatal(err)
		}
		cluster.LoadRecords("input", input, int64(spec.RecordSize()))
		app = glasswing.MatMulApp(spec)
		cfg.Input = []string{"input"}
		cfg.Collector = glasswing.BufferPool
		cfg.UseCombiner = false
		run = func() (*glasswing.Result, error) { return cluster.Run(app, cfg) }
		validate = func(r *glasswing.Result) error { return apps.VerifyMatMul(r.Output(), a, b, spec) }
	default:
		log.Fatalf("unknown app %q (wc, pvc, ts, km, mm)", *appName)
	}

	if *useNative {
		runNativeJob(*appName, *size, *traceOut, *metricsOut, *report)
		return
	}

	res, err := run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(glasswing.Summary(res))
	st := res.MaxMapStage()
	fmt.Printf("map pipeline busy: input=%.2fs stage=%.2fs kernel=%.2fs retrieve=%.2fs partition=%.2fs\n",
		st.Input, st.Stage, st.Kernel, st.Retrieve, st.Partition)
	rt := res.MaxReduceStage()
	fmt.Printf("reduce pipeline busy: input=%.2fs kernel=%.2fs output=%.2fs\n",
		rt.Input, rt.Kernel, rt.Partition)
	if haveFaults || res.Stats != (glasswing.JobStats{}) {
		fmt.Printf("fault tolerance: %d map retries, %d reduce retries, %d node(s) lost, %d map re-executions, %d speculative wins\n",
			res.Stats.MapRetries, res.Stats.ReduceRetries, res.Stats.NodesLost,
			res.Stats.MapRecoveries, res.Stats.SpeculativeWins)
	}
	if *verify {
		if err := validate(res); err != nil {
			log.Fatalf("output verification FAILED: %v", err)
		}
		fmt.Println("output verified against reference implementation")
	}
	if *trace && res.Trace != nil {
		fmt.Println()
		fmt.Print(res.Trace.String())
	}
	if *report {
		fmt.Println()
		glasswing.AnalyzePipeline(glasswing.TraceSpans(res)).WriteTable(os.Stdout)
	}
	writeTraceFile(*traceOut, glasswing.TraceSpans(res), glasswing.TraceInstants(res), nil)
	writeMetricsFile(*metricsOut, reg)
}

// writeTraceFile exports spans as Chrome trace_event JSON (no-op without a
// path). meta, when non-nil, rides in the trace's otherData object.
func writeTraceFile(path string, spans []glasswing.Span, instants []glasswing.TraceInstant, meta map[string]any) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := glasswing.WriteChromeTraceWithMeta(f, spans, meta, instants...); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote Chrome trace to %s (open in chrome://tracing or ui.perfetto.dev)\n", path)
}

// writeMetricsFile snapshots the registry as JSON (no-op without a path).
func writeMetricsFile(path string, reg *glasswing.MetricsRegistry) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := reg.WriteJSON(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote metrics snapshot to %s\n", path)
}

// parseKills parses the -kill flag: comma-separated NODE@SECONDS entries,
// e.g. "2@0.5,3@1.2", timed from the start of the map phase.
func parseKills(spec string) ([]glasswing.NodeFailure, error) {
	var out []glasswing.NodeFailure
	for _, part := range strings.Split(spec, ",") {
		node, at, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return nil, fmt.Errorf("bad -kill entry %q: want NODE@SECONDS", part)
		}
		n, err := strconv.Atoi(node)
		if err != nil {
			return nil, fmt.Errorf("bad -kill node in %q: %v", part, err)
		}
		t, err := strconv.ParseFloat(at, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -kill time in %q: %v", part, err)
		}
		out = append(out, glasswing.NodeFailure{Node: n, At: t})
	}
	return out, nil
}

// runNativeJob executes the selected application on the native runtime.
func runNativeJob(appName string, size int, traceOut, metricsOut string, report bool) {
	var (
		app    *glasswing.App
		blocks [][]byte
		cfg    glasswing.NativeConfig
		check  func(*glasswing.NativeResult) error
	)
	cfg.Collector = glasswing.HashTable
	tel := glasswing.NewTelemetry()
	if traceOut != "" || metricsOut != "" || report {
		cfg.Telemetry = tel
	}
	switch appName {
	case "wc":
		data, want := apps.WCData(1, size, size/400)
		blocks = glasswing.SplitText(data, 64<<10)
		app = glasswing.WordCountApp()
		cfg.UseCombiner = true
		check = func(r *glasswing.NativeResult) error { return apps.VerifyCounts(r.Output(), want) }
	case "pvc":
		data, want := apps.PVCData(2, size)
		blocks = glasswing.SplitText(data, 64<<10)
		app = glasswing.PageviewCountApp()
		cfg.UseCombiner = true
		check = func(r *glasswing.NativeResult) error { return apps.VerifyCounts(r.Output(), want) }
	case "ts":
		data := apps.TSData(3, size/workload.TeraRecordSize)
		blocks = glasswing.SplitRecords(data, 64<<10, workload.TeraRecordSize)
		app = glasswing.TeraSortApp()
		cfg.Collector = glasswing.BufferPool
		cfg.Partitioner = glasswing.TeraSortPartitioner(data, 64)
		check = func(r *glasswing.NativeResult) error { return apps.VerifyTeraSort(r.Output(), data) }
	case "km":
		data, spec := apps.KMData(4, size/16, 4, 64)
		blocks = glasswing.SplitRecords(data, 64<<10, int64(spec.Dim*4))
		app = glasswing.KMeansApp(spec)
		cfg.UseCombiner = true
		check = func(r *glasswing.NativeResult) error { return apps.VerifyKMeans(r.Output(), data, spec) }
	case "mm":
		spec := glasswing.MatMulSpec{N: 256, Tile: 32}
		input, a, b, err := apps.MMData(5, spec)
		if err != nil {
			log.Fatal(err)
		}
		blocks = glasswing.SplitRecords(input, 64<<10, int64(spec.RecordSize()))
		app = glasswing.MatMulApp(spec)
		cfg.Collector = glasswing.BufferPool
		check = func(r *glasswing.NativeResult) error { return apps.VerifyMatMul(r.Output(), a, b, spec) }
	default:
		log.Fatalf("unknown app %q (wc, pvc, ts, km, mm)", appName)
	}
	res, err := glasswing.RunNative(app, blocks, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (native): total %v (map %v, merge %v, reduce %v), %d output pairs, %d spill files\n",
		res.App, res.Total, res.MapElapsed, res.MergeDelay, res.ReduceElapsed, res.OutputPairs, res.SpillFiles)
	if err := check(res); err != nil {
		log.Fatalf("output verification FAILED: %v", err)
	}
	fmt.Println("output verified against reference implementation")
	if report {
		fmt.Println()
		glasswing.AnalyzePipeline(tel.Spans.Spans()).WriteTable(os.Stdout)
	}
	writeTraceFile(traceOut, tel.Spans.Spans(), nil, nil)
	writeMetricsFile(metricsOut, tel.Metrics)
}
