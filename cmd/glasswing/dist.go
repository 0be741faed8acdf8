package main

import (
	"fmt"
	"log"
	"os"

	"glasswing"
	"glasswing/internal/dist"
	"glasswing/internal/obs"
)

// distJobConfig describes a -dist run: the whole cluster, coordinator and
// workers, spawned in this process over real loopback TCP. A cluster split
// across processes or machines is cmd/distnode's job.
type distJobConfig struct {
	app            string
	size           int
	partitions     int
	workers        int
	elastic        string
	journal        string
	verify         bool
	traceOut       string
	metricsOut     string
	report         bool
	input          string
	combiner       bool
	blockstore     string
	replication    int
	spillThreshold int64
	storeDir       string
}

func runDistJob(c distJobConfig) {
	var (
		job    dist.Job
		blocks [][]byte
		check  func(*dist.Result) error
		err    error
	)
	if c.input != "" {
		data, rerr := os.ReadFile(c.input)
		if rerr != nil {
			log.Fatal(rerr)
		}
		job, blocks, check, err = dist.FileJob(c.app, data, c.partitions, 0, c.combiner)
	} else {
		job, blocks, check, err = dist.DemoJob(c.app, c.size, c.partitions, 0)
		job.UseCombiner = job.UseCombiner && c.combiner
	}
	if err != nil {
		log.Fatal(err)
	}
	tel := obs.NewTelemetry()
	o := dist.Options{
		Job:         job,
		Workers:     c.workers,
		Blocks:      blocks,
		Telemetry:   tel,
		KillWorker:  -1,
		JournalPath: c.journal,
		Blockstore:  c.blockstore,
		Replication: c.replication,
	}
	o.Tuning.SpillThreshold = c.spillThreshold
	o.Tuning.WorkDir = c.storeDir
	if c.elastic != "" {
		o.Elastic, err = dist.ParseElastic(c.elastic)
		if err != nil {
			log.Fatal(err)
		}
	}
	res, err := dist.RunLoopback(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (dist, %d workers): total %v (map %v, reduce %v), %d blocks in, %d intermediate pairs, %d output pairs\n",
		res.App, res.Workers, res.Total, res.MapElapsed, res.ReduceElapsed,
		len(blocks), res.IntermediatePairs, res.OutputPairs)
	if res.MapRetries > 0 || res.WorkersLost > 0 {
		fmt.Printf("fault tolerance: %d map retries, %d worker(s) lost, %d map re-executions\n",
			res.MapRetries, res.WorkersLost, res.MapRecoveries)
	}
	if res.WorkersJoined > 0 || res.WorkersDrained > 0 || res.Resumed {
		fmt.Printf("elasticity: %d worker(s) joined, %d drained, coordinator resumed: %v\n",
			res.WorkersJoined, res.WorkersDrained, res.Resumed)
	}
	if read := res.ReadLocalBytes + res.ReadRemoteBytes; read > 0 {
		fmt.Printf("block store: %d B read locally, %d B remote (%.0f%% local)\n",
			res.ReadLocalBytes, res.ReadRemoteBytes, 100*float64(res.ReadLocalBytes)/float64(read))
	}
	if res.SpillRecords > 0 {
		fmt.Printf("out-of-core: %d records spilled to disk (%d B on disk)\n",
			res.SpillRecords, res.SpillBytes)
	}
	if c.verify {
		if err := check(res); err != nil {
			log.Fatalf("output verification FAILED: %v", err)
		}
		fmt.Println("output verified against reference implementation")
	}
	if c.report {
		fmt.Println()
		glasswing.AnalyzePipeline(tel.Spans.Spans()).WriteTable(os.Stdout)
		printWireReport(tel.Metrics)
	}
	writeTraceFile(c.traceOut, tel.Spans.Spans(), tel.Spans.Instants(),
		glasswing.TraceMeta(tel.Metrics,
			"dist_frame_bytes", "dist_shuffle_bytes_total",
			"dist_net_queue_ns_total", "dist_net_write_ns_total"))
	writeMetricsFile(c.metricsOut, tel.Metrics)
}

// printWireReport prints the shuffle wire's frame-size distribution (with
// interpolated quantiles) and the net/send queue-vs-write split under
// -report, after the stage table.
func printWireReport(reg *glasswing.MetricsRegistry) {
	byName := make(map[string]glasswing.Metric)
	for _, m := range reg.Snapshot() {
		byName[m.Name] = m
	}
	frames, ok := byName["dist_frame_bytes"]
	if !ok || frames.Count == 0 {
		return
	}
	fmt.Printf("\nshuffle wire: %d frames, %.0f B on the wire (mean %.0f B/frame, p50 %.0f, p95 %.0f, p99 %.0f)\n",
		frames.Count, frames.Sum, frames.Sum/float64(frames.Count),
		frames.P50, frames.P95, frames.P99)
	fmt.Print("frame sizes:")
	for _, b := range frames.Buckets {
		if b.Count > 0 {
			fmt.Printf("  ≤%sB:%d", b.Le, b.Count)
		}
	}
	fmt.Println()
	queue := reg.Counter("dist_net_queue_ns_total").Value()
	write := reg.Counter("dist_net_write_ns_total").Value()
	if queue+write > 0 {
		fmt.Printf("net/send split: %.2fms queued, %.2fms writing\n",
			float64(queue)/1e6, float64(write)/1e6)
	}
	for _, row := range []struct{ name, label string }{
		{"dist_net_queue_seconds", "queue wait"},
		{"dist_net_write_seconds", "socket write"},
	} {
		if h, ok := byName[row.name]; ok && h.Count > 0 {
			fmt.Printf("%s per frame: p50 %.3fms, p95 %.3fms, p99 %.3fms (%d frames)\n",
				row.label, h.P50*1e3, h.P95*1e3, h.P99*1e3, h.Count)
		}
	}
	local := reg.Counter("dist_read_local_bytes_total").Value()
	remote := reg.Counter("dist_read_remote_bytes_total").Value()
	if local+remote > 0 {
		fmt.Printf("block reads: %d B local, %d B remote (%.0f%% local), %d B ingested\n",
			local, remote, 100*float64(local)/float64(local+remote),
			reg.Counter("dist_block_ingest_bytes_total").Value())
	}
	if spilled := reg.Counter("conserv_spill_records_total").Value(); spilled > 0 {
		fmt.Printf("spills: %d records in %d run files, %d B raw -> %d B stored\n",
			spilled, reg.Counter("conserv_spill_files_total").Value(),
			reg.Counter("conserv_spill_raw_bytes_total").Value(),
			reg.Counter("conserv_spill_stored_bytes_total").Value())
	}
}
