package conformance

import (
	"cmp"
	"fmt"

	"glasswing/internal/core"
	"glasswing/internal/dist"
	"glasswing/internal/kv"
	"glasswing/internal/native"
	"glasswing/internal/obs"
)

// ---- The real runtimes: native, dist and the job service. ----
//
// One table type describes a cell for all three. Each runtime builds its job
// from it in one function (nativeConfig, distOptions, serviceRequest — the
// last from the dist options, so the dist defaults are written once), runs
// it, and reports an outcome that one verdict, judge, holds to the
// reference.

// variant is one cell of a real runtime's axis table: its coordinates and
// what it changes; a zero field keeps the runtime's default.
type variant struct {
	axis, name string
	workers    int     // native kernel workers (4), dist workers (3)
	partitions int     // 4
	blockMul   float64 // 1
	compress   bool
	// spill is a resident bound in bytes far below the intermediate
	// volume (native 8 and 4 KiB, dist 2 KiB): the run must spill.
	spill    int64
	combiner bool // hash table + combiner (CombinerOK apps only)
	mapFault bool // deterministic injected map-attempt failures
	// elastic is a membership schedule in dist.ParseElastic syntax
	// (join@2, drain:0@2, restart@2, kill:1@r1, ...).
	elastic string
	// blockstore ingests the input into worker block stores ("local" or
	// "remote") with replication 2 over 3 workers, so placement genuinely
	// decides which reads are local.
	blockstore string
}

// The defaults a variant's zero fields keep.
const (
	nativeWorkers  = 4
	distWorkers    = 3
	realPartitions = 4
	blockReplicas  = 2
	mapFaultMod    = 3 // a map-fault cell fails attempt 0 of every third task
)

// nativeVariants is the native runtime's metamorphic axis table.
func nativeVariants(j Job) []variant {
	vs := []variant{
		{axis: "baseline", name: "kw4"},
		{axis: "chunk", name: "half-block", blockMul: 0.5},
		{axis: "chunk", name: "double-block", blockMul: 2},
		{axis: "workers", name: "kw1", workers: 1},
		{axis: "workers", name: "kw8", workers: 8},
		{axis: "partitions", name: "p2", partitions: 2},
		{axis: "partitions", name: "p13", partitions: 13},
		{axis: "compress", name: "deflate", compress: true},
		{axis: "compress", name: "spill", spill: 8 << 10},
		{axis: "compress", name: "deflate-spill", compress: true, spill: 4 << 10},
	}
	// The collector axis is the combiner cell alone: the collector selects
	// no code in the real runtimes (native.CheckCombiner reads it, and
	// MapBlock takes only the combine bit), so flipping it alone would
	// re-run the baseline byte for byte (TestTaskKernelMatchesReference
	// pins that).
	if j.CombinerOK {
		vs = append(vs, variant{axis: "collector", name: "combiner", combiner: true})
	}
	return vs
}

// distVariants is the axis table of the distributed runtime, which the job
// service replays through its HTTP API.
func distVariants(j Job) []variant {
	vs := []variant{
		{axis: "baseline", name: "w3"},
		{axis: "workers", name: "w2", workers: 2},
		{axis: "workers", name: "w5", workers: 5},
		{axis: "partitions", name: "p2", partitions: 2},
		{axis: "partitions", name: "p9", partitions: 9},
		{axis: "chunk", name: "half-block", blockMul: 0.5},
		{axis: "chunk", name: "double-block", blockMul: 2},
		{axis: "compress", name: "deflate", compress: true},
		// Compressed runs past a 2 KiB resident bound: filed as built and
		// streamed back through the decompressor.
		{axis: "compress", name: "deflate-spill", compress: true, spill: 2 << 10},
	}
	// As in nativeVariants, the collector axis is the combiner cell alone.
	if j.CombinerOK {
		vs = append(vs, variant{axis: "collector", name: "combiner", combiner: true})
	}
	return append(vs,
		// Block-store cells: the same job with its input ingested into the
		// cluster's disks. Locality-preferred placement must read at least
		// half the input off mappers' own replicas, the forced-remote
		// baseline must read none of it locally, and the out-of-core cell
		// must actually spill — all byte-identical to the baseline digest.
		variant{axis: "locality", name: "local-preferred", blockstore: "local"},
		variant{axis: "locality", name: "forced-remote", blockstore: "remote"},
		variant{axis: "locality", name: "out-of-core", blockstore: "local", spill: 2 << 10},
		// Injected attempt failures die before partitioning, so nothing
		// touches the wire and the retry cell stays fully exact (not Faulty).
		variant{axis: "faults", name: "map-retry", mapFault: true},
		// The kill cell murders a worker after two map resolutions: homes
		// re-assign, resolved tasks re-execute, and the wire + store ledgers
		// must still balance to the byte.
		variant{axis: "faults", name: "worker-kill", elastic: "kill:1@2"},
		// A worker killed after a reduce partition has already been accepted:
		// the once-fatal carve-out. Surviving partitions re-execute; the
		// accepted one stands.
		variant{axis: "faults", name: "reduce-kill", elastic: "kill:1@r1"},
		// Elastic membership: these cells change the cluster mid-job without
		// any fault, so every ledger invariant stays fully exact — a joiner
		// takes over partitions and map work, a drained worker hands its
		// partitions off, and a crashed coordinator resumes from its journal
		// (restart alone may re-execute in-flight attempts: Elastic, not
		// Faulty — the wire must stay loss-free).
		variant{axis: "elastic", name: "live-join", elastic: "join@2"},
		variant{axis: "elastic", name: "drain", elastic: "drain:0@2"},
		variant{axis: "elastic", name: "coordinator-restart", elastic: "restart@2"},
	)
}

// collector is the cell's collector: the combiner runs in a hash table.
func (v variant) collector(j Job) core.CollectorKind {
	if v.combiner {
		return core.HashTable
	}
	return j.Collector
}

// nativeConfig is the cell's job for the native pipeline.
func (j Job) nativeConfig(v variant) native.Config {
	return native.Config{
		KernelWorkers:  cmp.Or(v.workers, nativeWorkers),
		Partitions:     cmp.Or(v.partitions, realPartitions),
		Collector:      v.collector(j),
		UseCombiner:    v.combiner,
		Compress:       v.compress,
		CacheThreshold: v.spill,
		Partitioner:    j.Partitioner,
		Telemetry:      obs.NewTelemetry(),
	}
}

// distOptions is the cell's job for the distributed runtime, bar the input
// blocks and telemetry a run supplies.
func (j Job) distOptions(v variant) (dist.Options, error) {
	evs, err := dist.ParseElastic(v.elastic)
	o := dist.Options{
		Job: dist.Job{
			App:         dist.AppSpec{Name: j.Name},
			Partitions:  cmp.Or(v.partitions, realPartitions),
			Collector:   v.collector(j),
			UseCombiner: v.combiner,
			Compress:    v.compress,
		},
		Workers: cmp.Or(v.workers, distWorkers),
		NewApp: func(dist.AppSpec) (*core.App, func(key []byte, n int) int, error) {
			return j.New(), j.Partitioner, nil
		},
		KillWorker: -1,
		Elastic:    evs,
		Blockstore: v.blockstore,
	}
	if v.blockstore != "" {
		o.Replication = blockReplicas
	}
	o.Tuning.SpillThreshold = v.spill
	if v.mapFault {
		o.MapFault = func(task, attempt int) bool { return attempt == 0 && task%mapFaultMod == 0 }
	}
	return o, err
}

// membership is what an elastic schedule does to a cluster.
type membership struct {
	joined, drained, lost int
	resumed               bool
}

// outcome is what a real runtime reports of one cell's run.
type outcome struct {
	out        []kv.Pair
	led        Ledger
	inputBytes int64 // 0 from native, which has no block store to check
	membership
}

func runNative(j Job, v variant) (outcome, error) {
	cfg := j.nativeConfig(v)
	res, err := native.Run(j.New(), splitBlocks(j, j.blockFor(v.blockMul)), cfg)
	if err != nil {
		return outcome{}, err
	}
	return outcome{out: res.Output(), led: ReadLedger(cfg.Telemetry.Metrics)}, nil
}

// runDist runs the cell on a real coordinator and worker goroutines over
// 127.0.0.1 sockets: the shuffle crosses the kernel's TCP stack.
func runDist(j Job, v variant) (outcome, error) {
	o, err := j.distOptions(v)
	if err != nil {
		return outcome{}, err
	}
	o.Blocks, o.Telemetry = splitBlocks(j, j.blockFor(v.blockMul)), obs.NewTelemetry()
	res, err := dist.RunLoopback(o)
	if err != nil {
		return outcome{}, err
	}
	return outcome{res.Output(), ReadLedger(o.Telemetry.Metrics), res.InputBytes,
		membership{res.WorkersJoined, res.WorkersDrained, res.WorkersLost, res.Resumed}}, nil
}

// expect derives what a real runtime's run of the cell is held to: the
// ledger checks (wire ones where the shuffle crosses sockets), and the
// membership changes its elastic schedule must make — a cell whose event
// silently never fired would otherwise pass as a vacuous baseline.
func (j Job) expect(v variant, wire bool, inputBytes int64) (CheckOpts, membership, error) {
	evs, err := dist.ParseElastic(v.elastic)
	var want membership
	for _, ev := range evs {
		switch ev.Kind {
		case "join":
			want.joined++
		case "drain":
			want.drained++
		case "kill":
			want.lost++
		case "restart":
			want.resumed = true
		}
	}
	return CheckOpts{
		Dist:       wire,
		Faulty:     want.lost > 0,
		Elastic:    want.resumed,
		Combiner:   v.combiner,
		Compress:   v.compress,
		HasReduce:  j.New().ReduceBatch != nil,
		Blockstore: v.blockstore,
		InputBytes: inputBytes,
		WantSpill:  v.spill > 0,
	}, want, err
}

// realTable is a real runtime's table: run executes a cell, and one
// verdict, judge, holds every runtime's outcome to the reference.
func realTable(vs func(Job) []variant, wire bool, run func(Job, variant) (outcome, error)) func(Job, Expected) ([]row, func()) {
	return func(j Job, exp Expected) ([]row, func()) {
		var rows []row
		for _, v := range vs(j) {
			rows = append(rows, row{v.axis, v.name, func() (string, error) {
				r, err := run(j, v)
				if err != nil {
					return "", err
				}
				return j.judge(exp, v, wire, r)
			}})
		}
		return rows, nil
	}
}

// judge returns the run's digest and its verdict: digest, verifier and
// ledger, then the membership changes the schedule must have made.
func (j Job) judge(exp Expected, v variant, wire bool, r outcome) (string, error) {
	co, want, err := j.expect(v, wire, r.inputBytes)
	if err != nil {
		return "", err
	}
	dig := Digest(r.out)
	if err := verdict(j, exp, dig, r.out, r.led.Check(exp, co)); err != nil || v.elastic == "" {
		return dig, err
	}
	switch got := r.membership; {
	case got.joined != want.joined:
		err = fmt.Errorf("elastic cell joined %d workers, want %d", got.joined, want.joined)
	case got.drained != want.drained:
		err = fmt.Errorf("elastic cell drained %d workers, want %d", got.drained, want.drained)
	case got.lost < want.lost:
		err = fmt.Errorf("elastic cell lost %d workers, want >= %d", got.lost, want.lost)
	case got.resumed != want.resumed:
		err = fmt.Errorf("elastic cell resumed=%v, want %v", got.resumed, want.resumed)
	}
	return dig, err
}
