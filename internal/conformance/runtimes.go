package conformance

import (
	"errors"
	"fmt"
	"os"

	"glasswing"
	"glasswing/internal/core"
	"glasswing/internal/dfs"
	"glasswing/internal/dist"
	"glasswing/internal/gpmr"
	"glasswing/internal/hadoop"
	"glasswing/internal/hw"
	"glasswing/internal/kv"
	"glasswing/internal/native"
	"glasswing/internal/obs"
	"glasswing/internal/sim"
)

// RuntimeNames lists the engines the matrix covers. The simulated core, the
// native pipeline, the distributed TCP runtime and the job-service HTTP
// path are fully instrumented (digest + verifier + ledger); the Hadoop and
// GPMR baseline models share the same kernels and are held to digest +
// verifier equality.
var RuntimeNames = []string{"sim", "native", "hadoop", "gpmr", "dist", "service"}

// Cell is one executed point of the runtime x app x axis matrix.
type Cell struct {
	Runtime string
	App     string
	Axis    string
	Variant string
	Digest  string
	Err     error
}

// Key formats the cell's coordinates.
func (c Cell) Key() string {
	return fmt.Sprintf("%s/%s/%s/%s", c.Runtime, c.App, c.Axis, c.Variant)
}

// Options filters the matrix; empty slices select everything.
type Options struct {
	Runtimes []string
	Apps     []string
	Axes     []string
}

func selected(want []string, name string) bool {
	if len(want) == 0 {
		return true
	}
	for _, w := range want {
		if w == name {
			return true
		}
	}
	return false
}

// RunMatrix executes every selected cell, invoking report (when non-nil)
// after each one, and returns all cells. Every cell runs on a fresh cluster
// and a fresh metrics registry, so cells are independent.
func RunMatrix(opt Options, report func(Cell)) []Cell {
	var cells []Cell
	add := func(c Cell) {
		cells = append(cells, c)
		if report != nil {
			report(c)
		}
	}
	for _, j := range Jobs() {
		if !selected(opt.Apps, j.Name) {
			continue
		}
		exp := Reference(j)
		if selected(opt.Runtimes, "sim") {
			runSimApp(j, exp, opt, add)
		}
		if selected(opt.Runtimes, "native") {
			runNativeApp(j, exp, opt, add)
		}
		if selected(opt.Runtimes, "hadoop") {
			runHadoopApp(j, exp, opt, add)
		}
		if selected(opt.Runtimes, "gpmr") {
			runGpmrApp(j, exp, opt, add)
		}
		if selected(opt.Runtimes, "dist") {
			runDistApp(j, exp, opt, add)
		}
		if selected(opt.Runtimes, "service") {
			runServiceApp(j, exp, opt, add)
		}
	}
	return cells
}

// baseBlock is the job's baseline DFS block / native chunk size: about six
// splits, record-aligned for binary inputs.
func (j Job) baseBlock() int64 {
	b := int64(len(j.Data)) / 6
	if j.RecordSize > 0 {
		b -= b % j.RecordSize
		if b < j.RecordSize {
			b = j.RecordSize
		}
	}
	if b < 2<<10 {
		b = 2 << 10
	}
	return b
}

// blockFor scales the baseline block by the variant's chunk multiplier.
func (j Job) blockFor(mul float64) int64 {
	if mul == 0 {
		mul = 1
	}
	b := int64(float64(j.baseBlock()) * mul)
	if j.RecordSize > 0 {
		b -= b % j.RecordSize
		if b < j.RecordSize {
			b = j.RecordSize
		}
	}
	if b < 1<<10 {
		b = 1 << 10
	}
	return b
}

// splitBlocks cuts the job's input the way its runtime's DFS would.
func splitBlocks(j Job, block int64) [][]byte {
	if j.RecordSize > 0 {
		return dfs.SplitFixed(j.Data, block, j.RecordSize)
	}
	return dfs.SplitLines(j.Data, block)
}

// verdict folds a run's digest, app verifier and ledger check into one cell
// error.
func verdict(j Job, exp Expected, dig string, out []kv.Pair, ledgerErr error) error {
	var errs []error
	if dig != exp.Digest {
		errs = append(errs, fmt.Errorf("digest %.12s != reference %.12s", dig, exp.Digest))
	}
	if err := j.Verify(out); err != nil {
		errs = append(errs, fmt.Errorf("verifier: %w", err))
	}
	if ledgerErr != nil {
		errs = append(errs, fmt.Errorf("ledger: %w", ledgerErr))
	}
	return errors.Join(errs...)
}

// ---- Simulated core (internal/core via the glasswing facade). ----

type simVariant struct {
	axis, name string
	nodes      int     // 0 = 3
	gpu        bool    // run on the accelerator device
	blockMul   float64 // 0 = 1
	faulty     bool    // injected faults: map-side ledger equalities waived
	nodeDeath  bool    // kill a node mid-map (needs the baseline's MapElapsed)
	mutate     func(*core.Config)
}

// simVariants is the metamorphic axis table for the simulated runtime: every
// variant must reproduce the reference digest exactly.
func simVariants(j Job) []simVariant {
	vs := []simVariant{
		{axis: "baseline", name: "n3"},
		{axis: "chunk", name: "half-block", blockMul: 0.5},
		{axis: "chunk", name: "double-block", blockMul: 2},
		{axis: "workers", name: "n2", nodes: 2},
		{axis: "workers", name: "n5", nodes: 5},
		{axis: "workers", name: "gpu", gpu: true},
		{axis: "partitions", name: "p1", mutate: func(c *core.Config) { c.PartitionsPerNode = 1 }},
		{axis: "partitions", name: "p4", mutate: func(c *core.Config) { c.PartitionsPerNode = 4 }},
		{axis: "compress", name: "deflate", mutate: func(c *core.Config) { c.Compress = true }},
		{axis: "overlap", name: "sequential", mutate: func(c *core.Config) { c.NoOverlap = true }},
		{axis: "overlap", name: "single-buffer", mutate: func(c *core.Config) { c.Buffering = 1 }},
		{axis: "overlap", name: "triple-buffer", mutate: func(c *core.Config) { c.Buffering = 3 }},
	}
	if j.Collector == core.HashTable {
		vs = append(vs, simVariant{axis: "collector", name: "buffer-pool",
			mutate: func(c *core.Config) { c.Collector = core.BufferPool }})
	} else {
		vs = append(vs, simVariant{axis: "collector", name: "hash-table",
			mutate: func(c *core.Config) { c.Collector = core.HashTable }})
	}
	if j.CombinerOK {
		vs = append(vs, simVariant{axis: "collector", name: "combiner",
			mutate: func(c *core.Config) { c.Collector = core.HashTable; c.UseCombiner = true }})
	}
	vs = append(vs,
		simVariant{axis: "faults", name: "seed3", faulty: true, mutate: func(c *core.Config) {
			c.FaultInjector, c.ReduceFaultInjector = core.SeededFaults(3, 0.05, 0.10)
		}},
		simVariant{axis: "faults", name: "seed9", faulty: true, mutate: func(c *core.Config) {
			c.FaultInjector, c.ReduceFaultInjector = core.SeededFaults(9, 0.12, 0.06)
		}},
		simVariant{axis: "faults", name: "node-death", faulty: true, nodeDeath: true},
	)
	return vs
}

func runSimApp(j Job, exp Expected, opt Options, add func(Cell)) {
	var base *glasswing.Result
	ensureBase := func() error {
		if base != nil {
			return nil
		}
		res, _, err := runSim(j, simVariant{})
		if err != nil {
			return err
		}
		base = res
		return nil
	}
	for _, v := range simVariants(j) {
		if !selected(opt.Axes, v.axis) {
			continue
		}
		cell := Cell{Runtime: "sim", App: j.Name, Axis: v.axis, Variant: v.name}
		if v.nodeDeath {
			// The death time is placed mid-map, as a fraction of the
			// baseline's map phase.
			if err := ensureBase(); err != nil {
				cell.Err = fmt.Errorf("baseline for node-death: %w", err)
				add(cell)
				continue
			}
		}
		res, led, err := runSimWithBase(j, v, base)
		if err != nil {
			cell.Err = err
			add(cell)
			continue
		}
		if v.axis == "baseline" {
			base = res
		}
		out := res.Output()
		cell.Digest = Digest(out)
		cfg := simConfig(j, v)
		cell.Err = verdict(j, exp, cell.Digest, out, led.Check(exp, CheckOpts{
			Sim:       true,
			Faulty:    v.faulty,
			Combiner:  cfg.UseCombiner,
			Compress:  cfg.Compress,
			HasReduce: j.New().ReduceBatch != nil,
		}))
		add(cell)
	}
}

// simConfig builds the variant's job config (shared by the run itself and
// the ledger-check flag derivation).
func simConfig(j Job, v simVariant) core.Config {
	cfg := core.Config{
		Input:             []string{"in"},
		Collector:         j.Collector,
		Partitioner:       j.Partitioner,
		OutputReplication: j.OutputReplication,
		PartitionsPerNode: 2,
		PartitionThreads:  2,
		MaxTaskAttempts:   8,
	}
	if v.gpu {
		cfg.Device = 1
	}
	if v.mutate != nil {
		v.mutate(&cfg)
	}
	return cfg
}

func runSim(j Job, v simVariant) (*glasswing.Result, Ledger, error) {
	return runSimWithBase(j, v, nil)
}

func runSimWithBase(j Job, v simVariant, base *glasswing.Result) (*glasswing.Result, Ledger, error) {
	nodes := v.nodes
	if nodes == 0 {
		nodes = 3
	}
	cluster := glasswing.NewCluster(glasswing.ClusterConfig{
		Nodes:     nodes,
		GPU:       v.gpu,
		BlockSize: j.blockFor(v.blockMul),
	})
	if j.RecordSize > 0 {
		cluster.LoadRecords("in", j.Data, j.RecordSize)
	} else {
		cluster.LoadText("in", j.Data)
	}
	reg := obs.NewRegistry()
	cfg := simConfig(j, v)
	cfg.Metrics = reg
	if v.nodeDeath && base != nil {
		cfg.NodeFailures = []core.NodeFailure{{Node: 1, At: 0.4 * base.MapElapsed}}
	}
	app := j.New()
	var res *glasswing.Result
	var err error
	if j.Broadcast > 0 {
		res, err = cluster.RunWithBroadcast(app, cfg, j.Broadcast)
	} else {
		res, err = cluster.Run(app, cfg)
	}
	if err != nil {
		return nil, Ledger{}, err
	}
	return res, ReadLedger(reg), nil
}

// ---- Native pipeline (internal/native). ----

type nativeVariant struct {
	axis, name string
	blockMul   float64
	wantSpill  bool
	mutate     func(*native.Config)
}

// nativeVariants is the native runtime's metamorphic axis table. The spill
// variants shrink the cache threshold far below the intermediate volume so
// the spill/read-back path is genuinely exercised.
func nativeVariants(j Job) []nativeVariant {
	vs := []nativeVariant{
		{axis: "baseline", name: "kw4"},
		{axis: "chunk", name: "half-block", blockMul: 0.5},
		{axis: "chunk", name: "double-block", blockMul: 2},
		{axis: "workers", name: "kw1", mutate: func(c *native.Config) { c.KernelWorkers = 1 }},
		{axis: "workers", name: "kw8", mutate: func(c *native.Config) { c.KernelWorkers = 8 }},
		{axis: "partitions", name: "p2", mutate: func(c *native.Config) { c.Partitions = 2 }},
		{axis: "partitions", name: "p13", mutate: func(c *native.Config) { c.Partitions = 13 }},
		{axis: "compress", name: "deflate", mutate: func(c *native.Config) { c.Compress = true }},
		{axis: "compress", name: "spill", wantSpill: true, mutate: func(c *native.Config) { c.CacheThreshold = 8 << 10 }},
		{axis: "compress", name: "deflate-spill", wantSpill: true, mutate: func(c *native.Config) {
			c.Compress = true
			c.CacheThreshold = 4 << 10
		}},
	}
	// The collector axis is the combiner cell alone: the collector selects
	// no code in the real runtimes (native.CheckCombiner reads it, and
	// MapBlock takes only the combine bit), so flipping it alone would
	// re-run the baseline byte for byte (TestTaskKernelMatchesReference
	// pins that).
	if j.CombinerOK {
		vs = append(vs, nativeVariant{axis: "collector", name: "combiner",
			mutate: func(c *native.Config) { c.Collector = core.HashTable; c.UseCombiner = true }})
	}
	return vs
}

func runNativeApp(j Job, exp Expected, opt Options, add func(Cell)) {
	for _, v := range nativeVariants(j) {
		if !selected(opt.Axes, v.axis) {
			continue
		}
		cell := Cell{Runtime: "native", App: j.Name, Axis: v.axis, Variant: v.name}
		cfg := native.Config{
			KernelWorkers: 4,
			Partitions:    4,
			Collector:     j.Collector,
			Partitioner:   j.Partitioner,
			Telemetry:     obs.NewTelemetry(),
		}
		if v.mutate != nil {
			v.mutate(&cfg)
		}
		app := j.New()
		res, err := native.Run(app, splitBlocks(j, j.blockFor(v.blockMul)), cfg)
		if err != nil {
			cell.Err = err
			add(cell)
			continue
		}
		out := res.Output()
		cell.Digest = Digest(out)
		led := ReadLedger(cfg.Telemetry.Metrics)
		cell.Err = verdict(j, exp, cell.Digest, out, led.Check(exp, CheckOpts{
			Combiner:  cfg.UseCombiner,
			Compress:  cfg.Compress,
			HasReduce: app.ReduceBatch != nil,
			WantSpill: v.wantSpill,
		}))
		add(cell)
	}
}

// ---- Baseline models (internal/hadoop, internal/gpmr). ----
//
// The models share the App kernels, so their outputs must be bit-identical
// too; they are not conserv_*-instrumented, so cells check digest +
// verifier only.

type modelVariant struct {
	axis, name string
	nodes      int // 0 = 3
	blockMul   float64
	reducers   int  // hadoop only; 0 = 4
	combiner   bool // hadoop WC only
	partial    bool // gpmr WC only: on-device partial reduction
}

func hadoopVariants(j Job) []modelVariant {
	vs := []modelVariant{
		{axis: "baseline", name: "n3"},
		{axis: "chunk", name: "double-block", blockMul: 2},
		{axis: "workers", name: "n2", nodes: 2},
		{axis: "workers", name: "n5", nodes: 5},
		{axis: "partitions", name: "r2", reducers: 2},
		{axis: "partitions", name: "r7", reducers: 7},
	}
	if j.CombinerOK {
		vs = append(vs, modelVariant{axis: "collector", name: "combiner", combiner: true})
	}
	return vs
}

func runHadoopApp(j Job, exp Expected, opt Options, add func(Cell)) {
	for _, v := range hadoopVariants(j) {
		if !selected(opt.Axes, v.axis) {
			continue
		}
		cell := Cell{Runtime: "hadoop", App: j.Name, Axis: v.axis, Variant: v.name}
		nodes := v.nodes
		if nodes == 0 {
			nodes = 3
		}
		env := sim.NewEnv()
		cluster := hw.NewCluster(env, nodes, hw.Type1(false))
		fs := dfs.New(cluster, j.blockFor(v.blockMul), 3)
		fs.PreloadBlocks("in", splitBlocks(j, j.blockFor(v.blockMul)), 0)
		rt := &hadoop.Runtime{Cluster: cluster, FS: fs}
		if j.Broadcast > 0 {
			bytes := j.Broadcast
			rt.Prelude = func(p *sim.Proc, c *hw.Cluster) { c.Broadcast(p, c.Nodes[0], bytes) }
		}
		reducers := v.reducers
		if reducers == 0 {
			reducers = 4
		}
		res, err := hadoop.Run(rt, j.New(), hadoop.Config{
			Input:             []string{"in"},
			Reducers:          reducers,
			UseCombiner:       v.combiner,
			Partitioner:       j.Partitioner,
			OutputReplication: j.OutputReplication,
		})
		if err != nil {
			cell.Err = err
			add(cell)
			continue
		}
		out := res.Output()
		cell.Digest = Digest(out)
		cell.Err = verdict(j, exp, cell.Digest, out, nil)
		add(cell)
	}
}

// ---- Distributed runtime (internal/dist, loopback TCP). ----
//
// Every cell runs a real coordinator + N worker goroutines over 127.0.0.1
// sockets: the shuffle crosses the kernel's TCP stack, and the ledger check
// additionally enforces the wire conservation invariants (Dist: true).

type distVariant struct {
	axis, name string
	workers    int     // 0 = 3
	partitions int     // 0 = 4
	blockMul   float64 // 0 = 1
	compress   bool
	combiner   bool // HashTable + combiner (CombinerOK apps only)
	mapFault   bool // deterministic injected attempt failures
	// elastic is a membership schedule in dist.ParseElastic syntax
	// (join@2, drain:0@2, restart@2, kill:1@r1, ...); restart events get a
	// throwaway checkpoint journal wired up automatically.
	elastic string
	// blockstore ingests the input into worker block stores ("local" or
	// "remote") with replication 2 over 3 workers, so placement genuinely
	// decides which reads are local.
	blockstore string
	// spill caps resident shuffle memory far below the intermediate
	// volume, forcing the out-of-core reduce path.
	spill bool
}

func distVariants(j Job) []distVariant {
	vs := []distVariant{
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
		{axis: "compress", name: "deflate-spill", compress: true, spill: true},
	}
	// As in nativeVariants, the collector axis is the combiner cell alone.
	if j.CombinerOK {
		vs = append(vs, distVariant{axis: "collector", name: "combiner", combiner: true})
	}
	vs = append(vs,
		// Block-store cells: the same job with its input ingested into the
		// cluster's disks. Locality-preferred placement must read at least
		// half the input off mappers' own replicas, the forced-remote
		// baseline must read none of it locally, and the out-of-core cell
		// must actually spill — all byte-identical to the baseline digest.
		distVariant{axis: "locality", name: "local-preferred", blockstore: "local"},
		distVariant{axis: "locality", name: "forced-remote", blockstore: "remote"},
		distVariant{axis: "locality", name: "out-of-core", blockstore: "local", spill: true},
		// Injected attempt failures die before partitioning, so nothing
		// touches the wire and the retry cell stays fully exact (not Faulty).
		distVariant{axis: "faults", name: "map-retry", mapFault: true},
		// The kill cell murders a worker after two map resolutions: homes
		// re-assign, resolved tasks re-execute, and the wire + store ledgers
		// must still balance to the byte.
		distVariant{axis: "faults", name: "worker-kill", elastic: "kill:1@2"},
		// A worker killed after a reduce partition has already been accepted:
		// the once-fatal carve-out. Surviving partitions re-execute; the
		// accepted one stands.
		distVariant{axis: "faults", name: "reduce-kill", elastic: "kill:1@r1"},
		// Elastic membership: these cells change the cluster mid-job without
		// any fault, so every ledger invariant stays fully exact — a joiner
		// takes over partitions and map work, a drained worker hands its
		// partitions off, and a crashed coordinator resumes from its journal
		// (restart alone may re-execute in-flight attempts: Elastic, not
		// Faulty — the wire must stay loss-free).
		distVariant{axis: "elastic", name: "live-join", elastic: "join@2"},
		distVariant{axis: "elastic", name: "drain", elastic: "drain:0@2"},
		distVariant{axis: "elastic", name: "coordinator-restart", elastic: "restart@2"},
	)
	return vs
}

// elasticExpect sums what a parsed elastic schedule must visibly do to the
// run: joins, drains, kills and whether the coordinator resumed. Conformance
// asserts the Result (or JobStats) reports exactly these — a cell whose
// event silently never fired would otherwise pass as a vacuous baseline.
func elasticExpect(evs []dist.ElasticEvent) (joins, drains, kills int, resumed bool) {
	for _, ev := range evs {
		switch ev.Kind {
		case "join":
			joins++
		case "drain":
			drains++
		case "kill":
			kills++
		case "restart":
			resumed = true
		}
	}
	return
}

func runDistApp(j Job, exp Expected, opt Options, add func(Cell)) {
	for _, v := range distVariants(j) {
		if !selected(opt.Axes, v.axis) {
			continue
		}
		cell := Cell{Runtime: "dist", App: j.Name, Axis: v.axis, Variant: v.name}
		workers := v.workers
		if workers == 0 {
			workers = 3
		}
		partitions := v.partitions
		if partitions == 0 {
			partitions = 4
		}
		collector := j.Collector
		if v.combiner {
			collector = core.HashTable
		}
		tel := obs.NewTelemetry()
		o := dist.Options{
			Job: dist.Job{
				App:         dist.AppSpec{Name: j.Name},
				Partitions:  partitions,
				Collector:   collector,
				UseCombiner: v.combiner,
				Compress:    v.compress,
			},
			Workers:   workers,
			Blocks:    splitBlocks(j, j.blockFor(v.blockMul)),
			Telemetry: tel,
			NewApp: func(dist.AppSpec) (*core.App, func(key []byte, n int) int, error) {
				return j.New(), j.Partitioner, nil
			},
			KillWorker: -1,
		}
		if v.blockstore != "" {
			o.Blockstore = v.blockstore
			o.Replication = 2
		}
		if v.spill {
			dir, err := os.MkdirTemp("", "glasswing-conf-spill-*")
			if err != nil {
				cell.Err = err
				add(cell)
				continue
			}
			defer os.RemoveAll(dir)
			o.Tuning.SpillThreshold = 2 << 10
			o.Tuning.WorkDir = dir
		}
		if v.mapFault {
			o.MapFault = func(task, attempt int) bool { return attempt == 0 && task%3 == 0 }
		}
		var wantJoins, wantDrains, wantKills int
		var wantResume bool
		if v.elastic != "" {
			evs, err := dist.ParseElastic(v.elastic)
			if err != nil {
				cell.Err = err
				add(cell)
				continue
			}
			o.Elastic = evs
			wantJoins, wantDrains, wantKills, wantResume = elasticExpect(evs)
			if dist.HasRestart(evs) {
				jf, err := os.CreateTemp("", "glasswing-conf-journal-*")
				if err != nil {
					cell.Err = err
					add(cell)
					continue
				}
				jf.Close()
				o.JournalPath = jf.Name()
			}
		}
		res, err := dist.RunLoopback(o)
		if o.JournalPath != "" {
			os.Remove(o.JournalPath)
		}
		if err != nil {
			cell.Err = err
			add(cell)
			continue
		}
		out := res.Output()
		cell.Digest = Digest(out)
		led := ReadLedger(tel.Metrics)
		cell.Err = verdict(j, exp, cell.Digest, out, led.Check(exp, CheckOpts{
			Dist:       true,
			Faulty:     wantKills > 0,
			Elastic:    wantResume,
			Combiner:   v.combiner,
			Compress:   v.compress,
			HasReduce:  j.New().ReduceBatch != nil,
			Blockstore: v.blockstore,
			InputBytes: res.InputBytes,
			WantSpill:  v.spill,
		}))
		if cell.Err == nil && v.elastic != "" {
			switch {
			case res.WorkersJoined != wantJoins:
				cell.Err = fmt.Errorf("elastic cell joined %d workers, want %d", res.WorkersJoined, wantJoins)
			case res.WorkersDrained != wantDrains:
				cell.Err = fmt.Errorf("elastic cell drained %d workers, want %d", res.WorkersDrained, wantDrains)
			case res.WorkersLost < wantKills:
				cell.Err = fmt.Errorf("elastic cell lost %d workers, want >= %d", res.WorkersLost, wantKills)
			case res.Resumed != wantResume:
				cell.Err = fmt.Errorf("elastic cell resumed=%v, want %v", res.Resumed, wantResume)
			}
		}
		add(cell)
	}
}

func gpmrVariants(j Job) []modelVariant {
	vs := []modelVariant{
		{axis: "baseline", name: "n3"},
		{axis: "chunk", name: "double-block", blockMul: 2},
		{axis: "workers", name: "n2", nodes: 2},
		{axis: "workers", name: "n5", nodes: 5},
	}
	if j.CombinerOK {
		vs = append(vs, modelVariant{axis: "collector", name: "partial-reduce", partial: true})
	}
	return vs
}

func runGpmrApp(j Job, exp Expected, opt Options, add func(Cell)) {
	for _, v := range gpmrVariants(j) {
		if !selected(opt.Axes, v.axis) {
			continue
		}
		cell := Cell{Runtime: "gpmr", App: j.Name, Axis: v.axis, Variant: v.name}
		nodes := v.nodes
		if nodes == 0 {
			nodes = 3
		}
		env := sim.NewEnv()
		cluster := hw.NewCluster(env, nodes, hw.Type1(true))
		fs := dfs.NewLocal(cluster, j.blockFor(v.blockMul))
		fs.PreloadBlocks("in", splitBlocks(j, j.blockFor(v.blockMul)), 0)
		rt := &gpmr.Runtime{Cluster: cluster, FS: fs}
		res, err := gpmr.Run(rt, j.New(), gpmr.Config{
			Input:         []string{"in"},
			Partitioner:   j.Partitioner,
			PartialReduce: v.partial,
		})
		if err != nil {
			cell.Err = err
			add(cell)
			continue
		}
		out := res.Output()
		cell.Digest = Digest(out)
		cell.Err = verdict(j, exp, cell.Digest, out, nil)
		add(cell)
	}
}
