package conformance

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"glasswing"
	"glasswing/internal/core"
	"glasswing/internal/dfs"
	"glasswing/internal/gpmr"
	"glasswing/internal/hadoop"
	"glasswing/internal/hw"
	"glasswing/internal/kv"
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
	return len(want) == 0 || slices.Contains(want, name)
}

// row is one cell of a runtime's table for one app, with the function that
// runs it: the cell's output digest and verdict.
type row struct {
	axis, name string
	run        func() (digest string, err error)
}

// engine is one runtime's slice of the matrix: its table's rows for an app.
// Listing them runs nothing; done, when not nil, releases what their runs
// set up.
type engine struct {
	name  string
	table func(j Job, exp Expected) (rows []row, done func())
}

// engines is RuntimeNames' order, which is the matrix's within each app.
var engines = []engine{
	{"sim", simTable},
	{"native", realTable(nativeVariants, false, runNative)},
	{"hadoop", modelTable(hadoopVariants, runHadoop)},
	{"gpmr", modelTable(gpmrVariants, runGpmr)},
	{"dist", realTable(distVariants, true, runDist)},
	{"service", serviceTable},
}

// eachCell visits every selected cell in matrix order, app by app and
// runtime by runtime, with the function that runs it. Visiting runs nothing.
func eachCell(opt Options, visit func(c Cell, run func() (string, error))) {
	for _, j := range Jobs() {
		if !selected(opt.Apps, j.Name) {
			continue
		}
		exp := Reference(j)
		for _, e := range engines {
			if !selected(opt.Runtimes, e.name) {
				continue
			}
			rows, done := e.table(j, exp)
			for _, r := range rows {
				if selected(opt.Axes, r.axis) {
					visit(Cell{Runtime: e.name, App: j.Name, Axis: r.axis, Variant: r.name}, r.run)
				}
			}
			if done != nil {
				done()
			}
		}
	}
}

// RunMatrix executes every selected cell, invoking report (when non-nil)
// after each one, and returns all cells. Every cell runs on a fresh cluster
// and a fresh metrics registry, so cells are independent.
func RunMatrix(opt Options, report func(Cell)) []Cell {
	var cells []Cell
	eachCell(opt, func(c Cell, run func() (string, error)) {
		c.Digest, c.Err = run()
		cells = append(cells, c)
		if report != nil {
			report(c)
		}
	})
	return cells
}

// blockFor is the job's DFS block / native chunk size scaled by a variant's
// multiplier (0 = 1): the baseline is about six splits. Binary inputs'
// blocks are record-aligned.
func (j Job) blockFor(mul float64) int64 {
	b := max(j.align(int64(len(j.Data))/6), 2<<10)
	return max(j.align(int64(float64(b)*cmp.Or(mul, 1))), 1<<10)
}

// align rounds b down to whole records, keeping at least one.
func (j Job) align(b int64) int64 {
	if j.RecordSize > 0 {
		b = max(b-b%j.RecordSize, j.RecordSize)
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

func simTable(j Job, exp Expected) ([]row, func()) {
	var rows []row
	for _, v := range simVariants(j) {
		rows = append(rows, row{v.axis, v.name, func() (string, error) {
			res, led, err := runSim(j, v)
			if err != nil {
				return "", err
			}
			out := res.Output()
			dig := Digest(out)
			cfg := simConfig(j, v)
			return dig, verdict(j, exp, dig, out, led.Check(exp, CheckOpts{
				Sim:       true,
				Faulty:    v.faulty,
				Combiner:  cfg.UseCombiner,
				Compress:  cfg.Compress,
				HasReduce: j.New().ReduceBatch != nil,
			}))
		}})
	}
	return rows, nil
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

// runSim runs the variant on a fresh simulated cluster.
func runSim(j Job, v simVariant) (*glasswing.Result, Ledger, error) {
	cluster := glasswing.NewCluster(glasswing.ClusterConfig{
		Nodes:     cmp.Or(v.nodes, 3),
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
	if v.nodeDeath {
		// The death is placed mid-map, as a fraction of the baseline's map
		// phase (virtual time: the baseline cell's own figure).
		base, _, err := runSim(j, simVariant{})
		if err != nil {
			return nil, Ledger{}, fmt.Errorf("baseline for node-death: %w", err)
		}
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

// modelTable is a baseline model's table: run returns a cell's output,
// which is held to the reference digest and the app's verifier.
func modelTable(vs func(Job) []modelVariant, run func(Job, modelVariant) ([]kv.Pair, error)) func(Job, Expected) ([]row, func()) {
	return func(j Job, exp Expected) ([]row, func()) {
		var rows []row
		for _, v := range vs(j) {
			rows = append(rows, row{v.axis, v.name, func() (string, error) {
				out, err := run(j, v)
				if err != nil {
					return "", err
				}
				dig := Digest(out)
				return dig, verdict(j, exp, dig, out, nil)
			}})
		}
		return rows, nil
	}
}

func runHadoop(j Job, v modelVariant) ([]kv.Pair, error) {
	block := j.blockFor(v.blockMul)
	cluster := hw.NewCluster(sim.NewEnv(), cmp.Or(v.nodes, 3), hw.Type1(false))
	fs := dfs.New(cluster, block, 3)
	fs.PreloadBlocks("in", splitBlocks(j, block), 0)
	rt := &hadoop.Runtime{Cluster: cluster, FS: fs}
	if j.Broadcast > 0 {
		bytes := j.Broadcast
		rt.Prelude = func(p *sim.Proc, c *hw.Cluster) { c.Broadcast(p, c.Nodes[0], bytes) }
	}
	res, err := hadoop.Run(rt, j.New(), hadoop.Config{
		Input:             []string{"in"},
		Reducers:          cmp.Or(v.reducers, 4),
		UseCombiner:       v.combiner,
		Partitioner:       j.Partitioner,
		OutputReplication: j.OutputReplication,
	})
	if err != nil {
		return nil, err
	}
	return res.Output(), nil
}

func runGpmr(j Job, v modelVariant) ([]kv.Pair, error) {
	block := j.blockFor(v.blockMul)
	cluster := hw.NewCluster(sim.NewEnv(), cmp.Or(v.nodes, 3), hw.Type1(true))
	fs := dfs.NewLocal(cluster, block)
	fs.PreloadBlocks("in", splitBlocks(j, block), 0)
	res, err := gpmr.Run(&gpmr.Runtime{Cluster: cluster, FS: fs}, j.New(), gpmr.Config{
		Input:         []string{"in"},
		Partitioner:   j.Partitioner,
		PartialReduce: v.partial,
	})
	if err != nil {
		return nil, err
	}
	return res.Output(), nil
}
