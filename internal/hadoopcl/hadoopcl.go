// Package hadoopcl models HadoopCL (Grossman et al.), the system the paper
// calls "highly relevant work" but could not evaluate because "it is not
// yet open-sourced" (§IV footnote). This implementation completes that
// comparison as an extension.
//
// HadoopCL keeps Hadoop's execution model — JobTracker, task slots, one
// coarse-grained map task per split, a pull shuffle — but translates the
// Java map/reduce functions to OpenCL kernels with APARAPI and runs them on
// a compute device. The modeled consequences, per the paper's §II
// discussion:
//
//   - kernels accelerate on the device, one launch per task (no chunk
//     pipeline, no overlap inside a task);
//   - APARAPI restricts kernels to primitive arrays: every task pays a
//     host-side conversion of records into primitive buffers and of kernel
//     output back into Java objects, on top of Hadoop's usual per-record
//     costs;
//   - everything around the kernels (sort, spill, shuffle, merge, HDFS)
//     stays Java, so Hadoop's framework costs remain.
package hadoopcl

import (
	"fmt"
	"sort"

	"glasswing/internal/cl"
	"glasswing/internal/core"
	"glasswing/internal/dfs"
	"glasswing/internal/hw"
	"glasswing/internal/kv"
	"glasswing/internal/sim"
)

// Cost constants; the Java-side ones mirror internal/hadoop.
const (
	javaComputeFactor = 1.8
	javaPerRecordOps  = 250
	javaReadPerByte   = 0.8
	taskStartupSecs   = 0.12
	heartbeatSecs     = 0.35
	jobStartupSecs    = 2.2
	// aparapiPerByte is the host-side cost of marshalling records into
	// primitive arrays for the kernel and decoding the kernel's primitive
	// output back into Writables — APARAPI permits nothing richer.
	aparapiPerByte = 3.0
	// aparapiLaunchSecs is APARAPI's per-task translation/dispatch cost
	// (bytecode-to-OpenCL caching, buffer registration).
	aparapiLaunchSecs = 0.01
)

// Config carries the HadoopCL job knobs.
type Config struct {
	Input             []string
	OutputPath        string
	OutputReplication int
	// Device selects the per-node compute device (0 = CPU, 1 = first
	// accelerator).
	Device int
	// MapSlots is per-node concurrent map tasks. HadoopCL shares one
	// device among a node's tasks, so the default is modest.
	MapSlots int
	// Reducers is the total reduce task count (0 = 4 per node).
	Reducers int
	// UseCombiner runs App.Combine over each task's kernel output.
	UseCombiner bool
	// Partitioner overrides hash partitioning.
	Partitioner func(key []byte, n int) int
}

func (c Config) withDefaults() Config {
	if c.OutputPath == "" {
		c.OutputPath = "hadoopcl-out"
	}
	if c.MapSlots == 0 {
		c.MapSlots = 8
	}
	if c.Partitioner == nil {
		c.Partitioner = kv.Partition
	}
	return c
}

// Runtime binds HadoopCL to a cluster and file system.
type Runtime struct {
	Cluster *hw.Cluster
	FS      dfs.FS
	Prelude func(p *sim.Proc, c *hw.Cluster)
}

// Result reports a HadoopCL job.
type Result struct {
	App     string
	Nodes   int
	JobTime float64
	// KernelTime is total device busy time across nodes.
	KernelTime float64

	outputs map[int][]kv.Pair
}

// Output returns final pairs in reducer order.
func (r *Result) Output() []kv.Pair {
	ids := make([]int, 0, len(r.outputs))
	for id := range r.outputs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var out []kv.Pair
	for _, id := range ids {
		out = append(out, r.outputs[id]...)
	}
	return out
}

type mapOutput struct {
	node *hw.Node
	runs map[int]*kv.Run
}

type taskRef struct {
	file *dfs.File
	idx  int
}

// Run executes app as a HadoopCL job.
func Run(rt *Runtime, app *core.App, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Reducers == 0 {
		cfg.Reducers = 4 * len(rt.Cluster.Nodes)
	}
	if app.MapBatch == nil || app.Parse == nil {
		return nil, fmt.Errorf("hadoopcl: app %q needs Parse and MapBatch", app.Name)
	}
	if len(cfg.Input) == 0 {
		return nil, fmt.Errorf("hadoopcl: no input files")
	}
	env := rt.Cluster.Env
	ctxs := make([]*cl.Context, len(rt.Cluster.Nodes))
	for i, n := range rt.Cluster.Nodes {
		if cfg.Device < 0 || cfg.Device >= len(n.Devices) {
			return nil, fmt.Errorf("hadoopcl: node %d has no device %d", i, cfg.Device)
		}
		ctxs[i] = cl.NewContext(n.Devices[cfg.Device])
	}
	var tasks []taskRef
	for _, name := range cfg.Input {
		f, err := rt.FS.Open(name)
		if err != nil {
			return nil, err
		}
		for idx := range f.Blocks {
			tasks = append(tasks, taskRef{file: f, idx: idx})
		}
	}

	res := &Result{App: app.Name, Nodes: len(rt.Cluster.Nodes), outputs: make(map[int][]kv.Pair)}
	var completed []*mapOutput
	mapsDone := sim.NewSignal(env)
	next := 0

	env.Spawn("hadoopcl-jobtracker", func(p *sim.Proc) {
		start := p.Now()
		p.Delay(jobStartupSecs)
		if rt.Prelude != nil {
			rt.Prelude(p, rt.Cluster)
		}
		var slots []*sim.Proc
		for ni := range rt.Cluster.Nodes {
			ni := ni
			for s := 0; s < cfg.MapSlots; s++ {
				pr := env.Spawn(fmt.Sprintf("hadoopcl-n%02d-slot%d", ni, s), func(q *sim.Proc) {
					for {
						if next >= len(tasks) {
							return
						}
						t := tasks[next]
						next++
						q.Delay(heartbeatSecs/2 + taskStartupSecs)
						out := mapTask(q, rt, ctxs[ni], app, cfg, ni, t)
						completed = append(completed, out)
					}
				})
				slots = append(slots, pr)
			}
		}
		for _, pr := range slots {
			pr.Done().Wait(p)
		}
		mapsDone.Fire(nil)

		// Reduce: same pull model as Hadoop, on the host (HadoopCL's
		// reduce kernels are often left on the CPU; we keep reduce in
		// Java for the counting apps, which is its common deployment).
		var reds []*sim.Proc
		for r := 0; r < cfg.Reducers; r++ {
			r := r
			node := rt.Cluster.Nodes[r%len(rt.Cluster.Nodes)]
			pr := env.Spawn(fmt.Sprintf("hadoopcl-red%d", r), func(q *sim.Proc) {
				reduceTask(q, rt, app, cfg, node, r, completed, res)
			})
			reds = append(reds, pr)
		}
		for _, pr := range reds {
			pr.Done().Wait(p)
		}
		res.JobTime = p.Now() - start
		for _, ctx := range ctxs {
			res.KernelTime += ctx.KernelTime
		}
	})
	env.Run()
	return res, nil
}

// mapTask reads a split, converts it through APARAPI's primitive-array
// interface, runs the map kernel in ONE launch, converts the output back,
// then sorts/spills like Hadoop.
func mapTask(p *sim.Proc, rt *Runtime, ctx *cl.Context, app *core.App, cfg Config, ni int, t taskRef) *mapOutput {
	node := rt.Cluster.Nodes[ni]
	block, err := rt.FS.ReadBlock(p, node, t.file, t.idx)
	if err != nil {
		panic(err)
	}
	node.HostWork(p, javaReadPerByte*float64(len(block)), 1)
	recs := app.Parse(block)
	node.HostWork(p, app.ParseCostPerByte*javaComputeFactor*float64(len(block)), 1)

	// APARAPI marshalling in: records into primitive arrays.
	node.HostWork(p, aparapiPerByte*float64(len(block)), 1)
	p.Delay(aparapiLaunchSecs)

	// One kernel launch over the whole split.
	var mapped kv.Batch
	threads := ctx.Device.Profile.HWThreads
	cl.Range(len(recs), threads, func(tid, lo, hi int) {
		app.MapBatch(recs[lo:hi], &mapped)
	})
	emits, emitted := mapped.Len(), mapped.Bytes()
	ctx.EnqueueWrite(p, int64(len(block)))
	ctx.Launch(p, threads, cl.Stats{
		Ops: app.MapCost.OpsPerRecord*float64(len(recs)) +
			app.MapCost.OpsPerByte*float64(len(block)) +
			app.MapCost.OpsPerEmit*float64(emits),
		AtomicOps: float64(emits),
		Bytes:     float64(len(block)) + float64(emitted),
	})
	ctx.EnqueueRead(p, emitted)

	// APARAPI marshalling out: primitive arrays back into Writables.
	node.HostWork(p, aparapiPerByte*float64(emitted)+javaPerRecordOps*float64(emits), 1)

	// Hadoop-style sort/partition/spill on the host.
	bounds := mapped.PartitionRanges(cfg.Partitioner, cfg.Reducers)
	out := &mapOutput{node: node, runs: make(map[int]*kv.Run)}
	var spill int64
	var sortOps float64
	for r := 0; r < cfg.Reducers; r++ {
		lo, hi := bounds[r], bounds[r+1]
		if lo == hi {
			continue
		}
		mapped.SortRange(lo, hi)
		var run *kv.Run
		if cfg.UseCombiner && app.Combine != nil {
			run = core.CombineSorted(app, &mapped, lo, hi)
		} else {
			run = mapped.RunRange(lo, hi, false)
		}
		out.runs[r] = run
		spill += run.StoredBytes()
		sortOps += 60 * float64(hi-lo)
	}
	node.HostWork(p, sortOps, 1)
	node.Disk.Write(p, spill)
	return out
}

// reduceTask pulls this reducer's portions, merges, reduces in Java, and
// writes the final file.
func reduceTask(p *sim.Proc, rt *Runtime, app *core.App, cfg Config, node *hw.Node, r int, completed []*mapOutput, res *Result) {
	p.Delay(taskStartupSecs)
	var fetched []*kv.Run
	var pairsN int
	for _, out := range completed {
		run, ok := out.runs[r]
		if !ok {
			continue
		}
		out.node.Disk.Read(p, run.StoredBytes())
		rt.Cluster.Transfer(p, out.node, node, run.StoredBytes())
		fetched = append(fetched, run)
		pairsN += run.Records
	}
	node.HostWork(p, 95*float64(pairsN), 1)
	iters := make([]kv.Iterator, len(fetched))
	for i, run := range fetched {
		iters[i] = run.Iter()
	}
	gi := kv.NewGroupIter(kv.Merge(iters...))
	var red kv.Batch
	var ops float64
	for {
		g, ok := gi.Next()
		if !ok {
			break
		}
		ops += app.ReduceCost.OpsPerRecord + app.ReduceCost.OpsPerValue*float64(len(g.Values))
		if app.ReduceBatch == nil {
			for _, v := range g.Values {
				red.AppendKV(g.Key, v)
			}
			continue
		}
		app.ReduceBatch(g.Key, g.Values, &red)
	}
	out := red.Pairs(nil)
	node.HostWork(p, ops*javaComputeFactor+javaPerRecordOps*float64(pairsN+len(out)), 1)
	blob := kv.Marshal(out)
	if _, err := rt.FS.Write(p, node, fmt.Sprintf("%s-%05d", cfg.OutputPath, r), blob, cfg.OutputReplication); err != nil {
		panic(err)
	}
	res.outputs[r] = out
}
