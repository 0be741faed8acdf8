// Package gpmr models GPMR (Stuart & Owens), the CUDA cluster MapReduce the
// paper compares against for the compute-bound applications. The properties
// the comparison rests on (§IV-A2, Fig 3):
//
//   - GPU-only: every kernel runs on the accelerator; no CPU fallback.
//   - No I/O overlap: a node first reads ALL of its input from the local
//     file system, then starts its computation pipeline, so total time is
//     the SUM of I/O and compute where Glasswing pays only the MAX.
//   - In-core intermediate data: everything must fit in host memory; runs
//     exceeding it fail (the limitation the paper calls out in §II).
//   - The published experiment layout: input fully replicated on every
//     node's local file system.
//   - The MM application computes intermediate submatrices but has no
//     reduce; it generates input on the fly and excludes generation time.
//
// Applications are the same core.App kernels used by Glasswing and Hadoop,
// so outputs remain comparable.
package gpmr

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

// hostPrepPerByte is the single-threaded host-side cost (ops/byte) of
// converting records into GPU-friendly buffers inside GPMR's compute
// pipeline. GPMR's host code is research-grade and single-threaded;
// calibrated so that, for the I/O-dominant 16-center KM of Fig 3(e),
// "reading the data from the nodes local disks takes twice as long as the
// computation" (§IV-A2).
const hostPrepPerByte = 5.0

// Config controls a GPMR run.
type Config struct {
	Input []string
	// PartialReduce runs the app combiner on-device per chunk (GPMR's
	// partial reduction).
	PartialReduce bool
	// GenerateInput skips file reading entirely: input blocks are
	// produced on the fly and generation time is excluded from the
	// reported numbers, as GPMR's MM does.
	GenerateInput bool
	// Partitioner overrides hash partitioning across nodes.
	Partitioner func(key []byte, n int) int
	// KernelThreads is the map kernel global size (0 = 4x device lanes).
	KernelThreads int
	// KernelInefficiency multiplies map-kernel compute cost (default 1).
	// The paper attributes Glasswing's MM win over GPMR to "the Glasswing
	// GPU kernel [being] more carefully performance-engineered" (§IV-A2);
	// the MM experiment models GPMR's naive kernel with this factor.
	KernelInefficiency float64
}

// Runtime binds GPMR to a cluster. Every node must carry an accelerator.
type Runtime struct {
	Cluster *hw.Cluster
	FS      dfs.FS
}

// Result reports a GPMR run. The paper's Fig 3(e) plots both lines: total
// time including I/O, and the computation pipeline alone.
type Result struct {
	App     string
	Nodes   int
	JobTime float64 // includes input I/O
	IOTime  float64 // the blocking up-front read (max over nodes)
	Compute float64 // JobTime - IOTime

	outputs map[int][]kv.Pair
}

// Output returns final pairs in node order.
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

// Run executes app under GPMR's model and returns the result.
func Run(rt *Runtime, app *core.App, cfg Config) (*Result, error) {
	if app.MapBatch == nil || app.Parse == nil {
		return nil, fmt.Errorf("gpmr: app %q needs Parse and MapBatch", app.Name)
	}
	if len(cfg.Input) == 0 {
		return nil, fmt.Errorf("gpmr: no input files")
	}
	if cfg.Partitioner == nil {
		cfg.Partitioner = kv.Partition
	}
	if cfg.KernelInefficiency <= 0 {
		cfg.KernelInefficiency = 1
	}
	nNodes := len(rt.Cluster.Nodes)
	ctxs := make([]*cl.Context, nNodes)
	for i, n := range rt.Cluster.Nodes {
		gpu := n.Accelerator()
		if gpu == nil {
			return nil, fmt.Errorf("gpmr: node %d has no GPU — GPMR is GPU-only", i)
		}
		ctxs[i] = cl.NewContext(gpu)
	}

	// Static assignment: block i of every file goes to node i % nNodes
	// (the data is fully replicated locally, so any assignment is local).
	assigned := make([][]*dfs.Block, nNodes)
	for _, name := range cfg.Input {
		f, err := rt.FS.Open(name)
		if err != nil {
			return nil, err
		}
		for idx, b := range f.Blocks {
			assigned[idx%nNodes] = append(assigned[idx%nNodes], b)
		}
	}

	env := rt.Cluster.Env
	res := &Result{App: app.Name, Nodes: nNodes, outputs: make(map[int][]kv.Pair)}
	// exchange[dst] collects the pairs pushed to dst during the exchange.
	exchange := make([][]kv.Pair, nNodes)
	ioTimes := make([]float64, nNodes)

	env.Spawn("gpmr-master", func(p *sim.Proc) {
		start := p.Now()

		// Phase 1+2 per node: blocking read of all input, then the chunked
		// GPU map pipeline with partial reduction.
		var phase1 []*sim.Proc
		for ni := range rt.Cluster.Nodes {
			ni := ni
			pr := env.Spawn(fmt.Sprintf("gpmr-node%03d", ni), func(q *sim.Proc) {
				node := rt.Cluster.Nodes[ni]
				ctx := ctxs[ni]
				// Read ALL input first — no overlap with compute.
				t0 := q.Now()
				if !cfg.GenerateInput {
					for _, b := range assigned[ni] {
						node.Disk.Read(q, int64(len(b.Data)))
					}
				}
				ioTimes[ni] = q.Now() - t0

				// Compute pipeline: chunk = block.
				var interBytes int64
				var partials []kv.Pair
				for _, b := range assigned[ni] {
					recs := app.Parse(b.Data)
					node.HostWork(q, (app.ParseCostPerByte+hostPrepPerByte)*float64(len(b.Data)), 1)
					ctx.EnqueueWrite(q, int64(len(b.Data)))
					mapped, st := execMap(app, recs, int64(len(b.Data)), cfg, ctx)
					st.Ops *= cfg.KernelInefficiency
					threads := cfg.KernelThreads
					if threads <= 0 {
						threads = 4 * ctx.Device.Profile.HWThreads
					}
					ctx.Launch(q, threads, st)
					if cfg.PartialReduce && app.Combine != nil {
						mapped = partialReduce(app, mapped, ctx, q)
					}
					ctx.EnqueueRead(q, mapped.Bytes())
					interBytes += mapped.Bytes()
					partials = append(partials, mapped.Pairs(nil)...)
					if interBytes > node.MemBytes {
						panic(fmt.Sprintf("gpmr: intermediate data (%d bytes) exceeds host memory on node %d — GPMR cannot run out-of-core", interBytes, ni))
					}
				}

				// Exchange: partition across nodes, push over the network.
				buckets := make([][]kv.Pair, nNodes)
				for _, pr := range partials {
					d := cfg.Partitioner(pr.Key, nNodes)
					buckets[d] = append(buckets[d], pr)
				}
				for d, bucket := range buckets {
					if len(bucket) == 0 {
						continue
					}
					var bytes int64
					for _, pr := range bucket {
						bytes += pr.Size()
					}
					if d != ni {
						rt.Cluster.Transfer(q, node, rt.Cluster.Nodes[d], bytes)
					}
					exchange[d] = append(exchange[d], bucket...)
				}
			})
			phase1 = append(phase1, pr)
		}
		for _, pr := range phase1 {
			pr.Done().Wait(p)
		}

		// Phase 3 per node: GPU sort + reduce over received pairs.
		var phase2 []*sim.Proc
		for ni := range rt.Cluster.Nodes {
			ni := ni
			pr := env.Spawn(fmt.Sprintf("gpmr-reduce%03d", ni), func(q *sim.Proc) {
				ctx := ctxs[ni]
				pairs := exchange[ni]
				if len(pairs) == 0 {
					res.outputs[ni] = nil
					return
				}
				var buf kv.Batch
				for _, pr := range pairs {
					buf.Append(pr)
				}
				ctx.EnqueueWrite(q, buf.Bytes())
				buf.Sort()
				// GPU bitonic-style sort charge.
				ctx.Launch(q, 4*ctx.Device.Profile.HWThreads, cl.Stats{
					Ops:   sortOpsGPU(buf.Len()),
					Bytes: 2 * float64(buf.Bytes()),
				})
				out := reduceAll(app, buf.Pairs(nil), ctx, q)
				var vol int64
				for _, pr := range out {
					vol += pr.Size()
				}
				ctx.EnqueueRead(q, vol)
				res.outputs[ni] = out
			})
			phase2 = append(phase2, pr)
		}
		for _, pr := range phase2 {
			pr.Done().Wait(p)
		}
		res.JobTime = p.Now() - start
	})
	env.Run()

	for _, t := range ioTimes {
		res.IOTime = max(res.IOTime, t)
	}
	res.Compute = res.JobTime - res.IOTime
	return res, nil
}

// execMap runs the map kernel over records, returning its output and the
// launch stats.
func execMap(app *core.App, recs []kv.Pair, bytes int64, cfg Config, ctx *cl.Context) (*kv.Batch, cl.Stats) {
	var out kv.Batch
	threads := cfg.KernelThreads
	if threads <= 0 {
		threads = 4 * ctx.Device.Profile.HWThreads
	}
	cl.Range(len(recs), threads, func(tid, lo, hi int) {
		app.MapBatch(recs[lo:hi], &out)
	})
	emits := float64(out.Len())
	st := cl.Stats{
		Ops: app.MapCost.OpsPerRecord*float64(len(recs)) +
			app.MapCost.OpsPerByte*float64(bytes) +
			app.MapCost.OpsPerEmit*emits,
		AtomicOps: emits,
		Bytes:     float64(bytes),
	}
	return &out, st
}

// partialReduce runs the combiner on-device over one chunk's pairs.
func partialReduce(app *core.App, mapped *kv.Batch, ctx *cl.Context, q *sim.Proc) *kv.Batch {
	mapped.Sort()
	var out kv.Batch
	var ops float64
	gi := kv.NewGroupIter(kv.NewSliceIter(mapped.Pairs(nil)))
	for {
		g, ok := gi.Next()
		if !ok {
			break
		}
		ops += app.CombineCost.OpsPerRecord + app.CombineCost.OpsPerValue*float64(len(g.Values))
		before := out.Len()
		app.Combine(g.Key, g.Values, &out)
		ops += app.CombineCost.OpsPerEmit * float64(out.Len()-before)
	}
	ctx.Launch(q, 4*ctx.Device.Profile.HWThreads, cl.Stats{
		Ops:   ops + sortOpsGPU(mapped.Len()),
		Bytes: 2 * float64(mapped.Bytes()),
	})
	return &out
}

// reduceAll runs the reduce kernel over sorted pairs (identity when the app
// has no reduce, like MM).
func reduceAll(app *core.App, pairs []kv.Pair, ctx *cl.Context, q *sim.Proc) []kv.Pair {
	if app.ReduceBatch == nil {
		return pairs
	}
	var out kv.Batch
	var ops float64
	var bytes float64
	gi := kv.NewGroupIter(kv.NewSliceIter(pairs))
	for {
		g, ok := gi.Next()
		if !ok {
			break
		}
		ops += app.ReduceCost.OpsPerRecord +
			app.ReduceCost.OpsPerValue*float64(len(g.Values)) +
			app.ReduceCost.OpsPerByte*float64(g.Bytes())
		bytes += float64(g.Bytes())
		before := out.Len()
		app.ReduceBatch(g.Key, g.Values, &out)
		ops += app.ReduceCost.OpsPerEmit * float64(out.Len()-before)
	}
	ctx.Launch(q, 4*ctx.Device.Profile.HWThreads, cl.Stats{Ops: ops, Bytes: bytes})
	return out.Pairs(nil)
}

// sortOpsGPU approximates a device sort of n pairs.
func sortOpsGPU(n int) float64 {
	if n < 2 {
		return 0
	}
	f := float64(n)
	// Bitonic networks are n*log^2(n); cheap per step.
	l := log2(f)
	return f * l * l * 4
}

func log2(x float64) float64 {
	l := 0.0
	for x > 1 {
		x /= 2
		l++
	}
	return l
}
