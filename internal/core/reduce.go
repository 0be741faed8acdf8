package core

import (
	"fmt"

	"glasswing/internal/cl"
	"glasswing/internal/kv"
	"glasswing/internal/sim"
)

// reduceRef identifies one reduce task: a global partition and the
// node/store that currently holds its intermediate data.
type reduceRef struct {
	global int
	owner  int
	local  int
}

// reduceChunk is a batch of ConcurrentKeys key groups heading to the device.
type reduceChunk struct {
	task   schedTask[reduceRef]
	groups []kv.Group
	bytes  int64
	last   bool // last chunk of the attempt
	// pairsIn/groupsIn, set on the last chunk, are the attempt's whole
	// input (records and key groups read from the partition store); the
	// kernel stage adds them to the conservation ledger iff this attempt
	// wins the task.
	pairsIn  int
	groupsIn int
}

// reduceOut is the output of one reduce kernel launch.
type reduceOut struct {
	task   schedTask[reduceRef]
	pairs  []kv.Pair
	volume int64
	last   bool
	// drop on the last chunk discards the attempt's accumulated output:
	// the attempt failed (injected fault) or lost to a twin.
	drop bool
}

// runReducePipeline executes one node's 5-stage reduce pipeline (§III-C):
// the input reader performs one last multi-way merge over each partition's
// runs and batches key groups; Stage/Kernel/Retrieve mirror the map
// pipeline; the output stage writes final data to persistent storage.
//
// Partitions arrive through the reduce-side scheduler (§III-E): first
// attempts stay pinned to the node that holds the partition's data, so the
// fault-free order is the owner's local iteration; a failed attempt requeues
// and may run anywhere — a remote node pays the owner's disk read plus one
// fabric transfer of the stored partition. Speculative backups race the
// original and the first finisher's output wins.
func (j *job) runReducePipeline(p *sim.Proc, nodeIdx int) StageTimes {
	env := p.Env()
	node := j.cluster.Nodes[nodeIdx]
	ctx := j.ctxs[nodeIdx]
	cfg := j.cfg
	var times StageTimes
	start := p.Now()

	inBufs := sim.NewResource(env, cfg.Buffering)
	outBufs := sim.NewResource(env, cfg.Buffering)
	stageQ := sim.NewQueue[reduceChunk](env, 0)
	kernelQ := sim.NewQueue[reduceChunk](env, 0)
	retrQ := sim.NewQueue[reduceOut](env, 0)
	outQ := sim.NewQueue[reduceOut](env, 0)

	input := func(p *sim.Proc) {
		for {
			t, ok := j.redSched.next(p, nodeIdx)
			if !ok {
				stageQ.Close()
				return
			}
			ps := j.managers[t.payload.owner].parts[t.payload.local]
			runs := ps.runs()
			var stored, raw int64
			var pairsN int
			for _, r := range runs {
				pairsN += r.Records
				raw += r.RawBytes
			}
			for _, r := range ps.onDisk {
				stored += r.StoredBytes()
			}
			t0 := p.Now()
			j.cluster.Nodes[t.payload.owner].Disk.Read(p, stored)
			if t.payload.owner != nodeIdx {
				// Re-queued or speculative attempt away from the data: the
				// whole stored partition crosses the fabric.
				j.cluster.Transfer(p, j.cluster.Nodes[t.payload.owner], node, ps.storedTotal())
			}
			ops := mergeCost(pairsN, len(runs)) + costGroupPerValue*float64(pairsN)
			if cfg.Compress {
				ops += costDecompressPerByte * float64(raw)
			}
			node.HostWork(p, ops, 1)
			iters := make([]kv.Iterator, len(runs))
			for i, r := range runs {
				iters[i] = r.Iter()
			}
			gi := kv.NewGroupIter(kv.Merge(iters...))
			var batch []kv.Group
			var batchBytes int64
			var groupsN int
			flush := func(last bool) {
				times.Input += p.Now() - t0
				j.trace.add(nodeIdx, "reduce/input", t0, p.Now())
				c := reduceChunk{task: t, groups: batch, bytes: batchBytes, last: last}
				if last {
					c.pairsIn, c.groupsIn = pairsN, groupsN
				}
				stageQ.Put(p, c)
				batch, batchBytes = nil, 0
				t0 = p.Now()
			}
			for {
				g, ok := gi.Next()
				if !ok {
					break
				}
				groupsN++
				batch = append(batch, g)
				batchBytes += g.Bytes()
				if len(batch) >= cfg.ConcurrentKeys {
					inBufs.Acquire(p, 1)
					flush(false)
				}
			}
			// Always emit a final (possibly empty) chunk: it resolves the
			// attempt, and the output stage writes every partition file,
			// keeping TS partition numbering dense.
			inBufs.Acquire(p, 1)
			flush(true)
		}
	}

	stage := func(p *sim.Proc) {
		for {
			c, ok := stageQ.Get(p)
			if !ok {
				kernelQ.Close()
				return
			}
			t0 := p.Now()
			ctx.EnqueueWrite(p, c.bytes)
			times.Stage += p.Now() - t0
			kernelQ.Put(p, c)
		}
	}

	kernel := func(p *sim.Proc) {
		for {
			c, ok := kernelQ.Get(p)
			if !ok {
				retrQ.Close()
				return
			}
			outBufs.Acquire(p, 1)
			t0 := p.Now()
			ro := j.execReduceKernel(p, ctx, c)
			times.Kernel += p.Now() - t0
			j.trace.add(nodeIdx, "reduce/kernel", t0, p.Now())
			j.traceAttempt(nodeIdx, c.task.attempt, c.task.spec, t0, p.Now())
			inBufs.Release(1)
			if c.last {
				// The attempt's fate is decided once its whole partition
				// has been processed.
				if cfg.ReduceFaultInjector != nil && cfg.ReduceFaultInjector(c.task.payload.global, c.task.attempt) {
					j.counters.reduceRetries.Inc()
					if j.redSched.fail(c.task, nodeIdx) == failExhausted {
						if j.failErr == nil {
							j.failErr = fmt.Errorf("core: reduce partition %d failed %d attempts",
								c.task.payload.global, cfg.MaxTaskAttempts)
						}
					}
					ro.drop = true
				} else if j.redSched.resolveFirst(c.task.id, nodeIdx) {
					if c.task.spec {
						j.counters.speculativeWins.Inc()
					}
					// Ledger: the winning attempt's input is what the
					// reduce phase consumed for this partition.
					j.counters.conserv.ReduceRecordsIn.Add(int64(c.pairsIn))
					j.counters.conserv.ReduceGroupsIn.Add(int64(c.groupsIn))
				} else {
					ro.drop = true // a twin attempt won the race
				}
			}
			retrQ.Put(p, ro)
		}
	}

	retrieve := func(p *sim.Proc) {
		for {
			ro, ok := retrQ.Get(p)
			if !ok {
				outQ.Close()
				return
			}
			t0 := p.Now()
			ctx.EnqueueRead(p, ro.volume)
			times.Retrieve += p.Now() - t0
			outQ.Put(p, ro)
		}
	}

	output := func(p *sim.Proc) {
		var partPairs []kv.Pair
		for {
			ro, ok := outQ.Get(p)
			if !ok {
				return
			}
			t0 := p.Now()
			partPairs = append(partPairs, ro.pairs...)
			if ro.last {
				if ro.drop {
					// Failed or losing attempt: its partial output never
					// reaches persistent storage.
					partPairs = nil
				} else {
					name := fmt.Sprintf("%s-%05d", cfg.OutputPath, ro.task.payload.global)
					blob := kv.Marshal(partPairs)
					node.HostWork(p, costSerializePerByte*float64(len(blob)), 1)
					if _, err := j.fs.Write(p, node, name, blob, cfg.OutputReplication); err != nil {
						panic(err)
					}
					j.counters.conserv.OutputPairs.Add(int64(len(partPairs)))
					j.outputs[ro.task.payload.global] = partPairs
					partPairs = nil
				}
			}
			times.Partition += p.Now() - t0
			j.trace.add(nodeIdx, "reduce/output", t0, p.Now())
			outBufs.Release(1)
		}
	}

	procs := []*sim.Proc{
		env.Spawn(node.Name+"/red-input", input),
		env.Spawn(node.Name+"/red-stage", stage),
		env.Spawn(node.Name+"/red-kernel", kernel),
		env.Spawn(node.Name+"/red-retrieve", retrieve),
		env.Spawn(node.Name+"/red-output", output),
	}
	for _, pr := range procs {
		pr.Done().Wait(p)
	}
	times.Elapsed = p.Now() - start
	return times
}

// execReduceKernel runs the application reduce function over a batch of key
// groups. ConcurrentKeys keys are processed in the same launch, each kernel
// thread handling KeysPerThread keys sequentially and each key optionally
// spread over ThreadsPerKey threads; keys whose value lists exceed
// MaxValuesPerLaunch pay extra launches with scratch-buffer state (§III-C).
func (j *job) execReduceKernel(p *sim.Proc, ctx *cl.Context, c reduceChunk) reduceOut {
	cfg := j.cfg
	if j.app.ReduceBatch == nil {
		// No reduce function (TeraSort): intermediate data is final once
		// merged; pass pairs through untouched at zero device cost.
		var pairs []kv.Pair
		var vol int64
		for _, g := range c.groups {
			for _, v := range g.Values {
				pairs = append(pairs, kv.Pair{Key: g.Key, Value: v})
				vol += int64(len(g.Key) + len(v))
			}
		}
		return reduceOut{task: c.task, pairs: pairs, volume: vol, last: c.last}
	}

	if len(c.groups) == 0 {
		return reduceOut{task: c.task, last: c.last}
	}

	var st cl.Stats
	st.Ops += j.app.ReduceCost.OpsPerBatch
	var out kv.Batch
	extraLaunches := 0
	for _, g := range c.groups {
		st.Ops += j.app.ReduceCost.OpsPerRecord +
			j.app.ReduceCost.OpsPerValue*float64(len(g.Values)) +
			j.app.ReduceCost.OpsPerByte*float64(g.Bytes())
		st.Bytes += float64(g.Bytes())
		if len(g.Values) > cfg.MaxValuesPerLaunch {
			extraLaunches += (len(g.Values)-1)/cfg.MaxValuesPerLaunch + 1 - 1
		}
		before, vol := out.Len(), out.Bytes()
		j.app.ReduceBatch(g.Key, g.Values, &out)
		emitted := float64(out.Len() - before)
		st.Ops += j.app.ReduceCost.OpsPerEmit * emitted
		st.AtomicOps += emitted
		st.Bytes += float64(out.Bytes() - vol)
	}
	threads := cfg.ReduceThreads
	if threads <= 0 {
		threads = (len(c.groups) + cfg.KeysPerThread - 1) / cfg.KeysPerThread * cfg.ThreadsPerKey
	}
	ctx.Launch(p, threads, st)
	if extraLaunches > 0 {
		// State carried across launches through per-key scratch buffers.
		p.Delay(float64(extraLaunches) * ctx.Device.Profile.LaunchOverhead)
		ctx.EnqueueWrite(p, int64(extraLaunches)*scratchStateBytes)
		ctx.EnqueueRead(p, int64(extraLaunches)*scratchStateBytes)
	}
	return reduceOut{task: c.task, pairs: out.Pairs(nil), volume: out.Bytes(), last: c.last}
}
