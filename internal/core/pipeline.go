package core

import (
	"fmt"

	"glasswing/internal/cl"
	"glasswing/internal/dfs"
	"glasswing/internal/kv"
	"glasswing/internal/obs"
	"glasswing/internal/sim"
)

// splitRef identifies one input split (a DFS block).
type splitRef struct {
	file *dfs.File
	idx  int
}

// mapChunk travels through the map pipeline's input group.
type mapChunk struct {
	task    schedTask[splitRef]
	records []kv.Pair
	bytes   int64
}

// outChunk travels through the output group.
type outChunk struct {
	task          schedTask[splitRef]
	out           *kv.Batch // the collector's output, partitioned in place
	records       int       // input records the chunk was mapped from
	volume        int64
	decodePerPair float64
}

// StageTimes is the per-stage busy-time breakdown of one pipeline
// instantiation, the instrumentation behind the paper's Tables II/III.
type StageTimes struct {
	Input     float64
	Stage     float64
	Kernel    float64
	Retrieve  float64
	Partition float64 // "Output" for the reduce pipeline
	Elapsed   float64
}

// runMapPipeline executes one node's instantiation of the 5-stage map
// pipeline (§III-A): Input reads and splits input files; Stage delivers the
// split to the compute device; Kernel runs the OpenCL map threads; Retrieve
// collects the produced pairs back to host memory; Partition sorts,
// partitions, persists and pushes the intermediate data. With overlap the
// five stages are independent processes coupled by queues and gated by the
// buffer pools; otherwise every chunk passes through the stages
// back-to-back (ablation).
//
// Fault tolerance runs through the shared scheduler (§III-E): a split is
// resolved when its output has been partitioned and handed off for delivery
// — not merely computed — so a node death can tell exactly which completed
// work it lost. If the node dies mid-phase, each stage drops in-flight
// chunks at its next boundary (abandoning them back to the scheduler) and
// drains; blocking charges already started run to completion, modeling
// failure-detection delay.
func (j *job) runMapPipeline(p *sim.Proc, nodeIdx int) StageTimes {
	env := p.Env()
	node := j.cluster.Nodes[nodeIdx]
	ctx := j.ctxs[nodeIdx]
	cfg := j.cfg
	var times StageTimes
	start := p.Now()

	inBufs := sim.NewResource(env, cfg.Buffering)
	outBufs := sim.NewResource(env, cfg.Buffering)
	stageQ := sim.NewQueue[mapChunk](env, 0)
	kernelQ := sim.NewQueue[mapChunk](env, 0)
	retrQ := sim.NewQueue[outChunk](env, 0)
	partQ := sim.NewQueue[outChunk](env, 0)

	dead := func() bool { return j.deadNodes[nodeIdx] }
	// retry handles an injected attempt failure: discard the attempt's
	// output and reschedule the split, unless a twin attempt is still
	// running (it decides the task's fate) or attempts are exhausted.
	retry := func(t schedTask[splitRef]) {
		j.counters.mapRetries.Inc()
		if j.sched.fail(t, nodeIdx) == failExhausted {
			// Record the job failure; the task counts as resolved so the
			// pipelines drain instead of deadlocking.
			if j.failErr == nil {
				j.failErr = fmt.Errorf("core: split %d of %q failed %d attempts",
					t.payload.idx, t.payload.file.FileName, j.cfg.MaxTaskAttempts)
			}
		}
	}

	input := func(p *sim.Proc) {
		for {
			t, ok := j.sched.next(p, nodeIdx)
			if !ok {
				stageQ.Close()
				return
			}
			inBufs.Acquire(p, 1)
			if dead() {
				inBufs.Release(1)
				j.sched.abandon(t, nodeIdx)
				stageQ.Close()
				return
			}
			t0 := p.Now()
			block, err := j.fs.ReadBlock(p, node, t.payload.file, t.payload.idx)
			if err != nil {
				panic(err)
			}
			recs := j.app.Parse(block)
			node.HostWork(p, j.app.ParseCostPerByte*float64(len(block)), 1)
			times.Input += p.Now() - t0
			j.trace.add(nodeIdx, obs.StageMapInput, t0, p.Now())
			if dead() {
				inBufs.Release(1)
				j.sched.abandon(t, nodeIdx)
				stageQ.Close()
				return
			}
			stageQ.Put(p, mapChunk{task: t, records: recs, bytes: int64(len(block))})
		}
	}

	stage := func(p *sim.Proc) {
		for {
			c, ok := stageQ.Get(p)
			if !ok {
				kernelQ.Close()
				return
			}
			if dead() {
				inBufs.Release(1)
				j.sched.abandon(c.task, nodeIdx)
				continue
			}
			t0 := p.Now()
			ctx.EnqueueWrite(p, c.bytes)
			times.Stage += p.Now() - t0
			j.trace.add(nodeIdx, obs.StageMapStage, t0, p.Now())
			kernelQ.Put(p, c)
		}
	}

	kernel := func(p *sim.Proc) {
		coll := newCollector(j.app, cfg)
		for {
			c, ok := kernelQ.Get(p)
			if !ok {
				retrQ.Close()
				return
			}
			if dead() {
				inBufs.Release(1)
				j.sched.abandon(c.task, nodeIdx)
				continue
			}
			outBufs.Acquire(p, 1)
			t0 := p.Now()
			oc := j.execMapKernel(p, ctx, coll, c)
			times.Kernel += p.Now() - t0
			j.trace.add(nodeIdx, obs.StageMapKernel, t0, p.Now())
			j.traceAttempt(nodeIdx, c.task.attempt, c.task.spec, t0, p.Now())
			inBufs.Release(1)
			if dead() {
				outBufs.Release(1)
				j.sched.abandon(c.task, nodeIdx)
				continue
			}
			if cfg.FaultInjector != nil && cfg.FaultInjector(c.task.payload.file.FileName, c.task.payload.idx, c.task.attempt) {
				// Task failure: discard the attempt's output (it never
				// reached the durable partitioning stage) and reschedule
				// the split. The wasted read/compute time stays charged.
				outBufs.Release(1)
				retry(c.task)
				continue
			}
			retrQ.Put(p, oc)
		}
	}

	retrieve := func(p *sim.Proc) {
		for {
			oc, ok := retrQ.Get(p)
			if !ok {
				partQ.Close()
				return
			}
			if dead() {
				outBufs.Release(1)
				j.sched.abandon(oc.task, nodeIdx)
				continue
			}
			t0 := p.Now()
			ctx.EnqueueRead(p, oc.volume)
			times.Retrieve += p.Now() - t0
			j.trace.add(nodeIdx, obs.StageMapRetrieve, t0, p.Now())
			partQ.Put(p, oc)
		}
	}

	partition := func(p *sim.Proc) {
		for {
			oc, ok := partQ.Get(p)
			if !ok {
				return
			}
			if dead() {
				outBufs.Release(1)
				j.sched.abandon(oc.task, nodeIdx)
				continue
			}
			t0 := p.Now()
			j.partitionChunk(p, nodeIdx, oc)
			times.Partition += p.Now() - t0
			j.trace.add(nodeIdx, obs.StageMapPartition, t0, p.Now())
			outBufs.Release(1)
		}
	}

	if cfg.NoOverlap {
		// Ablation: the same work with the stages interlocked end-to-end.
		for {
			t, ok := j.sched.next(p, nodeIdx)
			if !ok {
				break
			}
			if dead() {
				j.sched.abandon(t, nodeIdx)
				break
			}
			t0 := p.Now()
			block, err := j.fs.ReadBlock(p, node, t.payload.file, t.payload.idx)
			if err != nil {
				panic(err)
			}
			recs := j.app.Parse(block)
			node.HostWork(p, j.app.ParseCostPerByte*float64(len(block)), 1)
			times.Input += p.Now() - t0
			c := mapChunk{task: t, records: recs, bytes: int64(len(block))}

			t0 = p.Now()
			ctx.EnqueueWrite(p, c.bytes)
			times.Stage += p.Now() - t0

			coll := newCollector(j.app, cfg)
			t0 = p.Now()
			oc := j.execMapKernel(p, ctx, coll, c)
			times.Kernel += p.Now() - t0
			j.traceAttempt(nodeIdx, t.attempt, t.spec, t0, p.Now())
			if dead() {
				j.sched.abandon(t, nodeIdx)
				break
			}
			if cfg.FaultInjector != nil && cfg.FaultInjector(t.payload.file.FileName, t.payload.idx, t.attempt) {
				retry(t)
				continue
			}

			t0 = p.Now()
			ctx.EnqueueRead(p, oc.volume)
			times.Retrieve += p.Now() - t0

			t0 = p.Now()
			j.partitionChunk(p, nodeIdx, oc)
			times.Partition += p.Now() - t0
		}
		times.Elapsed = p.Now() - start
		return times
	}

	procs := []*sim.Proc{
		env.Spawn(node.Name+"/map-input", input),
		env.Spawn(node.Name+"/map-stage", stage),
		env.Spawn(node.Name+"/map-kernel", kernel),
		env.Spawn(node.Name+"/map-retrieve", retrieve),
		env.Spawn(node.Name+"/map-partition", partition),
	}
	for _, pr := range procs {
		pr.Done().Wait(p)
	}
	times.Elapsed = p.Now() - start
	return times
}

// traceAttempt records the extra trace rows that make recovery work
// visible: "retry" for any attempt beyond the first, "speculative" for
// backup copies.
func (j *job) traceAttempt(nodeIdx, attempt int, spec bool, start, end float64) {
	if spec {
		j.trace.add(nodeIdx, obs.StageSpeculative, start, end)
	} else if attempt > 1 {
		j.trace.add(nodeIdx, obs.StageRetry, start, end)
	}
}

// execMapKernel runs the application's map function over one chunk with the
// configured number of OpenCL threads, harvesting output through the
// collector, then charges the launch to the device.
func (j *job) execMapKernel(p *sim.Proc, ctx *cl.Context, coll collector, c mapChunk) outChunk {
	cfg := j.cfg
	threads := cfg.MapThreads
	if threads <= 0 {
		threads = ctx.Device.Profile.HWThreads
	}
	coll.reset()
	cl.Range(len(c.records), threads, func(tid, lo, hi int) {
		j.app.MapBatch(c.records[lo:hi], coll)
	})
	st := coll.kernelStats()
	st.Ops += j.app.MapCost.OpsPerBatch +
		j.app.MapCost.OpsPerRecord*float64(len(c.records)) +
		j.app.MapCost.OpsPerByte*float64(c.bytes) +
		j.app.MapCost.OpsPerEmit*float64(coll.emits())
	st.Bytes += float64(c.bytes)
	out, extra, decodePerPair := coll.finish()
	st.Add(extra)
	ctx.Launch(p, threads, st)
	return outChunk{task: c.task, out: out, records: len(c.records), volume: out.Bytes(), decodePerPair: decodePerPair}
}

// partitionChunk implements the pipeline's final stage for one chunk: N
// partitioner threads decode the collector output, split it into the global
// partitions, sort each, persist it locally for durability, and push each
// partition to its destination node (§III-A). The split resolves here —
// only once its runs are handed off for delivery — and the hand-off itself
// is atomic (it never parks), so a task is either fully delivered or not at
// all. If a twin attempt already resolved the task, this copy's output is
// discarded.
func (j *job) partitionChunk(p *sim.Proc, nodeIdx int, oc outChunk) {
	cfg := j.cfg
	node := j.cluster.Nodes[nodeIdx]
	nParts := cfg.PartitionsPerNode * len(j.cluster.Nodes)
	n := cfg.PartitionThreads

	// Decode + partition, charged at partitioner-thread parallelism.
	nPairs := oc.out.Len()
	ops := oc.decodePerPair*float64(nPairs) +
		costDecodePerByte*float64(oc.volume) +
		costPartitionPerPair*float64(nPairs)
	// Sort and serialize every non-empty partition, as native.Chunk does.
	var runs []struct {
		g   int
		run *kv.Run
	}
	var stored int64
	bounds := oc.out.PartitionRanges(cfg.Partitioner, nParts)
	for g := 0; g < nParts; g++ {
		lo, hi := bounds[g], bounds[g+1]
		if lo == hi {
			continue
		}
		oc.out.SortRange(lo, hi)
		run := oc.out.RunRange(lo, hi, cfg.Compress)
		ops += sortCost(hi-lo) + costSerializePerByte*float64(run.RawBytes)
		if cfg.Compress {
			ops += costCompressPerByte * float64(run.RawBytes)
		}
		runs = append(runs, struct {
			g   int
			run *kv.Run
		}{g, run})
		stored += run.StoredBytes()
	}
	node.HostWork(p, ops, n)

	if j.deadNodes[nodeIdx] {
		// The node died while partitioning: nothing was delivered.
		j.sched.abandon(oc.task, nodeIdx)
		return
	}
	if !j.sched.resolveFirst(oc.task.id, nodeIdx) {
		// A twin attempt (speculative backup or original) won the race;
		// this copy's output is discarded.
		return
	}
	if oc.task.spec {
		j.counters.speculativeWins.Inc()
	}

	// Conservation ledger: this attempt's output is the one that counts.
	// (A task re-executed after a node death resolves again, so under node
	// failures these map-side totals exceed the dataset; the store-side
	// ledger stays exact through the dup/dead/lost counters.)
	cons := &j.counters.conserv
	cons.MapRecordsIn.Add(int64(oc.records))
	cons.MapPairsOut.Add(int64(nPairs))
	for _, r := range runs {
		cons.PartRecords.Add(int64(r.run.Records))
		cons.PartRawBytes.Add(r.run.RawBytes)
		cons.PartStoredBytes.Add(r.run.StoredBytes())
	}
	cons.PartRuns.Add(int64(len(runs)))

	// Durability: the node's map output is persisted locally in addition
	// to the copy that feeds intermediate-data processing (§III-E). The
	// write is write-behind — the OS page cache absorbs it off the
	// critical path, though it still occupies the disk.
	p.Env().Spawn(node.Name+"/durability", func(q *sim.Proc) {
		node.Disk.Write(q, stored)
	})

	// Hand each Partition to the async sender (or the local cache).
	for _, r := range runs {
		j.deliver(p, nodeIdx, oc.task.id, r.g, r.run)
	}
}
