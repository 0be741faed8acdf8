// Package hadoop is a structural model of Hadoop 1.x (the paper compares
// against stable 1.0.x), faithful in the properties the paper's analysis
// rests on and deliberately lacking Glasswing's three advantages:
//
//   - coarse-grained parallelism only: a map task is a single Java thread
//     that reads, maps, sorts and spills sequentially — overlap comes only
//     from running many tasks per node, never within a task;
//   - a pull-based shuffle: reducers fetch map output after maps publish it,
//     paying the extra latency the paper attributes to pulling (§IV-A1);
//   - JVM execution costs: a per-record object/serialization overhead and a
//     compute multiplier relative to the OpenCL kernels.
//
// The same application kernels (core.App) run here, so outputs are
// comparable bit-for-bit with Glasswing's; only the execution model and the
// charged costs differ. Speculative execution is disabled and the
// mapper/reducer counts are assumed pre-swept, as in the paper's setup.
package hadoop

import (
	"fmt"
	"sort"

	"glasswing/internal/core"
	"glasswing/internal/dfs"
	"glasswing/internal/hw"
	"glasswing/internal/kv"
	"glasswing/internal/sim"
)

// JVM and framework cost constants. Calibration targets the paper's
// single-node bands: Glasswing CPU is >= 1.2x faster than Hadoop across the
// five applications (§IV-A conclusions).
const (
	// javaComputeFactor multiplies application kernel ops (interpreted /
	// JIT / bounds-checked Java vs. tuned OpenCL C).
	javaComputeFactor = 1.8
	// javaPerRecordOps is charged per record or emitted pair: Writable
	// boxing, object churn, stream framing.
	javaPerRecordOps = 250
	// javaReadPerByte is the Java stream-decode cost of input bytes.
	javaReadPerByte = 0.8
	// taskStartupSecs is per-task launch cost (JVM reuse enabled).
	taskStartupSecs = 0.12
	// heartbeatSecs is the TaskTracker heartbeat: tasks are handed out on
	// heartbeat boundaries, adding scheduling latency per wave.
	heartbeatSecs = 0.35
	// jobStartupSecs covers job submission, InputFormat splits, JobTracker
	// setup — far heavier than Glasswing's library start.
	jobStartupSecs = 2.2
	// shuffleSlowstart is the completed-maps fraction before reducers
	// begin fetching.
	shuffleSlowstart = 0.05
	// sortFactor is io.sort.factor: the reducer merges fetched runs when
	// more than this many accumulate.
	sortFactor = 10
)

// Config mirrors the Hadoop job knobs the paper tuned.
type Config struct {
	Input             []string
	OutputPath        string
	OutputReplication int
	// MapSlots and ReduceSlots are per-node concurrent task slots; the
	// defaults occupy all hardware threads, matching the paper's sweep.
	MapSlots    int
	ReduceSlots int
	// Reducers is the total number of reduce tasks (0 = 4 per node).
	Reducers int
	// UseCombiner runs App.Combine over each spill.
	UseCombiner bool
	// Speculative enables speculative execution: once no pending map
	// tasks remain, idle slots re-execute in-flight tasks that have run
	// noticeably longer than the median, and the first copy to finish
	// wins. The paper disables it ("the DAS cluster is extremely
	// stable"); it exists here for the straggler experiments.
	Speculative bool
	// Partitioner overrides hash partitioning.
	Partitioner func(key []byte, n int) int
	// SortBuffer is io.sort.mb in bytes (map-side spill threshold).
	SortBuffer int64
}

func (c Config) withDefaults(cpu hw.DeviceProfile) Config {
	if c.OutputPath == "" {
		c.OutputPath = "hadoop-out"
	}
	if c.MapSlots == 0 {
		c.MapSlots = cpu.HWThreads
	}
	if c.ReduceSlots == 0 {
		c.ReduceSlots = cpu.HWThreads / 2
	}
	if c.Partitioner == nil {
		c.Partitioner = kv.Partition
	}
	if c.SortBuffer == 0 {
		c.SortBuffer = 100 << 20
	}
	return c
}

// Runtime binds Hadoop to a cluster and file system (its native HDFS client
// is Java, so JNI mode must be off on the DFS — Hadoop pays Java costs here
// instead).
type Runtime struct {
	Cluster *hw.Cluster
	FS      dfs.FS
	// Prelude mirrors DistributedCache distribution before the job.
	Prelude func(p *sim.Proc, c *hw.Cluster)
}

// Result reports a Hadoop job.
type Result struct {
	App     string
	Nodes   int
	JobTime float64
	// MapPhase is submission until the last map task finished.
	MapPhase float64
	// ShuffleDrain is the post-map time reducers still spent fetching and
	// merging before reduce functions could run.
	ShuffleDrain float64
	// ReducePhase is the remaining time until the last reducer committed.
	ReducePhase float64
	// SpeculativeWasted counts duplicate map attempts that lost the race.
	SpeculativeWasted int

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

// mapOutput is one map task's partitioned, sorted output, published on the
// mapper's local disk for reducers to pull.
type mapOutput struct {
	node *hw.Node
	runs map[int]*kv.Run // reducer id -> run
}

type job struct {
	cluster *hw.Cluster
	fs      dfs.FS
	app     *core.App
	cfg     Config

	tasks     []taskRef
	state     []taskState
	started   []float64
	runningOn []*hw.Node
	durations []float64
	completed []*mapOutput
	doneCount int
	mapsDone  *sim.Signal
	outputs   map[int][]kv.Pair
	// SpeculativeWasted counts duplicate attempts whose original won.
	wasted int
}

type taskState int8

const (
	taskPending taskState = iota
	taskRunning
	taskDuplicated
	taskDone
)

type taskRef struct {
	file *dfs.File
	idx  int
}

// Run executes app as a Hadoop job and returns the result.
func Run(rt *Runtime, app *core.App, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults(rt.Cluster.Nodes[0].CPUProfile)
	if cfg.Reducers == 0 {
		cfg.Reducers = 4 * len(rt.Cluster.Nodes)
	}
	if app.MapBatch == nil || app.Parse == nil {
		return nil, fmt.Errorf("hadoop: app %q needs Parse and MapBatch", app.Name)
	}
	if len(cfg.Input) == 0 {
		return nil, fmt.Errorf("hadoop: no input files")
	}
	env := rt.Cluster.Env
	j := &job{
		cluster:  rt.Cluster,
		fs:       rt.FS,
		app:      app,
		cfg:      cfg,
		mapsDone: sim.NewSignal(env),
		outputs:  make(map[int][]kv.Pair),
	}
	for _, name := range cfg.Input {
		f, err := rt.FS.Open(name)
		if err != nil {
			return nil, err
		}
		for idx := range f.Blocks {
			j.tasks = append(j.tasks, taskRef{file: f, idx: idx})
		}
	}
	j.state = make([]taskState, len(j.tasks))
	j.started = make([]float64, len(j.tasks))
	j.runningOn = make([]*hw.Node, len(j.tasks))

	res := &Result{App: app.Name, Nodes: len(rt.Cluster.Nodes), outputs: j.outputs}

	env.Spawn("jobtracker", func(p *sim.Proc) {
		jobStart := p.Now()
		p.Delay(jobStartupSecs)
		if rt.Prelude != nil {
			rt.Prelude(p, rt.Cluster)
		}

		// Map slots across the cluster.
		var slotProcs []*sim.Proc
		for _, node := range rt.Cluster.Nodes {
			for s := 0; s < cfg.MapSlots; s++ {
				node := node
				pr := env.Spawn(fmt.Sprintf("%s/mapslot%d", node.Name, s), func(q *sim.Proc) {
					j.mapSlotLoop(q, node)
				})
				slotProcs = append(slotProcs, pr)
			}
		}

		// Reducers start with the slowstart delay, then fetch as map
		// outputs are published.
		reduceSlots := sim.NewResource(env, cfg.ReduceSlots*len(rt.Cluster.Nodes))
		var redProcs []*sim.Proc
		var reduceComputeStart []float64
		reduceComputeStart = make([]float64, cfg.Reducers)
		for r := 0; r < cfg.Reducers; r++ {
			r := r
			node := rt.Cluster.Nodes[r%len(rt.Cluster.Nodes)]
			pr := env.Spawn(fmt.Sprintf("%s/reducer%d", node.Name, r), func(q *sim.Proc) {
				reduceComputeStart[r] = j.reducerTask(q, node, r, reduceSlots)
			})
			redProcs = append(redProcs, pr)
		}

		// The map phase ends when every task has a winning attempt; with
		// speculation, losing duplicates may still be draining.
		j.mapsDone.Wait(p)
		res.MapPhase = p.Now() - jobStart
		mapsDoneAt := p.Now()
		_ = slotProcs

		for _, pr := range redProcs {
			pr.Done().Wait(p)
		}
		res.JobTime = p.Now() - jobStart
		res.SpeculativeWasted = j.wasted
		lastStart := mapsDoneAt
		for _, t := range reduceComputeStart {
			lastStart = max(lastStart, t)
		}
		res.ShuffleDrain = lastStart - mapsDoneAt
		res.ReducePhase = p.Now() - lastStart
	})
	env.Run()
	return res, nil
}

// mapSlotLoop pulls map tasks until none remain. Task handout happens on
// heartbeat boundaries; locality is approximated by letting every slot take
// the oldest task (with full input replication locality is even anyway, and
// the paper ensured well-balanced executions). With speculation, slots that
// run dry re-execute laggard in-flight tasks.
func (j *job) mapSlotLoop(p *sim.Proc, node *hw.Node) {
	for {
		idx, ok := j.nextTask(node)
		if !ok {
			if !j.cfg.Speculative {
				return
			}
			idx = j.pickSpeculative(p.Now(), node)
			if idx < 0 {
				if j.allMapsDone() {
					return
				}
				// Wait a heartbeat for a laggard to qualify.
				p.Delay(heartbeatSecs)
				continue
			}
		}
		p.Delay(heartbeatSecs / 2)
		p.Delay(taskStartupSecs)
		out := j.mapTask(p, node, j.tasks[idx])
		if j.state[idx] == taskDone {
			// The other copy won; discard this attempt's output.
			j.wasted++
			continue
		}
		j.state[idx] = taskDone
		j.doneCount++
		j.durations = append(j.durations, p.Now()-j.started[idx])
		j.completed = append(j.completed, out)
		if j.doneCount == len(j.tasks) {
			// Every task has a winning copy: the map phase is over, even
			// if losing duplicates are still draining (real Hadoop kills
			// them; here they finish and are discarded).
			j.mapsDone.Fire(nil)
		}
	}
}

// nextTask claims a pending task, preferring local blocks.
func (j *job) nextTask(node *hw.Node) (int, bool) {
	for i, t := range j.tasks {
		if j.state[i] == taskPending && j.fs.LocalTo(t.file, t.idx, node) {
			j.state[i] = taskRunning
			j.started[i] = node.Env().Now()
			j.runningOn[i] = node
			return i, true
		}
	}
	for i := range j.tasks {
		if j.state[i] == taskPending {
			j.state[i] = taskRunning
			j.started[i] = node.Env().Now()
			j.runningOn[i] = node
			return i, true
		}
	}
	return -1, false
}

// allMapsDone reports whether every map task has completed.
func (j *job) allMapsDone() bool {
	for i := range j.tasks {
		if j.state[i] != taskDone {
			return false
		}
	}
	return true
}

// pickSpeculative selects an in-flight task that has been running far
// longer than the median completed task (Hadoop's laggard heuristic),
// skipping tasks already duplicated and tasks running on this very node
// (re-running on the straggler itself would not help).
func (j *job) pickSpeculative(now float64, node *hw.Node) int {
	if len(j.durations) == 0 {
		return -1
	}
	if len(j.durations) < 3 {
		return -1 // too few samples for a stable laggard estimate
	}
	med := medianOf(j.durations)
	best, bestElapsed := -1, 0.0
	for i := range j.tasks {
		if j.state[i] != taskRunning || j.runningOn[i] == node {
			continue
		}
		elapsed := now - j.started[i]
		if elapsed > 1.8*med && elapsed > bestElapsed {
			best, bestElapsed = i, elapsed
		}
	}
	if best >= 0 {
		j.state[best] = taskDuplicated
	}
	return best
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// mapTask executes one map task: read, map, sort, spill — all sequential
// within the task (single Java thread) — and returns its output for the
// caller to publish.
func (j *job) mapTask(p *sim.Proc, node *hw.Node, t taskRef) *mapOutput {
	app, cfg := j.app, j.cfg
	block, err := j.fs.ReadBlock(p, node, t.file, t.idx)
	if err != nil {
		panic(err)
	}
	node.HostWork(p, javaReadPerByte*float64(len(block)), 1)
	recs := app.Parse(block)
	node.HostWork(p, app.ParseCostPerByte*javaComputeFactor*float64(len(block)), 1)

	// Map over all records into the sort buffer.
	var buf kv.Batch
	app.MapBatch(recs, &buf)
	emits := buf.Len()
	mapOps := app.MapCost.OpsPerRecord*float64(len(recs)) +
		app.MapCost.OpsPerByte*float64(len(block)) +
		app.MapCost.OpsPerEmit*float64(emits)
	mapOps = mapOps*javaComputeFactor + javaPerRecordOps*float64(len(recs)+emits)
	node.HostWork(p, mapOps, 1)

	// Sort + spill, partitioned by reducer. Spill count follows the sort
	// buffer; each spill is sorted, combined (optionally) and written.
	spills := int(buf.Bytes()/cfg.SortBuffer) + 1
	out := &mapOutput{node: node, runs: make(map[int]*kv.Run)}
	perReducer := make(map[int]*kv.Buffer)
	for _, pr := range buf.Pairs(nil) {
		r := cfg.Partitioner(pr.Key, cfg.Reducers)
		b := perReducer[r]
		if b == nil {
			b = &kv.Buffer{}
			perReducer[r] = b
		}
		b.Add(pr)
	}
	sortOps := (sortCostJava(buf.Len()) + costSerializeJava*float64(buf.Bytes())) * float64(spills)
	node.HostWork(p, sortOps, 1)
	var spillBytes int64
	for r := 0; r < cfg.Reducers; r++ {
		b, ok := perReducer[r]
		if !ok {
			continue
		}
		b.Sort()
		pairs := b.Pairs
		if cfg.UseCombiner && j.app.Combine != nil {
			pairs = core.CombineSorted(j.app, pairs)
			node.HostWork(p, float64(b.Len())*javaPerRecordOps/4, 1)
		}
		run := kv.NewRun(pairs, false)
		out.runs[r] = run
		spillBytes += run.StoredBytes()
	}
	node.Disk.Write(p, spillBytes)
	if spills > 1 {
		// Extra spill merge pass: read + merge + rewrite.
		node.Disk.Read(p, spillBytes)
		node.HostWork(p, mergeCostJava(buf.Len(), spills), 1)
		node.Disk.Write(p, spillBytes)
	}
	return out
}

// reducerTask pulls its partition of every map output, merges, reduces and
// writes the final file. It returns the time reduce computation started
// (shuffle fully drained).
func (j *job) reducerTask(p *sim.Proc, node *hw.Node, r int, slots *sim.Resource) float64 {
	// Slowstart: reducers are scheduled a bit after the job begins.
	p.Delay(jobStartupSecs * shuffleSlowstart)
	slots.Acquire(p, 1)
	defer slots.Release(1)
	p.Delay(taskStartupSecs)

	var fetched []*kv.Run
	var fetchedPairs int
	next := 0
	for {
		for next < len(j.completed) {
			out := j.completed[next]
			next++
			run, ok := out.runs[r]
			if !ok {
				continue
			}
			// Pull: read the mapper's disk, cross the network.
			out.node.Disk.Read(p, run.StoredBytes())
			j.cluster.Transfer(p, out.node, node, run.StoredBytes())
			fetched = append(fetched, run)
			fetchedPairs += run.Records
			if len(fetched) > sortFactor {
				// Intermediate merge to keep the final fan-in bounded; at
				// these volumes Hadoop's shuffle merges in memory.
				node.HostWork(p, mergeCostJava(fetchedPairs, len(fetched)), 1)
				fetched = []*kv.Run{kv.MergeRuns(fetched, false)}
			}
		}
		if j.mapsDone.Fired() && next >= len(j.completed) {
			break
		}
		// Poll for newly published outputs on the heartbeat cadence.
		p.Delay(heartbeatSecs / 2)
	}

	// Final merge + group + reduce.
	node.HostWork(p, mergeCostJava(fetchedPairs, len(fetched)+1), 1)
	iters := make([]kv.Iterator, len(fetched))
	for i, run := range fetched {
		iters[i] = run.Iter()
	}
	computeStart := p.Now()
	gi := kv.NewGroupIter(kv.Merge(iters...))
	var red kv.Batch
	var ops float64
	var nvals int
	for {
		g, ok := gi.Next()
		if !ok {
			break
		}
		nvals += len(g.Values)
		ops += j.app.ReduceCost.OpsPerRecord +
			j.app.ReduceCost.OpsPerValue*float64(len(g.Values)) +
			j.app.ReduceCost.OpsPerByte*float64(g.Bytes())
		if j.app.ReduceBatch == nil {
			for _, v := range g.Values {
				red.AppendKV(g.Key, v)
			}
			continue
		}
		before := red.Len()
		j.app.ReduceBatch(g.Key, g.Values, &red)
		ops += j.app.ReduceCost.OpsPerEmit * float64(red.Len()-before)
	}
	out := red.Pairs(nil)
	node.HostWork(p, ops*javaComputeFactor+javaPerRecordOps*float64(nvals+len(out)), 1)
	blob := kv.Marshal(out)
	node.HostWork(p, costSerializeJava*float64(len(blob)), 1)
	if _, err := j.fs.Write(p, node, fmt.Sprintf("%s-%05d", j.cfg.OutputPath, r), blob, j.cfg.OutputReplication); err != nil {
		panic(err)
	}
	j.outputs[r] = out
	return computeStart
}
