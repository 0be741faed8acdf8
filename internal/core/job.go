package core

import (
	"fmt"
	"sort"
	"strconv"

	"glasswing/internal/cl"
	"glasswing/internal/dfs"
	"glasswing/internal/hw"
	"glasswing/internal/kv"
	"glasswing/internal/obs"
	"glasswing/internal/sim"
)

// Runtime binds Glasswing to a simulated cluster and file system. Like the
// paper's deployment, the framework is a library: no daemons, a job
// coordinator on a master that assigns splits with file affinity, and one
// pipeline instantiation per slave node.
type Runtime struct {
	Cluster *hw.Cluster
	FS      dfs.FS
	// Prelude, if set, runs on the master before the map phase starts
	// (KM uses it to broadcast the cluster centers, the Glasswing analog
	// of Hadoop's DistributedCache).
	Prelude func(p *sim.Proc, c *hw.Cluster)
}

// Result reports a finished job: the paper's headline metrics plus the
// per-stage breakdowns behind Tables II/III and Figs 4/5.
type Result struct {
	App   string
	Nodes int

	// JobTime is total virtual execution time in seconds.
	JobTime float64
	// MapElapsed is the map-pipeline phase (max over nodes).
	MapElapsed float64
	// MergeDelay is the §III-B metric: merging time after the map phase
	// completes and before reduction starts (max over nodes).
	MergeDelay float64
	// ReduceElapsed is the reduce-pipeline phase (max over nodes).
	ReduceElapsed float64

	// MapStages and ReduceStages are per-node busy-time breakdowns.
	MapStages    []StageTimes
	ReduceStages []StageTimes

	// IntermediateBytes is the stored intermediate volume at reduce start.
	IntermediateBytes int64
	// OutputPairs counts final key/value pairs.
	OutputPairs int
	// TaskRetries counts map task attempts that failed and were
	// re-executed (§III-E fault tolerance); it mirrors Stats.MapRetries.
	TaskRetries int
	// Stats breaks down all fault-tolerance activity (§III-E).
	Stats JobStats
	// Trace is the activity timeline (nil unless Config.Trace).
	Trace *Trace

	outputs map[int][]kv.Pair
}

// Output returns the job's final pairs in partition order (for TeraSort
// this concatenation is totally ordered).
func (r *Result) Output() []kv.Pair {
	parts := make([]int, 0, len(r.outputs))
	for g := range r.outputs {
		parts = append(parts, g)
	}
	sort.Ints(parts)
	var out []kv.Pair
	for _, g := range parts {
		out = append(out, r.outputs[g]...)
	}
	return out
}

// MaxMapStage returns the per-stage maxima across nodes — the numbers the
// paper's breakdown tables report for a single-node run.
func (r *Result) MaxMapStage() StageTimes { return maxStages(r.MapStages) }

// MaxReduceStage is the reduce-pipeline analog of MaxMapStage.
func (r *Result) MaxReduceStage() StageTimes { return maxStages(r.ReduceStages) }

func maxStages(all []StageTimes) StageTimes {
	var m StageTimes
	for _, s := range all {
		m.Input = max(m.Input, s.Input)
		m.Stage = max(m.Stage, s.Stage)
		m.Kernel = max(m.Kernel, s.Kernel)
		m.Retrieve = max(m.Retrieve, s.Retrieve)
		m.Partition = max(m.Partition, s.Partition)
		m.Elapsed = max(m.Elapsed, s.Elapsed)
	}
	return m
}

// pullItem is intermediate data awaiting reducer-side fetch (PullShuffle
// ablation).
type pullItem struct {
	src   int
	local int
	task  taskID
	run   *kv.Run
}

// ownerRef locates a global partition's store: the manager of node and the
// local index within it. Node death reassigns ownership to a survivor.
type ownerRef struct {
	node  int
	local int
}

// job is the in-flight state of one MapReduce execution.
type job struct {
	cluster  *hw.Cluster
	fs       dfs.FS
	app      *App
	cfg      Config
	ctxs     []*cl.Context
	managers []*interManager
	pending  map[int][]pullItem
	outputs  map[int][]kv.Pair
	counters *jobCounters
	failErr  error
	trace    *Trace
	sched    *taskScheduler[splitRef]
	redSched *taskScheduler[reduceRef]

	// owners maps each global partition to the node/store currently
	// responsible for it; killNode rewires entries of a dead node.
	owners    []ownerRef
	deadNodes []bool
	// deliveredTo records, per resolved map task, the set of owner nodes
	// its output reached; deliveredOrder keeps deterministic iteration.
	deliveredTo    map[taskID]map[int]bool
	deliveredOrder []taskID
	// sending/sendingDest/sendingActive track each sender's in-flight
	// transfer so killNode can account for data lost on the wire.
	sending       []taskID
	sendingDest   []int
	sendingActive []bool
	mapDone       bool
	rrNode        int

	// senders deliver intermediate Partitions asynchronously so the
	// partitioning stage never blocks on the network: communication
	// overlaps computation (§I, the pipeline's core claim).
	senders []*sim.Queue[pushMsg]
}

// pushMsg is one Partition en route to its destination node.
type pushMsg struct {
	dest  int
	local int
	task  taskID
	run   *kv.Run
}

// mapTaskID names a split across all of its attempts.
func mapTaskID(sp splitRef) taskID {
	return taskID(sp.file.FileName + "#" + strconv.Itoa(sp.idx))
}

// senderLoop drains one node's push queue over the fabric. Traffic from or
// to a dead node is dropped: killNode purges the queues and re-executes the
// affected tasks, and these checks catch transfers already in flight.
func (j *job) senderLoop(p *sim.Proc, nodeIdx int) {
	for {
		m, ok := j.senders[nodeIdx].Get(p)
		if !ok {
			return
		}
		if j.deadNodes[nodeIdx] || j.deadNodes[m.dest] {
			j.counters.conserv.StoreDeadDropped.Add(int64(m.run.Records))
			continue
		}
		j.sending[nodeIdx], j.sendingDest[nodeIdx], j.sendingActive[nodeIdx] = m.task, m.dest, true
		j.cluster.Transfer(p, j.cluster.Nodes[nodeIdx], j.cluster.Nodes[m.dest], m.run.StoredBytes())
		j.sendingActive[nodeIdx] = false
		if j.deadNodes[nodeIdx] || j.deadNodes[m.dest] {
			j.counters.conserv.StoreDeadDropped.Add(int64(m.run.Records))
			continue
		}
		j.managers[m.dest].addRun(m.local, m.task, m.run)
	}
}

// deliver routes one partitioned run of task id to global partition g's
// current owner and records the delivery for node-loss recovery.
func (j *job) deliver(p *sim.Proc, src int, id taskID, g int, run *kv.Run) {
	own := j.owners[g]
	j.noteDelivered(id, own.node)
	if own.node == src {
		j.managers[own.node].addRun(own.local, id, run)
		return
	}
	if j.cfg.PullShuffle {
		j.pending[own.node] = append(j.pending[own.node], pullItem{src: src, local: own.local, task: id, run: run})
		return
	}
	j.senders[src].Put(p, pushMsg{dest: own.node, local: own.local, task: id, run: run})
}

func (j *job) noteDelivered(id taskID, node int) {
	m := j.deliveredTo[id]
	if m == nil {
		m = make(map[int]bool)
		j.deliveredTo[id] = m
		j.deliveredOrder = append(j.deliveredOrder, id)
	}
	m[node] = true
}

// pickLiveNode returns a live node index, round-robin for balance.
func (j *job) pickLiveNode() int {
	n := len(j.deadNodes)
	for i := 0; i < n; i++ {
		j.rrNode = (j.rrNode + 1) % n
		if !j.deadNodes[j.rrNode] {
			return j.rrNode
		}
	}
	return 0
}

// killNode applies one scheduled node failure (§III-E: "a failing node
// loses its intermediate data, so its completed map tasks are re-executed").
// It runs in scheduler-callback context, so it must never park:
//
//   - the node's outbound queue, its in-flight transfer, and live nodes'
//     traffic destined to it are dropped;
//   - its partitions are adopted (empty) by survivors and ownership rewired;
//   - every resolved map task whose output is now incomplete re-executes on
//     a surviving node;
//   - the schedulers stop assigning the node work, and its pipeline stages
//     drain cooperatively at their next boundary.
//
// Failures after the map phase, of an already-dead node, or that would kill
// the last live node are skipped. "After the map phase" includes remaining
// == 0 with mapDone not yet set: once the last split resolves the phase is
// over, even if the master's wake-up event has not fired yet — the input
// stages may already have exited, so re-opened work could strand.
func (j *job) killNode(d int) {
	if j.mapDone || j.sched.remaining == 0 || d < 0 || d >= len(j.deadNodes) || j.deadNodes[d] {
		return
	}
	live := 0
	for i := range j.deadNodes {
		if !j.deadNodes[i] && i != d {
			live++
		}
	}
	if live == 0 {
		return
	}
	j.deadNodes[d] = true
	j.counters.nodesLost.Inc()
	j.trace.mark(d, obs.InstantDeath, j.cluster.Env.Now())

	var rexOrder []taskID
	rexSeen := make(map[taskID]bool)
	addRex := func(id taskID) {
		if !rexSeen[id] {
			rexSeen[id] = true
			rexOrder = append(rexOrder, id)
		}
	}
	// The dead node's queued outbound traffic and in-flight transfer die
	// with it.
	for _, m := range j.senders[d].Filter(func(pushMsg) bool { return false }) {
		j.counters.conserv.StoreDeadDropped.Add(int64(m.run.Records))
		addRex(m.task)
	}
	if j.sendingActive[d] {
		addRex(j.sending[d])
	}
	// Live nodes' traffic destined to the dead node is undeliverable.
	for s := range j.senders {
		if s == d {
			continue
		}
		for _, m := range j.senders[s].Filter(func(m pushMsg) bool { return m.dest != d }) {
			j.counters.conserv.StoreDeadDropped.Add(int64(m.run.Records))
			addRex(m.task)
		}
		if j.sendingActive[s] && j.sendingDest[s] == d {
			addRex(j.sending[s])
		}
	}
	// Output already stored at the dead node is lost.
	for _, id := range j.deliveredOrder {
		if j.deliveredTo[id][d] {
			addRex(id)
		}
	}

	// Survivors adopt the dead node's partitions (empty — re-executed
	// tasks rebuild their content) and ownership rewires before any
	// re-executed task can deliver.
	for _, ps := range j.managers[d].parts {
		t := j.pickLiveNode()
		local := j.managers[t].adoptPart(j.cluster.Env, ps.global)
		j.owners[ps.global] = ownerRef{node: t, local: local}
	}
	j.managers[d].markDead()

	for _, id := range rexOrder {
		delete(j.deliveredTo[id], d)
		if j.sched.reexecute(id) {
			j.counters.mapRecoveries.Inc()
		}
	}
	j.sched.markDead(d)
}

// validateFaultConfig rejects inconsistent fault-injection settings.
func validateFaultConfig(cfg Config, nodes int) error {
	for _, nf := range cfg.NodeFailures {
		if nf.Node < 0 || nf.Node >= nodes {
			return fmt.Errorf("core: NodeFailures names node %d of %d", nf.Node, nodes)
		}
		if nf.At < 0 {
			return fmt.Errorf("core: NodeFailures time %g is negative", nf.At)
		}
	}
	if len(cfg.NodeFailures) > 0 && cfg.PullShuffle {
		return fmt.Errorf("core: NodeFailures is incompatible with PullShuffle")
	}
	if cfg.SpeculativeSlowdown < 0 {
		return fmt.Errorf("core: SpeculativeSlowdown %g is negative", cfg.SpeculativeSlowdown)
	}
	return nil
}

// Run executes app under cfg on the runtime's cluster and returns the
// result. It drives the simulation to completion; the environment must not
// already be running.
func Run(rt *Runtime, app *App, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if app.MapBatch == nil || app.Parse == nil {
		return nil, fmt.Errorf("core: app %q needs Parse and MapBatch", app.Name)
	}
	if len(cfg.Input) == 0 {
		return nil, fmt.Errorf("core: no input files")
	}
	if err := validateFaultConfig(cfg, len(rt.Cluster.Nodes)); err != nil {
		return nil, err
	}
	env := rt.Cluster.Env
	n := len(rt.Cluster.Nodes)
	j := &job{
		cluster:       rt.Cluster,
		fs:            rt.FS,
		app:           app,
		cfg:           cfg,
		pending:       make(map[int][]pullItem),
		outputs:       make(map[int][]kv.Pair),
		deadNodes:     make([]bool, n),
		deliveredTo:   make(map[taskID]map[int]bool),
		sending:       make([]taskID, n),
		sendingDest:   make([]int, n),
		sendingActive: make([]bool, n),
	}
	if cfg.Trace {
		j.trace = &Trace{}
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	j.counters = newJobCounters(reg)
	for i, node := range rt.Cluster.Nodes {
		dev := cfg.Device
		if len(cfg.DevicePerNode) > 0 {
			if len(cfg.DevicePerNode) != n {
				return nil, fmt.Errorf("core: DevicePerNode has %d entries for %d nodes",
					len(cfg.DevicePerNode), n)
			}
			dev = cfg.DevicePerNode[i]
		}
		if dev < 0 || dev >= len(node.Devices) {
			return nil, fmt.Errorf("core: node %d has no device %d", i, dev)
		}
		ctx := cl.NewContext(node.Devices[dev])
		if j.trace != nil {
			// cl command-queue operations land on the same timeline as the
			// pipeline rows ("cl/write", "cl/kernel", "cl/read" tracks).
			ctx.Sink, ctx.Node = j.trace, i
		}
		j.ctxs = append(j.ctxs, ctx)
		mgr := newInterManager(env, node, cfg, i*cfg.PartitionsPerNode)
		mgr.nodeIdx = i
		mgr.trace = j.trace
		mgr.conserv = &j.counters.conserv
		j.managers = append(j.managers, mgr)
	}
	for g := 0; g < n*cfg.PartitionsPerNode; g++ {
		j.owners = append(j.owners, ownerRef{node: g / cfg.PartitionsPerNode, local: g % cfg.PartitionsPerNode})
	}
	splits, err := j.assignSplits()
	if err != nil {
		return nil, err
	}
	if err := j.checkDeviceMemory(splits); err != nil {
		return nil, err
	}
	j.sched = newTaskScheduler[splitRef](env, n, cfg.StaticScheduling, cfg.SpeculativeSlowdown, cfg.MaxTaskAttempts)
	for node, per := range splits {
		for _, sp := range per {
			j.sched.addTask(node, mapTaskID(sp), sp)
		}
	}

	res := &Result{
		App:          app.Name,
		Nodes:        n,
		MapStages:    make([]StageTimes, n),
		ReduceStages: make([]StageTimes, n),
		outputs:      j.outputs,
	}

	env.Spawn("glasswing-master", func(p *sim.Proc) {
		jobStart := p.Now()
		p.Delay(jobStartup)
		if rt.Prelude != nil {
			rt.Prelude(p, rt.Cluster)
		}
		for _, m := range j.managers {
			m.start(env)
		}

		// Map phase: one pipeline per node plus one async sender per
		// node, all concurrent.
		mapStart := p.Now()
		var sendProcs []*sim.Proc
		for i := range rt.Cluster.Nodes {
			i := i
			j.senders = append(j.senders, sim.NewQueue[pushMsg](env, 0))
			sendProcs = append(sendProcs, env.Spawn(fmt.Sprintf("node%03d/sender", i), func(q *sim.Proc) {
				j.senderLoop(q, i)
			}))
			env.Spawn(fmt.Sprintf("node%03d/map", i), func(q *sim.Proc) {
				res.MapStages[i] = j.runMapPipeline(q, i)
			})
		}
		// Node failures are scheduled only after the senders and pipelines
		// exist; a failure instant that already passed during startup fires
		// immediately.
		for _, nf := range cfg.NodeFailures {
			nf := nf
			at := mapStart + nf.At
			if at < p.Now() {
				at = p.Now()
			}
			env.At(at, func() { j.killNode(nf.Node) })
		}
		// The map phase completes when every split is resolved and no
		// scheduled node failure can re-open work — not when the last
		// pipeline drains: a loser attempt (its twin already resolved the
		// task, or its node died) keeps draining in the background like a
		// killed Hadoop attempt, without gating the job. In a fault-free
		// run the last resolve coincides with the last pipeline's exit, so
		// the timeline is unchanged.
		j.sched.awaitDone(p)
		j.mapDone = true
		res.MapElapsed = p.Now() - mapStart
		for _, m := range j.managers {
			m.mapDoneAt = p.Now()
		}
		// In-flight pushes drain during the merge phase (the merge phase
		// "continues until it has received all data sent to it by map
		// pipeline instantiations at other nodes", §III).
		for _, q := range j.senders {
			q.Close()
		}
		for _, pr := range sendProcs {
			pr.Done().Wait(p)
		}

		// Pull-mode shuffle fetch (ablation): reducers fetch their
		// partitions only now, where push mode delivered them during map.
		if cfg.PullShuffle {
			var fetchers []*sim.Proc
			for dest, items := range j.pending {
				dest, items := dest, items
				pr := env.Spawn(fmt.Sprintf("node%03d/fetch", dest), func(q *sim.Proc) {
					for _, it := range items {
						j.cluster.Transfer(q, j.cluster.Nodes[it.src], j.cluster.Nodes[dest], it.run.StoredBytes())
						j.managers[dest].addRun(it.local, it.task, it.run)
					}
				})
				fetchers = append(fetchers, pr)
			}
			for _, pr := range fetchers {
				pr.Done().Wait(p)
			}
		}

		// Merge phase completion: all data has arrived everywhere.
		for _, m := range j.managers {
			m.inputDone.Fire(nil)
		}
		for _, m := range j.managers {
			m.done.Wait(p)
		}
		for _, m := range j.managers {
			res.MergeDelay = max(res.MergeDelay, m.mergeDelay)
			res.IntermediateBytes += m.storedBytes()
		}

		// Reduce phase: partitions are tasks of a second scheduler so a
		// failed reduce attempt can requeue anywhere (§III-E). First
		// attempts stay pinned to the partition's owner — remote stealing
		// is restricted to requeued work, so the fault-free timeline is
		// exactly the per-node iteration it always was.
		reduceStart := p.Now()
		j.redSched = newTaskScheduler[reduceRef](env, n, cfg.StaticScheduling, cfg.SpeculativeSlowdown, cfg.MaxTaskAttempts)
		j.redSched.stealRequeued = true
		for i, dead := range j.deadNodes {
			if dead {
				j.redSched.dead[i] = true
			}
		}
		for g := range j.owners {
			own := j.owners[g]
			j.redSched.addTask(own.node, taskID("part#"+strconv.Itoa(g)), reduceRef{global: g, owner: own.node, local: own.local})
		}
		var redProcs []*sim.Proc
		for i := range rt.Cluster.Nodes {
			if j.deadNodes[i] {
				continue
			}
			i := i
			pr := env.Spawn(fmt.Sprintf("node%03d/reduce", i), func(q *sim.Proc) {
				res.ReduceStages[i] = j.runReducePipeline(q, i)
			})
			redProcs = append(redProcs, pr)
		}
		for _, pr := range redProcs {
			pr.Done().Wait(p)
		}
		res.ReduceElapsed = p.Now() - reduceStart
		res.JobTime = p.Now() - jobStart
	})
	env.Run()

	if j.failErr != nil {
		return nil, j.failErr
	}
	for _, pairs := range j.outputs {
		res.OutputPairs += len(pairs)
	}
	res.Stats = j.counters.stats()
	res.TaskRetries = res.Stats.MapRetries
	res.Trace = j.trace
	publishResult(reg, res)
	return res, nil
}

// checkDeviceMemory verifies the configured buffering level fits the
// device's memory: the pipeline needs Buffering input buffers and Buffering
// output buffers per phase, and "double or triple buffering comes at the
// cost of more buffers, which may be a limited resource for GPUs" (§III-D).
// Output buffers are sized like input buffers (collector output is bounded
// by a small multiple of the input chunk; one buffer-sized allocation per
// level is the paper's granularity).
func (j *job) checkDeviceMemory(splits [][]splitRef) error {
	var maxBlock int64
	for _, per := range splits {
		for _, sp := range per {
			if n := int64(len(sp.file.Blocks[sp.idx].Data)); n > maxBlock {
				maxBlock = n
			}
		}
	}
	need := int64(j.cfg.Buffering) * 2 * maxBlock * 2 // in+out groups, 2x slack
	for i, ctx := range j.ctxs {
		if ctx.Unified() {
			continue
		}
		if need > ctx.Device.MemBytes {
			return fmt.Errorf("core: buffering level %d needs %d bytes of device memory on node %d's %s (%d available) — lower Buffering or the block size",
				j.cfg.Buffering, need, i, ctx.Device.Profile.Name, ctx.Device.MemBytes)
		}
	}
	return nil
}

// assignSplits distributes input blocks over nodes, preferring nodes that
// hold a local replica (the coordinator "considers file affinity in its job
// allocation", §IV-A), balancing counts among candidates.
func (j *job) assignSplits() ([][]splitRef, error) {
	n := len(j.cluster.Nodes)
	per := make([][]splitRef, n)
	counts := make([]float64, n)
	// With BalanceByDevice, each node's assignment is weighted by its
	// selected device's peak throughput, so in a heterogeneous cluster the
	// accelerator nodes draw proportionally more splits (the Shirahata et
	// al. setting, paper §II).
	weight := make([]float64, n)
	for i := range weight {
		weight[i] = 1
		if j.cfg.BalanceByDevice {
			weight[i] = j.ctxs[i].Device.Profile.Peak()
		}
	}
	for _, name := range j.cfg.Input {
		f, err := j.fs.Open(name)
		if err != nil {
			return nil, err
		}
		for idx := range f.Blocks {
			best := -1
			for _, loc := range f.Blocks[idx].Locations {
				if loc.ID < 0 || loc.ID >= n {
					continue
				}
				if best == -1 || counts[loc.ID]/weight[loc.ID] < counts[best]/weight[best] {
					best = loc.ID
				}
			}
			if best == -1 {
				// No local replica anywhere (cannot happen with our file
				// systems, but stay safe): round-robin.
				best = idx % n
			}
			per[best] = append(per[best], splitRef{file: f, idx: idx})
			counts[best]++
		}
	}
	return per, nil
}
