package core

import (
	"fmt"

	"glasswing/internal/hw"
	"glasswing/internal/kv"
	"glasswing/internal/sim"
)

// partStore is one local intermediate partition: an in-memory cache of
// serialized runs plus the on-disk run files the continuous merger manages.
type partStore struct {
	global      int // global partition id
	cached      []*kv.Run
	cachedBytes int64
	onDisk      []*kv.Run
	// seen records which map tasks already contributed a run, so the
	// re-delivery of a task re-executed after a node death is dropped at
	// surviving partitions instead of duplicating data.
	seen map[taskID]bool
}

func newPartStore(global int) *partStore {
	return &partStore{global: global, seen: make(map[taskID]bool)}
}

func (ps *partStore) runs() []*kv.Run {
	out := make([]*kv.Run, 0, len(ps.onDisk)+len(ps.cached))
	out = append(out, ps.onDisk...)
	out = append(out, ps.cached...)
	return out
}

// storedTotal is the partition's full stored volume (cache + disk) — what a
// remote reduce attempt must move over the fabric.
func (ps *partStore) storedTotal() int64 {
	var total int64
	for _, r := range ps.runs() {
		total += r.StoredBytes()
	}
	return total
}

// interManager implements §III-B: per-node intermediate data management.
// Each node caches incoming Partitions in memory, merges and flushes them
// to disk when the aggregate cache exceeds a threshold, and continuously
// multi-way merges on-disk runs so the file count stays bounded. Merger
// threads run concurrently with the map pipeline, contending for the CPU;
// the merge delay — merging time left after the map phase completes and
// before reduction may start — is the paper's §III-B performance metric.
type interManager struct {
	node    *hw.Node
	nodeIdx int
	trace   *Trace
	cfg     Config
	// conserv is the job's conservation ledger (set by Run; nil-field-safe
	// because counters are only touched when non-nil).
	conserv *Conserv
	parts   []*partStore

	wake       []*sim.Queue[struct{}]
	mergerSigs []*sim.Signal
	slots      *sim.Resource
	inputDone  *sim.Signal // all intermediate data has arrived at this node
	done       *sim.Signal // mergers quiesced; fired with the merge delay
	// dead marks the node as failed: its stores are lost and further
	// deliveries are dropped (§III-E node-level failure).
	dead bool

	// mapDoneAt is when the map phase completed; the merge delay is
	// measured from here (§III-B), so pull-mode fetches count toward it.
	mapDoneAt  float64
	mergeDelay float64
}

func newInterManager(env *sim.Env, node *hw.Node, cfg Config, firstGlobal int) *interManager {
	m := &interManager{
		node:      node,
		cfg:       cfg,
		inputDone: sim.NewSignal(env),
		done:      sim.NewSignal(env),
		slots:     sim.NewResource(env, cfg.MergeThreads),
	}
	for i := 0; i < cfg.PartitionsPerNode; i++ {
		m.parts = append(m.parts, newPartStore(firstGlobal+i))
		m.wake = append(m.wake, sim.NewQueue[struct{}](env, 1))
	}
	return m
}

// addRun appends task's run to local partition idx's cache. It runs in the
// sender's process (partition stage or remote push), so the insert itself is
// free; the run's serialization and transport were charged by the sender.
// Deliveries to a dead node and re-deliveries of a task already seen by this
// partition (a node-loss re-execution fanning out again) are dropped.
func (m *interManager) addRun(idx int, task taskID, run *kv.Run) {
	if m.dead {
		if m.conserv != nil {
			m.conserv.StoreDeadDropped.Add(int64(run.Records))
		}
		return
	}
	if run.Records == 0 {
		return
	}
	ps := m.parts[idx]
	if ps.seen[task] {
		if m.conserv != nil {
			m.conserv.StoreDupDropped.Add(int64(run.Records))
		}
		return
	}
	ps.seen[task] = true
	ps.cached = append(ps.cached, run)
	ps.cachedBytes += run.StoredBytes()
	if m.conserv != nil {
		m.conserv.StoreAccepted.Add(int64(run.Records))
	}
	if m.aggregateCache() > m.cfg.CacheThreshold {
		for i := range m.parts {
			if m.parts[i].cachedBytes > 0 {
				m.wake[i].TryPut(struct{}{})
			}
		}
	} else if len(ps.cached) > 2*m.cfg.MaxSpillFiles {
		// Run-count pressure: the continuous merger compacts cached runs
		// during the map phase so the reduce reader's final merge stays
		// cheap (§III-B: files "continuously merged ... so the number of
		// intermediate data files is limited to a configurable count").
		m.wake[idx].TryPut(struct{}{})
	}
}

func (m *interManager) aggregateCache() int64 {
	var total int64
	for _, ps := range m.parts {
		total += ps.cachedBytes
	}
	return total
}

// start spawns the merger processes. The returned done signal fires when
// every merger has quiesced after inputDone.
func (m *interManager) start(env *sim.Env) {
	for i := range m.parts {
		m.spawnMerger(env, i)
	}
	env.Spawn(m.node.Name+"/merge-join", func(p *sim.Proc) {
		m.inputDone.Wait(p)
		// Index loops: partitions adopted from a dead node appended their
		// own wake queue and merger after start.
		for i := 0; i < len(m.wake); i++ {
			m.wake[i].Close()
		}
		for i := 0; i < len(m.mergerSigs); i++ {
			m.mergerSigs[i].Wait(p)
		}
		m.mergeDelay = p.Now() - m.mapDoneAt
		m.done.Fire(m.mergeDelay)
	})
}

func (m *interManager) spawnMerger(env *sim.Env, idx int) {
	proc := env.Spawn(fmt.Sprintf("%s/merger%d", m.node.Name, idx), func(p *sim.Proc) {
		m.mergerLoop(p, idx)
	})
	m.mergerSigs = append(m.mergerSigs, proc.Done())
}

// adoptPart takes over global partition `global` from a dead node: a fresh,
// empty store (the data died with the node — re-executed map tasks rebuild
// it) with its own wake queue and merger. It returns the local index for
// the rewired ownerRef.
func (m *interManager) adoptPart(env *sim.Env, global int) int {
	m.parts = append(m.parts, newPartStore(global))
	m.wake = append(m.wake, sim.NewQueue[struct{}](env, 1))
	idx := len(m.parts) - 1
	m.spawnMerger(env, idx)
	return idx
}

// markDead drops all of the node's intermediate data — "a failing node
// loses its intermediate data" (§III-E) — and quiesces its mergers. Safe in
// scheduler-callback context (never parks).
func (m *interManager) markDead() {
	m.dead = true
	for i, ps := range m.parts {
		if m.conserv != nil {
			var lost int64
			for _, r := range ps.runs() {
				lost += int64(r.Records)
			}
			m.conserv.StoreLost.Add(lost)
		}
		ps.cached, ps.cachedBytes, ps.onDisk = nil, 0, nil
		m.wake[i].Close()
	}
}

func (m *interManager) mergerLoop(p *sim.Proc, idx int) {
	for {
		_, ok := m.wake[idx].Get(p)
		m.service(p, idx)
		if !ok {
			// Input is complete: compact the partition to its final state
			// so the reduce reader's last merge has minimal fan-in —
			// this is the work the merge delay measures (§III-B).
			ps := m.parts[idx]
			if len(ps.cached) > 1 {
				m.compactCache(p, ps)
			}
			m.service(p, idx)
			return
		}
	}
}

// service performs the merge/flush obligations of partition idx until it is
// within policy.
func (m *interManager) service(p *sim.Proc, idx int) {
	ps := m.parts[idx]
	for {
		switch {
		case ps.cachedBytes > 0 && m.aggregateCache() > m.cfg.CacheThreshold:
			m.flush(p, ps)
		case len(ps.cached) > 2*m.cfg.MaxSpillFiles:
			m.compactCache(p, ps)
		case len(ps.onDisk) > m.cfg.MaxSpillFiles:
			m.compactDisk(p, ps)
		default:
			return
		}
	}
}

// flush merges the cached runs of ps into a single run and writes it to
// disk, charging merge CPU (weight 1: one merger thread) and disk I/O.
func (m *interManager) flush(p *sim.Proc, ps *partStore) {
	t0 := p.Now()
	defer func() { m.trace.add(m.nodeIdx, "merge", t0, p.Now()) }()
	// Detach the cached runs before any blocking charge: the partition
	// stage keeps adding runs while this merger waits for CPU and disk,
	// and those must not be lost.
	runs := ps.cached
	if len(runs) == 0 {
		return
	}
	ps.cached = nil
	ps.cachedBytes = 0
	m.slots.Acquire(p, 1)
	defer m.slots.Release(1)
	var pairsN int
	var raw int64
	for _, r := range runs {
		pairsN += r.Records
		raw += r.RawBytes
	}
	ops := mergeCost(pairsN, len(runs)) + costSerializePerByte*float64(raw)
	if m.cfg.Compress {
		ops += (costDecompressPerByte + costCompressPerByte) * float64(raw)
	}
	m.node.HostWork(p, ops, 1)
	if m.dead {
		// The node died mid-flush: the detached runs were not in the store
		// when markDead counted its loss, so account for them here.
		if m.conserv != nil {
			m.conserv.StoreLost.Add(int64(pairsN))
		}
		return
	}
	merged := kv.MergeRuns(runs, m.cfg.Compress)
	if m.conserv != nil {
		m.conserv.MergeRecordsIn.Add(int64(pairsN))
		m.conserv.MergeRecordsOut.Add(int64(merged.Records))
	}
	m.node.Disk.Write(p, merged.StoredBytes())
	ps.onDisk = append(ps.onDisk, merged)
}

// compactCache merges the cached runs of ps in memory (no disk I/O): the
// cache is within the size threshold but holds too many small runs for the
// reduce reader's final merge to be cheap.
func (m *interManager) compactCache(p *sim.Proc, ps *partStore) {
	t0 := p.Now()
	defer func() { m.trace.add(m.nodeIdx, "merge", t0, p.Now()) }()
	runs := ps.cached
	if len(runs) < 2 {
		return
	}
	ps.cached = nil
	ps.cachedBytes = 0
	m.slots.Acquire(p, 1)
	defer m.slots.Release(1)
	var pairsN int
	var raw int64
	for _, r := range runs {
		pairsN += r.Records
		raw += r.RawBytes
	}
	ops := mergeCost(pairsN, len(runs)) + costSerializePerByte*float64(raw)
	if m.cfg.Compress {
		ops += (costDecompressPerByte + costCompressPerByte) * float64(raw)
	}
	m.node.HostWork(p, ops, 1)
	if m.dead {
		if m.conserv != nil {
			m.conserv.StoreLost.Add(int64(pairsN))
		}
		return
	}
	merged := kv.MergeRuns(runs, m.cfg.Compress)
	if m.conserv != nil {
		m.conserv.MergeRecordsIn.Add(int64(pairsN))
		m.conserv.MergeRecordsOut.Add(int64(merged.Records))
	}
	ps.cached = append(ps.cached, merged)
	ps.cachedBytes += merged.StoredBytes()
}

// compactDisk merges all on-disk runs of ps into one.
func (m *interManager) compactDisk(p *sim.Proc, ps *partStore) {
	t0 := p.Now()
	defer func() { m.trace.add(m.nodeIdx, "merge", t0, p.Now()) }()
	// Detach before blocking (see flush); concurrent flushes of this
	// partition cannot run — one merger per partition — but stay safe.
	runs := ps.onDisk
	if len(runs) < 2 {
		return
	}
	ps.onDisk = nil
	m.slots.Acquire(p, 1)
	defer m.slots.Release(1)
	var pairsN int
	var stored, raw int64
	for _, r := range runs {
		pairsN += r.Records
		stored += r.StoredBytes()
		raw += r.RawBytes
	}
	m.node.Disk.Read(p, stored)
	ops := mergeCost(pairsN, len(runs)) + costSerializePerByte*float64(raw)
	if m.cfg.Compress {
		ops += (costDecompressPerByte + costCompressPerByte) * float64(raw)
	}
	m.node.HostWork(p, ops, 1)
	if m.dead {
		if m.conserv != nil {
			m.conserv.StoreLost.Add(int64(pairsN))
		}
		return
	}
	merged := kv.MergeRuns(runs, m.cfg.Compress)
	if m.conserv != nil {
		m.conserv.MergeRecordsIn.Add(int64(pairsN))
		m.conserv.MergeRecordsOut.Add(int64(merged.Records))
	}
	m.node.Disk.Write(p, merged.StoredBytes())
	ps.onDisk = append(ps.onDisk, merged)
}

// stats for reporting.
func (m *interManager) storedBytes() int64 {
	var total int64
	for _, ps := range m.parts {
		for _, r := range ps.runs() {
			total += r.StoredBytes()
		}
	}
	return total
}
