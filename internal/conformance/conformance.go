// Package conformance is the cross-runtime MapReduce-semantics test bed:
// a declarative spec of what every Glasswing engine must compute, executed
// against all runtimes that share an application (the simulated core, the
// native wall-clock pipeline, and the Hadoop/GPMR baseline models) and
// against a metamorphic axis table asserting that execution geometry —
// chunk size, worker count, partition count, compression, pipeline overlap,
// injected faults — never changes the answer.
//
// Each job is reduced to two artifacts:
//
//   - a canonical output digest: output pairs sorted key-then-value,
//     marshalled, SHA-256 hashed. Every key lands in exactly one partition,
//     so the digest is invariant across partition counts and runtimes; any
//     two runs of the same job must produce byte-identical digests.
//   - a conservation ledger: the conserv_* counters the core and native
//     runtimes thread through internal/obs, proving records and bytes are
//     neither lost nor invented at any pipeline boundary (see ledger.go).
//
// Float determinism: KMeans sums float64 coordinates, and float addition is
// not associative — so KM runs with the combiner OFF everywhere in this
// package. Without a combiner every runtime feeds reduce the full value
// multiset in byte-sorted order (runs are key-then-value sorted and merges
// preserve that order), making the sums bit-exact across engines. WC's
// uint32 sums are exact in any order, so WC additionally exercises the
// combiner axis.
package conformance

import (
	"crypto/sha256"
	"encoding/hex"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/dist"
	"glasswing/internal/kv"
	"glasswing/internal/workload"
)

// Job declares one conformance workload: an application, its dataset, and
// everything a runtime needs to execute it plus verify the result.
type Job struct {
	Name string
	// New builds a fresh App (kernels are stateless; a fresh value per run
	// keeps cells independent).
	New func() *core.App
	// Data is the raw input; RecordSize 0 means newline-delimited text,
	// otherwise fixed-size binary records.
	Data       []byte
	RecordSize int64
	// Partitioner overrides hash partitioning (TeraSort's sampled range
	// partitioner; it adapts to any partition count).
	Partitioner func(key []byte, n int) int
	// Broadcast is the prelude payload in bytes (KM ships its centers).
	Broadcast int64
	// Params is the app's registry parameter blob (dist.AppSpec.Params) for
	// runtimes that resolve kernels by name over a wire API — the job
	// service axis — instead of taking a constructor closure. Encodes the
	// same partitioner sample / center spec the closure path uses, so both
	// paths run identical kernels.
	Params []byte
	// Collector is the tuned collector for this app; the sim collector axis
	// runs the other one.
	Collector core.CollectorKind
	// CombinerOK marks apps whose combiner preserves bit-exact output
	// (integer aggregation). KM's float sums are not associative: false.
	CombinerOK bool
	// OutputReplication passes through to DFS output writes (TS uses 1).
	OutputReplication int
	// Verify checks output pairs against an app-specific reference,
	// independent of the digest comparison.
	Verify func(out []kv.Pair) error
}

// Jobs returns the conformance workloads: the three paper applications that
// all four runtimes share (WC, TS, KM — §IV-A). Datasets are seeded, so
// every call returns identical bytes.
func Jobs() []Job {
	wcData, wcWant := apps.WCData(21, 96<<10, 1200)
	tsData := apps.TSData(22, 2000)
	kmData, kmSpec := apps.KMData(23, 4096, 4, 8)
	return []Job{
		{
			Name:       "WC",
			New:        apps.WordCount,
			Data:       wcData,
			Collector:  core.HashTable,
			CombinerOK: true,
			Verify:     func(out []kv.Pair) error { return apps.VerifyCounts(out, wcWant) },
		},
		{
			Name:              "TS",
			New:               apps.TeraSort,
			Data:              tsData,
			RecordSize:        workload.TeraRecordSize,
			Partitioner:       apps.TeraPartitioner(tsData, 16),
			Params:            dist.EncodeTSParams(apps.TeraSample(tsData, 16)),
			Collector:         core.BufferPool,
			OutputReplication: 1,
			Verify:            func(out []kv.Pair) error { return apps.VerifyTeraSort(out, tsData) },
		},
		{
			Name:       "KM",
			New:        func() *core.App { return apps.KMeans(kmSpec) },
			Data:       kmData,
			RecordSize: int64(kmSpec.Dim * 4),
			Broadcast:  kmSpec.CentersBytes(),
			Params:     dist.EncodeKMParams(kmSpec),
			Collector:  core.HashTable,
			Verify:     func(out []kv.Pair) error { return apps.VerifyKMeans(out, kmData, kmSpec) },
		},
	}
}

// Digest canonicalizes output pairs — sort key-then-value, marshal, hash —
// so any two runs of the same job are comparable regardless of partition
// count, partition order, or runtime.
func Digest(pairs []kv.Pair) string {
	cp := make([]kv.Pair, len(pairs))
	copy(cp, pairs)
	kv.SortPairs(cp)
	sum := sha256.Sum256(kv.Marshal(cp))
	return hex.EncodeToString(sum[:])
}

// Expected is the reference sequential engine's account of a job: what every
// runtime must produce (Digest, OutputPairs) and the volumes the
// conservation ledger must balance against.
type Expected struct {
	// Records is the parsed input record count.
	Records int64
	// InterPairs and InterBytes are the map-emitted pair count and payload
	// volume with no combiner.
	InterPairs int64
	InterBytes int64
	// DistinctKeys is the number of distinct intermediate keys — the total
	// reduce group count across all partitions.
	DistinctKeys int64
	// OutputPairs and Digest describe the final output.
	OutputPairs int64
	Digest      string
}

// Reference runs j on the trivial sequential engine: parse everything, map
// every record, sort, group, reduce. No chunking, no partitions, no
// concurrency — the executable definition of the job's semantics that every
// real runtime is compared against.
func Reference(j Job) Expected {
	app := j.New()
	recs := app.Parse(j.Data)
	var inter []kv.Pair
	emit := func(k, v []byte) {
		inter = append(inter, kv.Pair{
			Key:   append([]byte(nil), k...),
			Value: append([]byte(nil), v...),
		})
	}
	app.MapBatch(recs, kv.EmitFunc(emit))
	exp := Expected{Records: int64(len(recs)), InterPairs: int64(len(inter))}
	for _, pr := range inter {
		exp.InterBytes += pr.Size()
	}
	kv.SortPairs(inter)

	var red kv.Batch
	gi := kv.NewGroupIter(kv.NewSliceIter(inter))
	for {
		g, ok := gi.Next()
		if !ok {
			break
		}
		exp.DistinctKeys++
		if app.ReduceBatch == nil {
			// Reduce-less apps (TS): merged intermediate data is final.
			for _, v := range g.Values {
				red.AppendKV(g.Key, v)
			}
			continue
		}
		app.ReduceBatch(g.Key, g.Values, &red)
	}
	out := red.Pairs(nil)
	exp.OutputPairs = int64(len(out))
	exp.Digest = Digest(out)
	return exp
}
