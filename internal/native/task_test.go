// An external test package: internal/conformance imports native, so the
// reference engine is only reachable from outside it.
package native_test

import (
	"bytes"
	"fmt"
	"testing"

	"glasswing"
	"glasswing/internal/apps"
	"glasswing/internal/conformance"
	"glasswing/internal/core"
	"glasswing/internal/kv"
	"glasswing/internal/native"
)

// reusedScratchJob is WordCount with every emitted pair passed through one
// scratch buffer the kernel overwrites for the next — what kv.Sink's
// contract lets a kernel do. A sink that retains a slice instead of copying
// it ends up holding the block's last word everywhere.
func reusedScratchJob() conformance.Job {
	data, want := apps.WCData(21, 96<<10, 1200)
	return conformance.Job{
		Name: "WC-scratch",
		New: func() *core.App {
			app := apps.WordCount()
			tokenize := app.MapBatch
			app.MapBatch = func(recs []kv.Pair, out kv.Sink) {
				var scratch []byte
				tokenize(recs, kv.EmitFunc(func(k, v []byte) {
					scratch = append(append(scratch[:0], k...), v...)
					out.AppendKV(scratch[:len(k)], scratch[len(k):])
				}))
			}
			return app
		},
		Data:       data,
		Collector:  core.HashTable,
		CombinerOK: true,
		Verify:     func(out []kv.Pair) error { return apps.VerifyCounts(out, want) },
	}
}

// TestTaskKernelMatchesReference drives the three task-kernel calls by hand
// — MapBlock, Chunk.Partition, ReducePartition, the way a host does — over
// every registry app × collector × combiner on one block, and holds the
// result to the sequential reference engine: the merged runs carry exactly
// the reference's intermediate volume in sorted order, and the reduced
// partitions digest byte-identically. MapBlock takes the combine bit a
// runtime passes once CheckCombiner has accepted the cell's collector and
// combiner; a cell it refuses maps uncombined. Without a combiner the
// collector must not show at all: every such cell produces the same runs,
// byte for byte — a chunk has one output form. The reused-scratch job runs
// the same cells, which put its kernel on both of MapBlock's sinks (the
// chunk's batch, the combining table), and then on the simulated engine's
// two collectors.
func TestTaskKernelMatchesReference(t *testing.T) {
	const P = 4
	type cell struct {
		collector core.CollectorKind
		combiner  bool
	}
	var cells []cell
	for _, collector := range []core.CollectorKind{core.HashTable, core.BufferPool} {
		for _, combiner := range []bool{false, true} {
			cells = append(cells, cell{collector, combiner})
		}
	}
	scratch := reusedScratchJob()
	for _, j := range append(conformance.Jobs(), scratch) {
		exp := conformance.Reference(j)
		part := j.Partitioner
		if part == nil {
			part = kv.Partition
		}
		var uncombined [][]byte // the first uncombined cell's run blobs
		for _, cell := range cells {
			collector, combiner := cell.collector, cell.combiner
			// batch=true is what a cell was called while a per-record kernel
			// form existed beside it; the name is kept so a cell's history
			// reads across that change.
			t.Run(fmt.Sprintf("%s/collector=%v/combiner=%v/batch=true", j.Name, collector, combiner), func(t *testing.T) {
				app := j.New()
				// The combiner only engages where CheckCombiner accepts it
				// (the hash table, an App.Fold); everywhere else the map
				// side is exact.
				combined := combiner && native.CheckCombiner(app, collector, true) == nil
				runs, st := native.MapBlock(app, j.Data, combined).Partition(part, P, false)
				if len(runs) != P {
					t.Fatalf("Partition returned %d runs, want one slot per partition (%d)", len(runs), P)
				}
				if st.RecordsIn != exp.Records || st.PartRecords != st.PairsOut {
					t.Fatalf("map stats %+v: want %d records in, every emitted pair partitioned", st, exp.Records)
				}
				if combined && st.PairsOut > exp.InterPairs {
					t.Fatalf("combiner grew the output: %d pairs from %d", st.PairsOut, exp.InterPairs)
				}
				if !combined && (st.PairsOut != exp.InterPairs || st.PartRaw != exp.InterBytes) {
					t.Fatalf("map stats %+v: reference emits %d pairs, %d bytes", st, exp.InterPairs, exp.InterBytes)
				}
				if !combined {
					blobs := make([][]byte, P)
					for g, r := range runs {
						if r != nil {
							blobs[g] = r.Blob()
						}
					}
					if uncombined == nil {
						uncombined = blobs
					}
					for g := range blobs {
						if !bytes.Equal(blobs[g], uncombined[g]) {
							t.Fatalf("partition %d's run differs from the first uncombined cell's", g)
						}
					}
				}

				var iters []kv.Iterator
				var stored int64
				for g, r := range runs {
					if r == nil {
						continue
					}
					stored += r.StoredBytes()
					iters = append(iters, r.Iter())
					for _, pr := range kv.Drain(r.Iter()) {
						if part(pr.Key, P) != g {
							t.Fatalf("key %q landed in partition %d", pr.Key, g)
						}
					}
				}
				if int64(len(iters)) != st.PartRuns || stored != st.PartStored {
					t.Fatalf("stats book %d runs / %d stored bytes, runs hold %d / %d",
						st.PartRuns, st.PartStored, len(iters), stored)
				}
				merged := kv.Drain(kv.Merge(iters...))
				if !kv.PairsSorted(merged) || int64(len(merged)) != st.PartRecords {
					t.Fatalf("merged runs: %d pairs (want %d), sorted=%v", len(merged), st.PartRecords, kv.PairsSorted(merged))
				}

				var out []kv.Pair
				var records, groups int64
				var merger kv.Merger // one reducer's, as a host passes it
				for _, r := range runs {
					if r == nil {
						continue
					}
					o, n, g := native.ReducePartition(app, &merger, []kv.Iterator{r.Iter()})
					out = append(out, o...)
					records += n
					groups += g
				}
				if records != st.PartRecords {
					t.Fatalf("reduce consumed %d records, map produced %d", records, st.PartRecords)
				}
				if app.ReduceBatch != nil && groups != exp.DistinctKeys {
					t.Fatalf("reduce saw %d groups, reference has %d distinct keys", groups, exp.DistinctKeys)
				}
				if combined && !j.CombinerOK {
					// Float sums are not associative: a combined KM run is
					// held to the app verifier, not the byte digest.
					if err := j.Verify(out); err != nil {
						t.Fatal(err)
					}
					return
				}
				if int64(len(out)) != exp.OutputPairs || conformance.Digest(out) != exp.Digest {
					t.Fatalf("output: %d pairs digest %s, reference %d pairs digest %s",
						len(out), conformance.Digest(out), exp.OutputPairs, exp.Digest)
				}
			})
		}
	}

	exp := conformance.Reference(scratch)
	for _, collector := range []core.CollectorKind{core.HashTable, core.BufferPool} {
		t.Run(fmt.Sprintf("%s/sim/collector=%v", scratch.Name, collector), func(t *testing.T) {
			cluster := glasswing.NewCluster(glasswing.ClusterConfig{Nodes: 2, BlockSize: 16 << 10})
			cluster.LoadText("in", scratch.Data)
			res, err := cluster.Run(scratch.New(), core.Config{Input: []string{"in"}, Collector: collector})
			if err != nil {
				t.Fatal(err)
			}
			if got := conformance.Digest(res.Output()); got != exp.Digest {
				t.Fatalf("output digest %s, reference %s", got, exp.Digest)
			}
		})
	}
}
