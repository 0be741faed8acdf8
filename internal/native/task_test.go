// An external test package: internal/conformance imports native, so the
// reference engine is only reachable from outside it.
package native_test

import (
	"bytes"
	"fmt"
	"testing"

	"glasswing/internal/conformance"
	"glasswing/internal/core"
	"glasswing/internal/kv"
	"glasswing/internal/native"
)

// TestTaskKernelMatchesReference drives the three task-kernel calls by hand
// — MapBlock, Chunk.Partition, ReducePartition, the way a host does — over
// every registry app × collector × combiner on one block, and holds the
// result to the sequential reference engine: the merged runs carry exactly
// the reference's intermediate volume in sorted order, and the reduced
// partitions digest byte-identically. Without a combiner the collector must
// not show at all: every such cell produces the same runs, byte for byte —
// a chunk has one output form.
func TestTaskKernelMatchesReference(t *testing.T) {
	const P = 4
	type cell struct {
		collector       core.CollectorKind
		combiner, batch bool
	}
	var cells []cell
	for _, collector := range []core.CollectorKind{core.HashTable, core.BufferPool} {
		for _, combiner := range []bool{false, true} {
			cells = append(cells, cell{collector, combiner, true}, cell{collector, combiner, false})
		}
	}
	for _, j := range conformance.Jobs() {
		exp := conformance.Reference(j)
		part := j.Partitioner
		if part == nil {
			part = kv.Partition
		}
		var uncombined [][]byte // the first uncombined cell's run blobs
		for _, cell := range cells {
			collector, combiner := cell.collector, cell.combiner
			t.Run(fmt.Sprintf("%s/collector=%v/combiner=%v/batch=%v", j.Name, collector, combiner, cell.batch), func(t *testing.T) {
				app := j.New()
				if !cell.batch {
					// The per-record kernel form, as an app without a
					// batch kernel presents itself.
					app.MapBatch = nil
				}
				runs, st := native.MapBlock(app, j.Data, collector, combiner).Partition(part, P, false)
				if len(runs) != P {
					t.Fatalf("Partition returned %d runs, want one slot per partition (%d)", len(runs), P)
				}
				// The combiner only engages on the hash table with an
				// App.Combine; everywhere else the map side is exact.
				combined := combiner && collector == core.HashTable && app.Combine != nil
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
				for _, r := range runs {
					if r == nil {
						continue
					}
					o, n, g := native.ReducePartition(app, []kv.Iterator{r.Iter()})
					out = append(out, o...)
					records += n
					groups += g
				}
				if records != st.PartRecords {
					t.Fatalf("reduce consumed %d records, map produced %d", records, st.PartRecords)
				}
				if app.Reduce != nil && groups != exp.DistinctKeys {
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
}
