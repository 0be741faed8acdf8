package native

import (
	"bytes"
	"encoding/binary"
	"testing"

	"glasswing/internal/core"
	"glasswing/internal/kv"
)

// fuzzPairs derives a deterministic pair list from raw fuzz input, mirroring
// the scheme in internal/kv's fuzz targets so corpus entries transfer.
func fuzzPairs(data []byte) []kv.Pair {
	var pairs []kv.Pair
	for i := 0; i+2 < len(data) && len(pairs) < 512; {
		kl := int(data[i]%13) + 1
		vl := int(data[i+1] % 17)
		i += 2
		if i+kl+vl > len(data) {
			break
		}
		pairs = append(pairs, kv.Pair{Key: data[i : i+kl], Value: data[i+kl : i+kl+vl]})
		i += kl + vl
	}
	return pairs
}

// FuzzSpillMerge drives the run store, as Run builds it, through its full
// intermediate-data lifecycle — add runs, force disk spills with a tiny cache
// threshold, stream them back through the k-way merge — and asserts the
// store neither loses, invents, nor reorders records: per partition the
// merged read-back is the key-then-value-sorted multiset of exactly the pairs
// routed there. The second byte's second bit repeats each pair one to four
// times and files a run of pairs whose keys come with one value each as a
// counted run, kv.Batch.RunCounted's, a frame per stretch of equal pairs.
func FuzzSpillMerge(f *testing.F) {
	f.Add([]byte("\x02\x01the quick brown fox jumps over the lazy dog again and again"))
	f.Add([]byte{5, 0, 1, 4, 'k', 'e', 'y', 's', 1, 4, 'm', 'o', 'r', 'e'})
	f.Add([]byte("\x03\x02the quick brown fox jumps over the lazy dog again and again"))
	f.Add([]byte("\x01\x03\x00\x01a\x00\x01b\x01\x01xy\x00\x01a\x03\x00dddd"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		parts := int(data[0]%4) + 1
		compress, counted := data[1]&1 == 1, data[1]&2 == 2
		pairs := fuzzPairs(data[2:])

		cfg := Config{
			Partitions:     parts,
			Compress:       compress,
			CacheThreshold: 64, // tiny: nearly every add triggers a spill
			SpillDir:       t.TempDir(),
		}
		st, cleanup := newRunStore(cfg, newRecorder(nil))
		defer cleanup()

		// Route pairs to partitions and feed them in as small sorted runs,
		// exercising multi-run accumulation per partition.
		want := make([][]kv.Pair, parts)
		for _, p := range pairs {
			g := kv.Partition(p.Key, parts)
			for r := 0; r == 0 || counted && r <= int(p.Key[0]%4); r++ {
				want[g] = append(want[g], p)
			}
		}
		for g, wp := range want {
			for i := 0; i < len(wp); i += 3 {
				chunk := append([]kv.Pair(nil), wp[i:min(i+3, len(wp))]...)
				kv.SortPairs(chunk)
				run := kv.NewRun(chunk, compress)
				if counted && oneValuePerKey(chunk) {
					run = countedRun(chunk, compress)
				}
				if err := st.Add(g, i, run); err != nil {
					t.Fatalf("add partition %d: %v", g, err)
				}
			}
		}
		for g := 0; g < parts; g++ {
			iters, closeSpills, spillErr := st.Iters(g)
			got := kv.Drain(kv.Merge(iters...))
			closeSpills()
			if err := spillErr(); err != nil {
				t.Fatalf("partition %d read-back: %v", g, err)
			}
			if !kv.PairsSorted(got) {
				t.Fatalf("partition %d merge output not sorted (%d pairs)", g, len(got))
			}
			exp := append([]kv.Pair(nil), want[g]...)
			kv.SortPairs(exp)
			if len(got) != len(exp) {
				t.Fatalf("partition %d: %d pairs read back, want %d", g, len(got), len(exp))
			}
			for i := range exp {
				if !bytes.Equal(exp[i].Key, got[i].Key) || !bytes.Equal(exp[i].Value, got[i].Value) {
					t.Fatalf("partition %d pair %d mismatch", g, i)
				}
			}
		}
	})
}

// FuzzCombinerFold drives emit streams derived from raw input through the
// combining table and a map model, with the order-sensitive test fold: the
// table must hand back one pair per distinct key, in first-emission order,
// carrying the fold of exactly that key's values in emission order. The
// first byte picks whether keys shrink to one byte (so they repeat), and
// either how many variants of each key are emitted (so a long input grows
// the index) or that every key's tag is forced onto one of three (so keys
// share probe paths and tags; one variant then, or the probes go quadratic).
func FuzzCombinerFold(f *testing.F) {
	f.Add([]byte("\x00\x02\x01the quick brown fox jumps over the lazy dog"))
	f.Add([]byte("\x03\x01\x00aaaa\x01\x00ab\x01\x00a\x00\x00\x01\x00b"))
	f.Add(append([]byte{0xfe}, bytes.Repeat([]byte("\x05\x02some-keyvv"), 60)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		// A fresh table per input: a grown index kept from an earlier
		// input would make coverage depend on what ran before.
		c := newChunk()
		c.tab.fold = orderFold
		reps, short, collide := int(data[0]>>2&15)+1, data[0]&1 == 1, data[0]&2 == 2
		if collide {
			reps = 1
		}
		model := map[string][][]byte{}
		var order []string
		for i, p := range fuzzPairs(data[1:]) {
			k := p.Key
			if short {
				k = k[:1]
			}
			for r := 0; r < reps; r++ {
				key := append(bytes.Clone(k), '#', byte(r))
				if r == 0 && len(p.Value) == 0 {
					key = nil // the empty key
				}
				v := binary.LittleEndian.AppendUint64(nil, uint64(i)<<16|uint64(r))
				if _, seen := model[string(key)]; !seen {
					order = append(order, string(key))
				}
				model[string(key)] = append(model[string(key)], v)
				if collide && len(key) > 0 {
					c.tab.add(1<<31|uint32(key[0]%3), key, v)
				} else {
					c.tab.AppendKV(key, v)
				}
			}
		}
		c.tab.flush()
		checkOutput(t, c, order, model)
	})
}

// pairChunk is MapBlock with the kernel writing every pair straight into
// the chunk's batch: the plain pair path a table without a fold must match.
func pairChunk(app *core.App, block []byte) *Chunk {
	c := getChunk()
	recs := app.Parse(block)
	c.records = len(recs)
	app.MapBatch(recs, &c.batch)
	return c
}

// FuzzCollectorGroup drives emit streams derived from raw input through
// MapBlock without a combiner and holds the table to the plain pair path.
// Each partition's runs must decode to the same pairs. Where the table
// spelled its pairs out, Partition must make the same runs, byte for byte,
// and the same MapStats. Where it counted the chunk, each run must be,
// byte for byte, the run kv.Batch.RunCounted makes of the plain run's pairs
// with each stretch of equal pairs counted by the test, and MapStats must
// be the plain path's but for the frame and stored bytes, which must be
// those reference runs'. The kernel
// emits every pair out of one scratch buffer it scrambles after each emit,
// so a table that kept a view of a key or a value instead of copying it
// shows. The first byte picks whether keys shrink to one byte (so they
// repeat), whether values shrink to at most one byte (so a key's values
// repeat, then change — the table counts a repeated value and spells its
// pairs out at the first that differs), whether every key's tag is forced
// onto one of three, the partition count, compression, and whether the
// stream is emitted three times with each key suffixed by its emission
// number (so at least probeKeys distinct keys come in fewer than two pairs
// each and the table gives counting up at the probe).
func FuzzCollectorGroup(f *testing.F) {
	f.Add([]byte("\x03the quick brown fox jumps over the lazy dog and the quick dog"))
	f.Add([]byte("\x06\x00\x01a\x01\x00\x01a\x00\x00\x00a\x01\x01\x01a\x02\x01\x00b"))
	f.Add(append([]byte{0x7f}, bytes.Repeat([]byte("\x05\x02some-keyvw"), 60)...))
	f.Add(append([]byte{0x81}, bytes.Repeat([]byte("\x05\x00abcdef"), 200)...))
	f.Add([]byte("\x10\x01\x01abx\x01\x01abx\x01\x01cdx\x01\x01abx\x01\x01aby\x01\x01cdx"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		shortKeys, shortVals, collide := data[0]&1 != 0, data[0]&2 != 0, data[0]&4 != 0
		parts, compress, many := int(data[0]>>3&7)+1, data[0]&0x40 != 0, data[0]&0x80 != 0
		pairs := fuzzPairs(data[1:])
		rounds := 1
		if many {
			rounds = 3
		}
		app := &core.App{
			Parse: func(block []byte) []kv.Pair { return []kv.Pair{{Value: block}} },
			MapBatch: func(_ []kv.Pair, out kv.Sink) {
				var scratch []byte
				for j := range rounds * len(pairs) {
					p := pairs[j%len(pairs)]
					k, v := p.Key, p.Value
					if shortKeys {
						k = k[:1]
					}
					if k[0]%17 == 0 {
						k = nil // the empty key
					}
					if shortVals {
						v = v[:min(len(v), 1)]
					}
					scratch = append(scratch[:0], k...)
					if many {
						scratch = binary.BigEndian.AppendUint16(scratch, uint16(j))
					}
					kl := len(scratch)
					scratch = append(scratch, v...)
					k, v = scratch[:kl], scratch[kl:]
					if tab, ok := out.(*counter); ok && collide && !tab.spelled && len(k) > 0 {
						tab.add(1<<31|uint32(k[0]%3), k, v)
					} else {
						out.AppendKV(k, v)
					}
					for i := range scratch {
						scratch[i] = 0xa5
					}
				}
			},
		}
		pairRuns, pairStats := pairChunk(app, data).Partition(kv.Partition, parts, compress)
		hc := MapBlock(app, data, false)
		counted := hc.counted
		hashRuns, hashStats := hc.Partition(kv.Partition, parts, compress)
		refStats := pairStats
		refStats.PartFrame, refStats.PartStored = 0, 0
		for g := range pairRuns {
			if (pairRuns[g] == nil) != (hashRuns[g] == nil) {
				t.Fatalf("partition %d: plain pairs' run %v, table's %v", g, pairRuns[g], hashRuns[g])
			}
			if pairRuns[g] == nil {
				continue
			}
			want, err := pairRuns[g].Pairs()
			if err != nil {
				t.Fatal(err)
			}
			got, err := hashRuns[g].Pairs()
			if err != nil || !pairsEqual(got, want) {
				t.Fatalf("partition %d: the table's run decodes to %d pairs (err %v), the plain pairs' to %d", g, len(got), err, len(want))
			}
			ref := pairRuns[g]
			if counted {
				ref = countedRun(want, compress)
			}
			if !bytes.Equal(hashRuns[g].Blob(), ref.Blob()) || hashRuns[g].RawBytes != ref.RawBytes {
				t.Fatalf("partition %d (counted %v): the table's run differs from the reference's", g, counted)
			}
			refStats.PartFrame += ref.RawBytes
			refStats.PartStored += ref.StoredBytes()
		}
		if hashStats != refStats {
			t.Fatalf("counted %v: table's map stats %+v, want %+v", counted, hashStats, refStats)
		}
	})
}

// countedRun is the run kv.Batch.RunCounted makes of sorted pairs in which
// no key comes with two values, each stretch of equal pairs one counted
// key.
func countedRun(pairs []kv.Pair, compress bool) *kv.Run {
	var b kv.Batch
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && pairs[j].Compare(pairs[i]) == 0 {
			j++
		}
		b.AppendKV(pairs[i].Key, append(binary.BigEndian.AppendUint32(nil, uint32(j-i)), pairs[i].Value...))
		i = j
	}
	run, _ := b.RunCounted(0, b.Len(), compress)
	return run
}

// oneValuePerKey reports whether no key of the sorted pairs comes with two
// values.
func oneValuePerKey(pairs []kv.Pair) bool {
	for i := 1; i < len(pairs); i++ {
		if bytes.Equal(pairs[i].Key, pairs[i-1].Key) && !bytes.Equal(pairs[i].Value, pairs[i-1].Value) {
			return false
		}
	}
	return true
}

func pairsEqual(a, b []kv.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) {
			return false
		}
	}
	return true
}
