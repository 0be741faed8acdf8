package native

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/kv"
)

// concat is an order-sensitive, associative combiner: folding a chain in
// any head-replacing windows must give the concatenation of the key's
// values in emission order, or a value was lost, repeated or reordered.
func concat(key []byte, values [][]byte, out *kv.Batch) {
	out.AppendKV(key, bytes.Join(values, nil))
}

// resetChunk is Release without the pool, so a test keeps the same state
// across generations whatever sync.Pool decides.
func resetChunk(c *Chunk) {
	c.tab.reset()
	c.batch.Reset()
}

// TestCombinerMatchesModel drives random emit streams through the table and
// a map[string][][]byte model: empty keys and values, a key above 64 KiB
// (far larger than a fresh arena), a third of the keys forced onto one tag (so they share a
// probe path), enough distinct keys to double the index several times, and
// the same pooled state reused for every stream.
func TestCombinerMatchesModel(t *testing.T) {
	c := newChunk()
	c.tab.combine = concat
	huge := bytes.Repeat([]byte("k"), 64<<10+17)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		model := map[string][][]byte{}
		var order []string
		nkeys := 1 << (4 + 2*seed) // 16 .. 16384: up to five growths of 1024 slots
		for i := 0; i < 40000; i++ {
			var k []byte
			switch r := rng.Intn(100); {
			case r == 0:
				k = nil
			case r == 1:
				k = huge
			default:
				// Zipf-ish: low ids repeat often enough to fold many times.
				id := rng.Intn(nkeys)
				if rng.Intn(2) == 0 {
					id = rng.Intn(8)
				}
				k = []byte(fmt.Sprintf("key-%d-%d", seed, id))
			}
			v := make([]byte, rng.Intn(9))
			rng.Read(v)
			if _, seen := model[string(k)]; !seen {
				order = append(order, string(k))
			}
			model[string(k)] = append(model[string(k)], v)
			if len(k) > 0 && k[len(k)-1]%3 == 0 {
				c.tab.add(1<<31|7, k, v)
			} else {
				c.tab.AppendKV(k, v)
			}
		}
		c.tab.flush()
		if len(c.tab.slots) < 2*len(order) || len(c.tab.slots)&(len(c.tab.slots)-1) != 0 {
			t.Fatalf("seed %d: %d slots for %d keys", seed, len(c.tab.slots), len(order))
		}
		if c.batch.Len() != len(order) {
			t.Fatalf("seed %d: %d pairs out, want one per distinct key (%d)", seed, c.batch.Len(), len(order))
		}
		for i, k := range order {
			p := c.batch.Pair(i)
			if string(p.Key) != k {
				t.Fatalf("seed %d: output %d is key %.20q, want %.20q (first-emission order)", seed, i, p.Key, k)
			}
			if want := bytes.Join(model[k], nil); !bytes.Equal(p.Value, want) {
				t.Fatalf("seed %d: key %.20q folded to %x, want %x", seed, k, p.Value, want)
			}
		}
		resetChunk(c)
	}
}

// TestCombinerChainLengths pins when a chain folds: the emit that makes it
// chainMax long, with the result standing first in the next chain.
func TestCombinerChainLengths(t *testing.T) {
	const K = chainMax
	for n, want := range map[int][]int{
		1:       {1},
		K - 1:   {K - 1},
		K:       {K, 1},
		K + 1:   {K, 2},
		2*K - 1: {K, K, 1},
		2*K + 1: {K, K, 3},
	} {
		c := newChunk()
		var calls []int
		c.tab.combine = func(key []byte, values [][]byte, out *kv.Batch) {
			calls = append(calls, len(values))
			if len(calls) > 1 && !bytes.HasPrefix(values[0], []byte{0}) {
				t.Fatalf("n=%d: call %d does not start with the earlier result: %x", n, len(calls), values[0])
			}
			concat(key, values, out)
		}
		var all []byte
		for i := 0; i < n; i++ {
			c.tab.AppendKV([]byte("k"), []byte{byte(i)})
			all = append(all, byte(i))
		}
		c.tab.flush()
		if fmt.Sprint(calls) != fmt.Sprint(want) {
			t.Fatalf("n=%d: Combine saw chains of %v, want %v", n, calls, want)
		}
		if c.batch.Len() != 1 || !bytes.Equal(c.batch.Pair(0).Value, all) {
			t.Fatalf("n=%d: output %v", n, c.batch.Pairs(nil))
		}
	}
}

// TestCombinerStateReuse runs three generations with disjoint key sets
// through the same state: a slot left over from an earlier generation must
// never resolve to a new generation's entry, and nothing of an earlier
// generation may reach a later output.
func TestCombinerStateReuse(t *testing.T) {
	c := newChunk()
	c.tab.combine = concat
	for gen := 0; gen < 3; gen++ {
		if len(c.tab.entries) != 0 || c.batch.Len() != 0 {
			t.Fatalf("gen %d: dirty state", gen)
		}
		for _, s := range c.tab.slots {
			if s.tag != 0 {
				t.Fatalf("gen %d: stale slot %+v", gen, s)
			}
		}
		// Fewer keys each generation, so stale entry indexes would point
		// past — or worse, into — the new generation's entries.
		keys := 3000 >> gen
		for i := 0; i < 4*keys; i++ {
			c.tab.AppendKV([]byte(fmt.Sprintf("gen%d-key%d", gen, i%keys)), []byte{byte(gen), byte(i / keys)})
		}
		c.tab.flush()
		if c.batch.Len() != keys {
			t.Fatalf("gen %d: %d keys out, want %d", gen, c.batch.Len(), keys)
		}
		for i := 0; i < keys; i++ {
			p := c.batch.Pair(i)
			g := byte(gen)
			if want := fmt.Sprintf("gen%d-key%d", gen, i); string(p.Key) != want || !bytes.Equal(p.Value, []byte{g, 0, g, 1, g, 2, g, 3}) {
				t.Fatalf("gen %d: output %d = %q %x", gen, i, p.Key, p.Value)
			}
		}
		resetChunk(c)
	}
}

// TestCombinerOddOutput: a combiner that renames its key, one that emits
// nothing and one that emits two pairs are all legal; whatever they emit
// reaches the chunk's output exactly once, whether the call was a mid-block
// fold or the end-of-block pass, and an emptied chain is never combined.
func TestCombinerOddOutput(t *testing.T) {
	const n = 3*chainMax + 5
	emitAll := func(c *Chunk) (all []byte) {
		for i := 0; i < n; i++ {
			c.tab.AppendKV([]byte("a"), []byte{byte(i)})
			c.tab.AppendKV([]byte("b"), []byte{byte(i)})
			if i < chainMax {
				// Exactly one full chain: empty when the block ends unless
				// the combiner handed back a head.
				c.tab.AppendKV([]byte("c"), []byte{byte(i)})
			}
			all = append(all, byte(i))
		}
		c.tab.flush()
		return all
	}
	// joined concatenates the output values of key in output order.
	joined := func(c *Chunk, key string) (out []byte, pairs int) {
		for i := 0; i < c.batch.Len(); i++ {
			if p := c.batch.Pair(i); string(p.Key) == key {
				out = append(out, p.Value...)
				pairs++
			}
		}
		return out, pairs
	}
	nonEmpty := func(values [][]byte) {
		if len(values) == 0 {
			t.Fatal("Combine called on an empty chain")
		}
	}

	t.Run("renames", func(t *testing.T) {
		c := newChunk()
		c.tab.combine = func(key []byte, values [][]byte, out *kv.Batch) {
			nonEmpty(values)
			out.AppendKV(append([]byte("x-"), key...), bytes.Join(values, nil))
		}
		all := emitAll(c)
		for _, k := range []string{"x-a", "x-b"} {
			if got, _ := joined(c, k); !bytes.Equal(got, all) {
				t.Fatalf("key %s: values %x, want each of %d once in order", k, got, n)
			}
		}
		if got, _ := joined(c, "a"); got != nil {
			t.Fatalf("original key in the output: %x", got)
		}
	})
	t.Run("emits nothing", func(t *testing.T) {
		c := newChunk()
		c.tab.combine = func(key []byte, values [][]byte, out *kv.Batch) { nonEmpty(values) }
		emitAll(c)
		if c.batch.Len() != 0 {
			t.Fatalf("%d pairs from a combiner that emits none", c.batch.Len())
		}
	})
	t.Run("emits two", func(t *testing.T) {
		c := newChunk()
		c.tab.combine = func(key []byte, values [][]byte, out *kv.Batch) {
			nonEmpty(values)
			out.AppendKV(key, bytes.Join(values[:len(values)/2], nil))
			out.AppendKV(key, bytes.Join(values[len(values)/2:], nil))
		}
		all := emitAll(c)
		for _, k := range []string{"a", "b"} {
			got, pairs := joined(c, k)
			if !bytes.Equal(got, all) || pairs != 2*4 {
				t.Fatalf("key %s: %d pairs carrying %x, want 8 carrying each of %d values once", k, pairs, got, n)
			}
		}
	})
	t.Run("same key then another", func(t *testing.T) {
		// The first pair alone would be a chain head; the second makes both
		// plain output.
		c := newChunk()
		c.tab.combine = func(key []byte, values [][]byte, out *kv.Batch) {
			out.AppendKV(key, bytes.Join(values, nil))
			out.AppendKV([]byte("other"), []byte{byte(len(values))})
		}
		all := emitAll(c)
		if got, _ := joined(c, "a"); !bytes.Equal(got, all) {
			t.Fatalf("key a: %x", got)
		}
		if _, pairs := joined(c, "other"); pairs != 2*4+1 {
			t.Fatalf("%d pairs under the second key, want one per Combine call (9)", pairs)
		}
	})
}

// TestFoldIsBitIdentical: for the two combiners the registry apps use,
// folding a value list through the table — head-replacing windows of
// chainMax — gives byte for byte what one Combine over the whole list
// gives. For sumCounts that is integer addition; for KMeans' float sums it
// holds because a fold result re-enters first, so the additions happen in
// the same left-to-right order.
func TestFoldIsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	points, spec := apps.KMData(9, 4000, 4, 3)
	km := apps.KMeans(spec)
	var kmVals [][]byte
	var mapped kv.Batch
	km.MapBatch(km.Parse(points), &mapped)
	for i := 0; i < mapped.Len(); i++ {
		kmVals = append(kmVals, mapped.Pair(i).Value)
	}
	wc := apps.WordCount()
	wcVals := make([][]byte, 4000)
	for i := range wcVals {
		wcVals[i] = make([]byte, 4)
		rng.Read(wcVals[i])
	}
	for _, tc := range []struct {
		name string
		vals [][]byte
		comb core.ReduceBatchFunc
	}{
		{"KMeans agg", kmVals, km.Combine},
		{"sumCounts", wcVals, wc.Combine},
	} {
		for _, n := range []int{1, chainMax - 1, chainMax, chainMax + 1, 2*chainMax + 1, 1000, len(tc.vals)} {
			vals := tc.vals[:n]
			rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			var whole kv.Batch
			tc.comb([]byte("key"), vals, &whole)
			want := whole.Pair(0).Value
			c := newChunk()
			c.tab.combine = tc.comb
			for _, v := range vals {
				c.tab.AppendKV([]byte("key"), v)
			}
			c.tab.flush()
			if c.batch.Len() != 1 || !bytes.Equal(c.batch.Pair(0).Value, want) {
				t.Fatalf("%s over %d values: folded %x, one Combine %x", tc.name, n, c.batch.Pair(0).Value, want)
			}
		}
	}
}
