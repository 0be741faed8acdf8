package native

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/kv"
)

// orderFold is an order-sensitive fixed-width test fold over 8-byte values:
// acc = acc*prime ^ v. Folding a key's values from zero gives a different
// word if a value is lost, repeated or reordered, or if the accumulator does
// not start zeroed.
func orderFold(acc, v []byte) {
	if len(acc) != 8 || len(v) != 8 {
		panic(fmt.Sprintf("orderFold: %d-byte value into a %d-byte accumulator", len(v), len(acc)))
	}
	binary.LittleEndian.PutUint64(acc, binary.LittleEndian.Uint64(acc)*0x100000001b3^binary.LittleEndian.Uint64(v))
}

// foldAll is the model: orderFold over vals from a zeroed accumulator.
func foldAll(vals [][]byte) []byte {
	acc := make([]byte, 8)
	for _, v := range vals {
		orderFold(acc, v)
	}
	return acc
}

// checkOutput holds a flushed chunk to the model: one pair per distinct key,
// in first-emission order, carrying the fold of the key's values.
func checkOutput(t *testing.T, c *Chunk, order []string, model map[string][][]byte) {
	t.Helper()
	if c.batch.Len() != len(order) {
		t.Fatalf("%d pairs out, want one per distinct key (%d)", c.batch.Len(), len(order))
	}
	for i, k := range order {
		p := c.batch.Pair(i)
		if string(p.Key) != k {
			t.Fatalf("output %d is key %.20q, want %.20q (first-emission order)", i, p.Key, k)
		}
		if want := foldAll(model[k]); !bytes.Equal(p.Value, want) {
			t.Fatalf("key %.20q folded to %x, want %x", k, p.Value, want)
		}
	}
}

// TestCombinerMatchesModel drives random emit streams through the table and
// a map[string][][]byte model: the empty key, a key above 64 KiB (far
// larger than a fresh arena), a third of the keys forced onto one tag (so
// they share a probe path), enough distinct keys to double the index five
// times, and the same pooled state reused for every stream.
func TestCombinerMatchesModel(t *testing.T) {
	c := newChunk()
	c.tab.fold = orderFold
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
				// Zipf-ish: low ids repeat often.
				id := rng.Intn(nkeys)
				if rng.Intn(2) == 0 {
					id = rng.Intn(8)
				}
				k = []byte(fmt.Sprintf("key-%d-%d", seed, id))
			}
			v := make([]byte, 8)
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
		if seed == 5 && len(c.tab.slots) != 1024<<5 {
			t.Fatalf("seed %d: %d slots, want five growths of 1024", seed, len(c.tab.slots))
		}
		checkOutput(t, c, order, model)
		c.reset() // Release without the pool: the same state for every generation
	}
}

// TestCombinerStateReuse runs three generations with disjoint key sets
// through the same state: a slot left over from an earlier generation must
// never resolve to a new generation's record, an accumulator must start
// zeroed over an earlier generation's arena bytes, and nothing of an
// earlier generation may reach a later output.
func TestCombinerStateReuse(t *testing.T) {
	c := newChunk()
	c.tab.fold = orderFold
	for gen := 0; gen < 3; gen++ {
		if c.tab.keys != 0 || len(c.tab.arena) != 0 || c.batch.Len() != 0 {
			t.Fatalf("gen %d: dirty state", gen)
		}
		for _, s := range c.tab.slots {
			if s.tag != 0 {
				t.Fatalf("gen %d: stale slot %+v", gen, s)
			}
		}
		// Fewer keys each generation, so stale record offsets would point
		// past — or worse, into — the new generation's records.
		keys := 3000 >> gen
		model := map[string][][]byte{}
		var order []string
		for i := 0; i < 4*keys; i++ {
			k := fmt.Sprintf("gen%d-key%d", gen, i%keys)
			v := []byte{byte(gen), byte(i / keys), 0, 0, 0, 0, 0, byte(i)}
			if i < keys {
				order = append(order, k)
			}
			model[k] = append(model[k], v)
			c.tab.AppendKV([]byte(k), v)
		}
		c.tab.flush()
		checkOutput(t, c, order, model)
		c.reset() // Release without the pool: the same state for every generation
	}
}

// TestFoldIsBitIdentical: for the registry apps' folds — WC's and PVC's u32
// add, KMeans' float sums — folding a value list through the table gives
// byte for byte what one Combine over the whole list gives. For the counts
// that is wrapping integer addition; for KMeans it holds because the
// accumulator starts at +0.0 and adds in the same left-to-right order. A
// point with a -0.0 coordinate standing first, or alone, tells a zeroed
// accumulator (+0.0 + -0.0 = +0.0, as in Combine) from one that starts as a
// copy of the first value (-0.0).
func TestFoldIsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	points, spec := apps.KMData(9, 4000, 4, 3)
	km := apps.KMeans(spec)
	var mapped kv.Batch
	km.MapBatch(km.Parse(points), &mapped)
	var kmVals [][]byte
	for i := 0; i < mapped.Len(); i++ {
		kmVals = append(kmVals, mapped.Pair(i).Value)
	}
	negZero := bytes.Clone(kmVals[0])
	binary.LittleEndian.PutUint64(negZero, math.Float64bits(math.Copysign(0, -1)))
	counts := make([][]byte, 4000)
	for i := range counts {
		counts[i] = make([]byte, 4)
		rng.Read(counts[i])
	}
	for _, tc := range []struct {
		name string
		app  *core.App
		vals [][]byte
	}{
		{"WC", apps.WordCount(), counts},
		{"PVC", apps.PageviewCount(), counts},
		{"KMeans", km, kmVals},
		{"KMeans -0.0 first", km, append([][]byte{negZero}, kmVals...)},
	} {
		for _, n := range []int{1, 2, 33, 4000} {
			vals := tc.vals[:n]
			var whole kv.Batch
			tc.app.Combine([]byte("key"), vals, &whole)
			want := whole.Pair(0).Value
			c := newChunk()
			c.tab.fold = tc.app.Fold
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
