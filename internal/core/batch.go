package core

import "glasswing/internal/kv"

// MapBatchFunc is the map kernel: one call consumes a slab of records and
// appends every pair it emits to out, which copies (see kv.Sink) — so the
// kernel keeps its scratch on its own stack, amortized over the slab, and
// reuses it from pair to pair. It must not retain state across calls: a
// kernel is called concurrently from multiple workers.
type MapBatchFunc func(recs []kv.Pair, out kv.Sink)

// ReduceBatchFunc is the reduce and the combine kernel: one key group in,
// output pairs appended to out, which copies, so the kernel may emit views
// into key and values or stack scratch. The values slice is the kernel's
// for the call only — the real runtimes refill it for the next group — so
// a kernel must not keep it. out is the concrete batch, not a
// kv.Sink: a value encoded into stack scratch would escape to the heap
// through an interface call, one allocation per group.
type ReduceBatchFunc func(key []byte, values [][]byte, out *kv.Batch)

// CombineSorted applies the app's combiner to each key group of b's sorted
// records [lo,hi) and encodes its output as an uncompressed run: the
// map-side combine of the engines that sort before they combine.
func CombineSorted(app *App, b *kv.Batch, lo, hi int) *kv.Run {
	pairs := make([]kv.Pair, 0, hi-lo)
	for i := lo; i < hi; i++ {
		pairs = append(pairs, b.Pair(i))
	}
	gi := kv.NewGroupIter(kv.NewSliceIter(pairs))
	var out kv.Batch
	for {
		g, ok := gi.Next()
		if !ok {
			return kv.NewRun(out.Pairs(nil), false)
		}
		app.Combine(g.Key, g.Values, &out)
	}
}
