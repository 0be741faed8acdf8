package core

import (
	"math"

	"glasswing/internal/cl"
	"glasswing/internal/kv"
)

// collector is the device-side mechanism that harvests map kernel output
// (§III-F). Both implementations process real pairs; alongside, they count
// the atomic work and memory traffic the hardware would spend, which the
// kernel stage folds into its launch stats.
type collector interface {
	reset()
	// AppendKV collects one emitted pair: the map kernel writes into the
	// collector as its kv.Sink.
	kv.Sink
	// emits returns the number of pairs collected since reset.
	emits() int
	// kernelStats is the atomic/traffic cost accumulated by emits so far.
	kernelStats() cl.Stats
	// finish ends the chunk: it returns the batch of intermediate pairs
	// that leaves with the chunk, any extra kernel work (combiner or
	// compaction kernel), and the host-side cost of decoding one pair in
	// the partitioning stage. reset starts a new batch, so the one finish
	// returned stays intact while the chunk waits in the pipeline's queues.
	finish() (out *kv.Batch, extra cl.Stats, decodePerPair float64)
}

// newCollector builds the collector selected by cfg for app.
func newCollector(app *App, cfg Config) collector {
	if cfg.Collector == HashTable {
		var comb ReduceBatchFunc
		if cfg.UseCombiner {
			comb = app.Combine
			if comb == nil {
				// Combining with no combiner function degenerates to a
				// plain hash table; the paper's API ties combiners to the
				// hash-table mechanism, so requesting one without
				// providing one is an application bug.
				panic("core: UseCombiner set but App.Combine is nil")
			}
		}
		return &hashCollector{combine: comb, combineCost: app.CombineCost}
	}
	return &poolCollector{}
}

// hashCollector stores each key once with a chained value list. Inserting
// under high key repetition contends: threads loop on the bucket before
// they can append (§IV-B1), modeled as log-growing atomic probes.
type hashCollector struct {
	order   []string
	entries map[string][][]byte
	nemits  int
	stats   cl.Stats
	out     *kv.Batch

	combine     ReduceBatchFunc
	combineCost CostModel
}

func (h *hashCollector) reset() {
	h.order = h.order[:0]
	// Clear the table in place rather than reallocating: the map's buckets
	// (sized by the largest chunk seen) are reused by every later chunk —
	// the same reset trick the native runtime's pooled chunk state uses.
	if h.entries == nil {
		h.entries = make(map[string][][]byte, 64)
	} else {
		clear(h.entries)
	}
	h.nemits = 0
	h.stats = cl.Stats{}
	h.out = new(kv.Batch)
}

func (h *hashCollector) AppendKV(key, value []byte) {
	k := string(key)
	vals, ok := h.entries[k]
	if !ok {
		h.order = append(h.order, k)
	}
	v := append([]byte(nil), value...)
	h.entries[k] = append(vals, v)
	h.nemits++
	// One successful atomic claim, plus retries that grow with how
	// contended this key already is within the chunk.
	h.stats.AtomicOps += 1 + math.Log2(1+float64(len(vals)))
	h.stats.Bytes += float64(len(key) + len(value))
}

func (h *hashCollector) emits() int { return h.nemits }

func (h *hashCollector) kernelStats() cl.Stats { return h.stats }

func (h *hashCollector) finish() (*kv.Batch, cl.Stats, float64) {
	var extra cl.Stats
	if h.combine != nil {
		// The combiner runs as a device kernel over the hash table,
		// aggregating each key's values in place.
		for _, k := range h.order {
			vals := h.entries[k]
			extra.Ops += h.combineCost.OpsPerRecord +
				h.combineCost.OpsPerValue*float64(len(vals))
			for _, v := range vals {
				extra.Bytes += float64(len(v))
			}
			before := h.out.Len()
			h.combine([]byte(k), vals, h.out)
			extra.Ops += h.combineCost.OpsPerEmit * float64(h.out.Len()-before)
		}
	} else {
		// Without a combiner Glasswing still runs a compacting kernel
		// after map() to place values of the same key in contiguous
		// memory, relieving the pipeline from decoding the whole hash
		// table memory space (§IV-B1).
		for _, k := range h.order {
			key := []byte(k)
			for _, v := range h.entries[k] {
				h.out.AppendKV(key, v)
				extra.Ops += 12
				extra.Bytes += float64(len(key) + len(v))
			}
		}
	}
	return h.out, extra, costDecodeHashPair
}

// poolCollector is the simple shared buffer pool: each thread allocates
// space with a single atomic operation (§IV-B1). Kernel-side it is the
// cheapest mechanism; the price is paid in the partitioning stage, which
// must decode every occurrence individually.
type poolCollector struct {
	out   *kv.Batch
	stats cl.Stats
}

func (b *poolCollector) reset() {
	b.out = new(kv.Batch)
	b.stats = cl.Stats{}
}

func (b *poolCollector) AppendKV(key, value []byte) {
	b.out.AppendKV(key, value)
	b.stats.AtomicOps++
	b.stats.Bytes += float64(len(key) + len(value))
}

func (b *poolCollector) emits() int { return b.out.Len() }

func (b *poolCollector) kernelStats() cl.Stats { return b.stats }

func (b *poolCollector) finish() (*kv.Batch, cl.Stats, float64) {
	return b.out, cl.Stats{}, costDecodeSimplePair
}
