package native

import (
	"sync"

	"glasswing/internal/kv"
)

// arena is a chunk-scoped bump allocator for emitted key/value bytes. One
// emit costs a copy into the current block instead of a heap allocation;
// reset rewinds the cursor so pooled blocks are reused by the next chunk
// (the paper's per-emit buffer management done once per chunk, §IV-B1).
type arena struct {
	blocks [][]byte
	cur    int // block being filled
	off    int // write offset within blocks[cur]
}

// arenaBlockSize is the allocation granularity. Oversized values get a
// dedicated block; everything else packs into 64KiB slabs.
const arenaBlockSize = 64 << 10

// copyBytes copies b into the arena and returns the stable copy. The copy
// is valid until reset; callers hand these slices to kv.NewRun (which
// serializes them) before the owning chunk is released.
func (a *arena) copyBytes(b []byte) []byte {
	n := len(b)
	if n == 0 {
		return nil
	}
	for {
		if a.cur < len(a.blocks) {
			blk := a.blocks[a.cur]
			if a.off+n <= len(blk) {
				dst := blk[a.off : a.off+n : a.off+n]
				copy(dst, b)
				a.off += n
				return dst
			}
			a.cur++
			a.off = 0
			continue
		}
		size := arenaBlockSize
		if n > size {
			size = n
		}
		a.blocks = append(a.blocks, make([]byte, size))
	}
}

// reset rewinds the arena, keeping every block for reuse.
func (a *arena) reset() { a.cur, a.off = 0, 0 }

// hashEntry is one key's slot in the chunk hash collector: the arena-backed
// key and its chained values, in emission order.
type hashEntry struct {
	key  []byte
	vals [][]byte
}

// Chunk is one block's collected map output on pooled state: the arena
// backing all emitted bytes, the hash-collector table, and the output pair
// buffer. MapBlock acquires one per block and Partition releases it after
// the pairs are serialized into runs — so steady-state map output costs zero
// heap allocations beyond first-use pool warm-up.
type Chunk struct {
	ar      arena
	idx     map[string]int // key -> entries index
	entries []hashEntry
	out     []kv.Pair
	// batch is the columnar collector for batch-kernel chunks: the kernel
	// appends straight into its slab and Partition scatters, sorts and
	// serializes index ranges without ever materializing []Pair.
	batch kv.Batch
	// columnar marks a chunk whose output is batch rather than out.
	columnar bool
	records  int         // parsed input records the kernel consumed
	buckets  [][]kv.Pair // Partition's per-partition scratch, reused across chunks
}

var chunkPool = sync.Pool{
	New: func() any { return &Chunk{idx: make(map[string]int, 256)} },
}

func getChunk() *Chunk { return chunkPool.Get().(*Chunk) }

// Release resets the chunk and returns it to the pool. Its pairs are dead
// after this call.
func (c *Chunk) Release() {
	c.ar.reset()
	clear(c.idx)
	// Truncate entries without zeroing so each slot's vals slice keeps its
	// capacity for the next chunk (see addKey).
	c.entries = c.entries[:0]
	c.out = c.out[:0]
	c.batch.Reset()
	c.columnar = false
	chunkPool.Put(c)
}

// addKey claims the next entry slot for key, reusing the slot's previous
// vals capacity when the backing array is still there.
func (c *Chunk) addKey(key []byte) int {
	if len(c.entries) < cap(c.entries) {
		c.entries = c.entries[:len(c.entries)+1]
		e := &c.entries[len(c.entries)-1]
		e.key = key
		e.vals = e.vals[:0]
	} else {
		c.entries = append(c.entries, hashEntry{key: key})
	}
	return len(c.entries) - 1
}

// hashEmit is the hash-table collector: one slot per distinct key, values
// chained in arena memory. The only per-key heap cost is the map key
// string; per-value cost is an arena copy.
func (c *Chunk) hashEmit(k, v []byte) {
	i, ok := c.idx[string(k)] // no alloc: map lookup with converted key
	if !ok {
		key := c.ar.copyBytes(k)
		i = c.addKey(key)
		c.idx[string(key)] = i
	}
	e := &c.entries[i]
	e.vals = append(e.vals, c.ar.copyBytes(v))
}

// poolEmit is the buffer-pool collector (and the combiner's output sink):
// pairs appended directly, bytes in the arena.
func (c *Chunk) poolEmit(k, v []byte) {
	c.out = append(c.out, kv.Pair{Key: c.ar.copyBytes(k), Value: c.ar.copyBytes(v)})
}
