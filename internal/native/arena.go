package native

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
	"sync"

	"glasswing/internal/kv"
)

// recHdr is the header of one arena record: the key's and the
// accumulator's lengths.
const recHdr = 8

// slot is one cell of the open-addressed index. tag is the key's hash with
// the top bit set, so zero means empty.
type slot struct {
	tag uint32
	off uint32 // the key's record in the arena
}

// combiner is the combining collector (§III-F): an open-addressed hash
// table that folds each value into its key's accumulator as it is emitted,
// through App.Fold, rather than storing it. A distinct key is one arena
// record, [klen u32][alen u32][key][acc], so a repeated key touches its
// slot and one record. Records are appended in first-emission order, which
// is the order flush walks them in — a chunk's output never depends on the
// hash.
type combiner struct {
	// arena is a chunk-scoped bump allocator for the records, named by
	// 32-bit offsets so slots hold no pointers for the collector to trace.
	// A new key costs a copy into it instead of a heap allocation, and a
	// pooled chunk reuses it (the paper's per-emit buffer management done
	// once per chunk, §IV-B1).
	arena []byte
	slots []slot // power-of-two length, at most half full
	keys  int    // records in the arena

	fold func(acc, v []byte)
	out  *kv.Batch // the chunk's output
}

var hashSeed = maphash.MakeSeed()

// AppendKV adds one pair to the table: it is the map kernel's kv.Sink when
// the job combines.
func (c *combiner) AppendKV(k, v []byte) {
	h := maphash.Bytes(hashSeed, k)
	c.add(uint32(h>>32)|1<<31, k, v)
}

// add is AppendKV with the key's tag given, which lets a test force
// collisions.
func (c *combiner) add(tag uint32, k, v []byte) {
	mask := uint32(len(c.slots) - 1)
	i := tag & mask
	for {
		s := c.slots[i]
		if s.tag == 0 {
			break
		}
		if s.tag == tag {
			if key, acc := c.record(s.off); string(key) == string(k) {
				c.fold(acc, v)
				return
			}
		}
		i = (i + 1) & mask
	}
	if 2*(c.keys+1) > len(c.slots) {
		c.grow()
		i = c.free(tag)
	}
	off, n := len(c.arena), recHdr+len(k)+len(v)
	if off+n > math.MaxUint32 {
		panic("native: chunk collector arena exceeds 4GiB")
	}
	c.arena = slices.Grow(c.arena, n)[:off+n]
	r := c.arena[off:]
	binary.LittleEndian.PutUint32(r, uint32(len(k)))
	binary.LittleEndian.PutUint32(r[4:], uint32(len(v)))
	copy(r[recHdr:], k)
	acc := r[recHdr+len(k):]
	clear(acc)
	c.fold(acc, v)
	c.slots[i] = slot{tag: tag, off: uint32(off)}
	c.keys++
}

// record returns the key and accumulator of the record at off, as views
// into the arena.
func (c *combiner) record(off uint32) (key, acc []byte) {
	r := c.arena[off:]
	klen := binary.LittleEndian.Uint32(r)
	end := recHdr + klen + binary.LittleEndian.Uint32(r[4:])
	return r[recHdr : recHdr+klen], r[recHdr+klen : end : end]
}

// free returns the first empty slot on tag's probe path.
func (c *combiner) free(tag uint32) uint32 {
	mask := uint32(len(c.slots) - 1)
	i := tag & mask
	for c.slots[i].tag != 0 {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the index. Tags carry every bit a larger mask needs, so
// re-placing them never touches a key.
func (c *combiner) grow() {
	old := c.slots
	c.slots = make([]slot, 2*len(old))
	for _, s := range old {
		if s.tag != 0 {
			c.slots[c.free(s.tag)] = s
		}
	}
}

// flush appends every key with its accumulator to the chunk's output, in
// first-emission order.
func (c *combiner) flush() {
	for off := 0; off < len(c.arena); {
		key, acc := c.record(uint32(off))
		c.out.AppendKV(key, acc)
		off += recHdr + len(key) + len(acc)
	}
}

func (c *combiner) reset() {
	c.arena = c.arena[:0]
	clear(c.slots)
	c.keys = 0
}

// Chunk is one block's collected map output on pooled state. Whatever the
// collector, the output is the columnar batch: the kernel (or the combining
// table, when the job combines) appends into its slab, and Partition
// scatters, sorts and serializes index ranges of it without materializing
// a []Pair. MapBlock acquires a chunk per block and Partition releases it
// once the runs own their bytes, so a warm pool serves a block from
// retained capacity; the pool is emptied by the garbage collector, and the
// first blocks after that grow their slabs again.
type Chunk struct {
	batch   kv.Batch // the chunk's output
	tab     combiner
	records int // parsed input records the kernel consumed
}

func newChunk() *Chunk {
	c := &Chunk{}
	c.tab.slots = make([]slot, 1024)
	c.tab.out = &c.batch
	return c
}

var chunkPool = sync.Pool{New: func() any { return newChunk() }}

func getChunk() *Chunk { return chunkPool.Get().(*Chunk) }

// Release resets the chunk and returns it to the pool. Its pairs are dead
// after this call.
func (c *Chunk) Release() {
	c.tab.reset()
	c.batch.Reset()
	chunkPool.Put(c)
}
