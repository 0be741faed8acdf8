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

// table is the hash-table collector (§III-C, §IV-B1): an open-addressed
// hash table that stores each distinct key once, as one arena record,
// [klen u32][alen u32][key][acc], so a repeated key touches its slot and
// one record. Records are appended in first-emission order, which is the
// order flush walks them in — a chunk's output never depends on the hash.
// The kernel's sink is the table itself when the job combines (§III-F):
// it folds each value into its key's accumulator as it is emitted,
// through App.Fold, rather than storing it. Without a combiner the sink
// is the same table as a counter.
type table struct {
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

	pairs   int  // pairs a counter took
	spelled bool // the counter stopped counting: pairs go to out
}

// counter is the table without a fold: acc is a big-endian u32 count and
// the key's first value, and the key stands for that many copies of the
// pair (kv.Batch.RunCounted), so Partition handles each key once, not
// each pair it repeats in. Counting pays only where pairs repeat, so the
// counter spells its pairs out into the chunk's output and passes every
// later pair straight there — the chunk becomes a plain pair chunk — as
// soon as a key brings a second value, or when, at a power-of-two key
// count from probeKeys on, fewer than two pairs per key have come.
type counter table

// countLen is the length of a counting record's count, ahead of its value.
const countLen = 4

// probeKeys is the first key count at which a counter checks that pairs
// repeat. Two pairs per key is where counting breaks even with handing
// the pairs on (map side and partition of 16 k pairs with constant
// values, shuffled keys). On 256 KiB blocks of the benchmark's Zipf text
// (four seeds, three offsets each) the first 256 distinct words come in
// 2.7–3.2 pairs per word; TeraSort's unique keys come in one pair each.
const probeKeys = 256

var hashSeed = maphash.MakeSeed()

func tagOf(k []byte) uint32 { return uint32(maphash.Bytes(hashSeed, k)>>32) | 1<<31 }

// AppendKV folds one pair into the table: it is the map kernel's kv.Sink
// when the job combines.
func (c *table) AppendKV(k, v []byte) { c.add(tagOf(k), k, v) }

// add is AppendKV with the key's tag given, which lets a test force
// collisions.
func (c *table) add(tag uint32, k, v []byte) {
	mask := uint32(len(c.slots) - 1)
	i := tag & mask
	for ; c.slots[i].tag != 0; i = (i + 1) & mask {
		if s := c.slots[i]; s.tag == tag {
			if key, acc := c.record(s.off); string(key) == string(k) {
				c.fold(acc, v)
				return
			}
		}
	}
	acc := c.insert(i, tag, k, len(v))
	clear(acc)
	c.fold(acc, v)
}

// AppendKV counts one pair: it is the map kernel's kv.Sink without a
// combiner.
func (c *counter) AppendKV(k, v []byte) {
	if c.spelled {
		c.out.AppendKV(k, v)
		return
	}
	c.add(tagOf(k), k, v)
}

// add is AppendKV on a counter still counting, with the key's tag given.
// It probes as the table's add does; each keeps its own loop so that
// neither sink pays a call per pair for the other's sake.
func (c *counter) add(tag uint32, k, v []byte) {
	c.pairs++
	t := (*table)(c)
	mask := uint32(len(c.slots) - 1)
	i := tag & mask
	for ; c.slots[i].tag != 0; i = (i + 1) & mask {
		if s := c.slots[i]; s.tag == tag {
			if key, acc := t.record(s.off); string(key) == string(k) {
				n := binary.BigEndian.Uint32(acc)
				if string(acc[countLen:]) != string(v) || n == math.MaxUint32 {
					c.spell()
					c.out.AppendKV(k, v)
					return
				}
				binary.BigEndian.PutUint32(acc, n+1)
				return
			}
		}
	}
	acc := t.insert(i, tag, k, countLen+len(v))
	binary.BigEndian.PutUint32(acc, 1)
	copy(acc[countLen:], v)
	if c.keys >= probeKeys && c.keys&(c.keys-1) == 0 && c.pairs < 2*c.keys {
		c.spell()
	}
}

// spell makes the counter a plain sink for the rest of the chunk: it
// appends each record's pairs to the output, in first-emission order, and
// AppendKV passes every later pair straight there.
func (c *counter) spell() {
	for off := 0; off < len(c.arena); {
		key, acc := (*table)(c).record(uint32(off))
		for n := binary.BigEndian.Uint32(acc); n > 0; n-- {
			c.out.AppendKV(key, acc[countLen:])
		}
		off += recHdr + len(key) + len(acc)
	}
	c.spelled = true
}

// insert appends a record for k with an alen-byte acc, indexes it at
// empty slot i (or, if the index must grow first, on tag's probe path in
// the grown one) and returns its acc.
func (c *table) insert(i, tag uint32, k []byte, alen int) []byte {
	if 2*(c.keys+1) > len(c.slots) {
		c.grow()
		i = c.free(tag)
	}
	off, n := len(c.arena), recHdr+len(k)+alen
	if off+n > math.MaxUint32 {
		panic("native: chunk collector arena exceeds 4GiB")
	}
	c.arena = slices.Grow(c.arena, n)[:off+n]
	r := c.arena[off:]
	binary.LittleEndian.PutUint32(r, uint32(len(k)))
	binary.LittleEndian.PutUint32(r[4:], uint32(alen))
	copy(r[recHdr:], k)
	c.slots[i] = slot{tag: tag, off: uint32(off)}
	c.keys++
	return r[recHdr+len(k) : n : n]
}

// Len returns the number of records in the table's arena plus the pairs in
// its output; both are zero once the chunk is released.
func (c *table) Len() int { return c.keys + c.out.Len() }

// Len is the table's.
func (c *counter) Len() int { return (*table)(c).Len() }

// record returns the key and accumulator of the record at off, as views
// into the arena.
func (c *table) record(off uint32) (key, acc []byte) {
	r := c.arena[off:]
	klen := binary.LittleEndian.Uint32(r)
	end := recHdr + klen + binary.LittleEndian.Uint32(r[4:])
	return r[recHdr : recHdr+klen], r[recHdr+klen : end : end]
}

// free returns the first empty slot on tag's probe path.
func (c *table) free(tag uint32) uint32 {
	mask := uint32(len(c.slots) - 1)
	i := tag & mask
	for c.slots[i].tag != 0 {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the index. Tags carry every bit a larger mask needs, so
// re-placing them never touches a key.
func (c *table) grow() {
	old := c.slots
	c.slots = make([]slot, 2*len(old))
	for _, s := range old {
		if s.tag != 0 {
			c.slots[c.free(s.tag)] = s
		}
	}
}

// flush appends every key with its acc to the chunk's output, in
// first-emission order.
func (c *table) flush() {
	for off := 0; off < len(c.arena); {
		key, acc := c.record(uint32(off))
		c.out.AppendKV(key, acc)
		off += recHdr + len(key) + len(acc)
	}
}

func (c *table) reset() {
	c.arena = c.arena[:0]
	clear(c.slots)
	c.keys, c.pairs = 0, 0
	c.spelled = false
}

// Chunk is one block's collected map output on pooled state, in a
// columnar batch that Partition scatters, sorts and serializes by index
// range without materializing a []Pair. The kernel's sink is the chunk's
// table, which flushes one pair per distinct key into batch — the key
// with its accumulator or its count — or, once it spelled its pairs out,
// has put every pair there. MapBlock acquires a chunk per block and
// Partition releases it once the runs own their bytes, so a warm pool
// serves a block from retained capacity; the pool is emptied by the
// garbage collector, and the first blocks after that grow their slabs
// again.
type Chunk struct {
	batch   kv.Batch // the chunk's output
	tab     table
	counted bool // batch holds counted keys (kv.Batch.RunCounted)
	records int  // parsed input records the kernel consumed
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
	c.reset()
	chunkPool.Put(c)
}

func (c *Chunk) reset() {
	c.tab.reset()
	c.batch.Reset()
	c.counted = false
}
