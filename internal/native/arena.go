package native

import (
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
	"sync"

	"glasswing/internal/core"
	"glasswing/internal/kv"
)

// chainMax bounds a key's value chain: the emit that fills it folds the
// chain through App.Combine into one value.
const chainMax = 32

// frameHdr is the length prefix of one value in a chain buffer.
const frameHdr = 4

// slot is one cell of the open-addressed index. tag is the key's hash with
// the top bit set, so zero means empty.
type slot struct {
	tag uint32
	idx uint32 // into entries
}

// entry is one distinct key: its bytes in the arena, and its chain — a
// buffer in the arena with the values as length-prefixed frames, oldest
// first. A buffer that fills moves to one twice the size; a fold empties it
// in place, so a hot key keeps writing the same few cache lines. Entries
// are appended in first-emission order, which is the order flush walks them
// in — a chunk's output never depends on the hash.
type entry struct {
	key, klen uint32
	buf, cap  uint32
	used      uint32 // bytes of buf filled
	n         uint32 // values in buf, < chainMax between emits
}

// combiner is the combining collector (§III-F): an open-addressed hash
// table whose value chains are reduced as they are emitted rather than
// stored. A chain that fills is folded by App.Combine and its result put
// back at the chain's head, so a combiner sees a key's values in emission
// order with its own earlier result first, and a chunk never holds more
// than chainMax values of one key.
type combiner struct {
	// arena is a chunk-scoped bump allocator for keys and chains, named by
	// 32-bit offsets so entries hold no pointers for the collector to
	// trace. One emit costs a copy into it instead of a heap allocation,
	// and a pooled chunk reuses it (the paper's per-emit buffer management
	// done once per chunk, §IV-B1).
	arena   []byte
	slots   []slot // power-of-two length, at most half full
	entries []entry
	chain   [][]byte // take's view of one chain

	combine core.ReduceBatchFunc
	out     *kv.Batch // the chunk's output
	folded  kv.Batch  // what one mid-block Combine call emitted
}

// alloc reserves n bytes of arena and returns their offset. Growing the
// arena moves it; bytes handed out earlier stay readable where they were.
func (c *combiner) alloc(n int) uint32 {
	off := len(c.arena)
	if off+n > math.MaxUint32 {
		panic("native: chunk collector arena exceeds 4GiB")
	}
	c.arena = slices.Grow(c.arena, n)[:off+n]
	return uint32(off)
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
			e := &c.entries[s.idx]
			if string(c.arena[e.key:e.key+e.klen]) == string(k) {
				c.push(e, v)
				if e.n == chainMax {
					c.fold(e)
				}
				return
			}
		}
		i = (i + 1) & mask
	}
	if 2*(len(c.entries)+1) > len(c.slots) {
		c.grow()
		i = c.free(tag)
	}
	key := c.alloc(len(k))
	copy(c.arena[key:], k)
	c.slots[i] = slot{tag: tag, idx: uint32(len(c.entries))}
	c.entries = append(c.entries, entry{key: key, klen: uint32(len(k))})
	c.push(&c.entries[len(c.entries)-1], v)
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

// push appends a copy of v to e's chain.
func (c *combiner) push(e *entry, v []byte) {
	need := uint32(frameHdr + len(v))
	if e.used+need > e.cap {
		// First value: an exact fit, which is all a key seen once needs.
		size := max(2*e.cap, e.used+need)
		buf := c.alloc(int(size))
		copy(c.arena[buf:], c.arena[e.buf:e.buf+e.used])
		e.buf, e.cap = buf, size
	}
	b := c.arena[e.buf+e.used : e.buf+e.used+need]
	binary.LittleEndian.PutUint32(b, uint32(len(v)))
	copy(b[frameHdr:], v)
	e.used += need
	e.n++
}

// take empties e's chain and returns its key and values, oldest first, as
// views into the arena that the next push may overwrite.
func (c *combiner) take(e *entry) (key []byte, vals [][]byte) {
	vals = c.chain[:0]
	for b := c.arena[e.buf : e.buf+e.used]; len(b) > 0; {
		end := frameHdr + binary.LittleEndian.Uint32(b)
		vals = append(vals, b[frameHdr:end:end])
		b = b[end:]
	}
	e.used, e.n = 0, 0
	return c.arena[e.key : e.key+e.klen : e.key+e.klen], vals
}

// fold combines a chain that filled mid-block. A sole pair under the
// chain's own key becomes the chain's new head; anything else — another
// key, no pair, several pairs — is combiner output like any other and goes
// to the chunk's output as it stands.
func (c *combiner) fold(e *entry) {
	key, vals := c.take(e)
	c.combine(key, vals, &c.folded)
	if c.folded.Len() == 1 && string(c.folded.Pair(0).Key) == string(key) {
		c.push(e, c.folded.Pair(0).Value)
	} else {
		for i := 0; i < c.folded.Len(); i++ {
			p := c.folded.Pair(i)
			c.out.AppendKV(p.Key, p.Value)
		}
	}
	c.folded.Reset()
}

// flush combines what is left of every chain into the chunk's output, in
// first-emission order.
func (c *combiner) flush() {
	for i := range c.entries {
		if e := &c.entries[i]; e.n > 0 {
			key, vals := c.take(e)
			c.combine(key, vals, c.out)
		}
	}
}

func (c *combiner) reset() {
	c.arena = c.arena[:0]
	clear(c.slots)
	c.entries = c.entries[:0]
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
	c.tab.chain = make([][]byte, chainMax)
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
