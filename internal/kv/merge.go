package kv

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
)

// Iterator yields pairs in key order. Implementations are not safe for
// concurrent use; in the simulation each iterator is driven by one process.
type Iterator interface {
	// Next returns the next pair, or ok=false when exhausted. A pair stays
	// valid after later calls: no iterator overwrites bytes it has handed
	// out, so a consumer may hold a key group's pairs while it reads on.
	Next() (Pair, bool)
}

// SliceIter iterates over an in-memory pair slice (which must already be
// sorted if the iterator feeds a merge).
type SliceIter struct {
	pairs []Pair
	i     int
}

// NewSliceIter returns an iterator over pairs.
func NewSliceIter(pairs []Pair) *SliceIter { return &SliceIter{pairs: pairs} }

// Next implements Iterator.
func (s *SliceIter) Next() (Pair, bool) {
	if s.i >= len(s.pairs) {
		return Pair{}, false
	}
	p := s.pairs[s.i]
	s.i++
	return p, true
}

// framer is a sorted input read a frame at a time: a pair and the n ≥ 1
// equal pairs in a row it stands for, n = 0 at the end. A run's iterators
// are framers; a Merger reads any other Iterator through pairFrames.
type framer interface {
	nextFrame() (p Pair, n int, ok bool)
}

// pairFrames reads an Iterator as frames of one pair each.
type pairFrames struct{ Iterator }

func (f pairFrames) nextFrame() (Pair, int, bool) { p, ok := f.Next(); return p, 1, ok }

// Merger is a k-way merge over sorted inputs using a loser tree: leaf i
// (node k+i) is input i's head, each internal node 1..k-1 holds the input
// that lost the match played there, and win is the overall winner. Taking
// the winner's next pair replays only the matches on its leaf-to-root path
// — ⌈log2 k⌉ comparisons, against a binary heap's two per level — and the
// tree is int32s beside a typed head slice, not entries boxed through
// container/heap's any. Each head carries the first eight bytes of its key
// and value as big-endian integers, so most matches are decided, or found
// equal, without a call into bytes.Compare. An input is read a frame at a
// time, and a head that stands for n pairs plays its matches once: Next
// hands it out n times, and NextGroup takes a key group at a time off the
// same tree, replaying it once per input the key is in.
type Merger struct {
	src  []mergeSrc
	tree []int32
	win  int32
	vals [][]byte // NextGroup's values, reused from group to group
	most int      // the longest group since Reset: vals[most:] holds nil
}

type mergeSrc struct {
	it     framer
	head   Pair
	n      int    // the pairs head still stands for
	kp, vp uint64 // Prefix8 of head.Key, head.Value
	done   bool
}

// next advances the source to its next frame.
func (s *mergeSrc) next() { s.set(s.it.nextFrame()) }

// set makes p, standing for n pairs, the source's head, or marks the
// source exhausted.
func (s *mergeSrc) set(p Pair, n int, ok bool) {
	s.head, s.n = p, n
	s.kp, s.vp, s.done = Prefix8(p.Key), Prefix8(p.Value), !ok
}

// Prefix8 is b's first eight bytes, zero-padded, as a big-endian integer:
// prefixes order like the strings wherever they differ, so comparing them
// decides most comparisons of keys without reading the keys again.
func Prefix8(b []byte) uint64 {
	if len(b) >= 8 {
		return binary.BigEndian.Uint64(b)
	}
	var buf [8]byte
	copy(buf[:], b)
	return binary.BigEndian.Uint64(buf[:])
}

// compareRest orders two strings whose Prefix8 values are equal. When
// neither is longer than eight bytes, they agree on every byte they share
// and the longer one only adds zeros, so the shorter sorts first.
func compareRest(a, b []byte) int {
	if len(a) <= 8 && len(b) <= 8 {
		return cmp.Compare(len(a), len(b))
	}
	return bytes.Compare(a, b)
}

// Merge returns an iterator producing the union of the sorted inputs in
// key-then-value order, equal pairs in input order. This is the multi-way
// merge the paper's intermediate-data manager runs continuously (§III-B)
// and the reduce input reader runs one last time (§III-C).
func Merge(iters ...Iterator) Iterator {
	if len(iters) == 1 {
		return iters[0]
	}
	return NewMerger(iters...)
}

// NewMerger returns the merge of the sorted inputs, for a consumer that
// wants it pair by pair (Next, as Merge) or key group by key group
// (NextGroup).
func NewMerger(iters ...Iterator) *Merger {
	m := new(Merger)
	m.Reset(iters...)
	return m
}

// Reset makes m the merge of the sorted inputs. It keeps the storage of m's
// last merge, NextGroup's values slice above all, so a reducer that merges
// one partition after another grows that slice to its largest group once,
// not once per partition; it drops every pair of the last merge, so none
// of its runs stays alive.
func (m *Merger) Reset(iters ...Iterator) {
	clear(m.vals[:m.most])
	clear(m.src)
	m.src = slices.Grow(m.src[:0], len(iters))[:len(iters)]
	m.tree = slices.Grow(m.tree[:0], len(iters))[:len(iters)]
	m.win, m.most = 0, 0
	for i, it := range iters {
		f, ok := it.(framer)
		if !ok {
			f = pairFrames{it}
		}
		m.src[i].it = f
		m.src[i].next()
	}
	if len(iters) > 0 {
		m.win = m.play(1)
	}
}

// play fills the subtree under node with its matches and returns its
// winner.
func (m *Merger) play(node int) int32 {
	k := len(m.src)
	if node >= k {
		return int32(node - k)
	}
	a, b := m.play(2*node), m.play(2*node+1)
	if m.beats(b, a) {
		a, b = b, a
	}
	m.tree[node] = b
	return a
}

// beats reports whether input a's head comes out before input b's: an
// exhausted input loses to any other, and a tie goes to the lower input.
func (m *Merger) beats(a, b int32) bool {
	x, y := &m.src[a], &m.src[b]
	if x.done || y.done {
		return !x.done || (y.done && a < b)
	}
	if x.kp != y.kp {
		return x.kp < y.kp
	}
	if c := compareRest(x.head.Key, y.head.Key); c != 0 {
		return c < 0
	}
	if x.vp != y.vp {
		return x.vp < y.vp
	}
	if c := compareRest(x.head.Value, y.head.Value); c != 0 {
		return c < 0
	}
	return a < b
}

// replay plays input w's new head up its leaf-to-root path and sets the
// winner.
func (m *Merger) replay(w int32) {
	for node := (int(w) + len(m.src)) / 2; node > 0; node /= 2 {
		if m.beats(m.tree[node], w) {
			m.tree[node], w = w, m.tree[node]
		}
	}
	m.win = w
}

// Next implements Iterator.
func (m *Merger) Next() (Pair, bool) {
	if len(m.src) == 0 {
		return Pair{}, false
	}
	w := m.win
	s := &m.src[w]
	if s.done {
		return Pair{}, false
	}
	p := s.head
	if s.n > 1 {
		s.n-- // the head stands for more pairs, and still wins
		return p, true
	}
	s.next()
	m.replay(w)
	return p, true
}

// NextGroup returns the next key and all of its values in the order Merge
// yields them; ok is false at the end of the merge. The winning input hands
// over its values for as long as its key is unchanged, a frame's value
// once per pair it stands for without decoding it again, so the tree
// replays once per input holding the key, not once per pair. Each input's values
// are in order; only where more than one input held the key are their
// seams checked, and the values sorted if one is out of order. Equal values
// are equal bytes, so the result is Merge's, byte for byte. The values
// slice is the Merger's, grown by doubling and reused for every group: it
// is valid until the next call to NextGroup or Reset.
func (m *Merger) NextGroup() (key []byte, vals [][]byte, ok bool) {
	if len(m.src) == 0 || m.src[m.win].done {
		return nil, nil, false
	}
	vals = m.vals[:0]
	sorted := true
	key = m.src[m.win].head.Key
	kp := m.src[m.win].kp
	for {
		w := m.win
		s := &m.src[w]
		if len(vals) > 0 && bytes.Compare(vals[len(vals)-1], s.head.Value) > 0 {
			sorted = false
		}
		p, n, more := s.head, s.n, true
		for more && bytes.Equal(p.Key, key) {
			if len(vals)+n > cap(vals) {
				vals = slices.Grow(vals, max(len(vals), n, 16))
			}
			for range n {
				vals = append(vals, p.Value)
			}
			p, n, more = s.it.nextFrame()
		}
		s.set(p, n, more)
		m.replay(w)
		if next := &m.src[m.win]; next.done || next.kp != kp || !bytes.Equal(next.head.Key, key) {
			break
		}
	}
	if !sorted {
		slices.SortFunc(vals, bytes.Compare)
	}
	m.vals, m.most = vals, max(m.most, len(vals))
	return key, vals, true
}

// Group is one reduce input: a key and all of its values.
type Group struct {
	Key    []byte
	Values [][]byte
}

// Bytes returns the group payload volume.
func (g Group) Bytes() int64 {
	n := int64(len(g.Key))
	for _, v := range g.Values {
		n += int64(len(v))
	}
	return n
}

// GroupIter folds a key-sorted pair iterator into per-key groups.
type GroupIter struct {
	it      Iterator
	pending Pair
	have    bool
}

// NewGroupIter wraps a sorted iterator.
func NewGroupIter(it Iterator) *GroupIter { return &GroupIter{it: it} }

// Next returns the next key group, or ok=false at the end of input.
func (g *GroupIter) Next() (Group, bool) {
	if !g.have {
		p, ok := g.it.Next()
		if !ok {
			return Group{}, false
		}
		g.pending, g.have = p, true
	}
	grp := Group{Key: g.pending.Key, Values: [][]byte{g.pending.Value}}
	g.have = false
	for {
		p, ok := g.it.Next()
		if !ok {
			return grp, true
		}
		if string(p.Key) != string(grp.Key) {
			g.pending, g.have = p, true
			return grp, true
		}
		grp.Values = append(grp.Values, p.Value)
	}
}

// owing is an iterator that knows how many pairs it still owes: a run's,
// resident or filed, from the run's header.
type owing interface{ owed() int }

// Drain merges iters and collects every pair they yield — a reduce-less
// partition's whole output — into one slice, allocated once at the pairs
// the iterators owe, so it never grows. A damaged run delivers fewer pairs
// than it owes, never more; an iterator that does not know its count (a
// slice's, a Merger) is collected by append.
func Drain(iters ...Iterator) []Pair {
	n := 0
	for _, it := range iters {
		if o, ok := it.(owing); ok {
			n += o.owed()
		}
	}
	out := make([]Pair, 0, n)
	m := Merge(iters...)
	for p, ok := m.Next(); ok; p, ok = m.Next() {
		out = append(out, p)
	}
	return out
}
