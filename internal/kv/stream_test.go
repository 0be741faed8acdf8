package kv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/quick"
)

// frames encodes pairs in the layout frameReader decodes: a run's frames,
// one per pair, past the run's leading count.
func frames(pairs []Pair) []byte {
	var b []byte
	for _, p := range pairs {
		b = appendRunFrame(b, p.Key, p.Value, 1)
	}
	return b
}

// newReader returns a frameReader of r with the default chunk.
func newReader(r io.Reader) *frameReader { return newFrameReader(r, readerChunk, -1) }

func TestStreamRoundTrip(t *testing.T) {
	pairs := []Pair{
		{Key: []byte("a"), Value: []byte("1")},
		{Key: nil, Value: []byte("empty key")},
		{Key: []byte("c"), Value: nil},
		{Key: bytes.Repeat([]byte("k"), 300), Value: bytes.Repeat([]byte("v"), 4000)},
	}
	r := newReader(bytes.NewReader(frames(pairs)))
	for i, want := range pairs {
		got, _, err := r.read()
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		if !bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("pair %d mismatch", i)
		}
	}
	if _, _, err := r.read(); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

func TestStreamTruncationDetected(t *testing.T) {
	blob := frames([]Pair{{Key: []byte("abcdef"), Value: []byte("ghijkl")}})
	for cut := 1; cut < len(blob); cut++ {
		r := newReader(bytes.NewReader(blob[:cut]))
		_, _, err := r.read()
		if err == nil {
			t.Fatalf("truncation at %d undetected", cut)
		}
		if errors.Is(err, io.EOF) && cut > 1 {
			t.Fatalf("truncation at %d reported as clean EOF", cut)
		}
	}
}

// jaggedReader delivers at most a few bytes per Read call, the way a TCP
// socket hands back whatever segment happens to have arrived.
type jaggedReader struct {
	data []byte
	step int
}

func (j *jaggedReader) Read(p []byte) (int, error) {
	if len(j.data) == 0 {
		return 0, io.EOF
	}
	n := 1 + j.step%3 // 1..3 bytes per call
	j.step++
	if n > len(j.data) {
		n = len(j.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, j.data[:n])
	j.data = j.data[n:]
	return n, nil
}

// TestStreamPartialReads decodes a stream delivered in 1-3 byte fragments:
// frame boundaries never align with read boundaries, as over a socket.
func TestStreamPartialReads(t *testing.T) {
	pairs := []Pair{
		{Key: []byte("alpha"), Value: bytes.Repeat([]byte("v"), 500)},
		{Key: bytes.Repeat([]byte("k"), 200), Value: []byte("beta")},
		{Key: nil, Value: nil},
		{Key: []byte("tail"), Value: []byte("end")},
	}
	r := newReader(&jaggedReader{data: frames(pairs)})
	for i, want := range pairs {
		got, _, err := r.read()
		if err != nil {
			t.Fatalf("pair %d: %v", i, err)
		}
		if !bytes.Equal(got.Key, want.Key) || !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("pair %d mismatch over jagged reads", i)
		}
	}
	if _, _, err := r.read(); !errors.Is(err, io.EOF) {
		t.Fatalf("want io.EOF at end, got %v", err)
	}
}

// TestStreamSocketSplit replays the shuffle plane's failure shape: a peer
// dies mid-transfer and the survivor holds a prefix that stops between the
// key and value of a record. The reader must surface truncation, not EOF,
// and deliver every record that fully arrived first.
func TestStreamSocketSplit(t *testing.T) {
	// The same segment as testdata/fuzz/FuzzStreamDecode/seed-socket-split:
	// six 18-byte records with the last one cut after its key.
	var pairs []Pair
	for i := 0; i < 6; i++ {
		pairs = append(pairs, Pair{
			Key:   []byte{'w', 'o', 'r', 'd', '-', '0', '0', byte('0' + i)},
			Value: []byte{1, 0, 0, 0, 0, 0, 0, 0},
		})
	}
	segment := frames(pairs)[:100]

	r := newReader(bytes.NewReader(segment))
	var got int
	for {
		_, _, err := r.read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				t.Fatalf("mid-record split reported as clean EOF after %d records", got)
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("want io.ErrUnexpectedEOF, got %v", err)
			}
			break
		}
		got++
	}
	if got != 5 {
		t.Fatalf("decoded %d whole records before the split, want 5", got)
	}
}

// TestQuickStreamRoundTrip decodes random frames through chunks of 1 to 24
// bytes fed by 1–3-byte reads, so frames straddle chunk ends at every offset
// and values outgrow their chunk, and checks every pair only after the
// whole stream is read: a pair handed out earlier must not have been
// overwritten by a later fill.
func TestQuickStreamRoundTrip(t *testing.T) {
	f := func(keys, vals [][]byte, chunk uint8) bool {
		n := min(len(keys), len(vals))
		pairs := make([]Pair, n)
		for i := range pairs {
			pairs[i] = Pair{Key: keys[i], Value: vals[i]}
		}
		r := newFrameReader(&jaggedReader{data: frames(pairs)}, int(chunk%24)+1, -1)
		var got []Pair
		for {
			p, _, err := r.read()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return false
			}
			got = append(got, p)
		}
		return pairsEqual(pairs, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamHugeClaimIsBounded: a prefix claiming a gigabyte value over a
// stream that holds a few bytes fails as truncated without allocating the
// claim.
func TestStreamHugeClaimIsBounded(t *testing.T) {
	stream := append(binary.AppendUvarint([]byte{2}, maxFrameLen), "k and a little"...)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	_, _, err := newReader(bytes.NewReader(stream)).read()
	runtime.ReadMemStats(&ms)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want io.ErrUnexpectedEOF, got %v", err)
	}
	if grew := ms.TotalAlloc - before; grew > 1<<20 {
		t.Fatalf("reading a %d-byte stream allocated %d bytes", len(stream), grew)
	}
}
