package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// maxFrameLen guards against decoding absurd lengths from corrupt streams.
const maxFrameLen = 1 << 30

// readerChunk is the size of a Reader's chunks unless its maker names one,
// and so the most of a filed run that streaming it reads at once.
const readerChunk = 64 << 10

var errVarintOverflow = errors.New("kv: length prefix overflows 64 bits")

// splitFrame decodes the frame at the head of b — uvarint(len(key)),
// uvarint(len(value)), key, value — and returns its pair, as views into b
// capped at their own length, and the frame's length n. If b holds only a
// prefix of the frame, n is 0 and need is the length b must reach: the
// whole frame once the header is complete, len(b)+1 while it is cut.
func splitFrame(b []byte) (p Pair, n, need int, err error) {
	kl, i := binary.Uvarint(b)
	if i <= 0 {
		return Pair{}, 0, len(b) + 1, uvarintErr(i)
	}
	vl, j := binary.Uvarint(b[i:])
	if j <= 0 {
		return Pair{}, 0, len(b) + 1, uvarintErr(j)
	}
	if kl > maxFrameLen || vl > maxFrameLen {
		return Pair{}, 0, 0, fmt.Errorf("kv: implausible frame lengths %d/%d", kl, vl)
	}
	k, v := i+j, i+j+int(kl)
	n = v + int(vl)
	if len(b) < n {
		return Pair{}, 0, n, nil
	}
	return Pair{Key: b[k:v:v], Value: b[v:n:n]}, n, 0, nil
}

// uvarintErr reads binary.Uvarint's n ≤ 0: nil when the buffer ended inside
// the varint, an overflow otherwise.
func uvarintErr(n int) error {
	if n < 0 {
		return errVarintOverflow
	}
	return nil
}

// Reader decodes pairs from an io.Reader holding varint-length-prefixed
// frames (the Marshal layout past its leading count). It reads the stream a
// chunk at a time and returns pairs as views into the chunk they were
// decoded from. A chunk is never written again below what has been read
// into it, and a frame that runs past a full chunk moves, copied, to a
// fresh one — so a returned pair stays valid for as long as it is
// referenced, and decoding allocates once per chunk, not per pair. A frame
// longer than a chunk gets a chunk of its own, grown only as its bytes
// arrive: a corrupt length prefix claiming a gigabyte costs at most twice
// the bytes the stream really holds.
//
// Read returns io.EOF at a clean end of stream and io.ErrUnexpectedEOF (or
// a framing error) on truncation.
type Reader struct {
	r     io.Reader
	chunk int
	left  int64  // bytes r has yet to deliver, if known (else < 0)
	buf   []byte // buf[off:] is read but not yet decoded; buf[len:cap] is free
	off   int
	err   error // what r returned last; nothing is read past it
}

// NewReader returns a streaming pair reader.
func NewReader(r io.Reader) *Reader { return newReaderSize(r, readerChunk, -1) }

// newReaderSize returns a reader whose chunks hold chunk bytes, or fewer
// where a stream of known size (size ≥ 0) has fewer left, plus the byte the
// end-of-stream probe reads into.
func newReaderSize(r io.Reader, chunk int, size int64) *Reader {
	return &Reader{r: r, chunk: max(chunk, 1), left: size}
}

// Read returns the next pair.
func (r *Reader) Read() (Pair, error) {
	for {
		p, n, need, err := splitFrame(r.buf[r.off:])
		if err != nil {
			return Pair{}, err
		}
		if n > 0 {
			r.off += n
			return p, nil
		}
		if err := r.fill(need); err != nil {
			return Pair{}, err
		}
	}
}

// uvarint decodes one uvarint from the stream (a run's leading count).
func (r *Reader) uvarint() (uint64, error) {
	for {
		v, n := binary.Uvarint(r.buf[r.off:])
		if n > 0 {
			r.off += n
			return v, nil
		}
		if err := uvarintErr(n); err != nil {
			return 0, err
		}
		if err := r.fill(len(r.buf) - r.off + 1); err != nil {
			return 0, err
		}
	}
}

// fill reads more of the stream towards need undecoded bytes. Once the
// stream has ended it fails instead: io.EOF if every byte read was decoded,
// io.ErrUnexpectedEOF if the stream stopped inside a frame.
func (r *Reader) fill(need int) error {
	if r.err != nil {
		switch {
		case !errors.Is(r.err, io.EOF):
			return fmt.Errorf("kv: reading stream: %w", r.err)
		case r.off == len(r.buf):
			return io.EOF
		default:
			return fmt.Errorf("kv: stream ends inside a frame: %w", io.ErrUnexpectedEOF)
		}
	}
	if len(r.buf) == cap(r.buf) {
		rest := len(r.buf) - r.off
		size := max(r.chunk, min(need, 2*rest))
		if r.left >= 0 {
			size = int(min(int64(size), int64(rest)+r.left+1))
		}
		chunk := make([]byte, rest, size)
		copy(chunk, r.buf[r.off:])
		r.buf, r.off = chunk, 0
	}
	n, err := r.r.Read(r.buf[len(r.buf):cap(r.buf)])
	r.buf = r.buf[:len(r.buf)+n]
	r.left -= int64(n)
	r.err = err
	return nil
}

func unexpected(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
