package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// maxFrameLen guards against decoding absurd lengths from corrupt streams.
const maxFrameLen = 1 << 30

// readerChunk is the size of a frameReader's chunks unless its maker names
// one, and so the most of a filed run that streaming it reads at once.
const readerChunk = 64 << 10

var errVarintOverflow = errors.New("kv: length prefix overflows 64 bits")

// A run frame stands for reps ≥ 1 equal pairs in a row:
// uvarint(len(key)<<1 | r), uvarint(len(value)), uvarint(reps) only where
// r = 1 (and then reps ≥ 2), the key, the value. A one-pair frame with a key
// shorter than 64 bytes is as long as the pair's Marshal frame.

// appendRunFrame appends the frame of reps copies of (k, v) to b.
func appendRunFrame(b, k, v []byte, reps int) []byte {
	if reps > 1 {
		b = binary.AppendUvarint(b, uint64(len(k))<<1|1)
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = binary.AppendUvarint(b, uint64(reps))
	} else {
		b = binary.AppendUvarint(b, uint64(len(k))<<1)
		b = binary.AppendUvarint(b, uint64(len(v)))
	}
	b = append(b, k...)
	return append(b, v...)
}

// runFrameLen is the length of appendRunFrame's frame for a key of kl
// bytes and a value of vl bytes.
func runFrameLen(kl, vl, reps int) int {
	n := uvarintLen(uint64(kl)<<1) + uvarintLen(uint64(vl)) + kl + vl
	if reps > 1 {
		n += uvarintLen(uint64(reps))
	}
	return n
}

// splitRunFrame decodes the run frame at the head of b and returns its
// pair, as views into b capped at their own length, the pairs it stands
// for, and the frame's length n. If b holds only a prefix of the frame, n
// is 0 and need is the length b must reach: the whole frame once the
// header is complete, len(b)+1 while it is cut.
func splitRunFrame(b []byte) (p Pair, reps, n, need int, err error) {
	if p, n = splitShortFrame(b); n > 0 {
		return p, 1, n, 0, nil
	}
	return splitLongFrame(b)
}

// splitShortFrame decodes a whole one-pair frame with one-byte lengths at
// the head of b — every frame of a unique-key run whose keys are under 64
// bytes and values under 128 — and returns 0 for n on any other. It
// inlines, so a decoder calls splitLongFrame only for the rest.
func splitShortFrame(b []byte) (p Pair, n int) {
	if len(b) < 2 || b[0]&0x81 != 0 || b[1] >= 0x80 {
		return Pair{}, 0
	}
	k := 2 + int(b[0]>>1)
	if n = k + int(b[1]); n > len(b) {
		return Pair{}, 0
	}
	return Pair{Key: b[2:k:k], Value: b[k:n:n]}, n
}

// splitLongFrame is splitRunFrame for the frames splitShortFrame does not
// take: longer lengths, a count, a cut frame, bytes that are not a frame.
func splitLongFrame(b []byte) (p Pair, reps, n, need int, err error) {
	kr, i := binary.Uvarint(b)
	if i <= 0 {
		return Pair{}, 0, 0, len(b) + 1, uvarintErr(i)
	}
	vl, j := binary.Uvarint(b[i:])
	if j <= 0 {
		return Pair{}, 0, 0, len(b) + 1, uvarintErr(j)
	}
	h, reps := i+j, 1
	if kr&1 == 1 {
		c, l := binary.Uvarint(b[h:])
		if l <= 0 {
			return Pair{}, 0, 0, len(b) + 1, uvarintErr(l)
		}
		if c < 2 || c > math.MaxUint32 {
			return Pair{}, 0, 0, 0, fmt.Errorf("kv: frame counts %d pairs", c)
		}
		h, reps = h+l, int(c)
	}
	kl := kr >> 1
	if kl > maxFrameLen || vl > maxFrameLen {
		return Pair{}, 0, 0, 0, fmt.Errorf("kv: implausible frame lengths %d/%d", kl, vl)
	}
	k, v := h, h+int(kl)
	n = v + int(vl)
	if len(b) < n {
		return Pair{}, 0, 0, n, nil
	}
	return Pair{Key: b[k:v:v], Value: b[v:n:n]}, reps, n, 0, nil
}

// uvarintErr reads binary.Uvarint's n ≤ 0: nil when the buffer ended inside
// the varint, an overflow otherwise.
func uvarintErr(n int) error {
	if n < 0 {
		return errVarintOverflow
	}
	return nil
}

// frameReader decodes run frames from an io.Reader: a filed run's section
// past its leading count. It reads the stream a chunk at a time and returns
// pairs as views into the chunk they were decoded from. A chunk is never
// written again below what has been read into it, and a frame that runs
// past a full chunk moves, copied, to a fresh one — so a returned pair
// stays valid for as long as it is referenced, and decoding allocates once
// per chunk, not per frame. A frame longer than a chunk gets a chunk of its
// own, grown only as its bytes arrive: a corrupt length prefix claiming a
// gigabyte costs at most twice the bytes the stream really holds.
//
// read returns io.EOF at a clean end of stream and io.ErrUnexpectedEOF (or
// a framing error) on truncation.
type frameReader struct {
	r     io.Reader
	chunk int
	left  int64  // bytes r has yet to deliver, if known (else < 0)
	buf   []byte // buf[off:] is read but not yet decoded; buf[len:cap] is free
	off   int
	err   error // what r returned last; nothing is read past it
}

// newFrameReader returns a reader whose chunks hold chunk bytes, or fewer
// where a stream of known size (size ≥ 0) has fewer left, plus the byte the
// end-of-stream probe reads into.
func newFrameReader(r io.Reader, chunk int, size int64) *frameReader {
	return &frameReader{r: r, chunk: max(chunk, 1), left: size}
}

// read returns the next frame's pair and the pairs it stands for.
func (r *frameReader) read() (Pair, int, error) {
	for {
		p, reps, n, need, err := splitRunFrame(r.buf[r.off:])
		if err != nil {
			return Pair{}, 0, err
		}
		if n > 0 {
			r.off += n
			return p, reps, nil
		}
		if err := r.fill(need); err != nil {
			return Pair{}, 0, err
		}
	}
}

// uvarint decodes one uvarint from the stream (a run's leading count).
func (r *frameReader) uvarint() (uint64, error) {
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
func (r *frameReader) fill(need int) error {
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
