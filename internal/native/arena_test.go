package native

import (
	"bytes"
	"fmt"
	"testing"
)

func TestArenaCopyAndReset(t *testing.T) {
	var a arena
	// Copies must be stable and independent of the source buffer.
	src := []byte("hello")
	got := a.copyBytes(src)
	src[0] = 'X'
	if string(got) != "hello" {
		t.Fatalf("arena copy aliased its source: %q", got)
	}
	if a.copyBytes(nil) != nil || len(a.copyBytes([]byte{})) != 0 {
		t.Fatal("empty copies should be empty")
	}
	// Fill past a block boundary and with an oversized value.
	var vals [][]byte
	for i := 0; i < 2000; i++ {
		vals = append(vals, a.copyBytes([]byte(fmt.Sprintf("value-%04d-%s", i, bytes.Repeat([]byte{'x'}, 100)))))
	}
	big := a.copyBytes(bytes.Repeat([]byte{'y'}, arenaBlockSize*2))
	for i, v := range vals {
		if want := fmt.Sprintf("value-%04d-", i); string(v[:len(want)]) != want {
			t.Fatalf("value %d corrupted: %q", i, v[:len(want)])
		}
	}
	if len(big) != arenaBlockSize*2 || big[0] != 'y' {
		t.Fatal("oversized copy corrupted")
	}
	// Reset reuses blocks: no growth when refilling the same volume.
	blocks := len(a.blocks)
	a.reset()
	for i := 0; i < 2000; i++ {
		a.copyBytes(bytes.Repeat([]byte{'z'}, 110))
	}
	if len(a.blocks) > blocks {
		t.Fatalf("arena grew after reset: %d -> %d blocks", blocks, len(a.blocks))
	}
}

func TestChunkStateReuse(t *testing.T) {
	// Two generations through the pool must not bleed state into each other.
	for gen := 0; gen < 3; gen++ {
		st := getChunk()
		if len(st.entries) != 0 || len(st.out) != 0 || len(st.idx) != 0 {
			t.Fatalf("gen %d: dirty state from pool", gen)
		}
		for i := 0; i < 100; i++ {
			k := []byte(fmt.Sprintf("key-%d-%d", gen, i%10))
			st.hashEmit(k, []byte{byte(i)})
		}
		if len(st.entries) != 10 {
			t.Fatalf("gen %d: %d distinct keys, want 10", gen, len(st.entries))
		}
		for i := range st.entries {
			e := &st.entries[i]
			if len(e.vals) != 10 {
				t.Fatalf("gen %d: key %q chained %d values, want 10", gen, e.key, len(e.vals))
			}
		}
		st.Release()
	}
}
