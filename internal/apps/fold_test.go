package apps

import (
	"bytes"
	"testing"

	"glasswing/internal/core"
	"glasswing/internal/kv"
)

// everyApp returns one instance of each application in the package.
func everyApp() []*core.App {
	_, km := KMData(1, 16, 4, 2)
	return []*core.App{WordCount(), PageviewCount(), TeraSort(), KMeans(km), MatMul(MMSpec{N: 4, Tile: 2})}
}

// TestReduceIsFoldDeclarations: the counting apps declare that their
// reduce is their fold, and have both kernels; KMeans, whose reduce
// divides the sums it folds, and the apps without a fold do not.
func TestReduceIsFoldDeclarations(t *testing.T) {
	want := map[string]bool{"WC": true, "PVC": true}
	for _, app := range everyApp() {
		if app.ReduceIsFold != want[app.Name] {
			t.Errorf("%s: ReduceIsFold = %v, want %v", app.Name, app.ReduceIsFold, want[app.Name])
		}
		if app.ReduceIsFold && (app.Fold == nil || app.ReduceBatch == nil) {
			t.Errorf("%s: declares ReduceIsFold without both Fold and ReduceBatch", app.Name)
		}
	}
}

// FuzzReduceIsFold holds every app that declares ReduceIsFold to it, on
// key groups derived from raw input: ReduceBatch over the group must
// append exactly one pair, byte for byte the key and a zeroed accumulator
// as wide as the first value with Fold applied to every value in order.
// The first byte picks the key's length, the key follows, and every four
// bytes after it are one count, so large counts wrap the u32 total.
func FuzzReduceIsFold(f *testing.F) {
	f.Add([]byte("\x03thequick brown fox jumps over the lazy dog"))
	f.Add(append([]byte{0}, bytes.Repeat([]byte{0xff}, 64)...))
	f.Add([]byte{1, 'k', 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{2, 'a', 'b', 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		klen := min(int(data[0]%16), len(data)-1)
		key, rest := data[1:1+klen], data[1+klen:]
		var vals [][]byte
		for ; len(rest) >= 4; rest = rest[4:] {
			vals = append(vals, rest[:4])
		}
		if len(vals) == 0 {
			return // reduce never sees an empty group
		}
		for _, app := range everyApp() {
			if !app.ReduceIsFold {
				continue
			}
			acc := make([]byte, len(vals[0]))
			for _, v := range vals {
				app.Fold(acc, v)
			}
			var out kv.Batch
			app.ReduceBatch(key, vals, &out)
			if out.Len() != 1 {
				t.Fatalf("%s: ReduceBatch emitted %d pairs, want 1", app.Name, out.Len())
			}
			if p := out.Pair(0); !bytes.Equal(p.Key, key) || !bytes.Equal(p.Value, acc) {
				t.Fatalf("%s: ReduceBatch gave (%q, %x), the fold (%q, %x)", app.Name, p.Key, p.Value, key, acc)
			}
		}
	})
}
