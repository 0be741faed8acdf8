package glasswing

// Wall-clock benchmarks of the NATIVE runtime (real goroutines, real
// allocations — unlike the simulator benchmarks in bench_test.go, ns/op,
// B/op and allocs/op here ARE the product). The scenario table is pinned in
// internal/nativebench and shared with `go run ./cmd/nativebench`, which
// writes the tracked trajectory file BENCH_native.json.
//
// Run just these with:
//
//	go test -bench 'Native' -run '^$' -benchmem .

import (
	"testing"

	"glasswing/internal/nativebench"
)

func BenchmarkNative(b *testing.B) {
	for _, s := range nativebench.Scenarios() {
		b.Run(s.Name, func(b *testing.B) { nativebench.Bench(b, s) })
	}
}

// BenchmarkNativeDist times the distributed runtime's pinned loopback
// scenarios: a coordinator plus three workers over real TCP in this
// process, network shuffle included.
func BenchmarkNativeDist(b *testing.B) {
	for _, s := range nativebench.DistScenarios() {
		b.Run(s.Name, func(b *testing.B) { nativebench.BenchDist(b, s) })
	}
}
