package dist

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/obs"
)

// TestTraceMergedCluster is the tentpole integration test: a 3-worker
// loopback run must yield ONE merged trace — coordinator scheduling spans
// on node -1, every worker's spans rebased to the coordinator's clock —
// with intact cross-process parent links, per-worker clock estimates whose
// residual skew is bounded by RTT/2, and enough genuine concurrency that
// the analyzer's overlap factor exceeds 1.
func TestTraceMergedCluster(t *testing.T) {
	tel := obs.NewTelemetry()
	data, _ := apps.WCData(21, 256<<10, 1200)
	o := Options{
		Job:        Job{App: AppSpec{Name: "WC"}, Partitions: 6, Collector: core.HashTable},
		Workers:    3,
		Blocks:     SplitBlocks(data, 8<<10, 0),
		Telemetry:  tel,
		NewApp:     testResolver(apps.WordCount, nil),
		KillWorker: -1,
	}
	res, err := RunLoopback(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceID == 0 {
		t.Fatal("no trace id minted")
	}

	spans := tel.Spans.Spans()
	byID := make(map[uint64]obs.Span)
	nodes := make(map[int]bool)
	for _, s := range spans {
		nodes[s.Node] = true
		if s.ID != 0 {
			if _, dup := byID[s.ID]; dup {
				t.Fatalf("duplicate span id %#x across the merged trace", s.ID)
			}
			byID[s.ID] = s
		}
	}
	for _, n := range []int{-1, 0, 1, 2} {
		if !nodes[n] {
			t.Fatalf("merged trace missing node %d (have %v)", n, nodes)
		}
	}

	// Cross-process causality: every map/kernel span must parent on a
	// coordinator sched/assign span; at least one net/recv must parent on
	// a net/send recorded by a DIFFERENT node (the shuffle's wire edge).
	kernels, crossRecv := 0, 0
	for _, s := range spans {
		switch s.Stage {
		case obs.StageMapKernel:
			kernels++
			p, ok := byID[s.Parent]
			if !ok || p.Node != -1 || p.Stage != obs.StageSchedAssign {
				t.Fatalf("map/kernel span parent %#x not a coordinator sched/assign span (%+v)", s.Parent, p)
			}
		case obs.StageNetRecv:
			if p, ok := byID[s.Parent]; ok && p.Stage == obs.StageNetSend && p.Node != s.Node {
				crossRecv++
			}
		case obs.StageReduce:
			p, ok := byID[s.Parent]
			if !ok || p.Node != -1 || p.Stage != obs.StageSchedReduce {
				t.Fatalf("reduce span parent %#x not a coordinator sched/reduce span", s.Parent)
			}
		}
	}
	if kernels == 0 {
		t.Fatal("no map/kernel spans in the merged trace")
	}
	if crossRecv == 0 {
		t.Fatal("no net/recv span parents on another node's net/send: cross-process links lost in the merge")
	}

	// Clock alignment: each worker reported an estimate, the loopback
	// residual skew honors the estimator's RTT/2 error bound (both clocks
	// are the same physical clock, so the estimate IS the residual), and
	// rebased timestamps stay sane and ordered.
	for w := 0; w < 3; w++ {
		off, ok := res.ClockOffsets[w]
		if !ok {
			t.Fatalf("no clock estimate for worker %d", w)
		}
		rtt := res.ClockRTTs[w]
		if rtt <= 0 {
			t.Fatalf("worker %d: non-positive RTT %v", w, rtt)
		}
		if off < 0 {
			off = -off
		}
		if off > rtt/2+1e-3 {
			t.Fatalf("worker %d: residual skew %.6fs exceeds RTT/2 bound (%.6fs)", w, off, rtt/2)
		}
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %s on node %d runs backwards after rebasing: [%f, %f]", s.Stage, s.Node, s.Start, s.End)
		}
		if s.Start < -0.1 {
			t.Fatalf("span %s on node %d starts %.3fs before the coordinator epoch", s.Stage, s.Node, s.Start)
		}
	}

	// The merged trace still proves compute/communication overlap.
	if rep := obs.Analyze(spans); rep.OverlapFactor <= 1.0 {
		t.Fatalf("merged-trace overlap factor %.2f <= 1.0", rep.OverlapFactor)
	}
}

// TestClockEstimatorProperty drives the NTP-style estimator through
// randomized trials — true offsets from nanoseconds to minutes, wildly
// asymmetric path delays — and checks the textbook invariant: the
// estimate's error never exceeds half the round-trip of the sample it
// kept, and that sample is the minimum-RTT one.
func TestClockEstimatorProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		theta := rng.Int63n(120e9) - 60e9 // worker - coordinator, ±60s
		est := &clockEstimator{}
		minRTT := int64(1<<62 - 1)
		for probe := 0; probe < 20; probe++ {
			d1 := rng.Int63n(5e6) + 1000 // outbound wire delay, 1µs..5ms
			d2 := rng.Int63n(5e6) + 1000 // return delay, independent => asymmetric
			proc := rng.Int63n(1e5)      // remote processing time
			t1 := int64(1e9) + rng.Int63n(1e9)
			t2 := t1 + d1 + theta
			t3 := t2 + proc
			t4 := t1 + d1 + proc + d2
			est.sample(t1, t2, t3, t4)
			if rtt := d1 + d2; rtt < minRTT {
				minRTT = rtt
			}
		}
		off, rtt, ok := est.estimate()
		if !ok {
			t.Fatalf("trial %d: no estimate from 20 samples", trial)
		}
		if rtt != minRTT {
			t.Fatalf("trial %d: kept rtt %d, want minimum %d", trial, rtt, minRTT)
		}
		errNs := off - float64(theta)
		if errNs < 0 {
			errNs = -errNs
		}
		if errNs > float64(rtt)/2 {
			t.Fatalf("trial %d: offset error %.0fns exceeds RTT/2 = %.0fns (theta %d)",
				trial, errNs, float64(rtt)/2, theta)
		}
	}

	// Degenerate inputs: negative-RTT samples (clock stepped mid-probe)
	// are rejected, and an empty estimator reports !ok.
	var empty clockEstimator
	if _, _, ok := empty.estimate(); ok {
		t.Fatal("empty estimator claims an estimate")
	}
	empty.sample(100, 50, 60, 90) // t3-t2 > t4-t1 => rtt < 0
	if _, _, ok := empty.estimate(); ok {
		t.Fatal("negative-RTT sample accepted")
	}
	var nilEst *clockEstimator
	if _, _, ok := nilEst.estimate(); ok {
		t.Fatal("nil estimator claims an estimate")
	}
}

// TestClockProbeOverLink exercises the probe/reply protocol end to end on
// a real socket pair: only the probing side accumulates samples, and the
// loopback estimate lands near zero.
func TestClockProbeOverLink(t *testing.T) {
	a, b := tcpPair(t)
	est := &clockEstimator{}
	ca := newConn(a, "prober", Tuning{heartbeatEvery: time.Hour}, nil)
	cb := newConn(b, "echo", Tuning{heartbeatEvery: time.Hour}, nil)
	defer ca.close()
	defer cb.close()
	ca.enableClock(est, 10*time.Millisecond)
	// Both sides must keep reading: probes and replies ride heartbeats,
	// which recv consumes.
	errc := make(chan error, 2)
	go func() { _, _, err := ca.recv(); errc <- err }()
	go func() { _, _, err := cb.recv(); errc <- err }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, rtt, ok := est.estimate(); ok && rtt > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no clock sample within 5s")
		}
		time.Sleep(time.Millisecond)
	}
	off, rtt, _ := est.estimate()
	if off < 0 {
		off = -off
	}
	if off > float64(rtt)/2+float64(time.Millisecond) {
		t.Fatalf("loopback offset %.0fns exceeds RTT/2 %.0fns", off, float64(rtt)/2)
	}
}

// FuzzSpanBatch fuzzes the span-batch decoder: arbitrary bytes must never
// panic, and anything that decodes must re-encode to a byte-identical
// payload (the codec is canonical).
func FuzzSpanBatch(f *testing.F) {
	f.Add([]byte{})
	f.Add(encode(&spanBatchMsg{TraceID: 1, Node: 0, EpochUnixNano: 42}))
	f.Add(encode(&spanBatchMsg{
		TraceID: 0xdeadbeef, Node: 2, EpochUnixNano: 1700000000000000000,
		Spans: []obs.Span{
			{Node: 2, Stage: "map/kernel", Start: 0.5, End: 1.5, ID: 2<<48 | 7, Parent: 1 << 48},
			{Node: 2, Stage: "net/send", Start: 1, End: 2, ID: 2<<48 | 8},
		},
	}))
	f.Fuzz(func(t *testing.T, p []byte) {
		var m spanBatchMsg
		if decode(p, &m).fin("span-batch") != nil {
			return
		}
		re := encode(&m)
		var m2 spanBatchMsg
		if err := decode(re, &m2).fin("span-batch"); err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("re-encode round trip diverged:\n got %+v\nwant %+v", m2, m)
		}
	})
}
