package dist

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/kv"
	"glasswing/internal/obs"
	"glasswing/internal/workload"
)

// testResolver injects app and partitioner directly, the way conformance
// loopback cells do.
func testResolver(app func() *core.App, prt func([]byte, int) int) Resolver {
	return func(AppSpec) (*core.App, func([]byte, int) int, error) {
		return app(), prt, nil
	}
}

func wcOptions(workers int, tel *obs.Telemetry) (Options, map[string]uint64) {
	data, want := apps.WCData(21, 96<<10, 1200)
	return Options{
		Job:        Job{App: AppSpec{Name: "WC"}, Partitions: 4, Collector: core.HashTable},
		Workers:    workers,
		Blocks:     SplitBlocks(data, 16<<10, 0),
		Telemetry:  tel,
		NewApp:     testResolver(apps.WordCount, nil),
		KillWorker: -1,
	}, want
}

// netCounters reads the wire-conservation counters back out of a registry.
func netCounters(reg *obs.Registry) (sent, recv, lost, bsent, brecv, blost int64) {
	c := func(n string) int64 { return reg.Counter(n).Value() }
	return c("conserv_net_records_sent_total"), c("conserv_net_records_recv_total"),
		c("conserv_net_records_lost_total"), c("conserv_net_bytes_sent_total"),
		c("conserv_net_bytes_recv_total"), c("conserv_net_bytes_lost_total")
}

func TestLoopbackWordCount(t *testing.T) {
	tel := obs.NewTelemetry()
	o, want := wcOptions(3, tel)
	res, err := RunLoopback(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	sent, recv, lost, bsent, brecv, blost := netCounters(tel.Metrics)
	if sent == 0 {
		t.Fatal("3-worker run shuffled nothing over the wire")
	}
	if lost != 0 || blost != 0 {
		t.Fatalf("fault-free run lost data: %d records, %d bytes", lost, blost)
	}
	if sent != recv || bsent != brecv {
		t.Fatalf("wire leak: sent %d/%dB, recv %d/%dB", sent, bsent, recv, brecv)
	}
	if res.WorkersLost != 0 || res.MapRetries != 0 {
		t.Fatalf("unexpected faults: %+v", res)
	}
}

func TestLoopbackSingleWorker(t *testing.T) {
	// One node: no peers, no wire shuffle, the no-barrier map-done path.
	tel := obs.NewTelemetry()
	o, want := wcOptions(1, tel)
	res, err := RunLoopback(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if sent, _, _, _, _, _ := netCounters(tel.Metrics); sent != 0 {
		t.Fatalf("single worker sent %d records over the wire", sent)
	}
}

func TestLoopbackTeraSort(t *testing.T) {
	data := apps.TSData(22, 2000)
	o := Options{
		Job: Job{
			App:        AppSpec{Name: "TS"},
			Partitions: 6,
			Collector:  core.BufferPool,
		},
		Workers:    3,
		Blocks:     SplitBlocks(data, 32<<10, int(workload.TeraRecordSize)),
		NewApp:     testResolver(apps.TeraSort, apps.TeraPartitioner(data, 16)),
		KillWorker: -1,
	}
	res, err := RunLoopback(o)
	if err != nil {
		t.Fatal(err)
	}
	// Range partitioning + partition-ordered assembly must yield a total
	// order; VerifyTeraSort checks order and content.
	if err := apps.VerifyTeraSort(res.Output(), data); err != nil {
		t.Fatal(err)
	}
}

func TestLoopbackKMeans(t *testing.T) {
	data, spec := apps.KMData(23, 4096, 4, 8)
	o := Options{
		Job: Job{
			App:        AppSpec{Name: "KM"},
			Partitions: 4,
			Collector:  core.HashTable,
			// Combiner stays off: float sums are not associative.
		},
		Workers:    3,
		Blocks:     SplitBlocks(data, 8<<10, spec.Dim*4),
		NewApp:     testResolver(func() *core.App { return apps.KMeans(spec) }, nil),
		KillWorker: -1,
	}
	res, err := RunLoopback(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyKMeans(res.Output(), data, spec); err != nil {
		t.Fatal(err)
	}
}

func TestMapFaultRetry(t *testing.T) {
	tel := obs.NewTelemetry()
	o, want := wcOptions(3, tel)
	o.Telemetry = tel
	o.MapFault = func(task, attempt int) bool { return attempt == 0 && task%3 == 0 }
	res, err := RunLoopback(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if res.MapRetries == 0 {
		t.Fatal("injected faults produced no retries")
	}
	// Failed attempts die before partitioning, so the wire never sees them:
	// retry cells stay byte-exact with zero loss.
	if _, _, lost, _, _, blost := netCounters(tel.Metrics); lost != 0 || blost != 0 {
		t.Fatalf("retry run lost data: %d records, %d bytes", lost, blost)
	}
}

// TestMapFaultReleasesChunk: an attempt failed between kernel and partition
// must hand its pooled chunk back, under either collector. Only Release
// empties the sink a kernel wrote into — the chunk's table, whose Len counts
// its keys and the pairs in the batch it fills — so a sink still holding
// entries after the job is a leaked chunk.
func TestMapFaultReleasesChunk(t *testing.T) {
	for _, collector := range []core.CollectorKind{core.BufferPool, core.HashTable} {
		t.Run(collector.String(), func(t *testing.T) {
			o, want := wcOptions(3, nil)
			o.Job.Collector = collector
			var mu sync.Mutex
			seen := make(map[interface{ Len() int }]bool)
			o.NewApp = testResolver(func() *core.App {
				app := apps.WordCount()
				kernel := app.MapBatch
				app.MapBatch = func(recs []kv.Pair, out kv.Sink) {
					mu.Lock()
					seen[out.(interface{ Len() int })] = true
					mu.Unlock()
					kernel(recs, out)
				}
				return app
			}, nil)
			o.MapFault = func(task, attempt int) bool { return attempt == 0 }
			res, err := RunLoopback(o)
			if err != nil {
				t.Fatal(err)
			}
			if err := apps.VerifyCounts(res.Output(), want); err != nil {
				t.Fatal(err)
			}
			if res.MapRetries == 0 || len(seen) == 0 {
				t.Fatalf("test exercised nothing: %d retries, %d sinks", res.MapRetries, len(seen))
			}
			for s := range seen {
				if s.Len() != 0 {
					t.Fatalf("a kernel's %T still holds %d entries: its chunk was never released", s, s.Len())
				}
			}
		})
	}
}

func TestMaxAttemptsExhausted(t *testing.T) {
	o, _ := wcOptions(2, nil)
	o.Job.MaxAttempts = 2
	o.MapFault = func(task, attempt int) bool { return task == 1 } // always fails
	if _, err := RunLoopback(o); err == nil {
		t.Fatal("want job failure after exhausting attempts")
	}
}

func TestWorkerKill(t *testing.T) {
	tel := obs.NewTelemetry()
	data, want := apps.WCData(21, 96<<10, 1200)
	o := Options{
		Job:              Job{App: AppSpec{Name: "WC"}, Partitions: 5, Collector: core.HashTable},
		Workers:          3,
		Blocks:           SplitBlocks(data, 8<<10, 0), // ~12 tasks: plenty left at kill time
		Telemetry:        tel,
		NewApp:           testResolver(apps.WordCount, nil),
		KillWorker:       1,
		KillAfterMapDone: 2,
	}
	res, err := RunLoopback(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := apps.VerifyCounts(res.Output(), want); err != nil {
		t.Fatal(err)
	}
	if res.WorkersLost != 1 {
		t.Fatalf("WorkersLost = %d, want 1", res.WorkersLost)
	}
	if res.MapRecoveries == 0 {
		t.Fatal("kill after resolved map tasks must re-execute them")
	}
	// The wire ledger must balance exactly across the kill: every record and
	// byte enqueued was either received by a live worker or flushed as lost.
	sent, recv, lost, bsent, brecv, blost := netCounters(tel.Metrics)
	if sent != recv+lost {
		t.Fatalf("net records leak: sent %d != recv %d + lost %d", sent, recv, lost)
	}
	if bsent != brecv+blost {
		t.Fatalf("net bytes leak: sent %d != recv %d + lost %d", bsent, brecv, blost)
	}
	// Store conservation: reduce consumed exactly what survived.
	c := func(n string) int64 { return tel.Metrics.Counter(n).Value() }
	if got, want := c("conserv_reduce_records_in_total"),
		c("conserv_store_accepted_records_total")-c("conserv_store_lost_records_total"); got != want {
		t.Fatalf("reduce records in %d != store accepted - lost %d", got, want)
	}
}

// TestWireConservationCompression runs the same 3-worker job over both wire
// encodings and proves the byte ledger balances exactly on each: sent ==
// recv + lost with lost == 0 on a fault-free run, identical record counts
// either way, and the DEFLATE wire moving strictly fewer bytes. It also
// pins why runs ship in batches: far fewer frames ship than partition runs,
// and the dist_frame_bytes histogram accounts for every wire byte (frame
// header included) without slack.
func TestWireConservationCompression(t *testing.T) {
	data, want := apps.WCData(21, 96<<10, 1200)
	recordsSent := map[bool]int64{}
	bytesSent := map[bool]int64{}
	for _, compress := range []bool{false, true} {
		tel := obs.NewTelemetry()
		o := Options{
			// 9 partitions over 3 workers: each attempt produces ~6 remote
			// runs, so an uncoalesced wire would ship ~3x more frames than
			// the two per-peer flushes the barrier forces.
			Job: Job{
				App: AppSpec{Name: "WC"}, Partitions: 9,
				Collector: core.HashTable, Compress: compress,
			},
			Workers:    3,
			Blocks:     SplitBlocks(data, 16<<10, 0),
			Telemetry:  tel,
			NewApp:     testResolver(apps.WordCount, nil),
			KillWorker: -1,
		}
		res, err := RunLoopback(o)
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if err := apps.VerifyCounts(res.Output(), want); err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		sent, recv, lost, bsent, brecv, blost := netCounters(tel.Metrics)
		if lost != 0 || blost != 0 {
			t.Fatalf("compress=%v: fault-free run lost %d records, %d bytes", compress, lost, blost)
		}
		if sent != recv+lost || bsent != brecv+blost {
			t.Fatalf("compress=%v: ledger leak: sent %d/%dB, recv %d/%dB, lost %d/%dB",
				compress, sent, bsent, recv, brecv, lost, blost)
		}
		recordsSent[compress], bytesSent[compress] = sent, bsent

		frames := tel.Metrics.Histogram("dist_frame_bytes", nil)
		runs := tel.Metrics.Counter("conserv_partition_runs_total").Value()
		if frames.Count() == 0 {
			t.Fatalf("compress=%v: no shuffle frames recorded", compress)
		}
		if frames.Count()*2 > runs {
			t.Fatalf("compress=%v: %d frames for %d runs: coalescing is not batching",
				compress, frames.Count(), runs)
		}
		// Histogram records wire size (5-byte header + payload); the ledger
		// records payload. The two must reconcile exactly.
		if int64(frames.Sum()) != bsent+5*frames.Count() {
			t.Fatalf("compress=%v: frame bytes %d != payload %d + headers %d",
				compress, int64(frames.Sum()), bsent, 5*frames.Count())
		}
	}
	if recordsSent[true] != recordsSent[false] {
		t.Fatalf("record count depends on wire encoding: %d compressed vs %d plain",
			recordsSent[true], recordsSent[false])
	}
	if bytesSent[true] >= bytesSent[false] {
		t.Fatalf("DEFLATE wire did not shrink: %d compressed vs %d plain bytes",
			bytesSent[true], bytesSent[false])
	}
}

// TestOverlap is the paper's stage-4 claim made measurable: with shuffle
// pushed through asynchronous write pumps, network transfer intervals
// overlap map kernel intervals, and the whole 3-worker run retires more
// than one busy-second per wall-second.
func TestOverlap(t *testing.T) {
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
	if _, err := RunLoopback(o); err != nil {
		t.Fatal(err)
	}
	spans := tel.Spans.Spans()
	var sends, kernels []obs.Span
	for _, s := range spans {
		switch s.Stage {
		case obs.StageNetSend:
			sends = append(sends, s)
		case obs.StageMapKernel:
			kernels = append(kernels, s)
		}
	}
	if len(sends) == 0 {
		t.Fatal("no net/send spans recorded")
	}
	overlapped := false
	for _, s := range sends {
		for _, k := range kernels {
			if s.Start < k.End && k.Start < s.End {
				overlapped = true
				break
			}
		}
		if overlapped {
			break
		}
	}
	if !overlapped {
		t.Fatal("no net/send span overlaps any map/kernel span: shuffle is not concurrent with compute")
	}
	rep := obs.Analyze(spans)
	if rep.OverlapFactor <= 1.0 {
		t.Fatalf("overlap factor %.2f <= 1.0: the cluster ran serially", rep.OverlapFactor)
	}
}

// TestGeometryInvariance: the same job across worker counts, partition
// counts and compression produces identical sorted output.
func TestGeometryInvariance(t *testing.T) {
	data, want := apps.WCData(21, 64<<10, 800)
	ref := ""
	for _, g := range []struct {
		name           string
		workers, parts int
		chunk          int
		compress       bool
	}{
		{"w3-p4", 3, 4, 16 << 10, false},
		{"w2-p7", 2, 7, 16 << 10, false},
		{"w4-p3-small", 4, 3, 4 << 10, false},
		{"w3-p4-deflate", 3, 4, 16 << 10, true},
	} {
		o := Options{
			Job: Job{
				App: AppSpec{Name: "WC"}, Partitions: g.parts,
				Collector: core.HashTable, Compress: g.compress,
			},
			Workers:    g.workers,
			Blocks:     SplitBlocks(data, g.chunk, 0),
			NewApp:     testResolver(apps.WordCount, nil),
			KillWorker: -1,
		}
		res, err := RunLoopback(o)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if err := apps.VerifyCounts(res.Output(), want); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		out := res.Output()
		kv.SortPairs(out)
		dig := fmt.Sprintf("%x", kv.Marshal(out))
		if ref == "" {
			ref = dig
		} else if dig != ref {
			t.Fatalf("%s: output diverged from first geometry", g.name)
		}
	}
}

// TestServeJoin exercises the multi-process entry points (registry app
// resolution, separate ledgers) inside one test process.
func TestServeJoin(t *testing.T) {
	data, want := apps.WCData(21, 64<<10, 800)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	type served struct {
		res *Result
		err error
	}
	ch := make(chan served, 1)
	go func() {
		res, err := serve(ln, Options{
			Job:     Job{App: AppSpec{Name: "wc"}, Partitions: 4, Collector: core.HashTable},
			Workers: 2,
			Blocks:  SplitBlocks(data, 16<<10, 0),
		}, nil, loopHooks{})
		ch <- served{res, err}
	}()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			errs <- Join(ln.Addr().String(), "127.0.0.1:0", Tuning{}, obs.NewTelemetry())
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	s := <-ch
	if s.err != nil {
		t.Fatal(s.err)
	}
	if err := apps.VerifyCounts(s.res.Output(), want); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryParamRoundTrip(t *testing.T) {
	data := apps.TSData(7, 500)
	sample := apps.TeraSample(data, 16)
	got, err := DecodeTSParams(EncodeTSParams(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sample) {
		t.Fatalf("sample length %d != %d", len(got), len(sample))
	}
	for i := range got {
		if string(got[i]) != string(sample[i]) {
			t.Fatalf("sample[%d] mismatch", i)
		}
	}

	_, spec := apps.KMData(5, 64, 3, 4)
	gs, err := DecodeKMParams(EncodeKMParams(spec))
	if err != nil {
		t.Fatal(err)
	}
	if gs.Dim != spec.Dim || gs.ModelCenters != spec.ModelCenters || len(gs.Centers) != len(spec.Centers) {
		t.Fatalf("spec mismatch: %+v vs %+v", gs, spec)
	}
	for i := range gs.Centers {
		for d := range gs.Centers[i] {
			if gs.Centers[i][d] != spec.Centers[i][d] {
				t.Fatalf("center (%d,%d) mismatch", i, d)
			}
		}
	}

	if _, _, err := RegistryResolver(AppSpec{Name: "nope"}); err == nil {
		t.Fatal("unknown app must fail resolution")
	}
}

func TestSchedDeathRequeuesEverything(t *testing.T) {
	s := testSched(t, 6, 3, 4)
	alive := []bool{true, true, true}
	// Worker 0 resolves tasks 0 and 3; task 1 in flight on worker 1.
	for _, w := range []int{0, 1, 2} {
		for {
			if _, ok := s.next(w, alive); !ok {
				break
			}
		}
	}
	schedDone(s, 0, 0)
	schedDone(s, 3, 0)
	alive[1] = false
	if err := schedDeath(s, 1, alive); err != nil {
		t.Fatal(err)
	}
	if s.recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2 (both resolved tasks)", s.recoveries)
	}
	if s.st.resolvedCount != 0 {
		t.Fatalf("resolvedCount = %d, want 0", s.st.resolvedCount)
	}
	// Every task must be requeued with a bumped attempt, and stale attempt-0
	// reports must now be ignored.
	if schedDone(s, 0, 0) {
		t.Fatal("stale attempt accepted after death bump")
	}
	queued := 0
	for _, q := range s.queues {
		queued += len(q)
	}
	if queued != 6 {
		t.Fatalf("queued = %d, want all 6 tasks", queued)
	}
}

func TestSchedFailExhaustion(t *testing.T) {
	s := testSched(t, 1, 1, 2)
	alive := []bool{true}
	if _, ok := s.next(0, alive); !ok {
		t.Fatal("no task")
	}
	if err := s.fail(0, 0, 0, alive, ""); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.next(0, alive); !ok {
		t.Fatal("retry not queued")
	}
	if err := s.fail(0, 1, 0, alive, ""); err == nil {
		t.Fatal("want exhaustion error on second failure")
	}
}

func TestHeartbeatKeepsIdleLinkAlive(t *testing.T) {
	// A link with a short read timeout but regular heartbeats must survive
	// an idle period several timeouts long.
	a, b := tcpPair(t)
	tun := Tuning{heartbeatEvery: 20 * time.Millisecond, heartbeatTimeout: 120 * time.Millisecond}
	ca := newConn(a, "a", tun, nil)
	defer ca.close()
	cb := newConn(b, "b", tun, nil)
	defer cb.close()

	done := make(chan error, 1)
	go func() {
		_, _, err := cb.recv() // only heartbeats arrive until the real frame
		done <- err
	}()
	time.Sleep(500 * time.Millisecond)
	ca.send(frame{typ: mMark, payload: encode(&markMsg{Task: 1})})
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("idle link died despite heartbeats: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("frame never arrived")
	}
}

// A job the cluster cannot run is refused before anything listens or any
// worker starts: a partition count over MaxPartitions, a combiner the app
// (TeraSort has no Combine kernel, an app with no Fold only combines in the
// simulator) or the collector (the buffer pool has no table to fold in)
// cannot run, an unknown block-store mode, or no input.
func TestLoopbackRefusesUnrunnableJobs(t *testing.T) {
	for _, tc := range []struct {
		name, app string
		mutate    func(*Options)
		want      string
	}{
		{"partitions over the cap", "wc", func(o *Options) { o.Job.Partitions = 1 << 28 }, "exceeds the cap"},
		{"combiner without Combine", "ts", func(o *Options) { o.Job.UseCombiner = true }, "combiner requires"},
		{"combiner on the pool", "wc", func(o *Options) { o.Job.UseCombiner, o.Job.Collector = true, core.BufferPool }, "combiner requires"},
		{"combiner without Fold", "wc", func(o *Options) {
			o.Job.UseCombiner = true
			o.NewApp = func(spec AppSpec) (*core.App, func(key []byte, n int) int, error) {
				app, part, err := RegistryResolver(spec)
				app.Fold = nil
				return app, part, err
			}
		}, "App.Fold"},
		{"unknown block-store mode", "wc", func(o *Options) { o.Blockstore = "tape" }, "unknown blockstore mode"},
		{"no input", "wc", func(o *Options) { o.Blocks = nil }, "no input blocks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			job, blocks, _, err := DemoJob(tc.app, 32<<10, 2, 16<<10)
			if err != nil {
				t.Fatal(err)
			}
			o := Options{Job: job, Workers: 2, Blocks: blocks, KillWorker: -1}
			tc.mutate(&o)
			_, err = RunLoopback(o)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunLoopback = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
