package dist

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/kv"
	"glasswing/internal/obs"
)

// TestConcurrentJobsIndependentLedgers is the job-scoping regression test:
// several jobs run concurrently in one process (the resident job service's
// steady state), each with its own Telemetry, and every per-job ledger must
// balance against that job's own input — not against the union. Any
// cluster state that leaked to package/process scope (a shared kill table,
// a shared conservation ledger, a shared counters baseline) would make the
// per-job counters absorb a neighbor's records and fail here.
func TestConcurrentJobsIndependentLedgers(t *testing.T) {
	type spec struct {
		name    string
		workers int
		size    int
	}
	specs := []spec{
		{"wc", 2, 48 << 10},
		{"wc", 3, 96 << 10},
		{"ts", 2, 40 * 100},
		{"ts", 3, 80 * 100},
	}

	type run struct {
		reg     *obs.Registry
		records int64 // expected map input records for this job alone
		outputs []kv.Pair
		verify  func([]kv.Pair) error
		err     error
	}
	runs := make([]*run, len(specs))

	var wg sync.WaitGroup
	for i, sp := range specs {
		r := &run{}
		runs[i] = r
		seed := int64(100 + i)

		var job Job
		var blocks [][]byte
		switch sp.name {
		case "wc":
			data, want := apps.WCData(seed, sp.size, 300)
			job = Job{App: AppSpec{Name: "wc"}, Collector: core.HashTable}
			blocks = SplitBlocks(data, 8<<10, 0)
			r.records = int64(bytes.Count(data, []byte("\n")))
			r.verify = func(out []kv.Pair) error { return apps.VerifyCounts(out, want) }
		case "ts":
			data := apps.TSData(seed, sp.size/100)
			job = Job{
				App:       AppSpec{Name: "ts", Params: EncodeTSParams(apps.TeraSample(data, 16))},
				Collector: core.BufferPool,
			}
			blocks = SplitBlocks(data, 8<<10, 100)
			r.records = int64(sp.size / 100)
			r.verify = func(out []kv.Pair) error { return apps.VerifyTeraSort(out, data) }
		}

		tel := obs.NewTelemetry()
		r.reg = tel.Metrics
		o := Options{
			Job:        job,
			Workers:    sp.workers,
			Blocks:     blocks,
			Telemetry:  tel,
			KillWorker: -1,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RunLoopback(o)
			if err != nil {
				r.err = err
				return
			}
			r.outputs = res.Output()
		}()
	}
	wg.Wait()

	for i, r := range runs {
		name := fmt.Sprintf("job %d (%s)", i, specs[i].name)
		if r.err != nil {
			t.Errorf("%s: %v", name, r.err)
			continue
		}
		if err := r.verify(r.outputs); err != nil {
			t.Errorf("%s: output: %v", name, err)
		}
		c := func(n string) int64 { return r.reg.Counter(n).Value() }

		// The job's ledger must account for exactly its own input — a
		// shared ledger would show every job the sum of all four.
		if got := c("conserv_map_records_in_total"); got != r.records {
			t.Errorf("%s: map records in = %d, want %d (cross-job contamination?)", name, got, r.records)
		}
		// And it must balance independently: nothing lost, everything
		// serialized was accepted, the wire conserved.
		if got, want := c("conserv_store_accepted_records_total"), c("conserv_partition_records_total"); got != want {
			t.Errorf("%s: store accepted %d != partition records %d", name, got, want)
		}
		if got := c("conserv_store_lost_records_total"); got != 0 {
			t.Errorf("%s: %d records lost on a fault-free run", name, got)
		}
		sent, recv, lost := c("conserv_net_records_sent_total"), c("conserv_net_records_recv_total"), c("conserv_net_records_lost_total")
		if sent != recv+lost {
			t.Errorf("%s: wire ledger unbalanced: sent %d != recv %d + lost %d", name, sent, recv, lost)
		}
		if lost != 0 {
			t.Errorf("%s: %d wire records lost on a fault-free run", name, lost)
		}
		if specs[i].workers > 1 && sent == 0 {
			t.Errorf("%s: multi-worker job moved no shuffle data", name)
		}
	}
}
