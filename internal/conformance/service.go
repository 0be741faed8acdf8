package conformance

import (
	"encoding/base64"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"glasswing/internal/core"
	"glasswing/internal/dist"
	"glasswing/internal/jobsvc"
	"glasswing/internal/kv"
)

// ---- Job service (internal/jobsvc over HTTP). ----
//
// The service axis re-runs the distributed runtime's metamorphic table, but
// every job travels the whole multi-tenant service path: JSON-encoded over
// HTTP into the admission gate, through the priority queue and scheduler,
// onto a fleet-budgeted loopback cluster, and back out as a base64 result
// plus a serialized per-job metric registry. The digests must match the
// reference byte-for-byte and the wire ledger — rebuilt client-side from
// the /metrics JSON — must balance exactly, proving the service layer
// neither perturbs job semantics nor mixes concurrent jobs' accounting.

// serviceEnv is one running in-process service: real listener, real HTTP.
type serviceEnv struct {
	svc *jobsvc.Service
	srv *http.Server
	ln  net.Listener
	cli jobsvc.Client
}

func startService() (*serviceEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("service listen: %w", err)
	}
	svc := jobsvc.New(jobsvc.Config{
		FleetWorkers:        8,
		AllowFaultInjection: true, // the faults axis re-runs kill/retry cells
	})
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	return &serviceEnv{
		svc: svc,
		srv: srv,
		ln:  ln,
		cli: jobsvc.Client{Base: "http://" + ln.Addr().String()},
	}, nil
}

func (e *serviceEnv) stop() {
	e.srv.Close()
	e.svc.Close()
}

// runServiceCell pushes one dist variant through the full API round trip
// and returns the output digest, pairs, remote-rebuilt ledger and the
// job's reported stats.
func runServiceCell(e *serviceEnv, j Job, v distVariant) (string, []kv.Pair, Ledger, *jobsvc.JobStats, error) {
	workers := v.workers
	if workers == 0 {
		workers = 3
	}
	partitions := v.partitions
	if partitions == 0 {
		partitions = 4
	}
	collector := "hash"
	if j.Collector == core.BufferPool {
		collector = "pool"
	}
	if v.combiner {
		collector = "hash"
	}
	req := jobsvc.Request{
		Tenant:      "conformance",
		App:         strings.ToLower(j.Name),
		InputB64:    base64.StdEncoding.EncodeToString(j.Data),
		ParamsB64:   base64.StdEncoding.EncodeToString(j.Params),
		RecordSize:  int(j.RecordSize),
		Chunk:       int(j.blockFor(v.blockMul)),
		Partitions:  partitions,
		Workers:     workers,
		Collector:   collector,
		UseCombiner: v.combiner,
		Compress:    v.compress,
		Elastic:     v.elastic, // membership schedule rides the API verbatim
	}
	if v.blockstore != "" { // as runDistApp sets its options
		req.Blockstore = v.blockstore
		req.Replication = 2
	}
	if v.spill {
		req.SpillThreshold = 2 << 10
	}
	if v.mapFault {
		req.MapFaultMod = 3 // same deterministic schedule as the dist axis
	}

	st, err := e.cli.Submit(req)
	if err != nil {
		return "", nil, Ledger{}, nil, fmt.Errorf("submit: %w", err)
	}
	st, err = e.cli.WaitDone(st.ID, 2*time.Minute)
	if err != nil {
		return "", nil, Ledger{}, nil, err
	}
	if st.State != jobsvc.StateDone {
		return "", nil, Ledger{}, nil, fmt.Errorf("job %s finished %s: %s", st.ID, st.State, st.Error)
	}
	out, err := e.cli.ResultPairs(st.ID)
	if err != nil {
		return "", nil, Ledger{}, nil, fmt.Errorf("result: %w", err)
	}
	counters, err := e.cli.JobCounters(st.ID)
	if err != nil {
		return "", nil, Ledger{}, nil, fmt.Errorf("job metrics: %w", err)
	}
	led := LedgerFromCounters(func(name string) int64 { return counters[name] })
	return Digest(out), out, led, st.Stats, nil
}

func runServiceApp(j Job, exp Expected, opt Options, add func(Cell)) {
	env, envErr := startService()
	if envErr == nil {
		defer env.stop()
	}
	for _, v := range distVariants(j) {
		if !selected(opt.Axes, v.axis) {
			continue
		}
		cell := Cell{Runtime: "service", App: j.Name, Axis: v.axis, Variant: v.name}
		if envErr != nil {
			cell.Err = envErr
			add(cell)
			continue
		}
		dig, out, led, stats, err := runServiceCell(env, j, v)
		if err != nil {
			cell.Err = err
			add(cell)
			continue
		}
		var wantJoins, wantDrains, wantKills int
		var wantResume bool
		if v.elastic != "" {
			evs, perr := dist.ParseElastic(v.elastic)
			if perr != nil {
				cell.Err = perr
				add(cell)
				continue
			}
			wantJoins, wantDrains, wantKills, wantResume = elasticExpect(evs)
		}
		if stats == nil {
			cell.Err = fmt.Errorf("job finished without stats")
			add(cell)
			continue
		}
		cell.Digest = dig
		cell.Err = verdict(j, exp, dig, out, led.Check(exp, CheckOpts{
			Dist:       true,
			Faulty:     wantKills > 0,
			Elastic:    wantResume,
			Combiner:   v.combiner,
			Compress:   v.compress,
			HasReduce:  j.New().ReduceBatch != nil,
			Blockstore: v.blockstore,
			InputBytes: stats.InputBytes,
			WantSpill:  v.spill,
		}))
		if cell.Err == nil && v.elastic != "" {
			switch {
			case stats.WorkersJoined != wantJoins:
				cell.Err = fmt.Errorf("elastic cell joined %d workers, want %d", stats.WorkersJoined, wantJoins)
			case stats.WorkersDrained != wantDrains:
				cell.Err = fmt.Errorf("elastic cell drained %d workers, want %d", stats.WorkersDrained, wantDrains)
			case stats.WorkersLost < wantKills:
				cell.Err = fmt.Errorf("elastic cell lost %d workers, want >= %d", stats.WorkersLost, wantKills)
			case stats.Resumed != wantResume:
				cell.Err = fmt.Errorf("elastic cell resumed=%v, want %v", stats.Resumed, wantResume)
			}
		}
		add(cell)
	}
}
