package conformance

import (
	"encoding/base64"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"glasswing/internal/core"
	"glasswing/internal/jobsvc"
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

// startService runs one in-process service on a real listener and returns
// its HTTP client and the function that stops it.
func startService() (*jobsvc.Client, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("service listen: %w", err)
	}
	svc := jobsvc.New(jobsvc.Config{
		FleetWorkers:        8,
		AllowFaultInjection: true, // the faults axis re-runs kill/retry cells
	})
	srv := &http.Server{Handler: svc.Handler()}
	go srv.Serve(ln)
	return &jobsvc.Client{Base: "http://" + ln.Addr().String()}, func() { srv.Close(); svc.Close() }, nil
}

// serviceTable is the dist table run through one service per app, started
// by the first cell that runs.
func serviceTable(j Job, exp Expected) ([]row, func()) {
	var cli *jobsvc.Client
	var err error
	stop := func() {}
	rows, _ := realTable(distVariants, true, func(j Job, v variant) (outcome, error) {
		if cli == nil && err == nil {
			cli, stop, err = startService()
		}
		if err != nil {
			return outcome{}, err
		}
		return runService(cli, j, v)
	})(j, exp)
	return rows, func() { stop() }
}

// serviceRequest is the cell's dist job as a POST /jobs body: the kernels
// travel by name and parameter blob, the membership schedule verbatim.
func (j Job) serviceRequest(v variant) (jobsvc.Request, error) {
	o, err := j.distOptions(v)
	collector := "hash"
	if o.Job.Collector == core.BufferPool {
		collector = "pool"
	}
	req := jobsvc.Request{
		Tenant:         "conformance",
		App:            strings.ToLower(j.Name),
		InputB64:       base64.StdEncoding.EncodeToString(j.Data),
		ParamsB64:      base64.StdEncoding.EncodeToString(j.Params),
		RecordSize:     int(j.RecordSize),
		Chunk:          int(j.blockFor(v.blockMul)),
		Partitions:     o.Job.Partitions,
		Workers:        o.Workers,
		Collector:      collector,
		UseCombiner:    o.Job.UseCombiner,
		Compress:       o.Job.Compress,
		Elastic:        v.elastic,
		Blockstore:     o.Blockstore,
		Replication:    o.Replication,
		SpillThreshold: o.Tuning.SpillThreshold,
	}
	if o.MapFault != nil {
		req.MapFaultMod = mapFaultMod
	}
	return req, err
}

// runService pushes one cell through the full API round trip; the ledger is
// rebuilt from the job's serialized metrics.
func runService(cli *jobsvc.Client, j Job, v variant) (outcome, error) {
	req, err := j.serviceRequest(v)
	if err != nil {
		return outcome{}, err
	}
	st, err := cli.Submit(req)
	if err != nil {
		return outcome{}, fmt.Errorf("submit: %w", err)
	}
	if st, err = cli.WaitDone(st.ID, 2*time.Minute); err != nil {
		return outcome{}, err
	}
	if st.State != jobsvc.StateDone {
		return outcome{}, fmt.Errorf("job %s finished %s: %s", st.ID, st.State, st.Error)
	}
	if st.Stats == nil {
		return outcome{}, fmt.Errorf("job finished without stats")
	}
	out, err := cli.ResultPairs(st.ID)
	if err != nil {
		return outcome{}, fmt.Errorf("result: %w", err)
	}
	counters, err := cli.JobCounters(st.ID)
	if err != nil {
		return outcome{}, fmt.Errorf("job metrics: %w", err)
	}
	s := st.Stats
	return outcome{out, LedgerFromCounters(func(name string) int64 { return counters[name] }), s.InputBytes,
		membership{s.WorkersJoined, s.WorkersDrained, s.WorkersLost, s.Resumed}}, nil
}
