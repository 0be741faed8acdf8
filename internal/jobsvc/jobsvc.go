// Package jobsvc is the resident multi-tenant job service: a long-running
// coordinator that owns a shared internal/dist worker fleet and accepts
// many concurrent MapReduce jobs over a stdlib HTTP/JSON API. Where every
// run used to be a one-shot CLI invocation — build a cluster, run one job,
// exit — the service keeps a fixed budget of worker slots resident and
// multiplexes them across tenants, jobs and priorities.
//
// The admission and scheduling design borrows the structure of geth's
// transaction pool (priced admission, per-sender caps, demotion under
// pressure), translated to jobs:
//
//   - Bounded priority queue. Submissions enter one of three priority
//     classes (low/normal/high). The global queue is capped; per-tenant
//     quotas cap queued jobs, queued input bytes, and running jobs.
//   - Priced admission under saturation. When the global queue is full, a
//     new submission is admitted only by evicting a strictly
//     lower-priority queued job — the victim is the youngest job of the
//     most-backlogged tenant in the lowest populated class (the txpool's
//     "underpriced transaction dropped for a better-paying one"). Anything
//     else is rejected with 429 and a Retry-After hint.
//   - Fair dispatch. The scheduler serves classes strictly high-to-low;
//     within a class it round-robins across tenants and runs each tenant's
//     jobs FIFO, skipping tenants at their running-set quota. A job that
//     does not fit the free slot budget blocks its class (no lower-priority
//     bypass), so big jobs cannot starve.
//
// Every job runs on a job-scoped internal/dist loopback cluster whose
// worker count is drawn from the shared slot fleet; results, JobStats,
// per-job conservation counters and Chrome traces are all served back over
// the API, and service-level metrics (queue depth, admission decisions,
// per-tenant wait/service time, dispatch fairness) are published through
// an internal/obs registry at GET /metrics.
package jobsvc

import (
	"encoding/base64"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"glasswing/internal/core"
	"glasswing/internal/dist"
	"glasswing/internal/native"
	"glasswing/internal/obs"
)

// Priority is a submission's scheduling class.
type Priority int

// Priority classes, lowest first. The zero value is PriLow so an explicit
// parse (defaulting to normal) decides, not the zero value.
const (
	PriLow Priority = iota
	PriNormal
	PriHigh
	numPriorities
)

// ParsePriority maps the wire spelling to a class; empty means normal.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "low":
		return PriLow, nil
	case "", "normal":
		return PriNormal, nil
	case "high":
		return PriHigh, nil
	}
	return 0, fmt.Errorf("unknown priority %q (low, normal, high)", s)
}

func (p Priority) String() string {
	switch p {
	case PriLow:
		return "low"
	case PriHigh:
		return "high"
	default:
		return "normal"
	}
}

// State is a job's lifecycle phase.
type State string

// Job states. Terminal states are done, failed, canceled and evicted.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
	StateEvicted  State = "evicted"
)

func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateEvicted
}

// quota bounds one tenant's footprint in the service — the txpool's
// per-sender caps. Every tenant has the same one.
type quota struct {
	// maxQueued caps the tenant's queued (not yet running) jobs.
	maxQueued int
	// maxRunning caps the tenant's simultaneously running jobs; the
	// scheduler skips tenants at this cap rather than rejecting.
	maxRunning int
}

// maxQueuedBytes caps the summed input+params bytes of one tenant's queued
// jobs — the byte budget.
const maxQueuedBytes = 16 << 20

// Config configures the service.
type Config struct {
	// FleetWorkers is the shared worker-slot budget (default 8): the sum
	// of all running jobs' worker counts never exceeds it.
	FleetWorkers int
	// Tuning passes through to every job's dist cluster.
	Tuning dist.Tuning
	// AllowFaultInjection enables the loopback fault-injection request
	// fields (map_fault_mod, elastic) — conformance and CI use them to
	// drive the dist fault cells through the service path. Off, such
	// requests are rejected 400.
	AllowFaultInjection bool
	// Events, when set, receives the service's structured event journal:
	// one record per admission, rejection, eviction, dispatch, retry and
	// worker death, keyed by tenant, job id and trace id. Nil disables
	// journaling.
	Events *slog.Logger
	// RuntimeSampleEvery is the interval of the process runtime gauges
	// (goroutines, heap in-use, cumulative GC pause) published into the
	// service registry (Service.Metrics). 0 = default 1s; negative
	// disables the sampler.
	RuntimeSampleEvery time.Duration

	// The admission caps and the backoff floor: only this package's tests
	// set them, to saturate a small service quickly; 0 takes the default.
	maxQueue       int           // queued jobs across all tenants (default 64)
	maxInputBytes  int64         // one submission's decoded input (default 32 MiB); larger is rejected 413
	maxParamsBytes int64         // one submission's param blob (default 1 MiB); larger is rejected 413
	quota          quota         // every tenant's (default 16 queued, 4 running)
	retryAfter     time.Duration // the floor of the 429 backoff hint (default 1s)
}

func (c Config) withDefaults() Config {
	if c.FleetWorkers <= 0 {
		c.FleetWorkers = 8
	}
	if c.maxQueue <= 0 {
		c.maxQueue = 64
	}
	if c.maxInputBytes <= 0 {
		c.maxInputBytes = 32 << 20
	}
	if c.maxParamsBytes <= 0 {
		c.maxParamsBytes = 1 << 20
	}
	if c.quota.maxQueued <= 0 {
		c.quota.maxQueued = 16
	}
	if c.quota.maxRunning <= 0 {
		c.quota.maxRunning = 4
	}
	if c.retryAfter <= 0 {
		c.retryAfter = time.Second
	}
	if c.RuntimeSampleEvery == 0 {
		c.RuntimeSampleEvery = time.Second
	}
	return c
}

// Request is the POST /jobs submission body.
type Request struct {
	// Tenant identifies the submitter for quotas and fairness (required).
	Tenant string `json:"tenant"`
	// App names a registry application: wc, ts, km (required).
	App string `json:"app"`
	// Priority is low, normal (default) or high.
	Priority string `json:"priority,omitempty"`
	// InputB64 is the raw job input, base64 (required). RecordSize > 0
	// splits it on fixed-size records, otherwise on newlines.
	InputB64   string `json:"input_b64"`
	RecordSize int    `json:"record_size,omitempty"`
	// ParamsB64 is the app's registry parameter blob, base64 (TeraSort's
	// sampled range boundaries, KMeans' center spec).
	ParamsB64 string `json:"params_b64,omitempty"`
	// Chunk is the map block size in bytes (0 = default).
	Chunk int `json:"chunk,omitempty"`
	// Partitions is the reduce partition count (0 = default 4).
	Partitions int `json:"partitions,omitempty"`
	// Workers is the cluster size drawn from the fleet (0 = default 2;
	// clamped to the fleet size).
	Workers int `json:"workers,omitempty"`
	// Collector is "hash" (default) or "pool". It selects no code: the
	// parser hands it to native.CheckCombiner, which refuses use_combiner
	// unless it is "hash".
	Collector   string `json:"collector,omitempty"`
	UseCombiner bool   `json:"use_combiner,omitempty"`
	Compress    bool   `json:"compress,omitempty"`

	// Blockstore ingests the input into the cluster's worker block stores
	// before the map phase: "local" schedules splits onto replica holders
	// (locality-preferred), "remote" forces every read over the peer mesh.
	// Empty ships blocks inside task assignments. Replication is replicas
	// per block (0 = 3, capped at the cluster width); SpillThreshold makes
	// workers spill committed shuffle partitions to disk past that many
	// resident bytes.
	Blockstore     string `json:"blockstore,omitempty"`
	Replication    int    `json:"replication,omitempty"`
	SpillThreshold int64  `json:"spill_threshold,omitempty"`

	// Fault injection (Config.AllowFaultInjection only): MapFaultMod > 0
	// fails the first attempt of every MapFaultMod-th map task. A worker
	// is killed through Elastic ("kill:1@2").
	MapFaultMod int `json:"map_fault_mod,omitempty"`

	// Elastic (Config.AllowFaultInjection only) schedules membership churn
	// against the job's cluster in dist.ParseElastic syntax — e.g.
	// "join@2,drain:0@4,kill:1@6,restart@r1". Restart events run against a
	// throwaway checkpoint journal the service manages; the job resumes and
	// reports Resumed in its stats.
	Elastic string `json:"elastic,omitempty"`
}

// APIError is a structured request failure: an HTTP status, a stable
// machine-readable reason slug, and a human message. 429s carry the
// retry-after hint that also becomes the Retry-After header.
type APIError struct {
	Status       int    `json:"-"`
	Reason       string `json:"reason"`
	Msg          string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

func (e *APIError) Error() string { return fmt.Sprintf("%d %s: %s", e.Status, e.Reason, e.Msg) }

func badRequest(reason, format string, args ...any) *APIError {
	return &APIError{Status: http.StatusBadRequest, Reason: reason, Msg: fmt.Sprintf(format, args...)}
}

// JobStats summarizes one completed run — the dist Result minus the
// output payload.
type JobStats struct {
	InputBytes        int64 `json:"input_bytes"`
	IntermediatePairs int64 `json:"intermediate_pairs"`
	OutputPairs       int   `json:"output_pairs"`
	MapRetries        int   `json:"map_retries"`
	WorkersLost       int   `json:"workers_lost"`
	MapRecoveries     int   `json:"map_recoveries"`
	WorkersJoined     int   `json:"workers_joined,omitempty"`
	WorkersDrained    int   `json:"workers_drained,omitempty"`
	Resumed           bool  `json:"resumed,omitempty"`
	ReadLocalBytes    int64 `json:"read_local_bytes,omitempty"`
	ReadRemoteBytes   int64 `json:"read_remote_bytes,omitempty"`
	SpillRecords      int64 `json:"spill_records,omitempty"`
	MapMS             int64 `json:"map_ms"`
	ReduceMS          int64 `json:"reduce_ms"`
	TotalMS           int64 `json:"total_ms"`
}

// Status is a job's externally visible state (GET /jobs/{id} and the
// submit response).
type Status struct {
	ID         string `json:"id"`
	Tenant     string `json:"tenant"`
	App        string `json:"app"`
	Priority   string `json:"priority"`
	State      State  `json:"state"`
	Workers    int    `json:"workers"`
	Partitions int    `json:"partitions"`
	// QueueDepth is the service-wide queued-job count at response time.
	QueueDepth int `json:"queue_depth"`
	// WaitMS is time spent queued (still ticking while queued); RunMS is
	// time running (ticking while running).
	WaitMS int64     `json:"wait_ms"`
	RunMS  int64     `json:"run_ms,omitempty"`
	Stats  *JobStats `json:"stats,omitempty"`
	Error  string    `json:"error,omitempty"`
	// TraceID is the job's distributed trace id (16 hex digits), minted at
	// admission and propagated through every wire message of the job's
	// cluster; GET /jobs/{id}/trace serves the merged cluster trace it
	// names.
	TraceID string `json:"trace_id,omitempty"`
}

// job is the service's record of one submission.
type job struct {
	id      string
	seq     int64
	tenant  string
	pri     Priority
	traceID uint64

	// opts is the run parseRequest validated: job spec, cluster size,
	// tuning, input blocks (views into the decoded input), block store and
	// fault injection. distRun adds only what is per run.
	opts dist.Options
	cost int64 // queued bytes: input + params

	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	errMsg    string

	output []byte // kv.Marshal of the final pairs, partition order
	stats  *JobStats
	tel    *obs.Telemetry // job-scoped: conservation counters + spans
}

// tenantState tracks one tenant's queue and running-set footprint.
type tenantState struct {
	queued      [numPriorities][]*job // FIFO per class
	queuedCount int
	queuedBytes int64
	running     int
}

// Service is the resident coordinator. Create with New, serve its
// Handler, and Close it to drain.
type Service struct {
	cfg Config
	reg *obs.Registry

	mu   sync.Mutex
	cond *sync.Cond
	// fleet is the worker-slot budget every job's cluster draws from: a job
	// holds as many slots as it runs workers, from dispatch until its cluster
	// quiesces, so at most Total workers exist at once. Clusters share
	// nothing else — each RunLoopback owns its listener, ledger and workers.
	// Free reads negative after a shrink below current use.
	fleet       FleetStatus
	jobs        map[string]*job
	order       []*job // submission order, for listing
	tenants     map[string]*tenantState
	tenantOrder []string
	rr          [numPriorities]int // round-robin cursor per class
	queuedTotal int
	runningJobs int
	drain       drainLog // when the last jobs finished: the 429 hint's pace
	nextSeq     int64
	closed      bool

	schedWG sync.WaitGroup // the scheduler goroutine
	runWG   sync.WaitGroup // running job goroutines
	bgWG    sync.WaitGroup // background samplers
	stopCh  chan struct{}  // closed by Close; stops samplers and streams

	// runFn executes one dispatched job; tests stub it to exercise the
	// scheduler without real clusters. Defaults to (*Service).distRun.
	runFn func(*job) (*dist.Result, *obs.Telemetry, error)
	// dispatchHook, when set, observes every dispatch decision under the
	// service lock (fairness property tests).
	dispatchHook func(ev DispatchEvent)
}

// DispatchEvent is one scheduler decision, captured under the service
// lock for fairness auditing: the chosen job plus, for each tenant, its
// queued-per-class counts at the moment of dispatch.
type DispatchEvent struct {
	JobID    string
	Tenant   string
	Priority Priority
	Workers  int
	// QueuedAt maps tenant -> per-class queued counts immediately BEFORE
	// this dispatch removed the chosen job.
	QueuedAt map[string][numPriorities]int
	// RunningAt maps tenant -> running count before this dispatch.
	RunningAt map[string]int
}

// New builds a Service and starts its scheduler.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		reg:     obs.NewRegistry(),
		fleet:   FleetStatus{Total: cfg.FleetWorkers, Free: cfg.FleetWorkers},
		jobs:    make(map[string]*job),
		tenants: make(map[string]*tenantState),
		stopCh:  make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.runFn = s.distRun
	s.gaugeSlots()
	s.schedWG.Add(1)
	go s.scheduler()
	if cfg.RuntimeSampleEvery > 0 {
		s.bgWG.Add(1)
		go s.runtimeSampler(cfg.RuntimeSampleEvery)
	}
	return s
}

// Close stops admissions, cancels every queued job, waits for running
// jobs to finish (a dist cluster cannot be preempted mid-job), and stops
// the scheduler. Job records remain readable afterwards.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, t := range s.tenants {
		for p := range t.queued {
			for _, j := range t.queued[p] {
				j.state = StateCanceled
				j.finished = time.Now()
				j.errMsg = "service shutting down"
				j.opts.Blocks = nil
				s.counter("jobsvc_canceled_total", obs.L("tenant", j.tenant)).Inc()
			}
			t.queued[p] = nil
		}
		t.queuedCount, t.queuedBytes = 0, 0
	}
	s.queuedTotal = 0
	s.gaugeQueue()
	s.cond.Broadcast()
	close(s.stopCh)
	s.mu.Unlock()
	s.schedWG.Wait()
	s.runWG.Wait()
	s.bgWG.Wait()
}

// Metrics returns the service-level registry (queue depth, admission
// decisions, per-tenant wait/service time, dispatch fairness). Job
// conservation counters do NOT land here — each job owns a private
// registry served at /jobs/{id}/metrics — so concurrent jobs cannot
// cross-contaminate ledgers.
func (s *Service) Metrics() *obs.Registry { return s.reg }

// ResizeFleet changes the shared worker-slot pool's capacity while the
// service runs — the horizontal scaling hook behind POST /fleet. Growth
// wakes the scheduler (a queued job may now fit); shrinking below current
// usage never preempts, it just gates new dispatches until running jobs
// release the deficit.
func (s *Service) ResizeFleet(n int) FleetStatus {
	n = max(n, 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fleet.Free += n - s.fleet.Total
	s.fleet.Total = n
	s.gaugeSlots()
	s.event("fleet-resized", "workers", n, "free", s.fleet.Free)
	s.counter("jobsvc_fleet_resize_total").Inc()
	s.cond.Broadcast()
	return s.fleet
}

// fleetStatus reads the slot budget.
func (s *Service) fleetStatus() FleetStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fleet
}

// releaseLocked returns n slots to the budget. Releasing more than was
// acquired is an accounting bug and panics.
func (s *Service) releaseLocked(n int) {
	s.fleet.Free += n
	if s.fleet.Free > s.fleet.Total {
		panic("jobsvc: released fleet slots never acquired")
	}
}

func (s *Service) counter(name string, labels ...obs.Label) *obs.Counter {
	return s.reg.Counter(name, labels...)
}

func (s *Service) gaugeQueue() {
	s.reg.Gauge("jobsvc_queue_depth").Set(float64(s.queuedTotal))
	s.reg.Gauge("jobsvc_running_jobs").Set(float64(s.runningJobs))
}

func (s *Service) gaugeSlots() {
	s.reg.Gauge("jobsvc_fleet_slots_free").Set(float64(s.fleet.Free))
}

// event writes one structured record to the journal, if one is configured.
func (s *Service) event(msg string, args ...any) {
	if s.cfg.Events != nil {
		s.cfg.Events.Info(msg, args...)
	}
}

// journalFor derives a job-scoped journal logger carrying the tenant, job
// and trace id on every record; nil when journaling is off.
func (s *Service) journalFor(j *job) *slog.Logger {
	if s.cfg.Events == nil {
		return nil
	}
	return s.cfg.Events.With("tenant", j.tenant, "job", j.id, "trace", traceIDHex(j.traceID))
}

func traceIDHex(id uint64) string { return fmt.Sprintf("%016x", id) }

// retryAfterLocked derives the 429 backoff hint from observed load: the
// time the service takes to finish the queue ahead (every queued job, and
// one more), at the pace it has been finishing jobs — with however many
// slots running side by side — clamped to [Config.retryAfter, 30s]. Before
// two jobs have finished it is the floor.
func (s *Service) retryAfterLocked() time.Duration {
	d := s.drain.wait(s.queuedTotal+1, time.Now())
	return min(max(d, s.cfg.retryAfter), 30*time.Second)
}

// drainWindow is how many of the latest completions drainLog keeps.
const drainWindow = 32

// drainLog records when the service's latest jobs finished, to measure the
// rate at which it drains its queue.
type drainLog struct {
	at [drainWindow]time.Time // a ring; at[n%drainWindow] is the oldest once full
	n  int                    // completions recorded
}

func (d *drainLog) done(t time.Time) {
	d.at[d.n%drainWindow] = t
	d.n++
}

// wait is the time to finish the given number of jobs at the measured
// rate: the completions after the oldest one kept, over the time from it
// to now, so a service that stops finishing jobs reads slower the longer
// it stalls. It is 0 until two completions are recorded.
func (d *drainLog) wait(jobs int, now time.Time) time.Duration {
	k := min(d.n, drainWindow)
	if k < 2 {
		return 0
	}
	span := now.Sub(d.at[(d.n-k)%drainWindow])
	return time.Duration(float64(jobs) * float64(span) / float64(k-1))
}

// runtimeSampler publishes process runtime gauges on a ticker until Close.
func (s *Service) runtimeSampler(every time.Duration) {
	defer s.bgWG.Done()
	s.sampleRuntime()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.stopCh:
			return
		case <-t.C:
			s.sampleRuntime()
		}
	}
}

func (s *Service) sampleRuntime() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.reg.Gauge("process_goroutines").Set(float64(runtime.NumGoroutine()))
	s.reg.Gauge("process_heap_inuse_bytes").Set(float64(ms.HeapInuse))
	s.reg.Gauge("process_gc_pause_ns").Set(float64(ms.PauseTotalNs))
}

// parseRequest validates a submission and builds the job record (no lock,
// no admission yet).
func (s *Service) parseRequest(req Request) (*job, *APIError) {
	if req.Tenant == "" {
		return nil, badRequest("missing-tenant", "tenant is required")
	}
	pri, err := ParsePriority(req.Priority)
	if err != nil {
		return nil, badRequest("bad-priority", "%v", err)
	}
	params, err := base64.StdEncoding.DecodeString(req.ParamsB64)
	if err != nil {
		return nil, badRequest("bad-params-encoding", "params_b64: %v", err)
	}
	if int64(len(params)) > s.cfg.maxParamsBytes {
		return nil, &APIError{Status: http.StatusRequestEntityTooLarge, Reason: "params-too-large",
			Msg: fmt.Sprintf("param blob %d bytes exceeds cap %d", len(params), s.cfg.maxParamsBytes)}
	}
	input, err := base64.StdEncoding.DecodeString(req.InputB64)
	if err != nil {
		return nil, badRequest("bad-input-encoding", "input_b64: %v", err)
	}
	if len(input) == 0 {
		return nil, badRequest("empty-input", "input_b64 is required and must decode to non-empty input")
	}
	if int64(len(input)) > s.cfg.maxInputBytes {
		return nil, &APIError{Status: http.StatusRequestEntityTooLarge, Reason: "input-too-large",
			Msg: fmt.Sprintf("input %d bytes exceeds cap %d", len(input), s.cfg.maxInputBytes)}
	}
	// Resolve the app now: an unknown name or corrupt param blob fails the
	// submission, not the run.
	app, _, err := dist.RegistryResolver(dist.AppSpec{Name: req.App, Params: params})
	if err != nil {
		return nil, badRequest("unknown-app", "%v", err)
	}
	var collector core.CollectorKind
	switch req.Collector {
	case "", "hash":
		collector = core.HashTable
	case "pool":
		collector = core.BufferPool
	default:
		return nil, badRequest("bad-collector", "unknown collector %q (hash, pool)", req.Collector)
	}
	if err := native.CheckCombiner(app, collector, req.UseCombiner); err != nil {
		return nil, badRequest("bad-combiner", "%v", err)
	}
	workers := req.Workers
	if workers <= 0 {
		workers = 2
	}
	// Clamp to the live fleet capacity, not the boot-time config — the
	// fleet can be resized while the service runs (POST /fleet).
	if t := s.fleetStatus().Total; workers > t {
		workers = t
	}
	if req.RecordSize < 0 || req.Chunk < 0 || req.Partitions < 0 || req.Partitions > dist.MaxPartitions {
		return nil, badRequest("bad-geometry", "record_size, chunk and partitions must be non-negative, partitions at most %d", dist.MaxPartitions)
	}
	switch req.Blockstore {
	case "", "local", "remote":
	default:
		return nil, badRequest("bad-blockstore", "unknown blockstore mode %q (local, remote)", req.Blockstore)
	}
	if req.Replication < 0 || req.SpillThreshold < 0 {
		return nil, badRequest("bad-blockstore", "replication and spill_threshold must be non-negative")
	}
	j := &job{
		tenant: req.Tenant,
		pri:    pri,
		opts: dist.Options{
			Job: dist.Job{
				App:         dist.AppSpec{Name: req.App, Params: params},
				Partitions:  req.Partitions,
				Collector:   collector,
				UseCombiner: req.UseCombiner,
				Compress:    req.Compress,
			},
			Workers:     workers,
			Tuning:      s.cfg.Tuning,
			Blocks:      dist.SplitBlocks(input, req.Chunk, req.RecordSize),
			KillWorker:  -1,
			Blockstore:  req.Blockstore,
			Replication: req.Replication,
		},
		cost: int64(len(input) + len(params)),
	}
	if req.SpillThreshold > 0 {
		j.opts.Tuning.SpillThreshold = req.SpillThreshold
	}
	if req.MapFaultMod != 0 || req.Elastic != "" {
		if !s.cfg.AllowFaultInjection {
			return nil, badRequest("fault-injection-disabled", "fault-injection fields require AllowFaultInjection")
		}
		if req.MapFaultMod < 0 {
			return nil, badRequest("bad-fault", "map_fault_mod must be non-negative")
		}
		if mod := req.MapFaultMod; mod > 0 {
			j.opts.MapFault = func(task, attempt int) bool { return attempt == 0 && task%mod == 0 }
		}
		if req.Elastic != "" {
			evs, err := dist.ParseElastic(req.Elastic)
			if err != nil {
				return nil, badRequest("bad-elastic", "%v", err)
			}
			// Drain/kill targets must name a worker that can exist: the
			// initial cluster plus every join the schedule itself adds.
			maxID := workers
			for _, ev := range evs {
				if ev.Kind == "join" {
					maxID++
				}
				if (ev.Kind == "drain" || ev.Kind == "kill") && ev.Worker >= maxID {
					return nil, badRequest("bad-elastic", "%s target %d outside worker range [0,%d)", ev.Kind, ev.Worker, maxID)
				}
			}
			j.opts.Elastic = evs
		}
	}
	return j, nil
}

// Submit validates, admits and enqueues one job, returning its status or
// a structured rejection. This is the txpool-style admission gate: tenant
// quotas first, then global saturation with priced eviction.
func (s *Service) Submit(req Request) (Status, *APIError) {
	j, apiErr := s.parseRequest(req)
	if apiErr != nil {
		s.counter("jobsvc_rejected_total", obs.L("reason", apiErr.Reason)).Inc()
		return Status{}, apiErr
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.counter("jobsvc_submitted_total", obs.L("tenant", j.tenant)).Inc()

	reject := func(reason, format string, args ...any) (Status, *APIError) {
		s.counter("jobsvc_rejected_total", obs.L("reason", reason)).Inc()
		s.event("job-rejected", "tenant", j.tenant, "reason", reason)
		return Status{}, &APIError{
			Status: http.StatusTooManyRequests, Reason: reason,
			Msg:          fmt.Sprintf(format, args...),
			RetryAfterMS: s.retryAfterLocked().Milliseconds(),
		}
	}

	if s.closed {
		s.counter("jobsvc_rejected_total", obs.L("reason", "shutting-down")).Inc()
		return Status{}, &APIError{Status: http.StatusServiceUnavailable, Reason: "shutting-down", Msg: "service is shutting down"}
	}

	t := s.tenantLocked(j.tenant)
	if t.queuedCount >= s.cfg.quota.maxQueued {
		return reject("tenant-queue-quota", "tenant %q has %d jobs queued (cap %d)", j.tenant, t.queuedCount, s.cfg.quota.maxQueued)
	}
	if t.queuedBytes+j.cost > maxQueuedBytes {
		return reject("tenant-byte-budget", "tenant %q queued bytes %d + %d exceed budget %d",
			j.tenant, t.queuedBytes, j.cost, maxQueuedBytes)
	}
	if s.queuedTotal >= s.cfg.maxQueue {
		// Saturation: priced admission. Only a strictly lower-priority
		// victim may be demoted for the newcomer.
		v := s.evictionVictimLocked()
		if v == nil || v.pri >= j.pri {
			return reject("queue-full", "queue full (%d jobs) and no lower-priority job to displace", s.queuedTotal)
		}
		s.evictLocked(v)
	}

	s.nextSeq++
	j.seq = s.nextSeq
	j.id = fmt.Sprintf("j-%d", j.seq)
	j.state = StateQueued
	j.submitted = time.Now()
	// Mint the job's distributed trace id at admission so the journal can
	// correlate queue-side events with the cluster trace; the low seq bits
	// disambiguate same-nanosecond admissions.
	j.traceID = uint64(j.submitted.UnixNano())<<8 | uint64(j.seq&0xff)
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	t.queued[j.pri] = append(t.queued[j.pri], j)
	t.queuedCount++
	t.queuedBytes += j.cost
	s.queuedTotal++
	s.counter("jobsvc_admitted_total", obs.L("tenant", j.tenant)).Inc()
	s.event("job-admitted", "tenant", j.tenant, "job", j.id, "trace", traceIDHex(j.traceID),
		"priority", j.pri.String(), "app", j.opts.Job.App.Name, "queue_depth", s.queuedTotal)
	s.gaugeQueue()
	s.cond.Broadcast()
	return s.statusLocked(j), nil
}

// tenantLocked returns (creating on first sight) the tenant's state.
func (s *Service) tenantLocked(name string) *tenantState {
	t := s.tenants[name]
	if t == nil {
		t = &tenantState{}
		s.tenants[name] = t
		s.tenantOrder = append(s.tenantOrder, name)
	}
	return t
}

// evictionVictimLocked picks the queued job priced admission would drop:
// lowest populated class; within it, the most-backlogged tenant's
// youngest job (the txpool demotes the worst-positioned transaction of
// the most over-quota sender).
func (s *Service) evictionVictimLocked() *job {
	for p := PriLow; p < numPriorities; p++ {
		var victim *job
		victimBacklog := -1
		for _, name := range s.tenantOrder {
			t := s.tenants[name]
			fifo := t.queued[p]
			if len(fifo) == 0 {
				continue
			}
			if t.queuedCount > victimBacklog {
				victim = fifo[len(fifo)-1]
				victimBacklog = t.queuedCount
			}
		}
		if victim != nil {
			return victim
		}
	}
	return nil
}

// evictLocked removes a queued job as demoted-under-pressure.
func (s *Service) evictLocked(v *job) {
	s.removeQueuedLocked(v)
	v.state = StateEvicted
	v.finished = time.Now()
	v.errMsg = "evicted under queue pressure by a higher-priority submission"
	v.opts.Blocks = nil
	s.counter("jobsvc_evicted_total", obs.L("tenant", v.tenant)).Inc()
	s.event("job-evicted", "tenant", v.tenant, "job", v.id, "trace", traceIDHex(v.traceID),
		"priority", v.pri.String())
}

// removeQueuedLocked unlinks a queued job from its tenant FIFO and the
// global accounting. The job must currently be queued.
func (s *Service) removeQueuedLocked(v *job) {
	t := s.tenants[v.tenant]
	fifo := t.queued[v.pri]
	for i, cand := range fifo {
		if cand == v {
			t.queued[v.pri] = append(fifo[:i:i], fifo[i+1:]...)
			break
		}
	}
	t.queuedCount--
	t.queuedBytes -= v.cost
	s.queuedTotal--
	s.gaugeQueue()
}

// Cancel cancels a queued job. Running jobs cannot be preempted (a dist
// cluster runs to completion); terminal jobs are already settled.
func (s *Service) Cancel(id string) (Status, *APIError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return Status{}, &APIError{Status: http.StatusNotFound, Reason: "unknown-job", Msg: fmt.Sprintf("no job %q", id)}
	}
	if j.state != StateQueued {
		return Status{}, &APIError{Status: http.StatusConflict, Reason: "not-queued",
			Msg: fmt.Sprintf("job %s is %s; only queued jobs can be canceled", id, j.state)}
	}
	s.removeQueuedLocked(j)
	j.state = StateCanceled
	j.finished = time.Now()
	j.errMsg = "canceled by client"
	j.opts.Blocks = nil
	s.counter("jobsvc_canceled_total", obs.L("tenant", j.tenant)).Inc()
	s.event("job-canceled", "tenant", j.tenant, "job", j.id, "trace", traceIDHex(j.traceID))
	s.cond.Broadcast()
	return s.statusLocked(j), nil
}

// JobStatus returns one job's status.
func (s *Service) JobStatus(id string) (Status, *APIError) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return Status{}, &APIError{Status: http.StatusNotFound, Reason: "unknown-job", Msg: fmt.Sprintf("no job %q", id)}
	}
	return s.statusLocked(j), nil
}

func (s *Service) statusLocked(j *job) Status {
	st := Status{
		ID:         j.id,
		Tenant:     j.tenant,
		App:        j.opts.Job.App.Name,
		Priority:   j.pri.String(),
		State:      j.state,
		Workers:    j.opts.Workers,
		Partitions: j.opts.Job.Partitions,
		QueueDepth: s.queuedTotal,
		Stats:      j.stats,
		Error:      j.errMsg,
	}
	if j.traceID != 0 {
		st.TraceID = traceIDHex(j.traceID)
	}
	switch {
	case j.state == StateQueued:
		st.WaitMS = time.Since(j.submitted).Milliseconds()
	case !j.started.IsZero():
		st.WaitMS = j.started.Sub(j.submitted).Milliseconds()
		if j.state == StateRunning {
			st.RunMS = time.Since(j.started).Milliseconds()
		} else {
			st.RunMS = j.finished.Sub(j.started).Milliseconds()
		}
	default: // canceled or evicted while queued
		st.WaitMS = j.finished.Sub(j.submitted).Milliseconds()
	}
	return st
}

// List returns every job's status in submission order.
func (s *Service) List() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, j := range s.order {
		out = append(out, s.statusLocked(j))
	}
	return out
}
