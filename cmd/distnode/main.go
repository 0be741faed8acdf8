// Command distnode runs one node of a real distributed glasswing cluster:
// a coordinator that serves a job to TCP workers, or a worker that joins
// one. Each invocation is one OS process; point N workers at a
// coordinator's address and the job runs with its shuffle streamed
// worker-to-worker over real sockets, overlapped with map compute.
//
// Usage:
//
//	distnode -serve ADDR -workers N [-app wc|ts|km] [-size BYTES]
//	         [-partitions P] [-chunk BYTES] [-verify] [-trace-out FILE]
//	         [-metrics-out FILE] [-journal FILE [-resume]] [-elastic SPEC]
//	distnode -join ADDR [-listen ADDR]
//	distnode -jobsvc ADDR [-fleet N]    (resident multi-tenant job service)
//
// The cluster is elastic: extra `distnode -join` processes started mid-job
// are admitted live and given partitions to own, and -elastic schedules
// membership changes (e.g. "drain:0@4" retires worker 0 after 4 map tasks
// resolve, handing its partitions off first). With -journal the
// coordinator checkpoints every state change to an fsynced append-only
// file; if it crashes (or an -elastic "restart@..." event crashes it on
// schedule), re-running with the same -serve address plus -resume replays
// the journal and finishes the job — workers redial in on their own.
//
// A three-node run on one machine:
//
//	distnode -serve 127.0.0.1:9700 -workers 3 -app wc -verify &
//	distnode -join 127.0.0.1:9700 &
//	distnode -join 127.0.0.1:9700 &
//	distnode -join 127.0.0.1:9700
//
// The coordinator generates the input, splits it into blocks, and ships
// each block inside its map-task assignment; workers resolve the kernel
// from the app name and parameter blob, so no filesystem or code is
// shared between processes.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"

	"glasswing/internal/dist"
	"glasswing/internal/jobsvc"
	"glasswing/internal/obs"
)

// resumeHint is the command that resumes this coordinator's job: every flag
// the crashed run was given (the resumed coordinator refuses a job whose
// partitions, combiner, blocks or block-store mode differ from the
// journal's), minus the -elastic schedule that crashed it, plus -resume.
func resumeHint(fs *flag.FlagSet) string {
	hint := "distnode"
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "elastic" && f.Name != "resume" {
			hint += fmt.Sprintf(" -%s=%s", f.Name, f.Value) // -name=value suits bool flags too
		}
	})
	return hint + " -resume"
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("distnode: ")
	var (
		serve       = flag.String("serve", "", "coordinator mode: listen address for workers (e.g. 127.0.0.1:9700)")
		join        = flag.String("join", "", "worker mode: coordinator address to join")
		listen      = flag.String("listen", "127.0.0.1:0", "worker mode: shuffle listen address peers dial (use a reachable host:port for multi-host runs)")
		workers     = flag.Int("workers", 3, "coordinator mode: workers to wait for")
		appName     = flag.String("app", "wc", "application: wc, ts, km")
		size        = flag.Int("size", 1<<20, "approximate input size in bytes")
		partitions  = flag.Int("partitions", 0, "reduce partitions (0 = default)")
		chunk       = flag.Int("chunk", 0, "map block size in bytes (0 = default)")
		verify      = flag.Bool("verify", false, "verify output against a reference implementation")
		traceOut    = flag.String("trace-out", "", "write the run's Chrome trace_event JSON to this file")
		metricsOut  = flag.String("metrics-out", "", "write the run's metrics snapshot as JSON to this file")
		rejoinGrace = flag.Duration("rejoin-grace", 0, "worker mode: how long to retry re-dialing a crashed coordinator before giving up (0 = exit on coordinator loss)")

		journal = flag.String("journal", "", "coordinator mode: checkpoint journal path (append-only, fsynced)")
		resume  = flag.Bool("resume", false, "coordinator mode: resume a crashed job from -journal instead of starting fresh")
		elastic = flag.String("elastic", "", "coordinator mode: membership schedule kind[:worker]@threshold[,...] — drain:W, restart; threshold N fires after N map tasks resolve, rN after N reduce outputs accept")

		input       = flag.String("input", "", "coordinator mode: read the input from this file instead of generating it (-app wc or ts)")
		noCombiner  = flag.Bool("no-combiner", false, "coordinator mode: disable the map-side combiner")
		bstore      = flag.String("blockstore", "", "coordinator mode: ingest input into worker block stores — 'local' (locality-preferred scheduling) or 'remote' (forced-remote baseline); empty ships blocks inside task assignments")
		replication = flag.Int("replication", 0, "coordinator mode: block replicas per block (0 = 3, capped at cluster width)")
		spillThresh = flag.Int64("spill-threshold", 0, "worker mode: spill committed shuffle partitions to disk past this many resident bytes (0 = never)")
		storeDir    = flag.String("store-dir", "", "worker mode: scratch directory for block replicas and spill files (default: OS temp)")

		jobsvcAddr  = flag.String("jobsvc", "", "job-service mode: run the resident multi-tenant coordinator on this HTTP address")
		fleet       = flag.Int("fleet", 8, "job-service mode: worker-slot budget shared by all jobs")
		allowFaults = flag.Bool("jobsvc-faults", false, "job-service mode: allow fault-injection request fields")
	)
	flag.Parse()

	switch {
	case *join != "" && *serve != "":
		log.Fatal("pick one of -serve (coordinator) or -join (worker)")
	case *jobsvcAddr != "":
		svc := jobsvc.New(jobsvc.Config{
			FleetWorkers:        *fleet,
			AllowFaultInjection: *allowFaults,
			Events:              slog.New(slog.NewJSONHandler(os.Stderr, nil)),
		})
		ln, err := net.Listen("tcp", *jobsvcAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("job service listening on http://%s (fleet: %d worker slots)", ln.Addr(), *fleet)
		err = (&http.Server{Handler: svc.Handler()}).Serve(ln)
		log.Fatal(err)
	case *join != "":
		tel := obs.NewTelemetry()
		tun := dist.Tuning{RejoinGrace: *rejoinGrace, SpillThreshold: *spillThresh, WorkDir: *storeDir}
		if err := dist.Join(*join, *listen, tun, tel); err != nil {
			log.Fatal(err)
		}
		fmt.Println("worker done")
		// A worker's slice of the ledger — including its locality and spill
		// counters — lives in its own telemetry; snapshot it on request.
		writeTrace(*traceOut, tel)
		writeMetrics(*metricsOut, tel)
	case *serve != "":
		var (
			job    dist.Job
			blocks [][]byte
			check  func(*dist.Result) error
			err    error
		)
		if *input != "" {
			data, rerr := os.ReadFile(*input)
			if rerr != nil {
				log.Fatal(rerr)
			}
			job, blocks, check, err = dist.FileJob(*appName, data, *partitions, *chunk, !*noCombiner)
		} else {
			job, blocks, check, err = dist.DemoJob(*appName, *size, *partitions, *chunk)
			if *noCombiner {
				job.UseCombiner = false
			}
		}
		if err != nil {
			log.Fatal(err)
		}
		tel := obs.NewTelemetry()
		o := dist.Options{
			Job:         job,
			Workers:     *workers,
			Blocks:      blocks,
			Telemetry:   tel,
			NewApp:      dist.RegistryResolver,
			JournalPath: *journal,
			Resume:      *resume,
			Blockstore:  *bstore,
			Replication: *replication,
		}
		if *resume && *journal == "" {
			log.Fatal("-resume needs -journal")
		}
		if *elastic != "" {
			o.Elastic, err = dist.ParseElastic(*elastic)
			if err != nil {
				log.Fatal(err)
			}
			if dist.HasRestart(o.Elastic) && *journal == "" {
				log.Fatal("-elastic restart events need -journal to resume from")
			}
		}
		res, err := dist.Serve(*serve, o)
		if err != nil {
			if dist.CoordinatorRestarted(err) {
				log.Printf("coordinator crashed on schedule; the job is journaled, not failed")
				log.Fatalf("resume it: %s", resumeHint(flag.CommandLine))
			}
			log.Fatal(err)
		}
		fmt.Printf("%s (dist, %d workers): total %v (map %v, reduce %v), %d blocks in, %d intermediate pairs, %d output pairs\n",
			res.App, res.Workers, res.Total, res.MapElapsed, res.ReduceElapsed,
			len(blocks), res.IntermediatePairs, res.OutputPairs)
		if res.WorkersJoined > 0 || res.WorkersDrained > 0 || res.WorkersLost > 0 || res.Resumed {
			fmt.Printf("elasticity: %d joined, %d drained, %d lost, resumed: %v\n",
				res.WorkersJoined, res.WorkersDrained, res.WorkersLost, res.Resumed)
		}
		fmt.Printf("trace %016x; clock offsets:", res.TraceID)
		for w := 0; w < res.Workers; w++ {
			if off, ok := res.ClockOffsets[w]; ok {
				fmt.Printf(" w%d %+.3fms (rtt %.3fms)", w, off*1e3, res.ClockRTTs[w]*1e3)
			}
		}
		fmt.Println()
		if *verify {
			if err := check(res); err != nil {
				log.Fatalf("output verification FAILED: %v", err)
			}
			fmt.Println("output verified against reference implementation")
		}
		writeTrace(*traceOut, tel)
		writeMetrics(*metricsOut, tel)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func writeTrace(path string, tel *obs.Telemetry) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := obs.WriteChromeTrace(f, tel.Spans.Spans(), tel.Spans.Instants()...); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote Chrome trace to %s\n", path)
}

func writeMetrics(path string, tel *obs.Telemetry) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := tel.Metrics.WriteJSON(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote metrics snapshot to %s\n", path)
}
