package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// def names one metric the harness prints. BENCHMARK.json lists the same
// names, units and directions (smoke_test.go holds the two together); the
// bound is the share of the parent's median by which an end-to-end metric
// may worsen, 0 for per-layer metrics, which are reported and not gated.
type def struct {
	name, unit, better string
	bound              float64
}

// Every bound is the contract's maximum. Over ten seeds the quartiles of a
// metric are 2–5% of its median apart when the sandbox is quiet, but the
// sandbox itself drifts: one hour every metric of every runtime read 17%
// slower than the hour before, on unchanged code. A tighter bound would
// reject changes for the neighbours' load.
var endToEndDefs = []def{
	{"setup_s", "s", "lower", 0.25},
	{"native_job_s", "s", "lower", 0.25},
	{"dist_job_s", "s", "lower", 0.25},
	{"svc_p50_ms", "ms", "lower", 0.25},
	{"svc_p95_ms", "ms", "lower", 0.25},
	{"svc_jobs_per_s", "1/s", "higher", 0.25},
}

var perLayerDefs = []def{
	{"baseline.naive_s", "s", "lower", 0},
	{"baseline.native_vs_naive_x", "x", "lower", 0},
	{"baseline.dist_vs_native_x", "x", "lower", 0},
	{"native.map_s", "s", "lower", 0},
	{"native.merge_s", "s", "lower", 0},
	{"native.reduce_s", "s", "lower", 0},
	{"native.kernel_busy_s", "s", "lower", 0},
	{"native.partition_busy_s", "s", "lower", 0},
	{"native.spill_busy_s", "s", "lower", 0},
	{"native.merge_busy_s", "s", "lower", 0},
	{"native.reduce_busy_s", "s", "lower", 0},
	{"native.pairs", "count", "lower", 0},
	{"native.spill_files", "count", "lower", 0},
	{"native.spill_bytes", "bytes", "lower", 0},
	{"native.alloc_mb_per_job", "MB", "lower", 0},
	{"native.allocs_per_job", "count", "lower", 0},
	{"kv.partition_ns_per_pair", "ns", "lower", 0},
	{"kv.sort_ns_per_pair", "ns", "lower", 0},
	{"kv.run_encode_mb_per_s", "MB/s", "higher", 0},
	{"kv.merge_ns_per_pair", "ns", "lower", 0},
	{"blockstore.put_mb_per_s", "MB/s", "higher", 0},
	{"blockstore.read_mb_per_s", "MB/s", "higher", 0},
	{"dist.total_s", "s", "lower", 0},
	{"dist.map_s", "s", "lower", 0},
	{"dist.reduce_s", "s", "lower", 0},
	{"dist.outside_s", "s", "lower", 0},
	{"dist.null_job_s", "s", "lower", 0},
	{"dist.w1_job_s", "s", "lower", 0},
	{"dist.scale_eff", "x", "higher", 0},
	{"dist.shuffle_bytes", "bytes", "lower", 0},
	{"dist.frames", "count", "lower", 0},
	{"dist.net_queue_s", "s", "lower", 0},
	{"dist.net_write_s", "s", "lower", 0},
	{"dist.ingest_bytes", "bytes", "lower", 0},
	{"dist.read_local_bytes", "bytes", "higher", 0},
	{"dist.read_remote_bytes", "bytes", "lower", 0},
	{"dist.spill_bytes", "bytes", "lower", 0},
	{"dist.spill_files", "count", "lower", 0},
	{"dist.map_retries", "count", "lower", 0},
	{"dist.pairs", "count", "lower", 0},
	{"dist.cover.map_input", "ratio", "lower", 0},
	{"dist.cover.map_kernel", "ratio", "lower", 0},
	{"dist.cover.map_partition", "ratio", "lower", 0},
	{"dist.cover.net_send", "ratio", "lower", 0},
	{"dist.cover.net_recv", "ratio", "lower", 0},
	{"dist.cover.reduce", "ratio", "lower", 0},
	{"dist.cover.sched_assign", "ratio", "lower", 0},
	{"dist.worker_peak_rss_mb", "MB", "lower", 0},
	{"jobsvc.submit_ms_p50", "ms", "lower", 0},
	{"jobsvc.result_ms_p50", "ms", "lower", 0},
	{"jobsvc.wait_ms_p50", "ms", "lower", 0},
	{"jobsvc.run_ms_p50", "ms", "lower", 0},
	{"jobsvc.engine_ms_p50", "ms", "lower", 0},
	{"jobsvc.poll_slack_ms", "ms", "lower", 0},
	{"jobsvc.p99_ms", "ms", "lower", 0},
	{"jobsvc.jobs", "count", "higher", 0},
	{"jobsvc.rejected", "count", "lower", 0},
	{"jobsvc.goroutines_end", "count", "lower", 0},
	{"obs.native_overhead_x", "x", "lower", 0},
	{"obs.dist_overhead_x", "x", "lower", 0},
	{"obs.overhead_x", "x", "lower", 0},
}

// metric is one measured value and the number of samples behind it.
type metric struct {
	value float64
	n     int
}

// metrics is what one run of one workload reports: values by name, and the
// outcome of each sums-to-the-whole check made on the traced run.
type metrics struct {
	vals   map[string]metric
	checks []string
}

func newMetrics() *metrics { return &metrics{vals: make(map[string]metric)} }

func (m *metrics) set(name string, v float64, n int) { m.vals[name] = metric{v, n} }

func (m *metrics) check(what string, ok bool, format string, args ...any) {
	verdict := "ok"
	if !ok {
		verdict = "BROKEN"
	}
	m.checks = append(m.checks, fmt.Sprintf("check %s: %s (%s)", verdict, what, fmt.Sprintf(format, args...)))
}

// print writes every metric in defs by name, with its unit and sample
// count. A metric the run did not produce is an error: the contract wants
// all of them on every workload.
func (m *metrics) print(w io.Writer, workload string, defs []def) error {
	for _, d := range defs {
		v, ok := m.vals[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", workload, d.name)
		}
		fmt.Fprintf(w, "%-12s %-28s %16.6g %-6s n=%d\n", workload, d.name, v.value, d.unit, v.n)
	}
	for _, c := range m.checks {
		fmt.Fprintf(w, "%-12s %s\n", workload, c)
	}
	return nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the two nearest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// worse is by how much b is worse than a, as a share of a, in the metric's
// own direction; negative when b is better.
func (d def) worse(a, b float64) float64 {
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
