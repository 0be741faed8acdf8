package dist

import (
	"fmt"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/workload"
)

// DemoJob builds one registry application end to end: the Job (params
// encoded so remote workers can resolve the kernel without seeing the
// input), the generated input blocks, and an output verifier. Both
// cmd/glasswing's loopback mode and cmd/distnode's coordinator mode run
// jobs through this, so an in-process cluster and a multi-process one
// execute the identical workload.
//
// size is the approximate input volume in bytes, chunk the map block size
// (0 for the default). Seeds are fixed: a demo job is reproducible across
// machines by construction. wc and ts generate their dataset and are then
// FileJob's jobs over it, the combiner on.
func DemoJob(name string, size, partitions, chunk int) (Job, [][]byte, func(*Result) error, error) {
	if size <= 0 {
		size = 1 << 20
	}
	var data []byte
	switch name {
	case "wc":
		data = workload.WikiText(1, size, size/400)
	case "ts":
		data = apps.TSData(3, size/workload.TeraRecordSize)
	case "km":
		data, spec := apps.KMData(4, size/16, 4, 64)
		job := Job{App: AppSpec{Name: name, Params: EncodeKMParams(spec)}, Partitions: partitions, Collector: core.HashTable}
		verify := func(r *Result) error { return apps.VerifyKMeans(r.Output(), data, spec) }
		return job, SplitBlocks(data, chunk, spec.Dim*4), verify, nil
	default:
		return Job{}, nil, nil, fmt.Errorf("dist: no demo job %q (wc, ts, km)", name)
	}
	return FileJob(name, data, partitions, chunk, true)
}

// FileJob builds a job over caller-supplied input bytes — a file produced
// by cmd/datagen or ingested from elsewhere — instead of generating the
// dataset in place. The returned verifier recomputes the reference answer
// from the same bytes, so correctness checking works on arbitrary inputs,
// not just the fixed-seed demo datasets. useCombiner toggles the map-side
// combiner (out-of-core runs turn it off to maximize shuffle volume).
func FileJob(name string, data []byte, partitions, chunk int, useCombiner bool) (Job, [][]byte, func(*Result) error, error) {
	job := Job{App: AppSpec{Name: name}, Partitions: partitions}
	switch name {
	case "wc":
		want := apps.WCRef(data)
		job.Collector = core.HashTable
		job.UseCombiner = useCombiner
		verify := func(r *Result) error { return apps.VerifyCounts(r.Output(), want) }
		return job, SplitBlocks(data, chunk, 0), verify, nil
	case "ts":
		if len(data)%workload.TeraRecordSize != 0 {
			return Job{}, nil, nil, fmt.Errorf("dist: ts input is %d bytes, not a multiple of the %d-byte record", len(data), workload.TeraRecordSize)
		}
		job.App.Params = EncodeTSParams(apps.TeraSample(data, 16))
		job.Collector = core.BufferPool
		verify := func(r *Result) error { return apps.VerifyTeraSort(r.Output(), data) }
		return job, SplitBlocks(data, chunk, workload.TeraRecordSize), verify, nil
	default:
		return Job{}, nil, nil, fmt.Errorf("dist: no file job %q (wc, ts)", name)
	}
}
