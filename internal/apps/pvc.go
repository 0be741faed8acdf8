package apps

import (
	"bytes"

	"glasswing/internal/core"
	"glasswing/internal/kv"
	"glasswing/internal/workload"
)

// PageviewCount returns the PVC application: URL frequencies over web
// server logs. The kernel performs very little work per input record, so
// the job is I/O-bound; the logs are "highly sparse in that duplicate URLs
// are rare, so the volume of intermediate data is large, with a massive
// number of keys" (§IV-A1).
func PageviewCount() *core.App {
	return &core.App{
		Name:             "PVC",
		Parse:            parseLines,
		ParseCostPerByte: 1.2,
		MapBatch: func(recs []kv.Pair, out kv.Sink) {
			for _, rec := range recs {
				if url := logURL(rec.Value); url != nil {
					out.AppendKV(url, oneU32)
				}
			}
		},
		// Barely any work per record: find the URL field and emit.
		MapCost:     core.CostModel{OpsPerRecord: 40, OpsPerByte: 3, OpsPerEmit: 20},
		Combine:     sumCounts,
		CombineCost: core.CostModel{OpsPerRecord: 25, OpsPerValue: 6, OpsPerEmit: 15},
		Fold:        addU32,
		ReduceBatch: sumCounts,
		ReduceCost:  core.CostModel{OpsPerRecord: 25, OpsPerValue: 6, OpsPerEmit: 15},

		// The sum is addU32 over every count from a zeroed total.
		ReduceIsFold: true,
	}
}

// logURL extracts the URL field (second whitespace-separated token) of a
// log line.
func logURL(line []byte) []byte {
	first := bytes.IndexByte(line, ' ')
	if first < 0 {
		return nil
	}
	rest := line[first+1:]
	end := bytes.IndexByte(rest, ' ')
	if end < 0 {
		end = len(rest)
	}
	if end == 0 {
		return nil
	}
	return rest[:end]
}

// PVCData builds a PVC log dataset of roughly size bytes and its reference
// URL counts.
func PVCData(seed int64, size int) ([]byte, map[string]uint64) {
	data := workload.WebLog(seed, size)
	want := make(map[string]uint64)
	for _, rec := range parseLines(data) {
		if url := logURL(rec.Value); url != nil {
			want[string(url)]++
		}
	}
	return data, want
}
