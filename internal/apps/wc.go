package apps

import (
	"glasswing/internal/core"
	"glasswing/internal/kv"
	"glasswing/internal/workload"
)

// WordCount returns the WC application: word frequencies over wiki text.
// The dataset "exhibits high repetition of a smaller number of words beside
// a large number of sparse words" (§IV-A1), which is what makes the hash
// table contended and the combiner effective (Table II).
func WordCount() *core.App {
	return &core.App{
		Name:             "WC",
		Parse:            parseLines,
		ParseCostPerByte: 1.5,
		// One invocation tokenizes a whole chunk of lines into the sink —
		// the chunk's slab, or the combining table when the job combines —
		// with no per-record dispatch and no per-emit value allocation (the
		// count literal is a shared read-only constant the sink copies).
		MapBatch: func(recs []kv.Pair, out kv.Sink) {
			for _, rec := range recs {
				line := rec.Value
				start := -1
				for i := 0; i <= len(line); i++ {
					if i < len(line) && line[i] != ' ' && line[i] != '\t' {
						if start < 0 {
							start = i
						}
						continue
					}
					if start >= 0 {
						out.AppendKV(line[start:i], oneU32)
						start = -1
					}
				}
			}
		},
		// The WC kernel scans every byte, hashes each word and emits; it
		// performs "somewhat more computation than the PVC kernel"
		// (§IV-A1).
		MapCost:     core.CostModel{OpsPerRecord: 60, OpsPerByte: 10, OpsPerEmit: 25, OpsPerBatch: 400},
		Combine:     sumCounts,
		CombineCost: core.CostModel{OpsPerRecord: 25, OpsPerValue: 6, OpsPerEmit: 15},
		Fold:        addU32,
		ReduceBatch: sumCounts,
		ReduceCost:  core.CostModel{OpsPerRecord: 25, OpsPerValue: 6, OpsPerEmit: 15},
	}
}

// WCData builds a WC dataset of roughly size bytes and its reference word
// counts.
func WCData(seed int64, size, vocab int) ([]byte, map[string]uint64) {
	data := workload.WikiText(seed, size, vocab)
	return data, WCRef(data)
}

// WCRef computes the reference word counts for arbitrary text, using the
// same tokenization as the WC kernel (words separated by spaces, tabs and
// newlines). Verifiers use it when the input doesn't come from WCData —
// generated files, externally ingested datasets.
func WCRef(data []byte) map[string]uint64 {
	want := make(map[string]uint64)
	start := -1
	for i := 0; i <= len(data); i++ {
		if i < len(data) && data[i] != ' ' && data[i] != '\n' && data[i] != '\t' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			want[string(data[start:i])]++
			start = -1
		}
	}
	return want
}

// VerifyCounts checks engine output pairs against reference counts.
func VerifyCounts(pairs []kv.Pair, want map[string]uint64) error {
	got, err := CountsFromOutput(pairs)
	if err != nil {
		return err
	}
	return compareCounts(got, want)
}

func compareCounts(got, want map[string]uint64) error {
	if len(got) != len(want) {
		return countMismatch("distinct keys", uint64(len(got)), uint64(len(want)))
	}
	for k, n := range want {
		if got[k] != n {
			return countMismatch("key "+k, got[k], n)
		}
	}
	return nil
}

type countErr struct {
	what      string
	got, want uint64
}

func (e countErr) Error() string {
	return "apps: " + e.what + ": got " + itoa(e.got) + ", want " + itoa(e.want)
}

func countMismatch(what string, got, want uint64) error {
	return countErr{what: what, got: got, want: want}
}

func itoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
