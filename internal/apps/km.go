package apps

import (
	"encoding/binary"
	"fmt"
	"math"

	"glasswing/internal/core"
	"glasswing/internal/hw"
	"glasswing/internal/kv"
	"glasswing/internal/sim"
	"glasswing/internal/workload"
)

// KMeansSpec configures K-Means: Dim-dimensional single-precision points
// clustered around K centers (§IV-A2 uses 1024 centers in 4 dimensions and
// an I/O-dominant 16-center variant for the unmodified-GPMR comparison).
type KMeansSpec struct {
	Dim     int
	Centers [][]float32
	// ModelCenters, when non-zero, is the center count the kernel cost
	// model charges for, independent of how many centers are actually
	// computed. The executed code path is identical — one distance
	// evaluation per (point, center) pair — so charging K_model while
	// executing K keeps the timing faithful to the paper's 1024-center
	// configuration while the real arithmetic stays laptop-sized
	// (substitution documented in DESIGN.md).
	ModelCenters int
}

// K returns the number of centers actually computed.
func (s KMeansSpec) K() int { return len(s.Centers) }

// CostK returns the center count used by the cost model.
func (s KMeansSpec) CostK() int {
	if s.ModelCenters > 0 {
		return s.ModelCenters
	}
	return len(s.Centers)
}

// CentersBytes is the broadcast payload (the DistributedCache analog).
func (s KMeansSpec) CentersBytes() int64 { return int64(s.K() * s.Dim * 4) }

// Prelude returns the job prelude that ships the centers to every node
// before the map phase (the Glasswing analog of Hadoop's DistributedCache).
func (s KMeansSpec) Prelude() func(p *sim.Proc, cl *hw.Cluster) {
	return func(p *sim.Proc, cl *hw.Cluster) {
		cl.Broadcast(p, cl.Nodes[0], s.CentersBytes())
	}
}

// KMeans returns one iteration of K-Means clustering (the paper's
// implementations "perform just one iteration since this shows the
// performance well for all frameworks", §IV-A2). The map kernel assigns
// each point to its nearest center and emits (center, point-sum+count);
// combine and reduce aggregate the sums; reduce emits the new centers.
//
// The kernel's cost model is K*Dim*3 ops per point — a multiply, a subtract
// and an add per coordinate per candidate center — which is what makes KM
// compute-bound and GPU-friendly (Fig 3).
func KMeans(spec KMeansSpec) *core.App {
	dim := spec.Dim
	recSize := dim * 4
	perPoint := float64(spec.CostK()*dim*3 + 8)
	// Combine and reduce add in the encoded form: one scratch value per
	// call, no decode or encode pass.
	agg := func(key []byte, values [][]byte, out *kv.Batch) {
		acc := make([]byte, dim*8+8)
		kmAccumulate(acc, values)
		out.AppendKV(key, acc)
	}
	return &core.App{
		Name:             "KM",
		Parse:            parseFixed(recSize),
		ParseCostPerByte: 0.3,
		// The point, sum and value-encoding scratch buffers are allocated
		// once per call and reused across every record in it: the sink
		// copies each pair before the next overwrites them.
		MapBatch: func(recs []kv.Pair, out kv.Sink) {
			point := make([]float32, dim)
			sum := make([]float64, dim)
			val := make([]byte, dim*8+8)
			var key [4]byte
			for _, rec := range recs {
				decodePointInto(point, rec.Value)
				best, bestDist := 0, math.Inf(1)
				for c, center := range spec.Centers {
					var dist float64
					for d := 0; d < dim; d++ {
						diff := float64(point[d] - center[d])
						dist += diff * diff
					}
					if dist < bestDist {
						best, bestDist = c, dist
					}
				}
				for d := 0; d < dim; d++ {
					sum[d] = float64(point[d])
				}
				binary.LittleEndian.PutUint32(key[:], uint32(best))
				encodeKMValueInto(val, sum, 1)
				out.AppendKV(key[:], val)
			}
		},
		MapCost:     core.CostModel{OpsPerRecord: perPoint, OpsPerByte: 0.5, OpsPerEmit: 20},
		Combine:     agg,
		CombineCost: core.CostModel{OpsPerRecord: 20, OpsPerValue: float64(dim + 4), OpsPerEmit: 15},
		Fold:        kmAdd,
		ReduceBatch: func(key []byte, values [][]byte, out *kv.Batch) {
			acc := make([]byte, dim*8+8)
			kmAccumulate(acc, values)
			count := binary.LittleEndian.Uint64(acc[dim*8:])
			for off := 0; off < dim*8; off += 8 {
				var center float64
				if count > 0 {
					center = getF64(acc[off:]) / float64(count)
				}
				putF64(acc[off:], center)
			}
			out.AppendKV(key, acc)
		},
		ReduceCost: core.CostModel{OpsPerRecord: float64(2 * dim), OpsPerValue: float64(dim + 4), OpsPerEmit: 15},
	}
}

// kmAccumulate adds encoded (sum, count) values into acc, which holds the
// same encoding and starts zeroed (zero bytes are +0.0 sums and a zero
// count). Each coordinate is added left to right over values, the order a
// decode-then-add loop has, keeping the float64 results bit-identical
// across engines.
func kmAccumulate(acc []byte, values [][]byte) {
	for _, v := range values {
		kmAdd(acc, v)
	}
}

// kmAdd adds one encoded (sum, count) value into acc: kmAccumulate's step,
// and KMeans' fold. A sum that starts at +0.0 is never -0.0, so folding
// from a zeroed accumulator matches one Combine over the same values.
func kmAdd(acc, v []byte) {
	sums := len(acc) - 8
	if len(v) != len(acc) {
		panic(fmt.Errorf("apps: bad KM value length %d for dim %d", len(v), sums/8))
	}
	for off := 0; off < sums; off += 8 {
		putF64(acc[off:], getF64(acc[off:])+getF64(v[off:]))
	}
	binary.LittleEndian.PutUint64(acc[sums:], binary.LittleEndian.Uint64(acc[sums:])+binary.LittleEndian.Uint64(v[sums:]))
}

func getF64(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func putF64(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }

func decodePoint(b []byte, dim int) []float32 {
	p := make([]float32, dim)
	decodePointInto(p, b)
	return p
}

func decodePointInto(p []float32, b []byte) {
	for d := range p {
		p[d] = math.Float32frombits(binary.LittleEndian.Uint32(b[d*4 : d*4+4]))
	}
}

// encodeKMValueInto packs a float64 coordinate sum vector and a count into
// out, which holds len(sum)*8+8 bytes.
func encodeKMValueInto(out []byte, sum []float64, count uint64) {
	for d, v := range sum {
		putF64(out[d*8:], v)
	}
	binary.LittleEndian.PutUint64(out[len(sum)*8:], count)
}

func decodeKMValue(b []byte, dim int) ([]float64, uint64, error) {
	if len(b) != dim*8+8 {
		return nil, 0, fmt.Errorf("apps: bad KM value length %d for dim %d", len(b), dim)
	}
	sum := make([]float64, dim)
	for d := 0; d < dim; d++ {
		sum[d] = getF64(b[d*8:])
	}
	return sum, binary.LittleEndian.Uint64(b[dim*8:]), nil
}

// KMRef computes the reference one-iteration result: per center, the sum of
// assigned points and their count.
func KMRef(data []byte, spec KMeansSpec) map[uint32]struct {
	Sum   []float64
	Count uint64
} {
	dim := spec.Dim
	out := make(map[uint32]struct {
		Sum   []float64
		Count uint64
	})
	for off := 0; off+dim*4 <= len(data); off += dim * 4 {
		point := decodePoint(data[off:off+dim*4], dim)
		best, bestDist := 0, math.Inf(1)
		for c, center := range spec.Centers {
			var dist float64
			for d := 0; d < dim; d++ {
				diff := float64(point[d] - center[d])
				dist += diff * diff
			}
			if dist < bestDist {
				best, bestDist = c, dist
			}
		}
		e := out[uint32(best)]
		if e.Sum == nil {
			e.Sum = make([]float64, dim)
		}
		for d := 0; d < dim; d++ {
			e.Sum[d] += float64(point[d])
		}
		e.Count++
		out[uint32(best)] = e
	}
	return out
}

// VerifyKMeans checks engine output (new centers) against the reference.
func VerifyKMeans(pairs []kv.Pair, data []byte, spec KMeansSpec) error {
	ref := KMRef(data, spec)
	seen := 0
	for _, pr := range pairs {
		cid := binary.LittleEndian.Uint32(pr.Key)
		sum, count, err := decodeKMValue(pr.Value, spec.Dim)
		if err != nil {
			return err
		}
		want, ok := ref[cid]
		if !ok {
			return fmt.Errorf("apps: unexpected center %d in output", cid)
		}
		if count != want.Count {
			return fmt.Errorf("apps: center %d count %d, want %d", cid, count, want.Count)
		}
		for d := 0; d < spec.Dim; d++ {
			mean := want.Sum[d] / float64(want.Count)
			if math.Abs(sum[d]-mean) > 1e-6*math.Max(1, math.Abs(mean)) {
				return fmt.Errorf("apps: center %d dim %d = %g, want %g", cid, d, sum[d], mean)
			}
		}
		seen++
	}
	if seen != len(ref) {
		return fmt.Errorf("apps: %d centers in output, want %d", seen, len(ref))
	}
	return nil
}

// KMData builds a KM dataset: n points in dim dimensions drawn around k
// well-separated true clusters, with the job's initial centers taken from
// the first k points (so one iteration moves them measurably).
func KMData(seed int64, n, dim, k int) ([]byte, KMeansSpec) {
	data, _ := workload.Points(seed, n, dim, k)
	return data, KMeansSpec{Dim: dim, Centers: workload.InitialCenters(data, dim, k)}
}
