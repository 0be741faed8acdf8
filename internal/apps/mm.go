package apps

import (
	"encoding/binary"
	"fmt"
	"math"

	"glasswing/internal/core"
	"glasswing/internal/kv"
	"glasswing/internal/workload"
)

// MMSpec configures Matrix Multiply: C = A x B over N x N single-precision
// matrices tiled into Tile x Tile sub-matrices, "each identified by the
// coordinate of its top left row and column" (§IV-A2).
type MMSpec struct {
	N    int
	Tile int
	// ModelTile, when non-zero, is the tile size the kernel cost model
	// charges for (2*T^3 multiply-adds per tile pair, T^2 adds per
	// partial tile), independent of the executed tile size. The paper's
	// matrices are far larger than what is practical to multiply for
	// real here; the executed code path is identical, only the arithmetic
	// volume differs (substitution documented in DESIGN.md).
	ModelTile int
}

// Tiles returns N/Tile.
func (s MMSpec) Tiles() int { return s.N / s.Tile }

// CostTile returns the tile size used by the cost model.
func (s MMSpec) CostTile() float64 {
	if s.ModelTile > 0 {
		return float64(s.ModelTile)
	}
	return float64(s.Tile)
}

// RecordSize is one map input record: the tile coordinates (i,j,k) plus the
// A(i,k) and B(k,j) tiles.
func (s MMSpec) RecordSize() int { return 12 + 2*s.Tile*s.Tile*4 }

// MatMul returns the MM application. A map record carries one (A-tile,
// B-tile) pair; the kernel computes the partial product tile and emits it
// keyed by the output tile coordinate; reduce sums the partial tiles. MM
// "consumes a large volume of data which limits the performance
// acceleration provided by the GPU" (§IV-A2).
//
// The paper uses two workload divisions — thread groups computing one tile
// cooperatively on GPUs, one whole tile per thread on CPUs; here that
// difference is the MapThreads choice the experiments make per device.
func MatMul(spec MMSpec) *core.App {
	t := spec.Tile
	tileBytes := t * t * 4
	return &core.App{
		Name:             "MM",
		Parse:            parseFixed(spec.RecordSize()),
		ParseCostPerByte: 0.25,
		// The A/B/C tile buffers and the key/value encoding scratch are
		// allocated once per call and reused for every record: the sink
		// copies each pair before the next overwrites them.
		MapBatch: func(recs []kv.Pair, out kv.Sink) {
			a := make([]float32, t*t)
			b := make([]float32, t*t)
			c := make([]float32, t*t)
			val := make([]byte, tileBytes)
			var key [8]byte
			for _, rec := range recs {
				i := binary.LittleEndian.Uint32(rec.Value[0:4])
				j := binary.LittleEndian.Uint32(rec.Value[4:8])
				decodeTileInto(a, rec.Value[12:12+tileBytes])
				decodeTileInto(b, rec.Value[12+tileBytes:])
				for x := range c {
					c[x] = 0
				}
				for r := 0; r < t; r++ {
					for k := 0; k < t; k++ {
						av := a[r*t+k]
						if av == 0 {
							continue
						}
						for col := 0; col < t; col++ {
							c[r*t+col] += av * b[k*t+col]
						}
					}
				}
				binary.LittleEndian.PutUint32(key[0:4], i)
				binary.LittleEndian.PutUint32(key[4:8], j)
				encodeTileInto(val, c)
				out.AppendKV(key[:], val)
			}
		},
		// 2*T^3 fused multiply-adds per tile pair.
		MapCost: core.CostModel{
			OpsPerRecord: 2 * spec.CostTile() * spec.CostTile() * spec.CostTile(),
			OpsPerByte:   0.25,
			OpsPerEmit:   30,
		},
		ReduceBatch: func(key []byte, values [][]byte, out *kv.Batch) {
			sum := make([]float32, t*t)
			for _, v := range values {
				// In-place decode-and-add; float32 addition order matches
				// the historical decode-then-add loop bit for bit.
				for x := range sum {
					sum[x] += math.Float32frombits(binary.LittleEndian.Uint32(v[x*4:]))
				}
			}
			val := make([]byte, tileBytes)
			encodeTileInto(val, sum)
			out.AppendKV(key, val)
		},
		// T^2 adds per partial tile.
		ReduceCost: core.CostModel{
			OpsPerRecord: 50,
			OpsPerValue:  spec.CostTile() * spec.CostTile(),
			OpsPerEmit:   30,
		},
	}
}

func encodeTile(t []float32) []byte {
	out := make([]byte, len(t)*4)
	encodeTileInto(out, t)
	return out
}

func encodeTileInto(out []byte, t []float32) {
	for i, v := range t {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
}

func decodeTile(b []byte, t int) []float32 {
	out := make([]float32, t*t)
	decodeTileInto(out, b)
	return out
}

func decodeTileInto(out []float32, b []byte) {
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
}

// MMData builds the MM input: one record per (i,j,k) tile-pair of the two
// generated matrices, plus the matrices themselves for verification.
func MMData(seed int64, spec MMSpec) (input []byte, a, b []float32, err error) {
	if spec.N%spec.Tile != 0 {
		return nil, nil, nil, fmt.Errorf("apps: N %d not divisible by tile %d", spec.N, spec.Tile)
	}
	a = workload.Matrix(seed, spec.N)
	b = workload.Matrix(seed+1, spec.N)
	nt := spec.Tiles()
	t := spec.Tile
	rec := make([]byte, spec.RecordSize())
	for i := 0; i < nt; i++ {
		for j := 0; j < nt; j++ {
			for k := 0; k < nt; k++ {
				binary.LittleEndian.PutUint32(rec[0:4], uint32(i))
				binary.LittleEndian.PutUint32(rec[4:8], uint32(j))
				binary.LittleEndian.PutUint32(rec[8:12], uint32(k))
				writeTile(rec[12:12+t*t*4], a, spec.N, i*t, k*t, t)
				writeTile(rec[12+t*t*4:], b, spec.N, k*t, j*t, t)
				input = append(input, rec...)
			}
		}
	}
	return input, a, b, nil
}

// writeTile serializes the t x t sub-matrix of m at (row, col).
func writeTile(dst []byte, m []float32, n, row, col, t int) {
	for r := 0; r < t; r++ {
		for c := 0; c < t; c++ {
			binary.LittleEndian.PutUint32(dst[(r*t+c)*4:], math.Float32bits(m[(row+r)*n+col+c]))
		}
	}
}

// VerifyMatMul checks output tiles against the reference product.
func VerifyMatMul(pairs []kv.Pair, a, b []float32, spec MMSpec) error {
	ref := workload.MatMulRef(a, b, spec.N)
	t := spec.Tile
	nt := spec.Tiles()
	seen := make(map[[2]uint32]bool)
	for _, pr := range pairs {
		if len(pr.Key) != 8 {
			return fmt.Errorf("apps: bad MM key length %d", len(pr.Key))
		}
		i := binary.LittleEndian.Uint32(pr.Key[0:4])
		j := binary.LittleEndian.Uint32(pr.Key[4:8])
		if seen[[2]uint32{i, j}] {
			return fmt.Errorf("apps: duplicate output tile (%d,%d)", i, j)
		}
		seen[[2]uint32{i, j}] = true
		tile := decodeTile(pr.Value, t)
		for r := 0; r < t; r++ {
			for c := 0; c < t; c++ {
				want := ref[(int(i)*t+r)*spec.N+int(j)*t+c]
				got := tile[r*t+c]
				if math.Abs(float64(got-want)) > 1e-3 {
					return fmt.Errorf("apps: C[%d,%d] = %g, want %g", int(i)*t+r, int(j)*t+c, got, want)
				}
			}
		}
	}
	if len(seen) != nt*nt {
		return fmt.Errorf("apps: %d output tiles, want %d", len(seen), nt*nt)
	}
	return nil
}
