package dist

import (
	"fmt"
	"math"

	"glasswing/internal/apps"
	"glasswing/internal/core"
	"glasswing/internal/dfs"
)

// The registry resolves AppSpec names to application kernels for
// multi-process workers — code never crosses the wire, only the app name
// and a parameter blob. Loopback callers usually bypass this with
// Options.NewApp, but the registry entries are what `cmd/distnode` uses.

// RegistryResolver resolves the built-in applications: "wc" (word count,
// no params), "ts" (TeraSort; params = EncodeTSParams sample boundaries),
// "km" (KMeans; params = EncodeKMParams center spec).
func RegistryResolver(spec AppSpec) (*core.App, func(key []byte, n int) int, error) {
	switch spec.Name {
	case "wc":
		return apps.WordCount(), nil, nil
	case "ts":
		sample, err := DecodeTSParams(spec.Params)
		if err != nil {
			return nil, nil, err
		}
		return apps.TeraSort(), apps.RangePartitioner(sample), nil
	case "km":
		ksp, err := DecodeKMParams(spec.Params)
		if err != nil {
			return nil, nil, err
		}
		return apps.KMeans(ksp), nil, nil
	default:
		return nil, nil, fmt.Errorf("dist: unknown app %q", spec.Name)
	}
}

// tsParams is the TeraSort params layout: the sample keys, copied out on
// decode.
type tsParams [][]byte

func (s *tsParams) wire(c *codec) { list(c, (*[][]byte)(s), c.owned) }

// EncodeTSParams packs a TeraSort key sample (the range-partitioner
// boundaries every node must agree on) into an AppSpec params blob.
func EncodeTSParams(sample [][]byte) []byte { return encode((*tsParams)(&sample)) }

// DecodeTSParams unpacks EncodeTSParams.
func DecodeTSParams(p []byte) ([][]byte, error) {
	var s tsParams
	err := decode(p, &s).fin("ts-params")
	return s, err
}

// kmParams is the KMeans params layout: dimensions, then each center as a
// count-prefixed list of float32 bit patterns.
type kmParams apps.KMeansSpec

func (s *kmParams) wire(c *codec) {
	c.i(&s.Dim)
	c.i(&s.ModelCenters)
	list(c, &s.Centers, func(ctr *[]float32) {
		list(c, ctr, func(v *float32) {
			x := uint64(math.Float32bits(*v))
			c.u(&x)
			if c.dec {
				*v = math.Float32frombits(uint32(x))
			}
		})
	})
}

// EncodeKMParams packs a KMeans spec into an AppSpec params blob.
func EncodeKMParams(s apps.KMeansSpec) []byte { return encode((*kmParams)(&s)) }

// DecodeKMParams unpacks EncodeKMParams.
func DecodeKMParams(p []byte) (apps.KMeansSpec, error) {
	var s kmParams
	err := decode(p, &s).fin("km-params")
	return apps.KMeansSpec(s), err
}

// SplitBlocks cuts input into map blocks of roughly chunk bytes, on record
// boundaries: recordSize > 0 splits on fixed-size records (TeraSort's
// 100-byte rows, KMeans' packed points) with dfs.SplitFixed, otherwise on
// newlines with dfs.SplitLines. Empty input has no blocks.
func SplitBlocks(data []byte, chunk int, recordSize int) [][]byte {
	if len(data) == 0 {
		return nil
	}
	if chunk <= 0 {
		chunk = 96 << 10
	}
	if recordSize > 0 {
		return dfs.SplitFixed(data, int64(chunk), int64(recordSize))
	}
	return dfs.SplitLines(data, int64(chunk))
}
