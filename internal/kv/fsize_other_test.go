//go:build !linux

package kv

import "testing"

// limitFileSize needs Linux's RLIMIT_FSIZE; elsewhere the test that asks
// for it is skipped.
func limitFileSize(t *testing.T, n int64) {
	t.Skip("file size limit is set on Linux only")
}
