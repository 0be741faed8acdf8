package kv

import (
	"syscall"
	"testing"
)

// limitFileSize caps the size of files this process writes at n bytes until
// the test ends: a write past it stops short and fails with EFBIG (the Go
// runtime ignores the SIGXFSZ that comes with it).
func limitFileSize(t *testing.T, n int64) {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("no file size limit to set: %v", err)
	}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: uint64(n), Max: old.Max}); err != nil {
		t.Skipf("cannot limit file size: %v", err)
	}
	t.Cleanup(func() { syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old) })
}
