package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// TestResumeHint: the printed resume command carries every flag that shapes
// the job — validateResume refuses a resume whose partitions, combiner,
// blocks or block-store mode differ from the journal's — and not the
// schedule that crashed the coordinator.
func TestResumeHint(t *testing.T) {
	fs := flag.NewFlagSet("distnode", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	for _, name := range []string{"serve", "workers", "journal", "elastic", "input", "chunk",
		"blockstore", "replication", "partitions"} {
		fs.String(name, "", "") // the hint prints values back; their types do not matter
	}
	fs.Bool("no-combiner", false, "")
	fs.Bool("resume", false, "")
	err := fs.Parse(strings.Fields("-serve 127.0.0.1:9700 -workers 3 -journal j.log -resume -elastic restart@4" +
		" -input f -chunk 1048576 -no-combiner -blockstore local -replication 2 -partitions 6"))
	if err != nil {
		t.Fatal(err)
	}
	hint := resumeHint(fs)
	for _, want := range []string{
		"-serve=127.0.0.1:9700", "-workers=3", "-journal=j.log", "-input=f", "-chunk=1048576",
		"-no-combiner=true", "-blockstore=local", "-replication=2", "-partitions=6",
	} {
		if !strings.Contains(hint, " "+want+" ") {
			t.Errorf("hint %q lacks %q", hint, want)
		}
	}
	if strings.Contains(hint, "elastic") || !strings.HasSuffix(hint, " -resume") || strings.Count(hint, "-resume") != 1 {
		t.Errorf("hint %q: want no -elastic and exactly one trailing -resume", hint)
	}
}
