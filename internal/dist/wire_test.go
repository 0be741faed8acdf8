package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"testing"

	"glasswing/internal/kv"
	"glasswing/internal/obs"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("glasswing"), 1000)}
	for i, p := range payloads {
		if err := writeFrame(&buf, rawFrame(byte(i+1), p)); err != nil {
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
	writeFrame(&buf, rawFrame(mRunBatch, []byte("some payload")))
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

// payloadTypes lists one value of every wire payload type. FuzzPayloads
// selects among them by the first input byte.
var payloadTypes = []payload{
	&helloMsg{}, &welcomeMsg{}, &jobStartMsg{}, &mapTaskMsg{}, &mapDoneMsg{}, &taskFailMsg{},
	&runBatchMsg{}, &runEntries{}, &markMsg{}, &reduceTaskMsg{}, &reduceDoneMsg{}, &peerHelloMsg{},
	&spanBatchMsg{}, &hbMsg{}, &rejoinMsg{}, &membershipMsg{}, &handoffMsg{},
	&blockPutMsg{}, &blockFetchMsg{}, &blockDataMsg{},
}

// newPayload returns a zero value of m's type, to decode into.
func newPayload(m payload) payload {
	return reflect.New(reflect.TypeOf(m).Elem()).Interface().(payload)
}

// roundTrip is one message with its encoding in hex. The want bytes pin the
// wire format: a layout edit that reorders or retypes a field fails on them
// even when it still round-trips.
type roundTrip struct {
	name string
	msg  payload
	want string
}

// roundTrips covers every payload type.
func roundTrips() []roundTrip {
	return []roundTrip{
		{"hello", &helloMsg{ListenAddr: "127.0.0.1:7777"}, "0e3132372e302e302e313a37373737"},
		{"welcome", &welcomeMsg{WorkerID: 2, Workers: 5}, "0205"},
		{"job-start", &jobStartMsg{
			TraceID: 0xfeedbeefcafe,
			Job: Job{
				App:         AppSpec{Name: "wc", Params: []byte{1, 2, 3}},
				Partitions:  7,
				UseCombiner: true,
				Compress:    true,
			},
			Peers: []string{"a:1", "b:2"},
			Homes: []int{0, 1, 0, 1, 0, 1, 0},
		}, "fe95bff7dbdd3f027763030102030701010203613a3103623a3207000100010001000000"},
		{"job-start-live", &jobStartMsg{
			Job:   Job{App: AppSpec{Name: "ts"}, Partitions: 3},
			Peers: []string{"a:1", "", "c:3"}, Homes: []int{0, 2, 0}, Epoch: 5, Live: true,
		}, "00027473000300000303613a310003633a33030002000501"},
		{"map-task", &mapTaskMsg{Task: 4, Attempt: 2, SpanID: 1<<48 | 9, Block: []byte("block data")},
			"0402898080808080400a626c6f636b206461746100000000"},
		{"map-done", &mapDoneMsg{Task: 1, Attempt: 1, Stats: attemptStats{
			RecordsIn: 10, PairsOut: 20, PartRecords: 20, PartRuns: 3, PartRaw: 400, PartFrame: 250, PartStored: 300,
		}}, "01010a1414039003fa01ac02"},
		{"task-fail", &taskFailMsg{Task: 2, Attempt: 0, Reason: "injected"}, "020008696e6a6563746564"},
		{"run-batch", &runBatchMsg{TraceID: 42, SendSpan: 2<<48 | 3, Body: encode(&runEntries{
			{Task: 3, Attempt: 1, Partition: 2, Records: 9, RawBytes: 123, Blob: []byte{9, 8, 7}},
			{Task: 3, Attempt: 1, Partition: 5, Records: 1, RawBytes: 11, Blob: []byte{1}},
		})}, "2a838080808080800112030102097b0003090807030105010b000101"},
		{"run-batch-entries", &runEntries{
			{Task: 3, Attempt: 1, Partition: 2, Records: 9, RawBytes: 123, Blob: []byte{9, 8, 7}},
			{Task: 3, Attempt: 1, Partition: 5, Records: 1, RawBytes: 11, Blob: []byte{1}},
		}, "030102097b0003090807030105010b000101"},
		{"mark", &markMsg{Task: 6, Attempt: 2}, "0602"},
		{"reduce-task", &reduceTaskMsg{Partition: 3, Attempt: 1, SpanID: 77}, "03014d"},
		{"reduce-done", &reduceDoneMsg{Partition: 1, Attempt: 0, RecordsIn: 55, GroupsIn: 11, Output: []byte("pairs")},
			"0100370b057061697273"},
		{"peer-hello", &peerHelloMsg{WorkerID: 4}, "04"},
		{"span-batch", &spanBatchMsg{
			TraceID: 0xabc, Node: 2, EpochUnixNano: 1700000000123456789,
			Spans: []obs.Span{
				{Node: 2, Stage: "map/kernel", Start: 0.001, End: 0.025, ID: 2<<48 | 1, Parent: 1 << 48,
					Tags: map[string]string{"locality": "local", "block": "3"}},
				{Node: 2, Stage: "net/send", Start: 0.010, End: 0.030, ID: 2<<48 | 2, Parent: 2<<48 | 1},
			},
		}, "bc1502959a97ece39fe7cb17020a6d61702f6b65726e656cfcd3c697ddc998a83f9ab3e6cc99b3e6cc3f8180808080808001" +
			"808080808080400205626c6f636b0133086c6f63616c697479056c6f63616c086e65742f73656e64fba8b8bd94dc9ec23f" +
			"b8bd94dc9e8aaecf3f8280808080808001818080808080800100"},
		{"heartbeat-probe", &hbMsg{Kind: hbProbe, T1: 1234567890}, "01d285d8cc040000"},
		{"heartbeat-reply", &hbMsg{Kind: hbReply, T1: 10, T2: -20, T3: 30}, "020aecffffffffffffffff011e"},
		{"rejoin", &rejoinMsg{WorkerID: 3, ListenAddr: "127.0.0.1:9", Epoch: 7}, "030b3132372e302e302e313a3907"},
		{"membership-death", &membershipMsg{
			Epoch: 4, Homes: []int{0, 2, 0, 2}, Alive: []bool{true, false, true},
			Settled: []bool{true, false, false, true}, Joined: -1, Left: -1,
		}, "040400020002030100010401000001ffffffffffffffffff0100ffffffffffffffffff01"},
		{"membership-join", &membershipMsg{
			Epoch: 5, Homes: []int{3, 2, 0, 2}, Alive: []bool{true, false, true, true},
			Settled: []bool{false, false, false, false}, Joined: 3, JoinedAddr: "127.0.0.1:8", Left: -1,
		}, "05040302000204010001010400000000030b3132372e302e302e313a38ffffffffffffffffff01"},
		{"membership-drain", &membershipMsg{
			Epoch: 6, Homes: []int{3, 2, 3, 2}, Alive: []bool{false, false, true, true},
			Settled: []bool{true, true, false, false}, Joined: -1, Left: 0,
		}, "06040302030204000001010401010000ffffffffffffffffff010000"},
		{"handoff", &runBatchMsg{TraceID: 42, SendSpan: 2<<48 | 4, Body: encode(&runEntries{
			{Task: 0, Partition: 1, Records: 3, RawBytes: 30, Epoch: 2, Blob: []byte{1, 2, 3}},
			{Task: 5, Partition: 1, Records: 1, RawBytes: 9, Epoch: 2, Blob: []byte{4}},
		})}, "2a848080808080800112000001031e02030102030500010109020104"},
		{"handoff-mark", &handoffMsg{Epoch: 2, Partition: 1}, "0201"},
		{"handoff-done", &handoffMsg{Epoch: 2, Partition: 1}, "0201"},
		{"block-put", &blockPutMsg{ID: 6, Data: []byte("replica bytes")}, "060d7265706c696361206279746573"},
		{"block-fetch", &blockFetchMsg{ID: 6, Nonce: 1 << 40}, "06808080808020"},
		{"block-data", &blockDataMsg{ID: 6, Nonce: 1 << 40, OK: true, Data: []byte("chunk")},
			"0680808080802001056368756e6b"},
	}
}

func TestMessageRoundTrips(t *testing.T) {
	for _, c := range roundTrips() {
		p := encode(c.msg)
		if got := hex.EncodeToString(p); got != c.want {
			t.Errorf("%s: encoded\n got %s\nwant %s", c.name, got, c.want)
		}
		got := newPayload(c.msg)
		if err := decode(p, got).fin(c.name); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.msg) {
			t.Fatalf("%s: round trip:\n got %+v\nwant %+v", c.name, got, c.msg)
		}
	}
}

// TestFramesBuiltInPlace: a frame laid out in place is the header and
// payload writeFrame used to join, in exactly the bytes it needs, and a
// reduce-done laid out from its pairs carries kv.Marshal of them.
func TestFramesBuiltInPlace(t *testing.T) {
	check := func(name string, f frame, typ byte, p []byte) {
		t.Helper()
		want := append(binary.BigEndian.AppendUint32(nil, uint32(1+len(p))), typ)
		if want = append(want, p...); !bytes.Equal(f.buf, want) {
			t.Errorf("%s: frame\n got %x\nwant %x", name, f.buf, want)
		}
		if cap(f.buf) != len(f.buf) {
			t.Errorf("%s: %d-byte frame allocated %d", name, len(f.buf), cap(f.buf))
		}
	}
	for i, c := range roundTrips() {
		check(c.name, newFrame(byte(i+1), c.msg), byte(i+1), encode(c.msg))
	}
	check("no payload", ctlFrame(mJobEnd), mJobEnd, nil)
	for _, pairs := range [][]kv.Pair{nil, {}, {{Key: []byte("k"), Value: bytes.Repeat([]byte("v"), 300)}, {Key: []byte("l")}}} {
		m := reduceDoneMsg{Partition: 2, Attempt: 1, RecordsIn: 9, GroupsIn: 3}
		want := encode(&reduceDoneMsg{Partition: 2, Attempt: 1, RecordsIn: 9, GroupsIn: 3, Output: kv.Marshal(pairs)})
		m.Pairs = pairs
		check(fmt.Sprintf("reduce-done of %d pairs", len(pairs)), newFrame(mReduceDone, &reduceOutMsg{m}), mReduceDone, want)
	}
}

// FuzzPayloads fuzzes every payload decoder — each reads bytes another
// process wrote. The first input byte selects the payload type and the rest
// is decoded: decoding must never panic, and anything that decodes must
// re-encode to bytes that decode to an equal value.
func FuzzPayloads(f *testing.F) {
	for _, c := range roundTrips() {
		for i, pt := range payloadTypes {
			if reflect.TypeOf(pt) == reflect.TypeOf(c.msg) {
				p, _ := hex.DecodeString(c.want)
				f.Add(append([]byte{byte(i)}, p...))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		pt := payloadTypes[int(data[0])%len(payloadTypes)]
		m := newPayload(pt)
		if decode(data[1:], m).fin("fuzz") != nil {
			return
		}
		m2 := newPayload(pt)
		if err := decode(encode(m), m2).fin("fuzz"); err != nil {
			t.Fatalf("%T: re-encoded payload does not decode: %v", m, err)
		}
		// %#v rather than DeepEqual: a decoded NaN span time is equal to
		// itself bit for bit, not under ==.
		if got, want := fmt.Sprintf("%#v", m2), fmt.Sprintf("%#v", m); got != want {
			t.Fatalf("re-encode round trip diverged:\n got %s\nwant %s", got, want)
		}
	})
}

// TestDecodeCorrupt feeds every decoder truncated and trailing-garbage
// payloads: all must error, none may panic.
func TestDecodeCorrupt(t *testing.T) {
	decoders := map[string]func([]byte) error{
		"hello":        func(p []byte) error { return decode(p, &helloMsg{}).fin("hello") },
		"welcome":      func(p []byte) error { return decode(p, &welcomeMsg{}).fin("welcome") },
		"job-start":    func(p []byte) error { return decode(p, &jobStartMsg{}).fin("job-start") },
		"map-task":     func(p []byte) error { return decode(p, &mapTaskMsg{}).fin("map-task") },
		"map-done":     func(p []byte) error { return decode(p, &mapDoneMsg{}).fin("map-done") },
		"task-fail":    func(p []byte) error { return decode(p, &taskFailMsg{}).fin("task-fail") },
		"run-batch":    func(p []byte) error { _, _, err := peerEvent(1, mRunBatch, p); return err },
		"mark":         func(p []byte) error { return decode(p, &markMsg{}).fin("mark") },
		"reduce-task":  func(p []byte) error { return decode(p, &reduceTaskMsg{}).fin("reduce-task") },
		"reduce-done":  func(p []byte) error { return decode(p, &reduceDoneMsg{}).fin("reduce-done") },
		"rejoin":       func(p []byte) error { return decode(p, &rejoinMsg{}).fin("rejoin") },
		"membership":   func(p []byte) error { return decode(p, &membershipMsg{}).fin("membership") },
		"handoff":      func(p []byte) error { _, _, err := peerEvent(1, mHandoff, p); return err },
		"handoff-mark": func(p []byte) error { return decode(p, &handoffMsg{}).fin("handoff-mark") },
		"handoff-done": func(p []byte) error { return decode(p, &handoffMsg{}).fin("handoff-done") },
		"block-put":    func(p []byte) error { return decode(p, &blockPutMsg{}).fin("block-put") },
		"block-fetch":  func(p []byte) error { return decode(p, &blockFetchMsg{}).fin("block-fetch") },
		"block-data":   func(p []byte) error { return decode(p, &blockDataMsg{}).fin("block-data") },
		"peer-hello":   func(p []byte) error { return decode(p, &peerHelloMsg{}).fin("peer-hello") },
		"span-batch":   func(p []byte) error { return decode(p, &spanBatchMsg{}).fin("span-batch") },
		"heartbeat":    func(p []byte) error { return decode(p, &hbMsg{}).fin("heartbeat") },
	}
	samples := map[string][]byte{
		"hello":       encode(&helloMsg{ListenAddr: "127.0.0.1:1"}),
		"welcome":     encode(&welcomeMsg{WorkerID: 1, Workers: 3}),
		"job-start":   encode(&jobStartMsg{Job: Job{App: AppSpec{Name: "wc"}, Partitions: 2}, Peers: []string{"x"}, Homes: []int{0, 1}}),
		"map-task":    encode(&mapTaskMsg{Task: 1, Attempt: 0, Block: []byte("abc")}),
		"map-done":    encode(&mapDoneMsg{Task: 1, Stats: attemptStats{RecordsIn: 5}}),
		"task-fail":   encode(&taskFailMsg{Task: 1, Reason: "r"}),
		"run-batch":   encode(&runBatchMsg{Body: encode(&runEntries{{Task: 1, Records: 2, Blob: []byte("bb")}})}),
		"mark":        encode(&markMsg{Task: 1, Attempt: 1}),
		"reduce-task": encode(&reduceTaskMsg{Partition: 1}),
		"reduce-done": encode(&reduceDoneMsg{Partition: 1, Output: []byte("oo")}),
		"rejoin":      encode(&rejoinMsg{WorkerID: 1, ListenAddr: "x", Epoch: 2}),
		"membership": encode(&membershipMsg{Epoch: 1, Homes: []int{1, 1}, Alive: []bool{false, true},
			Settled: []bool{true, false}, Joined: 1, JoinedAddr: "y", Left: 0}),
		"handoff":      encode(&runBatchMsg{Body: encode(&runEntries{{Task: 2, Partition: 0, Records: 1, Epoch: 1, Blob: []byte("h")}})}),
		"handoff-mark": encode(&handoffMsg{Epoch: 1, Partition: 0}),
		"handoff-done": encode(&handoffMsg{Epoch: 1, Partition: 0}),
		"block-put":    encode(&blockPutMsg{ID: 1, Data: []byte("b")}),
		"block-fetch":  encode(&blockFetchMsg{ID: 1, Nonce: 9}),
		"block-data":   encode(&blockDataMsg{ID: 1, Nonce: 9, OK: true, Data: []byte("c")}),
		"peer-hello":   encode(&peerHelloMsg{WorkerID: 1}),
		"span-batch": encode(&spanBatchMsg{TraceID: 1, Node: 0, EpochUnixNano: 99,
			Spans: []obs.Span{{Stage: "reduce", Start: 1, End: 2, ID: 3}}}),
		"heartbeat": encode(&hbMsg{Kind: hbReply, T1: 1, T2: 2, T3: 3}),
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
