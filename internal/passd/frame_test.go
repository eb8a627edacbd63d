package passd

// Wire protocol tests: frame codec round-trips, the handshake's refusals,
// multiplexing — the acceptance bar that a slow request cannot
// head-of-line-block a fast one on the same connection — chunked
// responses, the toolarge refusal, per-connection admission control, and
// torn binary frames.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"passv2/internal/pnode"
	"passv2/internal/record"
)

func testRecords(n int) []record.Record {
	recs := make([]record.Record, 0, 3*n)
	for i := 1; i <= n; i++ {
		ref := pnode.Ref{PNode: pnode.PNode(i), Version: 1}
		recs = append(recs,
			record.New(ref, record.AttrName, record.StringVal(fmt.Sprintf("/swarm/%d", i))),
			record.New(ref, record.AttrType, record.StringVal(record.TypeFile)),
			record.New(ref, "ENV", record.Int(int64(i))))
	}
	return recs
}

// TestFrameRequestRoundTrip pins the request payload codec: envelope
// fields, native record bundles, data buffers and nested batch ops all
// survive encode → decode.
func TestFrameRequestRoundTrip(t *testing.T) {
	recs := testRecords(5)
	reqs := []*Request{
		{Op: "query", Query: "select F from Provenance.file as F", TimeoutMS: 250},
		{Op: "read", Handle: 7, Off: -3, Len: 1 << 40},
		{Op: "write", Handle: 9, Off: 64, Data: []byte("payload bytes"), recs: recs},
		{Op: "write", recs: []record.Record{}},
		{Op: "replappend", Off: 4096, Data: bytes.Repeat([]byte{0xAB}, 1000)},
		{Op: "batch", Ops: []Request{
			{Op: "mkobj"},
			{Op: "write", Handle: 1, Data: []byte("x"), recs: recs[:2]},
			{Op: "freeze", Handle: 1},
		}},
	}
	for _, req := range reqs {
		buf, err := appendRequestPayload(nil, req, 0)
		if err != nil {
			t.Fatalf("%s: encode: %v", req.Op, err)
		}
		got, n, err := decodeRequestPayload(buf, 0)
		if err != nil {
			t.Fatalf("%s: decode: %v", req.Op, err)
		}
		if n != len(buf) {
			t.Fatalf("%s: decoded %d of %d bytes", req.Op, n, len(buf))
		}
		if got.Op != req.Op || got.Query != req.Query || got.TimeoutMS != req.TimeoutMS ||
			got.Handle != req.Handle || got.Off != req.Off || got.Len != req.Len {
			t.Fatalf("%s: envelope mismatch: %+v", req.Op, got)
		}
		if !bytes.Equal(got.Data, req.Data) {
			t.Fatalf("%s: data mismatch", req.Op)
		}
		if req.recs != nil && !reflect.DeepEqual(got.recs, req.recs) {
			t.Fatalf("%s: records mismatch:\n got %v\nwant %v", req.Op, got.recs, req.recs)
		}
		if len(got.Ops) != len(req.Ops) {
			t.Fatalf("%s: got %d ops, want %d", req.Op, len(got.Ops), len(req.Ops))
		}
		for i := range req.Ops {
			if got.Ops[i].Op != req.Ops[i].Op || !bytes.Equal(got.Ops[i].Data, req.Ops[i].Data) {
				t.Fatalf("%s: op %d mismatch", req.Op, i)
			}
		}
	}
}

// decodeFrames consumes every frame of one response from a buffer the
// way the client mux does, returning the assembled response and how many
// frames carried it.
func decodeFrames(t *testing.T, raw *bytes.Buffer) (*Response, int) {
	t.Helper()
	br := bufio.NewReader(raw)
	p := &respPartial{}
	frames := 0
	for {
		h, err := readFrameHeader(br)
		if err != nil {
			t.Fatalf("frame %d header: %v", frames, err)
		}
		payload, err := readFramePayload(br, h)
		if err != nil {
			t.Fatalf("frame %d payload: %v", frames, err)
		}
		frames++
		if _, err := p.absorb(payload, 0); err != nil {
			t.Fatalf("frame %d absorb: %v", frames, err)
		}
		if h.flags&flagMore == 0 {
			resp, err := p.finish()
			if err != nil {
				t.Fatalf("finish: %v", err)
			}
			return resp, frames
		}
	}
}

// TestFrameResponseChunking pins the response writer: a small response is
// one frame; a large result set splits across MORE-flagged frames and
// reassembles identically, envelope and all.
func TestFrameResponseChunking(t *testing.T) {
	small := &Response{OK: true, Columns: []string{"A"}, Rows: [][]Value{{{K: "int", I: 7}}}, Elapsed: 42}
	big := &Response{OK: true, Columns: []string{"A", "B"}, Data: bytes.Repeat([]byte{1, 2, 3}, 200_000)}
	for i := 0; i < 40_000; i++ {
		big.Rows = append(big.Rows, []Value{
			{K: "ref", P: uint64(i), V: 1, N: fmt.Sprintf("/chunk/%d", i)},
			{K: "str", S: "some row payload"},
		})
	}
	batch := &Response{OK: true, Ops: []Response{
		{OK: true, Handle: 3, P: 9, Ver: 1},
		{OK: false, Error: "nope", Code: codeClosed},
	}}

	for name, resp := range map[string]*Response{"small": small, "big": big, "batch": batch} {
		var raw bytes.Buffer
		bw := bufio.NewWriter(&raw)
		if err := writeResponseFrames(bw, 5, resp, getFrameScratch()); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		bw.Flush()
		got, frames := decodeFrames(t, &raw)
		if name == "small" && frames != 1 {
			t.Fatalf("small response used %d frames", frames)
		}
		if name == "big" && frames < 4 {
			t.Fatalf("big response used only %d frames, want chunking", frames)
		}
		if got.OK != resp.OK || got.Error != resp.Error || got.Elapsed != resp.Elapsed {
			t.Fatalf("%s: envelope mismatch: %+v", name, got)
		}
		if !reflect.DeepEqual(got.Columns, resp.Columns) {
			t.Fatalf("%s: columns mismatch", name)
		}
		if len(got.Rows) != len(resp.Rows) || !bytes.Equal(got.Data, resp.Data) {
			t.Fatalf("%s: rows/data mismatch: %d rows", name, len(got.Rows))
		}
		for i := range resp.Rows {
			if !reflect.DeepEqual(got.Rows[i], resp.Rows[i]) {
				t.Fatalf("%s: row %d mismatch: %+v vs %+v", name, i, got.Rows[i], resp.Rows[i])
			}
		}
		if len(got.Ops) != len(resp.Ops) {
			t.Fatalf("%s: ops mismatch", name)
		}
		for i := range resp.Ops {
			if got.Ops[i].Error != resp.Ops[i].Error || got.Ops[i].Code != resp.Ops[i].Code {
				t.Fatalf("%s: op %d mismatch", name, i)
			}
		}
	}
}

// TestHandshakeRefusals pins what a connection may open with: exactly a
// hello offering v3. Everything else — a v1 verb, a v1/v2 hello, garbage,
// an over-budget line — is answered with one coded refusal and a close,
// never a hang or a silent drop; and a JSON line where the first frame
// should be ends the connection too. No refused connection may linger:
// handle returns only after its lane and writer goroutines have, so the
// connection count and the goroutine count both fall back.
func TestHandshakeRefusals(t *testing.T) {
	w, q := testWaldo(2)
	srv := startServer(t, w, Config{})
	baseline := runtime.NumGoroutine()

	huge := bytes.Repeat([]byte{'x'}, maxHelloBytes+1024)
	copy(huge, `{"op":"hello","v":3,"tenant":"`)
	huge[len(huge)-1] = '\n'
	v1Query, _ := json.Marshal(&Request{Op: "query", Query: q})

	cases := []struct {
		name     string
		send     []byte
		wantCode string
	}{
		{"no-hello", append(v1Query, '\n'), codeUnsupported},
		{"hello-v1", []byte(`{"op":"hello","v":1}` + "\n"), codeUnsupported},
		{"hello-v2", []byte(`{"op":"hello","v":2,"tenant":"acct"}` + "\n"), codeUnsupported},
		{"hello-no-version", []byte(`{"op":"hello"}` + "\n"), codeUnsupported},
		{"non-json", []byte("GET / HTTP/1.1\r\n\r\n"), codeUnsupported},
		{"over-budget", huge, codeTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := conn.Write(tc.send); err != nil {
				t.Fatalf("send: %v", err)
			}
			br := bufio.NewReader(conn)
			line, err := br.ReadBytes('\n')
			if err != nil {
				t.Fatalf("no refusal before close: %v", err)
			}
			var resp Response
			if err := json.Unmarshal(line, &resp); err != nil {
				t.Fatalf("refusal %q is not a JSON reply: %v", line, err)
			}
			if resp.OK || resp.Code != tc.wantCode || resp.Error == "" {
				t.Fatalf("refusal = %+v, want code %q", resp, tc.wantCode)
			}
			if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
				t.Fatalf("after the refusal: %v, want the server to close", err)
			}
		})
	}

	t.Run("line-after-hello", func(t *testing.T) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := fmt.Fprintf(conn, `{"op":"hello","v":3}`+"\n"+`{"op":"ping"}`+"\n"); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(conn)
		line, err := br.ReadBytes('\n')
		var hello Response
		if err != nil || json.Unmarshal(line, &hello) != nil || !hello.OK || hello.Version != ProtocolVersion {
			t.Fatalf("hello reply = %q (%v)", line, err)
		}
		// The line's first bytes read as a frame header declaring an absurd
		// length: a toolarge refusal frame, then the close.
		h, err := readFrameHeader(br)
		if err != nil {
			t.Fatalf("refusal frame: %v", err)
		}
		payload, err := readFramePayload(br, h)
		if err != nil {
			t.Fatal(err)
		}
		resp, _, err := decodeResponsePayload(payload, 0)
		if err != nil || resp.OK || resp.Code != codeTooLarge {
			t.Fatalf("refusal = %+v (%v), want code %q", resp, err, codeTooLarge)
		}
		if _, err := br.ReadByte(); !errors.Is(err, io.EOF) {
			t.Fatalf("after the refusal: %v, want the server to close", err)
		}
	})

	deadline := time.Now().Add(5 * time.Second)
	for srv.ConnCount() != 0 || runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("refused connections linger: %d connections, %d goroutines (baseline %d)",
				srv.ConnCount(), runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestV3NoHeadOfLineBlocking is the tentpole's acceptance criterion: a
// deliberately slow query on a multiplexed v3 connection must not delay
// a concurrent fast query on the same connection.
func TestV3NoHeadOfLineBlocking(t *testing.T) {
	w, _ := testWaldo(1000)
	// The unfiltered closure scan runs an ancestor walk from every one of
	// the 1000 files over a 1000-deep chain — roughly quadratic work that
	// measures ~2s here, a couple of orders of magnitude more than the
	// head start the fast query gets, and well under the server's query
	// timeout.
	slowQ := `select A from Provenance.file as F F.input* as A`
	srv := startServer(t, w, Config{Workers: 4})
	c := dialClient(t, srv)
	if v, _, _ := c.Hello(); v < 3 {
		t.Fatalf("negotiated v%d, want v3", v)
	}

	slowDone := make(chan time.Time, 1)
	fastDone := make(chan time.Time, 1)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := c.QueryTimeout(slowQ, 25*time.Second); err != nil {
			t.Errorf("slow query: %v", err)
		}
		slowDone <- time.Now()
	}()
	go func() {
		defer wg.Done()
		time.Sleep(20 * time.Millisecond) // let the slow query hit the wire first
		if _, err := c.Query(`select F from Provenance.file as F where F.name = "/t/1"`); err != nil {
			t.Errorf("fast query: %v", err)
		}
		fastDone <- time.Now()
	}()
	wg.Wait()
	slow, fast := <-slowDone, <-fastDone
	if !fast.Before(slow) {
		t.Fatalf("fast query (%v) finished after the slow query (%v): head-of-line blocked",
			fast.Sub(start), slow.Sub(start))
	}
}

// TestV3SlowWriteDoesNotBlockQuery drives the same property through the
// serial lane: a disclosure stalled in the durable-ack path (slow log
// Append) must not delay a concurrent query on the same connection.
func TestV3SlowWriteDoesNotBlockQuery(t *testing.T) {
	const stall = 400 * time.Millisecond
	run := func(t *testing.T) (queryElapsed time.Duration) {
		w, q := testWaldo(4)
		var slow atomic.Bool
		srv := startServer(t, w, Config{
			Append: func(recs []record.Record) error {
				if slow.Load() {
					time.Sleep(stall)
				}
				w.DB.ApplyBatch(recs)
				return nil
			},
		})
		c := dialClient(t, srv)
		if err := c.Ping(); err != nil {
			t.Fatalf("ping: %v", err)
		}
		slow.Store(true)
		writeStarted := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			close(writeStarted)
			if err := c.AppendProvenance(testRecords(2)); err != nil {
				t.Errorf("slow disclose: %v", err)
			}
		}()
		<-writeStarted
		time.Sleep(50 * time.Millisecond) // write is on the wire, stalled in Append
		qStart := time.Now()
		if _, err := c.Query(q); err != nil {
			t.Fatalf("query: %v", err)
		}
		queryElapsed = time.Since(qStart)
		wg.Wait()
		return queryElapsed
	}
	t.Run("v3-concurrent", func(t *testing.T) {
		if elapsed := run(t); elapsed > stall/2 {
			t.Fatalf("query took %v on a connection with a stalled write; want well under %v", elapsed, stall)
		}
	})
}

// TestV3ConcurrentClientUse hammers one v3 client from many goroutines —
// queries and disclosures interleaved — to exercise the mux's stream
// bookkeeping under the race detector.
func TestV3ConcurrentClientUse(t *testing.T) {
	w, q := testWaldo(32)
	srv := startServer(t, w, Config{})
	c := dialClient(t, srv)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if g%2 == 0 {
					if _, err := c.Query(q); err != nil {
						t.Errorf("query: %v", err)
						return
					}
				} else if err := c.AppendProvenance(testRecords(3)); err != nil {
					t.Errorf("disclose: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.V3Conns != 1 {
		t.Fatalf("V3Conns = %d, want 1", st.V3Conns)
	}
}

// TestV3LargeResultChunked round-trips a result big enough to span many
// response frames end to end through a real server and client.
func TestV3LargeResultChunked(t *testing.T) {
	// 20k rows of refs encode to ~0.4 MB — comfortably past the 256 KiB
	// chunk target, so the result crosses frame boundaries for real.
	w, q := testWaldo(20000)
	srv := startServer(t, w, Config{})
	c := dialClient(t, srv)
	res, err := c.QueryTimeout(q, 25*time.Second)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(res.Rows) != 20000 {
		t.Fatalf("chunked result returned %d rows, want 20000", len(res.Rows))
	}
}

// TestV3InFlightCap pins per-connection admission control: with
// MaxInFlight 1 and a write stalled in the durable-ack path, a second
// request on the same connection is refused with ErrOverloaded instead
// of queueing without bound.
func TestV3InFlightCap(t *testing.T) {
	w, q := testWaldo(4)
	gate := make(chan struct{})
	var gated atomic.Bool
	srv := startServer(t, w, Config{
		MaxInFlight: 1,
		Append: func(recs []record.Record) error {
			if gated.Load() {
				<-gate
			}
			w.DB.ApplyBatch(recs)
			return nil
		},
	})
	c, err := DialOptions(srv.Addr(), Options{MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	gated.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := c.AppendProvenance(testRecords(1)); err != nil {
			t.Errorf("gated disclose: %v", err)
		}
	}()
	time.Sleep(100 * time.Millisecond) // the write occupies the one slot
	_, qerr := c.Query(q)
	close(gate)
	wg.Wait()
	if !errors.Is(qerr, ErrOverloaded) {
		t.Fatalf("second in-flight request got %v, want ErrOverloaded", qerr)
	}
	// The connection survives shedding: the next request succeeds.
	if _, err := c.Query(q); err != nil {
		t.Fatalf("query after shed: %v", err)
	}
}

// TestTooLargeClientSentinel pins the client-side mapping: an oversized
// frame is refused against the frame budget before it is sent, surfaces
// as ErrTooLarge, and is not retried.
func TestTooLargeClientSentinel(t *testing.T) {
	w, _ := testWaldo(2)
	srv := startServer(t, w, Config{})
	c3 := dialClient(t, srv)
	if err := c3.Ping(); err != nil {
		t.Fatal(err)
	}
	giant := record.StringVal(string(make([]byte, maxFramePayload)))
	recs := []record.Record{record.New(pnode.Ref{PNode: 1, Version: 1}, "ENV", giant)}
	if err := c3.AppendProvenance(recs); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("v3 oversized disclose: %v, want ErrTooLarge", err)
	}
}

// TestTooLargeFrameRefusedByServer drives an over-budget frame header at
// the server raw and must read a toolarge response frame back before the
// connection closes.
func TestTooLargeFrameRefusedByServer(t *testing.T) {
	w, _ := testWaldo(2)
	srv := startServer(t, w, Config{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Negotiate v3 by hand.
	if _, err := fmt.Fprintf(conn, `{"op":"hello","v":3}`+"\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("hello reply: %v", err)
	}
	var hello Response
	if err := json.Unmarshal(line, &hello); err != nil || hello.Version != 3 {
		t.Fatalf("hello = %s (%v)", line, err)
	}
	// A frame header declaring a payload over the budget.
	var hdr [frameHeaderLen]byte
	putFrameHeader(hdr[:], maxFramePayload+1, 9, frameRequest, 0)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	h, err := readFrameHeader(br)
	if err != nil {
		t.Fatalf("refusal frame: %v", err)
	}
	payload, err := readFramePayload(br, h)
	if err != nil {
		t.Fatal(err)
	}
	resp, _, err := decodeResponsePayload(payload, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.stream != 9 || resp.Code != codeTooLarge {
		t.Fatalf("refusal on stream %d with code %q, want stream 9 code %q", h.stream, resp.Code, codeTooLarge)
	}
}

// TestV3TornFrameRecovery arms mid-frame tears at several cut points —
// inside the 10-byte header and inside the payload — and the client must
// classify each as a transport failure and transparently retry the
// idempotent query on a fresh connection.
func TestV3TornFrameRecovery(t *testing.T) {
	for _, cut := range []int64{3, 15, 200} {
		t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
			w, q := testWaldo(8)
			srv, flt := startFaultyServer(t, w, Config{})
			c, err := DialOptions(srv.Addr(), Options{
				RequestTimeout: 250 * time.Millisecond,
				DeadlineGrace:  100 * time.Millisecond,
				RetryBase:      5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			if err := c.Ping(); err != nil { // hello + upgrade complete before arming
				t.Fatal(err)
			}
			flt.TearAfter(cut)
			res, err := c.Query(q)
			if err != nil {
				t.Fatalf("query through a torn frame did not recover: %v", err)
			}
			if len(res.Rows) != 8 {
				t.Fatalf("recovered query returned %d rows, want 8", len(res.Rows))
			}
		})
	}
}

// TestV3ReplVerbsFramed pins that the replication verbs — which carry
// their payloads in the binary Data section on v3 — round-trip over a
// framed connection; the full-topology suites in replication_test.go
// exercise them in anger.
func TestV3ReplVerbsFramed(t *testing.T) {
	w, _ := testWaldo(2)
	srv := startServer(t, w, Config{})
	c := dialClient(t, srv)
	if v, _, _ := c.Hello(); v != 3 {
		t.Fatalf("v3 not negotiated")
	}
	// replstate against a standalone daemon must fail cleanly over frames.
	if resp, err := c.roundTrip(&Request{Op: "replstate"}); err == nil {
		t.Fatalf("replstate on a standalone daemon succeeded: %+v", resp)
	}
}
