package passd

import (
	"encoding/json"
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"passv2/internal/dpapi"
	"passv2/internal/netfault"
	"passv2/internal/record"
	"passv2/internal/waldo"
)

// startFaultyServer serves w behind a netfault listener, so tests can
// inject network pathologies between the daemon and its clients while
// traffic is live.
func startFaultyServer(t *testing.T, w *waldo.Waldo, cfg Config) (*Server, *netfault.Faults) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	flt := netfault.New()
	cfg.Listener = flt.Listener(ln)
	srv, err := Serve(w, cfg)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, flt
}

// TestClientSocketDeadline is the deadline satellite: a server whose
// responses vanish (write blackhole — the classic half-open failure) must
// surface as a bounded transport error at the client, never a hung caller.
// Before this PR roundTrip set no socket deadlines, so this exact fault
// blocked the client forever.
func TestClientSocketDeadline(t *testing.T) {
	w, _ := testWaldo(4)
	srv, flt := startFaultyServer(t, w, Config{})
	c, err := DialOptions(srv.Addr(), Options{
		MaxRetries:     -1, // observe the raw deadline, no retry masking
		RequestTimeout: 250 * time.Millisecond,
		DeadlineGrace:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Ping(); err != nil {
		t.Fatalf("ping before fault: %v", err)
	}

	flt.BlackholeWrites(true)
	start := time.Now()
	err = c.Ping()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("ping succeeded against a blackholed server")
	}
	var te *transportError
	if !errors.As(err, &te) {
		t.Fatalf("blackhole surfaced as %v, want a transport error", err)
	}
	// The deadline is timeout+grace = 350ms; allow generous scheduling slop
	// but fail a client that sat anywhere near forever.
	if elapsed > 3*time.Second {
		t.Fatalf("deadline took %v to fire; socket deadlines are broken", elapsed)
	}

	// Healing the network is enough: the client redials transparently.
	flt.Heal()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after heal: %v", err)
	}
}

// TestClientQueryDeadlineTracksTimeout checks the per-request deadline
// derivation: an explicit query timeout, not the client-wide default,
// bounds the socket exchange.
func TestClientQueryDeadlineTracksTimeout(t *testing.T) {
	w, q := testWaldo(4)
	srv, flt := startFaultyServer(t, w, Config{})
	c, err := DialOptions(srv.Addr(), Options{
		MaxRetries:     -1,
		RequestTimeout: time.Hour, // would hang the test if it governed
		DeadlineGrace:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	flt.BlackholeWrites(true)
	start := time.Now()
	if _, err := c.QueryTimeout(q, 200*time.Millisecond); err == nil {
		t.Fatal("query succeeded against a blackholed server")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("per-query deadline took %v; request timeout did not drive the socket deadline", elapsed)
	}
}

// TestClientReconnectRevive kills every live connection under an open
// remote object: the next idempotent call must transparently redial,
// re-negotiate the protocol and revive the object under its stable
// (pnode, version) identity — the caller never notices the reset.
func TestClientReconnectRevive(t *testing.T) {
	w, _ := testWaldo(4)
	srv, flt := startFaultyServer(t, w, Config{})
	c, err := DialOptions(srv.Addr(), Options{
		RequestTimeout: 250 * time.Millisecond,
		DeadlineGrace:  100 * time.Millisecond,
		RetryBase:      5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })

	obj, err := c.PassMkobj()
	if err != nil {
		t.Fatalf("mkobj: %v", err)
	}
	ref := obj.Ref()
	if err := dpapi.Disclose(obj,
		record.New(ref, record.AttrType, record.StringVal(record.TypeProc)),
		record.New(ref, record.AttrName, record.StringVal("resilient-proc")),
	); err != nil {
		t.Fatalf("disclose: %v", err)
	}

	flt.KillConns()

	// A read on the object is idempotent: the retry path reconnects and the
	// revival registry restores the wire handle before the read is re-sent.
	ro := obj.(*RemoteObject)
	if _, gotRef, err := ro.PassRead(nil, 0); err != nil {
		t.Fatalf("read after connection reset: %v", err)
	} else if gotRef.PNode != ref.PNode {
		t.Fatalf("revived object reads as %v, want pnode %v", gotRef, ref.PNode)
	}
	// The connection is healthy again, so writes continue on the same
	// object — the revived handle is live, not a stale number.
	if err := dpapi.Disclose(obj, record.New(ref, record.AttrArgv, record.StringVal("argv"))); err != nil {
		t.Fatalf("disclose after revive: %v", err)
	}
	res, err := c.Query(`select P from Provenance.proc as P where P.name = "resilient-proc"`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("query after reconnect returned %d rows, want 1", len(res.Rows))
	}

	// A reconnect that itself dies mid-revival — the hello reply arrives,
	// the revive's reply is torn — is one more transient failure: the call
	// that triggered it (here one not addressed to the object) retries on
	// yet another connection instead of using the dead one.
	hello, err := json.Marshal(&Response{OK: true, Version: ProtocolVersion, Volume: DefaultObjectVolume})
	if err != nil {
		t.Fatal(err)
	}
	flt.KillConns()
	flt.TearAfter(int64(len(hello)) + 1 + 4)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after a reconnect died mid-revival: %v", err)
	}
	if _, gotRef, err := ro.PassRead(nil, 0); err != nil || gotRef.PNode != ref.PNode {
		t.Fatalf("read after the second reconnect: %v, %v; want pnode %v", gotRef, err, ref.PNode)
	}
}

// TestClientRetriesTornResponse arms a mid-frame tear on the server's next
// response: the client sees a truncated line and then silence, and must
// classify it as a transport failure, drop the poisoned connection and
// transparently retry the (idempotent) query on a fresh one.
func TestClientRetriesTornResponse(t *testing.T) {
	w, q := testWaldo(8)
	srv, flt := startFaultyServer(t, w, Config{})
	c, err := DialOptions(srv.Addr(), Options{
		RequestTimeout: 250 * time.Millisecond,
		DeadlineGrace:  100 * time.Millisecond,
		RetryBase:      5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Ping(); err != nil { // complete hello before arming the tear
		t.Fatalf("ping: %v", err)
	}

	flt.TearAfter(10)
	res, err := c.Query(q)
	if err != nil {
		t.Fatalf("query through a torn response did not recover: %v", err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("recovered query returned %d rows, want 8", len(res.Rows))
	}
}

// TestClientPartitionRecovery partitions the server away mid-session: calls
// fail with bounded errors while the partition holds, and plain healing —
// no caller intervention — restores service.
func TestClientPartitionRecovery(t *testing.T) {
	w, q := testWaldo(4)
	srv, flt := startFaultyServer(t, w, Config{})
	c, err := DialOptions(srv.Addr(), Options{
		MaxRetries:     -1,
		DialTimeout:    250 * time.Millisecond,
		RequestTimeout: 250 * time.Millisecond,
		DeadlineGrace:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Query(q); err != nil {
		t.Fatalf("query before partition: %v", err)
	}

	flt.Partition(true)
	start := time.Now()
	if _, err := c.Query(q); err == nil {
		t.Fatal("query succeeded across a partition")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("partitioned query took %v to fail", elapsed)
	}

	flt.Partition(false)
	if _, err := c.Query(q); err != nil {
		t.Fatalf("query after heal: %v", err)
	}
}

// TestDialFailsFast is the dial-timeout satellite's observable contract: a
// dead address surfaces as a prompt Dial error (the old code used blocking
// net.Dial with no bound at all).
func TestDialFailsFast(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	start := time.Now()
	if _, err := DialOptions(addr, Options{DialTimeout: 500 * time.Millisecond}); err == nil {
		t.Fatal("dial to a dead address succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dead dial took %v", elapsed)
	}
}

// overload fills srv's worker pool and wait queue by hand and returns a
// release func. While held, every query is shed with ErrOverloaded.
func overload(srv *Server) (release func()) {
	for i := 0; i < srv.cfg.Workers; i++ {
		srv.workers <- struct{}{}
	}
	srv.waiting.Add(int64(srv.cfg.MaxQueue))
	var done bool
	return func() {
		if done {
			return
		}
		done = true
		srv.waiting.Add(-int64(srv.cfg.MaxQueue))
		for i := 0; i < srv.cfg.Workers; i++ {
			<-srv.workers
		}
	}
}

// TestOverloadRetryDrains is the load-shedding end-to-end satellite: a
// shed query is retried with backoff and succeeds once the worker pool
// drains — the caller sees one slow success, not an error.
func TestOverloadRetryDrains(t *testing.T) {
	w, q := testWaldo(4)
	srv := startServer(t, w, Config{Workers: 2, MaxQueue: 1})
	c, err := DialOptions(srv.Addr(), Options{
		MaxRetries: 8,
		RetryBase:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })

	release := overload(srv)
	defer release()
	go func() {
		time.Sleep(60 * time.Millisecond) // a couple of shed attempts first
		release()
	}()
	if _, err := c.Query(q); err != nil {
		t.Fatalf("query did not survive transient overload: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Shed < 1 {
		t.Fatalf("shed = %d; the overload window was never hit", st.Shed)
	}
}

// TestCacheHitBypassesAdmission: a query whose result the current
// snapshot already holds costs no execution, so it is answered while
// every worker is held and the wait queue is full — where an uncached
// query is shed.
func TestCacheHitBypassesAdmission(t *testing.T) {
	w, q := testWaldo(4)
	srv := startServer(t, w, Config{Workers: 2, MaxQueue: 1})
	c, err := DialOptions(srv.Addr(), Options{MaxRetries: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	want, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	release := overload(srv)
	defer release()
	got, err := c.Query(q)
	if err != nil {
		t.Fatalf("cached query with every worker held: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cached answer %v, want %v", got, want)
	}
	if _, err := c.Query(`select F from Provenance.file as F where F.name = "/t/1"`); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("uncached query with every worker held: %v, want ErrOverloaded", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 1 || st.Shed != 1 {
		t.Fatalf("cache hits %d, shed %d; want 1 and 1", st.CacheHits, st.Shed)
	}
}

// TestOverloadRetriesExhausted is the other half of the contract: when the
// overload never clears, retries end in a distinct terminal error that
// still identifies the transient cause.
func TestOverloadRetriesExhausted(t *testing.T) {
	w, q := testWaldo(4)
	srv := startServer(t, w, Config{Workers: 2, MaxQueue: 1})
	c, err := DialOptions(srv.Addr(), Options{
		MaxRetries: 2,
		RetryBase:  time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })

	release := overload(srv)
	defer release()
	_, err = c.Query(q)
	if err == nil {
		t.Fatal("query succeeded against a permanently overloaded server")
	}
	if !errors.Is(err, ErrExhausted) {
		t.Fatalf("terminal error %v is not ErrExhausted", err)
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("terminal error %v lost its ErrOverloaded cause", err)
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("terminal error %v does not report its attempt count", err)
	}
}

// TestNonIdempotentWriteNotRetriedAfterSend: a write whose connection dies
// after the request went out is ambiguous (it may have executed), so the
// client must NOT blindly re-send it — re-executing would disclose the
// records twice on a guess. The error surfaces instead.
func TestNonIdempotentWriteNotRetriedAfterSend(t *testing.T) {
	w, _ := testWaldo(4)
	srv, flt := startFaultyServer(t, w, Config{})
	c, err := DialOptions(srv.Addr(), Options{
		RequestTimeout: 250 * time.Millisecond,
		DeadlineGrace:  100 * time.Millisecond,
		RetryBase:      5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })

	obj, err := c.PassMkobj()
	if err != nil {
		t.Fatalf("mkobj: %v", err)
	}
	ref := obj.Ref()

	// Blackhole responses: the write goes out, the ack never comes back.
	flt.BlackholeWrites(true)
	err = dpapi.Disclose(obj, record.New(ref, record.AttrName, record.StringVal("ambiguous")))
	if err == nil {
		t.Fatal("ambiguous write reported success")
	}
	var te *transportError
	if !errors.As(err, &te) {
		t.Fatalf("ambiguous write failed with %v, want a transport error", err)
	}
	if errors.Is(err, ErrExhausted) {
		t.Fatalf("ambiguous write was retried to exhaustion (%v); writes must not be re-sent", err)
	}
	flt.Heal()

	// The record was in fact applied exactly once (the server processed the
	// request; only the ack vanished) — re-sending would have doubled it.
	res, err := c.Query(`select P from Provenance.obj as P where P.name = "ambiguous"`)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("ambiguous write left %d records, want exactly 1", len(res.Rows))
	}
}
