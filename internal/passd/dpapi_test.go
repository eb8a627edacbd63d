package passd

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"passv2/internal/dpapi"
	"passv2/internal/dpapi/dpapitest"
	"passv2/internal/pnode"
	"passv2/internal/record"
	"passv2/internal/waldo"
)

// TestRemoteConformance runs the shared DPAPI conformance harness against
// the wire implementation: passd.Client as the layer, RemoteObject as the
// object. Identical behavior to the kernel-local phantoms — including the
// ErrStale / ErrWrongLayer / ErrClosed sentinels, reconstructed from wire
// error codes — is the acceptance bar for remote layering.
func TestRemoteConformance(t *testing.T) {
	dpapitest.RunLayers(t, []dpapitest.LayerImpl{
		{
			Name: "passd-remote",
			New: func(t *testing.T) (dpapi.Layer, func()) {
				srv := startServer(t, waldo.New(), Config{})
				c := dialClient(t, srv)
				return c, func() {}
			},
		},
	})
}

// TestHelloNegotiation pins the handshake's answer: the one protocol
// version and the server's phantom volume prefix (TestHandshakeRefusals
// covers everything a server refuses instead).
func TestHelloNegotiation(t *testing.T) {
	srv := startServer(t, waldo.New(), Config{})
	c := dialClient(t, srv)
	v, vol, err := c.Hello()
	if err != nil {
		t.Fatal(err)
	}
	if v != ProtocolVersion {
		t.Fatalf("negotiated version %d, want %d", v, ProtocolVersion)
	}
	if vol != DefaultObjectVolume {
		t.Fatalf("phantom volume %#x, want %#x", vol, DefaultObjectVolume)
	}
}

// TestRemoteDiscloseVisibleToQueries is the layering loop closed: an
// application discloses provenance through the remote DPAPI and the same
// daemon answers an ancestry query over it — one connection, no
// intermediate files.
func TestRemoteDiscloseVisibleToQueries(t *testing.T) {
	srv := startServer(t, waldo.New(), Config{})
	c := dialClient(t, srv)

	session, err := c.PassMkobj()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := c.PassMkobj()
	if err != nil {
		t.Fatal(err)
	}
	if err := dpapi.Disclose(session,
		record.New(session.Ref(), record.AttrType, record.StringVal(record.TypeSession)),
		record.New(session.Ref(), record.AttrName, record.StringVal("browse-1")),
	); err != nil {
		t.Fatal(err)
	}
	if err := dpapi.Disclose(doc,
		record.New(doc.Ref(), record.AttrType, record.StringVal(record.TypeDocument)),
		record.New(doc.Ref(), record.AttrName, record.StringVal("page.html")),
		record.Input(doc.Ref(), session.Ref()),
	); err != nil {
		t.Fatal(err)
	}

	res, err := c.Query(`select A from Provenance.document as D D.input* as A where D.name = "page.html"`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range res.Rows {
		for _, v := range row {
			if v.Ref.PNode == session.Ref().PNode {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("ancestry query did not reach the session object:\n%s", res.Format())
	}
}

// TestRemoteBatchPipelining checks batch semantics: every queued op
// executes in order under one acknowledgment, identity updates (freeze)
// propagate back to the client handles, and a poisoned op fails its slot
// without aborting the rest.
func TestRemoteBatchPipelining(t *testing.T) {
	srv := startServer(t, waldo.New(), Config{})
	c := dialClient(t, srv)

	obj, err := c.PassMkobj()
	if err != nil {
		t.Fatal(err)
	}
	ro := obj.(*RemoteObject)
	b := c.NewBatch()
	const n = 64
	for i := 0; i < n; i++ {
		dep := pnode.Ref{PNode: pnode.PNode(1000 + i), Version: 1}
		if err := b.Disclose(ro, record.Input(ro.Ref(), dep)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Freeze(ro); err != nil {
		t.Fatal(err)
	}
	if got := b.Len(); got != n+1 {
		t.Fatalf("batch length %d, want %d", got, n+1)
	}
	if err := b.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if b.Len() != 0 {
		t.Fatal("flush must drain the batch")
	}
	if v := ro.Ref().Version; v != 2 {
		t.Fatalf("freeze in batch: client-side version %v, want 2", v)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != 1 {
		t.Fatalf("batches = %d, want 1", st.Batches)
	}
	// n INPUT records + the freeze chain record reached the database.
	if st.Appends < int64(n+1) {
		t.Fatalf("committed %d records, want >= %d", st.Appends, n+1)
	}

	// A closed handle poisons only its own slot.
	other, err := c.PassMkobj()
	if err != nil {
		t.Fatal(err)
	}
	ref := other.Ref()
	b2 := c.NewBatch()
	if err := b2.Disclose(ro, record.Input(ro.Ref(), pnode.Ref{PNode: 7, Version: 1})); err != nil {
		t.Fatal(err)
	}
	b2.ops = append(b2.ops, Request{Op: "write", Handle: 999999}) // unknown handle
	b2.objs = append(b2.objs, nil)
	if err := b2.Disclose(ro, record.Input(ro.Ref(), pnode.Ref{PNode: 8, Version: 1})); err != nil {
		t.Fatal(err)
	}
	err = b2.Flush()
	if err == nil || !strings.Contains(err.Error(), "batch op 1") {
		t.Fatalf("flush error %v, want failure naming op 1", err)
	}
	_ = ref
	recsBefore := st.Appends
	st, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Appends != recsBefore+2 {
		t.Fatalf("ops around the failed slot must still commit: appends %d, want %d", st.Appends, recsBefore+2)
	}

	// An oversized pipeline splits into several size-bounded requests so
	// the server's line budget is never exceeded; every op still lands.
	batchesBefore := st.Batches
	blob := strings.Repeat("x", 300<<10)
	big := c.NewBatch()
	const blobs = 10
	for i := 0; i < blobs; i++ {
		if err := big.Disclose(ro, record.New(ro.Ref(), record.Attr("BLOB"), record.StringVal(fmt.Sprintf("%s-%d", blob, i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := big.Flush(); err != nil {
		t.Fatalf("oversized flush: %v", err)
	}
	st, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches < batchesBefore+2 {
		t.Fatalf("oversized pipeline used %d batch requests, want >= 2", st.Batches-batchesBefore)
	}
	if st.Appends < recsBefore+2+blobs {
		t.Fatalf("split pipeline lost records: appends %d", st.Appends)
	}
}

// TestRemoteReviveAcrossConnections: handles are connection-scoped, the
// object is not. A second connection revives what the first created, and
// the first connection's handle numbers mean nothing to the second.
func TestRemoteReviveAcrossConnections(t *testing.T) {
	srv := startServer(t, waldo.New(), Config{})
	c1 := dialClient(t, srv)

	obj, err := c1.PassMkobj()
	if err != nil {
		t.Fatal(err)
	}
	ref := obj.Ref()
	if err := dpapi.Disclose(obj, record.New(ref, record.AttrName, record.StringVal("durable-session"))); err != nil {
		t.Fatal(err)
	}
	c1.Close() // drop the whole connection, handles and all

	c2 := dialClient(t, srv)
	back, err := c2.PassReviveObj(ref)
	if err != nil {
		t.Fatalf("revive on a fresh connection: %v", err)
	}
	if back.Ref().PNode != ref.PNode {
		t.Fatalf("revived %v, want %v", back.Ref(), ref)
	}
	if err := dpapi.Disclose(back, record.Input(back.Ref(), pnode.Ref{PNode: 42, Version: 1})); err != nil {
		t.Fatalf("disclose after revive: %v", err)
	}
	// The first connection's handle number is meaningless here.
	resp, err := c2.roundTrip(&Request{Op: "read", Handle: obj.(*RemoteObject).handle + 100, Len: 4})
	if err == nil {
		t.Fatalf("foreign handle resolved: %+v", resp)
	}
}

// TestRemoteReviveAcrossRestart: a new server process (same database) can
// revive objects a dead one created, because every acknowledged record is
// in the store and the registry reseeds from it — including the pnode
// allocator, which must never re-issue an old identity.
func TestRemoteReviveAcrossRestart(t *testing.T) {
	w := waldo.New()
	srv1 := startServer(t, w, Config{})
	c1 := dialClient(t, srv1)

	obj, err := c1.PassMkobj()
	if err != nil {
		t.Fatal(err)
	}
	ref := obj.Ref()
	if err := dpapi.Disclose(obj, record.New(ref, record.AttrName, record.StringVal("survivor"))); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.PassFreeze(); err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	srv2 := startServer(t, w, Config{})
	c2 := dialClient(t, srv2)
	back, err := c2.PassReviveObj(ref)
	if err != nil {
		t.Fatalf("revive after restart: %v", err)
	}
	if got := back.Ref(); got.PNode != ref.PNode || got.Version != 2 {
		t.Fatalf("revived at %v, want pnode %v at version 2", got, ref.PNode)
	}
	// Never-recycled pnodes: fresh objects allocate past the survivor.
	fresh, err := c2.PassMkobj()
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Ref().PNode <= ref.PNode {
		t.Fatalf("allocator re-issued old identity space: %v <= %v", fresh.Ref().PNode, ref.PNode)
	}
	// And a truly unknown pnode is still stale.
	if _, err := c2.PassReviveObj(pnode.Ref{PNode: ref.PNode + 1<<30, Version: 1}); !errors.Is(err, dpapi.ErrStale) {
		t.Fatalf("unknown pnode after restart: %v, want ErrStale", err)
	}
}

// TestRemoteSinkAppend: the client is a distributor.Sink — handle-less
// writes materialize already-analyzed records onto the daemon.
func TestRemoteSinkAppend(t *testing.T) {
	srv := startServer(t, waldo.New(), Config{})
	c := dialClient(t, srv)
	if got := c.VolumeID(); got != DefaultObjectVolume {
		t.Fatalf("sink volume %#x, want %#x", got, DefaultObjectVolume)
	}
	recs := make([]record.Record, 0, 10)
	for i := 0; i < 10; i++ {
		ref := pnode.Ref{PNode: pnode.PNode(uint64(DefaultObjectVolume)<<48 | uint64(i+1)), Version: 1}
		recs = append(recs, record.New(ref, record.AttrName, record.StringVal(fmt.Sprintf("/m/%d", i))))
	}
	if err := c.AppendProvenance(recs); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Appends != 10 {
		t.Fatalf("appends = %d, want 10", st.Appends)
	}
	if st.Records != 10 {
		t.Fatalf("records = %d, want 10", st.Records)
	}
}

// TestRemoteWireHardening pins the bounds checks on wire-supplied spans:
// hostile offsets and lengths must produce errors, not panics or huge
// allocations, and a rejected write must commit nothing (records and
// data are one unit). The connection survives every rejection.
func TestRemoteWireHardening(t *testing.T) {
	srv := startServer(t, waldo.New(), Config{})
	c := dialClient(t, srv)
	obj, err := c.PassMkobj()
	if err != nil {
		t.Fatal(err)
	}
	ro := obj.(*RemoteObject)

	// Negative write offset: rejected whole, including the records.
	bundle := record.NewBundle(record.Input(ro.Ref(), pnode.Ref{PNode: 9, Version: 1}))
	if _, err := ro.PassWrite([]byte("x"), -1, bundle); err == nil {
		t.Fatal("negative-offset write accepted")
	}
	// Write beyond the phantom data cap: rejected, no allocation.
	if _, err := ro.PassWrite([]byte("x"), 1<<60, nil); err == nil {
		t.Fatal("beyond-cap write accepted")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Appends != 0 {
		t.Fatalf("rejected writes committed %d records, want 0", st.Appends)
	}

	// A huge read length allocates only what is readable.
	if _, err := ro.PassWrite([]byte("tiny"), 0, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := c.roundTrip(&Request{Op: "read", Handle: ro.handle, Len: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if resp.N != 4 || string(resp.Data) != "tiny" {
		t.Fatalf("read returned %d bytes %q, want the 4 readable ones", resp.N, resp.Data)
	}
	// Negative lengths and offsets read as empty, not as errors or panics.
	if resp, err = c.roundTrip(&Request{Op: "read", Handle: ro.handle, Len: -5, Off: -9}); err != nil || resp.N != 0 {
		t.Fatalf("degenerate read: n=%d err=%v, want empty success", resp.N, err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection did not survive hardening probes: %v", err)
	}
}
