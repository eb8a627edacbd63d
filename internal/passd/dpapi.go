package passd

// Client-side DPAPI: the remote half of the daemon's DPAPI contract. A
// passd.Client is a dpapi.Layer and hands out RemoteObject handles that
// are dpapi.Objects — the same six-call interface every local layer
// exports, implemented a second time over the wire. That is the point of
// the redesign: a component written against dpapi.Object (the Kepler
// PASS recorder, the provenance-aware Python runtime, the distributor's
// materialization sink) stacks on a remote daemon without changing a
// line, exactly as §5.2 lets layers stack locally.

import (
	"errors"
	"fmt"
	"sync"

	"passv2/internal/distributor"
	"passv2/internal/dpapi"
	"passv2/internal/pnode"
	"passv2/internal/record"
	"passv2/internal/replica"
)

var (
	_ dpapi.Layer      = (*Client)(nil)
	_ distributor.Sink = (*Client)(nil)
)

// Hello completes the handshake if it has not happened yet and returns
// the protocol version (always ProtocolVersion — a server offering
// anything else fails the handshake) plus the server's phantom-object
// volume prefix. The handshake happens automatically on every
// (re)connection; calling this eagerly is a cheap way to confirm the
// server is reachable and speaks this protocol.
func (c *Client) Hello() (version int, volume uint16, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureLocked(); err != nil {
		return 0, 0, err
	}
	return ProtocolVersion, c.volume, nil
}

// PassMkobj creates a phantom object on the server (dpapi.Layer). The
// returned handle lives on this client's connection; the object itself
// lives in the server registry and is revivable from any connection —
// which is also how the client itself survives reconnects: it re-revives
// every open object on the new connection.
func (c *Client) PassMkobj() (dpapi.Object, error) {
	resp, err := c.roundTrip(&Request{Op: "mkobj"})
	if err != nil {
		return nil, err
	}
	return c.objFromResp(resp), nil
}

// PassReviveObj reopens a phantom object by reference (dpapi.Layer):
// across connections, and — because every acknowledged record is in the
// server's durable log — across daemon crashes (§6.5's session revival).
func (c *Client) PassReviveObj(ref pnode.Ref) (dpapi.Object, error) {
	resp, err := c.roundTrip(&Request{Op: "revive", P: uint64(ref.PNode), Ver: uint32(ref.Version)})
	if err != nil {
		return nil, err
	}
	return c.objFromResp(resp), nil
}

func (c *Client) objFromResp(resp *Response) *RemoteObject {
	o := &RemoteObject{
		c:      c,
		handle: resp.Handle,
		ref:    pnode.Ref{PNode: pnode.PNode(resp.P), Version: pnode.Version(resp.Ver)},
	}
	c.register(o)
	return o
}

// --- distributor.Sink ---

// FSName names the remote layer for sink bookkeeping.
func (c *Client) FSName() string { return "passd(" + c.addr + ")" }

// VolumeID reports the server's phantom-object volume prefix, so the
// distributor can route by pnode space. Zero if the server is
// unreachable.
func (c *Client) VolumeID() uint16 {
	_, vol, err := c.Hello()
	if err != nil {
		return 0
	}
	return vol
}

// AppendProvenance materializes already-analyzed records onto the remote
// daemon: the distributor's sink operation, carried by the handle-less
// write path (no second analyzer pass — the records were analyzed by the
// layer that produced them).
func (c *Client) AppendProvenance(recs []record.Record) error {
	if err := checkRecords(recs); err != nil {
		return err
	}
	_, err := c.roundTrip(&Request{Op: "write", recs: recs})
	return err
}

// checkRecords refuses, before anything is sent or queued, a record whose
// value has no kind: the bundle codec would put a byte on the wire that
// the server's decoder rejects, failing the whole request.
func checkRecords(recs []record.Record) error {
	for _, r := range recs {
		if !r.Value.IsValid() {
			return fmt.Errorf("passd: record %v has an invalid value", r)
		}
	}
	return nil
}

// RemoteObject is a dpapi.Object whose layer is a passd daemon: the six
// DPAPI calls become round-trips on the owning Client's connection, where
// the server's serial lane keeps them in order. It is safe for concurrent
// use. For many small disclosures, queue them on a Batch instead of paying
// a round-trip and a durable ack per record.
type RemoteObject struct {
	c *Client

	mu        sync.Mutex
	handle    uint64
	ref       pnode.Ref
	closed    bool
	reviveErr error // a reconnect failed to revive this object
}

var _ dpapi.Object = (*RemoteObject)(nil)

// wireHandle returns the object's handle, ErrClosed after Close, or the
// parked revival failure if a reconnect could not re-open the object.
func (o *RemoteObject) wireHandle() (uint64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed {
		return 0, dpapi.ErrClosed
	}
	if o.reviveErr != nil {
		return 0, fmt.Errorf("passd: object lost across reconnect: %w", o.reviveErr)
	}
	return o.handle, nil
}

// setRef updates the cached identity from a server response that carries
// one (read, write, freeze) — versions move server-side when cycle
// avoidance freezes the object.
func (o *RemoteObject) setRef(resp *Response) {
	if resp.P == 0 && resp.Ver == 0 {
		return
	}
	o.mu.Lock()
	if resp.P != 0 {
		o.ref.PNode = pnode.PNode(resp.P)
	}
	if resp.Ver != 0 {
		o.ref.Version = pnode.Version(resp.Ver)
	}
	o.mu.Unlock()
}

// Ref returns the object's identity as of the last call that reported it.
func (o *RemoteObject) Ref() pnode.Ref {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.ref
}

// PassRead reads the phantom's data plus the exact identity read. The
// wire handle is resolved per attempt, so a read that triggers a
// reconnect transparently uses the revived handle.
func (o *RemoteObject) PassRead(p []byte, off int64) (int, pnode.Ref, error) {
	resp, err := o.c.call(o, &Request{Op: "read", Off: off, Len: len(p)})
	if err != nil {
		return 0, pnode.Ref{}, err
	}
	o.setRef(resp)
	n := copy(p, resp.Data)
	return n, pnode.Ref{PNode: pnode.PNode(resp.P), Version: pnode.Version(resp.Ver)}, nil
}

// PassWrite sends data and a provenance bundle as one unit; the server
// acknowledges only after the records are committed durably (WAP order:
// records before data, ack after the sync barrier).
func (o *RemoteObject) PassWrite(p []byte, off int64, b *record.Bundle) (int, error) {
	var recs []record.Record
	if b != nil {
		if err := checkRecords(b.Records); err != nil {
			return 0, err
		}
		recs = b.Records
	}
	resp, err := o.c.call(o, &Request{Op: "write", Data: p, Off: off, recs: recs})
	if err != nil {
		return 0, err
	}
	o.setRef(resp)
	return resp.N, nil
}

// PassFreeze versions the object (cycle breaking) and returns the new
// current version.
func (o *RemoteObject) PassFreeze() (pnode.Version, error) {
	resp, err := o.c.call(o, &Request{Op: "freeze"})
	if err != nil {
		return 0, err
	}
	o.setRef(resp)
	return pnode.Version(resp.Ver), nil
}

// PassSync forces everything disclosed against this object onto the
// server's stable storage before returning.
func (o *RemoteObject) PassSync() error {
	_, err := o.c.call(o, &Request{Op: "sync"})
	return err
}

// Close releases the wire handle. The object's provenance — and the
// object itself, via PassReviveObj — survives (§5.2: closing a handle
// never destroys provenance). Transport failures count as success: a
// dead connection released every handle on it already.
func (o *RemoteObject) Close() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return dpapi.ErrClosed
	}
	o.closed = true
	h := o.handle
	o.mu.Unlock()
	o.c.unregister(o)
	if h == 0 {
		return nil // never held a live handle on the current connection
	}
	_, err := o.c.roundTrip(&Request{Op: "close", Handle: h})
	if isTransportErr(err) {
		return nil
	}
	return err
}

// --- batching ---

// Batch queues DPAPI ops and ships them in one request: one round-trip
// and one durable acknowledgment for the whole pipeline, however many
// records it discloses. This is the §6.5 disclosure pattern at network
// scale — a browser session logging hundreds of page derivations pays one
// fsync, not hundreds. A Batch is not safe for concurrent use; it is a
// staging buffer for a single caller.
type Batch struct {
	c    *Client
	ops  []Request
	objs []*RemoteObject // parallel to ops; ref-update target (may be nil)
}

// NewBatch starts an empty pipeline on this client.
func (c *Client) NewBatch() *Batch { return &Batch{c: c} }

// Len reports queued ops.
func (b *Batch) Len() int { return len(b.ops) }

// Write queues a pass_write of data and records against obj.
func (b *Batch) Write(obj *RemoteObject, data []byte, off int64, recs *record.Bundle) error {
	h, err := obj.wireHandle()
	if err != nil {
		return err
	}
	var raw []record.Record
	if recs != nil {
		if err := checkRecords(recs.Records); err != nil {
			return err
		}
		raw = recs.Records
	}
	b.ops = append(b.ops, Request{Op: "write", Handle: h, Data: data, Off: off, recs: raw})
	b.objs = append(b.objs, obj)
	return nil
}

// Disclose queues a provenance-only pass_write against obj.
func (b *Batch) Disclose(obj *RemoteObject, recs ...record.Record) error {
	if len(recs) == 0 {
		return nil
	}
	return b.Write(obj, nil, 0, record.NewBundle(recs...))
}

// Freeze queues a pass_freeze of obj.
func (b *Batch) Freeze(obj *RemoteObject) error {
	h, err := obj.wireHandle()
	if err != nil {
		return err
	}
	b.ops = append(b.ops, Request{Op: "freeze", Handle: h})
	b.objs = append(b.objs, obj)
	return nil
}

// maxBatchWireBytes bounds the estimated size of one batch request, an
// eighth of the server's frame budget (maxFramePayload) so approxWireSize
// being an estimate never turns into a toolarge refusal. Flush
// transparently splits a larger pipeline into several requests — per-op
// durability is unchanged, only the amortization granularity: each
// request is still one round-trip and one durable ack for everything it
// carries. A single op over the frame budget is refused client-side with
// ErrTooLarge and must be split by the caller.
const maxBatchWireBytes = 2 << 20

// approxWireSize conservatively estimates one op's encoded footprint.
func approxWireSize(r *Request) int {
	n := 96 + len(r.Data)*4/3
	for i := range r.recs {
		rec := &r.recs[i]
		s, _ := rec.Value.AsString()
		b, _ := rec.Value.AsBytes()
		n += 64 + len(rec.Attr) + len(s) + len(b)
	}
	return n
}

// Flush ships the queued ops in order and empties the pipeline, splitting
// into size-bounded batch requests when necessary. The server executes
// every op in order and acknowledges each request once, durably; per-op
// failures do not abort the rest, and Flush returns the first one
// (wrapped with its op index) after applying the identity updates of the
// ops that succeeded. A transport error aborts the remaining requests.
func (b *Batch) Flush() error {
	if len(b.ops) == 0 {
		return nil
	}
	ops, objs := b.ops, b.objs
	b.ops, b.objs = nil, nil
	var first error
	for start := 0; start < len(ops); {
		end, size := start, 0
		for end < len(ops) {
			sz := approxWireSize(&ops[end])
			if end > start && size+sz > maxBatchWireBytes {
				break
			}
			size += sz
			end++
		}
		// Handles are connection residue: re-resolve each op's handle just
		// before shipping, so a reconnect between queueing and flushing
		// (which revived every object under a fresh handle) still lands
		// the ops on the right objects.
		for i := start; i < end; i++ {
			if objs[i] != nil {
				if h, herr := objs[i].wireHandle(); herr == nil {
					ops[i].Handle = h
				}
			}
		}
		resp, err := b.c.roundTrip(&Request{Op: "batch", Ops: ops[start:end]})
		if err != nil {
			if first == nil {
				first = err
			}
			return first
		}
		if len(resp.Ops) != end-start {
			return fmt.Errorf("passd: batch returned %d responses for %d ops", len(resp.Ops), end-start)
		}
		for i := range resp.Ops {
			r := &resp.Ops[i]
			if !r.OK {
				if first == nil {
					first = fmt.Errorf("passd: batch op %d: %w", start+i, wireError(r))
				}
				continue
			}
			if objs[start+i] != nil {
				objs[start+i].setRef(r)
			}
		}
		start = end
	}
	return first
}

// wireError reconstructs a client-side error from a failed response,
// mapping the machine-readable code back onto the dpapi sentinels so
// errors.Is works across the wire.
func wireError(resp *Response) error {
	var base error
	switch resp.Code {
	case codeStale:
		base = dpapi.ErrStale
	case codeWrongLayer:
		base = dpapi.ErrWrongLayer
	case codeClosed:
		base = dpapi.ErrClosed
	case codeNotPass:
		base = dpapi.ErrNotPassVolume
	case codeTooLarge:
		// Not retryable: the same bytes would be refused again. The
		// server closes the connection after this refusal, but the error
		// the caller acts on is the budget, not the reconnect.
		return fmt.Errorf("passd: remote: %w (%s)", ErrTooLarge, resp.Error)
	case codeForked:
		// Not retryable either: the follower recomputed a different root
		// over the same bytes, so the two histories have diverged and
		// resending cannot reconcile them. The primary's stream stops
		// making progress against this follower until an operator
		// re-seeds one side — which is the fail-closed behavior a forked
		// primary must get.
		return fmt.Errorf("passd: remote: %w (%s)", ErrForked, resp.Error)
	case codeOverloaded, codeUnavail, codeReadOnly, codeQuota, codeGap:
		// Availability refusals keep the server's detail (quorum counts,
		// shed reason, gap offsets) while mapping onto the sentinel the
		// retry policy and errors.Is tests key on. codeGap maps back to
		// replica.ErrGap so a primary's replPeer.Append can tell "the
		// follower holds less than I thought — re-learn its state and
		// backfill" from a generic refusal.
		switch resp.Code {
		case codeOverloaded:
			base = ErrOverloaded
		case codeUnavail:
			base = ErrUnavailable
		case codeReadOnly:
			base = ErrReadOnly
		case codeQuota:
			base = ErrQuotaExceeded
		case codeGap:
			base = replica.ErrGap
		}
		return fmt.Errorf("passd: remote: %w (%s)", base, resp.Error)
	}
	if base != nil {
		return fmt.Errorf("passd: remote: %w", base)
	}
	return errors.New("passd: " + resp.Error)
}
