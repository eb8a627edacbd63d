package passd

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"passv2/internal/pql"
)

// Client is one connection to a passd server. It is safe for concurrent
// use, and concurrent calls share the connection: each rides its own
// stream of the frame mux (mux.go), so a fast read overtakes a slow query
// and one Client serves as many in-flight requests as the server's
// per-connection cap admits.
//
// A Client is resilient by default (see Options): dials are bounded by a
// timeout, every round-trip carries a socket deadline derived from the
// request's own timeout (a hung or partitioned server surfaces as an
// error, never a stuck caller), transient failures — overload shedding
// on any op; quorum unavailability and connection resets on idempotent
// ops — are retried with exponential backoff and jitter, and a broken connection is
// transparently redialed, with every open RemoteObject revived on the new
// connection under its current identity (PR 5's registry semantics make
// that sound: handles are connection residue, objects live server-side).
//
// A Client is also a dpapi.Layer (and a distributor.Sink): PassMkobj and
// PassReviveObj hand out RemoteObject handles, making a remote daemon a
// drop-in lower layer for anything written against the DPAPI — see
// dpapi.go.
type Client struct {
	addr string
	opts Options

	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader

	// mux is non-nil once the hello handshake is done: the connection
	// speaks binary frames and many requests share it concurrently, each
	// on its own stream (see clientMux). c.mu guards only lifecycle state
	// (conn/mux/objs) — round-trips run outside it.
	mux *clientMux

	// volume is what the last hello reported; the handshake is repeated on
	// every (re)connection so the client works against a restarted daemon
	// without caller involvement.
	volume uint16

	// objs is the revival registry: every open RemoteObject this client
	// handed out. After a reconnect, each is re-opened by its current
	// (pnode, version) and its wire handle refreshed in place.
	objs map[*RemoteObject]struct{}
}

// Options tunes a Client's resilience. The zero value means sane
// defaults; fields are only consulted at Dial time.
type Options struct {
	// DialTimeout bounds connection establishment; <=0 means 5s.
	DialTimeout time.Duration
	// RequestTimeout is the socket-deadline base for requests that carry
	// no timeout of their own; <=0 means 30s. Requests with an explicit
	// TimeoutMS use that instead, so a query's wire deadline tracks its
	// server-side execution deadline.
	RequestTimeout time.Duration
	// DeadlineGrace is added to the request timeout when deriving the
	// socket deadline, covering queueing and transfer time so the server
	// gets to report its own timeout error before the socket gives up;
	// <=0 means 2s.
	DeadlineGrace time.Duration
	// MaxRetries bounds retries of transient failures (shed load, quorum
	// unavailability, and transport errors on idempotent ops). 0 means
	// the default (4); negative disables retries.
	MaxRetries int
	// RetryBase and RetryMax bound the exponential backoff between
	// retries; defaults 25ms and 1s. Jitter is applied on top.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Tenant, when non-empty, names this client's tenant on hello: every
	// request on the connection is accounted (and, when the server
	// configures TenantQuotas for the name, limited) under it. Over-quota
	// requests come back as ErrQuotaExceeded and are retried with backoff
	// like ErrOverloaded.
	Tenant string
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.DeadlineGrace <= 0 {
		o.DeadlineGrace = 2 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 4
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 25 * time.Millisecond
	}
	if o.RetryMax <= 0 {
		o.RetryMax = time.Second
	}
	return o
}

// ErrExhausted is the terminal retry error: the failure was transient and
// retryable, but every attempt failed. It wraps the last attempt's error.
var ErrExhausted = errors.New("passd: retries exhausted")

// ErrTooLarge reports a request over the wire size budget — refused
// client-side before sending when the client can tell, or by the server
// with the "toolarge" code. Never retried: the same bytes would be
// refused again; split the bundle instead.
var ErrTooLarge = errors.New("passd: request exceeds the wire size budget")

// Dial connects to a passd server with default Options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, Options{})
}

// DialOptions connects to a passd server with explicit resilience
// options. The initial dial is attempted immediately so configuration
// errors surface here; later reconnects are automatic.
func DialOptions(addr string, opts Options) (*Client, error) {
	c := &Client{addr: addr, opts: opts.withDefaults(), objs: make(map[*RemoteObject]struct{})}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	if c.mux != nil {
		c.mux.fail(errors.New("passd: client closed"))
		c.mux = nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// connectLocked dials a fresh connection. Requires c.mu.
func (c *Client) connectLocked() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return err
	}
	c.conn = conn
	c.br = bufio.NewReader(conn)
	return nil
}

// dropLocked abandons a connection a transport error poisoned: the
// framing is no longer trustworthy (a torn response would desynchronize
// every later exchange), so the next call redials. Failing the mux
// delivers the error to every request still waiting on the shared
// connection.
func (c *Client) dropLocked() {
	if c.mux != nil {
		c.mux.fail(errors.New("passd: connection dropped"))
		c.mux = nil
	}
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// dropConn drops conn if it is still the client's current connection —
// the unlocked path a round-trip uses after a transport failure, where
// another goroutine may already have reconnected.
func (c *Client) dropConn(conn net.Conn) {
	c.mu.Lock()
	if c.conn == conn {
		c.dropLocked()
	}
	c.mu.Unlock()
}

// ensureLocked makes the connection ready: dialed, hello exchanged, and
// every registered object revived on it. Errors here are always retryable
// — the caller's request has not been sent.
func (c *Client) ensureLocked() error {
	if c.conn == nil {
		if err := c.connectLocked(); err != nil {
			return err
		}
	}
	if c.mux != nil {
		return nil
	}
	resp, err := c.helloLocked()
	if err != nil {
		return err
	}
	if !resp.OK || resp.Version != ProtocolVersion {
		// A refused hello is the last thing the server says on this
		// connection; the next attempt redials.
		c.dropLocked()
		if !resp.OK {
			return wireError(resp)
		}
		return fmt.Errorf("passd: server answered hello with protocol v%d, this client speaks v%d", resp.Version, ProtocolVersion)
	}
	c.volume = resp.Volume
	// From here the connection speaks binary frames. Clear the sticky
	// deadline helloLocked set — the mux reader goroutine runs
	// deadline-free (each request is bounded by its own waiter timer), and
	// per-write deadlines are set per send.
	c.conn.SetDeadline(time.Time{})
	c.mux = newClientMux(c.conn, c.br)
	return c.reviveLocked()
}

func isTransportErr(err error) bool {
	var te *transportError
	return errors.As(err, &te)
}

// reviveLocked re-opens every registered object on the current
// connection: wire handles are connection residue, but the objects and
// their provenance live in the server registry under stable (pnode,
// version) identities, so a reconnect revives them transparently. A
// revival failure is parked on the object — its next use reports it —
// rather than failing whatever unrelated call triggered the reconnect;
// only the new connection dying under the revivals is returned, so the
// caller retries on another. The round-trips are safe under c.mu: the
// mux's reader goroutine never takes it.
func (c *Client) reviveLocked() error {
	for o := range c.objs {
		o.mu.Lock()
		if o.closed {
			o.mu.Unlock()
			continue
		}
		ref := o.ref
		o.mu.Unlock()
		resp, err := c.mux.do(&Request{Op: "revive", P: uint64(ref.PNode), Ver: uint32(ref.Version)}, c.opts.RequestTimeout)
		if err == nil && !resp.OK {
			err = wireError(resp)
		}
		o.mu.Lock()
		if err != nil {
			o.handle, o.reviveErr = 0, err
		} else {
			o.handle, o.reviveErr = resp.Handle, nil
		}
		o.mu.Unlock()
		if isTransportErr(err) {
			c.dropLocked()
			return err
		}
	}
	return nil
}

// helloLocked is the handshake: the one JSON line each way that opens a
// connection, under a socket deadline so a server that hangs — or a
// network that partitions mid-exchange — surfaces as a timeout instead of
// blocking the caller forever. Requires c.mu. Transport failures drop the
// connection and return a transportError; a refusal returns the decoded
// response with resp.OK false and a nil error.
func (c *Client) helloLocked() (*Response, error) {
	fail := func(err error) (*Response, error) {
		c.dropLocked()
		return nil, &transportError{err}
	}
	b, err := json.Marshal(&Request{Op: "hello", Version: ProtocolVersion, Tenant: c.opts.Tenant})
	if err != nil {
		return nil, err
	}
	if err := c.conn.SetDeadline(time.Now().Add(c.opts.RequestTimeout)); err != nil {
		return fail(err)
	}
	if _, err := c.conn.Write(append(b, '\n')); err != nil {
		return fail(err)
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return fail(readErr(err))
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return fail(fmt.Errorf("passd: bad response: %w", err))
	}
	return &resp, nil
}

// transportError marks a failure of the transport itself — as opposed to
// a well-formed error reply — so retry classification can tell "the
// server refused" from "the request may or may not have arrived".
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// deadlineFor derives the socket deadline from the request's own timeout
// plus the grace margin, falling back to the client-wide default.
func (c *Client) deadlineFor(req *Request) time.Duration {
	if req.TimeoutMS > 0 {
		return time.Duration(req.TimeoutMS)*time.Millisecond + c.opts.DeadlineGrace
	}
	return c.opts.RequestTimeout + c.opts.DeadlineGrace
}

// retryable classifies one attempt's failure. An overload refusal is
// retryable for every op: the server shed the request before executing
// it, so nothing happened. A quorum-unavailable refusal is not — by the
// time the primary refuses the ack it has already staged and durably
// logged the request's records, so blindly re-sending a record-staging
// op would disclose those records a second time; only idempotent ops
// (verbSpec.idempotent) retry, and writers see the error and must decide.
// Transport failures are retryable only when the op is idempotent, or
// when the request provably never went out (dial/hello/revive failures).
func retryable(op string, err error, sent bool) bool {
	if errors.Is(err, ErrOverloaded) {
		return true
	}
	// Quota refusals happen at admission, before anything executes or
	// stages — re-sending can never double-apply, so they retry like
	// overload regardless of the op.
	if errors.Is(err, ErrQuotaExceeded) {
		return true
	}
	if errors.Is(err, ErrUnavailable) {
		return verbFor(op).idempotent
	}
	if isTransportErr(err) {
		return !sent || verbFor(op).idempotent
	}
	return false
}

// call is the resilient request path: ensure a live negotiated
// connection, send, and retry transient failures with exponential
// backoff plus jitter. When o is non-nil the request addresses that
// object, and its wire handle is refreshed per attempt — a reconnect
// between attempts changes it.
func (c *Client) call(o *RemoteObject, req *Request) (*Response, error) {
	timeout := c.deadlineFor(req)
	backoff := c.opts.RetryBase
	var lastErr error
	for attempt := 0; ; attempt++ {
		resp, sent, err := c.attempt(o, req, timeout)
		if err == nil {
			return resp, nil
		}
		if !retryable(req.Op, err, sent) {
			return nil, err
		}
		lastErr = err
		if attempt >= c.opts.MaxRetries {
			// Both errors stay in the chain: errors.Is sees ErrExhausted
			// (the terminal classification) and the transient cause.
			return nil, fmt.Errorf("%w after %d attempts: %w", ErrExhausted, attempt+1, lastErr)
		}
		time.Sleep(backoff + time.Duration(rand.Int63n(int64(backoff/2+1))))
		if backoff *= 2; backoff > c.opts.RetryMax {
			backoff = c.opts.RetryMax
		}
	}
}

// attempt runs one try of a request. sent reports whether the request
// itself was handed to the transport (false for dial/hello failures,
// which are therefore always safe to retry). c.mu is released before the
// round-trip — the mux carries many concurrent requests on the one
// connection, which is the whole point of the framing.
func (c *Client) attempt(o *RemoteObject, req *Request, timeout time.Duration) (resp *Response, sent bool, err error) {
	c.mu.Lock()
	if err := c.ensureLocked(); err != nil {
		c.mu.Unlock()
		return nil, false, err
	}
	if o != nil {
		h, herr := o.wireHandle()
		if herr != nil {
			c.mu.Unlock()
			return nil, false, herr
		}
		req.Handle = h
	}
	m, conn := c.mux, c.conn
	c.mu.Unlock()
	resp, err = m.do(req, timeout)
	if err != nil {
		if isTransportErr(err) {
			c.dropConn(conn)
		}
		return nil, true, err
	}
	if !resp.OK {
		return nil, true, wireError(resp)
	}
	return resp, true, nil
}

// roundTrip sends one request and reads one response, with resilience.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	return c.call(nil, req)
}

// register adds an object to the revival registry.
func (c *Client) register(o *RemoteObject) {
	c.mu.Lock()
	c.objs[o] = struct{}{}
	c.mu.Unlock()
}

// unregister removes an object (Close) from the revival registry.
func (c *Client) unregister(o *RemoteObject) {
	c.mu.Lock()
	delete(c.objs, o)
	c.mu.Unlock()
}

// Query evaluates a PQL query on the server under its default deadline and
// returns the result set, identical in shape to an in-process pql.Run.
func (c *Client) Query(q string) (*pql.Result, error) {
	return c.QueryTimeout(q, 0)
}

// QueryTimeout is Query with an explicit per-query deadline (capped by the
// server's MaxTimeout). Zero means the server default. The same deadline,
// plus the grace margin, bounds the socket exchange.
func (c *Client) QueryTimeout(q string, timeout time.Duration) (*pql.Result, error) {
	resp, err := c.roundTrip(&Request{Op: "query", Query: q, TimeoutMS: timeout.Milliseconds()})
	if err != nil {
		return nil, err
	}
	return decodeResult(resp.Columns, resp.Rows)
}

// Explain returns the plan the server would execute for q.
func (c *Client) Explain(q string) (string, error) {
	resp, err := c.roundTrip(&Request{Op: "explain", Query: q})
	if err != nil {
		return "", err
	}
	return resp.Plan, nil
}

// Stats returns the server's database and serving counters.
func (c *Client) Stats() (*Stats, error) {
	resp, err := c.roundTrip(&Request{Op: "stats"})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, errors.New("passd: stats response missing payload")
	}
	return resp.Stats, nil
}

// Drain asks the server to synchronously ingest everything new in its
// volumes' logs, returning the record count afterwards. Views pinned after
// Drain returns observe everything it ingested.
func (c *Client) Drain() (int64, error) {
	resp, err := c.roundTrip(&Request{Op: "drain"})
	if err != nil {
		return 0, err
	}
	return resp.Records, nil
}

// Checkpoint forces the server to write a durable checkpoint now and
// returns what it committed. It fails if the server has no checkpoint
// store configured.
func (c *Client) Checkpoint() (*CheckpointInfo, error) {
	resp, err := c.roundTrip(&Request{Op: "checkpoint"})
	if err != nil {
		return nil, err
	}
	if resp.Checkpoint == nil {
		return nil, errors.New("passd: checkpoint response missing payload")
	}
	return resp.Checkpoint, nil
}

// Ping round-trips a no-op, for liveness checks.
func (c *Client) Ping() error {
	_, err := c.roundTrip(&Request{Op: "ping"})
	return err
}

// verify round-trips one "verify" request and unwraps its payload.
func (c *Client) verify(req *Request) (*WireVerify, error) {
	req.Op = "verify"
	resp, err := c.roundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.Verify == nil {
		return nil, errors.New("passd: verify response missing payload")
	}
	return resp.Verify, nil
}

// VerifyRoot fetches the server's MMR root at size leaves (0 = current),
// signed when the daemon holds an identity. The answer is checkable with
// WireVerify.Statement and signer.Verify — trust the signature, not the
// transport.
func (c *Client) VerifyRoot(size uint64) (*WireVerify, error) {
	return c.verify(&Request{MMRSize: size})
}

// VerifyInclusion fetches an inclusion proof showing record position
// index is committed by the root at size leaves (0 = current). Check it
// with WireVerify.Inclusion and mmr.VerifyInclusion.
func (c *Client) VerifyInclusion(index, size uint64) (*WireVerify, error) {
	return c.verify(&Request{VerifyOp: "include", VerifyIndex: index, MMRSize: size})
}

// VerifyConsistency fetches a consistency proof showing the tree at "to"
// leaves (0 = current) extends the tree at "from" leaves without
// rewriting it. Check it with WireVerify.Consistency and
// mmr.VerifyConsistency.
func (c *Client) VerifyConsistency(from, to uint64) (*WireVerify, error) {
	return c.verify(&Request{VerifyOp: "consistency", VerifyFrom: from, VerifyTo: to})
}
