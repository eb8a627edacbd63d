package passd

import (
	"bufio"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"passv2/internal/checkpoint"
	"passv2/internal/dpapi"
	"passv2/internal/graph"
	"passv2/internal/health"
	"passv2/internal/pnode"
	"passv2/internal/pql"
	"passv2/internal/provlog"
	"passv2/internal/record"
	"passv2/internal/replica"
	"passv2/internal/waldo"
)

// Config configures a Server. The zero value serves on a kernel-assigned
// loopback port with GOMAXPROCS workers, a queue of 4× that, a 5s default
// per-query deadline and a 30s cap.
type Config struct {
	// Addr is the TCP listen address; empty means "127.0.0.1:0".
	Addr string
	// Workers bounds how many queries execute concurrently; <=0 means
	// GOMAXPROCS (but at least 2, so a slow query cannot starve the pool
	// alone).
	Workers int
	// MaxQueue bounds how many queries may wait for a worker before the
	// server sheds load; <=0 means 4×Workers.
	MaxQueue int
	// DefaultTimeout is the per-query deadline when the request does not
	// carry one; <=0 means 5s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines; <=0 means 30s.
	MaxTimeout time.Duration
	// MaxInFlight bounds how many requests one connection may have
	// executing or queued at once; beyond it the server replies
	// ErrOverloaded immediately instead of reading further ahead. This is
	// per-connection admission control in front of the worker pool's
	// global backpressure (queries still shed via MaxQueue). <=0 means
	// 1024.
	MaxInFlight int

	// TenantQuotas caps named tenants (Request.Tenant, usually set once on
	// hello): per-tenant in-flight requests and staged wire bytes per
	// second. A tenant without an entry — and the empty tenant — is
	// unlimited. Over-quota requests are refused at admission with the
	// "quota" wire code (ErrQuotaExceeded), before any execution, so the
	// refusal is always safe to retry. See DESIGN.md §12.
	TenantQuotas map[string]TenantQuota

	// AdminAddr, when non-empty, serves the HTTP admin surface —
	// /metrics (Prometheus text format), /healthz (liveness) and /readyz
	// (readiness) — on that address. AdminListener, when non-nil, serves
	// it on an existing listener instead (the tests' port-0 seam); the
	// server owns either and closes it on Close.
	AdminAddr     string
	AdminListener net.Listener

	// Checkpoints, when non-nil, enables durable checkpointing: a
	// background checkpointer writes a generation whenever either trigger
	// below fires, the "checkpoint" verb forces one, and Close takes a
	// final one so a clean shutdown restarts from the tip.
	Checkpoints *checkpoint.Store
	// CheckpointInterval is the elapsed-time trigger; <=0 means 30s.
	CheckpointInterval time.Duration
	// CheckpointEvery is the records-applied trigger: checkpoint once this
	// many records have been ingested since the last one. <=0 disables the
	// record trigger (interval only).
	CheckpointEvery int64
	// CheckpointFullEvery bounds delta chains: one full snapshot, then up
	// to CheckpointFullEvery-1 cheap delta generations, then full again.
	// <=1 writes a full snapshot every time (the historical behavior).
	CheckpointFullEvery int
	// Append, when non-nil, routes committed provenance records to the
	// daemon's backing log (the daemon wires it to its volume's
	// write-through provenance log). When nil, records are applied
	// straight to the in-memory database — consistent, but only as
	// durable as the process. Acknowledgments wait for Sync, so Append
	// itself need not flush.
	Append func([]record.Record) error
	// Sync, when non-nil, forces everything Append accepted onto stable
	// storage. It is the single durable-ack point: one call per
	// acknowledged request, however many DPAPI ops the request pipelined
	// — which is exactly why batched disclosure beats per-record
	// round-trips (one fsync amortized over the whole batch).
	Sync func() error
	// Recovered carries the boot-time recovery outcome, surfaced in STATS
	// so clients (and the restart tests) can see what recovery did.
	Recovered *checkpoint.Recovered

	// Listener, when non-nil, serves on it instead of listening on Addr —
	// the seam the fault-injection tests use to put a netfault wrapper
	// between the daemon and its clients. The server owns it and closes
	// it on Close.
	Listener net.Listener

	// Replicate, when non-nil, makes this daemon a replication primary:
	// the durable-ack barrier additionally commits the log through the
	// replica.Primary (blocking for its write quorum), and the "repljoin"
	// verb registers announcing followers. The server does not own it;
	// the daemon closes it after the server.
	Replicate *replica.Primary

	// Follower, when non-nil, makes this daemon a read-only replication
	// follower: "replstate"/"replappend" serve the primary against this
	// log, and client writes are refused with ErrReadOnly. The server
	// does not own it.
	Follower *replica.FollowerLog

	// Tamper, when non-nil, wires the tamper-evidence stack (DESIGN.md
	// §13): the live Merkle mountain range over the daemon's provenance
	// log, the signing identity, and the rehydration path that upgrades a
	// pruned (peak-file-resumed) range to full proof capability. It
	// enables the "verify" verb and the MMR fields in STATS and /metrics.
	Tamper *TamperConfig

	// Feeder, when non-nil on a replication follower, verifies
	// proof-carrying replicated appends: a "replappend" whose mmr_n /
	// mmr_root claim disagrees with the root the feeder recomputes over
	// the same bytes is refused with the "forked" code before anything
	// touches the durable log, and the feeder is poisoned so nothing
	// after the fork is accepted either. The server does not own it.
	Feeder *provlog.TailFeeder
}

// ErrOverloaded is the backpressure error: all workers busy and the wait
// queue full. Clients see its message with an "overloaded:" prefix.
var ErrOverloaded = errors.New("passd: overloaded, retry later")

// ErrUnavailable is the replication backpressure error: the write is
// durable on the primary but the write quorum did not acknowledge it in
// time, so the request is refused rather than falsely acked. The refusal
// happens *after* the records were staged and durably logged, so
// resending a record-staging op would disclose its records twice; the
// client auto-retries this error only for idempotent ops and surfaces it
// to writers, whose records will still replicate once quorum heals.
var ErrUnavailable = errors.New("passd: write quorum unavailable, retry later")

// ErrReadOnly is a follower refusing a client write: followers replicate
// the primary's log verbatim, so the only writer is the primary.
var ErrReadOnly = errors.New("passd: read-only replication follower")

// ErrQuotaExceeded is a per-tenant quota refusal: the request's tenant is
// over its configured in-flight or staged-bytes/sec cap, and the request
// was refused at admission — nothing executed, so retrying with backoff
// (which the client does automatically, exactly as for ErrOverloaded) is
// always safe. Other tenants are unaffected; that is the point.
var ErrQuotaExceeded = errors.New("passd: tenant over quota, retry later")

// Server is the query daemon: an accept loop, per-connection goroutines,
// and a bounded worker pool all queries pass through. Create with Serve,
// stop with Close.
type Server struct {
	cfg Config
	w   *waldo.Waldo
	ln  net.Listener
	reg *registry // phantom objects

	workers chan struct{} // worker-pool slots
	waiting atomic.Int64  // queries queued for a slot
	closed  atomic.Bool
	v3Conns atomic.Int64 // connections past hello, speaking frames

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup

	// snap is the current snapshot cache: a pinned view plus everything
	// soundly shareable across queries on it. Rebuilt (O(1)) whenever the
	// database generation moves.
	snapMu sync.Mutex
	snap   *snapshot

	queries     atomic.Int64
	queryErrors atomic.Int64
	timeouts    atomic.Int64
	drains      atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	appends     atomic.Int64
	mkobjs      atomic.Int64
	revives     atomic.Int64
	batches     atomic.Int64

	quorumFailures atomic.Int64 // primary: acks refused for lack of quorum

	// Tamper-evidence state: forkRefusals counts replicated appends this
	// follower refused as forked, verifies counts "verify" verbs served,
	// and rehydrateMu serializes the rescan that upgrades a pruned MMR to
	// proof capability (concurrent verifies must not rescan twice).
	forkRefusals atomic.Int64
	verifies     atomic.Int64
	rehydrateMu  sync.Mutex

	// Observability and admission (admin.go, quota.go): met owns every
	// /metrics family — including the per-lane shed counters Stats.Shed is
	// derived from, so the two surfaces read one set of counters — health
	// is the /healthz//readyz checker, tenants the per-tenant quota table,
	// admin the HTTP admin server (nil when not configured).
	met     *serverMetrics
	health  *health.Checker
	tenants *tenantTable
	admin   *http.Server
	adminLn net.Listener

	// Checkpointer state: ckptMu serializes checkpoint writes (the
	// background loop and the verb can race), stopCkpt ends the loop.
	ckptMu           sync.Mutex
	stopCkpt         chan struct{}
	lastCkptGen      atomic.Int64
	lastCkptRecords  atomic.Int64
	lastCkptUnixNano atomic.Int64 // when the last checkpoint committed (0 = never)
	checkpoints      atomic.Int64
	checkpointErrors atomic.Int64
	// Per-kind checkpoint accounting: payload bytes committed as full
	// snapshots vs deltas, how many generations were deltas, and how many
	// post-commit retention sweeps failed (committed generations whose
	// housekeeping lagged — deliberately not CheckpointErrors).
	checkpointFullBytes   atomic.Int64
	checkpointDeltaBytes  atomic.Int64
	checkpointDeltas      atomic.Int64
	checkpointSweepErrors atomic.Int64
}

// snapshot bundles one pinned view with the caches its immutability makes
// sound: a graph, a shared traversal memo, parsed plans, and finished
// results keyed by query text. None of it needs invalidation logic — the
// whole bundle is dropped when the database generation moves.
type snapshot struct {
	view *waldo.ReadView
	g    *graph.Graph
	memo *graph.SharedMemo

	mu      sync.Mutex
	plans   map[string]*pql.Plan
	results map[string]*queryResult
}

// queryResult is one cached query outcome on a snapshot.
type queryResult struct {
	cols    []string
	rows    [][]Value
	elapsed int64 // µs spent computing it (cache hits report the original)
}

// currentSnapshot returns the snapshot cache for the database's current
// generation, pinning a fresh view when ingestion has advanced it. The
// generation is read under snapMu so a racing ApplyBatch cannot make two
// queries replace each other's freshly built same-generation bundle.
func (s *Server) currentSnapshot() *snapshot {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	gen := s.w.DB.Gen()
	if s.snap == nil || s.snap.view.Gen() != gen {
		view := s.w.DB.ReadView()
		g := graph.New(view)
		s.snap = &snapshot{
			view:    view,
			g:       g,
			memo:    g.NewSharedMemo(),
			plans:   make(map[string]*pql.Plan),
			results: make(map[string]*queryResult),
		}
	}
	return s.snap
}

// maxCachedQueries bounds each snapshot's plan and result maps: a
// long-lived generation (a static database with no ingestion never moves
// it) must not grow server memory without bound under a many-distinct-
// query workload. Past the cap, queries still execute — they just stop
// populating the caches.
const maxCachedQueries = 1024

// plan returns the cached plan for src, parsing and planning on first use.
func (sn *snapshot) plan(src string) (*pql.Plan, error) {
	sn.mu.Lock()
	p, ok := sn.plans[src]
	sn.mu.Unlock()
	if ok {
		return p, nil
	}
	q, err := pql.Parse(src)
	if err != nil {
		return nil, err
	}
	p = pql.PlanQuery(q)
	sn.mu.Lock()
	if len(sn.plans) < maxCachedQueries {
		sn.plans[src] = p
	}
	sn.mu.Unlock()
	return p, nil
}

func (sn *snapshot) cachedResult(src string) (*queryResult, bool) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	r, ok := sn.results[src]
	return r, ok
}

func (sn *snapshot) storeResult(src string, r *queryResult) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	if len(sn.results) < maxCachedQueries {
		sn.results[src] = r
	}
}

// Serve starts a daemon over w's database and returns once the listener is
// bound. The returned server is live: connect with Dial(srv.Addr()).
func Serve(w *waldo.Waldo, cfg Config) (*Server, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers < 2 {
		cfg.Workers = 2
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.Workers
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 5 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 30 * time.Second
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, err
		}
	}
	if cfg.CheckpointInterval <= 0 {
		cfg.CheckpointInterval = 30 * time.Second
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 1024
	}
	s := &Server{
		cfg:     cfg,
		w:       w,
		ln:      ln,
		reg:     newRegistry(w),
		workers: make(chan struct{}, cfg.Workers),
		conns:   make(map[net.Conn]struct{}),
	}
	s.met = newServerMetrics(s)
	s.health = health.New()
	s.tenants = newTenantTable(cfg.TenantQuotas)
	if p := cfg.Replicate; p != nil {
		// A primary that cannot reach its write quorum refuses every
		// durable ack, so it should stop receiving write traffic — a
		// readiness concern, never a liveness one (restarting it would not
		// bring the followers back).
		s.health.AddReadiness("quorum", func() error {
			connected := 1 // the primary itself
			for _, f := range p.Followers() {
				if f.Connected {
					connected++
				}
			}
			if q := p.Quorum(); connected < q {
				return fmt.Errorf("%d of %d quorum members reachable", connected, q)
			}
			return nil
		})
	}
	if cfg.Recovered != nil && cfg.Recovered.DB != nil {
		// The recovered generation is the implicit first checkpoint: the
		// record trigger counts ingestion since it, not since zero.
		s.lastCkptGen.Store(cfg.Recovered.Gen)
		s.lastCkptRecords.Store(cfg.Recovered.Records)
	}
	if err := s.startAdmin(); err != nil {
		ln.Close()
		return nil, err
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if cfg.Checkpoints != nil {
		s.stopCkpt = make(chan struct{})
		s.wg.Add(1)
		go s.checkpointLoop()
	}
	// Recovery is done, the listeners are bound: the daemon is ready for
	// traffic (readiness checks such as quorum still gate /readyz).
	s.health.SetReady(true)
	return s, nil
}

// checkpointLoop is the background checkpointer: it polls at a fraction of
// the interval so the records-applied trigger reacts promptly, and writes
// a generation when either trigger fires. Errors are counted and retried
// at the next tick — a failing disk must not take the serving layer down.
func (s *Server) checkpointLoop() {
	defer s.wg.Done()
	poll := s.cfg.CheckpointInterval / 10
	if poll < 50*time.Millisecond {
		poll = 50 * time.Millisecond
	}
	if poll > 5*time.Second {
		poll = 5 * time.Second
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	last := time.Now()
	for {
		select {
		case <-s.stopCkpt:
			return
		case <-ticker.C:
		}
		due := time.Since(last) >= s.cfg.CheckpointInterval
		if !due && s.cfg.CheckpointEvery > 0 {
			records, _, _ := s.w.DB.Stats()
			due = records-s.lastCkptRecords.Load() >= s.cfg.CheckpointEvery
		}
		if !due {
			continue
		}
		s.doCheckpoint()
		last = time.Now()
	}
}

// doCheckpoint writes one checkpoint generation if the database has moved
// since the last one. It is shared by the background loop, the
// "checkpoint" verb and the final flush in Close.
func (s *Server) doCheckpoint() (checkpoint.Info, error) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	// Cheap idle check first: pinning a cut bumps the store's write epoch
	// (forcing the ingest writer to re-clone nodes) and takes every tail
	// lock — not worth it just to discover nothing changed.
	if gen := s.w.DB.Gen(); gen == s.lastCkptGen.Load() {
		return checkpoint.Info{Gen: gen, Records: s.lastCkptRecords.Load()}, nil
	}
	st := s.w.CheckpointState()
	if st.Gen == s.lastCkptGen.Load() {
		return checkpoint.Info{Gen: st.Gen, Records: st.Records}, nil
	}
	info, err := s.cfg.Checkpoints.Write(st, checkpoint.Policy{FullEvery: s.cfg.CheckpointFullEvery})
	if err != nil {
		s.checkpointErrors.Add(1)
		return info, err
	}
	s.checkpoints.Add(1)
	if info.Kind == checkpoint.KindDelta {
		s.checkpointDeltas.Add(1)
		s.checkpointDeltaBytes.Add(info.SnapshotBytes)
	} else {
		s.checkpointFullBytes.Add(info.SnapshotBytes)
	}
	if info.SweepErr != nil {
		// The generation committed; only the retention sweep failed.
		s.checkpointSweepErrors.Add(1)
	}
	s.lastCkptGen.Store(info.Gen)
	s.lastCkptRecords.Store(info.Records)
	s.lastCkptUnixNano.Store(time.Now().UnixNano())
	if t := s.cfg.Tamper; t != nil && t.SaveState != nil {
		// The generation committed; only persisting the MMR peak snapshot
		// failed. That is housekeeping lag, not checkpoint failure — the
		// next boot falls back to rebuilding the range from the log.
		if serr := t.SaveState(); serr != nil {
			s.checkpointSweepErrors.Add(1)
		}
	}
	return info, nil
}

// Addr returns the bound listen address, for clients.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes every open connection, waits for all
// connection handlers to return and — when checkpointing is enabled —
// writes a final checkpoint, so a cleanly stopped daemon restarts from the
// tip with nothing to replay. It is idempotent.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.health.SetReady(false)
	if s.admin != nil {
		s.admin.Close() // also closes the admin listener
	}
	if s.stopCkpt != nil {
		close(s.stopCkpt)
	}
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if s.cfg.Checkpoints != nil {
		if _, cerr := s.doCheckpoint(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// connState is the per-connection DPAPI residue: the wire handles this
// connection has opened. Handles are connection-scoped (a disconnect
// releases them all — the object and its provenance survive in the
// registry, revivable from any later connection) and touched only by the
// connection's own goroutine, so no lock is needed.
type connState struct {
	handles map[uint64]*serverObject
	next    uint64

	// tenant is the connection's tenant identity, set by a hello carrying
	// one. Written only by the connection's reader goroutine, and read
	// only there too (the reader resolves each request's effective tenant
	// before fanning it out), so no lock is needed.
	tenant string
}

// open registers an object and returns its wire handle. Handles start at 1
// so 0 can mean "no handle" (the handle-less write path) on the wire.
func (cs *connState) open(obj *serverObject) uint64 {
	if cs.handles == nil {
		cs.handles = make(map[uint64]*serverObject)
	}
	cs.next++
	cs.handles[cs.next] = obj
	return cs.next
}

// lookup resolves a wire handle: dpapi.ErrClosed for a handle this
// connection closed, a plain error for one it never opened.
func (cs *connState) lookup(h uint64) (*serverObject, error) {
	obj, ok := cs.handles[h]
	if !ok {
		return nil, fmt.Errorf("passd: unknown handle %d", h)
	}
	if obj == nil {
		return nil, dpapi.ErrClosed
	}
	return obj, nil
}

// maxHelloBytes is the read budget for the one JSON line a connection
// opens with — the size of the pooled reader's buffer, so the line is
// bounded before anything is allocated for it. An over-budget line is
// refused with codeTooLarge before the connection closes: the client gets
// a machine-readable reason instead of a silent drop.
const maxHelloBytes = 64 << 10

// connReaderPool recycles per-connection read buffers: connection churn
// (a swarm of short-lived clients) must not allocate a fresh 64 KiB
// buffer per accept.
var connReaderPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, maxHelloBytes) },
}

// handle serves one connection: one JSON hello line, answered once, then
// binary frames (serveFrames) until either side closes. Anything else on
// the first line is refused with a coded reply and a close.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	cs := &connState{}
	defer func() {
		// Disconnect releases this connection's handles; the objects and
		// their provenance stay in the registry/database, revivable.
		for _, obj := range cs.handles {
			if obj != nil {
				s.reg.release(obj)
			}
		}
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := connReaderPool.Get().(*bufio.Reader)
	br.Reset(conn)
	defer func() {
		br.Reset(nil) // drop the conn reference before pooling
		connReaderPool.Put(br)
	}()
	if s.handshake(conn, br, cs) {
		s.serveFrames(conn, br, cs)
	}
}

// handshake reads the connection's opening line and answers it, reporting
// whether the connection may go on to frames. A well-formed hello runs
// through serve like any request — counted per verb, admitted against its
// tenant's quota — and a refused one (over quota) ends the connection just
// as a malformed one does: one line, one reply.
func (s *Server) handshake(conn net.Conn, br *bufio.Reader, cs *connState) bool {
	line, err := br.ReadSlice('\n')
	var resp Response
	switch {
	case errors.Is(err, bufio.ErrBufferFull):
		resp = Response{
			Error: fmt.Sprintf("hello line exceeds the %d-byte budget", maxHelloBytes),
			Code:  codeTooLarge,
		}
	case err != nil && len(line) == 0:
		return false // the peer left without saying anything
	default:
		req, refusal := parseHello(line)
		if refusal != nil {
			resp = *refusal
			break
		}
		resolveTenant(cs, req)
		resp = s.serve(cs, verbFor(req.Op), req, laneSerial, len(line))
	}
	b, merr := json.Marshal(&resp)
	if merr != nil {
		return false
	}
	if _, err := conn.Write(append(b, '\n')); err != nil {
		return false
	}
	if !resp.OK {
		// The refusal must reach a peer that is still mid-send (a v1 client
		// pipelining lines, the rest of an over-budget one).
		drainBeforeClose(conn, br)
	}
	return resp.OK
}

// parseHello decodes a connection's opening line: the hello request, or
// the coded refusal to send instead. Only a hello offering protocol ≥3
// passes — a v1 verb, a hello from a v2 client and plain garbage all get
// codeUnsupported, because the peer cannot be assumed to read frames.
func parseHello(line []byte) (*Request, *Response) {
	var req Request
	if json.Unmarshal(line, &req) != nil || !strings.EqualFold(req.Op, "hello") || req.Version < ProtocolVersion {
		return nil, &Response{
			Error: fmt.Sprintf(`this daemon speaks protocol v%d only: open with {"op":"hello","v":%d}, then binary frames`, ProtocolVersion, ProtocolVersion),
			Code:  codeUnsupported,
		}
	}
	return &req, nil
}

// outFrame is one response queued for the connection's writer goroutine.
type outFrame struct {
	stream uint32
	resp   Response
}

// serveFrames serves one connection past its hello: a reader loop (this
// goroutine) decodes request frames and fans them out, a single writer
// goroutine serializes response frames (chunking large ones), and two
// dispatch lanes run the work — a serial lane keeping stateful verbs in
// arrival order, and per-request goroutines for concurrent-safe verbs
// (verbSpec.serial draws the line), which still pass through the worker
// pool's global backpressure. A per-connection in-flight cap
// (Config.MaxInFlight) refuses further requests with ErrOverloaded instead
// of reading unboundedly ahead.
func (s *Server) serveFrames(conn net.Conn, br *bufio.Reader, cs *connState) {
	s.v3Conns.Add(1)
	defer s.v3Conns.Add(-1)

	out := make(chan outFrame, 64)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriterSize(conn, 64<<10)
		sc := getFrameScratch()
		defer putFrameScratch(sc)
		dead := false
		for m := range out {
			if dead {
				continue // drain so producers never block on a dead conn
			}
			if err := writeResponseFrames(bw, m.stream, &m.resp, sc); err != nil {
				dead = true
				conn.Close() // unblocks the reader loop too
				continue
			}
			// Flush when no more responses are immediately queued: one
			// syscall covers however many responses were ready.
			if len(out) == 0 {
				if err := bw.Flush(); err != nil {
					dead = true
					conn.Close()
				}
			}
		}
		if !dead {
			bw.Flush()
		}
	}()

	type frameJob struct {
		stream uint32
		wire   int
		verb   *verbSpec
		req    *Request
	}
	var inflight atomic.Int64
	serialQ := make(chan frameJob, 64)
	serialDone := make(chan struct{})
	go func() {
		defer close(serialDone)
		for j := range serialQ {
			resp := s.serve(cs, j.verb, j.req, laneSerial, j.wire)
			out <- outFrame{j.stream, resp}
			inflight.Add(-1)
		}
	}()

	var wg sync.WaitGroup
	refused := false
	for {
		h, err := readFrameHeader(br)
		if err != nil {
			if errors.Is(err, errFrameTooLarge) {
				out <- outFrame{h.stream, Response{
					Error: fmt.Sprintf("frame payload of %d bytes exceeds the %d-byte budget; split the request", h.length, maxFramePayload),
					Code:  codeTooLarge,
				}}
				refused = true
			}
			break
		}
		payload, err := readFramePayload(br, h)
		if err != nil {
			break
		}
		if h.kind != frameRequest || h.flags&flagMore != 0 {
			// Requests are single frames; anything else means the peer
			// and we disagree about the protocol — stop before
			// misinterpreting the stream.
			out <- outFrame{h.stream, Response{Error: "bad frame: requests are single request-kind frames"}}
			break
		}
		req, _, derr := decodeRequestPayload(payload, 0)
		if derr != nil {
			// The frame boundary held, so the stream is still in sync:
			// refuse this request and keep serving.
			out <- outFrame{h.stream, Response{Error: "bad request: " + derr.Error()}}
			continue
		}
		resolveTenant(cs, req)
		if inflight.Add(1) > int64(s.cfg.MaxInFlight) {
			inflight.Add(-1)
			s.met.shed.With(laneConn).Inc()
			resp := errResponse(fmt.Errorf("overloaded: connection has %d requests in flight: %w", s.cfg.MaxInFlight, ErrOverloaded))
			out <- outFrame{h.stream, resp}
			continue
		}
		verb := verbFor(req.Op)
		if verb.serial {
			serialQ <- frameJob{h.stream, h.length, verb, req}
			continue
		}
		wg.Add(1)
		go func(stream uint32, wire int, verb *verbSpec, req *Request) {
			defer wg.Done()
			resp := s.serve(cs, verb, req, laneConcurrent, wire)
			out <- outFrame{stream, resp}
			inflight.Add(-1)
		}(h.stream, h.length, verb, req)
	}
	// Teardown: the writer keeps consuming until both lanes finish, so
	// no in-flight dispatch can block on a full out channel.
	wg.Wait()
	close(serialQ)
	<-serialDone
	close(out)
	<-writerDone
	if refused {
		drainBeforeClose(conn, br)
	}
}

// drainBeforeClose briefly consumes whatever the peer already sent after
// a refusal, so closing the socket with unread bytes in the receive
// buffer does not turn into a TCP reset that clobbers the refusal before
// the peer reads it. Bounded by a short deadline — a peer that keeps
// streaming just gets cut off.
func drainBeforeClose(conn net.Conn, br *bufio.Reader) {
	conn.SetReadDeadline(time.Now().Add(250 * time.Millisecond))
	io.Copy(io.Discard, br)
}

// ConnCount reports currently open client connections.
func (s *Server) ConnCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Dispatch lanes, as the per-lane in-flight gauge and shed counters label
// them: "serial" and "concurrent" are a connection's two execution lanes
// (the handshake hello counts as serial), "queue" is the worker pool's
// wait queue and "conn" the per-connection in-flight cap (the last two
// only shed, they never execute).
const (
	laneSerial     = "serial"
	laneConcurrent = "concurrent"
	laneQueue      = "queue"
	laneConn       = "conn"
)

// resolveTenant pins req's effective tenant before fan-out: a hello
// carrying one renames the connection, and any other request inherits the
// connection's tenant unless it names its own. Must run on the
// connection's reader goroutine — connState.tenant is unsynchronized by
// design (see connState).
func resolveTenant(cs *connState, req *Request) {
	if req.Tenant != "" && strings.EqualFold(req.Op, "hello") {
		cs.tenant = req.Tenant
	}
	if req.Tenant == "" {
		req.Tenant = cs.tenant
	}
}

// serve runs one decoded request through the full instrumented serving
// path: tenant quota admission first (an over-quota request is refused
// with the "quota" code before anything executes or counts as served),
// then per-verb request/latency/error accounting and the per-lane
// in-flight gauge around the verb's handler and, for a verb that commits,
// the durable-ack barrier. wireBytes is the request's encoded size on the
// wire — the unit the staged-bytes/sec tenant quota charges for
// record-staging verbs. Every execution lane funnels through here, so
// /metrics, STATS and the wire all describe the same requests.
func (s *Server) serve(cs *connState, verb *verbSpec, req *Request, lane string, wireBytes int) Response {
	release, err := s.admitTenant(req.Tenant, verb, wireBytes)
	if err != nil {
		return errResponse(err)
	}
	defer release()
	s.met.requests.With(verb.name).Inc()
	s.met.inflight.With(lane).Add(1)
	start := time.Now()
	resp := verb.handler(s, cs, req)
	// Single-op requests carry their own durable acknowledgment; batches
	// defer it to one Sync for the whole pipeline.
	if resp.Error == "" && verb.commits {
		if err := s.ackDurable(); err != nil {
			resp = errResponse(err)
		}
	}
	s.met.latency.With(verb.name).Observe(time.Since(start).Seconds())
	s.met.inflight.With(lane).Add(-1)
	if resp.Error != "" {
		s.met.requestErrors.With(verb.name).Inc()
	}
	resp.OK = resp.Error == ""
	return resp
}

func (s *Server) doPing(*connState, *Request) Response { return Response{} }

func (s *Server) doStats(*connState, *Request) Response {
	return Response{Stats: s.snapshotStats()}
}

// doReplJoin registers an announcing follower on a replication primary.
// Joining is idempotent, so followers re-announce on a timer and survive
// primary restarts (the restarted primary learns its followers from the
// next round of announcements).
func (s *Server) doReplJoin(_ *connState, req *Request) Response {
	if s.cfg.Replicate == nil {
		return Response{Error: "repljoin: this daemon is not a replication primary"}
	}
	if req.Addr == "" {
		return Response{Error: "repljoin: missing follower address"}
	}
	s.cfg.Replicate.Join(req.Addr)
	return Response{}
}

// doReplState reports the follower's durable replicated log size — the
// offset the primary resumes streaming from.
func (s *Server) doReplState(*connState, *Request) Response {
	if s.cfg.Follower == nil {
		return Response{Error: "replstate: this daemon is not a replication follower"}
	}
	return Response{ReplSize: s.cfg.Follower.Size()}
}

// doReplAppend applies a chunk of the primary's log bytes durably, then
// drains it into the database so a replicated record is queryable here
// the moment the primary's ack covers it. A chunk may end mid-frame; the
// drain ingests the intact prefix and the torn tail completes on the next
// chunk (waldo tolerates a torn active tail by design).
func (s *Server) doReplAppend(_ *connState, req *Request) Response {
	if s.cfg.Follower == nil {
		return Response{Error: "replappend: this daemon is not a replication follower"}
	}
	// Fork detection runs BEFORE the durable append: a chunk whose
	// claimed MMR root disagrees with the root recomputed over the same
	// bytes must leave the follower's log untouched, or the divergence
	// would already be durable by the time it is detected.
	if err := s.checkFork(req); err != nil {
		return errResponse(err)
	}
	size, err := s.cfg.Follower.Append(req.Off, req.Data)
	if err != nil {
		resp := errResponse(err)
		resp.ReplSize = size
		return resp
	}
	if err := s.w.Drain(); err != nil {
		return errResponse(err)
	}
	return Response{ReplSize: size}
}

// errResponse renders an availability failure with its machine-readable
// code, so clients classify retryability without parsing error strings.
func errResponse(err error) Response {
	resp := Response{Error: err.Error()}
	switch {
	case errors.Is(err, ErrOverloaded):
		resp.Code = codeOverloaded
	case errors.Is(err, ErrUnavailable):
		resp.Code = codeUnavail
	case errors.Is(err, ErrReadOnly):
		resp.Code = codeReadOnly
	case errors.Is(err, ErrQuotaExceeded):
		resp.Code = codeQuota
	case errors.Is(err, replica.ErrGap):
		resp.Code = codeGap
	case errors.Is(err, ErrForked):
		resp.Code = codeForked
	}
	return resp
}

// doHello answers the handshake and describes the server's DPAPI surface:
// the one protocol version it speaks and the volume prefix remote phantom
// identities come from. A hello re-sent on a framed connection just
// reports the same again.
func (s *Server) doHello(*connState, *Request) Response {
	return Response{Version: ProtocolVersion, Volume: DefaultObjectVolume}
}

// The DPAPI handlers below each run one op against the connection's handle
// table. They stage record commits but never call the durable-ack barrier
// — the caller does, once per request (serve for single ops, doBatch once
// for a whole pipeline).

func (s *Server) doMkobj(cs *connState, _ *Request) Response {
	s.mkobjs.Add(1)
	obj := s.reg.mkobj()
	ref := obj.Ref()
	// A daemon with a durable log persists the allocation itself: after a
	// crash the registry reseeds its allocator from the database, and an
	// acknowledged identity that left no record would otherwise be
	// re-issued to a different object. An ephemeral (memory-backed) daemon
	// has no restart to survive, so it stages nothing.
	if s.cfg.Append != nil {
		if err := s.stageRecords([]record.Record{record.New(ref, AttrMkobj, record.Int(1))}); err != nil {
			// The client never receives the handle: give back the reference
			// mkobj took so the stillborn entry is not pinned forever.
			s.reg.release(obj)
			return Response{Error: err.Error()}
		}
	}
	return Response{Handle: cs.open(obj), P: uint64(ref.PNode), Ver: uint32(ref.Version)}
}

func (s *Server) doRevive(cs *connState, req *Request) Response {
	s.revives.Add(1)
	obj, err := s.reg.revive(pnode.Ref{PNode: pnode.PNode(req.P), Version: pnode.Version(req.Ver)})
	if err != nil {
		return dpapiError(err)
	}
	ref := obj.Ref()
	return Response{Handle: cs.open(obj), P: uint64(ref.PNode), Ver: uint32(ref.Version)}
}

func (s *Server) doRead(cs *connState, req *Request) Response {
	obj, err := cs.lookup(req.Handle)
	if err != nil {
		return dpapiError(err)
	}
	data, ref := obj.readAt(req.Len, req.Off)
	return Response{N: len(data), Data: data, P: uint64(ref.PNode), Ver: uint32(ref.Version)}
}

func (s *Server) doFreeze(cs *connState, req *Request) Response {
	obj, err := cs.lookup(req.Handle)
	if err != nil {
		return dpapiError(err)
	}
	newRef, chain, err := s.reg.an.Freeze(obj)
	if err != nil {
		return dpapiError(err)
	}
	if err := s.stageRecords([]record.Record{chain}); err != nil {
		return Response{Error: err.Error()}
	}
	return Response{Ver: uint32(newRef.Version)}
}

// doSync is pass_sync: every disclosed record was committed at write time,
// so it only has to force the backlog onto stable storage, which the
// caller's durable-ack barrier does.
func (s *Server) doSync(cs *connState, req *Request) Response {
	if _, err := cs.lookup(req.Handle); err != nil {
		return dpapiError(err)
	}
	return Response{}
}

func (s *Server) doClose(cs *connState, req *Request) Response {
	obj, err := cs.lookup(req.Handle)
	if err != nil {
		return dpapiError(err)
	}
	// Tombstone, not delete: later ops on this handle are ErrClosed, and
	// the object itself stays revivable (§6.5).
	cs.handles[req.Handle] = nil
	s.reg.release(obj)
	return Response{}
}

// doWrite is pass_write on the wire: a record bundle and a data buffer
// applied as one unit, records first (the WAP ordering Lasagna enforces
// locally). Handle 0 is the handle-less disclose path — records are
// committed raw, with no analyzer pass, because they come from a layer
// that has already analyzed them (the distributor's materialization sink
// lands here).
func (s *Server) doWrite(cs *connState, req *Request) Response {
	recs := req.recs
	if req.Handle == 0 {
		if len(req.Data) > 0 {
			return Response{Error: "passd: handle-less write cannot carry data"}
		}
		if err := s.stageRecords(recs); err != nil {
			return Response{Error: err.Error()}
		}
		return Response{Appended: int64(len(recs))}
	}
	obj, err := cs.lookup(req.Handle)
	if err != nil {
		return dpapiError(err)
	}
	// Validate the data span before anything stages: pass_write is one
	// unit, so a write whose data cannot be applied must not commit its
	// records either.
	if err := checkDataSpan(len(req.Data), req.Off); err != nil {
		return Response{Error: err.Error()}
	}
	processed, subjects, err := s.reg.process(recs)
	if err != nil {
		return dpapiError(err)
	}
	if err := s.stageRecords(processed); err != nil {
		return Response{Error: err.Error()}
	}
	// Bundle subjects we only held for this write (no wire handle) have
	// served their purpose once their records are committed.
	s.reg.sweepZeroHandle(subjects)
	n, err := obj.writeData(req.Data, req.Off)
	if err != nil {
		return Response{Error: err.Error()}
	}
	// Report the object's identity after the write: processing the bundle
	// may have frozen it (cycle avoidance), and the client-side handle
	// must see the same version a local handle would.
	ref := obj.Ref()
	return Response{N: n, Appended: int64(len(processed)), P: uint64(ref.PNode), Ver: uint32(ref.Version)}
}

// doBatch executes a pipeline of DPAPI ops in order, then acknowledges
// once, durably. Each op gets its own Response slot (an op failure does
// not abort the rest — the client sees exactly which ops failed), but the
// outer acknowledgment covers every staged record with a single Sync:
// this is the round-trip/fsync amortization passbench -disclose measures.
func (s *Server) doBatch(cs *connState, req *Request) Response {
	s.batches.Add(1)
	resp := Response{Ops: make([]Response, 0, len(req.Ops))}
	commits := false
	for i := range req.Ops {
		op := &req.Ops[i]
		var r Response
		if verb := verbFor(op.Op); verb.batchable {
			commits = commits || verb.commits
			r = verb.handler(s, cs, op)
		} else if verb.name == "batch" {
			r = Response{Error: "passd: batches do not nest"}
		} else {
			r = Response{Error: fmt.Sprintf("op %q is not a DPAPI verb", op.Op)}
		}
		r.OK = r.Error == ""
		resp.Ops = append(resp.Ops, r)
	}
	// Read-only pipelines (reads, revives, closes) stage nothing and owe
	// no fsync; mirror the single-op path in serve.
	if commits {
		if err := s.ackDurable(); err != nil {
			return errResponse(err)
		}
	}
	return resp
}

// stageRecords is the single commit path for provenance arriving over the
// wire — DPAPI writes, freezes and batches all pass through it. Records go to the backing log (Config.Append) when the
// daemon owns one, else straight into the database. Durability is the
// caller's ackDurable barrier, so a pipelined batch pays one Sync total.
func (s *Server) stageRecords(recs []record.Record) error {
	if len(recs) == 0 {
		return nil
	}
	// Whatever path an identity takes into the store, the registry's
	// allocator must never re-issue it.
	s.reg.observeRecords(recs)
	if s.cfg.Append != nil {
		if err := s.cfg.Append(recs); err != nil {
			return err
		}
	} else {
		s.w.DB.ApplyBatch(recs)
	}
	s.appends.Add(int64(len(recs)))
	return nil
}

// ackDurable is the durable-ack barrier: after it returns, everything
// stageRecords accepted is on stable storage — and, on a replication
// primary, durably held by the write quorum — and may be acknowledged. A
// quorum miss refuses the ack with ErrUnavailable rather than downgrading
// it: the records are safe on the primary's disk, but the promise an ack
// makes here is that they survive the primary's machine too.
func (s *Server) ackDurable() error {
	if s.cfg.Sync != nil {
		if err := s.cfg.Sync(); err != nil {
			return err
		}
	}
	if p := s.cfg.Replicate; p != nil {
		size, err := p.SourceSize()
		if err != nil {
			return err
		}
		start := time.Now()
		err = p.Commit(size)
		s.met.replCommit.Observe(time.Since(start).Seconds())
		if err != nil {
			s.quorumFailures.Add(1)
			return fmt.Errorf("%w (%v)", ErrUnavailable, err)
		}
	}
	return nil
}

// dpapiError renders a DPAPI failure with its machine-readable code so
// the client can reconstruct the dpapi sentinel error.
func dpapiError(err error) Response {
	resp := Response{Error: err.Error()}
	switch {
	case errors.Is(err, dpapi.ErrStale):
		resp.Code = codeStale
	case errors.Is(err, dpapi.ErrWrongLayer):
		resp.Code = codeWrongLayer
	case errors.Is(err, dpapi.ErrClosed):
		resp.Code = codeClosed
	case errors.Is(err, dpapi.ErrNotPassVolume):
		resp.Code = codeNotPass
	}
	return resp
}

// acquireWorker takes a worker slot, shedding load when the wait queue is
// full. The returned release func is nil when the query was shed.
func (s *Server) acquireWorker() func() {
	if s.waiting.Add(1) > int64(s.cfg.MaxQueue) {
		s.waiting.Add(-1)
		s.met.shed.With(laneQueue).Inc()
		return nil
	}
	s.workers <- struct{}{}
	s.waiting.Add(-1)
	return func() { <-s.workers }
}

func (s *Server) doQuery(_ *connState, req *Request) Response {
	s.queries.Add(1)
	// The heart of the serving layer: pin (or reuse) a snapshot of the
	// database and answer from it lock-free. Ingestion keeps running; this
	// query cannot see or cause a torn state. Because the snapshot is
	// immutable, everything derived from it — plans, traversal memo,
	// finished results — is shared across queries until ingestion moves
	// the generation, at which point the whole bundle is dropped. A
	// finished result costs no execution, so a hit is answered before
	// admission instead of queueing for a worker behind running scans.
	if r, ok := s.currentSnapshot().cachedResult(req.Query); ok {
		s.cacheHits.Add(1)
		return Response{Columns: r.cols, Rows: r.rows, Elapsed: r.elapsed}
	}
	release := s.acquireWorker()
	if release == nil {
		return errResponse(fmt.Errorf("overloaded: %w", ErrOverloaded))
	}
	defer release()

	// Checked again with the slot held: the generation may have moved, or
	// an identical query ahead in the queue may have stored its result.
	sn := s.currentSnapshot()
	if r, ok := sn.cachedResult(req.Query); ok {
		s.cacheHits.Add(1)
		return Response{Columns: r.cols, Rows: r.rows, Elapsed: r.elapsed}
	}
	s.cacheMisses.Add(1)

	plan, err := sn.plan(req.Query)
	if err != nil {
		s.queryErrors.Add(1)
		return Response{Error: err.Error()}
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()

	start := time.Now()
	res, err := plan.ExecuteWith(ctx, sn.g, sn.memo)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			s.timeouts.Add(1)
			return Response{Error: fmt.Sprintf("timeout: query exceeded %v", timeout)}
		}
		s.queryErrors.Add(1)
		return Response{Error: err.Error()}
	}
	cols, rows := encodeResult(res)
	r := &queryResult{cols: cols, rows: rows, elapsed: time.Since(start).Microseconds()}
	sn.storeResult(req.Query, r)
	return Response{Columns: r.cols, Rows: r.rows, Elapsed: r.elapsed}
}

func (s *Server) doExplain(_ *connState, req *Request) Response {
	q, err := pql.Parse(req.Query)
	if err != nil {
		return Response{Error: err.Error()}
	}
	return Response{Plan: pql.PlanQuery(q).Describe()}
}

func (s *Server) doDrain(*connState, *Request) Response {
	s.drains.Add(1)
	if err := s.w.Drain(); err != nil {
		return Response{Error: err.Error()}
	}
	records, _, _ := s.w.DB.Stats()
	return Response{Records: records}
}

// doCheckpointVerb forces a checkpoint now, regardless of triggers.
func (s *Server) doCheckpointVerb(*connState, *Request) Response {
	if s.cfg.Checkpoints == nil {
		return Response{Error: "checkpointing disabled (no checkpoint store configured)"}
	}
	info, err := s.doCheckpoint()
	if err != nil {
		return Response{Error: err.Error()}
	}
	return Response{Checkpoint: &CheckpointInfo{
		Gen:           info.Gen,
		Kind:          info.Kind.String(),
		Records:       info.Records,
		SnapshotBytes: info.SnapshotBytes,
	}}
}

func (s *Server) snapshotStats() *Stats {
	// DB.Stats reads the same counters the view would pin, without bumping
	// the store's write epoch (a view taken here would force the ingest
	// writer to re-clone every node it touches next batch, for nothing).
	records, prov, idx := s.w.DB.Stats()
	st := &Stats{
		Records:     records,
		ProvBytes:   prov,
		IdxBytes:    idx,
		Queries:     s.queries.Load(),
		QueryErrors: s.queryErrors.Load(),
		Timeouts:    s.timeouts.Load(),
		Shed:        s.met.shed.Total(),
		Drains:      s.drains.Load(),
		Conns:       int64(s.ConnCount()),
		V3Conns:     s.v3Conns.Load(),
		Workers:     s.cfg.Workers,
		CacheHits:   s.cacheHits.Load(),
		CacheMisses: s.cacheMisses.Load(),

		Gen:            s.w.DB.Gen(),
		EntriesDecoded: s.w.EntriesDecoded(),

		Checkpoints:           s.checkpoints.Load(),
		CheckpointErrors:      s.checkpointErrors.Load(),
		LastCheckpointGen:     s.lastCkptGen.Load(),
		CheckpointDeltas:      s.checkpointDeltas.Load(),
		CheckpointFullBytes:   s.checkpointFullBytes.Load(),
		CheckpointDeltaBytes:  s.checkpointDeltaBytes.Load(),
		CheckpointSweepErrors: s.checkpointSweepErrors.Load(),
		Appends:               s.appends.Load(),

		Mkobjs:  s.mkobjs.Load(),
		Revives: s.revives.Load(),
		Batches: s.batches.Load(),
		Objects: s.reg.count(),

		Verbs:         s.met.verbCounts(),
		QuotaRefusals: s.met.quotaRefused.Total(),
		Tenants:       s.met.tenantSnapshot(),
	}
	if p := s.cfg.Replicate; p != nil {
		st.Role = "primary"
		st.ReplQuorum = p.Quorum()
		st.QuorumFailures = s.quorumFailures.Load()
		var connected int64
		followers := p.Followers()
		for _, f := range followers {
			if f.Connected {
				connected++
			}
		}
		st.ReplFollowers = int64(len(followers))
		st.ReplConnected = connected
	}
	if s.cfg.Follower != nil {
		st.Role = "follower"
		st.ReplBytes = s.cfg.Follower.Size()
	}
	if r := s.cfg.Recovered; r != nil && r.DB != nil {
		st.RecoveredGen = r.Gen
		st.RecoveredRecords = r.Records
		st.ResumeBytes = r.ResumeBytes()
	}
	if r := s.cfg.Recovered; r != nil {
		st.SkippedGens = int64(len(r.Skipped))
		if len(r.Skipped) > 0 {
			st.RecoverySkips = make(map[string]int64, len(r.Skipped))
			for _, sk := range r.Skipped {
				st.RecoverySkips[skipClass(sk.Class)]++
			}
		}
	}
	if t := s.cfg.Tamper; t != nil {
		m := t.MMR()
		root := m.Root()
		st.MMRLeaves = m.Count()
		st.MMRRoot = hex.EncodeToString(root[:])
		st.MMRPruned = m.Pruned()
	}
	st.ForkRefusals = s.forkRefusals.Load()
	st.Verifies = s.verifies.Load()
	return st
}

// skipClass normalizes a recovery skip's class label for the bounded
// label sets STATS and /metrics share (pre-classification generations
// recorded no class).
func skipClass(c string) string {
	if c == "" {
		return checkpoint.SkipOther
	}
	return c
}
