package passd

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"passv2/internal/netfault"
	"passv2/internal/pnode"
	"passv2/internal/record"
	"passv2/internal/replica"
)

// replNode is one in-process daemon of a replicated group, with a netfault
// control block between it and its clients.
type replNode struct {
	srv *Server
	flt *netfault.Faults
	dir string // the daemon's log directory
}

// replPeerDial is how test primaries reach their followers: short
// timeouts and fast reconnects, so fault tests settle in milliseconds.
var replPeerDial = DaemonConfig{
	PeerDial:      Options{DialTimeout: time.Second, RequestTimeout: 2 * time.Second, RetryBase: 5 * time.Millisecond},
	PeerRetryBase: 10 * time.Millisecond,
	PeerRetryMax:  200 * time.Millisecond,
}

// openReplNode opens a daemon over a fresh on-disk log directory with a
// netfault listener in front of it, closed when the test ends.
func openReplNode(t *testing.T, cfg DaemonConfig) (*replNode, *Daemon) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flt := netfault.New()
	cfg.Listener = flt.Listener(ln)
	cfg.LogDir = t.TempDir()
	d, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return &replNode{srv: d.Server, flt: flt, dir: cfg.LogDir}, d
}

// startReplPrimary opens a replication primary over a real on-disk log,
// through the constructor cmd/passd -replicate uses.
func startReplPrimary(t *testing.T, quorum int, commitTimeout time.Duration) (*replNode, *replica.Primary) {
	t.Helper()
	cfg := replPeerDial
	cfg.Quorum, cfg.CommitTimeout = quorum, commitTimeout
	n, d := openReplNode(t, cfg)
	return n, d.Primary
}

// startReplFollower opens a read-only follower of primary over its own
// on-disk log, exactly as cmd/passd -join does. The follower announces
// itself on its own timer; callers that need it registered at once
// announce it too (repljoin is idempotent).
func startReplFollower(t *testing.T, primary string) *replNode {
	t.Helper()
	n, _ := openReplNode(t, DaemonConfig{Join: primary})
	return n
}

// closedAddr returns a loopback address nothing listens on.
func closedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// startReplGroup wires a primary and n followers together through the real
// announce path (the repljoin verb), like daemons joining over the network.
func startReplGroup(t *testing.T, quorum, followers int, commitTimeout time.Duration) (*replNode, *replica.Primary, []*replNode) {
	t.Helper()
	prim, p := startReplPrimary(t, quorum, commitTimeout)
	fs := make([]*replNode, followers)
	for i := range fs {
		fs[i] = startReplFollower(t, prim.srv.Addr())
		if err := Announce(prim.srv.Addr(), fs[i].srv.Addr(), 2*time.Second); err != nil {
			t.Fatalf("announce follower %d: %v", i, err)
		}
	}
	return prim, p, fs
}

// replRecs builds 2 records per item, mirroring the restart tests' shape.
func replRecs(lo, n int) []record.Record {
	out := make([]record.Record, 0, 2*n)
	for i := lo; i < lo+n; i++ {
		ref := pnode.Ref{PNode: pnode.PNode(i + 1), Version: 1}
		out = append(out,
			record.New(ref, record.AttrName, record.StringVal(fmt.Sprintf("/repl/%d", i))),
			record.New(ref, record.AttrType, record.StringVal(record.TypeFile)))
	}
	return out
}

func replQuery(i int) string {
	return fmt.Sprintf(`select F from Provenance.file as F where F.name = "/repl/%d"`, i)
}

// waitRows polls until a query against c returns want rows.
func waitRows(t *testing.T, c *Client, q string, want int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		res, err := c.Query(q)
		if err == nil && len(res.Rows) == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("query %q never reached %d rows (last: %v / %v)", q, want, res, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplicatedQuorumAck: with quorum 2, an acknowledged append is
// queryable on the followers — replicated bytes are drained into each
// follower's database before the follower acks, so the quorum promise is
// about queryable records, not just bytes on disk.
func TestReplicatedQuorumAck(t *testing.T) {
	prim, p, fs := startReplGroup(t, 2, 2, 2*time.Second)
	c := dialClient(t, prim.srv)

	if err := c.AppendProvenance(replRecs(0, 50)); err != nil {
		t.Fatalf("append: %v", err)
	}
	// The ack guarantees at least one follower; both catch up promptly.
	for i, f := range fs {
		fc := dialClient(t, f.srv)
		waitRows(t, fc, replQuery(49), 1)
		st, err := fc.Stats()
		if err != nil {
			t.Fatalf("follower %d stats: %v", i, err)
		}
		if st.Role != "follower" || st.ReplBytes == 0 {
			t.Fatalf("follower %d stats = role %q, repl_bytes %d", i, st.Role, st.ReplBytes)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Role != "primary" || st.ReplQuorum != 2 || st.ReplFollowers != 2 {
		t.Fatalf("primary stats = %+v; want role=primary quorum=2 followers=2", st)
	}
	if got := p.InSync(0); got != 2 {
		t.Fatalf("InSync(0) = %d followers, want 2", got)
	}
}

// TestFollowerRefusesWrites: a follower's log is a verbatim copy of the
// primary's, so every client write path — append, mkobj, disclose — is
// refused with ErrReadOnly while reads keep working.
func TestFollowerRefusesWrites(t *testing.T) {
	// No primary listens at the join address: the follower keeps
	// announcing in the background, as one whose primary is down does.
	f := startReplFollower(t, closedAddr(t))
	c := dialClient(t, f.srv)

	if err := c.AppendProvenance(replRecs(0, 1)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("append on follower: %v, want ErrReadOnly", err)
	}
	if _, err := c.PassMkobj(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("mkobj on follower: %v, want ErrReadOnly", err)
	}
	// Reads are the whole point of a follower.
	if _, err := c.Query(replQuery(0)); err != nil {
		t.Fatalf("query on follower: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping on follower: %v", err)
	}
}

// TestReplicatedGroupSurvivesFollowerKill: killing one of two followers
// leaves quorum 2 intact (primary + survivor), so writes keep being
// acknowledged; killing the second leaves the primary refusing acks with
// the retryable ErrUnavailable instead of lying about durability.
func TestReplicatedGroupSurvivesFollowerKill(t *testing.T) {
	prim, _, fs := startReplGroup(t, 2, 2, 500*time.Millisecond)
	c := dialClient(t, prim.srv)

	if err := c.AppendProvenance(replRecs(0, 20)); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	f2c := dialClient(t, fs[1].srv)
	waitRows(t, f2c, replQuery(19), 1)

	// Kill follower 0: quorum still holds via follower 1.
	fs[0].srv.Close()
	if err := c.AppendProvenance(replRecs(20, 20)); err != nil {
		t.Fatalf("append after one follower died: %v", err)
	}
	waitRows(t, f2c, replQuery(39), 1)

	// Kill follower 1 too: no follower can ack, so the primary must refuse
	// — the records are durable on its own disk, but the ack's promise is
	// that they survive the primary's machine.
	fs[1].srv.Close()
	nc, err := DialOptions(prim.srv.Addr(), Options{MaxRetries: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	if err := nc.AppendProvenance(replRecs(40, 1)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("append with no followers: %v, want ErrUnavailable", err)
	}
	st, err := nc.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.QuorumFailures < 1 {
		t.Fatalf("quorum_failures = %d, want >= 1", st.QuorumFailures)
	}
	// A retry-enabled client must NOT auto-resend a refused write: the
	// primary staged and durably logged the records before refusing the
	// ack, so a blind resend would stage them a second time. The error
	// surfaces immediately (no ErrExhausted — no retries happened) and the
	// server's staging counter moves by exactly one request's records.
	rc, err := DialOptions(prim.srv.Addr(), Options{MaxRetries: 3, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { rc.Close() })
	before, err := rc.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if err := rc.AppendProvenance(replRecs(41, 1)); !errors.Is(err, ErrUnavailable) || errors.Is(err, ErrExhausted) {
		t.Fatalf("refused write = %v, want ErrUnavailable surfaced without retries", err)
	}
	after, err := rc.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if got := after.Appends - before.Appends; got != 2 { // replRecs(41, 1) is 2 records
		t.Fatalf("refused write staged %d records, want exactly 2 (no duplicate staging)", got)
	}
}

// TestClusterFailoverKeepsServing kills replicas one by one under a live
// cluster reader: queries keep being answered as long as any node lives —
// including after the primary itself dies, which is what follower reads
// are for.
func TestClusterFailoverKeepsServing(t *testing.T) {
	prim, _, fs := startReplGroup(t, 2, 2, 2*time.Second)
	c := dialClient(t, prim.srv)
	if err := c.AppendProvenance(replRecs(0, 30)); err != nil {
		t.Fatalf("append: %v", err)
	}
	// Followers drain on replappend; the primary drains on demand.
	if _, err := c.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, f := range fs {
		waitRows(t, dialClient(t, f.srv), replQuery(29), 1)
	}

	cl := NewCluster(
		[]string{prim.srv.Addr(), fs[0].srv.Addr(), fs[1].srv.Addr()},
		ClusterOptions{Options: Options{
			DialTimeout:    300 * time.Millisecond,
			RequestTimeout: 2 * time.Second,
			MaxRetries:     1,
			RetryBase:      5 * time.Millisecond,
		}},
	)
	t.Cleanup(func() { cl.Close() })

	check := func(stage string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			res, err := cl.Query(replQuery(29))
			if err != nil {
				t.Fatalf("%s: cluster query %d failed: %v", stage, i, err)
			}
			if len(res.Rows) != 1 {
				t.Fatalf("%s: cluster query %d returned %d rows, want 1", stage, i, len(res.Rows))
			}
		}
	}
	check("all alive", 6)
	fs[0].srv.Close()
	check("one follower dead", 6)
	prim.srv.Close()
	check("primary dead", 6)
}

// TestHedgedReadsBeatSlowReplica plants a 40ms response delay on one
// replica: hedged queries fire a second request after the hedge delay and
// take the fast replica's answer, so the slow node stops defining latency.
func TestHedgedReadsBeatSlowReplica(t *testing.T) {
	prim, _, fs := startReplGroup(t, 2, 2, 2*time.Second)
	c := dialClient(t, prim.srv)
	if err := c.AppendProvenance(replRecs(0, 10)); err != nil {
		t.Fatalf("append: %v", err)
	}
	for _, f := range fs {
		waitRows(t, dialClient(t, f.srv), replQuery(9), 1)
	}

	slow, fast := fs[0], fs[1]
	slow.flt.SetWriteDelay(40 * time.Millisecond)
	cl := NewCluster(
		[]string{slow.srv.Addr(), fast.srv.Addr()},
		ClusterOptions{
			Options:    Options{RequestTimeout: 2 * time.Second, RetryBase: 5 * time.Millisecond},
			HedgeDelay: 5 * time.Millisecond,
		},
	)
	t.Cleanup(func() { cl.Close() })

	// Even queries start on the slow replica (round-robin from 0), so the
	// hedge must fire and the fast replica must win at least once.
	for i := 0; i < 8; i++ {
		res, err := cl.Query(replQuery(9))
		if err != nil {
			t.Fatalf("hedged query %d: %v", i, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("hedged query %d returned %d rows, want 1", i, len(res.Rows))
		}
	}
	fired, won := cl.Hedges()
	if fired < 1 || won < 1 {
		t.Fatalf("hedges fired=%d won=%d; want both >= 1 with a slow first replica", fired, won)
	}
}

// TestFollowerLateJoinCatchesUp starts a follower only after the primary
// has acknowledged (asynchronously, quorum 1) a pile of records: joining
// streams the whole existing log, and the newcomer ends up serving history
// it never saw written.
func TestFollowerLateJoinCatchesUp(t *testing.T) {
	prim, p, _ := startReplGroup(t, 1, 0, time.Second)
	c := dialClient(t, prim.srv)
	if err := c.AppendProvenance(replRecs(0, 100)); err != nil {
		t.Fatalf("append: %v", err)
	}

	late := startReplFollower(t, prim.srv.Addr())
	if err := Announce(prim.srv.Addr(), late.srv.Addr(), 2*time.Second); err != nil {
		t.Fatalf("announce: %v", err)
	}
	lc := dialClient(t, late.srv)
	waitRows(t, lc, replQuery(0), 1)
	waitRows(t, lc, replQuery(99), 1)

	// Announce again: Join is idempotent, the group does not double-count.
	if err := Announce(prim.srv.Addr(), late.srv.Addr(), 2*time.Second); err != nil {
		t.Fatalf("re-announce: %v", err)
	}
	if n := len(p.Followers()); n != 1 {
		t.Fatalf("re-announce grew the follower set to %d, want 1", n)
	}
}
