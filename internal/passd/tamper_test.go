package passd

// Tamper-evidence tests at the daemon layer: the verify verb serves
// proofs a client can check locally, replicated followers converge on
// the primary's MMR root, and a forked primary is refused with the
// machine-readable "forked" code — after which quorum commits fail
// closed instead of acknowledging divergent histories.

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"testing"
	"time"

	"passv2/internal/mmr"
	"passv2/internal/pnode"
	"passv2/internal/provlog"
	"passv2/internal/record"
	"passv2/internal/replica"
	"passv2/internal/signer"
	"passv2/internal/vfs"
	"passv2/internal/waldo"
)

// tamperNode is one tamper-evident in-process daemon.
type tamperNode struct {
	*replNode
	dfs *vfs.DirFS
}

func newTamperNode(t *testing.T, n *replNode) *tamperNode {
	t.Helper()
	dfs, err := vfs.NewDirFS(n.dir)
	if err != nil {
		t.Fatal(err)
	}
	return &tamperNode{replNode: n, dfs: dfs}
}

// startTamperPrimary opens a replication primary with the full tamper
// stack, through the constructor cmd/passd uses: writer-attached MMR,
// signed verify verb, and a proof-carrying replication source.
func startTamperPrimary(t *testing.T, quorum int, commitTimeout time.Duration) (*tamperNode, *replica.Primary) {
	t.Helper()
	cfg := replPeerDial
	cfg.Quorum, cfg.CommitTimeout, cfg.MMR = quorum, commitTimeout, true
	n, d := openReplNode(t, cfg)
	return newTamperNode(t, n), d.Primary
}

// startTamperFollower opens a follower of primary with a live tail
// feeder, so every proof-carrying replicated append is root-checked
// before it is durable.
func startTamperFollower(t *testing.T, primary string) *tamperNode {
	t.Helper()
	n, _ := openReplNode(t, DaemonConfig{Join: primary, MMR: true})
	return newTamperNode(t, n)
}

func startTamperGroup(t *testing.T, quorum, followers int, commitTimeout time.Duration) (*tamperNode, []*tamperNode) {
	t.Helper()
	prim, _ := startTamperPrimary(t, quorum, commitTimeout)
	fs := make([]*tamperNode, followers)
	for i := range fs {
		fs[i] = startTamperFollower(t, prim.srv.Addr())
		if err := Announce(prim.srv.Addr(), fs[i].srv.Addr(), 2*time.Second); err != nil {
			t.Fatalf("announce follower %d: %v", i, err)
		}
	}
	return prim, fs
}

// waitMMR polls a node's stats until its MMR reaches want leaves and
// returns the root at that point.
func waitMMR(t *testing.T, c *Client, want uint64) string {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := c.Stats()
		if err == nil && st.MMRLeaves == want {
			return st.MMRRoot
		}
		if time.Now().After(deadline) {
			t.Fatalf("MMR never reached %d leaves (last: %+v / %v)", want, st, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestVerifyVerbServesCheckableProofs: everything the verify verb
// returns is verifiable client-side with internal/mmr and
// internal/signer — signed root statements, inclusion proofs, and
// consistency proofs between two sizes the client picked.
func TestVerifyVerbServesCheckableProofs(t *testing.T) {
	prim, _ := startTamperPrimary(t, 1, time.Second)
	c := dialClient(t, prim.srv)

	if err := c.AppendProvenance(replRecs(0, 15)); err != nil {
		t.Fatal(err)
	}
	first, err := c.VerifyRoot(0)
	if err != nil {
		t.Fatal(err)
	}
	if first.Size != 30 { // replRecs writes 2 records per item
		t.Fatalf("signed root covers %d leaves, want 30", first.Size)
	}
	stmt, sig, pub, err := first.Statement()
	if err != nil {
		t.Fatal(err)
	}
	if !signer.Verify(ed25519.PublicKey(pub), stmt, sig) {
		t.Fatal("root statement signature does not verify")
	}
	stmt.Size++ // any altered claim must break the signature
	if signer.Verify(ed25519.PublicKey(pub), stmt, sig) {
		t.Fatal("signature verified a modified statement")
	}

	if err := c.AppendProvenance(replRecs(15, 15)); err != nil {
		t.Fatal(err)
	}

	inc, err := c.VerifyInclusion(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	proof, leaf, err := inc.Inclusion()
	if err != nil {
		t.Fatal(err)
	}
	root, err := inc.RootHash()
	if err != nil {
		t.Fatal(err)
	}
	if err := mmr.VerifyInclusion(root, leaf, proof); err != nil {
		t.Fatalf("inclusion proof rejected: %v", err)
	}
	leaf[0] ^= 1 // a different record cannot ride the same proof
	if err := mmr.VerifyInclusion(root, leaf, proof); err == nil {
		t.Fatal("inclusion proof accepted a modified leaf")
	}

	cons, err := c.VerifyConsistency(first.Size, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cons.Size != 60 || cons.OldSize != first.Size {
		t.Fatalf("consistency spans %d→%d, want %d→60", cons.OldSize, cons.Size, first.Size)
	}
	if cons.OldRoot != first.Root {
		t.Fatalf("old root %s, want the previously signed %s", cons.OldRoot, first.Root)
	}
	cp, err := cons.Consistency()
	if err != nil {
		t.Fatal(err)
	}
	oldRoot, err := decodeHexHash(cons.OldRoot)
	if err != nil {
		t.Fatal(err)
	}
	newRoot, err := cons.RootHash()
	if err != nil {
		t.Fatal(err)
	}
	if err := mmr.VerifyConsistency(oldRoot, newRoot, cp); err != nil {
		t.Fatalf("consistency proof rejected: %v", err)
	}

	// A daemon without tamper evidence refuses the verb outright.
	plain := startServer(t, waldo.New(), Config{})
	pc := dialClient(t, plain)
	if _, err := pc.VerifyRoot(0); err == nil {
		t.Fatal("verify verb answered on a daemon without tamper evidence")
	}
}

// TestReplicatedRootsConverge: followers fed through proof-carrying
// replicated appends recompute exactly the primary's MMR — same leaf
// count, same root — with zero fork refusals along the way.
func TestReplicatedRootsConverge(t *testing.T) {
	prim, fs := startTamperGroup(t, 2, 2, 2*time.Second)
	c := dialClient(t, prim.srv)

	if err := c.AppendProvenance(replRecs(0, 40)); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.MMRLeaves != 80 || st.MMRRoot == "" || st.MMRPruned {
		t.Fatalf("primary MMR stats: %+v, want 80 unpruned leaves with a root", st)
	}
	for i, f := range fs {
		fc := dialClient(t, f.srv)
		root := waitMMR(t, fc, st.MMRLeaves)
		if root != st.MMRRoot {
			t.Fatalf("follower %d root %s, primary %s: same bytes, different history", i, root, st.MMRRoot)
		}
		fst, err := fc.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if fst.ForkRefusals != 0 {
			t.Fatalf("follower %d refused %d appends during clean replication", i, fst.ForkRefusals)
		}
		// The follower serves checkable proofs over its copy too.
		inc, err := fc.VerifyInclusion(3, 0)
		if err != nil {
			t.Fatal(err)
		}
		proof, leaf, err := inc.Inclusion()
		if err != nil {
			t.Fatal(err)
		}
		root2, err := inc.RootHash()
		if err != nil {
			t.Fatal(err)
		}
		if err := mmr.VerifyInclusion(root2, leaf, proof); err != nil {
			t.Fatalf("follower %d inclusion proof rejected: %v", i, err)
		}
	}
}

// TestForkedPrimaryRefused: a follower that already holds history from
// primary A refuses bytes from a divergent primary B with the
// non-retryable "forked" error, keeps serving reads, and — because the
// feeder stays poisoned until an operator re-seeds it — subsequent
// quorum commits fail closed rather than acknowledging a fork.
func TestForkedPrimaryRefused(t *testing.T) {
	prim, fs := startTamperGroup(t, 2, 1, 700*time.Millisecond)
	f := fs[0]
	c := dialClient(t, prim.srv)

	// Shared history, then divergence: A appends X; B (same history,
	// byte-identical log prefix) appends Y of the same encoded length.
	if err := c.AppendProvenance(replRecs(0, 10)); err != nil {
		t.Fatal(err)
	}
	divergeA := []record.Record{record.New(pnode.Ref{PNode: 900, Version: 1}, record.AttrName, record.StringVal("/fork/AAAA"))}
	divergeB := []record.Record{record.New(pnode.Ref{PNode: 900, Version: 1}, record.AttrName, record.StringVal("/fork/BBBB"))}
	if err := c.AppendProvenance(divergeA); err != nil {
		t.Fatal(err)
	}
	fc := dialClient(t, f.srv)
	pst, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	waitMMR(t, fc, pst.MMRLeaves)

	// Primary B: identical log up to the divergence point, then its own
	// record, then one more — the chunk B would replicate next.
	bfs, err := vfs.NewDirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blog, err := provlog.NewWriter(bfs, "/", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := blog.AttachMMR(mmr.New(), "logdir"); err != nil {
		t.Fatal(err)
	}
	for _, r := range replRecs(0, 10) {
		if err := blog.AppendRecord(0, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := blog.AppendRecord(0, divergeB[0]); err != nil {
		t.Fatal(err)
	}
	forkOff := blog.GlobalSize() // == follower's size: equal-length divergence
	if err := blog.AppendRecord(0, record.New(pnode.Ref{PNode: 901, Version: 1}, record.AttrName, record.StringVal("/fork/next"))); err != nil {
		t.Fatal(err)
	}
	if err := blog.Sync(); err != nil {
		t.Fatal(err)
	}
	bbytes, err := vfs.ReadFile(bfs, "/"+provlog.CurrentName)
	if err != nil {
		t.Fatal(err)
	}
	bm := blog.MMR()
	broot, err := bm.RootAt(bm.Count())
	if err != nil {
		t.Fatal(err)
	}

	// B's next chunk lands at the follower's exact write offset, so this
	// is not a gap — it is two histories disagreeing about the past.
	fp := replPeer{c: fc}
	if _, err := fp.AppendProof(forkOff, bbytes[forkOff:], bm.Count(), broot); !errors.Is(err, ErrForked) {
		t.Fatalf("forked append: %v, want ErrForked", err)
	}

	// Refused loudly, not wedged: reads and pings still work.
	if err := fc.Ping(); err != nil {
		t.Fatalf("follower unresponsive after fork refusal: %v", err)
	}
	if _, err := fc.Query(replQuery(5)); err != nil {
		t.Fatalf("follower stopped serving reads after fork refusal: %v", err)
	}
	fst, err := fc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if fst.ForkRefusals == 0 {
		t.Fatal("fork refusal not counted in stats")
	}

	// Fail closed: with its only follower poisoned, the primary cannot
	// reach quorum 2, so acknowledged writes stop instead of lying.
	if err := c.AppendProvenance(replRecs(50, 5)); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("append with a poisoned follower: %v, want ErrUnavailable", err)
	}
}

// TestForkRefusalSurvivesRestartOfFollower: the poison is in-memory
// state guarding a durable log that was never contaminated — a restarted
// follower rebuilds its feeder from disk and replicates cleanly again
// from a non-forked primary.
func TestForkRefusalSurvivesRestartOfFollower(t *testing.T) {
	prim, fs := startTamperGroup(t, 1, 1, time.Second)
	f := fs[0]
	c := dialClient(t, prim.srv)

	if err := c.AppendProvenance(replRecs(0, 5)); err != nil {
		t.Fatal(err)
	}
	fc := dialClient(t, f.srv)
	pst, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	waitMMR(t, fc, pst.MMRLeaves)

	// Poison the feeder with a garbage chunk claiming a root.
	var bogus [32]byte
	bogus[0] = 0xff
	fp := replPeer{c: fc}
	if _, err := fp.AppendProof(f.srv.cfg.Feeder.Expected(), []byte("not a frame"), 99, bogus); !errors.Is(err, ErrForked) {
		t.Fatalf("bogus chunk: %v, want ErrForked", err)
	}

	// Rebuild the feeder from the untouched on-disk log, as a restart
	// would, and verify it matches the primary again.
	reFeeder, err := provlog.LoadFeeder(f.dfs, "/", "logdir")
	if err != nil {
		t.Fatal(err)
	}
	m := reFeeder.MMR()
	root, err := m.RootAt(m.Count())
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", root); got != pst.MMRRoot || m.Count() != pst.MMRLeaves {
		t.Fatalf("rebuilt feeder at %d leaves root %s; primary at %d leaves root %s",
			m.Count(), got, pst.MMRLeaves, pst.MMRRoot)
	}
}
