package passd

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"passv2/internal/dpapi"
	"passv2/internal/pnode"
	"passv2/internal/record"
)

// buildPassd compiles the real daemon binary, or skips the test when the
// toolchain is unavailable or -short is set.
func buildPassd(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and drives a real daemon; skipped in -short")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not available")
	}
	bin := filepath.Join(t.TempDir(), "passd")
	if out, err := exec.Command(goBin, "build", "-o", bin, "passv2/cmd/passd").CombinedOutput(); err != nil {
		t.Fatalf("building passd: %v\n%s", err, out)
	}
	return bin
}

// startDaemon launches the daemon over logDir/ckptDir and returns the
// process and a connected client.
func startDaemon(t *testing.T, bin, logDir, ckptDir string) (*exec.Cmd, *Client) {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-logdir", logDir,
		"-checkpoint-dir", ckptDir,
		"-drain-interval", "50ms",
		"-checkpoint-interval", "1h", // checkpoints only via the verb
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	// The daemon prints "passd: serving N records on ADDR" once bound;
	// earlier lines narrate recovery.
	addrCh := make(chan string, 1)
	go func() {
		// Ends when the daemon dies and its stdout closes.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("daemon: %s", line)
			if i := strings.LastIndex(line, " on "); i >= 0 && strings.HasPrefix(line, "passd: serving") {
				select {
				case addrCh <- line[i+4:]:
				default:
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never reported its address")
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return cmd, c
}

// TestKillRestartRecovery is the whole-daemon integration test: a real
// passd process tails a log directory on disk, acknowledges appends,
// checkpoints, is SIGKILLed mid-stream, and is restarted from the
// checkpoint directory. The restarted daemon must serve every
// acknowledged record, report the recovered generation, and — the
// proportional-work assertion — have decoded only the log entries past
// the checkpointed offsets.
func TestKillRestartRecovery(t *testing.T) {
	bin := buildPassd(t)
	logDir := filepath.Join(t.TempDir(), "log")
	ckptDir := filepath.Join(t.TempDir(), "ckpt")
	start := func() (*exec.Cmd, *Client) { return startDaemon(t, bin, logDir, ckptDir) }

	recs := func(lo, n int) []record.Record {
		out := make([]record.Record, 0, 2*n)
		for i := lo; i < lo+n; i++ {
			ref := pnode.Ref{PNode: pnode.PNode(i + 1), Version: 1}
			out = append(out,
				record.New(ref, record.AttrName, record.StringVal(fmt.Sprintf("/r/%d", i))),
				record.New(ref, record.AttrType, record.StringVal(record.TypeFile)))
		}
		return out
	}

	const pre, post = 3000, 150 // appends before / after the checkpoint

	cmd, c := start()
	for lo := 0; lo < pre; lo += 500 {
		if err := c.AppendProvenance(recs(lo, 500)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	info, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 2*pre {
		t.Fatalf("checkpoint covers %d records, want %d", info.Records, 2*pre)
	}
	// Post-checkpoint appends: acknowledged (therefore durably logged),
	// never checkpointed.
	if err := c.AppendProvenance(recs(pre, post)); err != nil {
		t.Fatal(err)
	}

	// SIGKILL mid-flight: no clean shutdown, no final checkpoint.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	_, c2 := start()
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.RecoveredGen != info.Gen {
		t.Fatalf("recovered generation %d, want %d", st.RecoveredGen, info.Gen)
	}
	if st.RecoveredRecords != 2*pre {
		t.Fatalf("recovered snapshot holds %d records, want %d", st.RecoveredRecords, 2*pre)
	}
	// No lost records: everything acknowledged before the kill is served.
	if want := int64(2 * (pre + post)); st.Records != want {
		t.Fatalf("restarted daemon serves %d records, want %d (lost records)", st.Records, want)
	}
	// Proportional work: recovery decoded only the post-checkpoint tail,
	// and the checkpoint's offsets cover a meaningful chunk of the log.
	if st.EntriesDecoded != int64(2*post) {
		t.Fatalf("recovery decoded %d entries, want %d (the tail only)", st.EntriesDecoded, 2*post)
	}
	if st.ResumeBytes == 0 {
		t.Fatal("recovery reports no resumed bytes")
	}
	if st.SkippedGens != 0 {
		t.Fatalf("recovery skipped %d generations on a clean store", st.SkippedGens)
	}

	// Both pre- and post-checkpoint records answer queries.
	for _, name := range []string{"/r/10", fmt.Sprintf("/r/%d", pre+post-1)} {
		res, err := c2.Query(fmt.Sprintf(`select F from Provenance.file as F where F.name = %q`, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("query for %s returned %d rows, want 1", name, len(res.Rows))
		}
	}
}

// TestKillRestartOpenRemoteTransaction is the protocol-v2 crash promise:
// a client holds an open remote object (a §6.5 browser session), batches
// acknowledged disclosures against it, the daemon is SIGKILLed with the
// handle still open and no checkpoint taken since, and the restarted
// daemon must (a) revive the object by reference, (b) serve every
// acknowledged record, and (c) keep accepting disclosures against the
// revived object — no acked record lost, no identity recycled.
func TestKillRestartOpenRemoteTransaction(t *testing.T) {
	bin := buildPassd(t)
	logDir := filepath.Join(t.TempDir(), "log")
	ckptDir := filepath.Join(t.TempDir(), "ckpt")

	cmd, c := startDaemon(t, bin, logDir, ckptDir)
	session, err := c.PassMkobj()
	if err != nil {
		t.Fatal(err)
	}
	ref := session.Ref()
	if err := dpapi.Disclose(session,
		record.New(ref, record.AttrType, record.StringVal(record.TypeSession)),
		record.New(ref, record.AttrName, record.StringVal("session-1")),
	); err != nil {
		t.Fatal(err)
	}
	// A pipelined batch of page-derivation records, acknowledged under
	// one durable ack. Each page is its own remote object.
	const pages = 40
	ro := session.(*RemoteObject)
	b := c.NewBatch()
	pageRefs := make([]pnode.Ref, 0, pages)
	for i := 0; i < pages; i++ {
		page, err := c.PassMkobj()
		if err != nil {
			t.Fatal(err)
		}
		pref := page.Ref()
		pageRefs = append(pageRefs, pref)
		if err := b.Disclose(page.(*RemoteObject),
			record.New(pref, record.AttrType, record.StringVal(record.TypeDocument)),
			record.New(pref, record.AttrName, record.StringVal(fmt.Sprintf("page-%d", i))),
			record.Input(pref, ro.Ref()),
		); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}

	// An identity with no disclosures at all: the acknowledged mkobj
	// alone (its MKOBJ allocation record) must survive the crash.
	bare, err := c.PassMkobj()
	if err != nil {
		t.Fatal(err)
	}
	bareRef := bare.Ref()

	// SIGKILL with the session handle open, mid-transaction: no Close, no
	// final checkpoint, nothing graceful.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	_, c2 := startDaemon(t, bin, logDir, ckptDir)
	back, err := c2.PassReviveObj(ref)
	if err != nil {
		t.Fatalf("revive after SIGKILL: %v", err)
	}
	if back.Ref().PNode != ref.PNode {
		t.Fatalf("revived %v, want pnode %v", back.Ref(), ref.PNode)
	}
	// Every acknowledged record is served: the full page fan-out answers
	// an ancestry query.
	res, err := c2.Query(`select P from Provenance.document as P P.input as S
	                      where S.type = "SESSION"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != pages {
		t.Fatalf("restarted daemon serves %d acked pages, want %d", len(res.Rows), pages)
	}
	// The transaction continues: new disclosures against the revived
	// object, and fresh objects allocate past every pre-crash identity.
	if err := dpapi.Disclose(back, record.Input(back.Ref(), pageRefs[0])); err != nil {
		t.Fatalf("disclose after revive: %v", err)
	}
	if _, err := c2.PassReviveObj(bareRef); err != nil {
		t.Fatalf("revive of never-disclosed object after SIGKILL: %v", err)
	}
	fresh, err := c2.PassMkobj()
	if err != nil {
		t.Fatal(err)
	}
	for _, pref := range append(pageRefs, bareRef) {
		if fresh.Ref().PNode <= pref.PNode {
			t.Fatalf("pnode %v re-entered recycled space (%v)", fresh.Ref().PNode, pref.PNode)
		}
	}
}
