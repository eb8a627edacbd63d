package passd

import (
	"bufio"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// reservePort picks a loopback port the kernel considers free right now,
// so a daemon can be restarted on the same address its peers know.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startReplDaemon launches a real passd process with the given flags and
// waits for its "serving ... on ADDR" banner.
func startReplDaemon(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() })
	ready := make(chan struct{}, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("daemon[%s]: %s", args[1], line)
			if strings.HasPrefix(line, "passd: serving") {
				select {
				case ready <- struct{}{}:
				default:
				}
			}
		}
	}()
	select {
	case <-ready:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon %v never reported serving", args)
	}
	return cmd
}

// TestKillOneReplicaNoAckedLoss is the whole-group integration test the
// issue's acceptance criterion names: a 3-node replicated group (quorum 2)
// takes acknowledged writes while first a follower and then the primary are
// SIGKILLed. Zero acknowledged records may be lost, and cluster queries
// must keep being answered throughout — during the kills, not just after.
func TestKillOneReplicaNoAckedLoss(t *testing.T) {
	bin := buildPassd(t)
	pAddr, f1Addr, f2Addr := reservePort(t), reservePort(t), reservePort(t)
	logP := filepath.Join(t.TempDir(), "p")
	logF1 := filepath.Join(t.TempDir(), "f1")
	logF2 := filepath.Join(t.TempDir(), "f2")

	primaryArgs := []string{
		"-addr", pAddr, "-logdir", logP,
		"-replicate", "2", "-commit-timeout", "5s",
		"-drain-interval", "50ms",
	}
	followerArgs := func(addr, dir string) []string {
		return []string{
			"-addr", addr, "-logdir", dir,
			"-join", pAddr, "-join-interval", "100ms",
			"-drain-interval", "50ms",
		}
	}
	primary := startReplDaemon(t, bin, primaryArgs...)
	f1 := startReplDaemon(t, bin, followerArgs(f1Addr, logF1)...)
	_ = startReplDaemon(t, bin, followerArgs(f2Addr, logF2)...)

	// The writer: default options, so transient unavailability while the
	// group assembles is retried rather than failed.
	c, err := DialOptions(pAddr, Options{RetryBase: 50 * time.Millisecond, MaxRetries: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	const batches, perBatch = 10, 50 // 2 records per item
	wantRecords := int64(2 * batches * perBatch)
	appendBatch := func(b int) {
		t.Helper()
		if err := c.AppendProvenance(replRecs(b*perBatch, perBatch)); err != nil {
			t.Fatalf("append batch %d: %v", b, err)
		}
	}
	lastOf := func(b int) string { return replQuery((b+1)*perBatch - 1) }

	// Background availability probe: a cluster reader hammers the group for
	// the whole test. Every query must be answered by someone — that is the
	// "queries keep serving during and after" half of the criterion.
	cl := NewCluster([]string{pAddr, f1Addr, f2Addr}, ClusterOptions{Options: Options{
		DialTimeout:    500 * time.Millisecond,
		RequestTimeout: 3 * time.Second,
		MaxRetries:     1,
		RetryBase:      10 * time.Millisecond,
	}})
	t.Cleanup(func() { cl.Close() })
	var (
		probes, probeFails atomic.Int64
		stopProbe          = make(chan struct{})
		probeDone          sync.WaitGroup
	)
	probeDone.Add(1)
	go func() {
		defer probeDone.Done()
		for {
			select {
			case <-stopProbe:
				return
			default:
			}
			probes.Add(1)
			if _, err := cl.Query(replQuery(0)); err != nil {
				probeFails.Add(1)
				t.Errorf("availability probe failed: %v", err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	stopProbes := func() {
		close(stopProbe)
		probeDone.Wait()
	}

	// Phase 1: writes with the full group up.
	for b := 0; b < batches/2; b++ {
		appendBatch(b)
	}

	// SIGKILL follower 1 mid-stream: quorum 2 survives on primary+f2, so
	// acknowledged writes must keep flowing.
	if err := f1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	f1.Wait()
	for b := batches / 2; b < batches; b++ {
		appendBatch(b)
	}
	f2c, err := Dial(f2Addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f2c.Close() })
	waitRows(t, f2c, lastOf(batches-1), 1)

	// Restart the killed follower on its old address over its old log dir:
	// it re-announces, the primary streams the missing range, and the
	// newcomer serves writes it was dead for.
	f1 = startReplDaemon(t, bin, followerArgs(f1Addr, logF1)...)
	f1c, err := Dial(f1Addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f1c.Close() })
	waitRows(t, f1c, lastOf(batches-1), 1)

	// SIGKILL the primary. Both followers hold the full acked prefix, so
	// reads keep being served from the survivors.
	if err := primary.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	primary.Wait()
	for i := 0; i < 10; i++ {
		res, err := cl.Query(lastOf(batches - 1))
		if err != nil {
			t.Fatalf("cluster query %d with primary dead: %v", i, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("cluster query %d with primary dead: %d rows, want 1", i, len(res.Rows))
		}
	}

	// Restart the primary over its surviving log: every acknowledged record
	// — including the ones written while a follower was dead — must be
	// there. This is the zero-acked-loss assertion.
	startReplDaemon(t, bin, primaryArgs...)
	c2, err := Dial(pAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c2.Close() })
	if _, err := c2.Drain(); err != nil {
		t.Fatalf("drain on restarted primary: %v", err)
	}
	st, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != wantRecords {
		t.Fatalf("restarted primary serves %d records, want %d (acked records lost)", st.Records, wantRecords)
	}
	waitRows(t, c2, lastOf(batches-1), 1)

	stopProbes()
	if n := probes.Load(); n < 3 {
		t.Fatalf("availability probe only ran %d times; the test lost its witness", n)
	}
	if n := probeFails.Load(); n != 0 {
		t.Fatalf("%d/%d availability probes failed during the kills", n, probes.Load())
	}
	t.Logf("availability probes: %d, failures: %d", probes.Load(), probeFails.Load())
}

// TestReplicatedDaemonFlagValidation: the mutually-exclusive and
// missing-logdir flag combinations must be refused at startup, not fail
// mysteriously later.
func TestReplicatedDaemonFlagValidation(t *testing.T) {
	bin := buildPassd(t)
	for _, args := range [][]string{
		{"-demo", "-replicate", "2", "-join", "127.0.0.1:1"},
		{"-demo", "-replicate", "2"},
		{"-demo", "-join", "127.0.0.1:1"},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if err == nil {
			t.Fatalf("passd %v started despite invalid flags:\n%s", args, out)
		}
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Fatalf("passd %v exited %v, want usage exit 2:\n%s", args, err, out)
		}
	}
}
