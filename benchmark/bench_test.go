package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"passv2/benchmark/gen"
	"passv2/internal/dpapi"
	"passv2/internal/passd"
)

// bins builds cmd/passd and cmd/passverify once for the process-spawning
// tests, which -short skips.
var (
	binDir string // set once bins has run
	bins   = sync.OnceValues(func() (*builtBins, error) {
		var err error
		if binDir, err = os.MkdirTemp("", "passbench-bin-"); err != nil {
			return nil, err
		}
		return buildBins(".", binDir)
	})
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

func testBins(t *testing.T) *builtBins {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns cmd/passd; skipped under -short")
	}
	b, err := bins()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQuickAllWorkloads runs every workload at a tenth of every size,
// untraced and traced, with every correctness check on: each run must be
// correct, fail no operation, and report every metric BENCHMARK.json
// names.
func TestQuickAllWorkloads(t *testing.T) {
	b := testBins(t)
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloadNames))
	}
	o := options{seconds: 4, quick: true}
	for _, trace := range []int{0, 1} {
		for _, wl := range workloadNames {
			if !spec.hasWorkload(wl) {
				t.Fatalf("BENCHMARK.json does not name workload %s", wl)
			}
			// Quick runs mostly wait — on drain ticks, probes, restarts —
			// so they overlap; their figures are not looked at, only that
			// every one is there.
			t.Run(fmt.Sprintf("%s/trace=%d", wl, trace), func(t *testing.T) {
				t.Parallel()
				rep := runOne(wl, 5, trace, o, b, t.TempDir(), io.Discard)
				for _, p := range rep.Problems {
					t.Error(p)
				}
				if rep.Failed != 0 {
					t.Errorf("%d of %d operations failed", rep.Failed, rep.Attempted)
				}
				want, have := spec.EndToEnd, rep.EndToEnd
				if trace == 1 {
					want, have = spec.PerLayer, rep.Layers
				}
				for _, m := range want {
					got, ok := have[m.Name]
					if !ok {
						t.Errorf("metric %s is not reported", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					} else if trace == 0 && got.Value <= 0 {
						t.Errorf("end-to-end metric %s reads %v; it must never be 0", m.Name, got.Value)
					}
				}
			})
		}
	}
}

// TestHarnessEquivalence feeds the in-process assembly and a real
// cmd/passd child the same small seeded input from one session and
// requires identical STATS and a byte-identical log.current: the guard
// against the traced wiring drifting from cmd/passd/main.go.
func TestHarnessEquivalence(t *testing.T) {
	b := testBins(t)
	dir := t.TempDir()

	child, err := newDaemon(b.passd, filepath.Join(dir, "child"))
	if err != nil {
		t.Fatal(err)
	}
	if err := child.start(); err != nil {
		t.Fatal(err)
	}
	defer child.kill()
	for _, sub := range []string{"twin/log", "twin/ckpt"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	twin, err := assemble(filepath.Join(dir, "twin"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.close()

	feed := func(addr string) *passd.Stats {
		c, err := dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for _, chunk := range gen.Chunks(gen.NewDAG(9, 3000, gen.VolDAG, "dag").Records) {
			if err := c.AppendProvenance(chunk); err != nil {
				t.Fatal(err)
			}
		}
		left := 150
		var tl tally
		discloseSession(c, 9, 0, gen.Visits(9, 0, 256), func() bool { left--; return left >= 0 },
			window{start: time.Now(), end: time.Now().Add(time.Hour)}, &tl)
		if tl.firstErr != nil {
			t.Fatal(tl.firstErr)
		}
		o, err := c.PassMkobj()
		if err != nil {
			t.Fatal(err)
		}
		batch := c.NewBatch()
		for _, w := range gen.Wides(9, 900, 8) {
			if err := batch.Disclose(o.(*passd.RemoteObject), w.Records(o.(*passd.RemoteObject).Ref())...); err != nil {
				t.Fatal(err)
			}
		}
		if err := batch.Flush(); err != nil {
			t.Fatal(err)
		}
		recs, _ := gen.Marker(9, 0)
		if err := dpapi.Disclose(o, recs[:1]...); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	got, want := feed(twin.addr()), feed(child.addr)
	if got.Records != want.Records || got.ProvBytes != want.ProvBytes || got.IdxBytes != want.IdxBytes ||
		got.MMRLeaves != want.MMRLeaves || got.MMRRoot != want.MMRRoot || got.Checkpoints != want.Checkpoints {
		t.Errorf("in-process assembly and cmd/passd disagree:\n twin:  records %d prov %d idx %d leaves %d root %s checkpoints %d\n child: records %d prov %d idx %d leaves %d root %s checkpoints %d",
			got.Records, got.ProvBytes, got.IdxBytes, got.MMRLeaves, got.MMRRoot, got.Checkpoints,
			want.Records, want.ProvBytes, want.IdxBytes, want.MMRLeaves, want.MMRRoot, want.Checkpoints)
	}
	twinLog, err := os.ReadFile(filepath.Join(dir, "twin", "log", "log.current"))
	if err != nil {
		t.Fatal(err)
	}
	childLog, err := os.ReadFile(filepath.Join(dir, "child", "log", "log.current"))
	if err != nil {
		t.Fatal(err)
	}
	if len(twinLog) == 0 || !bytes.Equal(twinLog, childLog) {
		t.Errorf("log.current differs: twin %d bytes, child %d bytes", len(twinLog), len(childLog))
	}
}

// TestOpenLoopChargesFromDueTime drives a stub server that stalls 200 ms
// once. The request that hits the stall and every request that was due
// behind it must be charged from when they were due — so the stall shows
// in several latencies, not one — and the generator must report how late
// it ran.
func TestOpenLoopChargesFromDueTime(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const stallAt, stall = 5, 200 * time.Millisecond
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for n := 0; ; n++ {
			if _, err := br.ReadByte(); err != nil {
				return
			}
			if n == stallAt {
				time.Sleep(stall)
			}
			conn.Write([]byte{1})
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const every, n = 10 * time.Millisecond, 40
	start := time.Now().Add(20 * time.Millisecond)
	win := window{start: start, end: start.Add(time.Hour)}
	var one [1]byte
	tl := openLoop(start, every, n, 1, func(_, i int, due time.Time, tl *tally) {
		conn.Write(one[:])
		conn.Read(one[:])
		tl.ack.add(due.Sub(win.start), time.Since(due))
	})
	if len(tl.ack) != n || len(tl.late) != n {
		t.Fatalf("%d latencies and %d lateness samples for %d requests", len(tl.ack), len(tl.late), n)
	}
	// With one worker the stall delays everything due during it: requests
	// 5..24 were due within the 200 ms, so well over ten of them must carry
	// a share of it. A generator that timed from the send would show one.
	slow := 0
	for _, s := range tl.ack {
		if s.ms > 15 {
			slow++
		}
	}
	if slow < 10 {
		t.Errorf("only %d of %d latencies show the 200 ms stall; requests due behind it were not charged from their due time", slow, n)
	}
	if worst := tl.ack.quantile(1); worst < 190 {
		t.Errorf("worst latency %.1f ms, want the full 200 ms stall", worst)
	}
	if late := tl.late.quantile(1); late < 150 {
		t.Errorf("largest reported lateness %.1f ms; the generator ran up to ~190 ms late and must say so", late)
	}
	if early := tl.late.quantile(0); early < 0 {
		t.Errorf("lateness %.3f ms is negative: a request was sent before it was due", early)
	}
}

// TestReconcile checks the span accounting on a hand-made one-session
// trace: children are tied to the parent that contains them, inherit its
// request sequence, never exceed it, and self + children = parent.
func TestReconcile(t *testing.T) {
	spans := []span{
		{Name: spanRequest, Start: 0, End: 100, Seq: 1},
		{Name: spanAppend, Start: 10, End: 30},
		{Name: spanLogWrite, Start: 12, End: 20},
		{Name: spanLogWrite, Start: 21, End: 29},
		{Name: spanSync, Start: 40, End: 90},
		{Name: spanLogFsync, Start: 45, End: 85},
		{Name: spanRequest, Start: 200, End: 260, Seq: 2},
		{Name: spanAppend, Start: 205, End: 215},
		{Name: spanSync, Start: 220, End: 250},
		{Name: spanDrain, Start: 90, End: 210},
		{Name: spanLogRead, Start: 95, End: 105},
	}
	tied, self, err := reconcile(spans)
	if err != nil {
		t.Fatal(err)
	}
	if tied[2].Parent != spanAppend || tied[2].Seq != 1 || tied[5].Parent != spanSync || tied[7].Seq != 2 || tied[10].Parent != spanDrain {
		t.Errorf("children tied wrongly: %+v", tied)
	}
	want := map[string]int64{
		spanRequest:  (100 - 20 - 50) + (60 - 10 - 30),
		spanAppend:   (20 - 8 - 8) + 10,
		spanSync:     (50 - 40) + 30,
		spanLogWrite: 16, spanLogFsync: 40, spanDrain: 120 - 10, spanLogRead: 10,
	}
	var total, parents int64
	for kind, w := range want {
		if self[kind] != w {
			t.Errorf("self time of %s is %d, want %d", kind, self[kind], w)
		}
		total += self[kind]
	}
	for _, s := range spans {
		if s.Name == spanRequest || s.Name == spanDrain {
			parents += s.End - s.Start
		}
	}
	if total != parents {
		t.Errorf("self times sum to %d, the top-level spans to %d: self + children must equal parent exactly", total, parents)
	}

	// A child that sticks out of its parent, and children that overlap,
	// are both refused.
	if _, _, err := reconcile([]span{{Name: spanRequest, Start: 0, End: 10}, {Name: spanAppend, Start: 5, End: 15}}); err == nil {
		t.Error("an append that outlives its request was accepted")
	}
	if _, _, err := reconcile([]span{{Name: spanRequest, Start: 0, End: 100}, {Name: spanAppend, Start: 10, End: 50}, {Name: spanSync, Start: 40, End: 60}}); err == nil {
		t.Error("overlapping children of one request were accepted")
	}
}

// TestOneSessionTraceReconciles runs the real thing: one session against
// the traced in-process assembly, then the reconcile check over the spans
// it left.
func TestOneSessionTraceReconciles(t *testing.T) {
	dir := t.TempDir()
	for _, sub := range []string{"log", "ckpt"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	tr := newTracer()
	p, err := assemble(dir, "", tr)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	_, booted := tr.since(0) // boot writes keys and opens the log outside any request
	c, err := dial(p.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := &runner{tr: tr}
	win := window{start: time.Now(), end: time.Now().Add(time.Hour), live: &liveCount{}, tr: tr}
	left := 100
	var tl tally
	discloseSession(c, 1, 0, gen.Visits(1, 0, 256), func() bool { left--; return left >= 0 }, win, &tl)
	if tl.firstErr != nil {
		t.Fatal(tl.firstErr)
	}
	// The checkpoint verb is a no-op until a drain has moved the database.
	if _, err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := r.checkpoint(c); err != nil {
		t.Fatal(err)
	}
	spans, _ := tr.since(booted)
	tied, self, err := reconcile(spans)
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[string]int{}
	for _, s := range tied {
		byKind[s.Name]++
		if (s.Name == spanAppend || s.Name == spanSync) && (s.Parent != spanRequest || s.Seq == 0) {
			t.Fatalf("%s span not tied to a request: %+v", s.Name, s)
		}
	}
	if byKind[spanRequest] != int(tl.writes) || byKind[spanSync] != int(tl.writes) || byKind[spanLogFsync] < int(tl.writes) || byKind[spanCheckpoint] != 1 || byKind[spanSign] != 1 {
		t.Errorf("span counts %v for %d write requests and one checkpoint", byKind, tl.writes)
	}
	for _, kind := range []string{spanRequest, spanAppend, spanSync, spanCheckpoint} {
		if self[kind] <= 0 {
			t.Errorf("self time of %s is %d ns", kind, self[kind])
		}
	}
}

// TestQuartiles checks the spread arithmetic against values worked with
// Python's statistics.quantiles(v, n=4), the method the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles of 3,1,4,1,5 = %v %v %v, want 1 3 4.5", q1, q2, q3)
	}
}
