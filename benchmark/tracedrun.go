package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"passv2/benchmark/gen"
	"passv2/internal/passd"
)

// checkpointEvery is cmd/passd's default -checkpoint-records: the traced
// half issues the checkpoint verb at each such mark instead of leaving it
// to the background trigger.
const checkpointEvery = 50_000

// runTraced is one traced run, in two halves of half the window each.
//
// The first half is an ordinary untraced run against the real child, cut
// down (one set-up, fewer check queries, no probe pass): it yields the
// counts read from outside the daemon (source C) and the reference
// figure the tracing overhead is a ratio of. The second half assembles
// the same daemon in this process with every seam wrapped (assemble),
// runs the workload's traffic against it, and turns the spans into the
// per-layer times (source S); a one-session pass over the same assembly
// checks that the spans reconcile; and the replays price each layer alone
// on the artifacts the two halves left (source R).
func (r *runner) runTraced(traceOut string) (*report, error) {
	full := r.sc
	r.sc.window /= 2
	r.sc.setups = 1
	r.sc.checkPerClass = max(full.checkPerClass/4, 1)
	r.sc.checkScans = max(full.checkScans/4, 1)
	r.sc.checkNames = max(full.checkNames/4, 1)
	r.sc.codaProbes = 8
	r.sc.codaOps = full.codaOps / 4
	r.sc.restarts = 2

	rep, err := r.run()
	if err != nil {
		return nil, err
	}
	childDir := r.primary().dir
	untraced := rep.EndToEnd
	rep.EndToEnd = map[string]metric{}

	r.tr = newTracer()
	r.daemons = nil
	r.ledger = tally{}
	dir := filepath.Join(r.dataDir, "traced")
	role := ""
	if r.workload == wlDiscloseQuorum {
		role = "primary"
	}
	prim, err := assemble(filepath.Join(dir, "primary"), role, r.tr)
	if err != nil {
		return nil, fmt.Errorf("assembling the traced daemon: %w", err)
	}
	stop := []func() error{prim.close}
	defer func() {
		r.teardown() // no child is left: this drops the connections
		for i := len(stop) - 1; i >= 0; i-- {
			stop[i]()
		}
	}()
	r.addr, r.admin = prim.addr(), prim.admin()
	if role == "primary" {
		// The follower runs bare: the primary's peer spans cover its time.
		fol, err := assemble(filepath.Join(dir, "follower"), "follower", nil)
		if err != nil {
			return nil, fmt.Errorf("assembling the follower: %w", err)
		}
		stop = append(stop, fol.close)
		if err := passd.Announce(prim.addr(), fol.addr(), 2*time.Second); err != nil {
			return nil, fmt.Errorf("announcing the follower: %w", err)
		}
	}
	if err := r.connect(); err != nil {
		return nil, err
	}
	if role == "primary" {
		if err := r.awaitQuorum(); err != nil {
			return nil, err
		}
	}

	// Checkpoints on the 50,000-record marks, as client-side spans.
	ckptStop, ckptDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ckptDone)
		r.checkpointAtMarks(ckptStop)
	}()
	stopCkpt := sync.OnceFunc(func() { close(ckptStop); <-ckptDone })
	defer stopCkpt()

	prep := r.prepare()
	if _, err := r.ingest(r.dag.Records); err != nil {
		return nil, fmt.Errorf("traced preload: %w", err)
	}
	if err := r.openObjects(prep); err != nil {
		return nil, err
	}
	var win *measured
	from := r.tr.now()
	if native[r.workload]["ingest_rec_per_s"] {
		win, err = r.ingest(prep.bulk)
	} else {
		win, err = r.traffic(r.sc.warm, r.sc.window, prep)
		from = int64(win.win.start.Sub(r.tr.t0))
	}
	if err != nil {
		return nil, err
	}
	to := int64(win.win.end.Sub(r.tr.t0))
	if st, err := r.settle(); st == nil {
		return nil, err
	} else {
		rep.problem(err)
	}
	stopCkpt()
	spans, mark := r.tr.since(0)
	r.spanLayers(rep.Layers, totals(spans, from, to), totals(spans, 0, to), win)
	r.overhead(rep.Layers, untraced, win)

	// One session, so every child span lies inside the request that
	// caused it: the pass the reconcile check is made on.
	one := window{start: time.Now(), end: time.Now().Add(time.Hour), live: &liveCount{}, tr: r.tr}
	left := 200
	single := &tally{}
	discloseSession(r.conns[0], r.seed, 200, gen.Visits(r.seed, 200, 4096), func() bool { left--; return left >= 0 }, one, single)
	r.ledger.merge(single)
	// The checkpoint verb is a no-op until a drain has moved the database.
	if _, err := r.conns[0].Drain(); err != nil {
		return nil, err
	}
	if err := r.checkpoint(r.conns[0]); err != nil {
		return nil, err
	}
	rep.problem(single.firstErr)
	pass, _ := r.tr.since(mark)
	tied, self, err := reconcile(pass)
	rep.problem(err)
	if err == nil {
		// What the server adds around its closures, tied per request; the
		// trace file gets the pass with its parents and sequences filled in.
		rep.Layers["trace.one_session_self_us"] = metric{float64(self[spanRequest]) / 1e3 / float64(max(single.writes, 1)), "us", int(single.writes)}
		r.tr.retie(mark, tied)
	}
	if traceOut != "" {
		rep.problem(r.tr.write(traceOut))
	}

	rep.problem(r.replay(rep.Layers, r.dag.Records, prim.db, filepath.Join(prim.dir, "log"), childDir))
	rep.Attempted += r.ledger.attempted
	rep.Failed += r.ledger.failed
	rep.tooManyFailed(r.ledger.firstErr)
	return rep, nil
}

// checkpoint issues the checkpoint verb inside a client-side span that
// notes the kind of generation written. A failed checkpoint leaves no
// span and shows in STATS.
func (r *runner) checkpoint(c *passd.Client) error {
	start := r.tr.now()
	info, err := c.Checkpoint()
	if err == nil {
		r.tr.addNoted(spanCheckpoint, start, 0, info.SnapshotBytes, info.Kind)
	}
	return err
}

// checkpointAtMarks polls the record count and issues the checkpoint verb
// each time it passes a multiple of checkpointEvery, until stopped.
func (r *runner) checkpointAtMarks(stop <-chan struct{}) {
	c, err := dial(r.addr)
	if err != nil {
		return
	}
	defer c.Close()
	var marks int64
	for {
		select {
		case <-stop:
			return
		case <-time.After(50 * time.Millisecond):
		}
		st, err := c.Stats()
		if err != nil {
			return
		}
		if m := st.Records / checkpointEvery; m > marks {
			marks = m
			_ = r.checkpoint(c)
		}
	}
}

// spanLayers turns the traced window's span totals into per-layer times
// (source S). With many requests in flight these are aggregates: a kind's
// self time is its total minus the total of the kinds it causes.
func (r *runner) spanLayers(l map[string]metric, t, whole map[string]agg, m *measured) {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	writes, records := float64(m.t.writes), float64(m.t.winRecords)
	app, syn := t[spanAppend], t[spanSync]
	fsync, write := t[spanLogFsync], t[spanLogWrite]

	// Write requests only: queries cause no closure call.
	writeReq := m.t.ack.mean() * 1e3 * writes
	quorum := l["replica.commit_wait_us"].Value * writes
	l["passd.self_us_per_req"] = metric{div(writeReq-app.micros()-syn.micros()-quorum, writes), "us", int(writes)}

	l["provlog.append_us_per_rec"] = metric{div(app.micros()-write.micros(), records), "us", int(app.count)}
	l["provlog.sync_us"] = metric{syn.perCall(), "us", int(syn.count)}
	l["provlog.sync_wait_us"] = metric{div(syn.micros()-fsync.micros(), float64(syn.count)), "us", int(syn.count)}

	l["vfs.fsync_count"] = metric{float64(fsync.count), "count", 0}
	l["vfs.fsync_us"] = metric{fsync.perCall(), "us", int(fsync.count)}
	l["vfs.fsync_per_req"] = metric{div(float64(fsync.count), writes), "ratio", 0}
	l["vfs.write_count"] = metric{float64(write.count), "count", 0}
	l["vfs.write_bytes_per_user_byte"] = metric{div(float64(write.bytes+t[spanCkptWrite].bytes), float64(m.t.recBytes)), "ratio", 0}

	peer := t[spanPeerAppend]
	l["replica.peer_append_us"] = metric{peer.perCall(), "us", int(peer.count)}
	l["replica.bytes_per_append"] = metric{div(float64(peer.bytes), float64(peer.count)), "B", int(peer.count)}

	drain := t[spanDrain]
	l["waldo.drain_count"] = metric{float64(drain.count), "count", 0}
	l["waldo.drain_us_per_rec"] = metric{div(drain.micros(), float64(m.after.stats.Records-m.before.stats.Records)), "us", int(drain.count)}

	// Checkpoints are few, so these read the whole traced half — preload
	// included — not the window alone.
	l["checkpoint.full_write_s"] = metric{whole[spanCheckpoint+"full"].perCall() / 1e6, "s", int(whole[spanCheckpoint+"full"].count)}
	l["checkpoint.delta_write_s"] = metric{whole[spanCheckpoint+"delta"].perCall() / 1e6, "s", int(whole[spanCheckpoint+"delta"].count)}
	l["checkpoint.sign_us"] = metric{whole[spanSign].perCall(), "us", int(whole[spanSign].count)}
}

// overhead sets trace.overhead_ratio: how much slower the traced,
// in-process half ran than the untraced child half, on the workload's own
// headline figure — a throughput for the closed loops (untraced ÷
// traced), the ack median for the open loop (traced ÷ untraced) — so
// above 1 is cost. It includes moving the daemon into the generator's
// process, not only the span recording.
func (r *runner) overhead(l map[string]metric, untraced map[string]metric, m *measured) {
	var ratio float64
	switch r.workload {
	case wlDiscloseSmall, wlDiscloseQuorum:
		traced := m.perSlice(func(s slice) float64 { return float64(s.records) / s.seconds })
		ratio = untraced["acked_rec_per_s"].Value / traced
	case wlIngestBulk:
		ratio = untraced["ingest_rec_per_s"].Value / (float64(m.t.winRecords) / m.win.seconds())
	case wlQueryOnly:
		traced := m.perSlice(func(s slice) float64 { return float64(s.ops) / s.seconds })
		ratio = untraced["query_per_s"].Value / traced
	case wlMixed:
		ratio = m.t.ack.sliced(0.50, r.sc.window, sliceEvery) / untraced["ack_p50_ms"].Value
	}
	l["trace.overhead_ratio"] = metric{ratio, "ratio", 0}
}
