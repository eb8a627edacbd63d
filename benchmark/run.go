package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"passv2/internal/passd"
)

// metric is one reported number. N is how many samples stand behind a
// timing (0 for counts and rates).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// report is everything one run of one workload yields.
type report struct {
	Workload  string
	Traced    bool
	Attempted int64
	Failed    int64
	Problems  []string          // failed correctness checks; empty means correct
	EndToEnd  map[string]metric // the gated metrics, tracing off
	Layers    map[string]metric // per-layer metrics and ungated diagnostics
}

func (rep *report) problem(err error) {
	if err != nil {
		rep.Problems = append(rep.Problems, err.Error())
	}
}

// maxFailRatio is the share of operations that may fail before the run is
// reported incorrect, and maxLatenessMS how late the open-loop generator's
// median request may go out.
const (
	maxFailRatio  = 0.001
	maxLatenessMS = 5
)

// tooManyFailed reports the run incorrect when more than maxFailRatio of
// its operations failed. Below that a failed operation is counted, not a
// wrong output; above it the figures describe a daemon refusing its load.
func (rep *report) tooManyFailed(first error) {
	if float64(rep.Failed) > maxFailRatio*float64(rep.Attempted) {
		rep.problem(fmt.Errorf("%d of %d operations failed, over %.1f%%; first: %w", rep.Failed, rep.Attempted, 100*maxFailRatio, first))
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// run is one untraced run: set-ups, the window, then the phases every
// workload shares — settle, check queries, coda, kill and restart, final
// checks. A check that fails is recorded and the run goes on, so one
// report lists everything that is wrong; only a harness failure (a daemon
// that will not start, a verb that errors) aborts.
func (r *runner) run() (*report, error) {
	rep := &report{Workload: r.workload, EndToEnd: map[string]metric{}, Layers: map[string]metric{}}
	r.generate()
	prep := r.prepare()
	nat := struct{ ingest bool }{native[r.workload]["ingest_rec_per_s"]}
	defer r.teardown()

	var (
		setups, ingestRates, cpuPerRec, backlogs []float64
		win                                      *measured // the measured window (last set-up)
		preload                                  *measured
	)
	for i := 0; i < r.sc.setups; i++ {
		last := i == r.sc.setups-1
		r.ledger = tally{}
		began := time.Now()
		if err := r.bootstrap(i); err != nil {
			return nil, err
		}
		var err error
		if preload, err = r.ingest(r.dag.Records); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
		if err := r.openObjects(prep); err != nil {
			return nil, fmt.Errorf("opening session objects: %w", err)
		}
		if nat.ingest {
			// The preload is ingest-bulk's own traffic, so it is also its
			// warm-up, and every set-up is followed by a measured rep.
			setups = append(setups, time.Since(began).Seconds())
			if win, err = r.ingest(prep.bulk); err != nil {
				return nil, fmt.Errorf("bulk window: %w", err)
			}
			ingestRates = append(ingestRates, float64(len(prep.bulk))/win.win.seconds())
			cpuPerRec = append(cpuPerRec, win.cpuSeconds()*1e6/float64(len(prep.bulk)))
			backlogs = append(backlogs, win.backlog)
		} else {
			length := time.Duration(0)
			if last {
				length = r.sc.window
			}
			if win, err = r.traffic(r.sc.warm, length, prep); err != nil {
				return nil, err
			}
			setups = append(setups, win.win.start.Sub(began).Seconds())
			ingestRates = append(ingestRates, float64(len(r.dag.Records))/preload.win.seconds())
			backlogs = append(backlogs, preload.backlog)
		}
		if !last {
			r.teardown()
			os.RemoveAll(filepath.Join(r.dataDir, fmt.Sprintf("setup%d", i)))
		}
	}
	r.logf("set-up ×%d %.2fs; window %.1fs: %d writes, %d queries", r.sc.setups, median(setups), win.win.seconds(), win.t.writes, win.t.queries)

	// Settle: everything acknowledged so far must be in the database, once.
	phase := time.Now()
	lap := func(name string) {
		r.logf("%-14s %5.2fs", name, time.Since(phase).Seconds())
		phase = time.Now()
	}
	st, err := r.settle()
	if st == nil {
		return nil, err
	}
	rep.problem(err)
	spaceAmp := float64(r.primary().logBytes()+st.ProvBytes+st.IdxBytes) / float64(r.ledger.recBytes)

	lap("settle")
	checks, checkSeconds, verify := r.checkQueries()
	lap("check queries")

	codaAck, codaSeconds, err := r.codaDisclose()
	if err != nil {
		return nil, err
	}
	// The probe pass is mostly waiting on the drain timer: the oracle's
	// evaluation, which needs this process's CPU, overlaps it.
	verified := make(chan error, 1)
	go func() { verified <- verify() }()
	codaProbes := r.codaProbes()
	rep.problem(<-verified)
	if r.workload == wlDiscloseQuorum {
		if _, err := r.conns[0].Drain(); err != nil {
			return nil, err
		}
		rep.problem(r.converge())
	}

	lap("coda")
	restarts, err := r.restart()
	if err != nil {
		return nil, err
	}
	lap("restarts")
	st, err = r.settle()
	if st == nil {
		return nil, err
	}
	rep.problem(err)
	rep.problem(r.checkNames())
	for _, d := range r.daemons {
		d.sample()
	}
	rep.problem(r.audit())
	lap("final checks")

	// Ledger of operations: the window, the phases around it, the preloads.
	rep.Attempted = r.ledger.attempted + checks.attempted
	rep.Failed = r.ledger.failed + checks.failed
	rep.tooManyFailed(r.ledger.firstErr)
	// Latencies are charged from due time, so a stall that makes the
	// generator late shows in them and invalidates nothing. A generator late
	// at its median never offered the stated load at all.
	if late := win.t.late.quantile(0.50); late > maxLatenessMS {
		rep.problem(fmt.Errorf("the generator's median request went out %.1f ms late, over %d ms: the open loop's rates were not offered", late, maxLatenessMS))
	}

	// End-to-end metrics: each from the window when the workload's own
	// traffic produces it (native), else from the phase every run shares.
	// Window rates and percentiles are medians over one-second slices.
	span := r.sc.window
	shared := map[string]metric{
		"acked_rec_per_s":  {float64(codaAck.winRecords) / codaSeconds, "rec/s", 0},
		"ack_p50_ms":       {codaAck.ack.quantile(0.50), "ms", len(codaAck.ack)},
		"ingest_rec_per_s": {median(ingestRates), "rec/s", len(ingestRates)},
		"query_per_s":      {float64(checks.queries) / checkSeconds, "q/s", 0},
		"query_p50_ms":     {checks.query.quantile(0.50), "ms", len(checks.query)},
		"visible_p50_ms":   {codaProbes.visible.quantile(0.50), "ms", len(codaProbes.visible)},
		"visible_p90_ms":   {codaProbes.visible.quantile(0.90), "ms", len(codaProbes.visible)},
	}
	own := map[string]metric{
		"acked_rec_per_s":  {win.perSlice(func(s slice) float64 { return float64(s.records) / s.seconds }), "rec/s", 0},
		"ack_p50_ms":       {win.t.ack.sliced(0.50, span, sliceEvery), "ms", len(win.t.ack)},
		"ingest_rec_per_s": {median(ingestRates), "rec/s", len(ingestRates)},
		"query_per_s":      {win.perSlice(func(s slice) float64 { return float64(s.ops) / s.seconds }), "q/s", 0},
		"query_p50_ms":     {win.t.query.sliced(0.50, span, sliceEvery), "ms", len(win.t.query)},
		"visible_p50_ms":   {win.t.visible.quantile(0.50), "ms", len(win.t.visible)},
		"visible_p90_ms":   {win.t.visible.quantile(0.90), "ms", len(win.t.visible)},
	}
	e := rep.EndToEnd
	for name, m := range shared {
		if native[r.workload][name] {
			m = own[name]
		}
		e[name] = m
	}
	cpuPerOp := median(cpuPerRec) // ingest-bulk: per record, per rep
	if !nat.ingest {
		cpuPerOp = win.perSlice(func(s slice) float64 {
			return float64(s.ticks) / clockTicksPerSecond * 1e6 / float64(max(s.ops, 1))
		})
	}
	var hwm int64
	for _, d := range r.daemons {
		hwm = max(hwm, d.hwmKB)
	}
	// The 99th percentiles spread past any bound the driver allows (see the
	// README's calibration), so they are per-layer lines under the names
	// the issue gave them: the window's, per slice, where the window has
	// that traffic, else the shared phase's.
	p99 := func(own, shared lat) metric {
		if len(own) > 0 {
			return metric{own.sliced(0.99, span, sliceEvery), "ms", len(own)}
		}
		return metric{shared.quantile(0.99), "ms", len(shared)}
	}
	rep.Layers["ack_p99_ms"] = p99(win.t.ack, codaAck.ack)
	rep.Layers["query_p99_ms"] = p99(win.t.query, checks.query)
	e["setup_s"] = metric{median(setups), "s", len(setups)}
	e["cpu_us_per_op"] = metric{cpuPerOp, "us", 0}
	e["peak_rss_mb"] = metric{float64(hwm) / 1024, "MB", 0}
	e["space_amp"] = metric{spaceAmp, "ratio", 0}
	e["restart_s"] = metric{median(restarts), "s", len(restarts)}

	r.countLayers(rep, win, st, median(backlogs))
	return rep, nil
}

// countLayers fills the per-layer metrics that are counts read from
// outside the daemon around the untraced window (source C in the README),
// and the diagnostics too unstable to gate.
func (r *runner) countLayers(rep *report, m *measured, final *passd.Stats, backlog float64) {
	l := rep.Layers
	b, a := m.before, m.after
	if a.stats == nil || b.stats == nil {
		return
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	fail := ratio(float64(rep.Failed), float64(rep.Attempted))
	l["fail_ratio"] = metric{fail, "ratio", 0}

	writeVerb := `{verb="write"}`
	if r.workload == wlMixed {
		writeVerb = `{verb="batch"}`
	}
	wServe := meanMicros(b.admin, a.admin, "passd_request_seconds", writeVerb)
	qServe := meanMicros(b.admin, a.admin, "passd_request_seconds", `{verb="query"}`)
	l["passd.write_serve_us"] = metric{wServe, "us", 0}
	l["passd.query_serve_us"] = metric{qServe, "us", 0}
	// A window without a kind of request reads 0 for it, here and below:
	// a traced run reports every per-layer metric.
	edge := func(rtt lat, serve float64) metric {
		if serve == 0 || len(rtt) == 0 {
			return metric{0, "us", 0}
		}
		return metric{rtt.mean()*1e3 - serve, "us", len(rtt)}
	}
	l["passd.write_edge_us"] = edge(m.t.ack, wServe)
	l["passd.query_edge_us"] = edge(m.t.query, qServe)
	dq := float64(a.stats.Queries - b.stats.Queries)
	l["passd.shed_ratio"] = metric{ratio(float64(a.stats.Shed-b.stats.Shed), dq), "ratio", 0}
	l["passd.cache_hit_ratio"] = metric{ratio(float64(a.stats.CacheHits-b.stats.CacheHits), dq), "ratio", 0}
	l["pql.rows_per_query"] = metric{ratio(float64(m.t.rows), float64(m.t.queries)), "count", 0}

	recs := float64(r.ledger.records)
	l["record.bytes_per_rec"] = metric{ratio(float64(r.ledger.recBytes), recs), "B", 0}
	l["provlog.log_bytes_per_rec"] = metric{ratio(float64(r.primary().logBytes()), float64(final.Records)), "B", 0}
	l["waldo.prov_bytes_per_rec"] = metric{ratio(float64(final.ProvBytes), float64(final.Records)), "B", 0}
	l["waldo.idx_bytes_per_rec"] = metric{ratio(float64(final.IdxBytes), float64(final.Records)), "B", 0}
	l["waldo.backlog_s"] = metric{backlog, "s", 0}

	l["replica.commit_wait_us"] = metric{meanMicros(b.admin, a.admin, "passd_repl_commit_seconds", ""), "us", 0}
	l["replica.lag_bytes_max"] = metric{m.lagBytesMax, "B", 0}

	ck := float64(a.stats.Checkpoints - b.stats.Checkpoints)
	ckBytes := float64(a.stats.CheckpointFullBytes + a.stats.CheckpointDeltaBytes - b.stats.CheckpointFullBytes - b.stats.CheckpointDeltaBytes)
	l["checkpoint.count"] = metric{ck, "count", 0}
	l["checkpoint.delta_ratio"] = metric{ratio(float64(a.stats.CheckpointDeltas-b.stats.CheckpointDeltas), ck), "ratio", 0}
	l["checkpoint.bytes_per_user_byte"] = metric{ratio(ckBytes, float64(m.t.recBytes)), "ratio", 0}

	l["loadgen.lateness_p99_ms"] = metric{m.t.late.quantile(0.99), "ms", len(m.t.late)}
	l["loadgen.cpu_share"] = metric{ratio(m.selfCPU, m.selfCPU+m.cpuSeconds()), "ratio", 0}

	// Whole-window figures, next to the gated per-slice medians, and the
	// window figures too unstable to gate at all.
	l["diag.window_ack_p50_ms"] = metric{m.t.ack.quantile(0.50), "ms", len(m.t.ack)}
	l["diag.window_ack_p99_ms"] = metric{m.t.ack.quantile(0.99), "ms", len(m.t.ack)}
	l["diag.window_acked_rec_per_s"] = metric{ratio(float64(m.t.winRecords), m.win.seconds()), "rec/s", 0}
	l["diag.window_query_p99_ms"] = metric{m.t.query.quantile(0.99), "ms", len(m.t.query)}
}
