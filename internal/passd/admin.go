package passd

import (
	"net"
	"net/http"
	"time"

	"passv2/internal/health"
	"passv2/internal/metrics"
)

// The admin surface: a small HTTP listener (Config.AdminAddr or
// Config.AdminListener) serving /metrics in the Prometheus text format,
// /healthz (liveness) and /readyz (readiness). The metric families are
// deliberately read-through wherever a STATS counter already exists —
// both surfaces sample the same atomics, so they cannot disagree — and
// the handful of families only /metrics has (per-verb latency, per-lane
// in-flight, per-tenant accounting) are maintained on the serving path in
// Server.serve. DESIGN.md §12 is the name registry.

// serverMetrics bundles the registry and the families the serving path
// writes directly. Everything else is registered as a CounterFunc or
// GaugeFunc over the server's existing counters at construction.
type serverMetrics struct {
	reg *metrics.Registry

	requests      *metrics.CounterVec   // passd_requests_total{verb}
	requestErrors *metrics.CounterVec   // passd_request_errors_total{verb}
	latency       *metrics.HistogramVec // passd_request_seconds{verb}
	inflight      *metrics.GaugeVec     // passd_inflight{lane}
	shed          *metrics.CounterVec   // passd_shed_total{lane}

	tenantRequests *metrics.CounterVec // passd_tenant_requests_total{tenant}
	quotaRefused   *metrics.CounterVec // passd_quota_refused_total{tenant}
	tenantStaged   *metrics.CounterVec // passd_tenant_staged_bytes_total{tenant}
	tenantInflight *metrics.GaugeVec   // passd_tenant_inflight{tenant}

	replCommit  *metrics.Histogram // passd_repl_commit_seconds
	followerLag *metrics.GaugeVec  // passd_repl_follower_lag_bytes{follower}

	srv *Server
}

func newServerMetrics(s *Server) *serverMetrics {
	r := metrics.NewRegistry()
	m := &serverMetrics{reg: r, srv: s}

	m.requests = r.CounterVec("passd_requests_total",
		"Requests dispatched, by verb (refusals at admission are not dispatched).", "verb")
	m.requestErrors = r.CounterVec("passd_request_errors_total",
		"Dispatched requests that returned an error, by verb.", "verb")
	m.latency = r.HistogramVec("passd_request_seconds",
		"Server-side request latency in seconds, by verb.", metrics.DefBuckets, "verb")
	m.inflight = r.GaugeVec("passd_inflight",
		"Requests currently executing, by dispatch lane.", "lane")
	m.shed = r.CounterVec("passd_shed_total",
		"Requests refused with the overloaded code, by shedding point.", "lane")
	// Pre-create every lane child so the families export all lanes from
	// the first scrape — a dashboard should never have to guess whether a
	// missing series means zero or not-yet-created.
	for _, lane := range []string{laneSerial, laneConcurrent} {
		m.inflight.With(lane)
	}
	for _, lane := range []string{laneQueue, laneConn} {
		m.shed.With(lane)
	}

	m.tenantRequests = r.CounterVec("passd_tenant_requests_total",
		"Requests attempted by named tenants, including quota refusals.", "tenant")
	m.quotaRefused = r.CounterVec("passd_quota_refused_total",
		"Requests refused with the quota code, by tenant.", "tenant")
	m.tenantStaged = r.CounterVec("passd_tenant_staged_bytes_total",
		"Record-staging wire bytes admitted, by tenant.", "tenant")
	m.tenantInflight = r.GaugeVec("passd_tenant_inflight",
		"Admitted requests currently in flight, by tenant.", "tenant")

	// Serving-path counters the STATS verb already keeps: read-through, so
	// /metrics and STATS agree by construction.
	r.CounterFunc("passd_queries_total", "Query verb executions.", s.queries.Load)
	r.CounterFunc("passd_query_errors_total", "Queries that failed to parse or execute.", s.queryErrors.Load)
	r.CounterFunc("passd_query_timeouts_total", "Queries killed by their deadline.", s.timeouts.Load)
	r.CounterFunc("passd_cache_hits_total", "Queries answered from the snapshot result cache.", s.cacheHits.Load)
	r.CounterFunc("passd_cache_misses_total", "Queries that had to execute.", s.cacheMisses.Load)
	r.CounterFunc("passd_drains_total", "Drain verb executions.", s.drains.Load)
	r.CounterFunc("passd_mkobjs_total", "Phantom objects created over the wire.", s.mkobjs.Load)
	r.CounterFunc("passd_revives_total", "Phantom objects revived over the wire.", s.revives.Load)
	r.CounterFunc("passd_batches_total", "Batch pipelines executed.", s.batches.Load)
	r.CounterFunc("passd_staged_records_total", "Provenance records staged for commit.", s.appends.Load)

	r.GaugeFunc("passd_conns", "Open client connections.", func() float64 {
		return float64(s.ConnCount())
	})
	r.GaugeFunc("passd_v3_conns", "Connections past hello, speaking binary frames.", func() float64 {
		return float64(s.v3Conns.Load())
	})
	r.GaugeFunc("passd_workers", "Configured worker-pool size.", func() float64 {
		return float64(s.cfg.Workers)
	})
	r.GaugeFunc("passd_worker_queue", "Queries waiting for a worker slot.", func() float64 {
		return float64(s.waiting.Load())
	})
	r.GaugeFunc("passd_objects", "Live phantom objects in the registry.", func() float64 {
		return float64(s.reg.count())
	})
	r.GaugeFunc("passd_uptime_seconds", "Seconds since the daemon started serving.", func() float64 {
		return s.health.Uptime().Seconds()
	})

	// Ingest and database state.
	r.CounterFunc("passd_ingest_entries_total", "Log entries decoded into the database.", s.w.EntriesDecoded)
	r.GaugeFunc("passd_db_records", "Provenance records in the database.", func() float64 {
		records, _, _ := s.w.DB.Stats()
		return float64(records)
	})
	r.GaugeFunc("passd_db_generation", "Current database generation.", func() float64 {
		return float64(s.w.DB.Gen())
	})

	// Checkpointer.
	r.CounterFunc("passd_checkpoints_total", "Checkpoint generations written.", s.checkpoints.Load)
	r.CounterFunc("passd_checkpoint_errors_total", "Checkpoint attempts that failed.", s.checkpointErrors.Load)
	r.CounterFunc("passd_checkpoint_deltas_total", "Checkpoint generations written as deltas.", s.checkpointDeltas.Load)
	r.CounterFunc("passd_checkpoint_full_bytes_total", "Payload bytes committed as full snapshots.", s.checkpointFullBytes.Load)
	r.CounterFunc("passd_checkpoint_delta_bytes_total", "Payload bytes committed as delta generations.", s.checkpointDeltaBytes.Load)
	r.CounterFunc("passd_checkpoint_sweep_errors_total", "Committed generations whose post-commit retention sweep failed.", s.checkpointSweepErrors.Load)
	r.GaugeFunc("passd_checkpoint_generation", "Database generation of the last checkpoint.", func() float64 {
		return float64(s.lastCkptGen.Load())
	})
	r.GaugeFunc("passd_checkpoint_age_seconds", "Seconds since the last checkpoint committed (0 when none has).", func() float64 {
		at := s.lastCkptUnixNano.Load()
		if at == 0 {
			return 0
		}
		return time.Since(time.Unix(0, at)).Seconds()
	})

	// Replication. The scalar families always exist (zero on a daemon
	// that neither replicates nor follows); the per-follower lag gauge is
	// refreshed from the primary's follower table at scrape time.
	m.replCommit = r.Histogram("passd_repl_commit_seconds",
		"Quorum commit latency inside the durable-ack barrier.", metrics.DefBuckets)
	m.followerLag = r.GaugeVec("passd_repl_follower_lag_bytes",
		"Primary log bytes not yet durably acked, by follower.", "follower")
	r.CounterFunc("passd_repl_quorum_failures_total", "Durable acks refused for lack of quorum.", s.quorumFailures.Load)
	r.GaugeFunc("passd_repl_quorum", "Configured write quorum (0 when not a primary).", func() float64 {
		if p := s.cfg.Replicate; p != nil {
			return float64(p.Quorum())
		}
		return 0
	})
	r.GaugeFunc("passd_repl_followers", "Registered followers (primary only).", func() float64 {
		if p := s.cfg.Replicate; p != nil {
			return float64(len(p.Followers()))
		}
		return 0
	})
	r.GaugeFunc("passd_repl_connected", "Followers currently connected (primary only).", func() float64 {
		p := s.cfg.Replicate
		if p == nil {
			return 0
		}
		var n int
		for _, f := range p.Followers() {
			if f.Connected {
				n++
			}
		}
		return float64(n)
	})
	r.GaugeFunc("passd_repl_log_bytes", "Durable replicated log bytes (follower only).", func() float64 {
		if f := s.cfg.Follower; f != nil {
			return float64(f.Size())
		}
		return 0
	})

	// Tamper evidence (DESIGN.md §13). The recovery-skip breakdown is
	// fixed at boot — recovery ran before the server existed — so the
	// family is populated once here; the bounded reason set keeps
	// cardinality in check.
	skips := r.CounterVec("passd_recovery_skipped_generations_total",
		"Checkpoint generations recovery skipped at boot, by reason class.", "reason")
	if rec := s.cfg.Recovered; rec != nil {
		for _, sk := range rec.Skipped {
			skips.With(skipClass(sk.Class)).Inc()
		}
	}
	r.CounterFunc("passd_fork_refusals_total", "Replicated appends refused because the stream diverged from local history.", s.forkRefusals.Load)
	r.CounterFunc("passd_verify_total", "Verify verb executions (signed roots and Merkle proofs served).", s.verifies.Load)
	r.GaugeFunc("passd_mmr_leaves", "Leaves in the live provenance-log Merkle mountain range.", func() float64 {
		if t := s.cfg.Tamper; t != nil {
			return float64(t.MMR().Count())
		}
		return 0
	})
	r.GaugeFunc("passd_mmr_pruned", "Whether the live MMR is pruned (1, proofs need rehydration) or full (0).", func() float64 {
		if t := s.cfg.Tamper; t != nil && t.MMR().Pruned() {
			return 1
		}
		return 0
	})

	return m
}

// refresh recomputes the scrape-time families that are not read-through:
// today, only the per-follower replication lag.
func (m *serverMetrics) refresh() {
	p := m.srv.cfg.Replicate
	if p == nil {
		return
	}
	size, err := p.SourceSize()
	if err != nil {
		return // keep the last values rather than exporting garbage
	}
	for _, f := range p.Followers() {
		lag := size - f.Acked
		if lag < 0 {
			lag = 0
		}
		m.followerLag.With(f.Addr).Set(float64(lag))
	}
}

// verbCounts snapshots passd_requests_total for Stats.Verbs.
func (m *serverMetrics) verbCounts() map[string]int64 {
	out := make(map[string]int64)
	m.requests.Each(func(values []string, c *metrics.Counter) {
		if v := c.Value(); v > 0 {
			out[values[0]] = v
		}
	})
	if len(out) == 0 {
		return nil
	}
	return out
}

// tenantSnapshot assembles Stats.Tenants from the per-tenant families.
// Every named tenant that ever sent a request appears (admitTenant counts
// before it refuses, so refusal-only tenants are included too).
func (m *serverMetrics) tenantSnapshot() map[string]TenantStats {
	out := make(map[string]TenantStats)
	m.tenantRequests.Each(func(values []string, c *metrics.Counter) {
		t := values[0]
		out[t] = TenantStats{
			Requests:    c.Value(),
			Refused:     m.quotaRefused.With(t).Value(),
			StagedBytes: m.tenantStaged.With(t).Value(),
			InFlight:    int64(m.tenantInflight.With(t).Value()),
		}
	})
	if len(out) == 0 {
		return nil
	}
	return out
}

// startAdmin binds and serves the admin endpoints when configured; a nil
// return with no listener means the admin surface is simply off.
func (s *Server) startAdmin() error {
	ln := s.cfg.AdminListener
	if ln == nil {
		if s.cfg.AdminAddr == "" {
			return nil
		}
		var err error
		ln, err = net.Listen("tcp", s.cfg.AdminAddr)
		if err != nil {
			return err
		}
	}
	s.adminLn = ln

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.met.refresh()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.met.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.health.Live().WriteText(w)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		rep := s.health.Ready()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !rep.OK {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		rep.WriteText(w)
	})
	s.admin = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.admin.Serve(ln) // returns once Close tears the listener down
	}()
	return nil
}

// AdminAddr reports the bound admin listen address, or "" when the admin
// surface is off.
func (s *Server) AdminAddr() string {
	if s.adminLn == nil {
		return ""
	}
	return s.adminLn.Addr().String()
}

// Metrics exposes the server's registry — the tests' non-HTTP path to the
// exact families /metrics serves.
func (s *Server) Metrics() *metrics.Registry { return s.met.reg }

// Health exposes the server's health checker.
func (s *Server) Health() *health.Checker { return s.health }
