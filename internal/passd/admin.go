package passd

import (
	"encoding/hex"
	"net"
	"net/http"
	"reflect"
	"strings"
	"time"

	"passv2/internal/checkpoint"
	"passv2/internal/health"
	"passv2/internal/metrics"
)

// The admin surface: a small HTTP listener (Config.AdminAddr or
// Config.AdminListener) serving /metrics in the Prometheus text format,
// /healthz (liveness) and /readyz (readiness). The registry is the only
// place a serving number lives: event counters are registry instruments
// the serving path increments, state owned elsewhere is read through at
// sample time, and the STATS verb is a view of the same families (see
// stats below). DESIGN.md §12 is the name registry.

// serverMetrics bundles the registry and the instruments the serving
// path writes directly. Everything else is registered as a CounterFunc or
// GaugeFunc over state the server or its components already keep.
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

	// Serving-path event counters.
	queries, queryErrors, timeouts, cacheHits, cacheMisses *metrics.Counter
	drains, appends, mkobjs, revives, batches              *metrics.Counter
	quorumFailures, forkRefusals, verifies                 *metrics.Counter

	// Checkpointer outcomes. Full and delta payload bytes are kept apart,
	// and a committed generation whose post-commit retention sweep failed
	// counts as a sweep error (housekeeping lag), not a checkpoint error.
	checkpoints, checkpointErrors, checkpointDeltas                  *metrics.Counter
	checkpointFullBytes, checkpointDeltaBytes, checkpointSweepErrors *metrics.Counter

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

	m.queries = r.Counter("passd_queries_total", "Query verb executions.")
	m.queryErrors = r.Counter("passd_query_errors_total", "Queries that failed to parse or execute.")
	m.timeouts = r.Counter("passd_query_timeouts_total", "Queries killed by their deadline.")
	m.cacheHits = r.Counter("passd_cache_hits_total", "Queries answered from the snapshot result cache.")
	m.cacheMisses = r.Counter("passd_cache_misses_total", "Queries that had to execute.")
	m.drains = r.Counter("passd_drains_total", "Drain verb executions.")
	m.mkobjs = r.Counter("passd_mkobjs_total", "Phantom objects created over the wire.")
	m.revives = r.Counter("passd_revives_total", "Phantom objects revived over the wire.")
	m.batches = r.Counter("passd_batches_total", "Batch pipelines executed.")
	m.appends = r.Counter("passd_staged_records_total", "Provenance records staged for commit.")

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

	// Ingest and database state. DB.Stats reads the live counters without
	// pinning a view (a view would bump the store's write epoch and make
	// the ingest writer re-clone every node it touches next batch).
	r.CounterFunc("passd_ingest_entries_total", "Log entries decoded into the database.", s.w.EntriesDecoded)
	r.GaugeFunc("passd_db_records", "Provenance records in the database.", func() float64 {
		records, _, _ := s.w.DB.Stats()
		return float64(records)
	})
	r.GaugeFunc("passd_db_prov_bytes", "Bytes of provenance records in the database.", func() float64 {
		_, prov, _ := s.w.DB.Stats()
		return float64(prov)
	})
	r.GaugeFunc("passd_db_index_bytes", "Bytes of index entries in the database.", func() float64 {
		_, _, idx := s.w.DB.Stats()
		return float64(idx)
	})
	r.GaugeFunc("passd_db_generation", "Current database generation.", func() float64 {
		return float64(s.w.DB.Gen())
	})

	// Checkpointer.
	m.checkpoints = r.Counter("passd_checkpoints_total", "Checkpoint generations written.")
	m.checkpointErrors = r.Counter("passd_checkpoint_errors_total", "Checkpoint attempts that failed.")
	m.checkpointDeltas = r.Counter("passd_checkpoint_deltas_total", "Checkpoint generations written as deltas.")
	m.checkpointFullBytes = r.Counter("passd_checkpoint_full_bytes_total", "Payload bytes committed as full snapshots.")
	m.checkpointDeltaBytes = r.Counter("passd_checkpoint_delta_bytes_total", "Payload bytes committed as delta generations.")
	m.checkpointSweepErrors = r.Counter("passd_checkpoint_sweep_errors_total", "Committed generations whose post-commit retention sweep failed.")
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
	m.quorumFailures = r.Counter("passd_repl_quorum_failures_total", "Durable acks refused for lack of quorum.")
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

	// Recovery ran before the server existed, so what it did is fixed at
	// boot and set once here; the bounded skip-reason set keeps the vec's
	// cardinality in check.
	rec := s.cfg.Recovered
	if rec == nil {
		rec = &checkpoint.Recovered{} // no checkpoint store: nothing recovered
	}
	r.Gauge("passd_recovered_generation", "Checkpoint generation recovered at boot (0 on a cold start).").Set(float64(rec.Gen))
	r.Gauge("passd_recovered_records", "Records in the snapshot recovered at boot.").Set(float64(rec.Records))
	r.Gauge("passd_recovery_resume_bytes", "Log bytes the recovered checkpoint let boot skip.").Set(float64(rec.ResumeBytes()))
	skips := r.CounterVec("passd_recovery_skipped_generations_total",
		"Checkpoint generations recovery skipped at boot, by reason class.", "reason")
	for _, sk := range rec.Skipped {
		class := sk.Class
		if class == "" { // generations from before skips were classified
			class = checkpoint.SkipOther
		}
		skips.With(class).Inc()
	}

	// Tamper evidence (DESIGN.md §13).
	m.forkRefusals = r.Counter("passd_fork_refusals_total", "Replicated appends refused because the stream diverged from local history.")
	m.verifies = r.Counter("passd_verify_total", "Verify verb executions (signed roots and Merkle proofs served).")
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

// stats builds the STATS payload as a view of the registry: every field
// but Role and MMRRoot names its family in a `metric` tag. Those two are
// strings, not metrics, and are set here.
func (m *serverMetrics) stats() *Stats {
	st := &Stats{}
	fillFromRegistry(m.reg, reflect.ValueOf(st).Elem())
	s := m.srv
	switch {
	case s.cfg.Follower != nil:
		st.Role = "follower"
	case s.cfg.Replicate != nil:
		st.Role = "primary"
	}
	if t := s.cfg.Tamper; t != nil {
		root := t.MMR().Root()
		st.MMRRoot = hex.EncodeToString(root[:])
	}
	return st
}

// fillFromRegistry sets each `metric`-tagged field of the struct v: a
// scalar family's value, a ",sum" vec's total, or a map keyed by a vec's
// nonzero children. A map's struct elements read each of their own
// families once, at every key, so a STATS call stays linear in tenants.
func fillFromRegistry(reg *metrics.Registry, v reflect.Value) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		tag, ok := t.Field(i).Tag.Lookup("metric")
		if !ok {
			continue
		}
		name, sum := strings.CutSuffix(tag, ",sum")
		f := v.Field(i)
		if !sum && f.Kind() != reflect.Map {
			n, _ := reg.Value(name)
			setNumber(f, n)
			continue
		}
		children, _ := reg.Children(name)
		if sum {
			var total float64
			for _, n := range children {
				total += n
			}
			setNumber(f, total)
			continue
		}
		et := f.Type().Elem()
		elems := make(map[string]reflect.Value)
		for k, n := range children {
			if n != 0 {
				elems[k] = reflect.New(et).Elem()
				if et.Kind() != reflect.Struct {
					setNumber(elems[k], n)
				}
			}
		}
		for j := 0; et.Kind() == reflect.Struct && j < et.NumField(); j++ {
			at, _ := reg.Children(et.Field(j).Tag.Get("metric"))
			for k, e := range elems {
				setNumber(e.Field(j), at[k])
			}
		}
		for k, e := range elems {
			if f.IsNil() {
				f.Set(reflect.MakeMapWithSize(f.Type(), len(elems)))
			}
			f.SetMapIndex(reflect.ValueOf(k), e)
		}
	}
}

// setNumber stores a sample into an integer or boolean field; every
// STATS number is a count, a size or a flag, so it converts exactly.
func setNumber(f reflect.Value, n float64) {
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		f.SetInt(int64(n))
	case reflect.Uint64:
		f.SetUint(uint64(n))
	case reflect.Bool:
		f.SetBool(n != 0)
	default:
		panic("passd: STATS field of kind " + f.Kind().String() + " cannot hold a metric")
	}
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
