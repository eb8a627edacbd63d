package passd

// Serving-edge observability tests (DESIGN.md §12): the admin endpoint
// smoke, the metrics/STATS consistency property, and the per-tenant
// quota properties. The consistency test is the load-bearing one: every
// counter /metrics exports must agree with the STATS verb and with a
// client-side ledger of what was actually offered, after a randomized
// multi-tenant workload — the two surfaces read the same atomics, and
// this test is what keeps that true as the serving path evolves.

import (
	"errors"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"passv2/internal/metrics"
)

// requiredFamilies is the admin contract from DESIGN.md §12: families a
// dashboard may assume exist on every daemon, whatever its role.
var requiredFamilies = []string{
	"passd_requests_total",
	"passd_request_errors_total",
	"passd_request_seconds",
	"passd_inflight",
	"passd_shed_total",
	"passd_queries_total",
	"passd_query_errors_total",
	"passd_cache_hits_total",
	"passd_cache_misses_total",
	"passd_staged_records_total",
	"passd_ingest_entries_total",
	"passd_conns",
	"passd_workers",
	"passd_uptime_seconds",
	"passd_db_records",
	"passd_db_generation",
	"passd_checkpoint_generation",
	"passd_checkpoint_age_seconds",
	"passd_repl_commit_seconds",
	"passd_repl_quorum_failures_total",
}

// sampleKey renders one labeled Gather key, e.g.
// passd_requests_total{verb="query"}.
func sampleKey(name, label, value string) string {
	return metrics.SampleKey(name, label+`="`+value+`"`)
}

// hasFamily reports whether a scraped sample set contains any series of
// the named family (bare, labeled, or histogram-suffixed).
func hasFamily(samples map[string]float64, name string) bool {
	if _, ok := samples[name]; ok {
		return true
	}
	if _, ok := samples[name+"_count"]; ok {
		return true
	}
	for k := range samples {
		if strings.HasPrefix(k, name+"{") || strings.HasPrefix(k, name+"_count{") {
			return true
		}
	}
	return false
}

// TestAdminEndpoints is the admin-surface smoke CI runs: a daemon with
// the admin listener on, a little traffic, then /metrics must parse as
// Prometheus text and agree with the in-process registry, /healthz and
// /readyz must answer, and readiness must track the checker.
func TestAdminEndpoints(t *testing.T) {
	w, query := testWaldo(8)
	srv := startServer(t, w, Config{AdminAddr: "127.0.0.1:0"})
	if srv.AdminAddr() == "" {
		t.Fatal("AdminAddr is empty with the admin listener configured")
	}
	c := dialClient(t, srv)

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Query(query); err != nil {
			t.Fatalf("query: %v", err)
		}
	}
	if _, err := c.Query("select ! bad"); err == nil {
		t.Fatal("bad query did not error")
	}

	resp, err := http.Get("http://" + srv.AdminAddr() + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("GET /metrics: Content-Type %q is not Prometheus text 0.0.4", ct)
	}
	scraped, err := metrics.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("scrape did not parse as Prometheus text: %v", err)
	}
	for _, fam := range requiredFamilies {
		if !hasFamily(scraped, fam) {
			t.Errorf("scrape is missing required family %s", fam)
		}
	}
	// The scrape and the in-process registry are the same surface: every
	// series name must appear in both (values may drift for clocks).
	gathered := srv.Metrics().Gather()
	for k := range scraped {
		if _, ok := gathered[k]; !ok {
			t.Errorf("scraped series %s absent from Gather()", k)
		}
	}
	for k := range gathered {
		if _, ok := scraped[k]; !ok {
			t.Errorf("gathered series %s absent from the scrape", k)
		}
	}
	if got := scraped[`passd_requests_total{verb="query"}`]; got != 3 {
		t.Errorf(`passd_requests_total{verb="query"} = %v, want 3`, got)
	}
	if got := scraped[`passd_request_errors_total{verb="query"}`]; got != 1 {
		t.Errorf(`passd_request_errors_total{verb="query"} = %v, want 1`, got)
	}
	if got := scraped["passd_queries_total"]; got != 3 {
		t.Errorf("passd_queries_total = %v, want 3", got)
	}
	if got := scraped[`passd_request_seconds_count{verb="ping"}`]; got != 1 {
		t.Errorf(`passd_request_seconds_count{verb="ping"} = %v, want 1`, got)
	}

	get := func(path string) int {
		resp, err := http.Get("http://" + srv.AdminAddr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", code)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz = %d, want 200", code)
	}
	srv.Health().SetReady(false)
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after SetReady(false) = %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz must stay 200 while unready, got %d", code)
	}
	srv.Health().SetReady(true)
	if code := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz after SetReady(true) = %d, want 200", code)
	}

	addr := srv.AdminAddr()
	srv.Close()
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("admin endpoint still answers after Close")
	}
}

// consistencyLedger is the harness's ground truth for the consistency
// property: what each client actually offered, dispatched, and had
// refused, merged across workers.
type consistencyLedger struct {
	mu       sync.Mutex
	verbs    map[string]int64 // dispatched requests per verb (refusals excluded)
	verbErrs map[string]int64 // dispatched requests that errored, per verb
	attempts map[string]int64 // offered requests per tenant (refusals included)
	refused  map[string]int64 // quota refusals per tenant
}

func (l *consistencyLedger) merge(verbs, verbErrs map[string]int64, tenant string, attempts, refused int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for v, n := range verbs {
		l.verbs[v] += n
	}
	for v, n := range verbErrs {
		l.verbErrs[v] += n
	}
	if tenant != "" {
		l.attempts[tenant] += attempts
		l.refused[tenant] += refused
	}
}

// TestMetricsStatsConsistency drives a randomized multi-tenant workload
// — an unattributed client, a free-running tenant, and a byte-capped
// tenant whose disclosures always exceed its rate — then requires three
// surfaces to agree exactly: the harness ledger, the STATS verb, and the
// metrics registry /metrics serves.
func TestMetricsStatsConsistency(t *testing.T) {
	w, query := testWaldo(16)
	srv := startServer(t, w, Config{
		TenantQuotas: map[string]TenantQuota{
			// One token per second and a full-at-boot bucket of one: any
			// real disclosure exceeds it, so bob's staging refusals are
			// deterministic while his reads flow freely.
			"bob": {StagedBytesPerSec: 1},
		},
	})

	opts := func(tenant string) Options {
		return Options{MaxRetries: -1, Tenant: tenant}
	}
	cAnon, err := DialOptions(srv.Addr(), opts(""))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cAnon.Close() })
	cAlice, err := DialOptions(srv.Addr(), opts("alice"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cAlice.Close() })
	cBob, err := DialOptions(srv.Addr(), opts("bob"))
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { cBob.Close() })

	ledger := &consistencyLedger{
		verbs:    map[string]int64{},
		verbErrs: map[string]int64{},
		attempts: map[string]int64{},
		refused:  map[string]int64{},
	}

	// Each worker executes a fixed multiset of operations in an order
	// shuffled by its own generator: randomized interleaving, exact
	// expected counts.
	mix := func(op string, n int) []string {
		ops := make([]string, n)
		for i := range ops {
			ops[i] = op
		}
		return ops
	}
	baseMix := append(append(append(mix("ping", 8), mix("query", 10)...),
		append(mix("badquery", 4), mix("explain", 4)...)...),
		append(append(mix("stats", 2), mix("drain", 2)...), mix("append", 6)...)...)

	run := func(worker int, c *Client, tenant string, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		ops := append([]string(nil), baseMix...)
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		verbs := map[string]int64{"hello": 1} // ensureLocked's negotiation
		verbErrs := map[string]int64{}
		attempts := int64(1) // the hello is tenant-attributed too
		var refused int64
		for round, op := range ops {
			attempts++
			var err error
			switch op {
			case "ping":
				verbs["ping"]++
				err = c.Ping()
			case "query":
				verbs["query"]++
				_, err = c.Query(query)
			case "badquery":
				verbs["query"]++
				if _, err := c.Query("select ! bad"); err == nil {
					t.Error("bad query did not error")
				}
				verbErrs["query"]++
			case "explain":
				verbs["explain"]++
				_, err = c.Explain(query)
			case "stats":
				verbs["stats"]++
				_, err = c.Stats()
			case "drain":
				verbs["drain"]++
				_, err = c.Drain()
			case "append":
				err = c.AppendProvenance(soakBatch(worker, round))
				if errors.Is(err, ErrQuotaExceeded) {
					// Refused at admission: never dispatched, so it must
					// not appear in the verb counters.
					refused++
					err = nil
				} else {
					verbs["write"]++
				}
			}
			if err != nil {
				t.Errorf("worker %d op %s: %v", worker, op, err)
			}
		}
		ledger.merge(verbs, verbErrs, tenant, attempts, refused)
	}

	var wg sync.WaitGroup
	for i, cl := range []struct {
		c      *Client
		tenant string
	}{{cAnon, ""}, {cAlice, "alice"}, {cBob, "bob"}} {
		wg.Add(1)
		go func(worker int, c *Client, tenant string) {
			defer wg.Done()
			run(worker, c, tenant, int64(worker))
		}(i, cl.c, cl.tenant)
	}
	wg.Wait()

	// Per-request tenant override: an unattributed connection naming a
	// tenant on one request bills that request to the tenant.
	if _, err := cAnon.roundTrip(&Request{Op: "ping", Tenant: "alice"}); err != nil {
		t.Fatalf("tenant-override ping: %v", err)
	}
	ledger.merge(map[string]int64{"ping": 1}, nil, "alice", 1, 0)

	// The final STATS read is itself a dispatched request.
	ledger.verbs["stats"]++
	st, err := cAnon.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	g := srv.Metrics().Gather()

	// Surface 1 vs ledger: the STATS verb.
	if !reflect.DeepEqual(st.Verbs, ledger.verbs) {
		t.Errorf("STATS verb counts disagree with the ledger:\nstats:  %v\nledger: %v", st.Verbs, ledger.verbs)
	}
	if bobRefused := ledger.refused["bob"]; st.QuotaRefusals != bobRefused || bobRefused == 0 {
		t.Errorf("STATS quota_refusals = %d, ledger refused %d (want equal and nonzero)", st.QuotaRefusals, bobRefused)
	}
	if len(st.Tenants) != 2 {
		t.Errorf("STATS tenants = %v, want exactly alice and bob (the empty tenant must never be accounted)", st.Tenants)
	}
	for _, tenant := range []string{"alice", "bob"} {
		ts, ok := st.Tenants[tenant]
		if !ok {
			t.Errorf("STATS has no tenant %q", tenant)
			continue
		}
		if ts.Requests != ledger.attempts[tenant] {
			t.Errorf("tenant %s: STATS requests %d, ledger offered %d", tenant, ts.Requests, ledger.attempts[tenant])
		}
		if ts.Refused != ledger.refused[tenant] {
			t.Errorf("tenant %s: STATS refused %d, ledger %d", tenant, ts.Refused, ledger.refused[tenant])
		}
		if ts.InFlight != 0 {
			t.Errorf("tenant %s: %d requests still in flight after quiesce", tenant, ts.InFlight)
		}
	}
	if st.Tenants["alice"].StagedBytes == 0 {
		t.Error("alice staged no bytes despite admitted disclosures")
	}
	if st.Tenants["bob"].StagedBytes != 0 {
		t.Errorf("bob staged %d bytes despite every disclosure being refused", st.Tenants["bob"].StagedBytes)
	}

	// Surface 2 vs ledger and STATS: the metrics registry.
	sample := func(key string) float64 { return g[key] }
	for verb, n := range ledger.verbs {
		if got := sample(sampleKey("passd_requests_total", "verb", verb)); got != float64(n) {
			t.Errorf("metrics requests{verb=%s} = %v, ledger %d", verb, got, n)
		}
		if got := sample(sampleKey("passd_request_seconds_count", "verb", verb)); got != float64(n) {
			t.Errorf("metrics latency count{verb=%s} = %v, ledger %d (every dispatched request must be timed)", verb, got, n)
		}
		if got := sample(sampleKey("passd_request_errors_total", "verb", verb)); got != float64(ledger.verbErrs[verb]) {
			t.Errorf("metrics errors{verb=%s} = %v, ledger %d", verb, got, ledger.verbErrs[verb])
		}
	}
	for tenant, n := range ledger.attempts {
		if got := sample(sampleKey("passd_tenant_requests_total", "tenant", tenant)); got != float64(n) {
			t.Errorf("metrics tenant_requests{tenant=%s} = %v, ledger %d", tenant, got, n)
		}
		if got := sample(sampleKey("passd_quota_refused_total", "tenant", tenant)); got != float64(ledger.refused[tenant]) {
			t.Errorf("metrics quota_refused{tenant=%s} = %v, ledger %d", tenant, got, ledger.refused[tenant])
		}
	}
	for _, lane := range []string{laneSerial, laneConcurrent} {
		if got := sample(sampleKey("passd_inflight", "lane", lane)); got != 0 {
			t.Errorf("metrics inflight{lane=%s} = %v after quiesce", lane, got)
		}
	}
	crossChecks := map[string]int64{
		"passd_queries_total":        st.Queries,
		"passd_query_errors_total":   st.QueryErrors,
		"passd_cache_hits_total":     st.CacheHits,
		"passd_cache_misses_total":   st.CacheMisses,
		"passd_drains_total":         st.Drains,
		"passd_staged_records_total": st.Appends,
		"passd_conns":                st.Conns,
	}
	for key, want := range crossChecks {
		if got := sample(key); got != float64(want) {
			t.Errorf("metrics %s = %v, STATS says %d", key, got, want)
		}
	}
	shedSum := sample(sampleKey("passd_shed_total", "lane", laneQueue)) +
		sample(sampleKey("passd_shed_total", "lane", laneConn))
	if shedSum != float64(st.Shed) {
		t.Errorf("metrics shed lanes sum to %v, STATS says %d", shedSum, st.Shed)
	}
}

// TestQuotaProperties pins the quota admission properties down at both
// levels: the admission primitive directly (in-flight cap semantics) and
// over the wire (conservation of offered = accepted + refused per
// tenant, refusals confined to over-cap tenants, idle quota'd tenants
// never penalized or even accounted).
func TestQuotaProperties(t *testing.T) {
	w, query := testWaldo(8)
	srv := startServer(t, w, Config{
		TenantQuotas: map[string]TenantQuota{
			"cap":   {MaxInFlight: 1},
			"tiny":  {StagedBytesPerSec: 1},
			"burst": {MaxInFlight: 2},
			"idle":  {MaxInFlight: 1},
		},
	})

	// The admission primitive: an in-flight cap of one admits serially
	// and refuses concurrently, and release restores capacity.
	rel1, err := srv.admitTenant("cap", verbFor("query"), 0)
	if err != nil {
		t.Fatalf("first admit under cap: %v", err)
	}
	if _, err := srv.admitTenant("cap", verbFor("query"), 0); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second concurrent admit = %v, want ErrQuotaExceeded", err)
	}
	rel1()
	rel2, err := srv.admitTenant("cap", verbFor("query"), 0)
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	rel2()
	if rel, err := srv.admitTenant("", verbFor("query"), 1<<30); err != nil {
		t.Fatalf("the empty tenant must never be limited, got %v", err)
	} else {
		rel()
	}

	dial := func(tenant string) *Client {
		c, err := DialOptions(srv.Addr(), Options{MaxRetries: -1, Tenant: tenant})
		if err != nil {
			t.Fatalf("dial %s: %v", tenant, err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}

	// Deterministic byte-rate refusals: every disclosure exceeds tiny's
	// one-byte bucket, every read passes.
	const tinyAppends, tinyPings = 12, 5
	cTiny := dial("tiny")
	if err := cTiny.Ping(); err != nil { // hello + prime
		t.Fatalf("tiny prime: %v", err)
	}
	for i := 0; i < tinyAppends; i++ {
		if err := cTiny.AppendProvenance(soakBatch(90, i)); !errors.Is(err, ErrQuotaExceeded) {
			t.Fatalf("tiny append %d = %v, want ErrQuotaExceeded", i, err)
		}
	}
	for i := 0; i < tinyPings; i++ {
		if err := cTiny.Ping(); err != nil {
			t.Fatalf("tiny ping %d: %v (non-staging verbs must not be byte-limited)", i, err)
		}
	}

	// A tenant with no configured quota is accounted but never refused.
	const freeOps = 10
	cFree := dial("free")
	for i := 0; i < freeOps; i++ {
		if err := cFree.AppendProvenance(soakBatch(91, i)); err != nil {
			t.Fatalf("free append %d: %v", i, err)
		}
	}

	// Conservation under contention: six connections share the burst
	// tenant (in-flight cap two) and hammer queries concurrently. Some
	// are refused; offered must equal accepted + refused exactly.
	const burstClients, burstOps = 6, 30
	burst := make([]*Client, burstClients)
	for i := range burst {
		burst[i] = dial("burst")
		if err := burst[i].Ping(); err != nil { // serial prime: hello under cap
			t.Fatalf("burst prime %d: %v", i, err)
		}
	}
	var accepted, refused int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, c := range burst {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			var ok, rej int64
			for n := 0; n < burstOps; n++ {
				_, err := c.Query(query)
				switch {
				case err == nil:
					ok++
				case errors.Is(err, ErrQuotaExceeded):
					rej++
				default:
					t.Errorf("burst client %d: unexpected error %v", i, err)
				}
			}
			mu.Lock()
			accepted += ok
			refused += rej
			mu.Unlock()
		}(i, c)
	}
	wg.Wait()
	if accepted+refused != burstClients*burstOps {
		t.Fatalf("burst ledger leaked answers: accepted %d + refused %d != offered %d",
			accepted, refused, burstClients*burstOps)
	}

	cAnon := dialClient(t, srv)
	st, err := cAnon.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	g := srv.Metrics().Gather()

	type want struct{ offered, refused int64 }
	wants := map[string]want{
		"tiny":  {2 + tinyAppends + tinyPings, tinyAppends}, // hello + prime + appends + pings
		"free":  {1 + freeOps, 0},                           // hello + appends
		"burst": {2*burstClients + burstClients*burstOps, refused},
	}
	for tenant, wantTS := range wants {
		ts, ok := st.Tenants[tenant]
		if !ok {
			t.Errorf("STATS has no tenant %q", tenant)
			continue
		}
		if ts.Requests != wantTS.offered || ts.Refused != wantTS.refused {
			t.Errorf("tenant %s: STATS offered/refused = %d/%d, ledger %d/%d",
				tenant, ts.Requests, ts.Refused, wantTS.offered, wantTS.refused)
		}
		if got := g[sampleKey("passd_tenant_requests_total", "tenant", tenant)]; got != float64(wantTS.offered) {
			t.Errorf("tenant %s: metrics offered %v, ledger %d", tenant, got, wantTS.offered)
		}
		if got := g[sampleKey("passd_quota_refused_total", "tenant", tenant)]; got != float64(wantTS.refused) {
			t.Errorf("tenant %s: metrics refused %v, ledger %d", tenant, got, wantTS.refused)
		}
	}

	// The idle tenant offered nothing: it must not appear on any surface.
	if _, ok := st.Tenants["idle"]; ok {
		t.Error("idle tenant appears in STATS despite offering nothing")
	}
	for k := range g {
		if strings.Contains(k, `tenant="idle"`) {
			t.Errorf("idle tenant appears on /metrics as %s despite offering nothing", k)
		}
	}
}
