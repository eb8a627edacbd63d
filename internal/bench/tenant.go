package bench

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"passv2/internal/metrics"
	"passv2/internal/passd"
	"passv2/internal/record"
	"passv2/internal/waldo"
)

// The noisy-tenant isolation benchmark: a "victim" tenant running cheap
// point queries shares one small daemon (4 workers, short queue) with a
// "noisy" tenant offering 10x the victim's session count in heavy
// disclosure traffic. Three arms answer the isolation question:
//
//   - baseline: the victim alone (quotas configured but nobody to limit)
//     pins what its latency looks like on an idle daemon;
//   - quotas off: victim + noisy with no TenantQuotas — the noisy
//     tenant's load sheds the shared worker queue and the victim's p99
//     inflates by its client's retry backoff;
//   - quotas on: the same pair, with the noisy tenant capped. Its
//     requests are refused at admission with the "quota" code before
//     they can occupy workers, and the victim's p99 stays within a small
//     factor of baseline.
//
// The quotas-on arm also cross-checks the admin surface while the swarm
// runs: a mid-run /metrics scrape must parse and carry the required
// families, and a post-quiesce scrape must agree with the STATS verb
// counter for counter.

// Tenant-arm shape: the victim offers a tenth of the noisy tenant's
// sessions, on a deliberately small daemon so the noisy tenant can
// actually crowd the victim out when nothing stops it.
const (
	tenantVictimSessions = 4
	tenantVictimConns    = 2
	tenantNoisySessions  = 40
	tenantNoisyConns     = 8
	tenantWorkers        = 4
	tenantMaxQueue       = 8

	// victimP99FloorMs keeps degradation ratios meaningful: cached point
	// queries answer in ~100µs, where a single GC pause would swamp the
	// ratio. Both arms divide by max(baseline p99, this floor).
	victimP99FloorMs = 1.0
)

// tenantNoisyQuota is the quotas-on arm's cap for the noisy tenant: two
// requests in flight (of a 4-worker daemon) and a disclosure budget far
// under its offered load.
func tenantNoisyQuota() map[string]passd.TenantQuota {
	return map[string]passd.TenantQuota{
		"noisy": {MaxInFlight: 2, StagedBytesPerSec: 256 << 10},
	}
}

// TenantArm is one arm of the noisy-tenant comparison.
type TenantArm struct {
	VictimOps    int64   `json:"victim_ops"`    // victim queries completed
	VictimErrors int64   `json:"victim_errors"` // victim requests that exhausted retries
	VictimP50Ms  float64 `json:"victim_p50_ms"` // victim per-op wall time, incl. retry backoff
	VictimP99Ms  float64 `json:"victim_p99_ms"`
	NoisyOps     int64   `json:"noisy_ops"`     // noisy requests that succeeded
	NoisyRefused int64   `json:"noisy_refused"` // server-side quota refusals for "noisy"
	Shed         int64   `json:"shed"`          // server-side overload shed (all lanes)
}

// TenantIsolation reports the three-arm noisy-tenant benchmark. The
// degradation ratios are victim p99 over baseline p99 (floored at
// victimP99FloorMs); `isolated` is the claim CI gates on.
type TenantIsolation struct {
	Secs           float64 `json:"secs"`
	VictimSessions int     `json:"victim_sessions"`
	VictimConns    int     `json:"victim_conns"`
	NoisySessions  int     `json:"noisy_sessions"`
	NoisyConns     int     `json:"noisy_conns"`

	Baseline  TenantArm `json:"baseline"`
	QuotasOn  TenantArm `json:"quotas_on"`
	QuotasOff TenantArm `json:"quotas_off"`

	DegradationOn     float64 `json:"degradation_on"`
	DegradationOff    float64 `json:"degradation_off"`
	NoisyRefusedOn    int64   `json:"noisy_refused_on"`
	MetricsConsistent bool    `json:"metrics_consistent"`
	Isolated          bool    `json:"isolated"`
}

// tolerableTenantErr classifies the refusals a loaded daemon hands out on
// purpose: overload, quota, and retries exhausted on either. Anything
// else fails the arm.
func tolerableTenantErr(err error) bool {
	return errors.Is(err, passd.ErrOverloaded) ||
		errors.Is(err, passd.ErrQuotaExceeded) ||
		errors.Is(err, passd.ErrExhausted)
}

// requiredMetricFamilies is what a /metrics scrape must always carry —
// the admin-endpoint smoke contract, checked mid-run under load.
var requiredMetricFamilies = []string{
	"passd_requests_total",
	"passd_request_seconds",
	"passd_inflight",
	"passd_shed_total",
	"passd_queries_total",
	"passd_tenant_requests_total",
	"passd_uptime_seconds",
}

// scrapeMetrics fetches and parses one /metrics payload.
func scrapeMetrics(adminAddr string) (map[string]float64, error) {
	resp, err := http.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics returned %s", resp.Status)
	}
	return metrics.ParseText(resp.Body)
}

// checkRequiredFamilies verifies every required family has at least one
// sample in a parsed scrape (histograms appear via their _count suffix).
func checkRequiredFamilies(parsed map[string]float64) error {
	for _, fam := range requiredMetricFamilies {
		found := false
		for _, suffix := range []string{"", "_count"} {
			name := fam + suffix
			if _, ok := parsed[name]; ok {
				found = true
				break
			}
			for k := range parsed {
				if len(k) > len(name) && k[:len(name)+1] == name+"{" {
					found = true
					break
				}
			}
			if found {
				break
			}
		}
		if !found {
			return fmt.Errorf("scrape is missing metric family %s", fam)
		}
	}
	return nil
}

// statsAgreeWithScrape pins the metrics/STATS consistency property on a
// quiesced daemon: every counter both surfaces carry must be equal,
// because STATS reads the same registry families /metrics renders.
func statsAgreeWithScrape(parsed map[string]float64, st *passd.Stats) error {
	want := map[string]float64{
		"passd_queries_total":        float64(st.Queries),
		"passd_query_errors_total":   float64(st.QueryErrors),
		"passd_staged_records_total": float64(st.Appends),
		"passd_cache_hits_total":     float64(st.CacheHits),
		"passd_cache_misses_total":   float64(st.CacheMisses),
	}
	for verb, n := range st.Verbs {
		want[fmt.Sprintf("passd_requests_total{verb=%q}", verb)] = float64(n)
	}
	for tenant, ts := range st.Tenants {
		want[fmt.Sprintf("passd_tenant_requests_total{tenant=%q}", tenant)] = float64(ts.Requests)
		if ts.Refused > 0 {
			want[fmt.Sprintf("passd_quota_refused_total{tenant=%q}", tenant)] = float64(ts.Refused)
		}
	}
	for key, v := range want {
		got, ok := parsed[key]
		if !ok {
			return fmt.Errorf("scrape is missing %s (want %g)", key, v)
		}
		if got != v {
			return fmt.Errorf("scrape %s = %g, STATS says %g", key, got, v)
		}
	}
	var shed float64
	for _, lane := range []string{"queue", "conn"} {
		shed += parsed[fmt.Sprintf("passd_shed_total{lane=%q}", lane)]
	}
	if shed != float64(st.Shed) {
		return fmt.Errorf("scrape shed lanes sum to %g, STATS says %d", shed, st.Shed)
	}
	return nil
}

// percentileMs picks the p'th percentile from unsorted samples.
func percentileMs(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	i := int(p*float64(len(samples)-1) + 0.5)
	return samples[i]
}

// tenantArm runs one arm: a fresh small daemon with the given quotas, the
// victim tenant always, the noisy tenant when withNoisy. checkMetrics
// additionally runs the mid-run scrape smoke and the post-quiesce
// metrics/STATS consistency check (used on the quotas-on arm, where both
// tenants and the quota machinery are live).
func tenantArm(quotas map[string]passd.TenantQuota, withNoisy, checkMetrics bool, secs float64, queries []string) (TenantArm, bool, error) {
	arm := TenantArm{}
	db, _ := swarmDataset()
	w := waldo.New()
	w.DB = db
	var sunk atomic.Int64
	srv, err := passd.Serve(w, passd.Config{
		Workers:      tenantWorkers,
		MaxQueue:     tenantMaxQueue,
		AdminAddr:    "127.0.0.1:0",
		TenantQuotas: quotas,
		Append:       func(recs []record.Record) error { sunk.Add(int64(len(recs))); return nil },
	})
	if err != nil {
		return arm, false, err
	}
	defer srv.Close()

	dialAll := func(n int, tenant string) ([]*passd.Client, error) {
		cs := make([]*passd.Client, n)
		for i := range cs {
			c, err := passd.DialOptions(srv.Addr(), passd.Options{Tenant: tenant})
			if err != nil {
				return nil, err
			}
			cs[i] = c
		}
		return cs, nil
	}
	victims, err := dialAll(tenantVictimConns, "victim")
	if err != nil {
		return arm, false, err
	}
	defer func() {
		for _, c := range victims {
			c.Close()
		}
	}()
	var noisies []*passd.Client
	if withNoisy {
		if noisies, err = dialAll(tenantNoisyConns, "noisy"); err != nil {
			return arm, false, err
		}
		defer func() {
			for _, c := range noisies {
				c.Close()
			}
		}()
	}

	start := time.Now()
	deadline := start.Add(time.Duration(secs * float64(time.Second)))
	warmupOver := start.Add(time.Duration(secs * float64(time.Second) / 5))
	var (
		firstErr   atomic.Value
		victimOps  atomic.Int64
		victimErrs atomic.Int64
		noisyOps   atomic.Int64
		wg         sync.WaitGroup
	)
	victimLats := make([][]float64, tenantVictimSessions)
	for s := 0; s < tenantVictimSessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := victims[s%tenantVictimConns]
			for i := 0; time.Now().Before(deadline); i++ {
				opStart := time.Now()
				_, err := c.Query(queries[(s+i)%len(queries)])
				elapsed := time.Since(opStart)
				if err != nil {
					if !tolerableTenantErr(err) {
						firstErr.CompareAndSwap(nil, fmt.Errorf("victim: %w", err))
						return
					}
					victimErrs.Add(1)
					continue
				}
				victimOps.Add(1)
				// The sample is the op's full wall time — client-side retry
				// backoff included, because that is the latency a tenant
				// actually experiences when its neighbor sheds the queue.
				if opStart.After(warmupOver) {
					victimLats[s] = append(victimLats[s], float64(elapsed.Microseconds())/1e3)
				}
			}
		}(s)
	}
	if withNoisy {
		for s := 0; s < tenantNoisySessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				c := noisies[s%tenantNoisyConns]
				batch := swarmSessionRecords(s)
				for i := 0; time.Now().Before(deadline); i++ {
					var err error
					if i%4 == 3 {
						_, err = c.Query(queries[(s+i)%len(queries)])
					} else {
						err = c.AppendProvenance(batch)
					}
					if err != nil {
						if !tolerableTenantErr(err) {
							firstErr.CompareAndSwap(nil, fmt.Errorf("noisy: %w", err))
							return
						}
						continue
					}
					noisyOps.Add(1)
				}
			}(s)
		}
	}

	consistent := false
	if checkMetrics {
		// Mid-run, under load: the admin surface must serve a parseable
		// payload carrying the required families, and the health endpoints
		// must answer.
		time.Sleep(time.Duration(secs * float64(time.Second) / 2))
		parsed, err := scrapeMetrics(srv.AdminAddr())
		if err == nil {
			err = checkRequiredFamilies(parsed)
		}
		if err != nil {
			firstErr.CompareAndSwap(nil, fmt.Errorf("mid-run scrape: %w", err))
		}
		for _, path := range []string{"/healthz", "/readyz"} {
			resp, herr := http.Get("http://" + srv.AdminAddr() + path)
			if herr != nil {
				firstErr.CompareAndSwap(nil, fmt.Errorf("mid-run %s: %w", path, herr))
				continue
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				firstErr.CompareAndSwap(nil, fmt.Errorf("mid-run %s: %s", path, resp.Status))
			}
		}
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return arm, false, err
	}

	st, err := victims[0].Stats()
	if err != nil {
		return arm, false, err
	}
	if checkMetrics {
		// Quiesced: nothing runs between the STATS snapshot and this
		// scrape, so every shared counter must agree exactly.
		parsed, err := scrapeMetrics(srv.AdminAddr())
		if err != nil {
			return arm, false, fmt.Errorf("post-run scrape: %w", err)
		}
		if err := statsAgreeWithScrape(parsed, st); err != nil {
			return arm, false, fmt.Errorf("metrics/STATS consistency: %w", err)
		}
		consistent = true
	}

	var lats []float64
	for _, l := range victimLats {
		lats = append(lats, l...)
	}
	arm.VictimOps = victimOps.Load()
	arm.VictimErrors = victimErrs.Load()
	arm.VictimP50Ms = percentileMs(lats, 0.50)
	arm.VictimP99Ms = percentileMs(lats, 0.99)
	arm.NoisyOps = noisyOps.Load()
	arm.Shed = st.Shed
	if ts, ok := st.Tenants["noisy"]; ok {
		arm.NoisyRefused = ts.Refused
	}
	return arm, consistent, nil
}

// tenantIsolation runs the three arms and computes the isolation verdict.
func tenantIsolation(secs float64, queries []string) (*TenantIsolation, error) {
	ti := &TenantIsolation{
		Secs:           secs,
		VictimSessions: tenantVictimSessions,
		VictimConns:    tenantVictimConns,
		NoisySessions:  tenantNoisySessions,
		NoisyConns:     tenantNoisyConns,
	}
	var err error
	if ti.Baseline, _, err = tenantArm(tenantNoisyQuota(), false, false, secs, queries); err != nil {
		return ti, fmt.Errorf("baseline arm: %w", err)
	}
	if ti.QuotasOff, _, err = tenantArm(nil, true, false, secs, queries); err != nil {
		return ti, fmt.Errorf("quotas-off arm: %w", err)
	}
	var consistent bool
	if ti.QuotasOn, consistent, err = tenantArm(tenantNoisyQuota(), true, true, secs, queries); err != nil {
		return ti, fmt.Errorf("quotas-on arm: %w", err)
	}
	ti.MetricsConsistent = consistent

	base := ti.Baseline.VictimP99Ms
	if base < victimP99FloorMs {
		base = victimP99FloorMs
	}
	ti.DegradationOn = ti.QuotasOn.VictimP99Ms / base
	ti.DegradationOff = ti.QuotasOff.VictimP99Ms / base
	ti.NoisyRefusedOn = ti.QuotasOn.NoisyRefused
	ti.Isolated = ti.DegradationOn <= 2 &&
		ti.DegradationOff > ti.DegradationOn &&
		ti.NoisyRefusedOn > 0 &&
		ti.MetricsConsistent
	return ti, nil
}

// PrintTenantIsolation renders the noisy-tenant comparison.
func PrintTenantIsolation(w io.Writer, ti *TenantIsolation) {
	fmt.Fprintf(w, "\nNoisy tenant: %d victim sessions vs %d noisy sessions, %.1fs per arm (workers %d, queue %d)\n",
		ti.VictimSessions, ti.NoisySessions, ti.Secs, tenantWorkers, tenantMaxQueue)
	row := func(name string, a TenantArm) {
		fmt.Fprintf(w, "  %-12s victim p50 %7.2fms p99 %8.2fms (%d ops, %d errs)   noisy %d ops, %d refused, shed %d\n",
			name+":", a.VictimP50Ms, a.VictimP99Ms, a.VictimOps, a.VictimErrors, a.NoisyOps, a.NoisyRefused, a.Shed)
	}
	row("baseline", ti.Baseline)
	row("quotas off", ti.QuotasOff)
	row("quotas on", ti.QuotasOn)
	fmt.Fprintf(w, "  degradation: %.2fx with quotas on, %.2fx off; metrics consistent: %v; isolated: %v\n",
		ti.DegradationOn, ti.DegradationOff, ti.MetricsConsistent, ti.Isolated)
}
