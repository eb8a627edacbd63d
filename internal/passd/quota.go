package passd

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Per-tenant quotas: admission control keyed by Request.Tenant, sitting in
// front of both execution lanes so one tenant's offered load cannot crowd
// out another's. Two independent caps exist because the two ways a tenant
// hurts its neighbors differ — holding execution slots (in-flight) and
// filling the durable-ack pipeline with record bytes (staged bytes/sec).
// Refusals happen before anything executes or stages, carry the "quota"
// wire code, and are therefore always safe for the client to retry with
// backoff (which it does automatically, exactly as for "overloaded").

// TenantQuota caps one named tenant. The zero value of either field means
// that axis is unlimited.
type TenantQuota struct {
	// MaxInFlight caps how many of the tenant's requests may be admitted
	// concurrently, across all of its connections; <=0 means unlimited.
	MaxInFlight int
	// StagedBytesPerSec caps the tenant's record-staging wire bytes per
	// second — a token bucket holding one second of burst, charged with
	// each staging request's encoded size at admission. Non-staging verbs
	// (queries, reads, pings) are never byte-charged. A single request
	// larger than the whole bucket can never pass and is refused
	// immediately rather than stalling the tenant. <=0 means unlimited.
	StagedBytesPerSec int64
}

// ParseQuota parses one -quota value, tenant=maxInflight:stagedBytesPerSec,
// into quotas. A 0 axis is unlimited; a tenant named twice keeps the
// later value, as a repeated flag does.
func ParseQuota(quotas map[string]TenantQuota, v string) error {
	name, caps, okName := strings.Cut(v, "=")
	inflightS, bytesS, okCaps := strings.Cut(caps, ":")
	if !okName || !okCaps || name == "" {
		return fmt.Errorf("want tenant=maxInflight:stagedBytesPerSec, got %q", v)
	}
	inflight, err := strconv.Atoi(inflightS)
	if err != nil {
		return fmt.Errorf("bad maxInflight in %q: %v", v, err)
	}
	bytes, err := strconv.ParseInt(bytesS, 10, 64)
	if err != nil {
		return fmt.Errorf("bad stagedBytesPerSec in %q: %v", v, err)
	}
	quotas[name] = TenantQuota{MaxInFlight: inflight, StagedBytesPerSec: bytes}
	return nil
}

// tenantState is one quota'd tenant's live accounting.
type tenantState struct {
	quota TenantQuota

	mu       sync.Mutex
	inflight int
	tokens   float64   // staged-bytes bucket level
	last     time.Time // last bucket refill
}

// tenantTable maps tenant names to their quota state. The map is built
// once at Serve and never mutated, so lookups need no lock; only the
// per-tenant states do.
type tenantTable struct {
	states map[string]*tenantState
}

func newTenantTable(quotas map[string]TenantQuota) *tenantTable {
	t := &tenantTable{states: make(map[string]*tenantState, len(quotas))}
	now := time.Now()
	for name, q := range quotas {
		t.states[name] = &tenantState{
			quota:  q,
			tokens: float64(q.StagedBytesPerSec), // start with a full bucket
			last:   now,
		}
	}
	return t
}

// state returns the quota state for tenant, or nil when the tenant is
// unlimited (no entry configured).
func (t *tenantTable) state(tenant string) *tenantState {
	return t.states[tenant]
}

// admit charges one request against the tenant's caps, or refuses it with
// an ErrQuotaExceeded-wrapping error. charge is the staged-bytes cost (0
// for non-staging verbs).
func (ts *tenantState) admit(charge int64) error {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.quota.MaxInFlight > 0 && ts.inflight >= ts.quota.MaxInFlight {
		return fmt.Errorf("quota: tenant at its %d in-flight request cap: %w",
			ts.quota.MaxInFlight, ErrQuotaExceeded)
	}
	if charge > 0 && ts.quota.StagedBytesPerSec > 0 {
		rate := float64(ts.quota.StagedBytesPerSec)
		now := time.Now()
		ts.tokens += now.Sub(ts.last).Seconds() * rate
		ts.last = now
		if ts.tokens > rate {
			ts.tokens = rate
		}
		if float64(charge) > ts.tokens {
			// Refuse without consuming: a refused request must not drain
			// the bucket, or a burst of refusals would starve the tenant's
			// own compliant traffic behind them.
			return fmt.Errorf("quota: tenant over its %d staged bytes/sec cap: %w",
				ts.quota.StagedBytesPerSec, ErrQuotaExceeded)
		}
		ts.tokens -= float64(charge)
	}
	ts.inflight++
	return nil
}

func (ts *tenantState) release() {
	ts.mu.Lock()
	ts.inflight--
	ts.mu.Unlock()
}

// admitTenant is the serving path's quota gate. The empty tenant — a
// client that names none on hello — is unattributed: never counted
// per-tenant, never limited. A named tenant is always counted
// (passd_tenant_requests_total includes refused attempts — that is what
// makes "accepted + refused == offered" checkable from the outside), and
// limited only when Config.TenantQuotas names it. The returned release
// must be called when the request finishes; it is non-nil exactly when
// err is nil.
func (s *Server) admitTenant(tenant string, verb *verbSpec, wireBytes int) (func(), error) {
	if tenant == "" {
		return func() {}, nil
	}
	s.met.tenantRequests.With(tenant).Inc()
	var charge int64
	if verb.staged {
		charge = int64(wireBytes)
	}
	ts := s.tenants.state(tenant)
	if ts != nil {
		if err := ts.admit(charge); err != nil {
			s.met.quotaRefused.With(tenant).Inc()
			return nil, err
		}
	}
	if charge > 0 {
		s.met.tenantStaged.With(tenant).Add(charge)
	}
	s.met.tenantInflight.With(tenant).Add(1)
	return func() {
		s.met.tenantInflight.With(tenant).Add(-1)
		if ts != nil {
			ts.release()
		}
	}, nil
}
