package bench

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"passv2/internal/graph"
	"passv2/internal/passd"
	"passv2/internal/pnode"
	"passv2/internal/pql"
	"passv2/internal/record"
	"passv2/internal/waldo"
)

// swarmQueryMix is how many distinct query texts swarm sessions rotate
// through — the same anti-caching rationale as serveQueryMix.
const swarmQueryMix = 8

// swarmBatch is how many provenance records one disclosure carries: the
// bundle size a busy provenance-aware application accumulates between
// flushes, big enough that encoding cost dominates the round-trip.
const swarmBatch = 256

// SwarmResult reports the swarm load benchmark: a session swarm — mixed
// DPAPI disclosure and ancestry queries — multiplexed over a fixed number
// of TCP connections to one passd daemon.
type SwarmResult struct {
	Sessions int     `json:"sessions"` // concurrent client sessions
	Conns    int     `json:"conns"`    // TCP connections the sessions share
	Batch    int     `json:"batch"`    // records per disclosure
	Secs     float64 `json:"secs"`     // measured duration
	Dataset  int     `json:"dataset"`  // records in the queried chain before the run

	Ops     int64   `json:"ops"`     // total operations completed
	Queries int64   `json:"queries"` // queries among them
	QPS     float64 `json:"qps"`     // queries/sec
	Records int64   `json:"records"` // provenance records disclosed
	RecPS   float64 `json:"rec_ps"`  // records/sec
	Shed    int64   `json:"shed"`    // requests refused by backpressure

	// Tenant carries the noisy-tenant isolation arms (tenant.go) when the
	// run asked for them; nil otherwise.
	Tenant *TenantIsolation `json:"tenant_isolation,omitempty"`
}

// swarmSessionRecords builds the reusable disclosure batch for one
// session: swarmBatch records under session-private pnodes, disjoint from
// the queried dataset and from every other session, so sessions never
// contend on object identity and query results stay stable.
func swarmSessionRecords(session int) []record.Record {
	base := uint64(1<<41) + uint64(session)<<16
	recs := make([]record.Record, 0, swarmBatch)
	for i := 0; i < swarmBatch; i += 2 {
		ref := pnode.Ref{PNode: pnode.PNode(base + uint64(i)), Version: 1}
		recs = append(recs,
			record.New(ref, record.AttrName, record.StringVal(fmt.Sprintf("/swarm/%d/%d", session, i))),
			record.New(ref, record.AttrType, record.StringVal(record.TypeFile)))
	}
	return recs
}

// swarmDataset builds the queried chain and the sessions' query mix:
// name-seek point queries, deliberately cheap to evaluate (an index seek,
// one row back), so the run is bound by what the wire and codec cost —
// the thing under test — rather than by query evaluation CPU. The serve
// benchmark already measures evaluation-bound load.
func swarmDataset() (*waldo.DB, []string) {
	db, _ := ServeDataset(4096)
	queries := make([]string, swarmQueryMix)
	for i := range queries {
		queries[i] = fmt.Sprintf(`select F from Provenance.file as F where F.name = "/q/c%d"`, 4096-i)
	}
	return db, queries
}

// Swarm measures the serving edge under a session swarm: `sessions`
// concurrent sessions of mixed DPAPI disclosure (swarmBatch-record
// bundles) and ancestry queries — three disclosures, then a query — share
// `conns` TCP connections to one daemon round-robin for `secs` seconds,
// after remote results are verified against local evaluation.
// A positive tenantSecs additionally runs the noisy-tenant isolation arms
// (tenant.go) for that long each.
func Swarm(sessions, conns int, secs, tenantSecs float64) (SwarmResult, error) {
	res := SwarmResult{Sessions: sessions, Conns: conns, Batch: swarmBatch, Secs: secs}

	db, queries := swarmDataset()
	n, _, _ := db.Stats()
	res.Dataset = int(n)
	g := graph.New(db)
	expected := make([]string, len(queries))
	for i, src := range queries {
		q, err := pql.Parse(src)
		if err != nil {
			return res, err
		}
		out, err := pql.PlanQuery(q).Execute(g)
		if err != nil {
			return res, err
		}
		expected[i] = out.Format()
	}

	w := waldo.New()
	w.DB = db
	// Disclosures land in an accounting sink, not the database: profiled
	// with real ApplyBatch, the run bottlenecks on index maintenance (~55%
	// of one core) and measures storage. The swarm benchmark's question is
	// what the serving edge — read, decode, dispatch, encode, write — can
	// carry, so the storage back-end is the one thing taken off the scale.
	// Queries still read the real database, and the ingest benchmark
	// prices ApplyBatch itself.
	var sunk atomic.Int64
	srv, err := passd.Serve(w, passd.Config{
		Append: func(recs []record.Record) error { sunk.Add(int64(len(recs))); return nil },
	})
	if err != nil {
		return res, err
	}
	defer srv.Close()

	clients := make([]*passd.Client, conns)
	for i := range clients {
		c, err := passd.Dial(srv.Addr())
		if err != nil {
			return res, err
		}
		defer c.Close()
		clients[i] = c
	}

	// Equivalence before timing: the transport must return results
	// byte-identical to quiesced local evaluation.
	for i, q := range queries {
		out, err := clients[0].Query(q)
		if err != nil {
			return res, err
		}
		if out.Format() != expected[i] {
			return res, fmt.Errorf("remote result for %q differs from local evaluation", q)
		}
	}

	var ops, qs, recs atomic.Int64
	var firstErr atomic.Value
	deadline := time.Now().Add(time.Duration(secs * float64(time.Second)))
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			c := clients[s%conns]
			batch := swarmSessionRecords(s)
			for i := 0; time.Now().Before(deadline); i++ {
				var err error
				if i%4 == 3 {
					if _, err = c.Query(queries[(s+i)%len(queries)]); err == nil {
						qs.Add(1)
					}
				} else {
					if err = c.AppendProvenance(batch); err == nil {
						recs.Add(int64(len(batch)))
					}
				}
				if err != nil {
					// Backpressure is the daemon doing its job under a
					// thousand sessions; a refused request is backed off
					// and not counted. Anything else fails the run.
					if !errors.Is(err, passd.ErrOverloaded) {
						firstErr.CompareAndSwap(nil, err)
						return
					}
					time.Sleep(time.Millisecond)
					continue
				}
				ops.Add(1)
			}
		}(s)
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		return res, err
	}

	st, err := clients[0].Stats()
	if err != nil {
		return res, err
	}
	if sunk.Load() < recs.Load() {
		return res, fmt.Errorf("clients counted %d disclosed records but the daemon accepted %d",
			recs.Load(), sunk.Load())
	}
	if st.V3Conns != int64(conns) {
		return res, fmt.Errorf("server saw %d framed connections, want %d", st.V3Conns, conns)
	}
	res.Ops = ops.Load()
	res.Queries = qs.Load()
	res.QPS = float64(res.Queries) / secs
	res.Records = recs.Load()
	res.RecPS = float64(res.Records) / secs
	res.Shed = st.Shed

	if tenantSecs > 0 {
		ti, err := tenantIsolation(tenantSecs, queries)
		if err != nil {
			return res, fmt.Errorf("tenant arms: %w", err)
		}
		res.Tenant = ti
	}
	return res, nil
}

// PrintSwarm renders the swarm result.
func PrintSwarm(w io.Writer, r SwarmResult) {
	fmt.Fprintf(w, "\nSwarm load: %d sessions over %d connections, %d-record disclosures, %.1fs (dataset %d records)\n",
		r.Sessions, r.Conns, r.Batch, r.Secs, r.Dataset)
	fmt.Fprintf(w, "  %9.0f q/s %12.0f rec/s   (%d ops, shed %d)\n", r.QPS, r.RecPS, r.Ops, r.Shed)
	if r.Tenant != nil {
		PrintTenantIsolation(w, r.Tenant)
	}
}
