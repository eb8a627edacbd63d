package bench

import (
	"fmt"
	"sync"
	"time"

	"passv2/internal/graph"
	"passv2/internal/lasagna"
	"passv2/internal/passd"
	"passv2/internal/pnode"
	"passv2/internal/pql"
	"passv2/internal/record"
	"passv2/internal/vfs"
	"passv2/internal/waldo"
)

// serveDrainInterval is the passd phase's background ingestion cadence:
// how often the Waldo daemon drains the volume log while queries run. It is
// the serving layer's freshness/throughput knob: snapshots (and the caches
// their immutability makes sound) live at most this long, so query results
// lag ingestion by at most one interval plus drain time.
const serveDrainInterval = 500 * time.Millisecond

// serveQueryMix is how many distinct query texts the benchmark clients
// rotate through — enough that the serving layer cannot win on result
// caching alone (every generation recomputes the whole mix), few enough
// that their overlapping closures exercise the shared traversal memo.
const serveQueryMix = 16

// ServeBenchResult reports the serving-layer comparison: aggregate query
// throughput of N concurrent passd clients over pinned snapshots (with the
// Waldo daemon draining in the background) versus the repository's pre-passd
// query path — serialized in-process Drain-then-evaluate, the
// pass.Machine.Query contract — under the same live log-append load.
type ServeBenchResult struct {
	BaselineQPS float64 // serialized Drain-then-evaluate queries/sec
	ServeQPS    float64 // aggregate passd queries/sec
	Speedup     float64
	Shed        int64 // queries refused by backpressure (0 expected)
}

// logAppender simulates live provenance arrival: records written to the
// volume's Lasagna log back-to-back (names disjoint from the query
// workload, so results stay stable) until stopped. Returns a stop func
// reporting the first append error.
func logAppender(vol *lasagna.FS, tag string) (stop func() error) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var failed error
	wg.Add(1)
	go func() {
		defer wg.Done()
		next := uint64(1 << 40)
		for {
			select {
			case <-done:
				return
			default:
			}
			for i := 0; i < 64; i++ {
				ref := pnode.Ref{PNode: pnode.PNode(next), Version: 1}
				next++
				err := vol.AppendProvenance([]record.Record{
					record.New(ref, record.AttrName, record.StringVal(fmt.Sprintf("/%s/%d", tag, next))),
					record.New(ref, record.AttrType, record.StringVal(record.TypeFile)),
				})
				if err != nil {
					failed = err
					return
				}
			}
			// Rate-limit: ingestion is a fixed offered load (the same in
			// both phases), not a CPU-saturating antagonist.
			time.Sleep(10 * time.Millisecond)
		}
	}()
	return func() error {
		close(done)
		wg.Wait()
		return failed
	}
}

// ServeDataset builds the serving benchmark's database: one deep ancestry
// chain of `files` files (NAME + TYPE + INPUT-to-predecessor records), so
// ancestry queries near the tip share almost their entire closure — the
// shape that rewards a traversal cache and punishes re-walking. It returns
// the database and the serveQueryMix distinct count-ancestors queries the
// clients rotate through (count projections keep responses one row, so the
// wire cost does not scale with the closure).
func ServeDataset(files int) (*waldo.DB, []string) {
	if files < serveQueryMix+2 {
		files = serveQueryMix + 2
	}
	db := waldo.NewDB()
	batch := make([]record.Record, 0, 3*1024)
	flush := func() {
		db.ApplyBatch(batch)
		batch = batch[:0]
	}
	for i := 1; i <= files; i++ {
		ref := pnode.Ref{PNode: pnode.PNode(i), Version: 1}
		batch = append(batch,
			record.New(ref, record.AttrName, record.StringVal(fmt.Sprintf("/q/c%d", i))),
			record.New(ref, record.AttrType, record.StringVal(record.TypeFile)))
		if i > 1 {
			batch = append(batch, record.Input(ref, pnode.Ref{PNode: pnode.PNode(i - 1), Version: 1}))
		}
		if len(batch) >= 3*1024 {
			flush()
		}
	}
	flush()
	queries := make([]string, serveQueryMix)
	for i := range queries {
		queries[i] = fmt.Sprintf(
			`select count(A) from Provenance.file as F F.input* as A where F.name = "/q/c%d"`,
			files-i)
	}
	return db, queries
}

// Serve measures what the passd serving layer buys. Phase one is the only
// query path the repo had before passd: each query synchronously drains the
// volume log into the database and then evaluates in-process over the live
// store with a fresh per-query memo — queries serialize against the ingest
// path, exactly as pass.Machine.Query does, and nothing may be reused
// across queries because the database changes between them. Phase two
// serves queries through a passd server from `clients` concurrent
// connections: the Waldo daemon drains in the background and every query
// runs over a pinned snapshot whose immutability lets the server share
// plans, the traversal memo and finished results until the next drain.
// Both phases run the same query mix for secs seconds under the same
// log-append load, and remote results are verified identical to quiesced
// local evaluations before any number is reported.
func Serve(records, clients int, secs float64) (ServeBenchResult, error) {
	var res ServeBenchResult
	phase := time.Duration(secs * float64(time.Second))

	// The queried chain database, applied directly (it stands for history
	// already ingested); the volume log supplies the live load.
	db, queries := ServeDataset(records / 3)

	lower := vfs.NewMemFS("servelower", nil)
	vol, err := lasagna.New("servevol", lasagna.Config{
		Lower: lower, VolumeID: 1, MaxLogSize: 1 << 20, LogBuffer: 1 << 16,
	})
	if err != nil {
		return res, err
	}
	w := waldo.New()
	w.DB = db
	w.Attach(vol)

	plans := make([]*pql.Plan, len(queries))
	expected := make([]string, len(queries))
	for i, src := range queries {
		q, err := pql.Parse(src)
		if err != nil {
			return res, err
		}
		plans[i] = pql.PlanQuery(q)
		exp, err := plans[i].Execute(graph.New(db))
		if err != nil {
			return res, err
		}
		expected[i] = exp.Format()
	}

	// Phase one: serialized Drain-then-evaluate against the live store,
	// the log filling concurrently. (Plans are even pre-built here — a
	// generosity the pre-passd path did not actually extend.)
	stop := logAppender(vol, "base")
	start := time.Now()
	deadline := start.Add(phase)
	baseQueries := 0
	for ; time.Now().Before(deadline); baseQueries++ {
		if err := w.Drain(); err != nil {
			stop()
			return res, err
		}
		if _, err := plans[baseQueries%len(plans)].Execute(graph.New(w.DB)); err != nil {
			stop()
			return res, err
		}
	}
	baseElapsed := time.Since(start)
	if err := stop(); err != nil {
		return res, err
	}
	res.BaselineQPS = float64(baseQueries) / baseElapsed.Seconds()

	// Phase two: the same aggregate query count through passd, fanned out
	// over concurrent connections, each query on a pinned snapshot, the
	// daemon draining the (still-filling) log in the background.
	srv, err := passd.Serve(w, passd.Config{
		Workers:  clients,
		MaxQueue: 4 * clients,
	})
	if err != nil {
		return res, err
	}
	defer srv.Close()

	conns := make([]*passd.Client, clients)
	for i := range conns {
		c, err := passd.Dial(srv.Addr())
		if err != nil {
			return res, err
		}
		defer c.Close()
		conns[i] = c
	}
	// Correctness gate before timing: every remote answer must match its
	// quiesced local evaluation.
	for i, src := range queries {
		got, err := conns[0].Query(src)
		if err != nil {
			return res, err
		}
		if got.Format() != expected[i] {
			return res, fmt.Errorf("bench: remote and local results differ for %q", src)
		}
	}

	w.Start(serveDrainInterval)
	stop = logAppender(vol, "serve")
	var (
		wg    sync.WaitGroup
		errs  = make([]error, clients)
		total int64
	)
	counts := make([]int64, clients)
	start = time.Now()
	deadline = start.Add(phase)
	for i, c := range conns {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each client rotates through the whole mix, offset by its
			// index so the 16 texts stay uniformly in flight.
			for j := i; time.Now().Before(deadline); j++ {
				if _, err := c.Query(queries[j%len(queries)]); err != nil {
					errs[i] = err
					return
				}
				counts[i]++
			}
		}()
	}
	wg.Wait()
	serveElapsed := time.Since(start)
	if err := stop(); err != nil {
		return res, err
	}
	if err := w.Stop(); err != nil {
		return res, err
	}
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	for _, n := range counts {
		total += n
	}
	st, err := conns[0].Stats()
	if err != nil {
		return res, err
	}
	res.Shed = st.Shed
	res.ServeQPS = float64(total) / serveElapsed.Seconds()
	if res.BaselineQPS > 0 {
		res.Speedup = res.ServeQPS / res.BaselineQPS
	}
	return res, nil
}
