package main

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"
	"time"

	"passv2/benchmark/gen"
	"passv2/internal/dpapi"
	"passv2/internal/graph"
	"passv2/internal/passd"
	"passv2/internal/record"
	"passv2/internal/waldo"
)

// The five workloads. Names are fixed: later issues cite them.
const (
	wlDiscloseSmall  = "disclose-small"
	wlDiscloseQuorum = "disclose-quorum"
	wlIngestBulk     = "ingest-bulk"
	wlQueryOnly      = "query-only"
	wlMixed          = "mixed"
)

var workloadNames = []string{wlDiscloseSmall, wlDiscloseQuorum, wlIngestBulk, wlQueryOnly, wlMixed}

// Load shape shared by every workload.
const (
	discloseSessions = 16 // closed-loop small-disclose sessions, 8 per connection
	bulkSessions     = 4  // closed-loop bulk-write sessions
	querySessions    = 8  // closed-loop query sessions: ≤ workers + queue, so nothing sheds
	flushObjectSets  = 16 // sets of sixteen session objects the mixed flushes disclose against

	// Open-loop goroutines available to carry a due request of each kind:
	// enough that a daemon stalled for a second does not run the pool dry,
	// so lateness is the generator's own.
	flushWorkers = 256
	queryWorkers = 256
	probeWorkers = 64 // a probe holds its worker for about one drain interval
)

// scale is every size of a run. fullScale is what the driver measures;
// quickScale divides each by ten so the tests can run all five workloads.
type scale struct {
	preload  int           // records of the DAG every daemon is preloaded with
	distinct int           // distinct query texts
	bulk     int           // ingest-bulk window records per second of --seconds
	setups   int           // fresh set-ups per run; the last is measured on
	warm     time.Duration // warm-up traffic before the window, discarded
	window   time.Duration

	flushRate, queryRate, probeRate int // mixed, per second

	checkPerClass, checkScans int           // post-run queries compared with the oracle
	checkNames                int           // acknowledged names looked up after the kill
	codaOps                   int           // small discloses per session between checkpoint and kill
	codaProbes                int           // freshness probes before the kill
	codaProbeEvery            time.Duration // … and their spacing
	restarts                  int           // SIGKILL→restart repetitions; the first is discarded
}

func fullScale(seconds float64) scale {
	return scale{
		preload: 100_000, distinct: 16_384, bulk: 30_000,
		setups: 3, warm: 500 * time.Millisecond,
		window:    time.Duration(seconds * float64(time.Second)),
		flushRate: 300, queryRate: 250, probeRate: 25,
		checkPerClass: 400, checkScans: 32, checkNames: 1000,
		codaOps: 512, codaProbes: 80, codaProbeEvery: 25 * time.Millisecond,
		restarts: 10,
	}
}

func quickScale(seconds float64) scale {
	s := fullScale(seconds / 10)
	s.preload /= 10
	s.distinct /= 10
	s.setups = 1
	s.warm /= 10
	s.checkPerClass /= 10
	s.checkScans = 4
	s.checkNames /= 10
	s.codaOps /= 8
	s.codaProbes /= 4
	s.restarts = 2
	return s
}

// native lists, per workload, the end-to-end metrics its own window
// produces. A run must report every metric, so the others are read from
// the phases every run has anyway — ingest_rec_per_s from the preload,
// the query metrics from the check queries, the ack and
// disclose-to-queryable metrics from the coda before the kill — and say
// what the daemon the workload left behind does under that fixed light
// load. ingest-bulk's own ack figures measured too unstable to gate and
// are diag.* lines; so are mixed's acked_rec_per_s and query_per_s, which
// in an open loop only echo the offered rate.
var native = map[string]map[string]bool{
	wlDiscloseSmall:  {"acked_rec_per_s": true, "ack_p50_ms": true},
	wlDiscloseQuorum: {"acked_rec_per_s": true, "ack_p50_ms": true},
	wlIngestBulk:     {"ingest_rec_per_s": true},
	wlQueryOnly:      {"query_per_s": true, "query_p50_ms": true},
	wlMixed:          {"ack_p50_ms": true, "query_p50_ms": true, "visible_p50_ms": true, "visible_p90_ms": true},
}

// runner carries one run of one workload.
type runner struct {
	workload string
	seed     int64
	sc       scale
	bins     *builtBins
	dataDir  string    // this run's own directory
	log      io.Writer // progress, for a human

	dag     *gen.DAG
	queries *gen.Queries
	oracle  *graph.Graph

	daemons []*daemon // child processes, primary first; none in the traced half
	addr    string    // the primary's protocol address
	admin   string    // … and its admin address
	conns   [2]*passd.Client
	tr      *tracer // traced half only

	ledger tally // everything the kept daemon acknowledged, for the checks
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "  [%s] "+format+"\n", append([]any{r.workload}, args...)...)
}

func (r *runner) primary() *daemon { return r.daemons[0] }

// conn spreads sessions over the two data connections.
func (r *runner) conn(i int) *passd.Client { return r.conns[i%len(r.conns)] }

// generate makes the run's inputs and the in-process oracle the daemon's
// answers are compared with. None of it is timed.
func (r *runner) generate() {
	r.dag = gen.NewDAG(r.seed, r.sc.preload, gen.VolDAG, "dag")
	r.queries = gen.NewQueries(r.seed, r.dag, r.sc.distinct, 1<<19)
	db := waldo.NewDB()
	for _, c := range gen.Chunks(r.dag.Records) {
		db.ApplyBatch(c)
	}
	r.oracle = graph.New(db)
}

// prepared is the workload's own write input, generated before set-up.
type prepared struct {
	visits [][]gen.Visit           // disclose-*: per session
	wides  []gen.Wide              // mixed: run-wide pool
	objs   [][]*passd.RemoteObject // mixed: sets of sixteen, opened during set-up
	bulk   []record.Record         // ingest-bulk: the window's records
}

func (r *runner) prepare() *prepared {
	p := &prepared{}
	switch r.workload {
	case wlDiscloseSmall, wlDiscloseQuorum:
		p.visits = r.visits(0)
	case wlIngestBulk:
		p.bulk = gen.NewDAG(r.seed, int(float64(r.sc.bulk)*r.sc.window.Seconds()), gen.VolBulk, "bulk").Records
	case wlMixed:
		flushes := int(float64(r.sc.flushRate)*(r.sc.warm+r.sc.window).Seconds()) + 1
		p.wides = gen.Wides(r.seed, 900, flushes*flushOps)
	}
	return p
}

// visits generates the sixteen sessions' disclose pools; base keeps the
// window's lanes apart from the coda's.
func (r *runner) visits(base int) [][]gen.Visit {
	v := make([][]gen.Visit, discloseSessions)
	for i := range v {
		v[i] = gen.Visits(r.seed, base+i, 4096)
	}
	return v
}

// bootstrap starts fresh daemon(s) for the workload and connects to the
// primary; on a quorum workload it returns once the follower streams.
func (r *runner) bootstrap(rep int) error {
	dir := filepath.Join(r.dataDir, fmt.Sprintf("setup%d", rep))
	var role []string
	if r.workload == wlDiscloseQuorum {
		role = []string{"-replicate", "2"}
	}
	p, err := newDaemon(r.bins.passd, filepath.Join(dir, "primary"), role...)
	if err != nil {
		return err
	}
	r.daemons = []*daemon{p}
	if err := p.start(); err != nil {
		return err
	}
	if r.workload == wlDiscloseQuorum {
		f, err := newDaemon(r.bins.passd, filepath.Join(dir, "follower"), "-join", p.addr)
		if err != nil {
			return err
		}
		r.daemons = append(r.daemons, f)
		if err := f.start(); err != nil {
			return err
		}
	}
	r.addr, r.admin = p.addr, p.admin
	if err := r.connect(); err != nil {
		return err
	}
	if r.workload == wlDiscloseQuorum {
		return r.awaitQuorum()
	}
	return nil
}

// connect (re)opens the two data connections to the primary.
func (r *runner) connect() error {
	for i := range r.conns {
		if r.conns[i] != nil {
			r.conns[i].Close()
		}
		c, err := dial(r.addr)
		if err != nil {
			return err
		}
		r.conns[i] = c
	}
	return nil
}

func (r *runner) awaitQuorum() error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		st, err := r.conns[0].Stats()
		if err != nil {
			return err
		}
		if st.ReplConnected >= 1 {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("the follower did not join the primary within 20s")
}

// teardown kills the run's daemons and drops its connections.
func (r *runner) teardown() {
	for i := range r.conns {
		if r.conns[i] != nil {
			r.conns[i].Close()
			r.conns[i] = nil
		}
	}
	for _, d := range r.daemons {
		d.kill()
	}
}

// usage is the daemons' CPU and the counters read at one edge of a window.
type usage struct {
	ticks int64
	stats *passd.Stats
	admin adminSample
}

func (r *runner) usage() (usage, error) {
	var u usage
	for _, d := range r.daemons {
		u.ticks += d.cpuTicks()
		d.sample()
	}
	st, err := r.conns[0].Stats()
	if err != nil {
		return u, err
	}
	u.stats = st
	u.admin = scrapeAdmin(r.admin)
	return u, nil
}

// sliceEvery is the length of the slices a window is read in.
const sliceEvery = time.Second

// slice is what one slice of a window saw: its length, the operations and
// records completed in it, and the daemons' CPU ticks.
type slice struct {
	seconds      float64
	ops, records int64
	ticks        int64
}

// measured is a window's tally and what was read at its edges.
type measured struct {
	t             *tally
	win           window
	before, after usage
	slices        []slice
	selfCPU       float64 // generator CPU seconds over the window
	lagBytesMax   float64 // largest follower lag sampled in the window
	backlog       float64 // seconds the closing drain verb took (ingest only)
}

// cpuSeconds is the daemons' user+system time over the window.
func (m *measured) cpuSeconds() float64 {
	return float64(m.after.ticks-m.before.ticks) / clockTicksPerSecond
}

// perSlice is the median over the window's slices of f — a rate read
// this way shrugs off a stall that lands in one slice.
func (m *measured) perSlice(f func(slice) float64) float64 {
	var v []float64
	for _, s := range m.slices {
		v = append(v, f(s))
	}
	return median(v)
}

// ingest sends recs as bulk writes from four sessions and then issues the
// drain verb. Its window runs from the first send to the drain's return —
// when every record is queryable — which is what ingest_rec_per_s divides
// by: a faster ack path alone only lengthens the wait on the drain.
func (r *runner) ingest(recs []record.Record) (*measured, error) {
	chunks := gen.Chunks(recs)
	var cursor atomic.Int64
	m := &measured{}
	var err error
	if m.before, err = r.usage(); err != nil {
		return nil, err
	}
	m.win.start = time.Now()
	m.win.end = m.win.start.Add(time.Hour)
	m.t = parallel(bulkSessions, func(i int, t *tally) {
		bulkSession(r.conn(i), chunks, &cursor, m.win, t)
	})
	sent := time.Now()
	_, err = r.conns[0].Drain()
	m.win.end = time.Now()
	m.backlog = m.win.end.Sub(sent).Seconds()
	if err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	if m.after, err = r.usage(); err != nil {
		return nil, err
	}
	r.ledger.merge(m.t)
	return m, r.balance(m.after.stats)
}

// openObjects opens the sets of sixteen named session objects the mixed
// flush workers disclose against. It needs the daemon, so it is part of
// set-up.
func (r *runner) openObjects(p *prepared) error {
	if r.workload != wlMixed {
		return nil
	}
	p.objs = make([][]*passd.RemoteObject, flushObjectSets)
	t := parallel(flushObjectSets, func(w int, t *tally) {
		var scratch []byte
		for k := 0; k < flushOps; k++ {
			t.attempted += 2
			o, err := r.conn(w).PassMkobj()
			if err != nil {
				t.fail(err)
				return
			}
			t.mkobjs++
			obj := o.(*passd.RemoteObject)
			name := gen.SessionName(r.seed, 800+w, k)
			recs := gen.SessionRecords(obj.Ref(), name)
			if err := dpapi.Disclose(obj, recs...); err != nil {
				t.fail(err)
				return
			}
			t.acked(recs, &scratch)
			t.names = append(t.names, nameRef{"session", name})
			p.objs[w] = append(p.objs[w], obj)
		}
	})
	r.ledger.merge(t)
	return t.firstErr
}

// traffic runs the workload's own traffic for warm+length and measures
// the last `length` of it, slice by slice. With length 0 it is the warm-up
// of a set-up that is thrown away.
func (r *runner) traffic(warm, length time.Duration, p *prepared) (*measured, error) {
	start := time.Now()
	m := &measured{win: window{start: start.Add(warm), end: start.Add(warm + length), live: &liveCount{}, tr: r.tr}}
	done := make(chan *tally, 1)
	go func() { done <- r.drive(start, m.win, p) }()

	time.Sleep(time.Until(m.win.start))
	var err, uerr error
	if m.before, err = r.usage(); err == nil {
		self := selfCPU()
		last, lastAt := slice{ticks: m.before.ticks}, time.Now()
		for edge := m.win.start; edge.Before(m.win.end); {
			if edge = edge.Add(sliceEvery); edge.After(m.win.end) {
				edge = m.win.end
			}
			time.Sleep(time.Until(edge))
			now := slice{ops: m.win.live.ops.Load(), records: m.win.live.records.Load()}
			for _, d := range r.daemons {
				now.ticks += d.cpuTicks()
			}
			at := time.Now()
			m.slices = append(m.slices, slice{at.Sub(lastAt).Seconds(), now.ops - last.ops, now.records - last.records, now.ticks - last.ticks})
			last, lastAt = now, at
			if r.workload == wlDiscloseQuorum {
				m.lagBytesMax = max(m.lagBytesMax, scrapeLag(r.admin))
			}
		}
		m.selfCPU = selfCPU() - self
		m.after, uerr = r.usage()
	}
	m.t = <-done
	r.ledger.merge(m.t)
	return m, errors.Join(err, uerr)
}

// drive is the workload's traffic: it returns once the window has closed
// and every goroutine it started has finished.
func (r *runner) drive(start time.Time, win window, p *prepared) *tally {
	switch r.workload {
	case wlDiscloseSmall, wlDiscloseQuorum:
		return parallel(discloseSessions, func(i int, t *tally) {
			discloseSession(r.conn(i), r.seed, i, p.visits[i], win.open, win, t)
		})
	case wlQueryOnly:
		return parallel(querySessions, func(i int, t *tally) {
			querySession(r.conn(i), r.queries, i, querySessions, win, t)
		})
	case wlMixed:
		return r.driveMixed(start, win, p)
	}
	panic("no traffic defined for workload " + r.workload)
}

// driveMixed is the open loop: flushes, queries and freshness probes,
// each on its own schedule from start to the window's end.
func (r *runner) driveMixed(start time.Time, win window, p *prepared) *tally {
	span := win.end.Sub(start).Seconds()
	slots := func(rate int) (time.Duration, int) {
		return time.Second / time.Duration(rate), int(span * float64(rate))
	}
	parts := make(chan *tally, 3)
	go func() {
		every, n := slots(r.sc.flushRate)
		parts <- openLoop(start, every, n, flushWorkers, func(w, i int, due time.Time, t *tally) {
			flush(r.conn(w), p.objs[w%len(p.objs)], p.wides, i, due, win, t)
		})
	}()
	go func() {
		every, n := slots(r.sc.queryRate)
		parts <- openLoop(start, every, n, queryWorkers, func(w, i int, due time.Time, t *tally) {
			_, text := r.queries.Text(r.queries.Draws[i%len(r.queries.Draws)])
			t.attempted++
			res, err := r.conn(w).Query(text)
			if err != nil {
				t.fail(err)
				return
			}
			if win.holds(due) {
				t.query.add(due.Sub(win.start), time.Since(due))
				t.queries++
				t.rows += int64(len(res.Rows))
				win.done(due, 0)
			}
		})
	}()
	go func() {
		every, n := slots(r.sc.probeRate)
		parts <- openLoop(start, every, n, probeWorkers, func(w, i int, due time.Time, t *tally) {
			probe(r.conn(w), r.seed, i, win.holds(due), t)
		})
	}()
	total := &tally{}
	for i := 0; i < 3; i++ {
		total.merge(<-parts)
	}
	return total
}

// The coda is the fixed work every run does between its forced checkpoint
// and the SIGKILL: a count-bounded pass of the small-disclose shape, then
// evenly spaced freshness probes on an otherwise idle daemon. It leaves
// the restart a log tail of known length, and it is where a workload
// whose window has no such writes (or no probes) reads its ack and
// disclose-to-queryable figures from.

// codaDisclose forces a checkpoint and runs the disclose pass.
func (r *runner) codaDisclose() (*tally, float64, error) {
	if _, err := r.conns[0].Checkpoint(); err != nil {
		return nil, 0, fmt.Errorf("checkpoint verb: %w", err)
	}
	ops := r.sc.codaOps
	if r.workload == wlDiscloseQuorum {
		ops /= 3 // an ack costs three times as much there, and is native anyway
	}
	visits := r.visits(100)
	all := window{start: time.Now(), end: time.Now().Add(time.Hour)}
	start := time.Now()
	t := parallel(discloseSessions, func(i int, t *tally) {
		left := ops
		more := func() bool { left--; return left >= 0 }
		discloseSession(r.conn(i), r.seed, 100+i, visits[i], more, all, t)
	})
	r.ledger.merge(t)
	return t, time.Since(start).Seconds(), nil
}

// codaProbes runs the probe pass. Marker numbers continue past any the
// window used.
func (r *runner) codaProbes() *tally {
	first := int(float64(r.sc.probeRate)*(r.sc.warm+r.sc.window).Seconds()) + 1
	t := openLoop(time.Now(), r.sc.codaProbeEvery, r.sc.codaProbes, probeWorkers,
		func(w, i int, due time.Time, t *tally) { probe(r.conn(w), r.seed, first+i, true, t) })
	r.ledger.merge(t)
	return t
}

// restart SIGKILLs the primary and times exec → first successful query,
// sc.restarts times; the first is discarded (it pays for the page cache
// and the binary's first load after the kill) and the rest reported.
func (r *runner) restart() ([]float64, error) {
	text := gen.PointQuery("file", r.dag.Files[0])
	var times []float64
	for _, c := range r.conns {
		c.Close()
	}
	for i := 0; i < r.sc.restarts; i++ {
		r.primary().kill()
		start := time.Now()
		if err := r.primary().start(); err != nil {
			return nil, err
		}
		c, err := dial(r.addr)
		if err != nil {
			return nil, err
		}
		res, err := c.Query(text)
		took := time.Since(start).Seconds()
		c.Close()
		if err != nil {
			return nil, fmt.Errorf("first query after restart: %w", err)
		}
		if len(res.Rows) != 1 {
			return nil, fmt.Errorf("first query after restart returned %d rows for a preloaded name, want 1", len(res.Rows))
		}
		if i > 0 || r.sc.restarts == 1 {
			times = append(times, took)
		}
	}
	r.conns = [2]*passd.Client{}
	return times, r.connect()
}
