package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"passv2/benchmark/gen"
	"passv2/internal/dpapi"
	"passv2/internal/passd"
	"passv2/internal/record"
)

// sample is one latency, in milliseconds, and when its operation was
// issued (or was due), as an offset from the window's start.
type sample struct {
	at time.Duration
	ms float64
}

// lat is a set of latencies.
type lat []sample

func (l *lat) add(at, d time.Duration) {
	*l = append(*l, sample{at, float64(d) / float64(time.Millisecond)})
}

// quantileOf reads the q-quantile (0..1) of ms, which it sorts. An empty
// set reads 0.
func quantileOf(ms []float64, q float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	sort.Float64s(ms)
	return ms[int(q*float64(len(ms)-1)+0.5)]
}

func (l lat) values() []float64 {
	ms := make([]float64, len(l))
	for i, s := range l {
		ms[i] = s.ms
	}
	return ms
}

// quantile is the q-quantile over every sample.
func (l lat) quantile(q float64) float64 { return quantileOf(l.values(), q) }

// sliced cuts the window into slices of length every, takes the
// q-quantile of each slice's samples, and returns the median of those. A
// stall that lands in one slice moves one slice's figure, not the run's;
// a short phase with a single slice reads as quantile does.
func (l lat) sliced(q float64, span, every time.Duration) float64 {
	n := int(span / every)
	if n < 2 {
		return l.quantile(q)
	}
	slices := make([][]float64, n)
	for _, s := range l {
		if i := int(s.at / every); i >= 0 && i < n {
			slices[i] = append(slices[i], s.ms)
		}
	}
	var per []float64
	for _, ms := range slices {
		if len(ms) > 0 {
			per = append(per, quantileOf(ms, q))
		}
	}
	return median(per)
}

func (l lat) mean() float64 {
	if len(l) == 0 {
		return 0
	}
	var sum float64
	for _, s := range l {
		sum += s.ms
	}
	return sum / float64(len(l))
}

// window is the measured interval of a phase. Traffic starts before it (the
// warm-up) and stops at its end; an operation counts when it was issued —
// or, in an open loop, was due — inside it. live, when set, is bumped as
// operations complete, so the phase can read throughput slice by slice.
type window struct {
	start, end time.Time
	live       *liveCount
	tr         *tracer // traced runs: a request span per measured operation
}

// liveCount is the running total of measured operations and the records
// they carried.
type liveCount struct{ ops, records atomic.Int64 }

func (w window) holds(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end) }
func (w window) open() bool             { return time.Now().Before(w.end) }
func (w window) seconds() float64       { return w.end.Sub(w.start).Seconds() }

// done books one measured operation that was issued (or due) at start.
// Its number in the live count is the request sequence its span carries.
func (w window) done(start time.Time, records int) {
	var seq int64
	if w.live != nil {
		seq = w.live.ops.Add(1)
		w.live.records.Add(int64(records))
	}
	if w.tr != nil {
		w.tr.add(spanRequest, int64(start.Sub(w.tr.t0)), seq, int64(records))
	}
}

// tally is what one load goroutine saw. Goroutines keep their own and the
// phase merges them, so the hot path takes no lock.
type tally struct {
	attempted, failed int64 // operations of every kind, measured or not
	firstErr          error

	// Acknowledged by the daemon, inside the window or not: the ledger the
	// correctness checks balance against STATS.
	records, recBytes int64 // records the generator sent, and their AppendRecord bytes
	mkobjs            int64 // each stages one server-made MKOBJ record
	names             []nameRef

	// Inside the window only.
	writes, queries, winRecords, rows int64
	ack, query, visible, late         lat
}

// nameRef is an acknowledged NAME outside the DAG and the class its
// object is queried under.
type nameRef struct{ class, name string }

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.records += o.records
	t.recBytes += o.recBytes
	t.mkobjs += o.mkobjs
	t.names = append(t.names, o.names...)
	t.writes += o.writes
	t.queries += o.queries
	t.winRecords += o.winRecords
	t.rows += o.rows
	t.ack = append(t.ack, o.ack...)
	t.query = append(t.query, o.query...)
	t.visible = append(t.visible, o.visible...)
	t.late = append(t.late, o.late...)
}

// acked books records the daemon acknowledged.
func (t *tally) acked(recs []record.Record, scratch *[]byte) {
	t.records += int64(len(recs))
	for _, r := range recs {
		*scratch = record.AppendRecord((*scratch)[:0], r)
		t.recBytes += int64(len(*scratch))
	}
}

// parallel runs fn(i, tally) on n goroutines and merges their tallies.
func parallel(n int, fn func(i int, t *tally)) *tally {
	parts := make([]tally, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i, &parts[i])
		}(i)
	}
	wg.Wait()
	total := &tally{}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}

// objectsPerSession is how many disclosures a session makes against one
// phantom object before it moves to a fresh one.
const objectsPerSession = 64

// discloseSession is one closed-loop session of the small-disclose shape:
// pass_mkobj a SESSION object, name it, then disclose two records per
// pass_write — one durable ack each — while more() allows, taking a fresh
// object every 64 ops. A pass_mkobj counts as a write request — it pays a
// durable ack too — but ack latency is kept for the pass_writes only.
func discloseSession(c *passd.Client, seed int64, lane int, visits []gen.Visit, more func() bool, win window, t *tally) {
	var (
		obj     dpapi.Object
		onObj   int
		objects int
		scratch []byte
	)
	disclose := func(recs []record.Record) bool {
		t.attempted++
		start := time.Now()
		err := dpapi.Disclose(obj, recs...)
		if err != nil {
			t.fail(err)
			return false
		}
		t.acked(recs, &scratch)
		if win.holds(start) {
			t.ack.add(start.Sub(win.start), time.Since(start))
			t.writes++
			t.winRecords += int64(len(recs))
			win.done(start, len(recs))
		}
		return true
	}
	for i := 0; more(); i++ {
		if obj == nil || onObj == objectsPerSession {
			if obj != nil {
				obj.Close()
			}
			t.attempted++
			var err error
			start := time.Now()
			if obj, err = c.PassMkobj(); err != nil {
				t.fail(err)
				obj = nil
				continue
			}
			t.mkobjs++
			if win.holds(start) {
				t.writes++
				win.done(start, 0)
			}
			onObj = 0
			name := gen.SessionName(seed, lane, objects)
			objects++
			if disclose(gen.SessionRecords(obj.(*passd.RemoteObject).Ref(), name)) {
				t.names = append(t.names, nameRef{"session", name})
			}
			continue
		}
		disclose(visits[i%len(visits)].Records(obj.(*passd.RemoteObject).Ref()))
		onObj++
	}
	if obj != nil {
		obj.Close()
	}
}

// bulkSession is one closed-loop session of the bulk shape: handle-less
// 256-record writes taken from a shared cursor until the chunks run out.
func bulkSession(c *passd.Client, chunks [][]record.Record, cursor *atomic.Int64, win window, t *tally) {
	var scratch []byte
	for {
		i := int(cursor.Add(1) - 1)
		if i >= len(chunks) {
			return
		}
		t.attempted++
		start := time.Now()
		if err := c.AppendProvenance(chunks[i]); err != nil {
			t.fail(err)
			continue
		}
		t.acked(chunks[i], &scratch)
		if win.holds(start) {
			t.ack.add(start.Sub(win.start), time.Since(start))
			t.writes++
			t.winRecords += int64(len(chunks[i]))
			win.done(start, len(chunks[i]))
		}
	}
}

// querySession is one closed-loop query session: it walks every
// stride-th draw of the run's query sequence until the window closes.
func querySession(c *passd.Client, q *gen.Queries, sess, stride int, win window, t *tally) {
	for i := sess; win.open(); i += stride {
		_, text := q.Text(q.Draws[i%len(q.Draws)])
		t.attempted++
		start := time.Now()
		res, err := c.Query(text)
		if err != nil {
			t.fail(err)
			continue
		}
		if win.holds(start) {
			t.query.add(start.Sub(win.start), time.Since(start))
			t.queries++
			t.rows += int64(len(res.Rows))
			win.done(start, 0)
		}
	}
}

// openLoop issues op(i) at start+i×interval for i in [0,n), from workers
// goroutines that take the next due slot as they come free. op is handed
// its worker's number and the time its slot was due and charges latency from then, so a stall is
// paid by every request it delays, not only the one that hit it.
func openLoop(start time.Time, interval time.Duration, n, workers int, op func(w, i int, due time.Time, t *tally)) *tally {
	var cursor atomic.Int64
	return parallel(workers, func(w int, t *tally) {
		for {
			i := int(cursor.Add(1) - 1)
			if i >= n {
				return
			}
			due := start.Add(time.Duration(i) * interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			t.late.add(0, time.Since(due))
			op(w, i, due, t)
		}
	})
}

// probePoll is how often a freshness probe re-asks for its marker, and
// probeGiveUp when it stops asking.
const (
	probePoll   = 10 * time.Millisecond
	probeGiveUp = 10 * time.Second
)

// probe discloses the i-th marker, then polls the point query for it
// until it returns a row: the time from the marker's durable ack to that
// answer is the disclose-to-queryable latency.
func probe(c *passd.Client, seed int64, i int, measured bool, t *tally) {
	recs, name := gen.Marker(seed, i)
	var scratch []byte
	t.attempted++
	if err := c.AppendProvenance(recs); err != nil {
		t.fail(err)
		return
	}
	acked := time.Now()
	t.acked(recs, &scratch)
	t.names = append(t.names, nameRef{"file", name})
	text := gen.PointQuery("file", name)
	for {
		res, err := c.Query(text)
		if err != nil {
			t.fail(fmt.Errorf("probe %d: %w", i, err))
			return
		}
		if len(res.Rows) > 0 {
			if measured {
				t.visible.add(0, time.Since(acked))
			}
			return
		}
		if time.Since(acked) > probeGiveUp {
			t.fail(fmt.Errorf("probe %d: marker %s acknowledged but not queryable after %v", i, name, probeGiveUp))
			return
		}
		time.Sleep(probePoll)
	}
}

// flushOps and flushRecords size one mixed-workload Batch.Flush.
const (
	flushOps     = 16
	flushRecords = 4 * flushOps
)

// flush pipelines sixteen four-record DPAPI ops against one set of
// sixteen session objects and ships them under one durable ack. wides is
// the run-wide pool; flush i owns items [16i, 16i+16), so no object is
// ever handed the same record twice.
func flush(c *passd.Client, objs []*passd.RemoteObject, wides []gen.Wide, i int, due time.Time, win window, t *tally) {
	var (
		scratch []byte
		sent    []record.Record
	)
	b := c.NewBatch()
	for k, obj := range objs {
		recs := wides[(i*flushOps+k)%len(wides)].Records(obj.Ref())
		if err := b.Disclose(obj, recs...); err != nil {
			t.attempted++
			t.fail(err)
			return
		}
		sent = append(sent, recs...)
	}
	t.attempted++
	if err := b.Flush(); err != nil {
		t.fail(err)
		return
	}
	t.acked(sent, &scratch)
	if win.holds(due) {
		t.ack.add(due.Sub(win.start), time.Since(due))
		t.writes++
		t.winRecords += int64(len(sent))
		win.done(due, len(sent))
	}
}
