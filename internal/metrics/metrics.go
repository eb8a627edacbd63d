// Package metrics is a dependency-free instrumentation kit: counters,
// gauges and histograms — scalar, labeled (vec) and read-through (func)
// variants — collected in a Registry that renders the Prometheus text
// exposition format. It exists so the serving daemon can export what it
// is doing on a plain HTTP endpoint without pulling a client library
// into the module.
//
// Two design rules keep the export trustworthy:
//
//   - A number lives in exactly one place. An event counter is a Counter
//     the serving path increments; state owned elsewhere (a connection
//     table, a database size, an atomic that drives a decision) is a
//     read-through CounterFunc/GaugeFunc sampled at read time, never a
//     second copy. Other surfaces — the daemon's STATS verb — read the
//     registry back by family name (Value, Children) instead of keeping
//     their own counters, so they agree with /metrics by construction.
//   - Registration is get-or-create per name: asking twice for the same
//     family returns the same instrument, and asking for the same name
//     as a different type panics (a programming error worth failing
//     loudly on, not a runtime condition).
//
// Everything is safe for concurrent use. Counter values are int64 (our
// counters count events and bytes, never fractions); gauges and
// histogram observations are float64.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefBuckets is the default latency histogram layout, in seconds: wide
// enough to see a 100µs cache hit and a 10s stuck quorum in one family.
var DefBuckets = []float64{
	.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the export to stay monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets and tracks their sum.
type Histogram struct {
	uppers []float64 // sorted upper bounds, +Inf excluded
	counts []atomic.Int64
	count  atomic.Int64
	sum    Gauge
}

func newHistogram(buckets []float64) *Histogram {
	uppers := append([]float64(nil), buckets...)
	sort.Float64s(uppers)
	dst := uppers[:0]
	for _, b := range uppers {
		if math.IsInf(b, +1) || (len(dst) > 0 && dst[len(dst)-1] == b) {
			continue
		}
		dst = append(dst, b)
	}
	uppers = dst
	return &Histogram{uppers: uppers, counts: make([]atomic.Int64, len(uppers)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.uppers, v) // first upper >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count reports how many values were observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// vec is the generic labeled-children store behind the *Vec types.
type vec[T any] struct {
	labels []string
	mu     sync.Mutex
	child  map[string]*T
	keys   []string // sorted lazily at export
	vals   map[string][]string
}

func newVec[T any](labels []string) *vec[T] {
	return &vec[T]{labels: labels, child: make(map[string]*T), vals: make(map[string][]string)}
}

func (v *vec[T]) with(make_ func() *T, values ...string) *T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: %d label values for labels %v", len(values), v.labels))
	}
	key := strings.Join(values, "\x00")
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.child[key]
	if !ok {
		c = make_()
		v.child[key] = c
		v.vals[key] = append([]string(nil), values...)
		v.keys = nil
	}
	return c
}

// each visits children in sorted key order (stable export order).
func (v *vec[T]) each(fn func(values []string, c *T)) {
	v.mu.Lock()
	if v.keys == nil {
		v.keys = make([]string, 0, len(v.child))
		for k := range v.child {
			v.keys = append(v.keys, k)
		}
		sort.Strings(v.keys)
	}
	keys := v.keys
	v.mu.Unlock()
	for _, k := range keys {
		v.mu.Lock()
		c, vals := v.child[k], v.vals[k]
		v.mu.Unlock()
		if c != nil {
			fn(vals, c)
		}
	}
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ v *vec[Counter] }

// With returns (creating on first use) the child for the label values.
func (cv *CounterVec) With(values ...string) *Counter {
	return cv.v.with(func() *Counter { return &Counter{} }, values...)
}

// Each visits every child with its label values, in stable order.
func (cv *CounterVec) Each(fn func(values []string, c *Counter)) { cv.v.each(fn) }

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ v *vec[Gauge] }

// With returns (creating on first use) the child for the label values.
func (gv *GaugeVec) With(values ...string) *Gauge {
	return gv.v.with(func() *Gauge { return &Gauge{} }, values...)
}

// Each visits every child with its label values, in stable order.
func (gv *GaugeVec) Each(fn func(values []string, g *Gauge)) { gv.v.each(fn) }

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct {
	buckets []float64
	v       *vec[Histogram]
}

// With returns (creating on first use) the child for the label values.
func (hv *HistogramVec) With(values ...string) *Histogram {
	return hv.v.with(func() *Histogram { return newHistogram(hv.buckets) }, values...)
}

// Each visits every child with its label values, in stable order.
func (hv *HistogramVec) Each(fn func(values []string, h *Histogram)) { hv.v.each(fn) }

// family is one named metric in a registry: exactly one of the concrete
// slots is set, and typ/labels pin what a re-registration must match.
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels []string

	c  *Counter
	cv *CounterVec
	cf func() int64
	g  *Gauge
	gv *GaugeVec
	gf func() float64
	h  *Histogram
	hv *HistogramVec
}

// Registry holds metric families in registration order and renders them
// in the Prometheus text format.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*family
	order  []*family
}

// NewRegistry makes an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// lookup implements get-or-create: returns the existing family when name
// is taken (the caller type-checks it), or installs and returns fresh.
func (r *Registry) lookup(name string, fresh func() *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		return f
	}
	f := fresh()
	r.byName[name] = f
	r.order = append(r.order, f)
	return f
}

func (f *family) check(name, typ, slot string) {
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s already registered as a %s, not a %s", name, f.typ, typ))
	}
	switch slot {
	case "c":
		if f.c == nil {
			panic("metrics: " + name + " already registered with a different shape")
		}
	case "cv":
		if f.cv == nil {
			panic("metrics: " + name + " already registered with a different shape")
		}
	case "cf":
		if f.cf == nil {
			panic("metrics: " + name + " already registered with a different shape")
		}
	case "g":
		if f.g == nil {
			panic("metrics: " + name + " already registered with a different shape")
		}
	case "gv":
		if f.gv == nil {
			panic("metrics: " + name + " already registered with a different shape")
		}
	case "gf":
		if f.gf == nil {
			panic("metrics: " + name + " already registered with a different shape")
		}
	case "h":
		if f.h == nil {
			panic("metrics: " + name + " already registered with a different shape")
		}
	case "hv":
		if f.hv == nil {
			panic("metrics: " + name + " already registered with a different shape")
		}
	}
}

// Counter registers (or returns) a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, func() *family {
		return &family{name: name, help: help, typ: "counter", c: &Counter{}}
	})
	f.check(name, "counter", "c")
	return f.c
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	f := r.lookup(name, func() *family {
		return &family{name: name, help: help, typ: "counter", labels: labels,
			cv: &CounterVec{v: newVec[Counter](labels)}}
	})
	f.check(name, "counter", "cv")
	return f.cv
}

// CounterFunc registers a read-through counter sampled at export time.
// Registering the same name again is a no-op (the first closure wins), so
// component setup stays idempotent.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	f := r.lookup(name, func() *family {
		return &family{name: name, help: help, typ: "counter", cf: fn}
	})
	f.check(name, "counter", "cf")
}

// Gauge registers (or returns) a scalar gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, func() *family {
		return &family{name: name, help: help, typ: "gauge", g: &Gauge{}}
	})
	f.check(name, "gauge", "g")
	return f.g
}

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	f := r.lookup(name, func() *family {
		return &family{name: name, help: help, typ: "gauge", labels: labels,
			gv: &GaugeVec{v: newVec[Gauge](labels)}}
	})
	f.check(name, "gauge", "gv")
	return f.gv
}

// GaugeFunc registers a read-through gauge sampled at export time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, func() *family {
		return &family{name: name, help: help, typ: "gauge", gf: fn}
	})
	f.check(name, "gauge", "gf")
}

// Histogram registers (or returns) a scalar histogram with the given
// bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.lookup(name, func() *family {
		return &family{name: name, help: help, typ: "histogram", h: newHistogram(buckets)}
	})
	f.check(name, "histogram", "h")
	return f.h
}

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	f := r.lookup(name, func() *family {
		return &family{name: name, help: help, typ: "histogram", labels: labels,
			hv: &HistogramVec{buckets: buckets, v: newVec[Histogram](labels)}}
	})
	f.check(name, "histogram", "hv")
	return f.hv
}

// families snapshots registration order under the lock.
func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.order...)
}

// scalar reads an unlabeled counter or gauge, plain or read-through; ok
// is false for vecs and histograms.
func (f *family) scalar() (v float64, ok bool) {
	switch {
	case f.c != nil:
		return float64(f.c.Value()), true
	case f.cf != nil:
		return float64(f.cf()), true
	case f.g != nil:
		return f.g.Value(), true
	case f.gf != nil:
		return f.gf(), true
	}
	return 0, false
}

func (r *Registry) family(name string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byName[name]
}

// Value reads the scalar counter or gauge family name (plain or
// read-through) without rendering anything. ok is false when name is
// not registered or names a vec or a histogram.
func (r *Registry) Value(name string) (v float64, ok bool) {
	if f := r.family(name); f != nil {
		return f.scalar()
	}
	return 0, false
}

// Children reads every child of the one-label counter or gauge vec name,
// keyed by its label value. ok is false when name is not registered or
// names anything else.
func (r *Registry) Children(name string) (map[string]float64, bool) {
	f := r.family(name)
	if f == nil || len(f.labels) != 1 {
		return nil, false
	}
	out := make(map[string]float64)
	switch {
	case f.cv != nil:
		f.cv.Each(func(values []string, c *Counter) { out[values[0]] = float64(c.Value()) })
	case f.gv != nil:
		f.gv.Each(func(values []string, g *Gauge) { out[values[0]] = g.Value() })
	default:
		return nil, false
	}
	return out, true
}

// labelString renders `name="v1",other="v2"` with label values escaped.
func labelString(labels, values []string) string {
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatValue renders integral values without an exponent or decimal
// point (counters stay readable), other floats in shortest form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// sample is fn(name-with-suffix, rendered-labels, value); labels is ""
// for unlabeled samples.
func (f *family) samples(fn func(name, labels string, v float64)) {
	emitHist := func(labels string, h *Histogram) {
		cum := int64(0)
		for i, upper := range h.uppers {
			cum += h.counts[i].Load()
			le := `le="` + formatValue(upper) + `"`
			if labels != "" {
				le = labels + "," + le
			}
			fn(f.name+"_bucket", le, float64(cum))
		}
		le := `le="+Inf"`
		if labels != "" {
			le = labels + "," + le
		}
		fn(f.name+"_bucket", le, float64(h.Count()))
		fn(f.name+"_sum", labels, h.Sum())
		fn(f.name+"_count", labels, float64(h.Count()))
	}
	if v, ok := f.scalar(); ok {
		fn(f.name, "", v)
		return
	}
	switch {
	case f.cv != nil:
		f.cv.Each(func(values []string, c *Counter) {
			fn(f.name, labelString(f.labels, values), float64(c.Value()))
		})
	case f.gv != nil:
		f.gv.Each(func(values []string, g *Gauge) {
			fn(f.name, labelString(f.labels, values), g.Value())
		})
	case f.h != nil:
		emitHist("", f.h)
	case f.hv != nil:
		f.hv.Each(func(values []string, h *Histogram) {
			emitHist(labelString(f.labels, values), h)
		})
	}
}

// WritePrometheus renders every family in the text exposition format
// (# HELP, # TYPE, then samples), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 16<<10)
	for _, f := range r.families() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		f.samples(func(name, labels string, v float64) {
			if labels != "" {
				fmt.Fprintf(bw, "%s{%s} %s\n", name, labels, formatValue(v))
			} else {
				fmt.Fprintf(bw, "%s %s\n", name, formatValue(v))
			}
		})
	}
	return bw.Flush()
}

// Gather collects every sample into a map keyed exactly as WritePrometheus
// renders it — `name` or `name{label="value"}` — so tests can compare a
// scraped /metrics payload (via ParseText) against the live registry
// without going through HTTP.
func (r *Registry) Gather() map[string]float64 {
	out := make(map[string]float64)
	for _, f := range r.families() {
		f.samples(func(name, labels string, v float64) {
			out[SampleKey(name, labels)] = v
		})
	}
	return out
}

// SampleKey builds the Gather/ParseText key for a sample: name alone, or
// name{labels} when labels is non-empty. labels must be pre-rendered
// (`verb="query"`), matching the declared label order.
func SampleKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// ParseText parses a Prometheus text-format payload back into the same
// key→value map Gather produces. Comment and blank lines are skipped;
// malformed sample lines are an error (a scrape that half-parses is a bug
// worth failing on, not data).
func ParseText(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			return nil, fmt.Errorf("metrics: malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %v", line, err)
		}
		out[strings.TrimSpace(line[:sp])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
