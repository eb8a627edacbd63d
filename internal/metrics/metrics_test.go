package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "Events.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("events_total", "Events."); again != c {
		t.Fatalf("re-registering a counter must return the same instrument")
	}

	g := r.Gauge("depth", "Depth.")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatalf("registering x as a gauge after a counter must panic")
		}
	}()
	r.Gauge("x", "")
}

func TestVecChildrenAndTotal(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("requests_total", "Requests by verb.", "verb")
	cv.With("query").Add(3)
	cv.With("ping").Inc()
	cv.With("query").Inc()
	if got := cv.With("query").Value(); got != 4 {
		t.Fatalf("query child = %d, want 4", got)
	}
	if got, _ := r.Children("requests_total"); got["query"]+got["ping"] != 5 || len(got) != 2 {
		t.Fatalf("children = %v, want query+ping = 5", got)
	}
	seen := map[string]int64{}
	cv.Each(func(values []string, c *Counter) { seen[values[0]] = c.Value() })
	if seen["query"] != 4 || seen["ping"] != 1 {
		t.Fatalf("Each saw %v", seen)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "Latency.", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.605) > 1e-9 {
		t.Fatalf("sum = %v, want 5.605", h.Sum())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`latency_seconds_bucket{le="0.01"} 1`,
		`latency_seconds_bucket{le="0.1"} 3`,
		`latency_seconds_bucket{le="1"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		`latency_seconds_count 5`,
		"# TYPE latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %q in:\n%s", want, out)
		}
	}
}

func TestFuncCollectorsReadThrough(t *testing.T) {
	r := NewRegistry()
	var n int64
	r.CounterFunc("live_total", "Live.", func() int64 { return n })
	n = 7
	if got := r.Gather()["live_total"]; got != 7 {
		t.Fatalf("CounterFunc sampled %v, want 7", got)
	}
	n = 9
	if got := r.Gather()["live_total"]; got != 9 {
		t.Fatalf("CounterFunc must read through, got %v", got)
	}
}

// TestGatherParseRoundTrip pins the contract the consistency tests lean
// on: ParseText(WritePrometheus(r)) == Gather(r), key for key.
func TestGatherParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A.").Add(12)
	cv := r.CounterVec("b_total", "B.", "tenant")
	cv.With("alice").Add(3)
	cv.With(`we"ird\`).Add(1)
	r.Gauge("c", "C.").Set(-2.25)
	hv := r.HistogramVec("d_seconds", "D.", []float64{0.5}, "verb")
	hv.With("query").Observe(0.25)
	hv.With("query").Observe(2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	gathered := r.Gather()
	if len(parsed) != len(gathered) {
		t.Fatalf("parsed %d samples, gathered %d", len(parsed), len(gathered))
	}
	for k, v := range gathered {
		pv, ok := parsed[k]
		if !ok {
			t.Fatalf("parsed output missing key %q", k)
		}
		if pv != v {
			t.Fatalf("key %q: parsed %v, gathered %v", k, pv, v)
		}
	}
	if gathered[`b_total{tenant="alice"}`] != 3 {
		t.Fatalf("label key shape drifted: %v", gathered)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("ops_total", "", "kind")
	h := r.Histogram("lat", "", DefBuckets)
	g := r.Gauge("inflight", "")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kind := []string{"a", "b", "c"}[i%3]
			for j := 0; j < 1000; j++ {
				cv.With(kind).Inc()
				h.Observe(float64(j) * 1e-4)
				g.Add(1)
				g.Add(-1)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
			r.Children("ops_total") // the STATS read path, beside a scrape
			r.Value("inflight")
		}
	}()
	wg.Wait()
	<-done
	var total float64
	children, _ := r.Children("ops_total")
	for _, n := range children {
		total += n
	}
	if total != 8000 {
		t.Fatalf("total = %v, want 8000", total)
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %v, want 0", g.Value())
	}
}

func TestValueAndChildrenReadBack(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(3)
	r.CounterFunc("cf_total", "", func() int64 { return 7 })
	r.Gauge("g", "").Set(1.5)
	r.GaugeFunc("gf", "", func() float64 { return -2 })
	cv := r.CounterVec("cv_total", "", "verb")
	cv.With("query").Add(4)
	cv.With("ping").Inc()
	r.GaugeVec("gv", "", "lane").With("serial").Set(2)
	r.GaugeVec("gv2", "", "a", "b").With("x", "y").Set(1)
	r.Histogram("h_seconds", "", DefBuckets).Observe(0.1)

	for name, want := range map[string]float64{"c_total": 3, "cf_total": 7, "g": 1.5, "gf": -2} {
		if got, ok := r.Value(name); !ok || got != want {
			t.Errorf("Value(%s) = %v, %v; want %v, true", name, got, ok, want)
		}
	}
	for _, name := range []string{"cv_total", "gv", "h_seconds", "missing"} {
		if _, ok := r.Value(name); ok {
			t.Errorf("Value(%s) reported a scalar", name)
		}
	}
	if got, ok := r.Children("cv_total"); !ok || got["query"] != 4 || got["ping"] != 1 || len(got) != 2 {
		t.Errorf("Children(cv_total) = %v, %v", got, ok)
	}
	if got, ok := r.Children("gv"); !ok || got["serial"] != 2 {
		t.Errorf("Children(gv) = %v, %v", got, ok)
	}
	for _, name := range []string{"c_total", "gv2", "h_seconds", "missing"} {
		if _, ok := r.Children(name); ok {
			t.Errorf("Children(%s) reported a one-label vec", name)
		}
	}
}
