package bench

import (
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"time"

	"passv2/internal/netfault"
	"passv2/internal/passd"
	"passv2/internal/pnode"
	"passv2/internal/record"
)

// ReplicateResult reports tail latency of cluster reads over a replicated
// passd group with one artificially slow follower: the same query stream
// measured without hedging (the straggler defines p95/p99 whenever the
// rotation lands on it) and with hedging (a second request fires after
// HedgeDelay and the fast replica's answer wins). The p99 ratio is the
// paper-adjacent claim ("The Tail at Scale"-style redundancy): one slow
// machine stops defining the distribution's tail.
type ReplicateResult struct {
	Records   int `json:"records"`   // records replicated before measuring
	Queries   int `json:"queries"`   // queries per measured arm
	Followers int `json:"followers"` // follower count (one of them slow)
	Quorum    int `json:"quorum"`    // write quorum, counting the primary

	SlowDelayMS  float64 `json:"slow_delay_ms"`  // injected per-response delay
	HedgeDelayMS float64 `json:"hedge_delay_ms"` // hedge trigger

	UnhedgedP50MS float64 `json:"unhedged_p50_ms"`
	UnhedgedP95MS float64 `json:"unhedged_p95_ms"`
	UnhedgedP99MS float64 `json:"unhedged_p99_ms"`
	HedgedP50MS   float64 `json:"hedged_p50_ms"`
	HedgedP95MS   float64 `json:"hedged_p95_ms"`
	HedgedP99MS   float64 `json:"hedged_p99_ms"`

	HedgesFired int64 `json:"hedges_fired"`
	HedgesWon   int64 `json:"hedges_won"`
	// P99Improvement is unhedged p99 / hedged p99 — >1 means hedging cut
	// the tail.
	P99Improvement float64 `json:"p99_improvement"`
}

// Replicate measures hedged vs unhedged cluster reads against a real
// replicated group: a primary (quorum 2) over an on-disk log, two
// followers fed by the replication stream, and a netfault write delay of
// slowDelay planted on one follower so every response it sends — to
// clients and primary alike — straggles.
func Replicate(records, queries int, slowDelay, hedgeDelay time.Duration) (ReplicateResult, error) {
	res := ReplicateResult{
		Records: records, Queries: queries, Followers: 2, Quorum: 2,
		SlowDelayMS:  float64(slowDelay.Microseconds()) / 1e3,
		HedgeDelayMS: float64(hedgeDelay.Microseconds()) / 1e3,
	}

	root, err := os.MkdirTemp("", "passd-replicate-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(root)

	// Primary: cmd/passd -replicate 2, in-process.
	prim, err := passd.Open(passd.DaemonConfig{
		LogDir:        root + "/primary",
		Quorum:        2,
		CommitTimeout: 10 * time.Second,
		PeerDial:      passd.Options{DialTimeout: 2 * time.Second, RequestTimeout: 10 * time.Second},
	})
	if err != nil {
		return res, err
	}
	defer prim.Close()
	srv := prim.Server

	// Followers: cmd/passd -join, each behind a netfault listener.
	followers := make([]*passd.Daemon, 2)
	faults := make([]*netfault.Faults, 2)
	for i := range followers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return res, err
		}
		faults[i] = netfault.New()
		followers[i], err = passd.Open(passd.DaemonConfig{
			Config: passd.Config{Listener: faults[i].Listener(ln)},
			LogDir: fmt.Sprintf("%s/follower%d", root, i),
			Join:   srv.Addr(),
		})
		if err != nil {
			return res, err
		}
		defer followers[i].Close()
		if err := passd.Announce(srv.Addr(), followers[i].Server.Addr(), 5*time.Second); err != nil {
			return res, err
		}
	}

	// Load: quorum-acked appends, then wait until both followers serve the
	// last record so the measured arms read a settled group.
	c, err := passd.Dial(srv.Addr())
	if err != nil {
		return res, err
	}
	defer c.Close()
	const chunk = 500
	for lo := 0; lo < records; lo += chunk {
		n := chunk
		if lo+n > records {
			n = records - lo
		}
		recs := make([]record.Record, 0, 2*n)
		for i := lo; i < lo+n; i++ {
			ref := pnode.Ref{PNode: pnode.PNode(i + 1), Version: 1}
			recs = append(recs,
				record.New(ref, record.AttrName, record.StringVal(fmt.Sprintf("/bench/%d", i))),
				record.New(ref, record.AttrType, record.StringVal(record.TypeFile)))
		}
		if err := c.AppendProvenance(recs); err != nil {
			return res, err
		}
	}
	if _, err := c.Drain(); err != nil {
		return res, err
	}
	q := fmt.Sprintf(`select F from Provenance.file as F where F.name = "/bench/%d"`, records-1)
	for _, f := range followers {
		if err := waitReplRows(f.Server.Addr(), q); err != nil {
			return res, err
		}
	}

	// One follower straggles: every response it writes is delayed.
	faults[0].SetWriteDelay(slowDelay)
	addrs := []string{srv.Addr(), followers[0].Server.Addr(), followers[1].Server.Addr()}

	// Arm 1: failover only. The rotation lands a third of the queries on
	// the slow follower and each eats the full delay.
	unhedged, _, _, err := measureCluster(addrs, passd.ClusterOptions{NoHedge: true}, q, queries)
	if err != nil {
		return res, err
	}
	// Arm 2: identical stream, hedged. A fresh cluster so the latency
	// window and rotation start cold, same as arm 1.
	hedged, fired, won, err := measureCluster(addrs, passd.ClusterOptions{HedgeDelay: hedgeDelay}, q, queries)
	if err != nil {
		return res, err
	}

	res.UnhedgedP50MS, res.UnhedgedP95MS, res.UnhedgedP99MS = pctMS(unhedged, 50), pctMS(unhedged, 95), pctMS(unhedged, 99)
	res.HedgedP50MS, res.HedgedP95MS, res.HedgedP99MS = pctMS(hedged, 50), pctMS(hedged, 95), pctMS(hedged, 99)
	res.HedgesFired, res.HedgesWon = fired, won
	if res.HedgedP99MS > 0 {
		res.P99Improvement = res.UnhedgedP99MS / res.HedgedP99MS
	}
	return res, nil
}

// measureCluster runs n queries through a fresh cluster and returns the
// per-query latencies plus the hedge counters.
func measureCluster(addrs []string, opts passd.ClusterOptions, q string, n int) ([]time.Duration, int64, int64, error) {
	cl := passd.NewCluster(addrs, opts)
	defer cl.Close()
	lats := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := cl.Query(q); err != nil {
			return nil, 0, 0, err
		}
		lats = append(lats, time.Since(start))
	}
	fired, won := cl.Hedges()
	return lats, fired, won, nil
}

// waitReplRows polls addr until q returns a row (replication caught up).
func waitReplRows(addr, q string) error {
	c, err := passd.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		res, err := c.Query(q)
		if err == nil && len(res.Rows) > 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower %s never caught up (last: %v)", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// pctMS returns the p'th percentile of lats in milliseconds.
func pctMS(lats []time.Duration, p int) float64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := len(sorted) * p / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx].Microseconds()) / 1e3
}

// PrintReplicate renders a ReplicateResult.
func PrintReplicate(w io.Writer, r ReplicateResult) {
	fmt.Fprintf(w, "replicated reads: hedged vs unhedged with one slow follower\n")
	fmt.Fprintf(w, "  group:      primary + %d followers, write quorum %d, %d records replicated\n", r.Followers, r.Quorum, r.Records)
	fmt.Fprintf(w, "  straggler:  %.1fms injected on one follower; hedge trigger %.1fms; %d queries per arm\n",
		r.SlowDelayMS, r.HedgeDelayMS, r.Queries)
	fmt.Fprintf(w, "  unhedged:   p50 %7.2fms  p95 %7.2fms  p99 %7.2fms\n", r.UnhedgedP50MS, r.UnhedgedP95MS, r.UnhedgedP99MS)
	fmt.Fprintf(w, "  hedged:     p50 %7.2fms  p95 %7.2fms  p99 %7.2fms  (%d hedges fired, %d won)\n",
		r.HedgedP50MS, r.HedgedP95MS, r.HedgedP99MS, r.HedgesFired, r.HedgesWon)
	fmt.Fprintf(w, "  p99 gain:   %7.1fx\n", r.P99Improvement)
}
