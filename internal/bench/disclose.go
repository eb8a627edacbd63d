package bench

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"passv2/internal/passd"
	"passv2/internal/pnode"
	"passv2/internal/record"
)

// DiscloseResult reports remote disclosure throughput:
// one DPAPI write per round-trip (each paying a network round-trip and a
// durable acknowledgment) versus the same records pipelined in batches
// (one round-trip and one fsync per batch). The multiplier is the whole
// argument for the batch verb — §6.5-style applications disclose
// thousands of small records, and per-record acknowledgment latency is
// what would make a remote layer unusable.
type DiscloseResult struct {
	Records   int  `json:"records"`    // records disclosed per phase
	BatchSize int  `json:"batch_size"` // ops pipelined per batch request
	Durable   bool `json:"durable"`    // fsync-backed on-disk log

	PerRecordSecs float64 `json:"per_record_secs"`
	PerRecordRPS  float64 `json:"per_record_rps"`
	BatchedSecs   float64 `json:"batched_secs"`
	BatchedRPS    float64 `json:"batched_rps"`
	Multiplier    float64 `json:"multiplier"`
}

// Disclose measures remote DPAPI disclosure against a real daemon setup:
// a passd daemon over a write-through provenance log on the local file
// system (fsync on every acknowledgment, opened as cmd/passd -logdir
// opens it, without MMR or checkpoints), a
// TCP client, one phantom object, and `records` distinct INPUT records
// disclosed twice — once as single-record round-trips, once pipelined in
// batches of `batch`.
func Disclose(records, batch int) (DiscloseResult, error) {
	res := DiscloseResult{Records: records, BatchSize: batch, Durable: true}

	dir, err := os.MkdirTemp("", "passd-disclose-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	d, err := passd.Open(passd.DaemonConfig{LogDir: dir})
	if err != nil {
		return res, err
	}
	defer d.Close()
	c, err := passd.Dial(d.Server.Addr())
	if err != nil {
		return res, err
	}
	defer c.Close()

	obj, err := c.PassMkobj()
	if err != nil {
		return res, err
	}
	ro := obj.(*passd.RemoteObject)
	dep := func(i int) pnode.Ref {
		// Distinct dependencies so the analyzer's duplicate elimination
		// never collapses the workload.
		return pnode.Ref{PNode: pnode.PNode(0x0100000000000000 | uint64(i+1)), Version: 1}
	}

	// Phase 1: one record per round-trip, one durable ack each.
	runtime.GC()
	start := time.Now()
	for i := 0; i < records; i++ {
		if _, err := ro.PassWrite(nil, 0, record.NewBundle(record.Input(ro.Ref(), dep(i)))); err != nil {
			return res, err
		}
	}
	res.PerRecordSecs = time.Since(start).Seconds()

	// Phase 2: the same volume of fresh records, pipelined.
	runtime.GC()
	start = time.Now()
	b := c.NewBatch()
	for i := 0; i < records; i++ {
		if err := b.Disclose(ro, record.Input(ro.Ref(), dep(records+i))); err != nil {
			return res, err
		}
		if b.Len() >= batch {
			if err := b.Flush(); err != nil {
				return res, err
			}
		}
	}
	if err := b.Flush(); err != nil {
		return res, err
	}
	res.BatchedSecs = time.Since(start).Seconds()

	if res.PerRecordSecs > 0 {
		res.PerRecordRPS = float64(records) / res.PerRecordSecs
	}
	if res.BatchedSecs > 0 {
		res.BatchedRPS = float64(records) / res.BatchedSecs
	}
	if res.PerRecordRPS > 0 {
		res.Multiplier = res.BatchedRPS / res.PerRecordRPS
	}
	return res, nil
}

// PrintDisclose renders a DiscloseResult.
func PrintDisclose(w io.Writer, r DiscloseResult) {
	fmt.Fprintf(w, "remote disclosure: per-record round-trips vs pipelined batches\n")
	fmt.Fprintf(w, "  workload:   %d provenance records per phase, durable log acks: %v\n", r.Records, r.Durable)
	fmt.Fprintf(w, "  per-record: %8.3fs  (%10.0f rec/s; 1 round-trip + 1 fsync each)\n", r.PerRecordSecs, r.PerRecordRPS)
	fmt.Fprintf(w, "  batched:    %8.3fs  (%10.0f rec/s; %d ops per round-trip, 1 fsync per batch)\n",
		r.BatchedSecs, r.BatchedRPS, r.BatchSize)
	fmt.Fprintf(w, "  multiplier: %8.1fx\n", r.Multiplier)
}
