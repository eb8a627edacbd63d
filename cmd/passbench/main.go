// Command passbench regenerates the paper's evaluation (§7): Table 1 (the
// record types each provenance-aware application collects), Table 2
// (elapsed-time overheads, PASSv2 vs ext3 and PA-NFS vs NFS, across the
// five workloads) and Table 3 (space overheads), printing measured rows
// next to the published numbers. Its other modes each measure one claim
// and write it as JSON for CI to gate. Waldo ingestion, the PQL planner
// and concurrent serving are measured by the root package's Go benchmarks
// (BenchmarkWaldoIngest, BenchmarkPQLQuery, BenchmarkConcurrentQuery).
//
// Usage:
//
//	passbench -table 2            # local + NFS elapsed-time overheads
//	passbench -table 2 -local     # local only
//	passbench -table 2 -nfs       # NFS only
//	passbench -table 3            # space overheads
//	passbench -table 1            # record-type inventory
//	passbench -recover            # checkpoint recovery vs from-zero re-ingest (BENCH_recover.json)
//	passbench -disclose           # remote DPAPI disclosure, per-record vs batched (BENCH_disclose.json)
//	passbench -replicate          # hedged vs unhedged reads on a replicated group (BENCH_replicate.json)
//	passbench -swarm              # the serving edge under a 1k-session swarm, plus noisy-tenant isolation (BENCH_swarm.json)
//	passbench -verify             # tamper-evidence costs: MMR ingest overhead, proofs, audit (BENCH_verify.json)
//	passbench -all                # everything
//	passbench -scale 0.4          # workload scale (1.0 = paper-sized)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"passv2/internal/bench"
)

func main() {
	table := flag.Int("table", 0, "which table to regenerate (1, 2 or 3)")
	all := flag.Bool("all", false, "regenerate every table")
	scale := flag.Float64("scale", 0.4, "workload scale in (0,1]; 1.0 is paper-sized")
	localOnly := flag.Bool("local", false, "table 2: only the PASSv2-vs-ext3 half")
	nfsOnly := flag.Bool("nfs", false, "table 2: only the PA-NFS-vs-NFS half")
	recoverFlag := flag.Bool("recover", false, "measure checkpoint recovery vs from-zero re-ingest")
	recoverRecords := flag.Int("recover-records", 120000, "recover: records ingested before the checkpoint")
	recoverTail := flag.Int("recover-tail", 2000, "recover: records appended after the checkpoint")
	recoverJSON := flag.String("recover-json", "BENCH_recover.json", "recover: file for the JSON result (empty = don't write)")
	disclose := flag.Bool("disclose", false, "measure remote DPAPI disclosure: per-record round-trips vs pipelined batches")
	discloseRecords := flag.Int("disclose-records", 4000, "disclose: records per phase")
	discloseBatch := flag.Int("disclose-batch", 64, "disclose: DPAPI ops per pipelined batch")
	discloseJSON := flag.String("disclose-json", "BENCH_disclose.json", "disclose: file for the JSON result (empty = don't write)")
	swarm := flag.Bool("swarm", false, "measure the serving edge under a session swarm multiplexed over a few connections")
	swarmSessions := flag.Int("swarm-sessions", 1000, "swarm: concurrent client sessions")
	swarmConns := flag.Int("swarm-conns", 64, "swarm: TCP connections the sessions share")
	swarmSecs := flag.Float64("swarm-secs", 5.0, "swarm: seconds measured")
	swarmTenantSecs := flag.Float64("swarm-tenant-secs", 3.0, "swarm: seconds per noisy-tenant isolation arm (0 = skip the tenant arms)")
	swarmJSON := flag.String("swarm-json", "BENCH_swarm.json", "swarm: file for the JSON result (empty = don't write)")
	replicate := flag.Bool("replicate", false, "measure hedged vs unhedged cluster reads on a replicated group with one slow follower")
	replRecords := flag.Int("replicate-records", 2000, "replicate: records replicated before measuring")
	replQueries := flag.Int("replicate-queries", 300, "replicate: queries per measured arm")
	replSlow := flag.Duration("replicate-slow", 25*time.Millisecond, "replicate: injected response delay on the slow follower")
	replHedge := flag.Duration("replicate-hedge", 3*time.Millisecond, "replicate: hedge trigger delay")
	replJSON := flag.String("replicate-json", "BENCH_replicate.json", "replicate: file for the JSON result (empty = don't write)")
	verifyFlag := flag.Bool("verify", false, "measure tamper-evidence costs: MMR ingest overhead, proof latency, signatures, offline audit")
	verifyRecords := flag.Int("verify-records", 60000, "verify: records per ingest arm")
	verifyProofs := flag.Int("verify-proofs", 2000, "verify: inclusion proofs to generate")
	verifyJSON := flag.String("verify-json", "BENCH_verify.json", "verify: file for the JSON result (empty = don't write)")
	flag.Parse()

	// Each mode runs its measurement, prints it and writes the result to
	// its JSON file; -all runs every mode, then every table.
	modes := []struct {
		on   bool
		json string
		run  func() (any, error)
	}{
		{*recoverFlag, *recoverJSON, func() (any, error) {
			return printed(bench.PrintRecover)(bench.Recover(*recoverRecords, *recoverTail))
		}},
		{*disclose, *discloseJSON, func() (any, error) {
			return printed(bench.PrintDisclose)(bench.Disclose(*discloseRecords, *discloseBatch))
		}},
		{*replicate, *replJSON, func() (any, error) {
			return printed(bench.PrintReplicate)(bench.Replicate(*replRecords, *replQueries, *replSlow, *replHedge))
		}},
		{*swarm, *swarmJSON, func() (any, error) {
			return printed(bench.PrintSwarm)(bench.Swarm(*swarmSessions, *swarmConns, *swarmSecs, *swarmTenantSecs))
		}},
		{*verifyFlag, *verifyJSON, func() (any, error) {
			return printed(bench.PrintVerify)(bench.Verify(*verifyRecords, *verifyProofs))
		}},
	}
	ran := false
	for _, m := range modes {
		if !m.on && !*all {
			continue
		}
		ran = true
		res, err := m.run()
		die(err)
		if m.json != "" {
			data, err := json.MarshalIndent(res, "", "  ")
			die(err)
			die(os.WriteFile(m.json, append(data, '\n'), 0o644))
			fmt.Printf("  wrote %s\n", m.json)
		}
	}
	switch {
	case *all:
		runTable(1, *scale, false, false)
		runTable(2, *scale, false, false)
		runTable(3, *scale, false, false)
	case *table != 0:
		runTable(*table, *scale, *localOnly, *nfsOnly)
	case !ran:
		flag.Usage()
		os.Exit(2)
	}
}

// printed adapts a result printer to a measurement's (result, error)
// pair: it prints a successful result to stdout and passes both on.
func printed[R any](print func(io.Writer, R)) func(R, error) (any, error) {
	return func(res R, err error) (any, error) {
		if err == nil {
			print(os.Stdout, res)
		}
		return res, err
	}
}

func runTable(table int, scale float64, localOnly, nfsOnly bool) {
	switch table {
	case 1:
		t1, err := bench.Table1()
		die(err)
		bench.PrintTable1(os.Stdout, t1)
	case 2:
		if !nfsOnly {
			rows, err := bench.Table2Local(scale)
			die(err)
			bench.PrintTable2(os.Stdout, fmt.Sprintf("Table 2 (local): PASSv2 vs ext3, scale %.2f", scale), rows)
		}
		if !localOnly {
			rows, err := bench.Table2NFS(scale)
			die(err)
			bench.PrintTable2(os.Stdout, fmt.Sprintf("Table 2 (network): PA-NFS vs NFS, scale %.2f", scale), rows)
		}
	case 3:
		rows, err := bench.Table3(scale)
		die(err)
		bench.PrintTable3(os.Stdout, rows)
	default:
		fmt.Fprintf(os.Stderr, "unknown table %d\n", table)
		os.Exit(2)
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "passbench:", err)
		os.Exit(1)
	}
}
