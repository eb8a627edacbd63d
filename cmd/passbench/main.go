// Command passbench regenerates the paper's evaluation (§7): Table 1 (the
// record types each provenance-aware application collects), Table 2
// (elapsed-time overheads, PASSv2 vs ext3 and PA-NFS vs NFS, across the
// five workloads) and Table 3 (space overheads), printing measured rows
// next to the published numbers.
//
// Usage:
//
//	passbench -table 2            # local + NFS elapsed-time overheads
//	passbench -table 2 -local     # local only
//	passbench -table 2 -nfs       # NFS only
//	passbench -table 3            # space overheads
//	passbench -table 1            # record-type inventory
//	passbench -ingest             # Waldo log→database pipeline throughput
//	passbench -query              # PQL planner vs naive evaluator
//	passbench -serve              # passd concurrent serving vs serialized queries
//	passbench -recover            # checkpoint recovery vs from-zero re-ingest (BENCH_recover.json)
//	passbench -disclose           # remote DPAPI disclosure, per-record vs batched (BENCH_disclose.json)
//	passbench -replicate          # hedged vs unhedged reads on a replicated group (BENCH_replicate.json)
//	passbench -swarm              # the serving edge under a 1k-session swarm, plus noisy-tenant isolation (BENCH_swarm.json)
//	passbench -verify             # tamper-evidence costs: MMR ingest overhead, proofs, audit (BENCH_verify.json)
//	passbench -all                # everything
//	passbench -scale 0.4          # workload scale (1.0 = paper-sized)
//	passbench -records 100000     # ingest benchmark size
package main

import (
	"encoding/json"
	"flag"
	"fmt"
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
	ingest := flag.Bool("ingest", false, "measure Waldo ingestion throughput (records/sec)")
	records := flag.Int("records", 50000, "ingest: records in the cold-ingest log")
	drains := flag.Int("drains", 200, "ingest: incremental drains in the steady-state phase")
	batch := flag.Int("batch", 50, "ingest: records appended before each steady-state drain")
	query := flag.Bool("query", false, "measure the PQL planner vs the naive evaluator")
	queryRecords := flag.Int("query-records", 120000, "query: records in the benchmark database")
	serve := flag.Bool("serve", false, "measure passd concurrent serving vs serialized in-process queries")
	serveRecords := flag.Int("serve-records", 24000, "serve: records in the benchmark database")
	serveClients := flag.Int("serve-clients", 16, "serve: concurrent passd clients")
	serveSecs := flag.Float64("serve-secs", 3.0, "serve: seconds per measured phase")
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

	if *ingest || *all {
		runIngest(*records, *drains, *batch)
		if !*all {
			return
		}
	}
	if *query || *all {
		runQuery(*queryRecords)
		if !*all {
			return
		}
	}
	if *serve || *all {
		runServe(*serveRecords, *serveClients, *serveSecs)
		if !*all {
			return
		}
	}
	if *recoverFlag || *all {
		runRecover(*recoverRecords, *recoverTail, *recoverJSON)
		if !*all {
			return
		}
	}
	if *disclose || *all {
		runDisclose(*discloseRecords, *discloseBatch, *discloseJSON)
		if !*all {
			return
		}
	}
	if *replicate || *all {
		runReplicate(*replRecords, *replQueries, *replSlow, *replHedge, *replJSON)
		if !*all {
			return
		}
	}
	if *swarm || *all {
		runSwarm(*swarmSessions, *swarmConns, *swarmSecs, *swarmTenantSecs, *swarmJSON)
		if !*all {
			return
		}
	}
	if *verifyFlag || *all {
		runVerify(*verifyRecords, *verifyProofs, *verifyJSON)
		if !*all {
			return
		}
	}
	if *all {
		runTable(1, *scale, false, false)
		runTable(2, *scale, false, false)
		runTable(3, *scale, false, false)
		return
	}
	if *table == 0 {
		flag.Usage()
		os.Exit(2)
	}
	runTable(*table, *scale, *localOnly, *nfsOnly)
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

func runIngest(records, drains, batch int) {
	res, err := bench.Ingest(records, drains, batch)
	die(err)
	bench.PrintIngest(os.Stdout, res)
}

func runQuery(records int) {
	res, err := bench.Query(records)
	die(err)
	bench.PrintQuery(os.Stdout, res)
}

func runServe(records, clients int, secs float64) {
	res, err := bench.Serve(records, clients, secs)
	die(err)
	bench.PrintServe(os.Stdout, res)
}

func runRecover(records, tail int, jsonPath string) {
	res, err := bench.Recover(records, tail)
	die(err)
	bench.PrintRecover(os.Stdout, res)
	if jsonPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		die(err)
		die(os.WriteFile(jsonPath, append(data, '\n'), 0o644))
		fmt.Printf("  wrote %s\n", jsonPath)
	}
}

func runDisclose(records, batch int, jsonPath string) {
	res, err := bench.Disclose(records, batch)
	die(err)
	bench.PrintDisclose(os.Stdout, res)
	if jsonPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		die(err)
		die(os.WriteFile(jsonPath, append(data, '\n'), 0o644))
		fmt.Printf("  wrote %s\n", jsonPath)
	}
}

func runVerify(records, proofs int, jsonPath string) {
	res, err := bench.Verify(records, proofs)
	die(err)
	bench.PrintVerify(os.Stdout, res)
	if jsonPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		die(err)
		die(os.WriteFile(jsonPath, append(data, '\n'), 0o644))
		fmt.Printf("  wrote %s\n", jsonPath)
	}
}

func runReplicate(records, queries int, slow, hedge time.Duration, jsonPath string) {
	res, err := bench.Replicate(records, queries, slow, hedge)
	die(err)
	bench.PrintReplicate(os.Stdout, res)
	if jsonPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		die(err)
		die(os.WriteFile(jsonPath, append(data, '\n'), 0o644))
		fmt.Printf("  wrote %s\n", jsonPath)
	}
}

func runSwarm(sessions, conns int, secs, tenantSecs float64, jsonPath string) {
	res, err := bench.Swarm(sessions, conns, secs, tenantSecs)
	die(err)
	bench.PrintSwarm(os.Stdout, res)
	if jsonPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		die(err)
		die(os.WriteFile(jsonPath, append(data, '\n'), 0o644))
		fmt.Printf("  wrote %s\n", jsonPath)
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "passbench:", err)
		os.Exit(1)
	}
}
