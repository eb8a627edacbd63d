// Command passd runs the PASSv2 provenance daemon: it serves PQL queries
// to many concurrent clients over the framed wire protocol in
// DESIGN.md §7/§9, each on an immutable snapshot of the database, and it
// is a remote DPAPI layer (§5.2): clients create phantom objects (mkobj),
// disclose provenance against them (write, durably acknowledged and
// pipelinable via batch), freeze and revive them. Anything written
// against dpapi.Object/dpapi.Layer stacks on it unchanged through
// passd.Client; see the examples/remotesession walkthrough.
//
// The database comes from a snapshot file (-db), the built-in demo
// database (-demo), or a provenance log directory (-logdir) that the
// daemon tails and extends through the "write" verb. With
// -checkpoint-dir it is crash-durable: it checkpoints atomic generations
// (DESIGN.md §8) and on boot recovers the newest valid one, re-draining
// only the log tail past it. With -replicate W it is a replication
// primary whose acks wait for W daemons to hold a write durably; with
// -join it is a read-only follower of one (DESIGN.md §10).
//
// This file is flags and a signal wait: passd.Open assembles the daemon
// (DESIGN.md §14) and Daemon.Close shuts it down.
//
// Usage:
//
//	passd -db prov.db                 # serve a snapshot on 127.0.0.1:7457
//	passd -demo -addr :9000           # serve the built-in demo database
//	passd -logdir /var/pass/log -checkpoint-dir /var/pass/ckpt
//	passd -db prov.db -workers 8 -timeout 10s
//	passd -demo -admin 127.0.0.1:7459  # /metrics /healthz /readyz
//	passd -demo -admin 127.0.0.1:7459 -quota burst=4:65536
//
//	# a 3-node replicated group, quorum 2:
//	passd -addr 127.0.0.1:7457 -logdir /var/pass/log -replicate 2
//	passd -addr 127.0.0.1:7458 -logdir /var/pass/f1  -join 127.0.0.1:7457
//	passd -addr 127.0.0.1:7459 -logdir /var/pass/f2  -join 127.0.0.1:7457
//
// Query it with cmd/pql:
//
//	pql -remote 127.0.0.1:7457 'select A from Provenance.file as F ...'
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"passv2/internal/bench"
	"passv2/internal/checkpoint"
	"passv2/internal/passd"
	"passv2/internal/waldo"
)

func main() {
	cfg := passd.DaemonConfig{Config: passd.Config{TenantQuotas: map[string]passd.TenantQuota{}}}
	flag.StringVar(&cfg.Addr, "addr", "127.0.0.1:7457", "TCP listen address")
	dbPath := flag.String("db", "", "provenance database snapshot to serve")
	demo := flag.Bool("demo", false, "serve a built-in demo database instead of -db")
	flag.StringVar(&cfg.LogDir, "logdir", "", "provenance log directory to tail (and append to) on the local file system")
	flag.DurationVar(&cfg.DrainInterval, "drain-interval", 500*time.Millisecond, "how often the daemon drains the -logdir log")
	flag.StringVar(&cfg.CheckpointDir, "checkpoint-dir", "", "directory for durable checkpoints (enables crash recovery)")
	flag.DurationVar(&cfg.CheckpointInterval, "checkpoint-interval", 30*time.Second, "elapsed-time checkpoint trigger")
	flag.Int64Var(&cfg.CheckpointEvery, "checkpoint-records", 50000, "records-ingested checkpoint trigger (0 = interval only)")
	flag.IntVar(&cfg.CheckpointFullEvery, "checkpoint-full-every", 8, "write a full snapshot every N checkpoint generations and cheap deltas in between (<=1 = always full)")
	flag.IntVar(&cfg.Retain, "retain", checkpoint.DefaultRetain, "checkpoint generations to keep")
	flag.IntVar(&cfg.Workers, "workers", 0, "query worker pool size (0 = GOMAXPROCS)")
	flag.IntVar(&cfg.MaxQueue, "queue", 0, "max queries waiting for a worker before shedding (0 = 4x workers)")
	flag.DurationVar(&cfg.DefaultTimeout, "timeout", 5*time.Second, "default per-query deadline")
	flag.DurationVar(&cfg.MaxTimeout, "max-timeout", 30*time.Second, "cap on client-requested deadlines")
	flag.IntVar(&cfg.Quorum, "replicate", 0, "write quorum counting this daemon: acks wait for N-1 follower copies (1 = replicate asynchronously, 0 = replication off); requires -logdir")
	flag.DurationVar(&cfg.CommitTimeout, "commit-timeout", 10*time.Second, "how long an ack may wait for the write quorum before refusing")
	flag.StringVar(&cfg.Join, "join", "", "primary address to follow: run as a read-only replica of that daemon; requires -logdir")
	flag.DurationVar(&cfg.JoinInterval, "join-interval", time.Second, "how often a follower re-announces itself to the primary")
	flag.StringVar(&cfg.Advertise, "advertise", "", "address the primary should dial this follower back on (default: the bound -addr)")
	flag.StringVar(&cfg.AdminAddr, "admin", "", "HTTP admin listen address serving /metrics, /healthz and /readyz (empty = off)")
	flag.BoolVar(&cfg.MMR, "mmr", true, "maintain a Merkle mountain range over -logdir, sign checkpoint roots, and serve the verify verb (tamper evidence, DESIGN.md §13)")
	flag.StringVar(&cfg.KeyDir, "key-dir", "", "directory for the daemon's Ed25519 signing identity (default <logdir>/keys)")
	flag.Func("quota", "per-tenant quota as tenant=maxInflight:stagedBytesPerSec (0 = unlimited axis); repeatable", func(v string) error {
		return passd.ParseQuota(cfg.TenantQuotas, v)
	})
	flag.Parse()

	switch {
	case *dbPath != "":
		cfg.DB = func() (*waldo.DB, error) {
			f, err := os.Open(*dbPath)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return waldo.Load(f)
		}
	case *demo:
		cfg.DB = func() (*waldo.DB, error) { return bench.DemoDB(), nil }
	}

	d, err := passd.Open(cfg)
	if errors.Is(err, passd.ErrConfig) {
		fmt.Fprintln(os.Stderr, "passd:", err)
		os.Exit(2)
	}
	die(err)
	b := d.Boot
	if b.Tamper {
		fmt.Printf("passd: tamper evidence on: device %x, MMR at %d leaves\n", b.DeviceID, b.MMRLeaves)
	}
	rec := b.Recovered
	if rec != nil {
		for _, skip := range rec.Skipped {
			fmt.Printf("passd: recovery skipped generation %d [%s]: %s\n", skip.Gen, skip.Class, skip.Reason)
		}
		if rec.DB != nil {
			fmt.Printf("passd: recovered checkpoint generation %d (%d records, %d snapshot bytes)\n",
				rec.Gen, rec.Records, rec.SnapshotBytes)
		}
	}
	for _, name := range b.DroppedVolumes {
		fmt.Printf("passd: checkpointed volume %q has no attached log; its offsets were dropped\n", name)
	}
	if cfg.LogDir != "" && rec != nil && rec.DB != nil {
		fmt.Printf("passd: resumed past %d checkpointed log bytes, replayed %d tail entries\n",
			rec.ResumeBytes(), b.Replayed)
	}
	records, _, _ := d.Waldo.DB.Stats()
	fmt.Printf("passd: serving %d records on %s\n", records, d.Server.Addr())
	if a := d.Server.AdminAddr(); a != "" {
		fmt.Printf("passd: admin endpoints on http://%s (/metrics /healthz /readyz)\n", a)
	}
	if cfg.Join != "" {
		fmt.Printf("passd: following %s as %s\n", cfg.Join, b.Advertise)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("passd: shutting down")
	die(d.Close())
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "passd:", err)
		os.Exit(1)
	}
}
