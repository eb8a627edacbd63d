// Command passd runs the PASSv2 provenance daemon: it serves PQL queries
// to many concurrent clients over the framed wire protocol in
// DESIGN.md §7/§9. Every query runs on an immutable snapshot of the
// database, so readers never block ingestion or each other.
//
// The daemon is also a remote DPAPI layer (§5.2):
// clients create phantom objects (mkobj), disclose provenance against
// them (write — durably acknowledged, pipelinable via batch), freeze
// them, and revive them across reconnects and daemon restarts. Anything
// written against dpapi.Object/dpapi.Layer — the Kepler PASS recorder,
// the provenance-aware Python runtime — stacks on this daemon unchanged
// through passd.Client; see the examples/remotesession walkthrough.
//
// The database comes from one of three places: a snapshot file (-db,
// written with Machine.SaveDB or waldo.DB.Save), the built-in demo
// database (-demo), or a provenance log directory on the local file
// system (-logdir), which the daemon tails continuously and extends via
// the protocol's "write" verb.
//
// With -checkpoint-dir the daemon is crash-durable: a background
// checkpointer persists atomic generations (database snapshot + log tail
// offsets, DESIGN.md §8), and on boot the daemon recovers the newest
// valid generation — falling back across corrupt ones — and re-drains
// only the log bytes past the checkpointed offsets, so restart work is
// proportional to the tail, not the log.
//
// With -replicate W the daemon is a replication primary (DESIGN.md §10):
// followers started with -join announce themselves, the primary streams
// its provenance log to them, and a write is acknowledged only once W
// daemons (counting the primary) hold it durably — so any single
// machine's death loses zero acked records. Followers are read-only
// replicas serving the same queries; point a read cluster at all of them
// for failover and hedged reads.
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
	"bytes"
	"crypto/ed25519"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"passv2/internal/bench"
	"passv2/internal/checkpoint"
	"passv2/internal/mmr"
	"passv2/internal/passd"
	"passv2/internal/provlog"
	"passv2/internal/record"
	"passv2/internal/replica"
	"passv2/internal/signer"
	"passv2/internal/vfs"
	"passv2/internal/waldo"
)

// logVolumeName is the stable volume identity under which a -logdir tail
// is checkpointed; it must not change across restarts or recovery could
// not match the recorded offsets back to the volume.
const logVolumeName = "logdir"

func main() {
	addr := flag.String("addr", "127.0.0.1:7457", "TCP listen address")
	dbPath := flag.String("db", "", "provenance database snapshot to serve")
	demo := flag.Bool("demo", false, "serve a built-in demo database instead of -db")
	logDir := flag.String("logdir", "", "provenance log directory to tail (and append to) on the local file system")
	drainInterval := flag.Duration("drain-interval", 500*time.Millisecond, "how often the daemon drains the -logdir log")
	ckptDir := flag.String("checkpoint-dir", "", "directory for durable checkpoints (enables crash recovery)")
	ckptInterval := flag.Duration("checkpoint-interval", 30*time.Second, "elapsed-time checkpoint trigger")
	ckptRecords := flag.Int64("checkpoint-records", 50000, "records-ingested checkpoint trigger (0 = interval only)")
	ckptFullEvery := flag.Int("checkpoint-full-every", 8, "write a full snapshot every N checkpoint generations and cheap deltas in between (<=1 = always full)")
	retain := flag.Int("retain", checkpoint.DefaultRetain, "checkpoint generations to keep")
	workers := flag.Int("workers", 0, "query worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max queries waiting for a worker before shedding (0 = 4x workers)")
	timeout := flag.Duration("timeout", 5*time.Second, "default per-query deadline")
	maxTimeout := flag.Duration("max-timeout", 30*time.Second, "cap on client-requested deadlines")
	replicate := flag.Int("replicate", 0, "write quorum counting this daemon: acks wait for N-1 follower copies (1 = replicate asynchronously, 0 = replication off); requires -logdir")
	commitTimeout := flag.Duration("commit-timeout", 10*time.Second, "how long an ack may wait for the write quorum before refusing")
	join := flag.String("join", "", "primary address to follow: run as a read-only replica of that daemon; requires -logdir")
	joinInterval := flag.Duration("join-interval", time.Second, "how often a follower re-announces itself to the primary")
	advertise := flag.String("advertise", "", "address the primary should dial this follower back on (default: the bound -addr)")
	admin := flag.String("admin", "", "HTTP admin listen address serving /metrics, /healthz and /readyz (empty = off)")
	useMMR := flag.Bool("mmr", true, "maintain a Merkle mountain range over -logdir, sign checkpoint roots, and serve the verify verb (tamper evidence, DESIGN.md §13)")
	keyDir := flag.String("key-dir", "", "directory for the daemon's Ed25519 signing identity (default <logdir>/keys)")
	quotas := map[string]passd.TenantQuota{}
	flag.Func("quota", "per-tenant quota as tenant=maxInflight:stagedBytesPerSec (0 = unlimited axis); repeatable", func(v string) error {
		name, caps, ok := strings.Cut(v, "=")
		if !ok || name == "" {
			return fmt.Errorf("want tenant=maxInflight:stagedBytesPerSec, got %q", v)
		}
		inflightS, bytesS, ok := strings.Cut(caps, ":")
		if !ok {
			return fmt.Errorf("want tenant=maxInflight:stagedBytesPerSec, got %q", v)
		}
		inflight, err := strconv.Atoi(inflightS)
		if err != nil {
			return fmt.Errorf("bad maxInflight in %q: %v", v, err)
		}
		bytes, err := strconv.ParseInt(bytesS, 10, 64)
		if err != nil {
			return fmt.Errorf("bad stagedBytesPerSec in %q: %v", v, err)
		}
		quotas[name] = passd.TenantQuota{MaxInFlight: inflight, StagedBytesPerSec: bytes}
		return nil
	})
	flag.Parse()

	if *replicate > 0 && *join != "" {
		fmt.Fprintln(os.Stderr, "passd: -replicate (primary) and -join (follower) are mutually exclusive")
		os.Exit(2)
	}
	if (*replicate > 0 || *join != "") && *logDir == "" {
		fmt.Fprintln(os.Stderr, "passd: replication ships the provenance log, so -replicate/-join require -logdir")
		os.Exit(2)
	}

	// The log directory's file system is opened first: tamper evidence
	// derives the MMR from the on-disk log before recovery decides which
	// checkpoint to trust.
	var dfs *vfs.DirFS
	if *logDir != "" {
		var err error
		dfs, err = vfs.NewDirFS(*logDir)
		die(err)
	}

	// Tamper evidence (DESIGN.md §13): a signing identity plus a Merkle
	// mountain range over the provenance log. The range is built per role
	// — a follower drives it from the replication stream (TailFeeder), a
	// primary needs the full node set to serve root claims at arbitrary
	// stream offsets, and a standalone daemon resumes cheaply from the
	// peak file, rehydrating only when a proof demands history.
	tamper := *useMMR && *logDir != ""
	var (
		id     *signer.Identity
		bootM  *mmr.MMR
		feeder *provlog.TailFeeder
	)
	if tamper {
		var err error
		if *keyDir != "" {
			var kfs *vfs.DirFS
			kfs, err = vfs.NewDirFS(*keyDir)
			die(err)
			id, err = signer.LoadOrCreate(kfs, "/")
		} else {
			id, err = signer.LoadOrCreate(dfs, "/keys")
		}
		die(err)
		switch {
		case *join != "":
			feeder, err = provlog.LoadFeeder(dfs, "/", logVolumeName)
			die(err)
			bootM = feeder.MMR()
		case *replicate > 0:
			bootM, err = provlog.RebuildMMR(dfs, "/", logVolumeName)
			die(err)
		default:
			bootM, err = provlog.LoadMMR(dfs, "/", logVolumeName)
			die(err)
		}
		fmt.Printf("passd: tamper evidence on: device %x, MMR at %d leaves\n", id.DeviceID, bootM.Count())
	}

	// Boot-time recovery: load the newest valid checkpoint generation,
	// falling back across corrupt ones, before deciding the database.
	var (
		store *checkpoint.Store
		rec   *checkpoint.Recovered
	)
	if *ckptDir != "" {
		var err error
		store, err = checkpoint.OpenDir(*ckptDir, *retain)
		die(err)
		if tamper {
			// Recovery must not trust a checkpoint whose signed root the
			// log cannot reproduce: a candidate that fails here is skipped
			// with class root_mismatch and recovery falls back, exactly as
			// for a CRC failure — this is the CRC-valid-but-forged case.
			store.VerifyProofs = func(man *checkpoint.Manifest) error {
				for _, p := range man.Proofs {
					if p.Volume != logVolumeName {
						return fmt.Errorf("generation %d: proof names unknown volume %q", man.Gen, p.Volume)
					}
					if !bytes.Equal(p.PubKey, id.Pub) {
						return fmt.Errorf("generation %d: proof signed by a different identity", man.Gen)
					}
					st := signer.Statement{
						DeviceID:  p.DeviceID,
						Volume:    p.Volume,
						Root:      p.Root,
						Size:      p.Size,
						Gen:       uint64(man.Gen),
						Timestamp: p.Timestamp,
					}
					if !signer.Verify(ed25519.PublicKey(p.PubKey), st, p.Sig) {
						return fmt.Errorf("generation %d: root statement signature is invalid", man.Gen)
					}
					root, err := bootM.RootAt(p.Size)
					if errors.Is(err, mmr.ErrPruned) {
						// The peak file resumed past this generation's
						// size; rehydrate from the log and retry.
						var full *mmr.MMR
						if full, err = provlog.RebuildMMR(dfs, "/", logVolumeName); err != nil {
							return err
						}
						bootM = full
						root, err = bootM.RootAt(p.Size)
					}
					if err != nil {
						return err
					}
					if root != p.Root {
						return fmt.Errorf("generation %d: signed root over %d records does not match the log", man.Gen, p.Size)
					}
				}
				return nil
			}
		}
		rec, err = store.Load()
		die(err)
		for _, skip := range rec.Skipped {
			fmt.Printf("passd: recovery skipped generation %d [%s]: %s\n", skip.Gen, skip.Class, skip.Reason)
		}
	}

	var db *waldo.DB
	switch {
	case rec != nil && rec.DB != nil:
		db = rec.DB
		fmt.Printf("passd: recovered checkpoint generation %d (%d records, %d snapshot bytes)\n",
			rec.Gen, rec.Records, rec.SnapshotBytes)
	case *dbPath != "":
		f, err := os.Open(*dbPath)
		die(err)
		var lerr error
		db, lerr = waldo.Load(f)
		f.Close()
		die(lerr)
	case *demo:
		db = bench.DemoDB()
	case *logDir != "":
		db = waldo.NewDB() // cold start: everything replays from the log
	default:
		fmt.Fprintln(os.Stderr, "passd: need -db <snapshot>, -demo, -logdir <dir> or a recoverable -checkpoint-dir")
		os.Exit(2)
	}

	w := waldo.New()
	w.DB = db

	// Attach the on-disk log, if any: a write-through provlog on a DirFS,
	// so acknowledged writes survive a SIGKILL. Staging (Append) and the
	// durable-ack barrier (Sync) are split so a pipelined DPAPI batch
	// pays one fsync per acknowledgment, not one per record — the server
	// calls Sync exactly once before each acked request.
	var (
		appendFn  func([]record.Record) error
		syncFn    func() error
		logWriter *provlog.Writer
	)
	if *logDir != "" {
		var err error
		logWriter, err = provlog.NewWriter(dfs, "/", 0)
		die(err)
		w.Attach(waldo.NewLogVolume(logVolumeName, dfs, logWriter))
		appendFn = func(recs []record.Record) error {
			for _, r := range recs {
				if err := logWriter.AppendRecord(0, r); err != nil {
					return err
				}
			}
			return nil
		}
		syncFn = logWriter.Sync
	}

	// Wire the MMR into the writer so every appended frame becomes a
	// leaf. A follower's range is driven by the replication stream (the
	// feeder), not by the writer — its writer never appends. A log whose
	// tail the MMR cannot cover (torn bytes mid-file) degrades to serving
	// without tamper evidence rather than refusing to boot.
	if tamper && *join == "" {
		if err := logWriter.AttachMMR(bootM, logVolumeName); err != nil {
			fmt.Fprintf(os.Stderr, "passd: tamper evidence disabled: %v\n", err)
			tamper, bootM = false, nil
		}
	}

	// Replication roles. A primary streams its log file to followers and
	// gates acks on the write quorum; a follower receives log bytes via
	// replappend (its own writer is never appended to — the only writer
	// of a follower's log is the replication stream) and is read-only on
	// the client surface.
	var (
		prim *replica.Primary
		flog *replica.FollowerLog
	)
	if *replicate > 0 {
		// Followers mirror log.current by byte offset, so a rotation (which
		// renames it and starts a fresh file) would silently fork every
		// replica. -replicate already passes MaxSize 0; this refuses the
		// explicit Rotate path too.
		logWriter.DisableRotation("replication primary: follower offsets track log.current")
		src, err := replica.OpenFileSource(dfs, "/"+provlog.CurrentName)
		die(err)
		var rsrc replica.Source = src
		if tamper {
			// A proof-aware primary sends its MMR leaf count and root
			// alongside each replicated chunk; proof-aware followers
			// recompute and refuse a fork before it becomes durable.
			rsrc = replica.WithProofs(src, func(end int64) (uint64, [32]byte, bool) {
				m := logWriter.MMR()
				if m == nil {
					return 0, [32]byte{}, false
				}
				n, ok := m.LeavesAtOffset(end)
				if !ok {
					return 0, [32]byte{}, false
				}
				root, err := m.RootAt(n)
				if err != nil {
					return 0, [32]byte{}, false
				}
				return n, root, true
			})
		}
		prim = replica.NewPrimary(rsrc, replica.Config{
			Quorum:        *replicate,
			CommitTimeout: *commitTimeout,
			Dial: passd.PeerDialer(passd.Options{
				DialTimeout:    2 * time.Second,
				RequestTimeout: 30 * time.Second,
			}),
		})
	}
	if *join != "" {
		// Same divergence hazard as the primary: the replication stream
		// appends to log.current by offset, so the attached writer must
		// never rename it away.
		logWriter.DisableRotation("replication follower: the stream appends to log.current by offset")
		var err error
		flog, err = replica.OpenFollowerLog(dfs, "/"+provlog.CurrentName)
		die(err)
		appendFn, syncFn = nil, nil
	}
	if rec != nil && rec.DB != nil {
		for _, name := range w.RestoreVolumes(rec.Volumes) {
			fmt.Printf("passd: checkpointed volume %q has no attached log; its offsets were dropped\n", name)
		}
	}

	// Catch-up drain: with a recovered checkpoint this reads only the log
	// tail past the recorded offsets (proportional work); cold it replays
	// the whole log.
	if *logDir != "" {
		die(w.Drain())
		if rec != nil && rec.DB != nil {
			fmt.Printf("passd: resumed past %d checkpointed log bytes, replayed %d tail entries\n",
				rec.ResumeBytes(), w.EntriesDecoded())
		}
		w.Start(*drainInterval)
	}

	// Checkpoint signing and the server's tamper surface. Every committed
	// generation carries a signed statement binding the checkpoint to the
	// exact log prefix it covers; the MMR peak state that statement was
	// taken from is persisted after the manifest commits (the stash), so
	// the next boot resumes the range without rehashing history.
	var tamperCfg *passd.TamperConfig
	if tamper {
		var stash struct {
			mu sync.Mutex
			st mmr.State
			ok bool
		}
		var saveState func() error
		if store != nil {
			store.MakeProofs = func(cp *waldo.CheckpointState) ([]checkpoint.Proof, error) {
				var (
					st   mmr.State
					root mmr.Hash
					err  error
				)
				if feeder != nil {
					// A follower signs what the replication stream has
					// fed: its log is the primary's, verbatim.
					m := feeder.MMR()
					st = m.State()
					if root, err = m.RootAt(st.Count); err != nil {
						return nil, err
					}
				} else if st, _, root, err = logWriter.SyncTamper(); err != nil {
					return nil, err
				}
				stmt := signer.Statement{
					Volume:    logVolumeName,
					Root:      root,
					Size:      st.Count,
					Gen:       uint64(cp.Gen),
					Timestamp: uint64(time.Now().Unix()),
				}
				stash.mu.Lock()
				stash.st, stash.ok = st, true
				stash.mu.Unlock()
				return []checkpoint.Proof{{
					Volume:    logVolumeName,
					Size:      st.Count,
					Root:      root,
					Timestamp: stmt.Timestamp,
					DeviceID:  id.DeviceID,
					PubKey:    append([]byte(nil), id.Pub...),
					Sig:       id.Sign(stmt),
				}}, nil
			}
			if feeder == nil {
				saveState = func() error {
					stash.mu.Lock()
					st, ok := stash.st, stash.ok
					stash.mu.Unlock()
					if !ok {
						return nil
					}
					return provlog.SaveMMR(dfs, "/", st)
				}
			}
		}
		tamperCfg = &passd.TamperConfig{
			Volume:    logVolumeName,
			Signer:    id,
			SaveState: saveState,
		}
		if feeder != nil {
			tamperCfg.MMR = feeder.MMR
		} else {
			tamperCfg.MMR = logWriter.MMR
			tamperCfg.Rehydrate = logWriter.Rehydrate
		}
	}

	srv, err := passd.Serve(w, passd.Config{
		Addr:                *addr,
		Workers:             *workers,
		MaxQueue:            *queue,
		DefaultTimeout:      *timeout,
		MaxTimeout:          *maxTimeout,
		Checkpoints:         store,
		CheckpointInterval:  *ckptInterval,
		CheckpointEvery:     *ckptRecords,
		CheckpointFullEvery: *ckptFullEvery,
		Append:              appendFn,
		Sync:                syncFn,
		Recovered:           rec,
		Replicate:           prim,
		Follower:            flog,
		AdminAddr:           *admin,
		TenantQuotas:        quotas,
		Tamper:              tamperCfg,
		Feeder:              feeder,
	})
	die(err)
	records, _, _ := db.Stats()
	fmt.Printf("passd: serving %d records on %s\n", records, srv.Addr())
	if a := srv.AdminAddr(); a != "" {
		fmt.Printf("passd: admin endpoints on http://%s (/metrics /healthz /readyz)\n", a)
	}

	// A follower announces itself to the primary on a timer: the first
	// round registers it, later rounds are idempotent no-ops that
	// re-register after a primary restart. The primary dials back and
	// drives replication from whatever offset this follower's log holds.
	if *join != "" {
		self := *advertise
		if self == "" {
			self = srv.Addr()
		}
		fmt.Printf("passd: following %s as %s\n", *join, self)
		go func() {
			for {
				if err := passd.Announce(*join, self, 2*time.Second); err == nil {
					time.Sleep(*joinInterval)
				} else {
					time.Sleep(*joinInterval / 2)
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("passd: shutting down")
	if *logDir != "" {
		die(w.Stop()) // final drain so the shutdown checkpoint is complete
	}
	die(srv.Close()) // flushes a final checkpoint generation
	if prim != nil {
		die(prim.Close())
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "passd:", err)
		os.Exit(1)
	}
}
