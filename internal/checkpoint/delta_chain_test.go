package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"passv2/internal/vfs"
)

// buildChain ingests `phases` workload phases, checkpointing after each
// under pol, and returns the log FS, the store, the per-write infos
// (oldest first) and the fully drained database bytes. The first phase
// leaves a transaction open across the first cut; the second closes it.
func buildChain(t *testing.T, ckfs vfs.FS, pol Policy, phases int) (*vfs.MemFS, *Store, []Info, []byte) {
	t.Helper()
	lower := vfs.NewMemFS("log", nil)
	wd, log := newLogWaldo(t, lower)
	store, err := NewStore(ckfs, "/ck", 16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var infos []Info
	for i := 0; i < phases; i++ {
		openTxn := uint64(0)
		if i == 0 {
			openTxn = 77
		}
		appendWorkload(t, rng, log, i*150, 150, openTxn)
		if i == 1 {
			if err := log.AppendEndTxn(77); err != nil {
				t.Fatal(err)
			}
		}
		if err := wd.Drain(); err != nil {
			t.Fatal(err)
		}
		info, err := store.Write(wd.CheckpointState(), pol)
		if err != nil {
			t.Fatal(err)
		}
		if info.SweepErr != nil {
			t.Fatal(info.SweepErr)
		}
		infos = append(infos, info)
	}
	return lower, store, infos, dbBytes(t, wd.DB)
}

// TestDeltaChainRoundTrip pins the incremental-checkpoint contract: under
// a full-every-3 policy the store commits full, delta, delta, full, delta
// generations whose manifests link each delta to its immediate
// predecessor, deltas are smaller than fulls, and recovery composes the
// newest chain into a database byte-identical to the live one.
func TestDeltaChainRoundTrip(t *testing.T) {
	ckfs := vfs.NewMemFS("ck", nil)
	lower, store, infos, want := buildChain(t, ckfs, Policy{FullEvery: 3}, 5)

	wantKinds := []Kind{KindFull, KindDelta, KindDelta, KindFull, KindDelta}
	for i, info := range infos {
		if info.Kind != wantKinds[i] {
			t.Fatalf("write %d committed a %v generation, want %v", i, info.Kind, wantKinds[i])
		}
		if info.Kind == KindDelta {
			if info.BaseGen != infos[i-1].Gen {
				t.Fatalf("write %d delta bases gen %d, want predecessor %d", i, info.BaseGen, infos[i-1].Gen)
			}
			if info.SnapshotBytes <= 0 {
				t.Fatalf("write %d delta recorded %d payload bytes", i, info.SnapshotBytes)
			}
			if _, err := ckfs.Stat(genPath(info.Gen, "delta")); err != nil {
				t.Fatalf("write %d delta payload missing: %v", i, err)
			}
		} else if _, err := ckfs.Stat(genPath(info.Gen, "db")); err != nil {
			t.Fatalf("write %d full payload missing: %v", i, err)
		}
	}

	// Proportionality: every delta beats the size of a full generation,
	// including write 4's delta against the full it immediately follows.
	for _, i := range []int{1, 2, 4} {
		if infos[i].SnapshotBytes >= infos[3].SnapshotBytes {
			t.Fatalf("write %d delta is %d bytes, not smaller than the %d-byte full at write 3",
				i, infos[i].SnapshotBytes, infos[3].SnapshotBytes)
		}
	}

	rec, db := recoverAndReplay(t, store, lower)
	if rec.DB == nil || rec.Gen != infos[4].Gen {
		t.Fatalf("recovered gen %d, want chain head %d (skipped %v)", rec.Gen, infos[4].Gen, rec.Skipped)
	}
	if len(rec.Skipped) != 0 {
		t.Fatalf("clean chain reported skips: %v", rec.Skipped)
	}
	if len(rec.Chain) != 2 || rec.Chain[0] != infos[4].Gen || rec.Chain[1] != infos[3].Gen {
		t.Fatalf("recovered chain %v, want [%d %d]", rec.Chain, infos[4].Gen, infos[3].Gen)
	}
	if got := dbBytes(t, db); !bytes.Equal(got, want) {
		t.Fatal("chain recovery + replay differs from the live database")
	}
}

// TestDeltaFallsBackToFull sweeps the cases where the policy asks for a
// delta but the store must write a full generation instead: no pinned
// base (a fresh process), the base generation gone from the directory, a
// base view from a different database incarnation, and a delta that would
// be at least as large as the full snapshot.
func TestDeltaFallsBackToFull(t *testing.T) {
	pol := Policy{FullEvery: 100}

	t.Run("fresh process has no base", func(t *testing.T) {
		ckfs := vfs.NewMemFS("ck", nil)
		lower, _, infos, _ := buildChain(t, ckfs, pol, 2)
		if infos[1].Kind != KindDelta {
			t.Fatalf("second write in one process: %v, want delta", infos[1].Kind)
		}
		// A restarted process opens a new store over the same directory:
		// no pinned view, so its first generation must be full.
		store2, err := NewStore(ckfs, "/ck", 16)
		if err != nil {
			t.Fatal(err)
		}
		wd, log := newLogWaldo(t, lower)
		appendWorkload(t, rand.New(rand.NewSource(4)), log, 1000, 50, 0)
		if err := wd.Drain(); err != nil {
			t.Fatal(err)
		}
		info, err := store2.Write(wd.CheckpointState(), pol)
		if err != nil {
			t.Fatal(err)
		}
		if info.Kind != KindFull {
			t.Fatalf("first write after restart: %v, want full", info.Kind)
		}
	})

	t.Run("base generation swept from directory", func(t *testing.T) {
		ckfs := vfs.NewMemFS("ck", nil)
		lower, store, infos, _ := buildChain(t, ckfs, pol, 1)
		if err := ckfs.Remove(genPath(infos[0].Gen, "meta")); err != nil {
			t.Fatal(err)
		}
		if err := ckfs.Remove(genPath(infos[0].Gen, "db")); err != nil {
			t.Fatal(err)
		}
		wd, log := newLogWaldo(t, lower)
		appendWorkload(t, rand.New(rand.NewSource(5)), log, 1000, 50, 0)
		if err := wd.Drain(); err != nil {
			t.Fatal(err)
		}
		// Same process, same store — but the base is gone on disk, so a
		// delta would be unrecoverable. (The view is also from a new Waldo
		// here, which the identity check would catch anyway; the missing
		// manifest is checked first and never opens the payload path.)
		info, err := store.Write(wd.CheckpointState(), pol)
		if err != nil {
			t.Fatal(err)
		}
		if info.Kind != KindFull {
			t.Fatalf("write with swept base: %v, want full", info.Kind)
		}
	})

	t.Run("base view from another incarnation", func(t *testing.T) {
		ckfs := vfs.NewMemFS("ck", nil)
		lower, store, infos, _ := buildChain(t, ckfs, pol, 1)
		// Re-ingest the same log into a fresh Waldo: identical data, but a
		// different DB value — kvdb's identity check must refuse the diff
		// and the store must fall back to a full generation.
		wd, _ := newLogWaldo(t, lower)
		if err := wd.Drain(); err != nil {
			t.Fatal(err)
		}
		wd.DB.RestoreGen(infos[0].Gen + 5)
		info, err := store.Write(wd.CheckpointState(), pol)
		if err != nil {
			t.Fatal(err)
		}
		if info.Kind != KindFull {
			t.Fatalf("write against a foreign base view: %v, want full", info.Kind)
		}
		if tmp := vfs.Join("/ck", fmt.Sprintf("tmp-ckpt-%016x.delta", uint64(info.Gen))); fileExists(ckfs, tmp) {
			t.Fatalf("aborted delta left its temp file %s behind", tmp)
		}
	})

	t.Run("delta no smaller than full", func(t *testing.T) {
		ckfs := vfs.NewMemFS("ck", nil)
		lower := vfs.NewMemFS("log", nil)
		wd, log := newLogWaldo(t, lower)
		store, err := NewStore(ckfs, "/ck", 16)
		if err != nil {
			t.Fatal(err)
		}
		// Tiny base, then a phase that dwarfs it: the delta would carry
		// essentially the whole database plus per-op framing, so it cannot
		// beat the full snapshot and the store must abort it mid-write.
		appendWorkload(t, rand.New(rand.NewSource(6)), log, 0, 2, 0)
		if err := wd.Drain(); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Write(wd.CheckpointState(), pol); err != nil {
			t.Fatal(err)
		}
		appendWorkload(t, rand.New(rand.NewSource(6)), log, 10, 1500, 0)
		if err := wd.Drain(); err != nil {
			t.Fatal(err)
		}
		info, err := store.Write(wd.CheckpointState(), pol)
		if err != nil {
			t.Fatal(err)
		}
		if info.Kind != KindFull {
			t.Fatalf("oversized delta not aborted: committed %v generation", info.Kind)
		}
		rec, err := store.Load()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Gen != info.Gen || len(rec.Chain) != 1 {
			t.Fatalf("recovered gen %d chain %v, want self-contained gen %d", rec.Gen, rec.Chain, info.Gen)
		}
	})
}

func fileExists(fs vfs.FS, path string) bool {
	_, err := fs.Stat(path)
	return err == nil
}

// TestSweepKeepsChains pins the retention invariant: a base generation
// survives as long as any retained delta references it, even when the
// retain count alone would have dropped it; once a new full generation
// replaces the chain head, the whole old chain goes at once.
func TestSweepKeepsChains(t *testing.T) {
	ckfs := vfs.NewMemFS("ck", nil)
	lower := vfs.NewMemFS("log", nil)
	wd, log := newLogWaldo(t, lower)
	store, err := NewStore(ckfs, "/ck", 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	write := func(i int) Info {
		t.Helper()
		appendWorkload(t, rng, log, i*120, 120, 0)
		if err := wd.Drain(); err != nil {
			t.Fatal(err)
		}
		info, err := store.Write(wd.CheckpointState(), Policy{FullEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		if info.SweepErr != nil {
			t.Fatal(info.SweepErr)
		}
		return info
	}
	var infos []Info
	for i := 0; i < 3; i++ {
		infos = append(infos, write(i))
	}
	// retain=1 would keep only the newest generation, but the newest is a
	// delta whose chain reaches back to the first full: all three survive.
	gens, err := store.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 3 {
		t.Fatalf("chain partially swept: %d generations retained, want 3", len(gens))
	}
	rec, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Gen != infos[2].Gen || len(rec.Chain) != 3 {
		t.Fatalf("recovered gen %d chain %v, want 3-link chain head %d", rec.Gen, rec.Chain, infos[2].Gen)
	}
	// The fourth write starts a new chain with a full generation; nothing
	// retains the old chain any more and it is swept whole.
	info4 := write(3)
	if info4.Kind != KindFull {
		t.Fatalf("fourth write: %v, want full (chain bound reached)", info4.Kind)
	}
	gens, err = store.Generations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 || gens[0] != info4.Gen {
		t.Fatalf("after new full: generations %v, want just %d", gens, info4.Gen)
	}
	for _, info := range infos {
		for _, ext := range []string{"db", "delta", "meta"} {
			if fileExists(ckfs, genPath(info.Gen, ext)) {
				t.Fatalf("swept chain left %s behind", genPath(info.Gen, ext))
			}
		}
	}
}

// TestSweepFailureAfterCommit is the satellite bugfix regression: a
// retention-sweep failure after the manifest rename must not fail the
// write — the generation is durably committed and loadable — and must be
// reported through Info.SweepErr instead.
func TestSweepFailureAfterCommit(t *testing.T) {
	run := func(crashAt int64) (*vfs.MemFS, *vfs.FaultFS, Info, error) {
		t.Helper()
		inner := vfs.NewMemFS("ck", nil)
		fault := vfs.NewFaultFS(inner)
		fault.SetCrashPoint(crashAt)
		store, err := NewStore(fault, "/ck", 2)
		if err != nil {
			t.Fatal(err)
		}
		lower := vfs.NewMemFS("log", nil)
		wd, log := newLogWaldo(t, lower)
		rng := rand.New(rand.NewSource(13))
		appendWorkload(t, rng, log, 0, 200, 0)
		if err := wd.Drain(); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Write(wd.CheckpointState(), Policy{}); err != nil {
			t.Fatal(err)
		}
		// Garbage the second write's sweep must remove — its Remove is the
		// write path's final mutating operation.
		if err := vfs.WriteFile(inner, "/ck/tmp-ckpt-00000000000000aa.db", []byte("junk")); err != nil {
			t.Fatal(err)
		}
		appendWorkload(t, rng, log, 200, 200, 0)
		if err := wd.Drain(); err != nil {
			t.Fatal(err)
		}
		info, err := store.Write(wd.CheckpointState(), Policy{})
		return inner, fault, info, err
	}

	// Learning run: count the path's mutating ops, then re-run crashing at
	// the last one — the sweep's Remove of the planted garbage.
	_, fault, info, err := run(0)
	if err != nil || info.SweepErr != nil {
		t.Fatalf("clean run: err=%v sweepErr=%v", err, info.SweepErr)
	}
	total := fault.Ops()
	inner, fault, info, err := run(total)
	if !fault.Crashed() {
		t.Fatalf("crash point %d never reached", total)
	}
	if err != nil {
		t.Fatalf("sweep failure reported as checkpoint failure: %v", err)
	}
	if info.SweepErr == nil {
		t.Fatal("sweep crashed but Info.SweepErr is nil")
	}
	if !errors.Is(info.SweepErr, vfs.ErrInjectedCrash) {
		t.Fatalf("SweepErr = %v, want the injected crash", info.SweepErr)
	}
	if !fileExists(inner, "/ck/tmp-ckpt-00000000000000aa.db") {
		t.Fatal("garbage gone although its Remove crashed")
	}
	// The generation is committed: a restarted process recovers it, and
	// its recovery sweep finishes the housekeeping the crash interrupted.
	store2, err := NewStore(inner, "/ck", 2)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := store2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rec.DB == nil || rec.Gen != info.Gen {
		t.Fatalf("recovered gen %d, want the committed gen %d (skipped %v)", rec.Gen, info.Gen, rec.Skipped)
	}
	if rec.SweepErr != nil {
		t.Fatal(rec.SweepErr)
	}
	if fileExists(inner, "/ck/tmp-ckpt-00000000000000aa.db") {
		t.Fatal("recovery sweep left the stale temp file behind")
	}
}

// TestLoadSweepsOrphans is the satellite bugfix regression for recovery
// housekeeping: a successful Load removes temp files and orphaned
// payloads (so crash→recover→crash loops cannot accumulate garbage), and
// an orphan superseded by a newer committed generation is no longer
// reported as a skip.
func TestLoadSweepsOrphans(t *testing.T) {
	ckfs := vfs.NewMemFS("ck", nil)
	lower, store, want := buildTwoGens(t, ckfs)
	gens, err := store.Generations()
	if err != nil || len(gens) != 2 {
		t.Fatalf("generations: %v, %v", gens, err)
	}
	newest, oldest := gens[0], gens[1]
	// A crash between payload and manifest rename, newer than anything
	// committed: a real (if harmless) data-point, reported and removed.
	if err := vfs.WriteFile(ckfs, genPath(newest+5, "db"), []byte("uncommitted snapshot")); err != nil {
		t.Fatal(err)
	}
	// An orphan superseded by committed generations: stale garbage, not a
	// recovery problem — removed without a report.
	if err := vfs.WriteFile(ckfs, genPath(oldest-1, "delta"), []byte("superseded delta")); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(ckfs, "/ck/tmp-ckpt-0000000000000011.db", []byte("torn temp")); err != nil {
		t.Fatal(err)
	}

	rec, db := recoverAndReplay(t, store, lower)
	if rec.DB == nil || rec.Gen != newest {
		t.Fatalf("recovered gen %d, want %d", rec.Gen, newest)
	}
	if rec.SweepErr != nil {
		t.Fatal(rec.SweepErr)
	}
	if len(rec.Skipped) != 1 || rec.Skipped[0].Gen != newest+5 {
		t.Fatalf("skips %v, want only the orphan newer than the recovered generation", rec.Skipped)
	}
	if !strings.Contains(rec.Skipped[0].Reason, "missing manifest") {
		t.Fatalf("orphan skip reason %q", rec.Skipped[0].Reason)
	}
	if got := dbBytes(t, db); !bytes.Equal(got, want) {
		t.Fatal("recovery with orphans present diverged from the live database")
	}
	// All garbage gone; both committed generations intact.
	ents, err := ckfs.ReadDir("/ck")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 4 {
		t.Fatalf("directory holds %d files after recovery sweep, want 4: %v", len(ents), ents)
	}
	for _, gen := range []int64{newest, oldest} {
		if !fileExists(ckfs, genPath(gen, "meta")) || !fileExists(ckfs, genPath(gen, "db")) {
			t.Fatalf("recovery sweep damaged committed generation %d", gen)
		}
	}
}

// TestCorruptDeltaChains sweeps broken chains: a corrupt head delta falls
// back to the intact tail of the same chain, a corrupt mid-chain delta
// fails every head above it and lands on the base full, a corrupt full
// kills its whole chain, and a delta whose base generation was swept
// falls back to the previous chain's generations — each candidate skipped
// with its own reason.
func TestCorruptDeltaChains(t *testing.T) {
	t.Run("corrupt head delta", func(t *testing.T) {
		ckfs := vfs.NewMemFS("ck", nil)
		lower, store, infos, want := buildChain(t, ckfs, Policy{FullEvery: 3}, 3)
		flipByte(t, ckfs, genPath(infos[2].Gen, "delta"), 30)
		rec, db := recoverAndReplay(t, store, lower)
		if rec.Gen != infos[1].Gen || len(rec.Chain) != 2 {
			t.Fatalf("recovered gen %d chain %v, want the intact 2-link chain at %d", rec.Gen, rec.Chain, infos[1].Gen)
		}
		if len(rec.Skipped) != 1 || rec.Skipped[0].Gen != infos[2].Gen {
			t.Fatalf("skips %v, want one for gen %d", rec.Skipped, infos[2].Gen)
		}
		if r := rec.Skipped[0].Reason; !strings.Contains(r, "delta") || !strings.Contains(r, "CRC") {
			t.Fatalf("skip reason %q does not name the corrupt delta payload", r)
		}
		if got := dbBytes(t, db); !bytes.Equal(got, want) {
			t.Fatal("fallback recovery diverged from the live database")
		}
	})

	t.Run("corrupt mid-chain delta", func(t *testing.T) {
		ckfs := vfs.NewMemFS("ck", nil)
		lower, store, infos, want := buildChain(t, ckfs, Policy{FullEvery: 3}, 3)
		flipByte(t, ckfs, genPath(infos[1].Gen, "delta"), 30)
		rec, db := recoverAndReplay(t, store, lower)
		if rec.Gen != infos[0].Gen || len(rec.Chain) != 1 {
			t.Fatalf("recovered gen %d chain %v, want the base full %d", rec.Gen, rec.Chain, infos[0].Gen)
		}
		if len(rec.Skipped) != 2 || rec.Skipped[0].Gen != infos[2].Gen || rec.Skipped[1].Gen != infos[1].Gen {
			t.Fatalf("skips %v, want per-generation skips for %d then %d", rec.Skipped, infos[2].Gen, infos[1].Gen)
		}
		if r := rec.Skipped[0].Reason; !strings.Contains(r, fmt.Sprintf("chain base gen %d", infos[1].Gen)) {
			t.Fatalf("head skip reason %q does not name the broken link", r)
		}
		if r := rec.Skipped[1].Reason; !strings.Contains(r, "CRC") {
			t.Fatalf("mid-chain skip reason %q does not name the corruption", r)
		}
		if got := dbBytes(t, db); !bytes.Equal(got, want) {
			t.Fatal("fallback recovery diverged from the live database")
		}
	})

	t.Run("corrupt base full", func(t *testing.T) {
		ckfs := vfs.NewMemFS("ck", nil)
		lower, store, infos, want := buildChain(t, ckfs, Policy{FullEvery: 3}, 3)
		flipByte(t, ckfs, genPath(infos[0].Gen, "db"), 30)
		rec, db := recoverAndReplay(t, store, lower)
		if rec.DB != nil {
			t.Fatalf("recovered gen %d from a store whose only full is corrupt", rec.Gen)
		}
		if len(rec.Skipped) != 3 {
			t.Fatalf("skips %v, want one per generation", rec.Skipped)
		}
		// No usable checkpoint: recovery re-ingests from byte zero and
		// still converges on the same database.
		if got := dbBytes(t, db); !bytes.Equal(got, want) {
			t.Fatal("from-zero fallback diverged from the live database")
		}
	})

	t.Run("delta referencing swept base", func(t *testing.T) {
		ckfs := vfs.NewMemFS("ck", nil)
		lower, store, infos, want := buildChain(t, ckfs, Policy{FullEvery: 2}, 4)
		// Chain layout: full, delta, full, delta. Remove the second full
		// entirely — the newest delta now references a base that no longer
		// exists, and recovery must fall back to the previous chain.
		if err := ckfs.Remove(genPath(infos[2].Gen, "meta")); err != nil {
			t.Fatal(err)
		}
		if err := ckfs.Remove(genPath(infos[2].Gen, "db")); err != nil {
			t.Fatal(err)
		}
		rec, db := recoverAndReplay(t, store, lower)
		if rec.Gen != infos[1].Gen || len(rec.Chain) != 2 {
			t.Fatalf("recovered gen %d chain %v, want the previous chain head %d", rec.Gen, rec.Chain, infos[1].Gen)
		}
		if len(rec.Skipped) != 1 || rec.Skipped[0].Gen != infos[3].Gen {
			t.Fatalf("skips %v, want one for the baseless delta %d", rec.Skipped, infos[3].Gen)
		}
		if r := rec.Skipped[0].Reason; !strings.Contains(r, fmt.Sprintf("chain base gen %d", infos[2].Gen)) ||
			!strings.Contains(r, "manifest") {
			t.Fatalf("skip reason %q does not name the missing base", r)
		}
		if got := dbBytes(t, db); !bytes.Equal(got, want) {
			t.Fatal("fallback recovery diverged from the live database")
		}
	})
}

// TestManifestV1Refused pins that the pre-delta v1 manifest layout is no
// longer read: a well-formed v1 image (synthesized by re-encoding the
// newest generation's manifest in the old layout) decodes to
// ErrBadManifest, and recovery skips that generation with class
// "manifest" and falls back to the older one.
func TestManifestV1Refused(t *testing.T) {
	ckfs := vfs.NewMemFS("ck", nil)
	lower, store, want := buildTwoGens(t, ckfs)
	gens, err := store.Generations()
	if err != nil || len(gens) != 2 {
		t.Fatalf("generations: %v, %v", gens, err)
	}
	data, err := vfs.ReadFile(ckfs, genPath(gens[0], "meta"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeManifest(data)
	if err != nil {
		t.Fatal(err)
	}
	v1 := encodeManifestV1(m)
	if _, err := decodeManifest(v1); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("v1 manifest decoded: %v, want ErrBadManifest", err)
	}
	if err := vfs.WriteFile(ckfs, genPath(gens[0], "meta"), v1); err != nil {
		t.Fatal(err)
	}
	rec, db := recoverAndReplay(t, store, lower)
	if rec.DB == nil || rec.Gen != gens[1] || len(rec.Skipped) != 1 ||
		rec.Skipped[0].Gen != gens[0] || rec.Skipped[0].Class != SkipManifest {
		t.Fatalf("v1 newest manifest: recovered gen %d, skipped %v; want gen %d with gen %d skipped as %q",
			rec.Gen, rec.Skipped, gens[1], gens[0], SkipManifest)
	}
	if got := dbBytes(t, db); !bytes.Equal(got, want) {
		t.Fatal("recovery past the v1 manifest diverged from the live database")
	}
}

// TestPropertyCrashEquivalenceDeltaChain is the delta-generation arm of
// the crash sweep: a full + two-delta chain (Policy{FullEvery: 3}) is
// written across three workload phases, a crash is injected at every
// mutating operation of the checkpoint path, and recovery after each
// crash must be byte-identical to a from-zero re-ingest. (The provenance
// store is append-only, so chain deltas here carry sets and overwrites;
// delete tombstones under corruption and truncation are swept at the
// kvdb layer, internal/kvdb/delta_test.go.)
func TestPropertyCrashEquivalenceDeltaChain(t *testing.T) {
	for seed := int64(0); seed < 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ckInner, fault, _, kinds := runDeltaScenario(t, seed, 0)
			total := fault.Ops()
			if total < 10 {
				t.Fatalf("checkpoint path performed only %d mutating ops", total)
			}
			// The learning run must actually exercise a chain, or the
			// sweep proves nothing about delta crash-safety.
			if want := []Kind{KindFull, KindDelta, KindDelta}; fmt.Sprint(kinds) != fmt.Sprint(want) {
				t.Fatalf("uncrashed scenario wrote %v, want %v", kinds, want)
			}
			if rec, err := NewStoreMust(ckInner).Load(); err != nil || rec.Gen == 0 {
				t.Fatalf("uncrashed scenario did not leave a recoverable chain: %v, %v", rec, err)
			}
			for k := int64(1); k <= total; k++ {
				ckInner, fault, logLower, _ := runDeltaScenario(t, seed, k)
				if !fault.Crashed() {
					t.Fatalf("crash point %d/%d not reached", k, total)
				}
				verifyRecovery(t, seed, k, ckInner, logLower)
			}
		})
	}
}

// NewStoreMust opens a store over an existing checkpoint directory,
// panicking on setup errors (test helper).
func NewStoreMust(fs vfs.FS) *Store {
	s, err := NewStore(fs, "/ck", 2)
	if err != nil {
		panic(err)
	}
	return s
}

// runDeltaScenario replays a three-phase workload with a checkpoint after
// each phase under Policy{FullEvery: 3} — full, delta, delta — crashing
// at mutating op k of the checkpoint FS (k=0: never). Like a real
// process, it stops at the first failed checkpoint write; a sweep
// failure on a committed generation does not stop it.
func runDeltaScenario(t *testing.T, seed, k int64) (*vfs.MemFS, *vfs.FaultFS, *vfs.MemFS, []Kind) {
	t.Helper()
	ckInner := vfs.NewMemFS("ck", nil)
	fault := vfs.NewFaultFS(ckInner)
	fault.SetCrashPoint(k)
	var kinds []Kind
	store, err := NewStore(fault, "/ck", 2)
	if err != nil {
		if !errors.Is(err, vfs.ErrInjectedCrash) {
			t.Fatal(err)
		}
		return ckInner, fault, vfs.NewMemFS("log", nil), kinds
	}
	logLower := vfs.NewMemFS("log", nil)
	wd, log := newLogWaldo(t, logLower)
	rng := rand.New(rand.NewSource(seed))

	phases := []int{rng.Intn(200) + 150, rng.Intn(150) + 80, rng.Intn(150) + 80}
	openTxn := uint64(7)
	lo := 0
	for i, n := range phases {
		switch i {
		case 0:
			appendWorkload(t, rng, log, lo, n, openTxn)
		case 1:
			appendWorkload(t, rng, log, lo, n, 0)
			if err := log.AppendEndTxn(openTxn); err != nil {
				t.Fatal(err)
			}
		default:
			appendWorkload(t, rng, log, lo, n, 0)
		}
		lo += n
		if err := wd.Drain(); err != nil {
			t.Fatal(err)
		}
		info, err := store.Write(wd.CheckpointState(), Policy{FullEvery: 3})
		if err != nil {
			if !errors.Is(err, vfs.ErrInjectedCrash) {
				t.Fatalf("checkpoint %d failed for a non-crash reason: %v", i+1, err)
			}
			return ckInner, fault, logLower, kinds
		}
		kinds = append(kinds, info.Kind)
	}
	return ckInner, fault, logLower, kinds
}

// encodeManifestV1 renders a manifest in the pre-delta layout: the v2
// image minus the kind byte and base gen, under the v1 magic. Only valid
// for full generations — v1 stores had no other kind.
func encodeManifestV1(m *Manifest) []byte {
	if m.Kind != KindFull || m.BaseGen != 0 {
		panic("encodeManifestV1: not a full generation")
	}
	v2 := encodeManifest(m)
	body := v2[:len(v2)-4]
	out := []byte("PASSCKPT1\n")
	out = append(out, body[len(metaMagic):len(metaMagic)+8]...)
	out = append(out, body[len(metaMagic)+8+1+8:]...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}
