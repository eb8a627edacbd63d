package passd

// Boot tests for Open: the daemon cmd/passd runs, assembled over MemFS
// (and FaultFS, for torn writes) so every recovery path is reachable
// without a process or a disk.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"passv2/internal/checkpoint"
	"passv2/internal/mmr"
	"passv2/internal/pnode"
	"passv2/internal/provlog"
	"passv2/internal/record"
	"passv2/internal/signer"
	"passv2/internal/vfs"
	"passv2/internal/waldo"
)

// bootDisk is one daemon's storage: the log directory (MMR peak file
// included), the checkpoint directory and the signing identity's.
type bootDisk struct {
	log, ckpt, keys *vfs.MemFS
}

func newBootDisk() bootDisk {
	return bootDisk{log: vfs.NewMemFS("log", nil), ckpt: vfs.NewMemFS("ckpt", nil), keys: vfs.NewMemFS("keys", nil)}
}

// openBoot opens a standalone, tamper-evident daemon over disk, the way
// cmd/passd -logdir -checkpoint-dir boots (deltas between fulls every 8
// generations), without the drain loop: tests drain through the verb so
// every count below is exact.
func openBoot(t *testing.T, disk bootDisk) *Daemon {
	t.Helper()
	d, err := Open(DaemonConfig{
		Config:       Config{CheckpointFullEvery: 8},
		LogFS:        disk.log,
		CheckpointFS: disk.ckpt,
		KeyFS:        disk.keys,
		MMR:          true,
		Retain:       8,
	})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// bootRecs returns n named file records for pnodes lo+1 … lo+n.
func bootRecs(prefix string, lo, n int) []record.Record {
	recs := make([]record.Record, n)
	for i := range recs {
		ref := pnode.Ref{PNode: pnode.PNode(lo + i + 1), Version: 1}
		recs[i] = record.New(ref, record.AttrName, record.StringVal(fmt.Sprintf("/%s/%d", prefix, lo+i)))
	}
	return recs
}

// discloseAndCheckpoint appends recs over the wire, drains them and,
// when ckpt is set, forces a checkpoint generation.
func discloseAndCheckpoint(t *testing.T, c *Client, recs []record.Record, ckpt bool) *CheckpointInfo {
	t.Helper()
	if err := c.AppendProvenance(recs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if !ckpt {
		return nil
	}
	info, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func bootStats(t *testing.T, d *Daemon) *Stats {
	t.Helper()
	st, err := dialClient(t, d.Server).Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// writeLog writes recs straight to a log on fs, as an earlier process
// (or an observer sharing the directory) would have left it.
func writeLog(t *testing.T, fs vfs.FS, recs []record.Record) {
	t.Helper()
	lw, err := provlog.NewWriter(fs, "/", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.AppendRecords(recs); err != nil {
		t.Fatal(err)
	}
	if err := lw.Sync(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenColdBootFromLog: with no checkpoint, Open replays the whole log
// into an empty database and covers it with the MMR.
func TestOpenColdBootFromLog(t *testing.T) {
	disk := newBootDisk()
	writeLog(t, disk.log, bootRecs("cold", 0, 40))
	d := openBoot(t, disk)
	if rec := d.Boot.Recovered; rec == nil || rec.DB != nil || len(rec.Skipped) != 0 {
		t.Fatalf("recovery on an empty store: %+v", rec)
	}
	if !d.Boot.Tamper || d.Boot.MMRLeaves != 40 {
		t.Fatalf("tamper boot: %+v", d.Boot)
	}
	if d.Boot.Replayed != 40 {
		t.Fatalf("cold boot replayed %d entries, want 40", d.Boot.Replayed)
	}
	st := bootStats(t, d)
	if st.Records != 40 || st.RecoveredGen != 0 || st.MMRLeaves != 40 || st.Role != "" {
		t.Fatalf("cold boot stats %+v", st)
	}
}

// TestOpenRecoversDeltaChain: a full generation and two deltas, then a
// tail past them. A restart composes the chain and replays only the tail.
func TestOpenRecoversDeltaChain(t *testing.T) {
	disk := newBootDisk()
	c := dialClient(t, openBoot(t, disk).Server)
	var kinds []string
	var last *CheckpointInfo
	for i, n := range []int{100, 50, 50} {
		last = discloseAndCheckpoint(t, c, bootRecs("chain", 1000*i, n), true)
		kinds = append(kinds, last.Kind)
	}
	if want := []string{"full", "delta", "delta"}; !reflect.DeepEqual(kinds, want) {
		t.Fatalf("generation kinds %v, want %v", kinds, want)
	}
	discloseAndCheckpoint(t, c, bootRecs("chain", 9000, 30), false)

	// Abandon the first daemon without Close, as a kill would.
	d2 := openBoot(t, disk)
	rec := d2.Boot.Recovered
	if rec.DB == nil || rec.Gen != last.Gen || len(rec.Chain) != 3 || len(rec.Skipped) != 0 {
		t.Fatalf("recovered gen %d chain %v skipped %v, want gen %d over a chain of 3",
			rec.Gen, rec.Chain, rec.Skipped, last.Gen)
	}
	if d2.Boot.Replayed != 30 {
		t.Fatalf("recovery replayed %d entries, want the 30-record tail", d2.Boot.Replayed)
	}
	st := bootStats(t, d2)
	if st.Records != 230 || st.RecoveredRecords != 200 || st.EntriesDecoded != 30 {
		t.Fatalf("recovered stats %+v", st)
	}
}

// TestOpenRecoverySkipClasses damages a three-generation store (full,
// delta, delta) one way per row and checks that the skip reaches
// Stats.RecoverySkips under its class, with recovery falling back to the
// generation the damage leaves intact. SkipOther is the classifier's
// fallback bucket; Load never produces it, so no row can.
func TestOpenRecoverySkipClasses(t *testing.T) {
	corrupt := func(fs *vfs.MemFS, path string) error {
		data, err := vfs.ReadFile(fs, path)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0xff
		f, err := fs.Open(path, vfs.ORdWr)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = f.WriteAt(data, 0)
		return err
	}
	name := func(gen int64, ext string) string { return fmt.Sprintf("/ckpt-%016x.%s", uint64(gen), ext) }

	for _, tc := range []struct {
		name string
		// damage gets the three generations, oldest first.
		damage  func(disk bootDisk, gens []int64) error
		want    map[string]int64
		recover int // index into gens, or -1 for a cold boot
	}{
		{"manifest", func(disk bootDisk, gens []int64) error {
			return corrupt(disk.ckpt, name(gens[2], "meta"))
		}, map[string]int64{checkpoint.SkipManifest: 1}, 1},
		{"payload", func(disk bootDisk, gens []int64) error {
			f, err := disk.ckpt.Open(name(gens[2], "delta"), vfs.ORdWr)
			if err != nil {
				return err
			}
			defer f.Close()
			return f.Truncate(f.Size() / 2)
		}, map[string]int64{checkpoint.SkipPayload: 1}, 1},
		{"chain_base", func(disk bootDisk, gens []int64) error {
			return corrupt(disk.ckpt, name(gens[1], "delta"))
		}, map[string]int64{checkpoint.SkipChainBase: 1, checkpoint.SkipPayload: 1}, 0},
		{"orphan", func(disk bootDisk, gens []int64) error {
			f, err := disk.ckpt.Open(name(gens[2]+1, "db"), vfs.OCreate|vfs.ORdWr)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.WriteAt([]byte("a payload whose manifest never committed"), 0)
			return err
		}, map[string]int64{checkpoint.SkipOrphan: 1}, 2},
		{"root_mismatch", func(disk bootDisk, gens []int64) error {
			// Replace the log with a different history of the same shape
			// and drop the peak file, so the MMR is rebuilt from the
			// forged bytes: every signed root disagrees with the log.
			forged := vfs.NewMemFS("forged", nil)
			writeLog(t, forged, bootRecs("forged", 0, 200))
			data, err := vfs.ReadFile(forged, "/"+provlog.CurrentName)
			if err != nil {
				return err
			}
			f, err := disk.log.Open("/"+provlog.CurrentName, vfs.ORdWr|vfs.OTrunc)
			if err != nil {
				return err
			}
			defer f.Close()
			if _, err := f.WriteAt(data, 0); err != nil {
				return err
			}
			return disk.log.Remove("/" + provlog.MMRStateName)
		}, map[string]int64{checkpoint.SkipRootMismatch: 3}, -1},
		{"root_mismatch/new identity", func(disk bootDisk, gens []int64) error {
			// A lost key: the next boot creates a new identity, and no
			// generation signed by the old one may be trusted.
			return disk.keys.Remove("/" + signer.KeyName)
		}, map[string]int64{checkpoint.SkipRootMismatch: 3}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			disk := newBootDisk()
			d1 := openBoot(t, disk)
			c := dialClient(t, d1.Server)
			var gens []int64
			for i := 0; i < 3; i++ {
				gens = append(gens, discloseAndCheckpoint(t, c, bootRecs("skip", 100*i, []int{60, 70, 70}[i]), true).Gen)
			}
			if err := d1.Close(); err != nil {
				t.Fatal(err)
			}
			if err := tc.damage(disk, gens); err != nil {
				t.Fatal(err)
			}

			d2 := openBoot(t, disk)
			st := bootStats(t, d2)
			if !reflect.DeepEqual(st.RecoverySkips, tc.want) {
				t.Fatalf("recovery skips %v, want %v (skipped: %+v)", st.RecoverySkips, tc.want, d2.Boot.Recovered.Skipped)
			}
			want := int64(0)
			if tc.recover >= 0 {
				want = gens[tc.recover]
			}
			if st.RecoveredGen != want {
				t.Fatalf("recovered generation %d, want %d", st.RecoveredGen, want)
			}
			if st.Records != 200 {
				t.Fatalf("serving %d records after recovery, want all 200 from checkpoint plus log", st.Records)
			}
		})
	}
}

// tearLog appends the n intact frames of bootRecs(prefix, lo, n) to the
// log on disk through a FaultFS, then tears the next one mid-frame, as a
// crash mid-append leaves it.
func tearLog(t *testing.T, disk bootDisk, prefix string, lo, n int) {
	t.Helper()
	ffs := vfs.NewFaultFS(disk.log)
	lw, err := provlog.NewWriter(ffs, "/", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.AppendRecords(bootRecs(prefix, lo, n)); err != nil {
		t.Fatal(err)
	}
	ffs.SetCrashPoint(1) // the next frame's write persists only a prefix
	if err := lw.AppendRecords(bootRecs(prefix, lo+n, 1)); !errors.Is(err, vfs.ErrInjectedCrash) {
		t.Fatalf("torn append: %v, want the injected crash", err)
	}
}

// ackAfterTear acks five records past the first `acked` on a daemon
// booted over a torn log, drains, and requires every one of them to be
// queryable by name.
func ackAfterTear(t *testing.T, d *Daemon, prefix string, acked int) {
	t.Helper()
	c := dialClient(t, d.Server)
	if err := c.AppendProvenance(bootRecs(prefix, acked, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < acked+5; i++ {
		res, err := c.Query(fmt.Sprintf(`select X from Provenance.obj as X where X.name = "/%s/%d"`, prefix, i))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("record %d of %d: %d rows, want 1 (acked but not queryable)", i, acked+5, len(res.Rows))
		}
	}
}

// TestOpenTornTailKeepsTamper: a write torn mid-frame is cut back at
// boot (its bytes were never synced, so never acked). The MMR then still
// covers the log, tamper evidence stays on, and the records acked after
// the crash become leaves the verify verb answers for.
func TestOpenTornTailKeepsTamper(t *testing.T) {
	disk := newBootDisk()
	tearLog(t, disk, "torn", 0, 10)

	d := openBoot(t, disk)
	if !d.Boot.Tamper || d.Boot.MMRLeaves != 10 {
		t.Fatalf("boot over a torn tail: %+v; want tamper on over the 10 intact records", d.Boot)
	}
	ackAfterTear(t, d, "torn", 10)
	st := bootStats(t, d)
	if st.Records != 15 || st.Appends != 5 || st.MMRLeaves != 15 {
		t.Fatalf("stats after acking past the tear %+v, want 15 records, 5 appends, 15 leaves", st)
	}
	inc, err := dialClient(t, d.Server).VerifyInclusion(14, 0)
	if err != nil {
		t.Fatalf("verify after the cut: %v", err)
	}
	proof, leaf, err := inc.Inclusion()
	if err != nil {
		t.Fatal(err)
	}
	root, err := inc.RootHash()
	if err != nil {
		t.Fatal(err)
	}
	if err := mmr.VerifyInclusion(root, leaf, proof); err != nil || inc.Size != 15 {
		t.Fatalf("inclusion proof for the last acked record: size %d, %v", inc.Size, err)
	}
}

// TestOpenTornTailAckedRecordsQueryable: without tamper evidence the cut
// scans from the recovered checkpoint's offset. Records acked after the
// tear are queryable, and a restart replays them from the log.
func TestOpenTornTailAckedRecordsQueryable(t *testing.T) {
	disk := newBootDisk()
	open := func() *Daemon {
		t.Helper()
		d, err := Open(DaemonConfig{LogFS: disk.log, CheckpointFS: disk.ckpt})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	d1 := open()
	discloseAndCheckpoint(t, dialClient(t, d1.Server), bootRecs("plain", 0, 10), true)
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	// The tear lands past the checkpoint: ten more intact frames, then a
	// torn one.
	tearLog(t, disk, "plain", 10, 10)

	d2 := open()
	if d2.Boot.Recovered.DB == nil || d2.Boot.Replayed != 10 {
		t.Fatalf("boot over a checkpoint and a torn tail: %+v", d2.Boot)
	}
	ackAfterTear(t, d2, "plain", 20)
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3 := open()
	if st := bootStats(t, d3); st.Records != 25 {
		t.Fatalf("restart after acking past the tear serves %d records, want 25", st.Records)
	}
}

// damageFrame flips a body byte of the log's k-th frame, as a bad sector
// or a tamperer would, leaving the frames after it intact.
func damageFrame(t *testing.T, fs vfs.FS, k int) {
	t.Helper()
	stop := errors.New("stop")
	n := 0
	off, err := provlog.ScanFileFrom(fs, "/"+provlog.CurrentName, 0, func(provlog.Entry) error {
		if n == k {
			return stop
		}
		n++
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("log has %d frames, want more than %d (%v)", n, k, err)
	}
	f, err := fs.Open("/"+provlog.CurrentName, vfs.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off+6); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{b[0] ^ 0x40}, off+6); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesMidLogDamage: a damaged frame with intact frames after
// it is not a torn tail. Every writer role refuses to boot over it with
// provlog.ErrDamaged and leaves log.current untouched: a record appended
// behind the damage could never be drained.
func TestOpenRefusesMidLogDamage(t *testing.T) {
	primary := replPeerDial
	primary.Quorum, primary.CommitTimeout, primary.MMR = 1, time.Second, true
	for _, tc := range []struct {
		name string
		cfg  DaemonConfig
		ckpt bool // damage past a checkpoint (and its peak file)
	}{
		{"standalone past the peak file", DaemonConfig{MMR: true}, true},
		{"primary", primary, false},
		{"no MMR past a checkpoint", DaemonConfig{}, true},
		{"no MMR, cold", DaemonConfig{}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			disk := newBootDisk()
			cfg := tc.cfg
			cfg.LogFS, cfg.KeyFS = disk.log, disk.keys
			if tc.ckpt {
				cfg.CheckpointFS = disk.ckpt
			}
			lo := 0
			if tc.ckpt {
				d, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				discloseAndCheckpoint(t, dialClient(t, d.Server), bootRecs("dmg", 0, 10), true)
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				lo = 10
			}
			writeLog(t, disk.log, bootRecs("dmg", lo, 20-lo))
			damageFrame(t, disk.log, 13)
			before, err := disk.log.Stat("/" + provlog.CurrentName)
			if err != nil {
				t.Fatal(err)
			}

			d, err := Open(cfg)
			if err == nil {
				d.Close()
			}
			if !errors.Is(err, provlog.ErrDamaged) {
				t.Fatalf("Open over mid-log damage: %v, want provlog.ErrDamaged", err)
			}
			after, err := disk.log.Stat("/" + provlog.CurrentName)
			if err != nil {
				t.Fatal(err)
			}
			if after.Size != before.Size {
				t.Fatalf("boot cut the damaged log from %d to %d bytes", before.Size, after.Size)
			}
		})
	}
}

// TestOpenOffGridPeakFileCutsNothing: a peak file whose cursor sits
// inside the log's last frame must send boot to a full rebuild of the
// range, not have the bytes past that cursor taken for a torn tail and
// cut.
func TestOpenOffGridPeakFileCutsNothing(t *testing.T) {
	disk := newBootDisk()
	d1 := openBoot(t, disk)
	discloseAndCheckpoint(t, dialClient(t, d1.Server), bootRecs("grid", 0, 50), true)
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := vfs.ReadFile(disk.log, "/"+provlog.MMRStateName)
	if err != nil {
		t.Fatal(err)
	}
	st, err := mmr.DecodeState(b)
	if err != nil {
		t.Fatal(err)
	}
	st.Cursor -= 3
	if err := provlog.SaveMMR(disk.log, "/", st); err != nil {
		t.Fatal(err)
	}
	before, err := disk.log.Stat("/" + provlog.CurrentName)
	if err != nil {
		t.Fatal(err)
	}

	d2 := openBoot(t, disk)
	after, err := disk.log.Stat("/" + provlog.CurrentName)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size != before.Size {
		t.Fatalf("boot cut the log from %d to %d bytes", before.Size, after.Size)
	}
	if !d2.Boot.Tamper || d2.Boot.MMRLeaves != 50 {
		t.Fatalf("boot over an off-grid peak file: %+v, want tamper on over 50 leaves", d2.Boot)
	}
}

// TestOpenReplicationRoles boots a primary and a follower over MemFS: the
// follower announces itself, converges on the primary's MMR root, and
// both roles pin the log against rotation.
func TestOpenReplicationRoles(t *testing.T) {
	open := func(cfg DaemonConfig) *Daemon {
		t.Helper()
		cfg.LogFS, cfg.MMR = vfs.NewMemFS("log", nil), true
		d, err := Open(cfg)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	cfg := replPeerDial
	cfg.Quorum, cfg.CommitTimeout = 1, time.Second
	prim := open(cfg)
	fol := open(DaemonConfig{Join: prim.Server.Addr(), JoinInterval: 20 * time.Millisecond})
	if fol.Boot.Advertise != fol.Server.Addr() {
		t.Fatalf("follower advertises %q, want its bound address %q", fol.Boot.Advertise, fol.Server.Addr())
	}

	c := dialClient(t, prim.Server)
	if err := c.AppendProvenance(bootRecs("role", 0, 25)); err != nil {
		t.Fatal(err)
	}
	pst := bootStats(t, prim)
	fc := dialClient(t, fol.Server)
	if root := waitMMR(t, fc, 25); root != pst.MMRRoot {
		t.Fatalf("follower root %s, primary %s", root, pst.MMRRoot)
	}
	fst := bootStats(t, fol)
	if pst.Role != "primary" || pst.ReplQuorum != 1 || fst.Role != "follower" || len(prim.Primary.Followers()) != 1 {
		t.Fatalf("roles: primary %+v, follower %+v", pst, fst)
	}
	for role, d := range map[string]*Daemon{"primary": prim, "follower": fol} {
		if err := d.Log.Rotate(); err == nil || !strings.Contains(err.Error(), "rotation disabled") {
			t.Fatalf("%s rotated its replicated log: %v", role, err)
		}
	}
}

// TestOpenCloseWritesFinalGeneration: Close drains and checkpoints what
// was acknowledged since the last generation, and persists the MMR peak
// file, so the next boot replays nothing and resumes the range pruned.
func TestOpenCloseWritesFinalGeneration(t *testing.T) {
	disk := newBootDisk()
	d1 := openBoot(t, disk)
	if err := dialClient(t, d1.Server).AppendProvenance(bootRecs("final", 0, 70)); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := disk.log.Stat("/" + provlog.MMRStateName); err != nil {
		t.Fatalf("no MMR peak file after Close: %v", err)
	}

	d2 := openBoot(t, disk)
	if rec := d2.Boot.Recovered; rec.DB == nil || rec.Records != 70 {
		t.Fatalf("final generation %+v, want one covering all 70 records", rec)
	}
	st := bootStats(t, d2)
	if st.EntriesDecoded != 0 || st.Records != 70 || st.MMRLeaves != 70 || !st.MMRPruned {
		t.Fatalf("boot after a clean shutdown: %+v", st)
	}
}

// handleFS counts the files open through it.
type handleFS struct {
	vfs.FS
	open atomic.Int64
}

func (h *handleFS) Open(path string, flags vfs.Flags) (vfs.File, error) {
	f, err := h.FS.Open(path, flags)
	if err != nil {
		return nil, err
	}
	h.open.Add(1)
	return &countedFile{File: f, fs: h}, nil
}

type countedFile struct {
	vfs.File
	fs     *handleFS
	closed sync.Once
}

func (f *countedFile) Close() error {
	f.closed.Do(func() { f.fs.open.Add(-1) })
	return f.File.Close()
}

// TestOpenCloseReleasesFiles: Close gives back every file Open took —
// the log writer's handle on log.current included — so an embedder can
// open and close daemons in one process without running out of handles.
func TestOpenCloseReleasesFiles(t *testing.T) {
	disk := newBootDisk()
	fss := []*handleFS{{FS: disk.log}, {FS: disk.ckpt}, {FS: disk.keys}}
	for i := 0; i < 20; i++ {
		d, err := Open(DaemonConfig{
			LogFS:        fss[0],
			CheckpointFS: fss[1],
			KeyFS:        fss[2],
			MMR:          true,
		})
		if err != nil {
			t.Fatalf("Open %d: %v", i, err)
		}
		discloseAndCheckpoint(t, dialClient(t, d.Server), bootRecs("cycle", 10*i, 10), i%2 == 0)
		if err := d.Close(); err != nil {
			t.Fatalf("Close %d: %v", i, err)
		}
		for j, name := range []string{"log", "checkpoint", "key"} {
			if n := fss[j].open.Load(); n != 0 {
				t.Fatalf("cycle %d: %d %s files still open after Close", i, n, name)
			}
		}
	}
}

// TestOpenRefusesBadConfig: conflicting roles, replication without a log
// and nothing to serve are refused as ErrConfig.
func TestOpenRefusesBadConfig(t *testing.T) {
	demo := func() (*waldo.DB, error) { return waldo.NewDB(), nil }
	for name, cfg := range map[string]DaemonConfig{
		"primary and follower": {LogFS: vfs.NewMemFS("log", nil), Quorum: 2, Join: "127.0.0.1:1"},
		"primary without log":  {DB: demo, Quorum: 2},
		"follower without log": {DB: demo, Join: "127.0.0.1:1"},
		"nothing to serve":     {CheckpointFS: vfs.NewMemFS("ckpt", nil)},
	} {
		if d, err := Open(cfg); !errors.Is(err, ErrConfig) {
			if d != nil {
				d.Close()
			}
			t.Errorf("%s: Open = %v, want ErrConfig", name, err)
		}
	}
}

// TestParseQuota pins cmd/passd's -quota syntax,
// tenant=maxInflight:stagedBytesPerSec, repeatable.
func TestParseQuota(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want map[string]TenantQuota
		err  string // substring of the error; empty means success
	}{
		{"both axes", []string{"a=4:65536"}, map[string]TenantQuota{"a": {4, 65536}}, ""},
		{"zero axes are unlimited", []string{"a=0:0"}, map[string]TenantQuota{"a": {0, 0}}, ""},
		{"repeated tenant keeps the later value", []string{"a=1:10", "b=2:20", "a=3:30"},
			map[string]TenantQuota{"a": {3, 30}, "b": {2, 20}}, ""},
		{"missing =", []string{"a4:65536"}, nil, "want tenant="},
		{"empty tenant", []string{"=4:65536"}, nil, "want tenant="},
		{"missing :", []string{"a=4"}, nil, "want tenant="},
		{"non-numeric inflight", []string{"a=x:65536"}, nil, "bad maxInflight"},
		{"non-numeric bytes", []string{"a=4:lots"}, nil, "bad stagedBytesPerSec"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := map[string]TenantQuota{}
			var err error
			for _, a := range tc.args {
				if err = ParseQuota(got, a); err != nil {
					break
				}
			}
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("ParseQuota(%q) = %v, want an error containing %q", tc.args, err, tc.err)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("ParseQuota(%q) = %v, %v; want %v", tc.args, got, err, tc.want)
			}
		})
	}
}
