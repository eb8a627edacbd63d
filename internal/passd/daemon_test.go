package passd

// Boot tests for Open: the daemon cmd/passd runs, assembled over MemFS
// (and FaultFS, for torn writes) so every recovery path is reachable
// without a process or a disk.

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"passv2/internal/checkpoint"
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
	if !d.Boot.Tamper || d.Boot.TamperOff != nil || d.Boot.MMRLeaves != 40 {
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

// TestOpenTornTailDegradesTamper: a write torn mid-frame leaves bytes the
// MMR cannot cover. Open then serves without tamper evidence, and says
// why, rather than refusing to boot.
func TestOpenTornTailDegradesTamper(t *testing.T) {
	disk := newBootDisk()
	ffs := vfs.NewFaultFS(disk.log)
	lw, err := provlog.NewWriter(ffs, "/", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := lw.AppendRecords(bootRecs("torn", 0, 10)); err != nil {
		t.Fatal(err)
	}
	ffs.SetCrashPoint(1) // the next frame's write persists only a prefix
	if err := lw.AppendRecords(bootRecs("torn", 10, 1)); !errors.Is(err, vfs.ErrInjectedCrash) {
		t.Fatalf("torn append: %v, want the injected crash", err)
	}

	d := openBoot(t, disk)
	if !d.Boot.Tamper || d.Boot.TamperOff == nil {
		t.Fatalf("boot over a torn tail: tamper %v, off %v; want on, then switched off", d.Boot.Tamper, d.Boot.TamperOff)
	}
	st := bootStats(t, d)
	if st.Records != 10 || st.MMRLeaves != 0 {
		t.Fatalf("degraded daemon stats %+v, want the 10 intact records and no MMR", st)
	}
	if _, err := dialClient(t, d.Server).VerifyRoot(0); err == nil {
		t.Fatal("verify verb answered with tamper evidence off")
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
