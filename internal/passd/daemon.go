package passd

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"passv2/internal/checkpoint"
	"passv2/internal/mmr"
	"passv2/internal/provlog"
	"passv2/internal/replica"
	"passv2/internal/signer"
	"passv2/internal/vfs"
	"passv2/internal/waldo"
)

// logVolume is the stable volume identity the daemon's log tail is
// checkpointed under; recovery matches recorded offsets back by it.
const logVolume = "logdir"

// ErrConfig classifies a DaemonConfig that Open refuses: conflicting
// replication roles, replication without a log, or nothing to serve.
var ErrConfig = errors.New("invalid daemon configuration")

// DaemonConfig is everything cmd/passd's flags set, for Open; each field
// names its flag. Zero values are the Go defaults given per field.
type DaemonConfig struct {
	// Config holds the serving flags (-addr, -workers, -queue, -timeout,
	// -max-timeout, -admin, -quota, -checkpoint-interval,
	// -checkpoint-records, -checkpoint-full-every) and the Listener and
	// AdminListener seams. Open sets its wiring fields (Append, Sync,
	// Checkpoints, Recovered, Replicate, Follower, Tamper, Feeder).
	Config

	// DB loads the database served when no checkpoint recovers (-db,
	// -demo); it is not called when one does. Nil with a log starts empty.
	DB            func() (*waldo.DB, error)
	LogDir        string        // -logdir
	DrainInterval time.Duration // -drain-interval; <=0 runs no drain loop
	CheckpointDir string        // -checkpoint-dir
	Retain        int           // -retain; <=0 means checkpoint.DefaultRetain
	Quorum        int           // -replicate: >0 makes a primary
	CommitTimeout time.Duration // -commit-timeout; <=0 means 10s
	Join          string        // -join: non-empty makes a follower
	JoinInterval  time.Duration // -join-interval; <=0 means 1s
	Advertise     string        // -advertise; empty means the bound address
	MMR           bool          // -mmr: tamper evidence over the log
	KeyDir        string        // -key-dir; empty means the log's keys/

	// LogFS, CheckpointFS and KeyFS, when non-nil, stand in for the
	// directories above: the seam for running a daemon over MemFS.
	LogFS, CheckpointFS, KeyFS vfs.FS
	// PeerDial is how a primary dials followers (zero: 2s dial, 30s
	// request); PeerRetryBase/Max bound its reconnect backoff (zero:
	// replica.Config's defaults).
	PeerDial                    Options
	PeerRetryBase, PeerRetryMax time.Duration
}

// BootReport is what Open did on the way up, for the caller to print.
type BootReport struct {
	// Tamper reports tamper evidence on at boot, with the signer's device
	// and the MMR's leaf count; TamperOff is why it was then switched off
	// (a damaged frame mid-log the MMR cannot cover), nil if it was not.
	Tamper    bool
	DeviceID  [16]byte
	MMRLeaves uint64
	TamperOff error
	// Recovered is checkpoint recovery's outcome (skips included), nil
	// without a checkpoint store.
	Recovered *checkpoint.Recovered
	// DroppedVolumes are checkpointed volumes with no attached log.
	DroppedVolumes []string
	// Replayed counts the entries the catch-up drain decoded.
	Replayed int64
	// Advertise is the address a follower announces to its primary.
	Advertise string
}

// Daemon is one assembled provenance daemon, built by Open and stopped
// by Close.
type Daemon struct {
	Server  *Server
	Waldo   *waldo.Waldo
	Log     *provlog.Writer  // nil without a log
	Primary *replica.Primary // nil unless Quorum > 0
	Boot    BootReport

	files    []io.Closer // replication's handles on log.current
	stopJoin chan struct{}
	joining  sync.WaitGroup
	closing  sync.Once
	closeErr error
}

// Open assembles and starts a daemon in cmd/passd's boot order
// (DESIGN.md §14): signer and per-role MMR, checkpoint recovery, the
// database, the log writer and its MMR, the replication role, the
// catch-up drain and drain loop, checkpoint signing, Serve, and a
// follower's announce loop.
func Open(cfg DaemonConfig) (*Daemon, error) {
	hasLog := cfg.LogDir != "" || cfg.LogFS != nil
	if cfg.Quorum > 0 && cfg.Join != "" {
		return nil, fmt.Errorf("%w: -replicate (primary) and -join (follower) are mutually exclusive", ErrConfig)
	}
	if (cfg.Quorum > 0 || cfg.Join != "") && !hasLog {
		return nil, fmt.Errorf("%w: replication ships the provenance log, so -replicate/-join require -logdir", ErrConfig)
	}
	d := &Daemon{}
	lfs, err := fsFor(cfg.LogFS, cfg.LogDir)
	if err != nil {
		return nil, err
	}

	// Tamper evidence (DESIGN.md §13) comes first: recovery checks
	// checkpoints against the MMR derived from the on-disk log. A
	// follower's range is driven by the replication stream, a primary's
	// holds every node to answer root claims at any stream offset, and a
	// standalone daemon resumes cheaply from the peak file.
	tamper := cfg.MMR && hasLog
	var (
		id     *signer.Identity
		bootM  *mmr.MMR
		feeder *provlog.TailFeeder
	)
	if tamper {
		kfs, dir := lfs, "/keys"
		if cfg.KeyFS != nil || cfg.KeyDir != "" {
			if kfs, err = fsFor(cfg.KeyFS, cfg.KeyDir); err != nil {
				return nil, err
			}
			dir = "/"
		}
		if id, err = signer.LoadOrCreate(kfs, dir); err != nil {
			return nil, err
		}
		switch {
		case cfg.Join != "":
			if feeder, err = provlog.LoadFeeder(lfs, "/", logVolume); err == nil {
				bootM = feeder.MMR()
			}
		case cfg.Quorum > 0:
			bootM, err = provlog.RebuildMMR(lfs, "/", logVolume)
		default:
			bootM, err = provlog.LoadMMR(lfs, "/", logVolume)
		}
		if err != nil {
			return nil, err
		}
		d.Boot.Tamper, d.Boot.DeviceID, d.Boot.MMRLeaves = true, id.DeviceID, bootM.Count()
	}

	// Recovery: the newest valid generation, falling back across corrupt
	// ones — and, with tamper evidence, across CRC-valid ones whose
	// signed root the log cannot reproduce (class root_mismatch).
	var (
		store *checkpoint.Store
		rec   *checkpoint.Recovered
	)
	cfs, err := fsFor(cfg.CheckpointFS, cfg.CheckpointDir)
	if err != nil {
		return nil, err
	}
	if cfs != nil {
		if store, err = checkpoint.NewStore(cfs, "/", cfg.Retain); err != nil {
			return nil, err
		}
		if tamper {
			store.VerifyProofs = func(man *checkpoint.Manifest) error { return verifyProofs(man, id, &bootM, lfs) }
		}
		if rec, err = store.Load(); err != nil {
			return nil, err
		}
		d.Boot.Recovered = rec
	}
	recovered := rec != nil && rec.DB != nil

	d.Waldo = waldo.New()
	switch {
	case recovered:
		d.Waldo.DB = rec.DB
	case cfg.DB != nil:
		if d.Waldo.DB, err = cfg.DB(); err != nil {
			return nil, err
		}
	case !hasLog:
		return nil, fmt.Errorf("%w: need -db <snapshot>, -demo, -logdir <dir> or a recoverable -checkpoint-dir", ErrConfig)
	}

	// The write-through log: Append stages, Sync is the one durable-ack
	// point per acknowledged request, however many records it carried.
	srvCfg := cfg.Config
	srvCfg.Append, srvCfg.Sync, srvCfg.Checkpoints, srvCfg.Recovered = nil, nil, store, rec
	srvCfg.Replicate, srvCfg.Follower, srvCfg.Tamper, srvCfg.Feeder = nil, nil, nil, feeder
	if hasLog {
		if d.Log, err = provlog.NewWriter(lfs, "/", 0); err != nil {
			return nil, err
		}
		// A torn final frame would hide every record acked after it from
		// the drain, so a writer cuts it; mid-log damage stays, for
		// AttachMMR. A follower's log is written only by the stream.
		if cfg.Join == "" {
			if err := d.Log.CutTornTail(intactFrom(bootM, rec, d.Log)); err != nil {
				d.release()
				return nil, err
			}
		}
		d.Waldo.Attach(waldo.NewLogVolume(logVolume, lfs, d.Log))
		srvCfg.Append, srvCfg.Sync = d.Log.AppendRecords, d.Log.Sync
	}
	// Every appended frame becomes a leaf — except on a follower, whose
	// writer never appends. A log the MMR cannot cover (mid-log damage)
	// serves without tamper evidence rather than refusing boot.
	if tamper && cfg.Join == "" {
		if err := d.Log.AttachMMR(bootM, logVolume); err != nil {
			d.Boot.TamperOff = err
			tamper, bootM = false, nil
		}
	}

	// Replication roles. Followers mirror log.current by byte offset, so
	// both roles pin it: a rotation would silently fork every replica.
	if cfg.Quorum > 0 {
		d.Log.DisableRotation("replication primary: follower offsets track log.current")
		src, err := replica.OpenFileSource(lfs, "/"+provlog.CurrentName)
		if err != nil {
			d.release()
			return nil, err
		}
		d.files = append(d.files, src)
		var rsrc replica.Source = src
		if tamper {
			// Each chunk carries the MMR root over the prefix it ends, so a
			// proof-aware follower refuses a fork before it is durable.
			rsrc = replica.WithProofs(src, logRootAt(d.Log))
		}
		dial := cfg.PeerDial
		if dial == (Options{}) {
			dial = Options{DialTimeout: 2 * time.Second, RequestTimeout: 30 * time.Second}
		}
		d.Primary = replica.NewPrimary(rsrc, replica.Config{
			Quorum:        cfg.Quorum,
			CommitTimeout: cfg.CommitTimeout,
			Dial:          PeerDialer(dial),
			RetryBase:     cfg.PeerRetryBase,
			RetryMax:      cfg.PeerRetryMax,
		})
		srvCfg.Replicate = d.Primary
	}
	if cfg.Join != "" {
		// The only writer of a follower's log is the replication stream;
		// the client surface is read-only.
		d.Log.DisableRotation("replication follower: the stream appends to log.current by offset")
		if srvCfg.Follower, err = replica.OpenFollowerLog(lfs, "/"+provlog.CurrentName); err != nil {
			d.release()
			return nil, err
		}
		d.files = append(d.files, srvCfg.Follower)
		srvCfg.Append, srvCfg.Sync = nil, nil
	}
	if recovered {
		d.Boot.DroppedVolumes = d.Waldo.RestoreVolumes(rec.Volumes)
	}

	// Catch-up drain: only the tail past a recovered checkpoint, or the
	// whole log on a cold start.
	if hasLog {
		if err := d.Waldo.Drain(); err != nil {
			d.release()
			return nil, err
		}
		d.Boot.Replayed = d.Waldo.EntriesDecoded()
		if cfg.DrainInterval > 0 {
			d.Waldo.Start(cfg.DrainInterval)
		}
	}

	if tamper {
		srvCfg.Tamper = signCheckpoints(store, id, d.Log, feeder, lfs)
	}
	if d.Server, err = Serve(d.Waldo, srvCfg); err != nil {
		d.Waldo.Stop()
		d.release()
		return nil, err
	}

	// A follower announces itself on a timer: the first round registers
	// it, later ones re-register it after a primary restart. The primary
	// dials back and replicates from wherever this log ends.
	if cfg.Join != "" {
		d.Boot.Advertise = cfg.Advertise
		if d.Boot.Advertise == "" {
			d.Boot.Advertise = d.Server.Addr()
		}
		every := cfg.JoinInterval
		if every <= 0 {
			every = time.Second
		}
		d.stopJoin = make(chan struct{})
		d.joining.Add(1)
		go d.announce(cfg.Join, d.Boot.Advertise, every)
	}
	return d, nil
}

// Close stops the daemon in cmd/passd's SIGTERM order: the announce loop,
// a final drain so the shutdown checkpoint is complete, the server (which
// writes that final generation), then the primary and the log. Later
// calls return the first call's error.
func (d *Daemon) Close() error {
	d.closing.Do(func() {
		if d.stopJoin != nil {
			close(d.stopJoin)
			d.joining.Wait()
		}
		if d.Log != nil {
			d.closeErr = d.Waldo.Stop()
		}
		d.closeErr = errors.Join(d.closeErr, d.Server.Close(), d.release())
	})
	return d.closeErr
}

// release stops the primary and closes replication's files and the log
// writer, on Close and on a failed Open.
func (d *Daemon) release() error {
	var err error
	if d.Primary != nil {
		err = d.Primary.Close()
	}
	for _, f := range d.files {
		err = errors.Join(err, f.Close())
	}
	if d.Log != nil {
		err = errors.Join(err, d.Log.Close())
	}
	return err
}

func (d *Daemon) announce(primary, self string, every time.Duration) {
	defer d.joining.Done()
	for {
		wait := every
		if err := Announce(primary, self, 2*time.Second); err != nil {
			wait = every / 2
		}
		select {
		case <-d.stopJoin:
			return
		case <-time.After(wait):
		}
	}
}

// fsFor returns the seam when set, else a DirFS over dir (created if
// missing), else nil.
func fsFor(seam vfs.FS, dir string) (vfs.FS, error) {
	if seam != nil || dir == "" {
		return seam, nil
	}
	return vfs.NewDirFS(dir)
}

// intactFrom is a global log offset known to start a frame, where the
// cut's scan starts: the MMR's cursor (so only torn bytes are read), else
// the recovered checkpoint's offset into the active log, else 0.
func intactFrom(m *mmr.MMR, rec *checkpoint.Recovered, lw *provlog.Writer) int64 {
	if m != nil {
		return m.Cursor()
	}
	if rec != nil {
		for _, v := range rec.Volumes {
			if v.Name == logVolume {
				return lw.GlobalSize() - lw.Size() + v.Offsets[lw.CurrentSeq()]
			}
		}
	}
	return 0
}

// verifyProofs checks a manifest's signed root statements against the
// identity and the log's MMR. A peak-file-resumed MMR that cannot answer
// for an older size is rebuilt from the log, once, through *m.
func verifyProofs(man *checkpoint.Manifest, id *signer.Identity, m **mmr.MMR, lfs vfs.FS) error {
	for _, p := range man.Proofs {
		if p.Volume != logVolume {
			return fmt.Errorf("generation %d: proof names unknown volume %q", man.Gen, p.Volume)
		}
		if !bytes.Equal(p.PubKey, id.Pub) {
			return fmt.Errorf("generation %d: proof signed by a different identity", man.Gen)
		}
		st := signer.Statement{DeviceID: p.DeviceID, Volume: p.Volume, Root: p.Root, Size: p.Size, Gen: uint64(man.Gen), Timestamp: p.Timestamp}
		if !signer.Verify(ed25519.PublicKey(p.PubKey), st, p.Sig) {
			return fmt.Errorf("generation %d: root statement signature is invalid", man.Gen)
		}
		root, err := (*m).RootAt(p.Size)
		if errors.Is(err, mmr.ErrPruned) {
			full, rerr := provlog.RebuildMMR(lfs, "/", logVolume)
			if rerr != nil {
				return rerr
			}
			*m = full
			root, err = full.RootAt(p.Size)
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

// logRootAt answers a proof-aware replication source: the writer's MMR
// leaf count and root over the log prefix ending at byte offset end.
func logRootAt(lw *provlog.Writer) func(end int64) (uint64, [32]byte, bool) {
	return func(end int64) (uint64, [32]byte, bool) {
		m := lw.MMR()
		if m == nil {
			return 0, [32]byte{}, false
		}
		n, ok := m.LeavesAtOffset(end)
		if !ok {
			return 0, [32]byte{}, false
		}
		root, err := m.RootAt(n)
		return n, root, err == nil
	}
}

// signCheckpoints wires checkpoint signing and returns the server's
// tamper surface. Each generation carries a signed statement binding it
// to the exact log prefix it covers; the MMR peaks that statement was
// taken from are stashed and persisted once the manifest commits, so the
// next boot resumes the range without rehashing. A follower signs what
// the replication stream fed (its log is the primary's verbatim) and
// keeps no peak file.
func signCheckpoints(store *checkpoint.Store, id *signer.Identity, lw *provlog.Writer, feeder *provlog.TailFeeder, lfs vfs.FS) *TamperConfig {
	tc := &TamperConfig{Volume: logVolume, Signer: id}
	if feeder != nil {
		tc.MMR = feeder.MMR
	} else {
		tc.MMR, tc.Rehydrate = lw.MMR, lw.Rehydrate
	}
	if store == nil {
		return tc
	}
	var stash atomic.Pointer[mmr.State]
	store.MakeProofs = func(cp *waldo.CheckpointState) ([]checkpoint.Proof, error) {
		var (
			st   mmr.State
			root mmr.Hash
			err  error
		)
		if feeder != nil {
			m := feeder.MMR()
			st = m.State()
			if root, err = m.RootAt(st.Count); err != nil {
				return nil, err
			}
		} else if st, _, root, err = lw.SyncTamper(); err != nil {
			return nil, err
		}
		stmt := signer.Statement{Volume: logVolume, Root: root, Size: st.Count, Gen: uint64(cp.Gen), Timestamp: uint64(time.Now().Unix())}
		stash.Store(&st)
		return []checkpoint.Proof{{
			Volume:    logVolume,
			Size:      st.Count,
			Root:      root,
			Timestamp: stmt.Timestamp,
			DeviceID:  id.DeviceID,
			PubKey:    append([]byte(nil), id.Pub...),
			Sig:       id.Sign(stmt),
		}}, nil
	}
	if feeder == nil {
		tc.SaveState = func() error {
			if st := stash.Load(); st != nil {
				return provlog.SaveMMR(lfs, "/", *st)
			}
			return nil
		}
	}
	return tc
}
