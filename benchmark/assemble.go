package main

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

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

// logVolumeName is the volume identity cmd/passd checkpoints its -logdir
// tail under.
const logVolumeName = "logdir"

// drainEvery is cmd/passd's default -drain-interval, which the assembly's
// own drain loop keeps.
const drainEvery = 500 * time.Millisecond

// inproc is the daemon cmd/passd/main.go builds, assembled in this
// process from the layers' public constructors so that the benchmark owns
// every seam: the file systems under the log and the checkpoints, the
// Append and Sync closures, the drain loop, the peer the primary
// replicates through and the checkpoint signer. With a nil tracer the
// seams are left bare and the assembly is the shipped daemon's twin —
// the harness-equivalence test holds the two to identical output.
//
// Two deliberate differences when traced: Waldo.Start is replaced by a
// drain loop of the same period that records a span per pass, and the
// background checkpoint triggers are off — the benchmark issues the
// checkpoint verb at each 50,000-record mark itself, so a checkpoint is a
// client-side span with its children inside it.
type inproc struct {
	dir    string
	srv    *passd.Server
	w      *waldo.Waldo
	db     *waldo.DB
	prim   *replica.Primary
	writer *provlog.Writer

	stopDrain chan struct{}
	drained   sync.WaitGroup
}

func (p *inproc) addr() string  { return p.srv.Addr() }
func (p *inproc) admin() string { return p.srv.AdminAddr() }

// assemble builds and starts one daemon over dir/log and dir/ckpt. role
// is "" (standalone), "primary" (-replicate 2) or "follower"; a follower
// must be announced to its primary by the caller.
func assemble(dir, role string, tr *tracer) (*inproc, error) {
	p := &inproc{dir: dir}
	logDir, ckptDir := filepath.Join(dir, "log"), filepath.Join(dir, "ckpt")
	ldfs, err := vfs.NewDirFS(logDir)
	if err != nil {
		return nil, err
	}
	cdfs, err := vfs.NewDirFS(ckptDir)
	if err != nil {
		return nil, err
	}
	var lfs, cfs vfs.FS = ldfs, cdfs
	if tr != nil {
		lfs = &tracedFS{FS: ldfs, tr: tr, write: spanLogWrite, fsync: spanLogFsync, read: spanLogRead}
		cfs = &tracedFS{FS: cdfs, tr: tr, write: spanCkptWrite, fsync: spanCkptFsync}
	}

	// Tamper evidence: identity, then the MMR per role, as main.go does.
	id, err := signer.LoadOrCreate(lfs, "/keys")
	if err != nil {
		return nil, err
	}
	var (
		bootM  *mmr.MMR
		feeder *provlog.TailFeeder
	)
	switch role {
	case "follower":
		if feeder, err = provlog.LoadFeeder(lfs, "/", logVolumeName); err == nil {
			bootM = feeder.MMR()
		}
	case "primary":
		bootM, err = provlog.RebuildMMR(lfs, "/", logVolumeName)
	default:
		bootM, err = provlog.LoadMMR(lfs, "/", logVolumeName)
	}
	if err != nil {
		return nil, err
	}

	store, err := checkpoint.NewStore(cfs, "/", checkpoint.DefaultRetain)
	if err != nil {
		return nil, err
	}
	store.VerifyProofs = func(man *checkpoint.Manifest) error {
		for _, pr := range man.Proofs {
			if pr.Volume != logVolumeName {
				return fmt.Errorf("generation %d: proof names unknown volume %q", man.Gen, pr.Volume)
			}
			if !bytes.Equal(pr.PubKey, id.Pub) {
				return fmt.Errorf("generation %d: proof signed by a different identity", man.Gen)
			}
			st := signer.Statement{DeviceID: pr.DeviceID, Volume: pr.Volume, Root: pr.Root, Size: pr.Size, Gen: uint64(man.Gen), Timestamp: pr.Timestamp}
			if !signer.Verify(ed25519.PublicKey(pr.PubKey), st, pr.Sig) {
				return fmt.Errorf("generation %d: root statement signature is invalid", man.Gen)
			}
			root, err := bootM.RootAt(pr.Size)
			if errors.Is(err, mmr.ErrPruned) {
				var full *mmr.MMR
				if full, err = provlog.RebuildMMR(lfs, "/", logVolumeName); err != nil {
					return err
				}
				bootM = full
				root, err = bootM.RootAt(pr.Size)
			}
			if err != nil {
				return err
			}
			if root != pr.Root {
				return fmt.Errorf("generation %d: signed root over %d records does not match the log", man.Gen, pr.Size)
			}
		}
		return nil
	}
	rec, err := store.Load()
	if err != nil {
		return nil, err
	}

	p.db = waldo.NewDB()
	if rec.DB != nil {
		p.db = rec.DB
	}
	p.w = waldo.New()
	p.w.DB = p.db

	if p.writer, err = provlog.NewWriter(lfs, "/", 0); err != nil {
		return nil, err
	}
	p.w.Attach(waldo.NewLogVolume(logVolumeName, lfs, p.writer))
	appendFn := func(recs []record.Record) error {
		return tr.timed(spanAppend, func() error {
			for _, r := range recs {
				if err := p.writer.AppendRecord(0, r); err != nil {
					return err
				}
			}
			return nil
		})
	}
	syncFn := func() error { return tr.timed(spanSync, p.writer.Sync) }
	if role != "follower" {
		if err := p.writer.AttachMMR(bootM, logVolumeName); err != nil {
			return nil, fmt.Errorf("attaching the MMR: %w", err)
		}
	}

	var flog *replica.FollowerLog
	switch role {
	case "primary":
		p.writer.DisableRotation("replication primary: follower offsets track log.current")
		src, err := replica.OpenFileSource(lfs, "/"+provlog.CurrentName)
		if err != nil {
			return nil, err
		}
		rsrc := replica.WithProofs(src, func(end int64) (uint64, [32]byte, bool) {
			m := p.writer.MMR()
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
		dial := passd.PeerDialer(passd.Options{DialTimeout: 2 * time.Second, RequestTimeout: 30 * time.Second})
		if tr != nil {
			inner := dial
			dial = func(addr string) (replica.Peer, error) {
				peer, err := inner(addr)
				if err != nil {
					return nil, err
				}
				return tracedPeer{peer, tr}, nil
			}
		}
		p.prim = replica.NewPrimary(rsrc, replica.Config{Quorum: 2, CommitTimeout: 10 * time.Second, Dial: dial})
	case "follower":
		p.writer.DisableRotation("replication follower: the stream appends to log.current by offset")
		if flog, err = replica.OpenFollowerLog(lfs, "/"+provlog.CurrentName); err != nil {
			return nil, err
		}
		appendFn, syncFn = nil, nil
	}
	if rec.DB != nil {
		p.w.RestoreVolumes(rec.Volumes)
	}
	if err := p.w.Drain(); err != nil {
		return nil, err
	}

	// Checkpoint signing, and the stash that persists the MMR peaks after
	// the manifest commits.
	var stash struct {
		mu sync.Mutex
		st mmr.State
		ok bool
	}
	store.MakeProofs = func(cp *waldo.CheckpointState) (proofs []checkpoint.Proof, err error) {
		err = tr.timed(spanSign, func() error {
			var (
				st   mmr.State
				root mmr.Hash
			)
			if feeder != nil {
				m := feeder.MMR()
				st = m.State()
				if root, err = m.RootAt(st.Count); err != nil {
					return err
				}
			} else if st, _, root, err = p.writer.SyncTamper(); err != nil {
				return err
			}
			stmt := signer.Statement{Volume: logVolumeName, Root: root, Size: st.Count, Gen: uint64(cp.Gen), Timestamp: uint64(time.Now().Unix())}
			stash.mu.Lock()
			stash.st, stash.ok = st, true
			stash.mu.Unlock()
			proofs = []checkpoint.Proof{{
				Volume: logVolumeName, Size: st.Count, Root: root, Timestamp: stmt.Timestamp,
				DeviceID: id.DeviceID, PubKey: append([]byte(nil), id.Pub...), Sig: id.Sign(stmt),
			}}
			return nil
		})
		return proofs, err
	}
	tamper := &passd.TamperConfig{Volume: logVolumeName, Signer: id}
	if feeder != nil {
		tamper.MMR = feeder.MMR
	} else {
		tamper.MMR = p.writer.MMR
		tamper.Rehydrate = p.writer.Rehydrate
		tamper.SaveState = func() error {
			stash.mu.Lock()
			st, ok := stash.st, stash.ok
			stash.mu.Unlock()
			if !ok {
				return nil
			}
			return provlog.SaveMMR(lfs, "/", st)
		}
	}

	cfg := passd.Config{
		Addr:                "127.0.0.1:0",
		AdminAddr:           "127.0.0.1:0",
		DefaultTimeout:      5 * time.Second,
		MaxTimeout:          30 * time.Second,
		Checkpoints:         store,
		CheckpointInterval:  30 * time.Second,
		CheckpointEvery:     50000,
		CheckpointFullEvery: 8,
		Append:              appendFn,
		Sync:                syncFn,
		Recovered:           rec,
		Replicate:           p.prim,
		Follower:            flog,
		Tamper:              tamper,
		Feeder:              feeder,
	}
	if tr != nil {
		cfg.CheckpointInterval = 24 * time.Hour
		cfg.CheckpointEvery = 0
	}
	if p.srv, err = passd.Serve(p.w, cfg); err != nil {
		return nil, err
	}
	if tr == nil {
		p.w.Start(drainEvery)
		return p, nil
	}
	p.stopDrain = make(chan struct{})
	p.drained.Add(1)
	go func() {
		defer p.drained.Done()
		tick := time.NewTicker(drainEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stopDrain:
				return
			case <-tick.C:
				// A drain error is a torn log: the final drain verb reports it.
				_ = tr.timed(spanDrain, p.w.Drain)
			}
		}
	}()
	return p, nil
}

// close stops the daemon as a SIGTERM stops cmd/passd: final drain, final
// checkpoint, then the primary.
func (p *inproc) close() error {
	var err error
	if p.stopDrain != nil {
		close(p.stopDrain)
		p.drained.Wait()
		err = p.w.Drain()
	} else {
		err = p.w.Stop()
	}
	err = errors.Join(err, p.srv.Close())
	if p.prim != nil {
		err = errors.Join(err, p.prim.Close())
	}
	return err
}
