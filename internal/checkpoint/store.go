package checkpoint

import (
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"

	"passv2/internal/kvdb"
	"passv2/internal/vfs"
	"passv2/internal/waldo"
)

// DefaultRetain is how many checkpoint chains a store keeps when the
// caller does not say: the newest to recover from, plus fallbacks should
// it prove corrupt.
const DefaultRetain = 3

// Policy says what kind of generation Write commits.
type Policy struct {
	// FullEvery bounds delta chains: one full generation, then up to
	// FullEvery-1 deltas, then full again. <= 1 means every generation is
	// a full snapshot (the pre-delta behavior). Independent of the
	// period, Write falls back to a full generation whenever a delta is
	// impossible or pointless: no base view is pinned in this process
	// (first write after boot), the base generation's manifest is gone
	// from the directory, or the delta would be at least as large as the
	// full snapshot it stands in for.
	FullEvery int
}

// Store reads and writes checkpoints in one directory of an FS. Methods
// are not safe for concurrent use with each other; the daemon serializes
// them behind its checkpointer mutex.
type Store struct {
	fs     vfs.FS
	dir    string
	retain int

	// MakeProofs, when set, is called by Write at the start of each
	// checkpoint to produce the generation's signed MMR root proofs
	// (DESIGN.md §13); returning an error aborts the checkpoint. A nil
	// hook (or an empty proof slice) writes a proofless v2 manifest.
	MakeProofs func(cp *waldo.CheckpointState) ([]Proof, error)

	// VerifyProofs, when set, is called by Load on each otherwise-valid
	// candidate manifest before recovery trusts it. An error rejects the
	// candidate (Skip class "root_mismatch") and recovery falls back
	// toward an older generation — the CRC-valid-but-root-forged case a
	// checksum alone cannot catch.
	VerifyProofs func(m *Manifest) error

	// Delta chain state, valid only within this process: base is the
	// view pinned by the previous successful Write (the tree a delta
	// diffs against — views of a reloaded database fail kvdb's identity
	// check, so a restart always begins with a full generation), baseGen
	// its generation, and sinceFull the number of deltas committed since
	// the last full. Holding base keeps one extra frozen tree alive, but
	// it shares every untouched node with the live tree, so the overhead
	// is the mutated fringe between checkpoints.
	base      *waldo.ReadView
	baseGen   int64
	sinceFull int
}

// NewStore opens (creating if needed) a checkpoint directory on fs.
// retain <= 0 means DefaultRetain.
func NewStore(fs vfs.FS, dir string, retain int) (*Store, error) {
	dir = vfs.Clean(dir)
	if err := fs.MkdirAll(dir); err != nil && !errors.Is(err, vfs.ErrExist) {
		return nil, err
	}
	if retain <= 0 {
		retain = DefaultRetain
	}
	return &Store{fs: fs, dir: dir, retain: retain}, nil
}

// Dir returns the store's directory path within its FS.
func (s *Store) Dir() string { return s.dir }

func (s *Store) snapPath(gen int64) string {
	return vfs.Join(s.dir, fmt.Sprintf("ckpt-%016x.db", uint64(gen)))
}

func (s *Store) metaPath(gen int64) string {
	return vfs.Join(s.dir, fmt.Sprintf("ckpt-%016x.meta", uint64(gen)))
}

func (s *Store) deltaPath(gen int64) string {
	return vfs.Join(s.dir, fmt.Sprintf("ckpt-%016x.delta", uint64(gen)))
}

// payloadPath returns the payload file for a generation of the given kind.
func (s *Store) payloadPath(gen int64, kind Kind) string {
	if kind == KindDelta {
		return s.deltaPath(gen)
	}
	return s.snapPath(gen)
}

// parseGen extracts the generation from a checkpoint file name
// ("ckpt-<gen16x>.db" / ".meta"), reporting the extension.
func parseGen(name string) (gen int64, ext string, ok bool) {
	if !strings.HasPrefix(name, "ckpt-") {
		return 0, "", false
	}
	rest := name[len("ckpt-"):]
	dot := strings.IndexByte(rest, '.')
	if dot != 16 {
		return 0, "", false
	}
	n, err := strconv.ParseUint(rest[:dot], 16, 64)
	if err != nil {
		return 0, "", false
	}
	return int64(n), rest[dot+1:], true
}

// Info describes one written checkpoint.
type Info struct {
	Gen           int64
	Records       int64
	SnapshotBytes int64 // payload bytes committed for this generation (full snapshot or delta)
	Kind          Kind
	BaseGen       int64 // for a delta: the generation it applies on top of
	// SweepErr reports a post-commit retention sweep failure. The
	// generation itself is durably committed — the manifest rename
	// happened before the sweep — so callers must treat the write as a
	// success and surface SweepErr as a housekeeping problem (stale files
	// linger until a later sweep), never as a checkpoint failure.
	SweepErr error
}

// errDeltaTooBig aborts a delta payload once it stops being cheaper than
// the full snapshot it would stand in for; Write falls back to a full
// generation.
var errDeltaTooBig = errors.New("checkpoint: delta would be no smaller than a full snapshot")

// Write persists one checkpoint generation: payload then manifest, each
// through a temp file, fsync and atomic rename, with a directory sync
// after each rename. The manifest rename is the commit point. pol decides
// the payload kind — a delta against the previous generation's pinned
// view when the chain policy and base allow it, a full snapshot
// otherwise. After committing, a retention sweep removes chains beyond
// the store's retain count, stale temp files, and orphaned payloads; a
// sweep failure is reported in Info.SweepErr, not as a write error,
// because the generation is already committed.
func (s *Store) Write(cp *waldo.CheckpointState, pol Policy) (Info, error) {
	info := Info{Gen: cp.Gen, Records: cp.Records, Kind: KindFull}

	// Signed root proofs are collected before any payload I/O so a signer
	// failure aborts the checkpoint without staging files to sweep up.
	var proofs []Proof
	if s.MakeProofs != nil {
		var err error
		if proofs, err = s.MakeProofs(cp); err != nil {
			return info, fmt.Errorf("checkpoint: root proofs: %w", err)
		}
	}

	kind := KindFull
	if pol.FullEvery > 1 && s.base != nil && s.sinceFull+1 < pol.FullEvery {
		// The base must still be committed on disk: retention keeps live
		// chains, but the directory may have been cleared or reconfigured
		// under us between writes.
		if _, err := s.fs.Stat(s.metaPath(s.baseGen)); err == nil {
			kind = KindDelta
		}
	}

	var payloadBytes int64
	var payloadCRC uint32
	if kind == KindDelta {
		n, crc, err := s.writeDelta(cp)
		switch {
		case err == nil:
			payloadBytes, payloadCRC = n, crc
			info.Kind, info.BaseGen = KindDelta, s.baseGen
		case errors.Is(err, kvdb.ErrDeltaBase) || errors.Is(err, errDeltaTooBig):
			// Not an I/O failure: the base is unusable (e.g. a store
			// reused across a reload) or the delta buys nothing. Fall
			// back to a self-contained generation.
			kind = KindFull
		default:
			return info, err
		}
	}
	if kind == KindFull {
		n, crc, err := s.writeFull(cp)
		if err != nil {
			return info, err
		}
		payloadBytes, payloadCRC = n, crc
	}
	info.SnapshotBytes = payloadBytes

	// Manifest — the commit point.
	_, provBytes, idxBytes := cp.View.Stats()
	meta := encodeManifest(&Manifest{
		Gen:       cp.Gen,
		Kind:      info.Kind,
		BaseGen:   info.BaseGen,
		Records:   cp.Records,
		ProvBytes: provBytes,
		IdxBytes:  idxBytes,
		SnapSize:  payloadBytes,
		SnapCRC:   payloadCRC,
		Volumes:   cp.Volumes,
		Proofs:    proofs,
	})
	metaTmp := vfs.Join(s.dir, fmt.Sprintf("tmp-ckpt-%016x.meta", uint64(cp.Gen)))
	f, err := s.fs.Open(metaTmp, vfs.OCreate|vfs.ORdWr|vfs.OTrunc)
	if err != nil {
		return info, err
	}
	if _, err := f.WriteAt(meta, 0); err != nil {
		f.Close()
		return info, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return info, err
	}
	if err := f.Close(); err != nil {
		return info, err
	}
	if err := s.fs.Rename(metaTmp, s.metaPath(cp.Gen)); err != nil {
		return info, err
	}
	if err := s.fs.Sync(); err != nil {
		return info, err
	}

	// Committed: pin this generation's view as the next delta's base.
	s.base, s.baseGen = cp.View, cp.Gen
	if info.Kind == KindFull {
		s.sinceFull = 0
	} else {
		s.sinceFull++
	}

	info.SweepErr = s.sweep(nil)
	return info, nil
}

// writeFull stages and publishes a full snapshot payload for cp's
// generation, returning its size and CRC.
func (s *Store) writeFull(cp *waldo.CheckpointState) (int64, uint32, error) {
	tmp := vfs.Join(s.dir, fmt.Sprintf("tmp-ckpt-%016x.db", uint64(cp.Gen)))
	f, err := s.fs.Open(tmp, vfs.OCreate|vfs.ORdWr|vfs.OTrunc)
	if err != nil {
		return 0, 0, err
	}
	fw := &fileWriter{f: f, crc: crc32.NewIEEE()}
	if err := cp.View.Save(fw); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := s.publish(f, tmp, s.snapPath(cp.Gen)); err != nil {
		return 0, 0, err
	}
	return fw.off, fw.crc.Sum32(), nil
}

// writeDelta stages and publishes a delta payload diffing cp's view
// against the store's pinned base. It aborts with errDeltaTooBig the
// moment the stream reaches the full snapshot's size — the caller falls
// back to writeFull — and with kvdb.ErrDeltaBase when the pinned base
// belongs to a different database incarnation.
func (s *Store) writeDelta(cp *waldo.CheckpointState) (int64, uint32, error) {
	tmp := vfs.Join(s.dir, fmt.Sprintf("tmp-ckpt-%016x.delta", uint64(cp.Gen)))
	f, err := s.fs.Open(tmp, vfs.OCreate|vfs.ORdWr|vfs.OTrunc)
	if err != nil {
		return 0, 0, err
	}
	fw := &fileWriter{f: f, crc: crc32.NewIEEE(), limit: cp.View.SnapshotSize()}
	if _, err := cp.View.SaveDelta(s.base, fw); err != nil {
		f.Close()
		// Best-effort cleanup before falling back; a leftover tmp file is
		// invisible to recovery and collected by the next sweep anyway.
		s.fs.Remove(tmp)
		return 0, 0, err
	}
	if err := s.publish(f, tmp, s.deltaPath(cp.Gen)); err != nil {
		return 0, 0, err
	}
	return fw.off, fw.crc.Sum32(), nil
}

// publish fsyncs and closes a staged payload file, renames it into place,
// and syncs the directory.
func (s *Store) publish(f vfs.File, tmp, final string) error {
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.fs.Rename(tmp, final); err != nil {
		return err
	}
	return s.fs.Sync()
}

// sweep enforces retention: the newest retain committed generations —
// plus, chain-safety, every base a kept delta transitively references,
// and every generation in extraKeep (the chain recovery just composed,
// which may sit outside the retain window after a fall-back) — survive;
// everything else goes: older generations, stale temp files, and payloads
// with no manifest (a crash between the two renames leaves one).
func (s *Store) sweep(extraKeep []int64) error {
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return err
	}
	committed := make(map[int64]bool)
	var gens []int64
	for _, e := range ents {
		if gen, ext, ok := parseGen(e.Name); ok && ext == "meta" {
			committed[gen] = true
			gens = append(gens, gen)
		}
	}
	// Chain links: which base each committed delta applies on. A manifest
	// that cannot be read or decoded links nowhere — its generation is
	// retained or dropped purely by position.
	baseOf := make(map[int64]int64)
	for _, gen := range gens {
		if data, err := vfs.ReadFile(s.fs, s.metaPath(gen)); err == nil {
			if m, err := decodeManifest(data); err == nil && m.Kind == KindDelta {
				baseOf[gen] = m.BaseGen
			}
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	keep := make(map[int64]bool)
	keepChain := func(gen int64) {
		for !keep[gen] {
			keep[gen] = true
			base, ok := baseOf[gen]
			if !ok {
				return
			}
			gen = base
		}
	}
	for i, gen := range gens {
		if i < s.retain {
			keepChain(gen)
		}
	}
	for _, gen := range extraKeep {
		if committed[gen] {
			keepChain(gen)
		}
	}
	var first error
	for _, e := range ents {
		var drop bool
		switch gen, ext, ok := parseGen(e.Name); {
		case strings.HasPrefix(e.Name, "tmp-"):
			drop = true
		case ok && ext == "meta":
			drop = !keep[gen]
		case ok && (ext == "db" || ext == "delta"):
			drop = !keep[gen] || !committed[gen]
		}
		if drop {
			if err := s.fs.Remove(vfs.Join(s.dir, e.Name)); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Skip reports one generation recovery could not use, and why. Class is
// the machine-readable bucket for metrics — one of "manifest" (the
// manifest itself was unreadable or corrupt), "payload" (a snapshot or
// delta failed its size/CRC/decode checks), "chain_base" (the candidate
// was fine but a generation its delta chain rests on was not), "orphan"
// (a payload with no manifest: the checkpoint never committed),
// "root_mismatch" (the VerifyProofs hook rejected a CRC-valid manifest),
// or "other".
type Skip struct {
	Gen    int64
	Reason string
	Class  string
}

// Skip classes.
const (
	SkipManifest     = "manifest"
	SkipPayload      = "payload"
	SkipChainBase    = "chain_base"
	SkipOrphan       = "orphan"
	SkipRootMismatch = "root_mismatch"
	SkipOther        = "other"
)

// classedErr tags an error with a Skip class. errors.As finds the
// outermost tag, so wrapping an already-classed error reclassifies it —
// loadChain uses that to turn any inner failure into "chain_base" when
// it happened below the candidate generation itself.
type classedErr struct {
	class string
	err   error
}

func (e *classedErr) Error() string { return e.err.Error() }
func (e *classedErr) Unwrap() error { return e.err }

func classed(class string, err error) error {
	return &classedErr{class: class, err: err}
}

func classOf(err error) string {
	var ce *classedErr
	if errors.As(err, &ce) {
		return ce.class
	}
	return SkipOther
}

// Recovered is the outcome of Load. DB is nil when no usable generation
// exists (an empty or brand-new store, or every generation corrupt — the
// caller then starts from an empty database and byte zero of every log);
// Skipped lists every generation that was present but rejected, newest
// first.
type Recovered struct {
	DB      *waldo.DB
	Gen     int64
	Records int64
	// SnapshotBytes is the payload bytes recovery actually read: the full
	// snapshot plus every delta composed on top of it.
	SnapshotBytes int64
	// Chain lists the generations composed into DB, newest first; a full
	// generation recovers as a chain of one.
	Chain   []int64
	Volumes []waldo.VolumeState
	// Proofs are the recovered manifest's signed MMR root statements,
	// verbatim (empty for a v1/v2 generation or when tamper evidence is
	// off). When the store's VerifyProofs hook is set they have already
	// been checked; recovery then re-verifies the root against the live
	// log before serving.
	Proofs  []Proof
	Skipped []Skip
	// Missing is filled by restore helpers (pass.Machine.Recover) with the
	// names of checkpointed volumes that had no attached counterpart.
	Missing []string
	// SweepErr reports a failure of the housekeeping sweep a successful
	// Load runs (collecting temp files and orphaned payloads left by
	// crashes); recovery itself succeeded.
	SweepErr error
}

// ResumeBytes sums the recovered offsets across volumes: the log bytes a
// post-recovery drain skips.
func (r *Recovered) ResumeBytes() int64 {
	var n int64
	for i := range r.Volumes {
		n += r.Volumes[i].ResumeBytes()
	}
	return n
}

// Load recovers from the newest valid checkpoint generation, composing
// its base+delta chain and falling back across corrupt candidates (bad
// magic or CRC, truncated payload or manifest, missing files, a delta
// whose base is gone) rather than failing: a half-written or bit-rotted
// generation costs only the fallback — ultimately to the newest intact
// full generation — never a panic or a half-loaded database. A
// successful recovery ends with a housekeeping sweep (reported in
// SweepErr, never as a Load failure), so temp files and orphaned
// payloads left by repeated crash→recover cycles cannot accumulate. The
// returned error is reserved for the directory itself being unreadable.
func (s *Store) Load() (*Recovered, error) {
	rec := &Recovered{}
	ents, err := s.fs.ReadDir(s.dir)
	if errors.Is(err, vfs.ErrNotExist) {
		return rec, nil
	}
	if err != nil {
		return nil, err
	}
	var gens, orphans []int64
	committed := make(map[int64]bool)
	for _, e := range ents {
		if gen, ext, ok := parseGen(e.Name); ok && ext == "meta" {
			gens = append(gens, gen)
			committed[gen] = true
		}
	}
	for _, e := range ents {
		if gen, ext, ok := parseGen(e.Name); ok && (ext == "db" || ext == "delta") && !committed[gen] {
			orphans = append(orphans, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	for _, gen := range gens {
		db, m, chain, totalBytes, err := s.loadChain(gen)
		if err == nil && s.VerifyProofs != nil {
			if perr := s.VerifyProofs(m); perr != nil {
				err = classed(SkipRootMismatch, perr)
			}
		}
		if err != nil {
			rec.Skipped = append(rec.Skipped, Skip{Gen: gen, Reason: err.Error(), Class: classOf(err)})
			continue
		}
		db.RestoreGen(m.Gen)
		rec.DB = db
		rec.Gen = m.Gen
		rec.Records = m.Records
		rec.SnapshotBytes = totalBytes
		rec.Chain = chain
		rec.Volumes = m.Volumes
		rec.Proofs = m.Proofs
		break
	}
	// An orphaned payload (no manifest) is a checkpoint that crashed
	// between its two renames. It is invisible to recovery; report it only
	// when it is newer than everything recovered — an orphan superseded by
	// a committed generation lost nothing and would read as a recovery
	// problem that never happened.
	for _, gen := range orphans {
		if rec.DB == nil || gen > rec.Gen {
			rec.Skipped = append(rec.Skipped, Skip{Gen: gen, Reason: "missing manifest (checkpoint did not commit)", Class: SkipOrphan})
		}
	}
	if rec.DB != nil {
		rec.SweepErr = s.sweep(rec.Chain)
	}
	return rec, nil
}

// loadChain loads generation gen, following delta base links down to a
// full generation and composing the chain oldest-first. It returns the
// head manifest (whose counters and volume offsets describe the composed
// state), the generations composed (newest first) and the total payload
// bytes read. Any unreadable link fails the whole candidate.
func (s *Store) loadChain(gen int64) (*waldo.DB, *Manifest, []int64, int64, error) {
	var (
		head   *Manifest
		chain  []int64
		deltas [][]byte
		total  int64
	)
	cur := gen
	for {
		m, payload, err := s.readGen(cur)
		if err != nil {
			if cur != gen {
				// Reclassify: the candidate itself was fine, a link its
				// chain rests on was not (outermost class wins).
				err = classed(SkipChainBase, fmt.Errorf("chain base gen %d: %v", cur, err))
			}
			return nil, nil, nil, 0, err
		}
		if head == nil {
			head = m
		}
		chain = append(chain, cur)
		total += int64(len(payload))
		if m.Kind == KindFull {
			// Deltas were collected walking newest→oldest; apply them
			// oldest→newest on top of the full image.
			for i, j := 0, len(deltas)-1; i < j; i, j = i+1, j-1 {
				deltas[i], deltas[j] = deltas[j], deltas[i]
			}
			db, err := waldo.LoadCheckpointChain(payload, deltas, head.Records, head.ProvBytes, head.IdxBytes)
			if err != nil {
				return nil, nil, nil, 0, classed(SkipPayload, fmt.Errorf("snapshot: %w", err))
			}
			return db, head, chain, total, nil
		}
		deltas = append(deltas, payload)
		// decodeManifest guarantees BaseGen < Gen for deltas, so the walk
		// strictly descends and must terminate.
		cur = m.BaseGen
	}
}

// readGen reads and integrity-checks one generation's manifest and
// payload: exact-size read, one CRC pass, nothing trusted before the
// whole payload validates.
func (s *Store) readGen(gen int64) (*Manifest, []byte, error) {
	metaData, err := vfs.ReadFile(s.fs, s.metaPath(gen))
	if err != nil {
		return nil, nil, classed(SkipManifest, fmt.Errorf("manifest: %w", err))
	}
	m, err := decodeManifest(metaData)
	if err != nil {
		return nil, nil, classed(SkipManifest, err)
	}
	if m.Gen != gen {
		return nil, nil, classed(SkipManifest, fmt.Errorf("%w: manifest gen %d under name gen %d", ErrBadManifest, m.Gen, gen))
	}
	label := "snapshot"
	if m.Kind == KindDelta {
		label = "delta"
	}
	f, err := s.fs.Open(s.payloadPath(gen, m.Kind), vfs.ORdOnly)
	if err != nil {
		return nil, nil, classed(SkipPayload, fmt.Errorf("%s: %w", label, err))
	}
	defer f.Close()
	if size := f.Size(); size != m.SnapSize {
		return nil, nil, classed(SkipPayload, fmt.Errorf("%s: %d bytes, manifest says %d", label, size, m.SnapSize))
	}
	buf := make([]byte, m.SnapSize)
	if n, err := f.ReadAt(buf, 0); err != nil || int64(n) != m.SnapSize {
		return nil, nil, classed(SkipPayload, fmt.Errorf("%s: read %d of %d bytes: %v", label, n, m.SnapSize, err))
	}
	if got := crc32.ChecksumIEEE(buf); got != m.SnapCRC {
		return nil, nil, classed(SkipPayload, fmt.Errorf("%s: CRC mismatch (%08x != %08x)", label, got, m.SnapCRC))
	}
	return m, buf, nil
}

// ReadManifest decodes one committed generation's manifest without
// touching its payload — the offline verifier's view of the signed root
// statements a generation carries.
func (s *Store) ReadManifest(gen int64) (*Manifest, error) {
	data, err := vfs.ReadFile(s.fs, s.metaPath(gen))
	if err != nil {
		return nil, err
	}
	m, err := decodeManifest(data)
	if err != nil {
		return nil, err
	}
	if m.Gen != gen {
		return nil, fmt.Errorf("%w: manifest gen %d under name gen %d", ErrBadManifest, m.Gen, gen)
	}
	return m, nil
}

// VerifyGen integrity-checks one generation end to end — manifest decode
// plus payload size and CRC — and returns its manifest. It does not
// compose chains or verify signatures; it is the per-generation bit-rot
// check the offline verifier runs across the whole store.
func (s *Store) VerifyGen(gen int64) (*Manifest, error) {
	m, _, err := s.readGen(gen)
	return m, err
}

// Generations lists the committed (manifest-bearing) generations, newest
// first. Validation is Load's job; this is directory inventory for tests
// and tools.
func (s *Store) Generations() ([]int64, error) {
	ents, err := s.fs.ReadDir(s.dir)
	if errors.Is(err, vfs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var gens []int64
	for _, e := range ents {
		if gen, ext, ok := parseGen(e.Name); ok && ext == "meta" {
			gens = append(gens, gen)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	return gens, nil
}

// fileWriter adapts a vfs.File to io.Writer, tracking offset and CRC.
// A nonzero limit aborts the stream with errDeltaTooBig once it would
// reach limit bytes — the delta write path's early exit, saving the I/O
// of finishing a payload the size check would discard anyway.
type fileWriter struct {
	f     vfs.File
	off   int64
	limit int64
	crc   hash.Hash32
}

func (w *fileWriter) Write(p []byte) (int, error) {
	if w.limit > 0 && w.off+int64(len(p)) >= w.limit {
		return 0, errDeltaTooBig
	}
	n, err := w.f.WriteAt(p, w.off)
	w.off += int64(n)
	w.crc.Write(p[:n])
	return n, err
}
