package provlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"

	"passv2/internal/mmr"
	"passv2/internal/vfs"
)

// Tamper evidence over the log (DESIGN.md §13). Every record frame the
// writer appends is also fed into an MMR leaf keyed by the frame's
// global byte offset — the offset in the concatenation of all rotated
// logs plus the active one, which rotation renames do not disturb. The
// MMR's compact peak state is persisted next to the log (MMRStateName)
// after each durable checkpoint, so a restarting daemon resumes in
// pruned mode instead of rehashing history; proof demands rehydrate it
// by rescanning, and the rescanned root must match the resumed one.

// MMRStateName is the peak-file name inside the log directory.
const MMRStateName = "mmr.state"

// feedFrame routes one intact frame into the MMR: record frames become
// leaves at their global start offset, everything else just advances the
// cursor past the frame.
func feedFrame(m *mmr.MMR, volume string, start int64, body []byte) {
	end := start + int64(len(body)) + 8 // u32 length prefix + body + u32 CRC
	if len(body) > 1 && EntryType(body[0]) == EntryRecord {
		payload := body[1:]
		if _, un := binary.Uvarint(payload); un > 0 {
			m.Append(mmr.LeafHash(payload[un:], volume, uint64(start)), end)
			return
		}
	}
	m.Advance(end)
}

// AttachMMR wires an MMR into the writer: every subsequent append feeds
// it. The MMR must already cover the log exactly — its cursor has to sit
// at the current global end — or the attach is refused, because a gap
// would silently produce roots that disagree with the bytes on disk.
func (w *Writer) AttachMMR(m *mmr.MMR, volume string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	end := w.globalBase + w.size + int64(len(w.buf))
	if c := m.Cursor(); c != end {
		return fmt.Errorf("provlog: MMR covers %d log bytes but the log ends at %d; repair the log tail or rebuild", c, end)
	}
	w.mmr, w.mmrVol = m, volume
	return nil
}

// MMR returns the attached MMR, or nil.
func (w *Writer) MMR() *mmr.MMR {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.mmr
}

// GlobalSize returns the log's total byte length across rotations,
// including buffered entries — the offset the next frame will start at.
func (w *Writer) GlobalSize() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.globalBase + w.size + int64(len(w.buf))
}

// SyncTamper flushes and fsyncs the log, then snapshots the MMR under
// the same lock hold: the returned state, count and root cover exactly
// the durable bytes, never a buffered suffix that a crash could lose.
// The checkpointer signs the (count, root) pair into the manifest and
// persists the state after the manifest commits.
func (w *Writer) SyncTamper() (mmr.State, uint64, mmr.Hash, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.mmr == nil {
		return mmr.State{}, 0, mmr.Hash{}, errors.New("provlog: no MMR attached")
	}
	if err := w.flushLocked(); err != nil {
		return mmr.State{}, 0, mmr.Hash{}, err
	}
	if err := w.f.Sync(); err != nil {
		return mmr.State{}, 0, mmr.Hash{}, err
	}
	st := w.mmr.State()
	return st, w.mmr.Count(), w.mmr.Root(), nil
}

// Rehydrate upgrades a pruned attached MMR to full mode by rescanning
// the log. The bulk of the rescan runs without the writer lock; the
// final catch-up and swap happen under it, and the rebuilt range must
// agree with the resumed peaks — a disagreement means the peak file and
// the log tell different histories, which is exactly what tamper
// evidence exists to refuse.
func (w *Writer) Rehydrate() error {
	w.mu.Lock()
	if w.mmr == nil {
		w.mu.Unlock()
		return errors.New("provlog: no MMR attached")
	}
	if !w.mmr.Pruned() {
		w.mu.Unlock()
		return nil
	}
	vol := w.mmrVol
	w.mu.Unlock()

	m, err := RebuildMMR(w.fs, w.dir, vol)
	if err != nil {
		return err
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.flushLocked(); err != nil {
		return err
	}
	if err := catchUp(w.fs, w.dir, vol, m); err != nil {
		return err
	}
	end := w.globalBase + w.size
	if c := m.Cursor(); c != end {
		return fmt.Errorf("provlog: rebuilt MMR covers %d of %d log bytes; unparseable tail", c, end)
	}
	if m.Count() != w.mmr.Count() || m.Root() != w.mmr.Root() {
		return fmt.Errorf("provlog: log rescan disagrees with the resumed MMR peaks (%d vs %d leaves) — log or peak state has been altered",
			m.Count(), w.mmr.Count())
	}
	w.mmr = m
	return nil
}

// RebuildMMR derives a full-mode MMR by scanning every log file. A torn
// tail on the active log is tolerated (the cursor stops before it); a
// torn rotated log is corruption and fails the rebuild.
func RebuildMMR(fs vfs.FS, dir, volume string) (*mmr.MMR, error) {
	m := mmr.New()
	if err := catchUp(fs, dir, volume, m); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadMMR opens the log's MMR cheaply: resume in pruned mode from the
// peak file and hash only the frames past its cursor. Any problem with
// the peak file — missing, corrupt, or pointing past the log end — falls
// back to a full rebuild, never to a wrong answer. So do bytes left past
// a saved cursor that catch-up could not move: a torn frame right at the
// cursor, or a cursor off this log's frame grid, and only a scan from
// the start tells the two apart. Once catch-up has hashed an intact frame
// from the cursor, the cursor was on the grid and bytes past the new one
// are a torn tail (or damage), left to the writer's cut. The cursor
// LoadMMR returns therefore always ends an intact frame of this log.
func LoadMMR(fs vfs.FS, dir, volume string) (*mmr.MMR, error) {
	dir = vfs.Clean(dir)
	b, err := readFile(fs, vfs.Join(dir, MMRStateName))
	if err != nil {
		return RebuildMMR(fs, dir, volume)
	}
	st, err := mmr.DecodeState(b)
	if err != nil {
		return RebuildMMR(fs, dir, volume)
	}
	m, err := mmr.Resume(st)
	if err != nil {
		return RebuildMMR(fs, dir, volume)
	}
	if err := catchUp(fs, dir, volume, m); err != nil {
		return RebuildMMR(fs, dir, volume)
	}
	if m.Cursor() == st.Cursor {
		if _, size, err := logSize(fs, dir); err != nil || size != st.Cursor {
			return RebuildMMR(fs, dir, volume)
		}
	}
	return m, nil
}

// logSize lists a volume's log files and sums their sizes.
func logSize(fs vfs.FS, dir string) ([]string, int64, error) {
	files, err := LogFiles(fs, dir)
	if err != nil {
		return nil, 0, err
	}
	var total int64
	for _, path := range files {
		st, err := fs.Stat(path)
		if err != nil {
			return nil, 0, err
		}
		total += st.Size
	}
	return files, total, nil
}

// SaveMMR persists a peak-file snapshot atomically (tmp + rename).
func SaveMMR(fs vfs.FS, dir string, st mmr.State) error {
	dir = vfs.Clean(dir)
	tmp := vfs.Join(dir, "tmp-"+MMRStateName)
	f, err := fs.Open(tmp, vfs.OCreate|vfs.ORdWr|vfs.OTrunc)
	if err != nil {
		return err
	}
	if _, err := f.WriteAt(st.Encode(), 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp, vfs.Join(dir, MMRStateName))
}

// catchUp feeds every frame from m's cursor to the log end. The global
// cursor is mapped back to a file position by walking the files in
// ingest order and accumulating sizes; a cursor past the log end (a peak
// file from some other log, or a log that lost bytes) is an error.
func catchUp(fs vfs.FS, dir, volume string, m *mmr.MMR) error {
	dir = vfs.Clean(dir)
	files, err := LogFiles(fs, dir)
	if err != nil {
		return err
	}
	cursor := m.Cursor()
	base := int64(0)
	for i, path := range files {
		st, err := fs.Stat(path)
		if err != nil {
			return err
		}
		fileEnd := base + st.Size
		if cursor > fileEnd {
			base = fileEnd
			continue
		}
		gbase := base
		end, err := scanFramesFrom(fs, path, cursor-base, func(off int64, body []byte) error {
			feedFrame(m, volume, gbase+off, body)
			return nil
		})
		if errors.Is(err, ErrTorn) {
			if i == len(files)-1 {
				m.Advance(base + end)
				return nil // torn active tail: normal post-crash state
			}
			return fmt.Errorf("provlog: rotated log %s: %w", path, err)
		}
		if err != nil {
			return err
		}
		m.Advance(base + end)
		cursor = base + end
		base = fileEnd
	}
	if total := base; cursor > total {
		return fmt.Errorf("provlog: MMR cursor %d past the log end %d", cursor, total)
	}
	return nil
}

// TailFeeder drives a follower's MMR from the replicated byte stream.
// Chunks arrive by offset and may split frames arbitrarily; the feeder
// buffers the partial tail, hashes each completed record frame, and
// refuses gaps, corrupt frames and — via Poison, once the server detects
// a root divergence — everything after a fork.
type TailFeeder struct {
	mu       sync.Mutex
	m        *mmr.MMR
	volume   string
	cursor   int64  // global offset of the first byte in pending
	pending  []byte // partial frame bytes past cursor
	poisoned error
}

// NewTailFeeder wraps an MMR whose cursor sits at the durable log end;
// pending carries any partial trailing frame already on disk.
func NewTailFeeder(m *mmr.MMR, volume string, pending []byte) *TailFeeder {
	return &TailFeeder{
		m:       m,
		volume:  volume,
		cursor:  m.Cursor(),
		pending: append([]byte(nil), pending...),
	}
}

// LoadFeeder rebuilds a follower's full-mode MMR from its log and
// initializes the feeder, including the partial trailing frame a
// mid-frame replication chunk may have left behind.
func LoadFeeder(fs vfs.FS, dir, volume string) (*TailFeeder, error) {
	dir = vfs.Clean(dir)
	m, err := RebuildMMR(fs, dir, volume)
	if err != nil {
		return nil, err
	}
	// Any bytes past the MMR cursor are a partial frame at the very end
	// of the last file (catchUp rejects gaps anywhere else).
	var pending []byte
	files, total, err := logSize(fs, dir)
	if err != nil {
		return nil, err
	}
	if cur := m.Cursor(); cur < total {
		if len(files) == 0 {
			return nil, fmt.Errorf("provlog: %d log bytes unaccounted for with no files", total-cur)
		}
		last := files[len(files)-1]
		f, err := fs.Open(last, vfs.ORdOnly)
		if err != nil {
			return nil, err
		}
		tail := total - cur
		if tail > f.Size() {
			f.Close()
			return nil, fmt.Errorf("provlog: torn bytes span a rotated log boundary")
		}
		pending = make([]byte, tail)
		if _, err := f.ReadAt(pending, f.Size()-tail); err != nil {
			f.Close()
			return nil, err
		}
		f.Close()
	}
	return NewTailFeeder(m, volume, pending), nil
}

// MMR returns the feeder's underlying range.
func (t *TailFeeder) MMR() *mmr.MMR { return t.m }

// RootAt answers the root over the first n leaves (the primary attaches
// its own answer to each chunk; comparing the two is the fork check).
func (t *TailFeeder) RootAt(n uint64) (mmr.Hash, error) { return t.m.RootAt(n) }

// Expected reports the global offset the next chunk must start at or
// before: everything through it has been fed. A chunk starting past it
// is a stream gap — the server lets the durable log refuse it so the
// primary backfills, rather than calling it a fork.
func (t *TailFeeder) Expected() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cursor + int64(len(t.pending))
}

// Poison permanently fails the feeder: after a detected fork the
// follower's in-memory range may already hold diverged leaves, so
// continuing to feed would hide the divergence.
func (t *TailFeeder) Poison(err error) {
	t.mu.Lock()
	t.poisoned = err
	t.mu.Unlock()
}

// Feed consumes one replicated chunk at global offset off. Replayed
// bytes (retransmissions after a reconnect) are skipped; a chunk past
// the expected offset is a gap error; frames whose CRC fails poison the
// feeder — the stream delivered bytes the primary never wrote.
func (t *TailFeeder) Feed(off int64, p []byte) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.poisoned != nil {
		return t.poisoned
	}
	expected := t.cursor + int64(len(t.pending))
	end := off + int64(len(p))
	if end <= expected {
		return nil
	}
	if off > expected {
		return fmt.Errorf("provlog: feeder gap: chunk at %d but fed through %d", off, expected)
	}
	t.pending = append(t.pending, p[expected-off:]...)
	for {
		if len(t.pending) < 4 {
			return nil
		}
		n := int(binary.LittleEndian.Uint32(t.pending))
		if n < 1 {
			t.poisoned = fmt.Errorf("provlog: corrupt frame length at offset %d", t.cursor)
			return t.poisoned
		}
		if len(t.pending) < 4+n+4 {
			return nil
		}
		body := t.pending[4 : 4+n]
		sum := binary.LittleEndian.Uint32(t.pending[4+n:])
		if crc32.ChecksumIEEE(body) != sum {
			t.poisoned = fmt.Errorf("provlog: corrupt frame at offset %d", t.cursor)
			return t.poisoned
		}
		feedFrame(t.m, t.volume, t.cursor, body)
		t.cursor += int64(4 + n + 4)
		t.pending = t.pending[4+n+4:]
	}
}

func readFile(fs vfs.FS, path string) ([]byte, error) {
	f, err := fs.Open(path, vfs.ORdOnly)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	b := make([]byte, f.Size())
	if len(b) == 0 {
		return b, nil
	}
	if _, err := f.ReadAt(b, 0); err != nil {
		return nil, err
	}
	return b, nil
}
