// Package provlog implements Lasagna's on-disk provenance log (§5.6).
// PASSv2 writes all provenance records to a log rather than directly into
// databases (PASSv1's arrangement, which was neither flexible nor
// scalable); the user-level Waldo daemon later moves the provenance into a
// database and indexes it.
//
// The log enforces write-ahead provenance (WAP), analogous to database
// write-ahead logging: all provenance records reach the log before the
// data they describe reaches the lower file system, so unprovenanced data
// can never exist on disk. Data entries carry MD5 checksums; after a
// crash, recovery compares them against the lower file system to identify
// precisely the data being written at crash time.
//
// Entry framing: u32 little-endian length, u8 type, payload, u32 CRC-32
// (IEEE) over type+payload. A torn final entry (short frame or bad CRC)
// marks the crash point; everything before it is trusted.
package provlog

import (
	"crypto/md5"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"passv2/internal/mmr"
	"passv2/internal/pnode"
	"passv2/internal/record"
	"passv2/internal/vfs"
)

// Entry types.
type EntryType uint8

const (
	// EntryRecord carries one provenance record, tagged with the NFS
	// transaction it belongs to (0 = none).
	EntryRecord EntryType = 1
	// EntryData describes a data write: which object version, where, how
	// long, and the MD5 of the bytes. Written after the records that
	// describe the data and before the data itself (WAP).
	EntryData EntryType = 2
	// EntryBeginTxn / EntryEndTxn delimit an NFS provenance transaction
	// (§6.1.2). Waldo discards records of transactions that never end —
	// the orphaned provenance of a crashed client.
	EntryBeginTxn EntryType = 3
	EntryEndTxn   EntryType = 4
)

// Entry is one decoded log entry.
type Entry struct {
	Type EntryType
	Txn  uint64        // EntryRecord, EntryBeginTxn, EntryEndTxn
	Rec  record.Record // EntryRecord
	Data DataDesc      // EntryData
}

// DataDesc describes one data write covered by WAP.
type DataDesc struct {
	Ref pnode.Ref
	Off int64
	Len int32
	MD5 [md5.Size]byte
}

// ErrTorn reports a truncated or corrupt log tail.
var ErrTorn = errors.New("provlog: torn log tail")

// CurrentName is the active log file name inside the log directory.
const CurrentName = "log.current"

// Writer appends entries to the active log on a lower file system,
// rotating it when it exceeds MaxSize. Rotated logs are named log.NNNNNNNN
// in sequence order. It is safe for concurrent use.
type Writer struct {
	fs  vfs.FS
	dir string

	// MaxSize triggers rotation; 0 means never rotate by size.
	MaxSize int64

	mu       sync.Mutex
	f        vfs.File
	size     int64
	seq      uint64
	buf      []byte      // write-behind buffer (page cache for the log)
	bufSize  int         // 0 = write-through
	noRotate string      // non-empty: rotation refused, with this reason
	notify   chan string // rotated file paths for Waldo (simulated inotify)

	// Tamper evidence (DESIGN.md §13): every appended record frame also
	// becomes an MMR leaf keyed by its global byte offset — the offset in
	// the whole log stream, stable across rotation because globalBase
	// accumulates the rotated files' sizes.
	mmr        *mmr.MMR
	mmrVol     string
	globalBase int64
}

// NewWriter opens (creating if needed) the log directory and active log.
// The notify channel (capacity 64) announces rotated log paths.
func NewWriter(fs vfs.FS, dir string, maxSize int64) (*Writer, error) {
	dir = vfs.Clean(dir)
	if err := fs.MkdirAll(dir); err != nil && !errors.Is(err, vfs.ErrExist) {
		return nil, err
	}
	w := &Writer{fs: fs, dir: dir, MaxSize: maxSize, notify: make(chan string, 64)}
	// Resume the sequence after any existing rotated logs.
	ents, err := fs.ReadDir(dir)
	if err == nil {
		for _, e := range ents {
			var n uint64
			if _, serr := fmt.Sscanf(e.Name, "log.%08d", &n); serr == nil {
				if n >= w.seq {
					w.seq = n + 1
				}
				if st, serr := fs.Stat(vfs.Join(dir, e.Name)); serr == nil {
					w.globalBase += st.Size
				}
			}
		}
	}
	f, err := fs.Open(vfs.Join(dir, CurrentName), vfs.OCreate|vfs.ORdWr)
	if err != nil {
		return nil, err
	}
	w.f = f
	w.size = f.Size()
	return w, nil
}

// CutTornTail cuts a torn final frame off the active log. A crash
// mid-append leaves one at the end of the log; a frame appended after it
// would sit where no scan reaches, so a writer that appends cuts first.
// The torn bytes were never synced, so no acknowledged entry goes with
// them. A bad frame is torn only if no intact frame starts anywhere after
// it: a bad frame with an intact one behind it is damage, not a crash
// (a flipped bit in a length or a body), and is left in place, for
// AttachMMR to refuse and the operator to see. from is a global log
// offset known to start a frame (an MMR cursor, a checkpointed offset,
// or 0); the scan starts there. Call it before the first append.
func (w *Writer) CutTornTail(from int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.buf) > 0 {
		return errors.New("provlog: torn-tail cut after an append")
	}
	off := from - w.globalBase
	if off < 0 || off > w.size {
		off = 0
	}
	end, err := scanFramesFrom(w.fs, vfs.Join(w.dir, CurrentName), off, func(int64, []byte) error { return nil })
	if !errors.Is(err, ErrTorn) {
		return err
	}
	rest := make([]byte, w.size-end)
	if _, err := w.f.ReadAt(rest, end); err != nil {
		return err
	}
	if frameStartsIn(rest[1:]) {
		return nil
	}
	if err := w.f.Truncate(end); err != nil {
		return err
	}
	w.size = end
	return w.f.Sync()
}

// frameStartsIn reports whether an intact frame (length, body, matching
// CRC) starts at any byte of b.
func frameStartsIn(b []byte) bool {
	for q := 0; q+9 <= len(b); q++ {
		n := int(binary.LittleEndian.Uint32(b[q:]))
		if n >= 1 && n <= len(b)-q-8 && crc32.ChecksumIEEE(b[q+4:q+4+n]) == binary.LittleEndian.Uint32(b[q+4+n:]) {
			return true
		}
	}
	return false
}

// Close flushes buffered entries and closes the active log. The writer
// must not be used afterwards.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return errors.Join(w.flushLocked(), w.f.Close())
}

// Notify returns the rotation notification channel.
func (w *Writer) Notify() <-chan string { return w.notify }

// Dir returns the log directory path on the lower FS.
func (w *Writer) Dir() string { return w.dir }

func frame(t EntryType, payload []byte) []byte {
	body := make([]byte, 0, 1+len(payload))
	body = append(body, byte(t))
	body = append(body, payload...)
	out := make([]byte, 0, 8+len(body))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
	out = append(out, body...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	return out
}

// SetBuffer enables write-behind buffering: appended entries accumulate in
// memory and reach the lower file system when n bytes are pending (or on
// Flush/rotation). Like the kernel page cache over the paper's log, this
// batches the log's disk traffic; WAP ordering within the log is
// unaffected because entries flush in append order.
func (w *Writer) SetBuffer(n int) {
	w.mu.Lock()
	w.bufSize = n
	w.mu.Unlock()
}

// Flush forces buffered entries to the lower file system.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

// Sync flushes buffered entries and fsyncs the active log file: after Sync
// returns, every appended entry survives not just a process kill but an OS
// crash or power loss. The passd append verb calls it before acknowledging
// — it is the durability point of the wire contract.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.flushLocked(); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *Writer) flushLocked() error {
	if len(w.buf) == 0 {
		return nil
	}
	if _, err := w.f.WriteAt(w.buf, w.size); err != nil {
		return err
	}
	w.size += int64(len(w.buf))
	w.buf = w.buf[:0]
	return nil
}

func (w *Writer) append(t EntryType, payload []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	start := w.globalBase + w.size + int64(len(w.buf))
	frame := frame(t, payload)
	if w.bufSize > 0 {
		w.buf = append(w.buf, frame...)
		if len(w.buf) >= w.bufSize {
			if err := w.flushLocked(); err != nil {
				return err
			}
		}
	} else {
		if _, err := w.f.WriteAt(frame, w.size); err != nil {
			return err
		}
		w.size += int64(len(frame))
	}
	if w.mmr != nil {
		feedFrame(w.mmr, w.mmrVol, start, frame[4:4+1+len(payload)])
	}
	if w.MaxSize > 0 && w.size+int64(len(w.buf)) >= w.MaxSize {
		return w.rotateLocked()
	}
	return nil
}

// AppendRecord logs one provenance record under transaction txn (0=none).
func (w *Writer) AppendRecord(txn uint64, r record.Record) error {
	payload := binary.AppendUvarint(nil, txn)
	payload = record.AppendRecord(payload, r)
	return w.append(EntryRecord, payload)
}

// AppendRecords logs recs in order outside any transaction, one frame and
// one lock hold per record, stopping at the first error. It is the shape
// of passd.Config.Append: staging only, durability is Sync's job.
func (w *Writer) AppendRecords(recs []record.Record) error {
	for _, r := range recs {
		if err := w.AppendRecord(0, r); err != nil {
			return err
		}
	}
	return nil
}

// AppendBundle logs a bundle's records in order, under one transaction.
func (w *Writer) AppendBundle(txn uint64, b *record.Bundle) error {
	if b == nil {
		return nil
	}
	for _, r := range b.Records {
		if err := w.AppendRecord(txn, r); err != nil {
			return err
		}
	}
	return nil
}

// AppendData logs a WAP data descriptor for an impending write.
func (w *Writer) AppendData(ref pnode.Ref, off int64, data []byte) error {
	d := DataDesc{Ref: ref, Off: off, Len: int32(len(data)), MD5: md5.Sum(data)}
	return w.append(EntryData, encodeData(d))
}

// AppendBeginTxn / AppendEndTxn delimit an NFS transaction.
func (w *Writer) AppendBeginTxn(txn uint64) error {
	return w.append(EntryBeginTxn, binary.LittleEndian.AppendUint64(nil, txn))
}

// AppendEndTxn closes a transaction. The entry is flushed through to the
// lower file system immediately: a transaction whose ENDTXN is lost would
// be discarded as an orphan even though its pass_write completed.
func (w *Writer) AppendEndTxn(txn uint64) error {
	if err := w.append(EntryEndTxn, binary.LittleEndian.AppendUint64(nil, txn)); err != nil {
		return err
	}
	return w.Flush()
}

// DisableRotation pins the active log: Rotate (and the MaxSize trigger,
// which callers that pin should leave at 0) returns an error naming the
// reason instead of renaming log.current. A replicating daemon pins its
// log because followers mirror log.current by byte offset — renaming it
// out from under the replication stream would restart offsets at zero
// and silently fork every replica.
func (w *Writer) DisableRotation(reason string) {
	w.mu.Lock()
	w.noRotate = reason
	w.mu.Unlock()
}

// Rotate closes the active log, renames it into the sequence and starts a
// new one, notifying Waldo.
func (w *Writer) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rotateLocked()
}

func (w *Writer) rotateLocked() error {
	if w.noRotate != "" {
		return fmt.Errorf("provlog: rotation disabled: %s", w.noRotate)
	}
	if err := w.flushLocked(); err != nil {
		return err
	}
	if w.size == 0 {
		return nil
	}
	if err := w.f.Close(); err != nil {
		return err
	}
	name := fmt.Sprintf("log.%08d", w.seq)
	w.seq++
	rotated := vfs.Join(w.dir, name)
	if err := w.fs.Rename(vfs.Join(w.dir, CurrentName), rotated); err != nil {
		return err
	}
	f, err := w.fs.Open(vfs.Join(w.dir, CurrentName), vfs.OCreate|vfs.ORdWr)
	if err != nil {
		return err
	}
	w.f = f
	w.globalBase += w.size // global offsets are stable across the rename
	w.size = 0
	select {
	case w.notify <- rotated:
	default: // Waldo is behind; it scans the directory anyway.
	}
	return nil
}

// Size returns the active log's size in bytes, including buffered entries.
func (w *Writer) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size + int64(len(w.buf))
}

// CurrentSeq returns the sequence number the active log will receive when
// it is rotated. Waldo uses it as a stable identity for incremental
// tailing: entries seen in log.current remain accounted for after the file
// is renamed to log.<seq>.
func (w *Writer) CurrentSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// ParseSeq extracts the rotation sequence from a log file name
// ("log.00000042" → 42). It returns false for the active log and for
// non-log names.
func ParseSeq(name string) (uint64, bool) {
	var n uint64
	if name == CurrentName {
		return 0, false
	}
	if _, err := fmt.Sscanf(name, "log.%08d", &n); err != nil {
		return 0, false
	}
	return n, true
}

func encodeData(d DataDesc) []byte {
	out := make([]byte, 0, 8+4+8+4+md5.Size)
	out = binary.LittleEndian.AppendUint64(out, uint64(d.Ref.PNode))
	out = binary.LittleEndian.AppendUint32(out, uint32(d.Ref.Version))
	out = binary.LittleEndian.AppendUint64(out, uint64(d.Off))
	out = binary.LittleEndian.AppendUint32(out, uint32(d.Len))
	out = append(out, d.MD5[:]...)
	return out
}

func decodeData(p []byte) (DataDesc, error) {
	if len(p) != 8+4+8+4+md5.Size {
		return DataDesc{}, fmt.Errorf("provlog: bad data entry length %d", len(p))
	}
	var d DataDesc
	d.Ref.PNode = pnode.PNode(binary.LittleEndian.Uint64(p))
	d.Ref.Version = pnode.Version(binary.LittleEndian.Uint32(p[8:]))
	d.Off = int64(binary.LittleEndian.Uint64(p[12:]))
	d.Len = int32(binary.LittleEndian.Uint32(p[20:]))
	copy(d.MD5[:], p[24:])
	return d, nil
}

// decodeEntry parses one framed entry body (type byte + payload).
func decodeEntry(body []byte) (Entry, error) {
	if len(body) < 1 {
		return Entry{}, ErrTorn
	}
	t := EntryType(body[0])
	payload := body[1:]
	switch t {
	case EntryRecord:
		txn, n := binary.Uvarint(payload)
		if n <= 0 {
			return Entry{}, fmt.Errorf("provlog: bad txn varint")
		}
		rec, _, err := record.DecodeRecord(payload[n:])
		if err != nil {
			return Entry{}, err
		}
		return Entry{Type: t, Txn: txn, Rec: rec}, nil
	case EntryData:
		d, err := decodeData(payload)
		if err != nil {
			return Entry{}, err
		}
		return Entry{Type: t, Data: d}, nil
	case EntryBeginTxn, EntryEndTxn:
		if len(payload) != 8 {
			return Entry{}, fmt.Errorf("provlog: bad txn entry")
		}
		return Entry{Type: t, Txn: binary.LittleEndian.Uint64(payload)}, nil
	default:
		return Entry{}, fmt.Errorf("provlog: unknown entry type %d", t)
	}
}

// ScanFile iterates the entries of one log file. It stops at a torn tail,
// returning ErrTorn (after delivering all intact entries) — the expected
// condition after a crash mid-append. fn may stop the scan by returning an
// error, which is passed through.
func ScanFile(fs vfs.FS, path string, fn func(Entry) error) error {
	_, err := ScanFileFrom(fs, path, 0, fn)
	return err
}

// ScanFileFrom iterates the entries of one log file starting at byte
// offset off, which must be a frame boundary: 0 or an offset previously
// returned by ScanFileFrom. Only the bytes at and after off are read, so a
// tail that records the returned offset does work proportional to the new
// bytes in the log, not its total size.
//
// The returned offset is the resume point for the next scan: after a clean
// scan it is the end of the last intact frame; with ErrTorn it is the start
// of the torn frame (all intact entries before it have been delivered);
// with an fn error it is the start of the entry fn rejected.
func ScanFileFrom(fs vfs.FS, path string, off int64, fn func(Entry) error) (int64, error) {
	return scanFramesFrom(fs, path, off, func(_ int64, body []byte) error {
		e, err := decodeEntry(body)
		if err != nil {
			return err
		}
		return fn(e)
	})
}

// scanFramesFrom is the raw-frame scan under ScanFileFrom: fn receives
// each intact frame's in-file start offset and its body (type byte +
// payload) without decoding. The MMR rebuild uses it because leaf hashes
// are defined over the framed bytes and their positions, not the decoded
// entries. Offset and error semantics match ScanFileFrom.
func scanFramesFrom(fs vfs.FS, path string, off int64, fn func(off int64, body []byte) error) (int64, error) {
	f, err := fs.Open(path, vfs.ORdOnly)
	if err != nil {
		return off, err
	}
	defer f.Close()
	size := f.Size()
	if off < 0 {
		return off, fmt.Errorf("provlog: negative scan offset %d", off)
	}
	if off >= size {
		return off, nil
	}
	data := make([]byte, size-off)
	n, err := f.ReadAt(data, off)
	if err != nil {
		return off, err
	}
	data = data[:n]
	pos := 0
	for pos < len(data) {
		if pos+4 > len(data) {
			return off + int64(pos), ErrTorn
		}
		n := int(binary.LittleEndian.Uint32(data[pos:]))
		if n < 1 || pos+4+n+4 > len(data) {
			return off + int64(pos), ErrTorn
		}
		body := data[pos+4 : pos+4+n]
		sum := binary.LittleEndian.Uint32(data[pos+4+n:])
		if crc32.ChecksumIEEE(body) != sum {
			return off + int64(pos), ErrTorn
		}
		if err := fn(off+int64(pos), body); err != nil {
			return off + int64(pos), err
		}
		pos += 4 + n + 4
	}
	return off + int64(pos), nil
}

// LogFiles lists a volume's log files in ingest order: rotated logs by
// sequence number, then the active log.
func LogFiles(fs vfs.FS, dir string) ([]string, error) {
	dir = vfs.Clean(dir)
	ents, err := fs.ReadDir(dir)
	if err != nil {
		if errors.Is(err, vfs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var rotated []string
	hasCurrent := false
	for _, e := range ents {
		switch {
		case e.Name == CurrentName:
			hasCurrent = true
		case len(e.Name) > 4 && e.Name[:4] == "log.":
			rotated = append(rotated, e.Name)
		}
	}
	sort.Strings(rotated)
	out := make([]string, 0, len(rotated)+1)
	for _, name := range rotated {
		out = append(out, vfs.Join(dir, name))
	}
	if hasCurrent {
		out = append(out, vfs.Join(dir, CurrentName))
	}
	return out, nil
}

// ScanAll iterates every entry across all of a volume's logs in order.
// Torn tails are tolerated only on the active log (a crash tears at most
// the last file); a torn rotated log is reported as corruption.
func ScanAll(fs vfs.FS, dir string, fn func(Entry) error) error {
	files, err := LogFiles(fs, dir)
	if err != nil {
		return err
	}
	for i, path := range files {
		err := ScanFile(fs, path, fn)
		if errors.Is(err, ErrTorn) {
			if i == len(files)-1 {
				return nil // torn active tail: normal post-crash state
			}
			return fmt.Errorf("provlog: rotated log %s: %w", path, err)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
