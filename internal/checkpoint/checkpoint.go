// Package checkpoint persists durable, crash-atomic checkpoints of the
// query stack's state — the restartability layer the paper's recovery
// story (§5.6/§6.1.2) stops short of. A Lasagna log is crash-safe, but the
// Waldo database above it is an in-memory tree: without checkpoints a
// daemon crash forces re-ingestion from byte zero of every volume log.
// A checkpoint makes restart work proportional to the log tail instead:
// it bundles a database snapshot with the per-volume provlog offsets (and
// open-transaction buffers) pinned on the same ApplyBatch boundary
// (waldo.Waldo.CheckpointState), so recovery loads the snapshot and
// resumes Drain from the recorded offsets, reading only bytes the
// checkpoint has not covered.
//
// On-disk layout, one generation per checkpoint (gen = the database's
// batch generation, monotonic across restarts via waldo.DB.RestoreGen):
//
//	ckpt-<gen16x>.db     full kvdb snapshot stream (waldo.ReadView.Save)
//	ckpt-<gen16x>.delta  delta stream against an earlier generation
//	                     (waldo.ReadView.SaveDelta) — O(changed keys)
//	ckpt-<gen16x>.meta   manifest: magic, gen, kind (full|delta), base
//	                     gen, record count, payload size+CRC, per-volume
//	                     offsets and pending transactions, optionally the
//	                     signed MMR root proofs (v3 magic, DESIGN.md §13),
//	                     trailing CRC-32 over the whole file
//
// A generation is either full (self-contained) or a delta whose manifest
// names the generation it applies on top of (BaseGen, always the
// immediately preceding generation). Chains are bounded by the write
// policy (Policy.FullEvery) and always terminate in a full generation.
//
// Commit protocol: both files are written to tmp- names, fsynced, and
// renamed into place — payload first, manifest last, directory synced
// after each rename. The manifest rename is the commit point: a crash
// anywhere earlier leaves at worst a stale tmp file or an orphaned
// payload, both invisible to recovery and collected by the next
// retention sweep. Load walks committed generations newest-first,
// composing each candidate's base+delta chain down to its full
// generation; any corrupt or torn link (bad magic, bad CRC, truncated
// payload, missing files, missing base) skips the whole candidate and
// recovery falls back toward the previous full generation, reporting
// everything it skipped per generation; it never serves a half-loaded
// database. Retention keeps whole chains: a base is never dropped while
// a retained delta still references it.
//
// The store works over any vfs.FS: a MemFS under the fault-injection
// wrapper (vfs.FaultFS) for the crash-equivalence sweep, a vfs.DirFS for
// the real daemon's on-disk checkpoints.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"

	"passv2/internal/record"
	"passv2/internal/waldo"
)

// metaMagic heads manifests without signed root proofs — still the
// format written when no signer is configured, so a v2 store stays
// byte-identical under a daemon that never enables tamper evidence.
var metaMagic = []byte("PASSCKPT2\n")

// metaMagicV3 heads manifests carrying signed MMR root proofs
// (DESIGN.md §13). Proofless v2 manifests still decode.
var metaMagicV3 = []byte("PASSCKPT3\n")

// ErrBadManifest reports an unreadable or corrupt manifest.
var ErrBadManifest = errors.New("checkpoint: bad manifest")

// Kind says how a generation's payload encodes the database.
type Kind uint8

const (
	// KindFull is a self-contained snapshot (ckpt-*.db).
	KindFull Kind = iota
	// KindDelta is a diff against the generation named by the manifest's
	// BaseGen (ckpt-*.delta).
	KindDelta
)

func (k Kind) String() string {
	switch k {
	case KindFull:
		return "full"
	case KindDelta:
		return "delta"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Proof is one signed MMR root statement embedded in a manifest: the
// daemon identified by DeviceID asserts that Volume's first Size provlog
// records hash to Root, as of this checkpoint at Timestamp (unix
// seconds). PubKey and Sig are opaque here — the checkpoint layer stores
// and round-trips them; cryptographic verification belongs to the
// VerifyProofs hook (wired by the daemon) and the offline verifier, so
// this package never imports the signer.
type Proof struct {
	Volume    string
	Size      uint64
	Root      [32]byte
	Timestamp uint64
	DeviceID  [16]byte
	PubKey    []byte
	Sig       []byte
}

// Manifest is the decoded form of a ckpt-*.meta file. Records, ProvBytes
// and IdxBytes are the pinned database counters: recovery seeds the loaded
// database with them (waldo.LoadCheckpoint) instead of recomputing them
// with full-store scans. For a delta generation they describe the state
// after the delta is applied, so a chain's head manifest alone seeds the
// composed database. Proofs, when present, are the generation's signed
// MMR root statements (one per tamper-evident volume) and force the v3
// magic; a manifest without proofs encodes exactly as v2 did.
type Manifest struct {
	Gen       int64
	Kind      Kind
	BaseGen   int64
	Records   int64
	ProvBytes int64
	IdxBytes  int64
	SnapSize  int64
	SnapCRC   uint32
	Volumes   []waldo.VolumeState
	Proofs    []Proof
}

// encodeManifest renders the manifest, including magic and trailing CRC.
func encodeManifest(m *Manifest) []byte {
	magic := metaMagic
	if len(m.Proofs) > 0 {
		magic = metaMagicV3
	}
	out := append([]byte(nil), magic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(m.Gen))
	out = append(out, byte(m.Kind))
	out = binary.LittleEndian.AppendUint64(out, uint64(m.BaseGen))
	out = binary.LittleEndian.AppendUint64(out, uint64(m.Records))
	out = binary.LittleEndian.AppendUint64(out, uint64(m.ProvBytes))
	out = binary.LittleEndian.AppendUint64(out, uint64(m.IdxBytes))
	out = binary.LittleEndian.AppendUint64(out, uint64(m.SnapSize))
	out = binary.LittleEndian.AppendUint32(out, m.SnapCRC)
	out = binary.AppendUvarint(out, uint64(len(m.Volumes)))
	for i := range m.Volumes {
		v := &m.Volumes[i]
		out = binary.AppendUvarint(out, uint64(len(v.Name)))
		out = append(out, v.Name...)
		out = binary.AppendUvarint(out, uint64(len(v.Offsets)))
		// Offsets sorted by sequence so the encoding is deterministic.
		seqs := make([]uint64, 0, len(v.Offsets))
		for seq := range v.Offsets {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			out = binary.LittleEndian.AppendUint64(out, seq)
			out = binary.LittleEndian.AppendUint64(out, uint64(v.Offsets[seq]))
		}
		out = binary.AppendUvarint(out, uint64(len(v.Pending)))
		for _, p := range v.Pending {
			out = binary.LittleEndian.AppendUint64(out, p.ID)
			out = binary.AppendUvarint(out, uint64(len(p.Records)))
			for _, r := range p.Records {
				out = record.AppendRecord(out, r)
			}
		}
	}
	if len(m.Proofs) > 0 {
		out = binary.AppendUvarint(out, uint64(len(m.Proofs)))
		for i := range m.Proofs {
			p := &m.Proofs[i]
			out = binary.AppendUvarint(out, uint64(len(p.Volume)))
			out = append(out, p.Volume...)
			out = binary.LittleEndian.AppendUint64(out, p.Size)
			out = append(out, p.Root[:]...)
			out = binary.LittleEndian.AppendUint64(out, p.Timestamp)
			out = append(out, p.DeviceID[:]...)
			out = binary.AppendUvarint(out, uint64(len(p.PubKey)))
			out = append(out, p.PubKey...)
			out = binary.AppendUvarint(out, uint64(len(p.Sig)))
			out = append(out, p.Sig...)
		}
	}
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// decodeManifest parses and validates a manifest file image, accepting
// the proof-bearing v3 format and the proofless v2 format.
func decodeManifest(data []byte) (*Manifest, error) {
	if len(data) < len(metaMagic)+4 {
		return nil, fmt.Errorf("%w: truncated (%d bytes)", ErrBadManifest, len(data))
	}
	var v3 bool
	switch string(data[:len(metaMagic)]) {
	case string(metaMagic):
	case string(metaMagicV3):
		v3 = true
	default:
		return nil, fmt.Errorf("%w: bad magic", ErrBadManifest)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrBadManifest)
	}
	d := &mdecoder{buf: body, off: len(metaMagic)}
	m := &Manifest{Gen: int64(d.u64())}
	m.Kind = Kind(d.u8())
	m.BaseGen = int64(d.u64())
	m.Records = int64(d.u64())
	m.ProvBytes = int64(d.u64())
	m.IdxBytes = int64(d.u64())
	m.SnapSize = int64(d.u64())
	m.SnapCRC = d.u32()
	switch {
	case d.err != nil:
	case m.Kind > KindDelta:
		return nil, fmt.Errorf("%w: unknown generation kind %d", ErrBadManifest, m.Kind)
	case m.Kind == KindDelta && m.BaseGen >= m.Gen:
		return nil, fmt.Errorf("%w: delta base gen %d not older than gen %d", ErrBadManifest, m.BaseGen, m.Gen)
	case m.Kind == KindFull && m.BaseGen != 0:
		return nil, fmt.Errorf("%w: full generation names base gen %d", ErrBadManifest, m.BaseGen)
	}
	nVols := d.uvarint()
	for i := uint64(0); i < nVols && d.err == nil; i++ {
		var v waldo.VolumeState
		v.Name = string(d.bytes(d.uvarint()))
		nOff := d.uvarint()
		v.Offsets = make(map[uint64]int64, nOff)
		for j := uint64(0); j < nOff && d.err == nil; j++ {
			seq := d.u64()
			v.Offsets[seq] = int64(d.u64())
		}
		nPend := d.uvarint()
		for j := uint64(0); j < nPend && d.err == nil; j++ {
			p := waldo.PendingTxn{ID: d.u64()}
			nRecs := d.uvarint()
			for k := uint64(0); k < nRecs && d.err == nil; k++ {
				rec, n, err := record.DecodeRecord(d.buf[d.off:])
				if err != nil {
					d.err = err
					break
				}
				d.off += n
				p.Records = append(p.Records, rec)
			}
			v.Pending = append(v.Pending, p)
		}
		m.Volumes = append(m.Volumes, v)
	}
	if v3 {
		nProofs := d.uvarint()
		if d.err == nil && nProofs == 0 {
			return nil, fmt.Errorf("%w: v3 manifest with no proofs", ErrBadManifest)
		}
		for i := uint64(0); i < nProofs && d.err == nil; i++ {
			var p Proof
			p.Volume = string(d.bytes(d.uvarint()))
			p.Size = d.u64()
			copy(p.Root[:], d.bytes(32))
			p.Timestamp = d.u64()
			copy(p.DeviceID[:], d.bytes(16))
			p.PubKey = append([]byte(nil), d.bytes(d.uvarint())...)
			p.Sig = append([]byte(nil), d.bytes(d.uvarint())...)
			m.Proofs = append(m.Proofs, p)
		}
	}
	if d.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, d.err)
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadManifest, len(body)-d.off)
	}
	return m, nil
}

// mdecoder is a tiny error-latching cursor over the manifest body.
type mdecoder struct {
	buf []byte
	off int
	err error
}

func (d *mdecoder) need(n int) bool {
	if d.err != nil || d.off+n > len(d.buf) {
		if d.err == nil {
			d.err = errors.New("short read")
		}
		return false
	}
	return true
}

func (d *mdecoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *mdecoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *mdecoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *mdecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.err = errors.New("bad varint")
		return 0
	}
	d.off += n
	return v
}

func (d *mdecoder) bytes(n uint64) []byte {
	if n > uint64(len(d.buf)) || !d.need(int(n)) {
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}
