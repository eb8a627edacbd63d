package waldo

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"passv2/internal/lasagna"
	"passv2/internal/pnode"
	"passv2/internal/provlog"
	"passv2/internal/record"
	"passv2/internal/vfs"
)

// newBufferedVolume builds a volume whose log write-behind buffer is large
// enough that nothing reaches the lower FS until Drain's flush — useful
// for controlling exactly which bytes each drain sees.
func newBufferedVolume(t *testing.T, maxLog int64) (*lasagna.FS, *vfs.MemFS) {
	t.Helper()
	lower := vfs.NewMemFS("lower", nil)
	fs, err := lasagna.New("vol", lasagna.Config{Lower: lower, VolumeID: 1, MaxLogSize: maxLog, LogBuffer: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	return fs, lower
}

// TestDrainProportionalWork pins the fast path's contract: the entries a
// drain decodes equal the entries appended since the previous drain, not
// the total log size. The seed implementation skipped already-seen entries
// but still decoded every one on every drain.
func TestDrainProportionalWork(t *testing.T) {
	vol, _ := newBufferedVolume(t, 2048)
	w := New()
	w.Attach(vol)

	appendN := func(lo, n int) {
		for i := lo; i < lo+n; i++ {
			vol.AppendProvenance([]record.Record{record.Input(ref(uint64(i+1), 1), ref(9999, 1))})
		}
	}

	appendN(0, 500)
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := w.EntriesDecoded(); got != 500 {
		t.Fatalf("cold drain decoded %d entries, want 500", got)
	}

	appendN(500, 7)
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := w.EntriesDecoded() - 500; got != 7 {
		t.Fatalf("incremental drain decoded %d entries, want 7", got)
	}

	// Nothing new: a drain must decode nothing.
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := w.EntriesDecoded() - 507; got != 0 {
		t.Fatalf("idle drain decoded %d entries, want 0", got)
	}
	recs, _, _ := w.DB.Stats()
	if recs != 507 {
		t.Fatalf("ingested %d records, want 507", recs)
	}
}

// TestTornTailResume crashes a log mid-frame, drains (which must ingest
// the intact prefix and record the torn offset), then repairs the tail the
// way recovery does — truncating the torn frame and appending fresh
// entries — and verifies the next drain resumes exactly at the recorded
// offset without re-applying or losing anything.
func TestTornTailResume(t *testing.T) {
	lower := vfs.NewMemFS("lower", nil)
	log, err := provlog.NewWriter(lower, "/.prov", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := log.AppendRecord(0, record.Input(ref(uint64(i+1), 1), ref(500, 1))); err != nil {
			t.Fatal(err)
		}
	}
	intact := log.Size()
	// Tear the tail: half a frame of garbage past the last intact entry.
	f, err := lower.Open("/.prov/"+provlog.CurrentName, vfs.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad}, intact); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w := New()
	w.Attach(&logVolume{name: "torn", lower: lower, log: log})
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	recs, _, _ := w.DB.Stats()
	if recs != 10 {
		t.Fatalf("drain over torn tail ingested %d records, want 10", recs)
	}

	// Repair: truncate the torn frame (what recovery does) and keep
	// appending. The writer still believes size == intact, so appends
	// land at the recorded resume offset.
	f, _ = lower.Open("/.prov/"+provlog.CurrentName, vfs.ORdWr)
	if err := f.Truncate(intact); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for i := 10; i < 15; i++ {
		if err := log.AppendRecord(0, record.Input(ref(uint64(i+1), 1), ref(500, 1))); err != nil {
			t.Fatal(err)
		}
	}
	before := w.EntriesDecoded()
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := w.EntriesDecoded() - before; got != 5 {
		t.Fatalf("post-repair drain decoded %d entries, want 5 (resume at torn offset)", got)
	}
	recs, _, _ = w.DB.Stats()
	if recs != 15 {
		t.Fatalf("ingested %d records after repair, want 15", recs)
	}
}

// logVolume adapts a bare provlog.Writer to the Volume interface for tests
// that need byte-level control over the log file.
type logVolume struct {
	name  string
	lower vfs.FS
	log   *provlog.Writer
}

func (v *logVolume) FSName() string       { return v.name }
func (v *logVolume) Lower() vfs.FS        { return v.lower }
func (v *logVolume) Log() *provlog.Writer { return v.log }

// TestRotationMidTail interleaves drains with rotations: entries ingested
// from log.current must stay accounted for after the file is renamed into
// the sequence, and entries appended after the rotation must all arrive.
func TestRotationMidTail(t *testing.T) {
	vol, _ := newBufferedVolume(t, 0) // rotate manually
	w := New()
	w.Attach(vol)

	total := 0
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			vol.AppendProvenance([]record.Record{record.Input(ref(uint64(total+1), 1), ref(9999, 1))})
			total++
		}
	}

	appendN(20)
	if err := w.Drain(); err != nil { // mid-file drain of log.current
		t.Fatal(err)
	}
	appendN(10)
	if err := vol.Log().Rotate(); err != nil { // now log.00000000
		t.Fatal(err)
	}
	appendN(15) // lands in the new log.current
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	appendN(5)
	if err := vol.Log().Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}

	recs, _, _ := w.DB.Stats()
	if recs != int64(total) {
		t.Fatalf("ingested %d records across rotations, want %d", recs, total)
	}
	// The renamed file's bytes were never re-decoded: only new entries.
	if got := w.EntriesDecoded(); got != int64(total) {
		t.Fatalf("decoded %d entries, want %d (rotation must not rescan)", got, total)
	}
}

// TestConcurrentDrainAndQueries hammers one Waldo database from two
// draining volumes and several query readers at once; run under -race this
// is the ingestion path's concurrency contract.
func TestConcurrentDrainAndQueries(t *testing.T) {
	w := New()
	vols := make([]*lasagna.FS, 3)
	for i := range vols {
		lower := vfs.NewMemFS(fmt.Sprintf("lower%d", i), nil)
		vol, err := lasagna.New(fmt.Sprintf("vol%d", i), lasagna.Config{Lower: lower, VolumeID: uint16(i + 1), MaxLogSize: 4096, LogBuffer: 1024})
		if err != nil {
			t.Fatal(err)
		}
		vols[i] = vol
		w.Attach(vol)
	}

	const perVol = 400
	var wg sync.WaitGroup
	for vi, vol := range vols {
		vi, vol := vi, vol
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perVol; i++ {
				vol.AppendProvenance([]record.Record{
					record.Input(ref(uint64(vi*10000+i+1), 1), ref(7777, 1)),
					record.New(ref(uint64(vi*10000+i+1), 1), record.AttrName, record.StringVal(fmt.Sprintf("/f%d", i))),
				})
				if i%50 == 0 {
					if err := w.Drain(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w.DB.Inputs(ref(uint64(i+1), 1))
				w.DB.NameOf(pnode.PNode(i + 1))
				w.DB.TypeOf(pnode.PNode(i + 1))
				w.DB.Versions(pnode.PNode(i + 1))
			}
		}()
	}
	wg.Wait()
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	recs, _, _ := w.DB.Stats()
	if want := int64(len(vols) * perVol * 2); recs != want {
		t.Fatalf("ingested %d records, want %d", recs, want)
	}
}

// TestApplyBatchMatchesApply feeds the same stream through per-record
// Apply and through one ApplyBatch and checks the databases are
// indistinguishable to the query surface.
func TestApplyBatchMatchesApply(t *testing.T) {
	var recs []record.Record
	for i := 0; i < 60; i++ {
		subj := ref(uint64(i%7+1), uint32(i%3+1))
		recs = append(recs,
			record.Input(subj, ref(uint64(i%5+100), 1)),
			record.New(subj, record.AttrName, record.StringVal(fmt.Sprintf("/n%d", i%7))),
			record.New(subj, record.AttrType, record.StringVal(record.TypeFile)),
			record.New(subj, record.AttrArgv, record.Int(int64(i))),
		)
	}
	one, batch := NewDB(), NewDB()
	for _, r := range recs {
		one.Apply(r)
	}
	batch.ApplyBatch(recs)

	r1, p1, i1 := one.Stats()
	r2, p2, i2 := batch.Stats()
	if r1 != r2 || p1 != p2 || i1 != i2 {
		t.Fatalf("stats diverge: Apply (%d,%d,%d) vs ApplyBatch (%d,%d,%d)", r1, p1, i1, r2, p2, i2)
	}
	var b1, b2 bytes.Buffer
	if err := one.Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := batch.Save(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("snapshots diverge between Apply and ApplyBatch")
	}
	for pn := uint64(1); pn <= 7; pn++ {
		n1, ok1 := one.NameOf(pnode.PNode(pn))
		n2, ok2 := batch.NameOf(pnode.PNode(pn))
		if n1 != n2 || ok1 != ok2 {
			t.Fatalf("NameOf(%d): %q/%v vs %q/%v", pn, n1, ok1, n2, ok2)
		}
	}
}

// TestTypeOfNameOfTargeted is the regression test for the reverse label
// indexes: point lookups must return the same answers the old full scans
// did, including "most recent version wins" and out-of-order application.
func TestTypeOfNameOfTargeted(t *testing.T) {
	db := NewDB()
	for pn := uint64(1); pn <= 50; pn++ {
		db.Apply(record.New(ref(pn, 1), record.AttrType, record.StringVal(record.TypeFile)))
		db.Apply(record.New(ref(pn, 1), record.AttrName, record.StringVal(fmt.Sprintf("/old%d", pn))))
	}
	// pnode 7 is renamed at version 3; version 2's name arrives *after*
	// version 3's (out-of-order application must not regress the answer).
	db.Apply(record.New(ref(7, 3), record.AttrName, record.StringVal("/newest")))
	db.Apply(record.New(ref(7, 2), record.AttrName, record.StringVal("/middle")))

	if typ, ok := db.TypeOf(30); !ok || typ != record.TypeFile {
		t.Fatalf("TypeOf(30) = %q,%v", typ, ok)
	}
	if _, ok := db.TypeOf(999); ok {
		t.Fatal("TypeOf(999) found a type for an unknown pnode")
	}
	if name, ok := db.NameOf(7); !ok || name != "/newest" {
		t.Fatalf("NameOf(7) = %q,%v, want /newest (highest version wins)", name, ok)
	}
	if name, ok := db.NameOf(12); !ok || name != "/old12" {
		t.Fatalf("NameOf(12) = %q,%v", name, ok)
	}
}

// TestPreIndexSnapshotRefused loads a snapshot stripped of the reverse
// indexes (what a pre-fast-path database file looks like) and checks both
// load paths fail closed, naming the remedy, instead of serving a database
// whose NameOf/TypeOf know nothing.
func TestPreIndexSnapshotRefused(t *testing.T) {
	db := NewDB()
	db.Apply(record.New(ref(4, 1), record.AttrType, record.StringVal(record.TypeProc)))
	db.Apply(record.New(ref(4, 1), record.AttrName, record.StringVal("/bin/sh")))
	db.Apply(record.New(ref(4, 2), record.AttrName, record.StringVal("/bin/bash")))
	for _, k := range append(db.kv.Keys("N|"), db.kv.Keys("T|")...) {
		db.kv.Delete(k)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	image := buf.Bytes()
	if _, err := Load(bytes.NewReader(image)); err == nil || !strings.Contains(err.Error(), "re-ingest") {
		t.Fatalf("Load of a stripped snapshot: %v, want a refusal naming re-ingest", err)
	}
	if _, err := LoadCheckpoint(image, 3, 0, 0); err == nil || !strings.Contains(err.Error(), "re-ingest") {
		t.Fatalf("LoadCheckpoint of a stripped snapshot: %v, want a refusal naming re-ingest", err)
	}
}
