package provlog

import (
	"crypto/md5"
	"errors"
	"fmt"
	"strings"
	"testing"

	"passv2/internal/pnode"
	"passv2/internal/record"
	"passv2/internal/vfs"
)

func ref(p uint64, v uint32) pnode.Ref {
	return pnode.Ref{PNode: pnode.PNode(p), Version: pnode.Version(v)}
}

func newLog(t *testing.T) (*Writer, *vfs.MemFS) {
	t.Helper()
	fs := vfs.NewMemFS("lower", nil)
	w, err := NewWriter(fs, "/.prov", 0)
	if err != nil {
		t.Fatal(err)
	}
	return w, fs
}

func scan(t *testing.T, fs vfs.FS, dir string) []Entry {
	t.Helper()
	var out []Entry
	if err := ScanAll(fs, dir, func(e Entry) error {
		out = append(out, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendAndScanRoundTrip(t *testing.T) {
	w, fs := newLog(t)
	r1 := record.Input(ref(3, 1), ref(2, 1))
	r2 := record.New(ref(3, 1), record.AttrName, record.StringVal("/out"))
	if err := w.AppendRecord(0, r1); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBundle(7, record.NewBundle(r2)); err != nil {
		t.Fatal(err)
	}
	data := []byte("the payload")
	if err := w.AppendData(ref(3, 1), 42, data); err != nil {
		t.Fatal(err)
	}
	w.AppendBeginTxn(9)
	w.AppendEndTxn(9)

	ents := scan(t, fs, "/.prov")
	if len(ents) != 5 {
		t.Fatalf("got %d entries", len(ents))
	}
	if ents[0].Type != EntryRecord || !ents[0].Rec.Equal(r1) || ents[0].Txn != 0 {
		t.Fatalf("entry0 = %+v", ents[0])
	}
	if ents[1].Txn != 7 || !ents[1].Rec.Equal(r2) {
		t.Fatalf("entry1 = %+v", ents[1])
	}
	d := ents[2].Data
	if d.Ref != ref(3, 1) || d.Off != 42 || int(d.Len) != len(data) || d.MD5 != md5.Sum(data) {
		t.Fatalf("data desc = %+v", d)
	}
	if ents[3].Type != EntryBeginTxn || ents[3].Txn != 9 {
		t.Fatalf("entry3 = %+v", ents[3])
	}
	if ents[4].Type != EntryEndTxn || ents[4].Txn != 9 {
		t.Fatalf("entry4 = %+v", ents[4])
	}
}

func TestRotationBySize(t *testing.T) {
	fs := vfs.NewMemFS("lower", nil)
	w, err := NewWriter(fs, "/.prov", 256)
	if err != nil {
		t.Fatal(err)
	}
	var want []record.Record
	for i := 0; i < 50; i++ {
		r := record.Input(ref(uint64(i+1), 1), ref(999, 1))
		want = append(want, r)
		if err := w.AppendRecord(0, r); err != nil {
			t.Fatal(err)
		}
	}
	files, err := LogFiles(fs, "/.prov")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("expected several rotated logs, got %v", files)
	}
	// Rotation notifications fired.
	select {
	case <-w.Notify():
	default:
		t.Fatal("no rotation notification")
	}
	// All records survive across rotation, in order.
	ents := scan(t, fs, "/.prov")
	var got []record.Record
	for _, e := range ents {
		if e.Type == EntryRecord {
			got = append(got, e.Rec)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("record %d reordered", i)
		}
	}
}

func TestManualRotateAndSeqResume(t *testing.T) {
	fs := vfs.NewMemFS("lower", nil)
	w, _ := NewWriter(fs, "/.prov", 0)
	w.AppendRecord(0, record.Input(ref(1, 1), ref(2, 1)))
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if w.Size() != 0 {
		t.Fatal("size must reset after rotate")
	}
	// Empty rotate is a no-op.
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	w.AppendRecord(0, record.Input(ref(3, 1), ref(4, 1)))

	// A new writer over the same directory resumes the sequence.
	w2, err := NewWriter(fs, "/.prov", 0)
	if err != nil {
		t.Fatal(err)
	}
	w2.AppendRecord(0, record.Input(ref(5, 1), ref(6, 1)))
	w2.Rotate()
	files, _ := LogFiles(fs, "/.prov")
	// log.00000000 (first rotate), log.00000001 (second), log.current.
	if len(files) != 3 {
		t.Fatalf("files = %v", files)
	}
	if got := len(scan(t, fs, "/.prov")); got != 3 {
		t.Fatalf("scan found %d records", got)
	}
}

func TestTornTailDetected(t *testing.T) {
	w, fs := newLog(t)
	w.AppendRecord(0, record.Input(ref(1, 1), ref(2, 1)))
	w.AppendRecord(0, record.Input(ref(3, 1), ref(4, 1)))
	// Corrupt the tail: truncate mid-entry.
	path := "/.prov/" + CurrentName
	f, err := fs.Open(path, vfs.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	f.Truncate(f.Size() - 3)
	f.Close()

	var got []Entry
	err = ScanFile(fs, path, func(e Entry) error {
		got = append(got, e)
		return nil
	})
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("want ErrTorn, got %v", err)
	}
	if len(got) != 1 {
		t.Fatalf("intact prefix = %d entries, want 1", len(got))
	}
	// ScanAll tolerates a torn active tail.
	if err := ScanAll(fs, "/.prov", func(Entry) error { return nil }); err != nil {
		t.Fatalf("ScanAll over torn tail: %v", err)
	}
}

// TestCutTornTailResumesAfterIntactPrefix: a writer reopened over a
// torn tail cuts it, so entries it appends next are scanned, and a scan
// hint at or past the log end still finds the tear.
func TestCutTornTailResumesAfterIntactPrefix(t *testing.T) {
	for _, from := range []int64{0, 1 << 20} {
		w, fs := newLog(t)
		w.AppendRecord(0, record.Input(ref(1, 1), ref(2, 1)))
		w.AppendRecord(0, record.Input(ref(3, 1), ref(4, 1)))
		intact := w.Size()
		w.AppendRecord(0, record.Input(ref(5, 1), ref(6, 1)))
		f, err := fs.Open("/.prov/"+CurrentName, vfs.ORdWr)
		if err != nil {
			t.Fatal(err)
		}
		f.Truncate(intact + 7)
		f.Close()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		w, err = NewWriter(fs, "/.prov", 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.CutTornTail(from); err != nil || w.Size() != intact {
			t.Fatalf("from %d: cut to %d bytes (%v), want %d", from, w.Size(), err, intact)
		}
		if err := w.CutTornTail(0); err != nil || w.Size() != intact {
			t.Fatalf("second cut over an intact log: %d bytes, %v", w.Size(), err)
		}
		w.AppendRecord(0, record.Input(ref(7, 1), ref(8, 1)))
		var n int
		if err := ScanFile(fs, "/.prov/"+CurrentName, func(Entry) error { n++; return nil }); err != nil || n != 3 {
			t.Fatalf("from %d: scan after the cut: %d entries, %v; want 3 intact", from, n, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCutTornTailOnlyCutsTheFinalFrame: the cut takes a bad frame only
// when no intact frame follows it (a torn prefix, a zero-filled tail).
// Damage to a frame with an intact one after it is left on disk,
// whatever the scan hint.
func TestCutTornTailOnlyCutsTheFinalFrame(t *testing.T) {
	flip := func(off int64) func(vfs.File) {
		return func(f vfs.File) {
			b := make([]byte, 1)
			f.ReadAt(b, off)
			f.WriteAt([]byte{b[0] ^ 0x40}, off)
		}
	}
	// Frames: [0, s1) [s1, s2) [s2, end).
	w, fs := newLog(t)
	w.AppendRecord(0, record.Input(ref(1, 1), ref(2, 1)))
	s1 := w.Size()
	w.AppendRecord(0, record.Input(ref(3, 1), ref(4, 1)))
	s2 := w.Size()
	w.AppendRecord(0, record.Input(ref(5, 1), ref(6, 1)))
	end := w.Size()
	w.Close()
	clean, err := vfs.ReadFile(fs, "/.prov/"+CurrentName)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		damage  func(vfs.File)
		want    int64
		damaged int64 // start of a bad frame with intact ones after it, or -1
	}{
		{"short header", func(f vfs.File) { f.Truncate(s2 + 3) }, s2, -1},
		{"length past the end", func(f vfs.File) { f.Truncate(end - 1) }, s2, -1},
		{"bad CRC on the final frame", flip(s2 + 6), s2, -1},
		{"bad CRC mid-log", flip(s1 + 6), end, s1},
		{"length damaged mid-log", flip(s1), end, s1},
		{"zero-filled tail", func(f vfs.File) { f.WriteAt(make([]byte, 64), end) }, end, -1},
		{"bad CRC on the first frame", flip(6), end, 0},
	} {
		for _, from := range []int64{0, s1} {
			fs := vfs.NewMemFS("lower", nil)
			fs.MkdirAll("/.prov")
			f, err := fs.Open("/.prov/"+CurrentName, vfs.OCreate|vfs.ORdWr)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteAt(clean, 0)
			tc.damage(f)
			f.Close()
			w, err := NewWriter(fs, "/.prov", 0)
			if err != nil {
				t.Fatal(err)
			}
			// Damage before the scan's start is never seen, so not refused.
			var wantErr error
			if tc.damaged >= from {
				wantErr = ErrDamaged
			}
			if err := w.CutTornTail(from); !errors.Is(err, wantErr) || w.Size() != tc.want {
				t.Errorf("%s, from %d: %d bytes left (%v), want %d (%v)", tc.name, from, w.Size(), err, tc.want, wantErr)
			}
			if st, _ := fs.Stat("/.prov/" + CurrentName); st.Size != w.Size() {
				t.Errorf("%s, from %d: file holds %d bytes, writer %d", tc.name, from, st.Size, w.Size())
			}
			w.Close()
		}
	}
}

func TestCorruptCRCDetected(t *testing.T) {
	w, fs := newLog(t)
	w.AppendRecord(0, record.Input(ref(1, 1), ref(2, 1)))
	path := "/.prov/" + CurrentName
	f, _ := fs.Open(path, vfs.ORdWr)
	// Flip a byte inside the entry body.
	f.WriteAt([]byte{0xFF}, 6)
	f.Close()
	err := ScanFile(fs, path, func(Entry) error { return nil })
	if !errors.Is(err, ErrTorn) {
		t.Fatalf("want ErrTorn on CRC mismatch, got %v", err)
	}
}

func TestScanCallbackError(t *testing.T) {
	w, fs := newLog(t)
	for i := 0; i < 5; i++ {
		w.AppendRecord(0, record.Input(ref(uint64(i+1), 1), ref(9, 1)))
	}
	boom := fmt.Errorf("stop")
	count := 0
	err := ScanAll(fs, "/.prov", func(Entry) error {
		count++
		if count == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || count != 3 {
		t.Fatalf("err=%v count=%d", err, count)
	}
}

func TestLogFilesMissingDir(t *testing.T) {
	fs := vfs.NewMemFS("lower", nil)
	files, err := LogFiles(fs, "/nope")
	if err != nil || files != nil {
		t.Fatalf("missing dir: %v %v", files, err)
	}
}

// TestDisableRotationRefuses pins the active log and checks that Rotate
// refuses (naming the reason) while appends keep working — the guard a
// replicating daemon relies on so log.current is never renamed out from
// under follower byte offsets.
func TestDisableRotationRefuses(t *testing.T) {
	w, fs := newLog(t)
	if err := w.AppendRecord(0, record.Input(ref(3, 1), ref(2, 1))); err != nil {
		t.Fatal(err)
	}
	w.DisableRotation("pinned for replication")
	err := w.Rotate()
	if err == nil {
		t.Fatal("Rotate succeeded on a pinned log")
	}
	if !strings.Contains(err.Error(), "pinned for replication") {
		t.Fatalf("Rotate error %q does not name the pin reason", err)
	}
	// The active log is untouched and still writable.
	if err := w.AppendRecord(0, record.Input(ref(4, 1), ref(2, 1))); err != nil {
		t.Fatalf("append after refused rotation: %v", err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	ents := scan(t, fs, "/.prov")
	if len(ents) != 2 {
		t.Fatalf("got %d entries after refused rotation, want 2", len(ents))
	}
}
