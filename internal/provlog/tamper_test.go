package provlog

import (
	"errors"
	"strings"
	"testing"

	"passv2/internal/mmr"
	"passv2/internal/pnode"
	"passv2/internal/record"
	"passv2/internal/vfs"
)

func tamperRecord(i int) record.Record {
	return record.Record{
		Subject: pnode.Ref{PNode: pnode.PNode(i + 1), Version: 1},
		Attr:    record.AttrName,
		Value:   record.StringVal("file" + string(rune('a'+i%26))),
	}
}

// TestWriterFeedMatchesRebuild pins the core equivalence: the MMR fed
// live by the writer and the MMR rebuilt by scanning the log bytes must
// agree, including across rotations and non-record frames.
func TestWriterFeedMatchesRebuild(t *testing.T) {
	fs := vfs.NewMemFS("lower", nil)
	w, err := NewWriter(fs, "/log", 256) // small: force several rotations
	if err != nil {
		t.Fatal(err)
	}
	live := mmr.New()
	if err := w.AttachMMR(live, "vol"); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBeginTxn(7); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := w.AppendRecord(0, tamperRecord(i)); err != nil {
			t.Fatal(err)
		}
		if i%10 == 0 {
			if err := w.AppendData(pnode.Ref{PNode: 1, Version: 1}, 0, []byte("xx")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.AppendEndTxn(7); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if live.Count() != 40 {
		t.Fatalf("live MMR has %d leaves, want 40", live.Count())
	}
	rebuilt, err := RebuildMMR(fs, "/log", "vol")
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Root() != live.Root() || rebuilt.Count() != live.Count() {
		t.Fatal("rebuilt MMR disagrees with the live one")
	}
	if rebuilt.Cursor() != live.Cursor() {
		t.Fatalf("cursor mismatch: rebuilt %d live %d", rebuilt.Cursor(), live.Cursor())
	}
	// A different volume name yields a different history.
	other, err := RebuildMMR(fs, "/log", "vol2")
	if err != nil {
		t.Fatal(err)
	}
	if other.Root() == live.Root() {
		t.Fatal("volume name is not bound into the leaves")
	}
}

// TestWriterFeedWithBuffering checks the write-behind path: leaves are
// committed at append time (global offsets account for buffered bytes),
// and SyncTamper's snapshot covers exactly the durable prefix.
func TestWriterFeedWithBuffering(t *testing.T) {
	fs := vfs.NewMemFS("lower", nil)
	w, err := NewWriter(fs, "/log", 0)
	if err != nil {
		t.Fatal(err)
	}
	w.SetBuffer(1 << 20)
	live := mmr.New()
	if err := w.AttachMMR(live, "vol"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if err := w.AppendRecord(0, tamperRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, n, root, err := w.SyncTamper()
	if err != nil {
		t.Fatal(err)
	}
	if n != 25 || st.Count != 25 {
		t.Fatalf("synced %d/%d leaves, want 25", n, st.Count)
	}
	rebuilt, err := RebuildMMR(fs, "/log", "vol")
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt.Root() != root {
		t.Fatal("rebuild after sync disagrees with the synced root")
	}
}

// TestSaveLoadResumeRehydrate is the full lifecycle: run, checkpoint the
// peak state, reopen pruned (no rehash), keep appending, then rehydrate
// to full for proofs.
func TestSaveLoadResumeRehydrate(t *testing.T) {
	fs := vfs.NewMemFS("lower", nil)
	w, err := NewWriter(fs, "/log", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AttachMMR(mmr.New(), "vol"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := w.AppendRecord(0, tamperRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, _, _, err := w.SyncTamper()
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveMMR(fs, "/log", st); err != nil {
		t.Fatal(err)
	}

	// "Restart": load resumes pruned at the saved base.
	w2, err := NewWriter(fs, "/log", 0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := LoadMMR(fs, "/log", "vol")
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Pruned() {
		t.Fatal("LoadMMR with a valid peak file should resume pruned")
	}
	if err := w2.AttachMMR(m2, "vol"); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 35; i++ {
		if err := w2.AppendRecord(0, tamperRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	full, err := RebuildMMR(fs, "/log", "vol")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Root() != full.Root() {
		t.Fatal("pruned resume diverged from a full rebuild")
	}
	if _, err := m2.Prove(3); !errors.Is(err, mmr.ErrPruned) {
		t.Fatalf("pruned proof: %v, want ErrPruned", err)
	}
	if err := w2.Rehydrate(); err != nil {
		t.Fatal(err)
	}
	hydrated := w2.MMR()
	if hydrated.Pruned() {
		t.Fatal("rehydrate left the MMR pruned")
	}
	if hydrated.Root() != full.Root() {
		t.Fatal("rehydrate changed the root")
	}
	p, err := hydrated.Prove(3)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := hydrated.Leaf(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := mmr.VerifyInclusion(hydrated.Root(), leaf, p); err != nil {
		t.Fatal(err)
	}
	if err := w2.Rehydrate(); err != nil {
		t.Fatal(err) // idempotent
	}
}

// TestLoadMMRFallsBackOnBadState: corrupt or stale peak files must fall
// back to a full rebuild, never resume wrong.
func TestLoadMMRFallsBackOnBadState(t *testing.T) {
	fs := vfs.NewMemFS("lower", nil)
	w, err := NewWriter(fs, "/log", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AttachMMR(mmr.New(), "vol"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.AppendRecord(0, tamperRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, _, root, err := w.SyncTamper()
	if err != nil {
		t.Fatal(err)
	}

	// No state file at all.
	m, err := LoadMMR(fs, "/log", "vol")
	if err != nil || m.Pruned() || m.Root() != root {
		t.Fatalf("missing state: %v pruned=%v", err, m.Pruned())
	}
	// Corrupt state file.
	if err := SaveMMR(fs, "/log", st); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("/log/"+MMRStateName, vfs.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 12); err != nil {
		t.Fatal(err)
	}
	f.Close()
	m, err = LoadMMR(fs, "/log", "vol")
	if err != nil || m.Pruned() || m.Root() != root {
		t.Fatalf("corrupt state: %v pruned=%v", err, m.Pruned())
	}
	// State whose cursor points past the log end (state stolen from a
	// longer log).
	longer := st
	longer.Cursor += 1000
	if err := SaveMMR(fs, "/log", longer); err != nil {
		t.Fatal(err)
	}
	m, err = LoadMMR(fs, "/log", "vol")
	if err != nil || m.Pruned() || m.Root() != root {
		t.Fatalf("stale state: %v pruned=%v", err, m.Pruned())
	}
	// State whose cursor sits inside the log but off its frame grid (state
	// taken over a different log): catching up from it finds only "torn"
	// bytes, and the cursor must not stop there.
	offGrid := st
	offGrid.Cursor -= 3
	if err := SaveMMR(fs, "/log", offGrid); err != nil {
		t.Fatal(err)
	}
	m, err = LoadMMR(fs, "/log", "vol")
	if err != nil || m.Pruned() || m.Root() != root || m.Cursor() != w.Size() {
		t.Fatalf("off-grid state: %v pruned=%v cursor %d of %d", err, m.Pruned(), m.Cursor(), w.Size())
	}
}

// TestLoadMMRResumesOverTornTail: a torn frame past at least one frame
// hashed from the saved cursor keeps the cheap resume, with the cursor at
// the end of the last intact frame. A torn frame right at the saved
// cursor is the ambiguous case, and rebuilds.
func TestLoadMMRResumesOverTornTail(t *testing.T) {
	for _, tc := range []struct {
		name       string
		pastState  int
		wantPruned bool
	}{
		{"frames past the state", 5, true},
		{"tear at the state's cursor", 0, false},
	} {
		fs := vfs.NewMemFS("lower", nil)
		w, err := NewWriter(fs, "/log", 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AttachMMR(mmr.New(), "vol"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			w.AppendRecord(0, tamperRecord(i))
		}
		st, _, _, err := w.SyncTamper()
		if err != nil {
			t.Fatal(err)
		}
		if err := SaveMMR(fs, "/log", st); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tc.pastState; i++ {
			w.AppendRecord(0, tamperRecord(5+i))
		}
		_, count, root, err := w.SyncTamper()
		if err != nil {
			t.Fatal(err)
		}
		intact := w.Size()
		w.AppendRecord(0, tamperRecord(99))
		w.Close()
		f, err := fs.Open("/log/"+CurrentName, vfs.ORdWr)
		if err != nil {
			t.Fatal(err)
		}
		f.Truncate(intact + 5)
		f.Close()

		m, err := LoadMMR(fs, "/log", "vol")
		if err != nil || m.Pruned() != tc.wantPruned || m.Count() != count || m.Root() != root || m.Cursor() != intact {
			t.Fatalf("%s: %v pruned=%v count %d of %d cursor %d of %d", tc.name, err, m.Pruned(), m.Count(), count, m.Cursor(), intact)
		}
	}
}

// TestRehydrateDetectsDoctoredState: a peak file whose peaks do not
// match the log is accepted at resume (it cannot be checked without
// rehashing) but must be refused at rehydrate time.
func TestRehydrateDetectsDoctoredState(t *testing.T) {
	fs := vfs.NewMemFS("lower", nil)
	w, err := NewWriter(fs, "/log", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AttachMMR(mmr.New(), "vol"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := w.AppendRecord(0, tamperRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	st, _, _, err := w.SyncTamper()
	if err != nil {
		t.Fatal(err)
	}
	st.Peaks[0][0] ^= 1 // forge a peak; re-encode keeps the CRC valid
	if err := SaveMMR(fs, "/log", st); err != nil {
		t.Fatal(err)
	}

	w2, err := NewWriter(fs, "/log", 0)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := LoadMMR(fs, "/log", "vol")
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Pruned() {
		t.Skip("load fell back to rebuild; nothing to detect")
	}
	if err := w2.AttachMMR(m2, "vol"); err != nil {
		t.Fatal(err)
	}
	err = w2.Rehydrate()
	if err == nil {
		t.Fatal("rehydrate accepted a doctored peak file")
	}
	if !strings.Contains(err.Error(), "altered") {
		t.Fatalf("unexpected rehydrate error: %v", err)
	}
}

func TestAttachMMRRefusesGap(t *testing.T) {
	fs := vfs.NewMemFS("lower", nil)
	w, err := NewWriter(fs, "/log", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendRecord(0, tamperRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := w.AttachMMR(mmr.New(), "vol"); err == nil {
		t.Fatal("attach accepted an MMR that does not cover the log")
	}
}

// TestTailFeeder exercises the follower path: chunks that split frames,
// retransmitted chunks, gaps and corruption.
func TestTailFeeder(t *testing.T) {
	// Build a reference log to get realistic frame bytes.
	fs := vfs.NewMemFS("lower", nil)
	w, err := NewWriter(fs, "/log", 0)
	if err != nil {
		t.Fatal(err)
	}
	live := mmr.New()
	if err := w.AttachMMR(live, "vol"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := w.AppendRecord(0, tamperRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	f, err := fs.Open("/log/"+CurrentName, vfs.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, f.Size())
	if _, err := f.ReadAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	feeder := NewTailFeeder(mmr.New(), "vol", nil)
	// Feed in awkward chunk sizes, with a retransmission in the middle.
	for off := 0; off < len(raw); {
		n := 7 + off%13
		if off+n > len(raw) {
			n = len(raw) - off
		}
		if err := feeder.Feed(int64(off), raw[off:off+n]); err != nil {
			t.Fatal(err)
		}
		if off > 20 {
			if err := feeder.Feed(0, raw[:off]); err != nil {
				t.Fatal(err) // full replay must be a no-op
			}
		}
		off += n
	}
	if feeder.MMR().Root() != live.Root() {
		t.Fatal("feeder MMR diverged from the writer MMR")
	}
	// A gap is refused without poisoning.
	if err := feeder.Feed(int64(len(raw)+100), []byte{1, 2, 3}); err == nil {
		t.Fatal("gap accepted")
	}
	if err := feeder.Feed(int64(len(raw)), nil); err != nil {
		t.Fatalf("feeder wedged after a gap refusal: %v", err)
	}
	// Corrupt bytes (a complete frame with a wrong CRC) poison it
	// permanently.
	bad := []byte{4, 0, 0, 0, 1, 2, 3, 4, 0, 0, 0, 0}
	if err := feeder.Feed(int64(len(raw)), bad); err == nil {
		t.Fatal("corrupt frame accepted")
	}
	if err := feeder.Feed(int64(len(raw)+len(bad)), raw[:8]); err == nil {
		t.Fatal("poisoned feeder kept accepting")
	}
}

// TestLoadFeederWithPartialTail: a follower killed mid-frame reloads
// with the partial bytes pending and finishes the frame on the next
// chunk.
func TestLoadFeederWithPartialTail(t *testing.T) {
	fs := vfs.NewMemFS("lower", nil)
	w, err := NewWriter(fs, "/log", 0)
	if err != nil {
		t.Fatal(err)
	}
	live := mmr.New()
	if err := w.AttachMMR(live, "vol"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.AppendRecord(0, tamperRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	f, err := fs.Open("/log/"+CurrentName, vfs.ORdOnly)
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, f.Size())
	if _, err := f.ReadAt(raw, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// A follower log holding everything plus half a frame.
	ffs := vfs.NewMemFS("follower", nil)
	if err := ffs.MkdirAll("/flog"); err != nil {
		t.Fatal(err)
	}
	cut := len(raw) - 9
	fl, err := ffs.Open("/flog/"+CurrentName, vfs.OCreate|vfs.ORdWr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.WriteAt(raw[:cut], 0); err != nil {
		t.Fatal(err)
	}
	fl.Close()

	feeder, err := LoadFeeder(ffs, "/flog", "vol")
	if err != nil {
		t.Fatal(err)
	}
	if feeder.MMR().Count() != 9 {
		t.Fatalf("feeder resumed with %d leaves, want 9", feeder.MMR().Count())
	}
	if err := feeder.Feed(int64(cut), raw[cut:]); err != nil {
		t.Fatal(err)
	}
	if feeder.MMR().Root() != live.Root() {
		t.Fatal("feeder diverged after finishing the partial frame")
	}
}
