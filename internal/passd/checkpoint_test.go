package passd

import (
	"testing"
	"time"

	"passv2/internal/checkpoint"
	"passv2/internal/pnode"
	"passv2/internal/provlog"
	"passv2/internal/record"
	"passv2/internal/vfs"
	"passv2/internal/waldo"
)

// logBackedWaldo builds a Waldo tailing a write-through log on a MemFS —
// the in-process twin of the daemon's -logdir arrangement.
func logBackedWaldo(t *testing.T) (*waldo.Waldo, *provlog.Writer, *vfs.MemFS) {
	t.Helper()
	lower := vfs.NewMemFS("log", nil)
	log, err := provlog.NewWriter(lower, "/log", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	w := waldo.New()
	w.Attach(waldo.NewLogVolume("vol1", lower, log))
	return w, log, lower
}

func nameRec(i int) record.Record {
	return record.New(pnode.Ref{PNode: pnode.PNode(i), Version: 1},
		record.AttrName, record.StringVal("/srv/f"))
}

// TestServerCheckpointVerb covers the forced-checkpoint and append verbs
// end to end: append over the wire, drain, force a checkpoint, kill the
// server (hard: no clean Close flush is relied on), recover a second
// server from the store, and confirm it resumes with the full database
// and only tail replay.
func TestServerCheckpointVerb(t *testing.T) {
	w, log, lower := logBackedWaldo(t)
	ckfs := vfs.NewMemFS("ck", nil)
	store, err := checkpoint.NewStore(ckfs, "/ck", 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, w, Config{
		Checkpoints: store,
		Append: func(recs []record.Record) error {
			for _, r := range recs {
				if err := log.AppendRecord(0, r); err != nil {
					return err
				}
			}
			return log.Flush()
		},
	})
	c := dialClient(t, srv)

	var batch []record.Record
	for i := 1; i <= 500; i++ {
		batch = append(batch, nameRec(i))
	}
	if err := c.AppendProvenance(batch); err != nil {
		t.Fatalf("append: %v", err)
	}
	if _, err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	info, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info.Gen <= 0 || info.Records != 500 || info.SnapshotBytes <= 0 {
		t.Fatalf("checkpoint info %+v", info)
	}
	// A second forced checkpoint with no new batches is a no-op (same gen).
	info2, err := c.Checkpoint()
	if err != nil || info2.Gen != info.Gen {
		t.Fatalf("idle checkpoint: %+v, %v", info2, err)
	}
	// 70 more acknowledged records, not checkpointed.
	batch = batch[:0]
	for i := 501; i <= 570; i++ {
		batch = append(batch, nameRec(i))
	}
	if err := c.AppendProvenance(batch); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoints != 1 || st.LastCheckpointGen != info.Gen || st.Appends != 570 {
		t.Fatalf("stats %+v", st)
	}

	// "Crash": abandon the first server without Close (its final flush
	// must not be what saves us) and recover a fresh one from the store.
	rec, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rec.DB == nil || rec.Gen != info.Gen {
		t.Fatalf("recovered %+v", rec)
	}
	w2 := waldo.New()
	w2.DB = rec.DB
	log2, err := provlog.NewWriter(lower, "/log", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	w2.Attach(waldo.NewLogVolume("vol1", lower, log2))
	if missing := w2.RestoreVolumes(rec.Volumes); len(missing) != 0 {
		t.Fatalf("unmatched volumes %v", missing)
	}
	if err := w2.Drain(); err != nil {
		t.Fatal(err)
	}
	srv2 := startServer(t, w2, Config{Recovered: rec})
	c2 := dialClient(t, srv2)
	st2, err := c2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.Records != 570 {
		t.Fatalf("recovered server sees %d records, want 570", st2.Records)
	}
	if st2.RecoveredGen != info.Gen || st2.RecoveredRecords != 500 || st2.ResumeBytes == 0 {
		t.Fatalf("recovery stats %+v", st2)
	}
	// Proportional work: only the 70-record tail was decoded.
	if st2.EntriesDecoded != 70 {
		t.Fatalf("recovery decoded %d entries, want 70", st2.EntriesDecoded)
	}
}

// TestServerBackgroundCheckpointer checks the records-applied trigger: a
// server configured to checkpoint every N records commits a generation
// without anyone calling the verb.
func TestServerBackgroundCheckpointer(t *testing.T) {
	w, log, _ := logBackedWaldo(t)
	store, err := checkpoint.NewStore(vfs.NewMemFS("ck", nil), "/ck", 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, w, Config{
		Checkpoints:        store,
		CheckpointInterval: time.Hour, // only the record trigger may fire
		CheckpointEvery:    100,
	})
	for i := 1; i <= 200; i++ {
		if err := log.AppendRecord(0, nameRec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Drain(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		gens, err := store.Generations()
		if err != nil {
			t.Fatal(err)
		}
		if len(gens) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer never committed a generation")
		}
		time.Sleep(20 * time.Millisecond)
	}
	srv.Close()
	// Close's final flush must leave the tip generation on disk.
	rec, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rec.DB == nil || rec.Records != 200 {
		t.Fatalf("final checkpoint %+v", rec)
	}
}

// TestServerVerbsDisabled pins the error contract when no checkpoint
// store is configured.
func TestServerVerbsDisabled(t *testing.T) {
	w, _ := testWaldo(4)
	srv := startServer(t, w, Config{})
	c := dialClient(t, srv)
	if _, err := c.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded without a store")
	}
}
