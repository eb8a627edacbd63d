package passd

import (
	"testing"
	"time"

	"passv2/internal/pnode"
	"passv2/internal/record"
	"passv2/internal/vfs"
)

// openMemDaemon opens a daemon whose log and checkpoints live on the
// given MemFSes, through the constructor cmd/passd -logdir
// -checkpoint-dir uses: no drain loop, no MMR, three generations kept.
func openMemDaemon(t *testing.T, logFS, ckptFS *vfs.MemFS, cfg Config) *Daemon {
	t.Helper()
	d, err := Open(DaemonConfig{Config: cfg, LogFS: logFS, CheckpointFS: ckptFS, Retain: 3})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
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
	lower, ckfs := vfs.NewMemFS("log", nil), vfs.NewMemFS("ck", nil)
	srv := openMemDaemon(t, lower, ckfs, Config{}).Server
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
	d2 := openMemDaemon(t, lower, ckfs, Config{})
	rec := d2.Boot.Recovered
	if rec.DB == nil || rec.Gen != info.Gen {
		t.Fatalf("recovered %+v", rec)
	}
	if missing := d2.Boot.DroppedVolumes; len(missing) != 0 {
		t.Fatalf("unmatched volumes %v", missing)
	}
	srv2 := d2.Server
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
	srv := openMemDaemon(t, vfs.NewMemFS("log", nil), vfs.NewMemFS("ck", nil), Config{
		CheckpointInterval: time.Hour, // only the record trigger may fire
		CheckpointEvery:    100,
	}).Server
	store := srv.cfg.Checkpoints
	c := dialClient(t, srv)
	var batch []record.Record
	for i := 1; i <= 200; i++ {
		batch = append(batch, nameRec(i))
	}
	if err := c.AppendProvenance(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Drain(); err != nil {
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
