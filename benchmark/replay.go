package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"passv2/benchmark/gen"
	"passv2/internal/checkpoint"
	"passv2/internal/graph"
	"passv2/internal/kvdb"
	"passv2/internal/mmr"
	"passv2/internal/pql"
	"passv2/internal/provlog"
	"passv2/internal/record"
	"passv2/internal/signer"
	"passv2/internal/verify"
	"passv2/internal/vfs"
	"passv2/internal/waldo"
)

// replayRecords caps how many generated records each replay walks, so the
// traced run's cost does not grow with the window.
const replayRecords = 100_000

// perItem is elapsed/n in nanoseconds.
func perItem(elapsed time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(elapsed.Nanoseconds()) / float64(n)
}

// replay prices single layers by running the workload's own artifacts —
// the generated records, the log the traced daemon wrote, its final
// database, the query list, a killed child's directories — through each
// layer's public functions, single-threaded, in this process (source R in
// the README). These are the layers' costs with nothing else contending;
// the traced spans say what they cost under the workload's load.
func (r *runner) replay(l map[string]metric, recs []record.Record, db *waldo.DB, logDir, childDir string) error {
	if len(recs) > replayRecords {
		recs = recs[:replayRecords]
	}

	// record: the binary codec, over the records as generated.
	var buf []byte
	start := time.Now()
	for _, rec := range recs {
		buf = record.AppendRecord(buf, rec)
	}
	l["record.encode_ns_per_rec"] = metric{perItem(time.Since(start), len(recs)), "ns", len(recs)}
	start = time.Now()
	for rest := buf; len(rest) > 0; {
		_, n, err := record.DecodeRecord(rest)
		if err != nil {
			return fmt.Errorf("replay: decoding generated records: %w", err)
		}
		rest = rest[n:]
	}
	l["record.decode_ns_per_rec"] = metric{perItem(time.Since(start), len(recs)), "ns", len(recs)}

	// provlog: scanning the log the traced daemon wrote.
	lfs, err := vfs.NewDirFS(logDir)
	if err != nil {
		return err
	}
	var payloads [][]byte
	start = time.Now()
	entries := 0
	if _, err := provlog.ScanFileFrom(lfs, "/"+provlog.CurrentName, 0, func(e provlog.Entry) error {
		entries++
		return nil
	}); err != nil {
		return fmt.Errorf("replay: scanning the log: %w", err)
	}
	l["provlog.scan_ns_per_rec"] = metric{perItem(time.Since(start), entries), "ns", entries}

	// mmr: one leaf hash and one append per record, then inclusion proofs.
	for _, rec := range recs {
		payloads = append(payloads, record.AppendRecord(nil, rec))
	}
	m := mmr.New()
	start = time.Now()
	off := uint64(0)
	for _, p := range payloads {
		m.Append(mmr.LeafHash(p, logVolumeName, off), int64(off)+int64(len(p)))
		off += uint64(len(p))
	}
	l["mmr.append_ns_per_rec"] = metric{perItem(time.Since(start), len(payloads)), "ns", len(payloads)}
	const proofs = 2000
	start = time.Now()
	for i := 0; i < proofs; i++ {
		if _, err := m.Prove(uint64(i) * m.Count() / proofs); err != nil {
			return fmt.Errorf("replay: mmr proof: %w", err)
		}
	}
	l["mmr.prove_us"] = metric{perItem(time.Since(start), proofs) / 1e3, "us", proofs}

	// waldo: ApplyBatch in 4,096s into an empty database.
	fresh := waldo.NewDB()
	start = time.Now()
	for rest := recs; len(rest) > 0; {
		n := min(4096, len(rest))
		fresh.ApplyBatch(rest[:n])
		rest = rest[n:]
	}
	l["waldo.apply_ns_per_rec"] = metric{perItem(time.Since(start), len(recs)), "ns", len(recs)}

	// kvdb: Waldo's real key population, from the traced daemon's final
	// database through Save and LoadBytes.
	var snap bytes.Buffer
	start = time.Now()
	if err := db.Save(&snap); err != nil {
		return err
	}
	mb := float64(snap.Len()) / (1 << 20)
	l["kvdb.save_mb_per_s"] = metric{mb / time.Since(start).Seconds(), "MB/s", 0}
	start = time.Now()
	kv, err := kvdb.LoadBytes(snap.Bytes())
	if err != nil {
		return fmt.Errorf("replay: reloading the database snapshot: %w", err)
	}
	l["kvdb.load_mb_per_s"] = metric{mb / time.Since(start).Seconds(), "MB/s", 0}
	var pairs []kvdb.KV
	kv.Ascend("", "\xff", func(k string, v []byte) bool {
		pairs = append(pairs, kvdb.KV{Key: k, Val: v})
		return len(pairs) < 8*replayRecords
	})
	rebuilt := kvdb.New()
	start = time.Now()
	for rest := pairs; len(rest) > 0; {
		n := min(4096, len(rest))
		rebuilt.SetBatch(rest[:n])
		rest = rest[n:]
	}
	l["kvdb.setbatch_ns_per_key"] = metric{perItem(time.Since(start), len(pairs)), "ns", len(pairs)}
	gets := min(200_000, len(pairs))
	start = time.Now()
	for i := 0; i < gets; i++ {
		// A fixed odd stride visits the keys in an order unrelated to theirs.
		if _, ok := kv.Get(pairs[(i*7919)%len(pairs)].Key); !ok {
			return fmt.Errorf("replay: key %q missing from the reloaded database", pairs[(i*7919)%len(pairs)].Key)
		}
	}
	l["kvdb.get_ns"] = metric{perItem(time.Since(start), gets), "ns", gets}
	st := db.TreeStats()
	records, _, _ := db.Stats()
	l["kvdb.nodes_per_krec"] = metric{float64(st.Nodes) / float64(records) * 1000, "count", 0}
	l["kvdb.depth"] = metric{float64(st.Depth), "count", 0}
	l["waldo.keys_per_rec"] = metric{float64(st.Keys) / float64(records), "count", 0}

	// pql and graph: parse+plan, then execution per class on a pinned
	// ReadView with one shared memo, as the daemon's snapshot bundle does.
	view := db.ReadView()
	g := graph.New(view)
	memo := g.NewSharedMemo()
	var planTime time.Duration
	plans := 0
	for c := 0; c < gen.Classes; c++ {
		n := 100
		if c == gen.Scan {
			n = 8
		}
		texts := r.queries.Texts[c]
		n = min(n, len(texts))
		var exec time.Duration
		for i := 0; i < n; i++ {
			start = time.Now()
			q, err := pql.Parse(texts[i*len(texts)/n])
			if err != nil {
				return err
			}
			plan := pql.PlanQuery(q)
			planTime += time.Since(start)
			plans++
			start = time.Now()
			if _, err := plan.ExecuteWith(context.Background(), g, memo); err != nil {
				return fmt.Errorf("replay: %s: %w", texts[i*len(texts)/n], err)
			}
			exec += time.Since(start)
		}
		l["pql.exec_us."+gen.ClassNames[c]] = metric{perItem(exec, n) / 1e3, "us", n}
	}
	l["pql.parse_plan_us"] = metric{perItem(planTime, plans) / 1e3, "us", plans}

	// checkpoint and verify: over the killed child's directories.
	cfs, err := vfs.NewDirFS(filepath.Join(childDir, "ckpt"))
	if err != nil {
		return err
	}
	store, err := checkpoint.NewStore(cfs, "/", checkpoint.DefaultRetain)
	if err != nil {
		return err
	}
	start = time.Now()
	got, err := store.Load()
	if err != nil {
		return fmt.Errorf("replay: loading the child's checkpoints: %w", err)
	}
	if got.DB == nil {
		return fmt.Errorf("replay: the killed child left no loadable checkpoint (%d skipped)", len(got.Skipped))
	}
	l["checkpoint.load_s"] = metric{time.Since(start).Seconds(), "s", 0}

	clfs, err := vfs.NewDirFS(filepath.Join(childDir, "log"))
	if err != nil {
		return err
	}
	pub, err := signer.LoadPublic(clfs, "/keys/"+signer.PubName)
	if err != nil {
		return err
	}
	start = time.Now()
	audit, err := verify.Audit(verify.Options{LogFS: clfs, CheckpointFS: cfs, Volume: logVolumeName, Pub: &pub})
	if err != nil {
		return fmt.Errorf("replay: audit: %w", err)
	}
	if !audit.OK {
		return fmt.Errorf("replay: audit of the killed child failed: %v", audit.Failures)
	}
	l["verify.audit_rec_per_s"] = metric{float64(audit.Records) / time.Since(start).Seconds(), "rec/s", int(audit.Records)}
	return nil
}
