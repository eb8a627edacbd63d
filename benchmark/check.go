package main

import (
	"fmt"
	"math/rand"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"time"

	"passv2/benchmark/gen"
	"passv2/internal/passd"
	"passv2/internal/pql"
)

// balance checks the daemon's record count against the ledger after a
// drain: every acknowledged record once, plus one MKOBJ record per
// pass_mkobj. STATS appends is the server's own sum of the Appended it
// reported, so the two must agree with each other as well. A failed write
// may or may not have been staged, so with failures the ledger is only a
// lower bound.
func (r *runner) balance(st *passd.Stats) error {
	want := r.ledger.records + r.ledger.mkobjs
	if r.ledger.failed > 0 {
		if st.Records < want {
			return fmt.Errorf("daemon holds %d records, fewer than the %d acknowledged", st.Records, want)
		}
		return nil
	}
	if st.Records != want {
		return fmt.Errorf("daemon holds %d records after drain; acknowledged were %d (+%d mkobj) = %d",
			st.Records, r.ledger.records, r.ledger.mkobjs, want)
	}
	if st.RecoveredGen == 0 && st.Appends != want {
		return fmt.Errorf("STATS appends %d differs from the %d records the generator had acknowledged", st.Appends, want)
	}
	return nil
}

// settle drains the daemon and balances its count.
func (r *runner) settle() (*passd.Stats, error) {
	if _, err := r.conns[0].Drain(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	st, err := r.conns[0].Stats()
	if err != nil {
		return nil, err
	}
	return st, r.balance(st)
}

// checkTexts picks the queries compared with the oracle: per class,
// checkPerClass texts spread evenly over the ranks (checkScans for the
// scans, which cost a type scan each).
func (r *runner) checkTexts() []string {
	var texts []string
	for c := 0; c < gen.Classes; c++ {
		n := r.sc.checkPerClass
		if c == gen.Scan {
			n = r.sc.checkScans
		}
		all := r.queries.Texts[c]
		if n > len(all) {
			n = len(all)
		}
		for j := 0; j < n; j++ {
			texts = append(texts, all[j*len(all)/n])
		}
	}
	return texts
}

// checkQueries sends the check texts one at a time from a single session,
// so each is timed on an otherwise idle daemon. The returned verify
// requires every other answer — checkPerClass/2 per class — to be
// byte-equal (Result.Format) to pql.Run over the in-process database built
// from the same generated records; it costs this process seconds of CPU,
// so the caller runs it where the generator would otherwise wait.
func (r *runner) checkQueries() (t *tally, seconds float64, verify func() error) {
	texts := r.checkTexts()
	got := make([]*pql.Result, len(texts))
	t = &tally{}
	start := time.Now()
	for i, text := range texts {
		t.attempted++
		t0 := time.Now()
		res, err := r.conns[0].Query(text)
		if err != nil {
			t.fail(err)
			continue
		}
		t.query.add(0, time.Since(t0))
		t.queries++
		t.rows += int64(len(res.Rows))
		got[i] = res
	}
	return t, time.Since(start).Seconds(), func() error {
		if t.firstErr != nil {
			return fmt.Errorf("check query failed: %w", t.firstErr)
		}
		for i := 0; i < len(texts); i += 2 {
			want, err := pql.Run(r.oracle, texts[i])
			if err != nil {
				return fmt.Errorf("oracle: %s: %w", texts[i], err)
			}
			if g, w := got[i].Format(), want.Format(); g != w {
				return fmt.Errorf("query answer differs from the oracle's\n  query: %s\n  daemon: %d rows, %d bytes\n  oracle: %d rows, %d bytes",
					texts[i], len(got[i].Rows), len(g), len(want.Rows), len(w))
			}
		}
		return nil
	}
}

// checkNames looks up a seeded sample of the acknowledged names — every
// kind the run disclosed, and the preloaded files — and requires exactly
// one row each: none lost, none duplicated.
func (r *runner) checkNames() error {
	names := append([]nameRef(nil), r.ledger.names...)
	for _, f := range r.dag.Files {
		names = append(names, nameRef{"file", f})
	}
	rng := rand.New(rand.NewSource(r.seed))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	if len(names) > r.sc.checkNames {
		names = names[:r.sc.checkNames]
	}
	var cursor atomic.Int64
	t := parallel(querySessions, func(s int, t *tally) {
		for {
			i := int(cursor.Add(1) - 1)
			if i >= len(names) {
				return
			}
			res, err := r.conn(s).Query(gen.PointQuery(names[i].class, names[i].name))
			if err == nil && len(res.Rows) != 1 {
				err = fmt.Errorf("acknowledged name %s returns %d rows after the kill, want exactly 1", names[i].name, len(res.Rows))
			}
			if err != nil {
				t.fail(err)
			}
		}
	})
	return t.firstErr
}

// converge requires the follower to hold what the primary holds: the
// same record count, MMR leaf count and MMR root.
func (r *runner) converge() error {
	f, err := dial(r.daemons[1].addr)
	if err != nil {
		return err
	}
	defer f.Close()
	p, err := r.conns[0].Stats()
	if err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		fs, err := f.Stats()
		if err != nil {
			return err
		}
		if fs.Records == p.Records && fs.MMRLeaves == p.MMRLeaves && fs.MMRRoot == p.MMRRoot {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower did not converge: records %d/%d, mmr_leaves %d/%d, mmr_root %s/%s",
				fs.Records, p.Records, fs.MMRLeaves, p.MMRLeaves, fs.MMRRoot, p.MMRRoot)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// audit runs cmd/passverify over the primary's directories with its
// public identity pinned; it must exit 0.
func (r *runner) audit() error {
	d := r.primary()
	cmd := exec.Command(r.bins.passverify,
		"-logdir", filepath.Join(d.dir, "log"),
		"-checkpoint-dir", filepath.Join(d.dir, "ckpt"),
		"-pub", filepath.Join(d.dir, "log", "keys", "signer.pub"))
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("passverify: %v\n%s", err, out)
	}
	return nil
}
