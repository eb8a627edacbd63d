package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"passv2/internal/replica"
	"passv2/internal/vfs"
)

// Span kinds. A span names its layer boundary and the kind of span that
// caused it; with sixteen requests in flight a closure call cannot be
// tied to one request from outside, so parentage is by kind and a layer's
// self time is an aggregate. The one-session pass ties children to
// parents by containment and is what reconcile checks.
const (
	spanRequest    = "request"          // client: send → reply, one per measured operation
	spanAppend     = "passd.append"     // Config.Append closure
	spanSync       = "passd.sync"       // Config.Sync closure
	spanLogWrite   = "vfs.log.write"    // WriteAt on the log directory
	spanLogFsync   = "vfs.log.fsync"    // File.Sync on the log directory
	spanLogRead    = "vfs.log.read"     // ReadAt on the log directory (drain, replication source)
	spanDrain      = "waldo.drain"      // one pass of the benchmark's drain loop
	spanCheckpoint = "checkpoint.write" // the checkpoint verb, client side
	spanSign       = "checkpoint.sign"  // Store.MakeProofs
	spanCkptWrite  = "vfs.ckpt.write"
	spanCkptFsync  = "vfs.ckpt.fsync"
	spanPeerAppend = "replica.peer_append" // primary → follower replappend
)

// parentKinds lists, per span kind, the kinds that can cause it, most
// specific first.
var parentKinds = map[string][]string{
	spanAppend:     {spanRequest},
	spanSync:       {spanRequest},
	spanLogWrite:   {spanAppend, spanSync, spanCheckpoint}, // the last: the MMR peak file, saved after the manifest commits
	spanLogFsync:   {spanSync, spanSign, spanCheckpoint},
	spanSign:       {spanCheckpoint},
	spanCkptWrite:  {spanCheckpoint},
	spanCkptFsync:  {spanCheckpoint},
	spanLogRead:    {spanDrain, spanPeerAppend},
	spanPeerAppend: nil, // the primary's per-follower goroutine: no request causes one
}

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started. Seq is the client request sequence: set by
// the generator on request spans, and by reconcile on their children.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Seq    int64  `json:"seq,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Note   string `json:"note,omitempty"` // a checkpoint's kind: full or delta
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// now is the tracer's clock.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a finished span; a nil tracer records nothing, so the same
// assembly runs traced and untraced.
func (t *tracer) add(name string, start int64, seq, bytes int64) {
	t.addNoted(name, start, seq, bytes, "")
}

func (t *tracer) addNoted(name string, start int64, seq, bytes int64, note string) {
	if t == nil {
		return
	}
	end := t.now()
	parent := ""
	if p := parentKinds[name]; len(p) > 0 {
		parent = p[0]
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Seq: seq, Bytes: bytes, Note: note})
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := t.now()
	err := fn()
	t.add(name, start, 0, 0)
	return err
}

// since returns the spans recorded from index mark on, and the next mark.
func (t *tracer) since(mark int) ([]span, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[mark:]...), len(t.spans)
}

// retie overwrites the spans from index mark on with their reconciled
// copies, which carry the parent and request sequence containment gave them.
func (t *tracer) retie(mark int, tied []span) {
	t.mu.Lock()
	copy(t.spans[mark:], tied)
	t.mu.Unlock()
}

// write dumps every span as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	spans, _ := t.since(0)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// agg is the total of one span kind.
type agg struct {
	count int64
	nanos int64
	bytes int64
}

func (a agg) micros() float64 { return float64(a.nanos) / 1e3 }

// perCall is the kind's mean duration in microseconds.
func (a agg) perCall() float64 {
	if a.count == 0 {
		return 0
	}
	return a.micros() / float64(a.count)
}

// totals sums spans by kind (and note, for the kinds that carry one),
// counting only those that start inside [from, to) on the tracer's clock.
func totals(spans []span, from, to int64) map[string]agg {
	out := map[string]agg{}
	for _, s := range spans {
		if s.Start < from || s.Start >= to {
			continue
		}
		a := out[s.Name+s.Note]
		a.count++
		a.nanos += s.End - s.Start
		a.bytes += s.Bytes
		out[s.Name+s.Note] = a
	}
	return out
}

// reconcile ties every child span of a one-session pass to the parent
// that contains it and checks the accounting: a child lies wholly inside
// exactly one span of a kind that can cause it, the children of one
// parent never overlap or sum past it, and so self + children = parent
// holds exactly with self ≥ 0. It returns the spans with Parent and Seq
// filled in, and each kind's total self time in nanoseconds.
func reconcile(spans []span) ([]span, map[string]int64, error) {
	byKind := map[string][]int{}
	for i, s := range spans {
		byKind[s.Name] = append(byKind[s.Name], i)
	}
	for _, idx := range byKind {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	// enclosing finds the span of kind that contains s.
	enclosing := func(kind string, s span) int {
		idx := byKind[kind]
		i := sort.Search(len(idx), func(i int) bool { return spans[idx[i]].Start > s.Start }) - 1
		if i >= 0 && spans[idx[i]].End >= s.End {
			return idx[i]
		}
		return -1
	}
	kids := map[int][]int{} // parent index → its children's indices
	out := append([]span(nil), spans...)
	// Parents before children, so a Seq set on an append reaches its writes.
	order := []string{spanAppend, spanSync, spanSign, spanLogWrite, spanLogFsync, spanCkptWrite, spanCkptFsync, spanLogRead}
	for _, kind := range order {
		for _, i := range byKind[kind] {
			s := out[i]
			parent := -1
			for _, pk := range parentKinds[kind] {
				if parent = enclosing(pk, s); parent >= 0 {
					break
				}
			}
			if parent < 0 {
				if kind == spanLogRead || kind == spanLogFsync {
					continue // replication-source reads and boot-time syncs have no traced cause
				}
				return nil, nil, fmt.Errorf("%s span [%d,%d] lies inside no %v span", kind, s.Start, s.End, parentKinds[kind])
			}
			kids[parent] = append(kids[parent], i)
			out[i].Parent, out[i].Seq = out[parent].Name, out[parent].Seq
		}
	}
	children := map[int]int64{} // parent index → nanoseconds its children cover
	for parent, idx := range kids {
		sort.Slice(idx, func(a, b int) bool { return out[idx[a]].Start < out[idx[b]].Start })
		var lastEnd int64
		for _, i := range idx {
			if out[i].Start < lastEnd {
				return nil, nil, fmt.Errorf("%s span [%d,%d] overlaps an earlier child of its %s parent", out[i].Name, out[i].Start, out[i].End, out[parent].Name)
			}
			lastEnd = out[i].End
			children[parent] += out[i].End - out[i].Start
		}
	}
	self := map[string]int64{}
	for i, s := range out {
		own := s.End - s.Start - children[i]
		if own < 0 {
			return nil, nil, fmt.Errorf("%s span [%d,%d]: children cover %dns, more than the span", s.Name, s.Start, s.End, children[i])
		}
		self[s.Name] += own
	}
	return out, self, nil
}

// tracedFS wraps a vfs.FS so every file it opens records its writes,
// fsyncs and reads as spans. kinds names the three span kinds, so the log
// directory and the checkpoint directory report apart.
type tracedFS struct {
	vfs.FS
	tr                 *tracer
	write, fsync, read string
}

func (fs *tracedFS) Open(path string, flags vfs.Flags) (vfs.File, error) {
	f, err := fs.FS.Open(path, flags)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, fs: fs}, nil
}

type tracedFile struct {
	vfs.File
	fs *tracedFS
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	start := f.fs.tr.now()
	n, err := f.File.WriteAt(p, off)
	f.fs.tr.add(f.fs.write, start, 0, int64(n))
	return n, err
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fs.read == "" {
		return f.File.ReadAt(p, off)
	}
	start := f.fs.tr.now()
	n, err := f.File.ReadAt(p, off)
	f.fs.tr.add(f.fs.read, start, 0, int64(n))
	return n, err
}

func (f *tracedFile) Sync() error {
	start := f.fs.tr.now()
	err := f.File.Sync()
	f.fs.tr.add(f.fs.fsync, start, 0, 0)
	return err
}

// tracedPeer wraps the primary's connection to a follower.
type tracedPeer struct {
	replica.Peer
	tr *tracer
}

func (p tracedPeer) Append(off int64, b []byte) (int64, error) {
	start := p.tr.now()
	n, err := p.Peer.Append(off, b)
	p.tr.add(spanPeerAppend, start, 0, int64(len(b)))
	return n, err
}

// AppendProof keeps the wrapped peer proof-aware, as cmd/passd's is.
func (p tracedPeer) AppendProof(off int64, b []byte, n uint64, root [32]byte) (int64, error) {
	start := p.tr.now()
	size, err := p.Peer.(replica.ProofPeer).AppendProof(off, b, n, root)
	p.tr.add(spanPeerAppend, start, 0, int64(len(b)))
	return size, err
}
