package passd

// Server-side DPAPI object registry. The daemon is a layer in the
// paper's sense (§5.2): clients above it create phantom objects
// (browser sessions, workflow operators, invocations), disclose provenance
// against them, freeze them to break cycles, and revive them across
// connections. The registry is the daemon's half of that contract:
//
//   - every phantom is a waldo-backed object: its records are committed
//     through the server's single durable-ack path (commitRecords in
//     server.go) and land in the same database queries run over;
//   - disclosed bundles pass through an analyzer (duplicate elimination +
//     cycle avoidance), exactly as the in-process observer phantoms do, so
//     a stack of layers behaves the same whether its lower layer is local
//     or remote;
//   - wire handles are per-connection and cheap; the object itself lives
//     in the registry, so a disconnect releases handles without destroying
//     provenance, and pass_reviveobj reopens the object on a later
//     connection;
//   - crash survival rides the PR 4 checkpoint machinery for free: every
//     acknowledged record — including the AttrMkobj allocation record a
//     log-backed daemon stages per pass_mkobj, so even a never-disclosed
//     identity is not re-issued — is in the checkpointed log/database,
//     and the registry's in-memory residue (allocator position, current
//     versions) is reseeded from the recovered database (waldo MaxPNode +
//     LatestVersion), so an open remote transaction survives a SIGKILL.
//     Phantom *data* buffers are volatile, matching in-process phantoms.

import (
	"fmt"
	"sync"

	"passv2/internal/analyzer"
	"passv2/internal/dpapi"
	"passv2/internal/pnode"
	"passv2/internal/record"
	"passv2/internal/waldo"
)

// DefaultObjectVolume is the pnode volume prefix remote phantom objects
// are allocated from. It sits just below the kernel's transient space
// (0xFFFF) so remote phantoms never collide with local transient objects
// or with on-disk volumes.
const DefaultObjectVolume uint16 = 0xFFFE

// registry is the server's object table: pnode → live object, plus the
// allocator that mints new phantom identities.
type registry struct {
	alloc *pnode.Allocator
	an    *analyzer.Analyzer
	w     *waldo.Waldo

	mu   sync.Mutex
	objs map[pnode.PNode]*serverObject
}

// newRegistry builds a registry whose allocator resumes past the highest
// prefix-space pnode the (possibly checkpoint-recovered) database already
// knows, preserving the never-recycled pnode guarantee across restarts.
func newRegistry(w *waldo.Waldo) *registry {
	alloc := pnode.NewPrefixed(DefaultObjectVolume)
	if max, ok := w.DB.MaxPNode(DefaultObjectVolume); ok {
		alloc.SeedPast(max)
	}
	return &registry{
		alloc: alloc,
		an:    analyzer.New(),
		w:     w,
		objs:  make(map[pnode.PNode]*serverObject),
	}
}

// count reports live objects (stats).
func (rg *registry) count() int64 {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	return int64(len(rg.objs))
}

// mkobj mints a fresh phantom object at version 1. The returned object
// already holds one handle reference (the caller is about to hand out a
// wire handle); callers on error paths must release it.
func (rg *registry) mkobj() *serverObject {
	pn := rg.alloc.Next()
	obj := &serverObject{reg: rg, handles: 1, ref: pnode.Ref{PNode: pn, Version: 1}}
	rg.mu.Lock()
	rg.objs[pn] = obj
	rg.mu.Unlock()
	return obj
}

// release drops one wire handle (close verb, connection teardown, or a
// failed mkobj). When the last handle goes, the object's data buffer is
// freed — phantom data is volatile staging, and its size is
// client-controlled, so it must not outlive every handle — and the
// registry entry itself is dropped once the database can reconstruct the
// object at its current version (revive's cold path). An identity the
// database cannot yet reconstruct keeps its entry, so closing a handle
// never destroys an object (§5.2): it stays revivable either from memory
// or from its committed records.
func (rg *registry) release(obj *serverObject) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	obj.handles--
	if obj.handles > 0 {
		return
	}
	obj.dropData()
	ref := obj.Ref()
	if dbv, known := rg.w.DB.LatestVersion(ref.PNode); known && dbv >= ref.Version {
		delete(rg.objs, ref.PNode)
	}
}

// observeRecords advances the allocator past every in-prefix identity a
// committed record mentions (as subject or cross-reference), mirroring
// newRegistry's boot-time reseed: however an identity enters the store,
// mkobj must never re-issue it (§5.2).
func (rg *registry) observeRecords(recs []record.Record) {
	for _, r := range recs {
		if pnode.VolumePrefix(r.Subject.PNode) == DefaultObjectVolume {
			rg.alloc.SeedPast(r.Subject.PNode)
		}
		if dep, ok := r.Value.AsRef(); ok && pnode.VolumePrefix(dep.PNode) == DefaultObjectVolume {
			rg.alloc.SeedPast(dep.PNode)
		}
	}
}

// sweepZeroHandle drops zero-handle entries for the given subjects once
// the database can reconstruct them at their current version. Implicit
// bundle-subject entries (created by nodeForSubject, never retained by a
// wire handle) only need registry residence while their records are in
// flight; without this sweep every distinct referenced subject would pin
// a map entry for the process lifetime.
func (rg *registry) sweepZeroHandle(pns []pnode.PNode) {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	for _, pn := range pns {
		obj, ok := rg.objs[pn]
		if !ok || obj.handles > 0 {
			continue
		}
		ref := obj.Ref()
		if dbv, known := rg.w.DB.LatestVersion(pn); known && dbv >= ref.Version {
			delete(rg.objs, pn)
		}
	}
}

// revive reopens an object by reference. An unknown pnode in the
// registry's own space falls back to the database — after a reconnect or
// a daemon restart the object's records are there even though the
// in-memory table is empty — draining first so records acknowledged but
// not yet ingested are visible. A pnode from another layer's space is
// ErrWrongLayer; a pnode nobody has ever seen is ErrStale (§5.2).
// The returned object carries an extra handle reference, taken inside
// the registry lock so a concurrent release of the last other handle
// cannot evict the object between lookup and retain.
func (rg *registry) revive(ref pnode.Ref) (*serverObject, error) {
	if pnode.VolumePrefix(ref.PNode) != DefaultObjectVolume {
		return nil, dpapi.ErrWrongLayer
	}
	rg.mu.Lock()
	obj, ok := rg.objs[ref.PNode]
	if ok {
		obj.handles++
		rg.mu.Unlock()
		return obj, nil
	}
	rg.mu.Unlock()
	// Cold lookup: make everything logged visible, then ask the database.
	if err := rg.w.Drain(); err != nil {
		return nil, err
	}
	v, known := rg.w.DB.LatestVersion(ref.PNode)
	if !known {
		return nil, dpapi.ErrStale
	}
	obj = &serverObject{reg: rg, handles: 1, ref: pnode.Ref{PNode: ref.PNode, Version: v}}
	rg.mu.Lock()
	if prior, raced := rg.objs[ref.PNode]; raced {
		prior.handles++
		obj = prior
	} else {
		rg.objs[ref.PNode] = obj
	}
	rg.mu.Unlock()
	return obj, nil
}

// nodeForSubject resolves the analyzer node for one bundle subject: a
// registry object for our own space (created implicitly if the bundle
// describes an object we have not handed out — bundles may describe any
// object by reference, §5.2), a static foreign node otherwise. An
// implicit creation consults the database so a reference at an old
// version cannot pin a pre-crash object below its recovered latest
// version.
func (rg *registry) nodeForSubject(ref pnode.Ref) analyzer.Node {
	if pnode.VolumePrefix(ref.PNode) != DefaultObjectVolume {
		return foreignNode{ref: ref}
	}
	rg.mu.Lock()
	defer rg.mu.Unlock()
	obj, ok := rg.objs[ref.PNode]
	if !ok {
		v := ref.Version
		if dbv, known := rg.w.DB.LatestVersion(ref.PNode); known && dbv > v {
			v = dbv
		}
		obj = &serverObject{reg: rg, ref: pnode.Ref{PNode: ref.PNode, Version: v}}
		rg.objs[ref.PNode] = obj
	}
	return obj
}

// foreignNode stands in for an object some other layer owns (a client-side
// file, a pnode from a Lasagna volume). Its records deduplicate here but
// it cannot be frozen by this layer.
type foreignNode struct{ ref pnode.Ref }

func (n foreignNode) Ref() pnode.Ref { return n.ref }
func (n foreignNode) Freeze() (pnode.Version, error) {
	return 0, dpapi.ErrWrongLayer
}

// serverObject is one remote phantom: the identity/version cell plus the
// in-memory data buffer (phantoms have nothing below them to store data
// in, §5.5 — same as observer and Lasagna phantoms). It implements
// analyzer.Node so the shared cycle-avoidance algorithm versions it.
type serverObject struct {
	reg *registry

	// handles counts open wire handles across all connections; guarded
	// by reg.mu (see retain/release).
	handles int

	mu  sync.Mutex
	ref pnode.Ref
	buf []byte
}

// dropData frees the phantom's volatile data buffer.
func (o *serverObject) dropData() {
	o.mu.Lock()
	o.buf = nil
	o.mu.Unlock()
}

// Ref returns the object's current identity.
func (o *serverObject) Ref() pnode.Ref {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.ref
}

// Freeze bumps the version (analyzer.Node; the analyzer emits the
// version-chain record).
func (o *serverObject) Freeze() (pnode.Version, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ref.Version++
	return o.ref.Version, nil
}

// maxPhantomBytes caps a phantom's in-memory data buffer. Phantom data is
// a staging area with no file beneath it (§5.5), and it is sized by a
// remote, untrusted request — without the cap one write at a huge offset
// would make the daemon allocate the offset. 1 MiB also keeps any single
// write's JSON line comfortably inside the server's 4 MiB line budget.
const maxPhantomBytes = 1 << 20

// checkDataSpan validates a wire-supplied (offset, length) pair before
// anything is staged, so an invalid write fails whole — records included
// (the records-then-data unit must be all or nothing).
func checkDataSpan(n int, off int64) error {
	if n == 0 {
		return nil
	}
	if off < 0 {
		return fmt.Errorf("passd: negative data offset %d", off)
	}
	if end := off + int64(n); end > maxPhantomBytes {
		return fmt.Errorf("passd: data ends at byte %d, beyond the %d-byte phantom cap", end, int64(maxPhantomBytes))
	}
	return nil
}

// readAt returns up to n bytes of the phantom's in-memory data starting
// at off, and the identity it was read at (pass_read's contract: data
// plus the exact version). The allocation is bounded by what is actually
// readable, never by the request.
func (o *serverObject) readAt(n int, off int64) ([]byte, pnode.Ref) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if n <= 0 || off < 0 || off >= int64(len(o.buf)) {
		return nil, o.ref
	}
	if avail := int64(len(o.buf)) - off; int64(n) > avail {
		n = int(avail)
	}
	out := make([]byte, n)
	copy(out, o.buf[off:])
	return out, o.ref
}

// writeData grows and fills the in-memory buffer; the span must have
// passed checkDataSpan. Provenance is handled by the caller (server.go)
// so the records and the data commit as one unit.
func (o *serverObject) writeData(p []byte, off int64) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if err := checkDataSpan(len(p), off); err != nil {
		return 0, err
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	end := off + int64(len(p))
	if end > int64(len(o.buf)) {
		grown := make([]byte, end)
		copy(grown, o.buf)
		o.buf = grown
	}
	copy(o.buf[off:], p)
	return len(p), nil
}

// process runs a disclosed bundle through the registry's analyzer grouped
// by subject — the same per-subject discipline the in-process observer
// applies — and returns the surviving records, rewritten across any
// cycle-avoidance freezes, plus the distinct subject pnodes (for the
// caller's post-commit sweepZeroHandle).
func (rg *registry) process(recs []record.Record) ([]record.Record, []pnode.PNode, error) {
	var out []record.Record
	order, groups := record.GroupBySubject(recs)
	for _, pn := range order {
		group := groups[pn]
		node := rg.nodeForSubject(group[0].Subject)
		processed, err := rg.an.Process(node, group...)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, processed...)
	}
	return out, order, nil
}
