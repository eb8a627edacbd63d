// Package dpapitest is the reusable DPAPI conformance harness. The DPAPI
// is "the central API inside PASSv2" (§5.2): layers stack freely only if
// every implementation of the object and layer surfaces behaves
// identically — the same read/write/freeze semantics, the same revival
// rules, the same sentinel errors. This package states that contract once
// as table-driven suites; each implementation (Lasagna files and
// phantoms, PA-NFS remote files, observer phantoms, passd RemoteObjects)
// registers a factory and runs the same tests.
//
// Two suites:
//
//   - RunObjects exercises the object surface shared by vfs.PassFile and
//     dpapi.Object: stable identity, provenance-coupled read/write,
//     monotonic freeze, provenance-only and sparse writes.
//
//   - RunLayers exercises the dpapi.Layer surface on top of it:
//     pass_mkobj objects satisfy the object contract, handles close
//     (ErrClosed) without destroying the object, pass_reviveobj reopens
//     objects across handle lifetimes, and the failure sentinels are
//     exact — ErrStale for an unknown pnode in the layer's own space,
//     ErrWrongLayer for a pnode from some other layer's space.
//
// The package also provides CanonicalGraph, a deterministic, identity-
// normalized rendering of a provenance database used by the end-to-end
// equivalence tests: a workload recorded through a remote layer must
// yield a graph byte-identical to the same workload recorded in-process.
package dpapitest

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"passv2/internal/dpapi"
	"passv2/internal/pnode"
	"passv2/internal/record"
	"passv2/internal/waldo"
)

// Object is the surface common to vfs.PassFile and dpapi.Object — the
// four provenance-coupled calls every PASS object answers.
type Object interface {
	Ref() pnode.Ref
	PassRead(p []byte, off int64) (int, pnode.Ref, error)
	PassWrite(p []byte, off int64, b *record.Bundle) (int, error)
	PassFreeze() (pnode.Version, error)
}

// ObjectImpl registers one implementation for RunObjects. Mk builds a
// fresh object and returns a cleanup.
type ObjectImpl struct {
	Name string
	Mk   func(t *testing.T) (Object, func())
}

// LayerImpl registers one implementation for RunLayers. New builds a
// fresh layer and returns a cleanup.
type LayerImpl struct {
	Name string
	New  func(t *testing.T) (dpapi.Layer, func())
}

// RunObjects runs the object-contract suite over every implementation.
func RunObjects(t *testing.T, impls []ObjectImpl) {
	suite := []struct {
		name string
		fn   func(t *testing.T, obj Object)
	}{
		{"IdentityIsStable", testIdentityStable},
		{"WriteThenReadWithIdentity", testWriteThenRead},
		{"FreezeMonotonic", testFreezeMonotonic},
		{"ProvenanceOnlyWrite", testProvenanceOnlyWrite},
		{"OffsetWrites", testOffsetWrites},
	}
	for _, tc := range suite {
		t.Run(tc.name, func(t *testing.T) {
			for _, impl := range impls {
				t.Run(impl.Name, func(t *testing.T) {
					obj, cleanup := impl.Mk(t)
					defer cleanup()
					tc.fn(t, obj)
				})
			}
		})
	}
}

func testIdentityStable(t *testing.T, obj Object) {
	r1 := obj.Ref()
	if !r1.IsValid() {
		t.Fatal("fresh object must have a valid ref")
	}
	if r1.Version != 1 {
		t.Fatalf("fresh object version = %v, want 1", r1.Version)
	}
	if obj.Ref() != r1 {
		t.Fatal("Ref must be stable without writes/freezes")
	}
}

func testWriteThenRead(t *testing.T, obj Object) {
	payload := []byte("dpapi-payload")
	n, err := obj.PassWrite(payload, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(payload) {
		t.Fatalf("short write: %d", n)
	}
	buf := make([]byte, 64)
	rn, ref, err := obj.PassRead(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:rn]) != string(payload) {
		t.Fatalf("read back %q", buf[:rn])
	}
	if ref.PNode != obj.Ref().PNode {
		t.Fatalf("pass_read identity %v != object %v", ref, obj.Ref())
	}
}

func testFreezeMonotonic(t *testing.T, obj Object) {
	prev := obj.Ref().Version
	for i := 0; i < 5; i++ {
		v, err := obj.PassFreeze()
		if err != nil {
			t.Fatal(err)
		}
		if v != prev+1 {
			t.Fatalf("freeze %d: version %v, want %v", i, v, prev+1)
		}
		prev = v
	}
	if obj.Ref().Version != prev {
		t.Fatalf("Ref version %v after freezes, want %v", obj.Ref().Version, prev)
	}
}

func testProvenanceOnlyWrite(t *testing.T, obj Object) {
	dep := pnode.Ref{PNode: 0xFFFF000000000123, Version: 1}
	// The bundle carries a byte-valued record too: every value kind the
	// record codec has must disclose through every layer, remote included.
	n, err := obj.PassWrite(nil, 0, record.NewBundle(
		record.Input(obj.Ref(), dep),
		record.New(obj.Ref(), record.AttrParams, record.Bytes([]byte{0x00, 0xff, 'p'}))))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("provenance-only write returned n=%d", n)
	}
	// The object's data is untouched.
	buf := make([]byte, 8)
	rn, _, err := obj.PassRead(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rn != 0 {
		t.Fatalf("provenance-only write produced data: %q", buf[:rn])
	}
}

func testOffsetWrites(t *testing.T, obj Object) {
	if _, err := obj.PassWrite([]byte("AA"), 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.PassWrite([]byte("BB"), 4, nil); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	n, _, err := obj.PassRead(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := "AA\x00\x00BB"
	if string(buf[:n]) != want {
		t.Fatalf("sparse content %q, want %q", buf[:n], want)
	}
}

// RunLayers runs the layer-contract suite — pass_mkobj, pass_reviveobj,
// handle lifecycle and the sentinel errors — over every implementation.
// Object behavior must be identical too, so the object suite runs against
// each layer's mkobj objects.
func RunLayers(t *testing.T, impls []LayerImpl) {
	objImpls := make([]ObjectImpl, 0, len(impls))
	for _, impl := range impls {
		impl := impl
		objImpls = append(objImpls, ObjectImpl{
			Name: impl.Name,
			Mk: func(t *testing.T) (Object, func()) {
				l, cleanup := impl.New(t)
				obj, err := l.PassMkobj()
				if err != nil {
					cleanup()
					t.Fatal(err)
				}
				return obj, func() { obj.Close(); cleanup() }
			},
		})
	}
	t.Run("MkobjObjects", func(t *testing.T) { RunObjects(t, objImpls) })

	suite := []struct {
		name string
		fn   func(t *testing.T, l dpapi.Layer)
	}{
		{"ReviveAcrossHandles", testReviveAcrossHandles},
		{"ReviveStale", testReviveStale},
		{"ReviveWrongLayer", testReviveWrongLayer},
		{"ClosedHandle", testClosedHandle},
	}
	for _, tc := range suite {
		t.Run(tc.name, func(t *testing.T) {
			for _, impl := range impls {
				t.Run(impl.Name, func(t *testing.T) {
					l, cleanup := impl.New(t)
					defer cleanup()
					tc.fn(t, l)
				})
			}
		})
	}
}

// testReviveAcrossHandles is §6.5's session pattern: create, disclose,
// close the handle, revive by reference, and keep disclosing — the object
// outlives every handle.
func testReviveAcrossHandles(t *testing.T, l dpapi.Layer) {
	obj, err := l.PassMkobj()
	if err != nil {
		t.Fatal(err)
	}
	ref := obj.Ref()
	if err := dpapi.Disclose(obj, record.New(ref, record.AttrType, record.StringVal(record.TypeSession))); err != nil {
		t.Fatal(err)
	}
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := l.PassReviveObj(ref)
	if err != nil {
		t.Fatalf("revive after close: %v", err)
	}
	if back.Ref().PNode != ref.PNode {
		t.Fatalf("revived %v, want pnode %v", back.Ref(), ref.PNode)
	}
	if err := dpapi.Disclose(back, record.New(back.Ref(), record.AttrName, record.StringVal("revived"))); err != nil {
		t.Fatalf("disclose on revived handle: %v", err)
	}
	v, err := back.PassFreeze()
	if err != nil {
		t.Fatal(err)
	}
	if v != ref.Version+1 {
		t.Fatalf("freeze on revived handle: version %v, want %v", v, ref.Version+1)
	}
}

// testReviveStale: a pnode in this layer's space that was never allocated
// must be ErrStale.
func testReviveStale(t *testing.T, l dpapi.Layer) {
	obj, err := l.PassMkobj()
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	ghost := pnode.Ref{PNode: obj.Ref().PNode + 1<<40, Version: 1}
	if _, err := l.PassReviveObj(ghost); !errors.Is(err, dpapi.ErrStale) {
		t.Fatalf("revive of unallocated pnode: err = %v, want ErrStale", err)
	}
}

// testReviveWrongLayer: a pnode from another layer's volume space must be
// ErrWrongLayer, not ErrStale — the caller addressed the wrong layer, and
// the distinction tells a stacked component to route downward.
func testReviveWrongLayer(t *testing.T, l dpapi.Layer) {
	obj, err := l.PassMkobj()
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	foreign := uint64(pnode.VolumePrefix(obj.Ref().PNode))<<48 ^ 1<<48 | 42
	if _, err := l.PassReviveObj(pnode.Ref{PNode: pnode.PNode(foreign), Version: 1}); !errors.Is(err, dpapi.ErrWrongLayer) {
		t.Fatalf("revive of foreign-space pnode: err = %v, want ErrWrongLayer", err)
	}
}

// testClosedHandle: every call on a closed handle is ErrClosed, and
// closing never destroys the object (it revives).
func testClosedHandle(t *testing.T, l dpapi.Layer) {
	obj, err := l.PassMkobj()
	if err != nil {
		t.Fatal(err)
	}
	ref := obj.Ref()
	if err := obj.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := obj.PassWrite(nil, 0, record.NewBundle(record.New(ref, record.AttrName, record.StringVal("x")))); !errors.Is(err, dpapi.ErrClosed) {
		t.Fatalf("PassWrite on closed handle: %v, want ErrClosed", err)
	}
	if _, _, err := obj.PassRead(make([]byte, 4), 0); !errors.Is(err, dpapi.ErrClosed) {
		t.Fatalf("PassRead on closed handle: %v, want ErrClosed", err)
	}
	if _, err := obj.PassFreeze(); !errors.Is(err, dpapi.ErrClosed) {
		t.Fatalf("PassFreeze on closed handle: %v, want ErrClosed", err)
	}
	if err := obj.PassSync(); !errors.Is(err, dpapi.ErrClosed) {
		t.Fatalf("PassSync on closed handle: %v, want ErrClosed", err)
	}
	if err := obj.Close(); !errors.Is(err, dpapi.ErrClosed) {
		t.Fatalf("double Close: %v, want ErrClosed", err)
	}
	if _, err := l.PassReviveObj(ref); err != nil {
		t.Fatalf("object must survive its handles: revive after close: %v", err)
	}
}

// CanonicalGraph renders the union of one or more provenance databases in
// a deterministic, identity-normalized form: pnode numbers are replaced
// by labels derived from NAME/TYPE records, references carry versions,
// and lines are sorted. Two runs of the same deterministic workload yield
// byte-identical canonical graphs even though their raw pnode numbers
// come from different allocators (a remote layer allocates phantoms from
// the daemon's volume space, an in-process run from the kernel's
// transient space) — which is exactly the equivalence the end-to-end
// remote-layering tests assert.
func CanonicalGraph(dbs ...*waldo.DB) string {
	type pinfo struct {
		name string
		typ  string
	}
	// One entry per pnode across all databases: a pnode referenced in
	// several (a file ref crossing into a remote daemon's database, say)
	// is the same object, and its label comes from whichever database
	// recorded its NAME/TYPE.
	info := make(map[pnode.PNode]*pinfo)
	for _, db := range dbs {
		for _, pn := range db.AllPNodes() {
			pi := info[pn]
			if pi == nil {
				pi = &pinfo{}
				info[pn] = pi
			}
			if pi.name == "" {
				pi.name, _ = db.NameOf(pn)
			}
			if pi.typ == "" {
				pi.typ, _ = db.TypeOf(pn)
			}
		}
	}
	// Canonical label: NAME (or ?TYPE for unnamed objects), suffixed with
	// a rank when several pnodes share it. Ranks follow numeric pnode
	// order, which is creation order within any one allocator — stable
	// across runs of a deterministic workload.
	pns := make([]pnode.PNode, 0, len(info))
	for pn := range info {
		pns = append(pns, pn)
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	canon := make(map[pnode.PNode]string, len(pns))
	seen := make(map[string]int)
	for _, pn := range pns {
		pi := info[pn]
		base := pi.name
		if base == "" {
			base = "?" + pi.typ
		}
		k := seen[base]
		seen[base] = k + 1
		if k == 0 {
			canon[pn] = base
		} else {
			canon[pn] = fmt.Sprintf("%s#%d", base, k)
		}
	}
	label := func(ref pnode.Ref) string {
		c, ok := canon[ref.PNode]
		if !ok {
			c = ref.PNode.String()
		}
		return fmt.Sprintf("%s@%s", c, ref.Version)
	}
	var lines []string
	for _, db := range dbs {
		for _, ref := range db.AllRefs() {
			for _, rec := range db.Attrs(ref) {
				val := rec.Value.String()
				if dep, ok := rec.Value.AsRef(); ok {
					val = label(dep)
				}
				lines = append(lines, fmt.Sprintf("%s %s %s", label(rec.Subject), rec.Attr, val))
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}
