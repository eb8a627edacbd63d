package passd

// Tamper evidence on the wire (DESIGN.md §13): the "verify" verb serves
// signed roots and Merkle proofs over the daemon's provenance log, and
// proof-carrying replicated appends let a follower refuse a forked
// primary before the divergence reaches its durable log.

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"time"

	"passv2/internal/mmr"
	"passv2/internal/signer"
)

// TamperConfig wires a server to the tamper-evidence stack built in
// internal/mmr, internal/signer and internal/provlog.
type TamperConfig struct {
	// Volume names the provenance-log volume the MMR covers; it is the
	// volume signed root statements assert about.
	Volume string
	// MMR returns the live Merkle mountain range over the volume's log.
	// It is a func, not a pointer, because Rehydrate may swap the range
	// for a freshly rebuilt one; callers must re-fetch after rehydrating.
	MMR func() *mmr.MMR
	// Rehydrate upgrades a pruned (peak-file-resumed) range to full proof
	// capability by rescanning the log. Nil means proofs on a pruned
	// range simply fail with mmr.ErrPruned.
	Rehydrate func() error
	// Signer signs ad-hoc root statements for the "verify" verb. Nil
	// serves unsigned roots (proofs still work — they are self-verifying
	// against a root obtained out of band).
	Signer *signer.Identity
	// SaveState persists the MMR peak snapshot after a checkpoint
	// commits, so the next boot resumes the range in O(log n) instead of
	// rescanning the whole log. Failures are housekeeping lag, counted
	// but never fatal.
	SaveState func() error
}

// ErrForked is a follower refusing replicated bytes whose claimed MMR
// root disagrees with the root the follower recomputed over the same
// prefix: the primary's history and the follower's history are different
// logs. Never retryable — resending the same bytes cannot reconcile two
// divergent histories; an operator must re-seed one side.
var ErrForked = errors.New("passd: replicated stream diverges from local history (forked)")

// checkFork verifies a proof-carrying "replappend" against the follower's
// own MMR. Chunks without a root claim (an older primary, or proofs not
// configured on either side) pass through unchecked — the feature
// degrades to plain replication, it never wedges it.
func (s *Server) checkFork(req *Request) error {
	f := s.cfg.Feeder
	if f == nil || req.MMRRoot == "" {
		return nil
	}
	claimed, err := hex.DecodeString(req.MMRRoot)
	if err != nil || len(claimed) != len(mmr.Hash{}) {
		return fmt.Errorf("replappend: malformed mmr_root claim: %w", ErrForked)
	}
	// A chunk starting past the fed prefix is a stream gap, not a fork:
	// skip the check and let the durable log refuse it with its usual gap
	// error, so the primary re-reads our state and backfills.
	if req.Off > f.Expected() {
		return nil
	}
	// Feed before comparing: the claim covers the prefix *including* this
	// chunk. Feed poisons itself on a frame whose CRC fails — bytes the
	// primary never wrote — and stays poisoned after a detected fork.
	if err := f.Feed(req.Off, req.Data); err != nil {
		s.met.forkRefusals.Inc()
		return fmt.Errorf("replappend: %v: %w", err, ErrForked)
	}
	got, err := f.RootAt(req.MMRSize)
	if err != nil {
		s.met.forkRefusals.Inc()
		f.Poison(fmt.Errorf("%w: primary claims %d leaves: %v", ErrForked, req.MMRSize, err))
		return fmt.Errorf("replappend: root claim at %d leaves unanswerable (%v): %w", req.MMRSize, err, ErrForked)
	}
	var want mmr.Hash
	copy(want[:], claimed)
	if got != want {
		s.met.forkRefusals.Inc()
		f.Poison(fmt.Errorf("%w: root mismatch at %d leaves", ErrForked, req.MMRSize))
		return fmt.Errorf("replappend: root mismatch at %d leaves: primary claims %s, local log has %s: %w",
			req.MMRSize, req.MMRRoot, hex.EncodeToString(got[:]), ErrForked)
	}
	return nil
}

// rehydrated runs op against the live MMR, rehydrating once and retrying
// if the range is pruned. The rehydrate mutex keeps concurrent verifies
// from rescanning the log twice; the double-check inside it makes the
// second waiter a no-op.
func (s *Server) rehydrated(op func(m *mmr.MMR) error) error {
	t := s.cfg.Tamper
	err := op(t.MMR())
	if !errors.Is(err, mmr.ErrPruned) || t.Rehydrate == nil {
		return err
	}
	s.rehydrateMu.Lock()
	if t.MMR().Pruned() {
		if rerr := t.Rehydrate(); rerr != nil {
			s.rehydrateMu.Unlock()
			return fmt.Errorf("rehydrating pruned range: %v (proof request: %w)", rerr, err)
		}
	}
	s.rehydrateMu.Unlock()
	return op(t.MMR())
}

// doVerify serves the "verify" verb: a signed root statement, an
// inclusion proof for one record position, or a consistency proof
// between two tree sizes. Everything returned is client-checkable with
// internal/mmr's verifiers and internal/signer's Verify — the daemon is
// not trusted, it is audited.
func (s *Server) doVerify(_ *connState, req *Request) Response {
	t := s.cfg.Tamper
	if t == nil {
		return Response{Error: "verify: tamper evidence is not enabled on this daemon"}
	}
	s.met.verifies.Inc()
	op := strings.ToLower(req.VerifyOp)
	if op == "" {
		op = "root"
	}
	switch op {
	case "root":
		return s.verifyRoot(req, t)
	case "include":
		return s.verifyInclude(req, t)
	case "consistency":
		return s.verifyConsistency(req, t)
	default:
		return Response{Error: fmt.Sprintf("verify: unknown op %q (want root, include or consistency)", req.VerifyOp)}
	}
}

func (s *Server) verifyRoot(req *Request, t *TamperConfig) Response {
	m := t.MMR()
	size := req.MMRSize
	if size == 0 {
		size = m.Count()
	}
	var root mmr.Hash
	err := s.rehydrated(func(m *mmr.MMR) error {
		var rerr error
		root, rerr = m.RootAt(size)
		return rerr
	})
	if err != nil {
		return Response{Error: "verify: " + err.Error()}
	}
	wv := &WireVerify{
		Op:     "root",
		Volume: t.Volume,
		Size:   size,
		Root:   hex.EncodeToString(root[:]),
	}
	if id := t.Signer; id != nil {
		st := signer.Statement{
			Volume:    t.Volume,
			Root:      root,
			Size:      size,
			Gen:       0, // ad-hoc wire statement, not a checkpoint
			Timestamp: uint64(time.Now().Unix()),
		}
		sig := id.Sign(st)
		wv.DeviceID = hex.EncodeToString(id.DeviceID[:])
		wv.PubKey = hex.EncodeToString(id.Pub)
		wv.Sig = hex.EncodeToString(sig)
		wv.Timestamp = st.Timestamp
	}
	return Response{Verify: wv}
}

func (s *Server) verifyInclude(req *Request, t *TamperConfig) Response {
	size := req.MMRSize
	if size == 0 {
		size = t.MMR().Count()
	}
	var (
		proof mmr.InclusionProof
		leaf  mmr.Hash
		root  mmr.Hash
	)
	err := s.rehydrated(func(m *mmr.MMR) error {
		var rerr error
		if proof, rerr = m.ProveAt(req.VerifyIndex, size); rerr != nil {
			return rerr
		}
		if leaf, rerr = m.Leaf(req.VerifyIndex); rerr != nil {
			return rerr
		}
		root, rerr = m.RootAt(size)
		return rerr
	})
	if err != nil {
		return Response{Error: "verify: " + err.Error()}
	}
	return Response{Verify: &WireVerify{
		Op:     "include",
		Volume: t.Volume,
		Size:   size,
		Root:   hex.EncodeToString(root[:]),
		Index:  req.VerifyIndex,
		Leaf:   hex.EncodeToString(leaf[:]),
		Path:   hexHashes(proof.Path),
		Peaks:  hexHashes(proof.Peaks),
	}}
}

func (s *Server) verifyConsistency(req *Request, t *TamperConfig) Response {
	from, to := req.VerifyFrom, req.VerifyTo
	if to == 0 {
		to = t.MMR().Count()
	}
	var (
		proof   mmr.ConsistencyProof
		oldRoot mmr.Hash
		newRoot mmr.Hash
	)
	err := s.rehydrated(func(m *mmr.MMR) error {
		var rerr error
		if proof, rerr = m.Consistency(from, to); rerr != nil {
			return rerr
		}
		if oldRoot, rerr = m.RootAt(from); rerr != nil {
			return rerr
		}
		newRoot, rerr = m.RootAt(to)
		return rerr
	})
	if err != nil {
		return Response{Error: "verify: " + err.Error()}
	}
	return Response{Verify: &WireVerify{
		Op:       "consistency",
		Volume:   t.Volume,
		Size:     to,
		Root:     hex.EncodeToString(newRoot[:]),
		OldSize:  from,
		OldRoot:  hex.EncodeToString(oldRoot[:]),
		OldPeaks: hexHashes(proof.OldPeaks),
		Fillers:  hexHashes(proof.Fillers),
	}}
}

func hexHashes(hs []mmr.Hash) []string {
	if hs == nil {
		return nil
	}
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = hex.EncodeToString(h[:])
	}
	return out
}

func decodeHexHashes(ss []string) ([]mmr.Hash, error) {
	if ss == nil {
		return nil, nil
	}
	out := make([]mmr.Hash, len(ss))
	for i, s := range ss {
		b, err := hex.DecodeString(s)
		if err != nil || len(b) != len(mmr.Hash{}) {
			return nil, fmt.Errorf("passd: malformed hash %q", s)
		}
		copy(out[i][:], b)
	}
	return out, nil
}

func decodeHexHash(s string) (mmr.Hash, error) {
	var h mmr.Hash
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(h) {
		return h, fmt.Errorf("passd: malformed hash %q", s)
	}
	copy(h[:], b)
	return h, nil
}

// RootHash decodes the answer's root.
func (w *WireVerify) RootHash() (mmr.Hash, error) { return decodeHexHash(w.Root) }

// Inclusion reconstructs the native inclusion proof and the proven leaf
// from an op:"include" answer, ready for mmr.VerifyInclusion.
func (w *WireVerify) Inclusion() (mmr.InclusionProof, mmr.Hash, error) {
	leaf, err := decodeHexHash(w.Leaf)
	if err != nil {
		return mmr.InclusionProof{}, leaf, err
	}
	path, err := decodeHexHashes(w.Path)
	if err != nil {
		return mmr.InclusionProof{}, leaf, err
	}
	peaks, err := decodeHexHashes(w.Peaks)
	if err != nil {
		return mmr.InclusionProof{}, leaf, err
	}
	return mmr.InclusionProof{Index: w.Index, Size: w.Size, Path: path, Peaks: peaks}, leaf, nil
}

// Consistency reconstructs the native consistency proof from an
// op:"consistency" answer, ready for mmr.VerifyConsistency (the old root
// is in OldRoot, the new one in Root).
func (w *WireVerify) Consistency() (mmr.ConsistencyProof, error) {
	oldPeaks, err := decodeHexHashes(w.OldPeaks)
	if err != nil {
		return mmr.ConsistencyProof{}, err
	}
	fillers, err := decodeHexHashes(w.Fillers)
	if err != nil {
		return mmr.ConsistencyProof{}, err
	}
	return mmr.ConsistencyProof{OldSize: w.OldSize, NewSize: w.Size, OldPeaks: oldPeaks, Fillers: fillers}, nil
}

// Statement reconstructs the signed root statement and its signature
// bytes from an op:"root" answer, ready for signer.Verify against the
// decoded public key.
func (w *WireVerify) Statement() (signer.Statement, []byte, []byte, error) {
	st := signer.Statement{Volume: w.Volume, Size: w.Size, Gen: 0, Timestamp: w.Timestamp}
	root, err := decodeHexHash(w.Root)
	if err != nil {
		return st, nil, nil, err
	}
	st.Root = root
	id, err := hex.DecodeString(w.DeviceID)
	if err != nil || len(id) != len(st.DeviceID) {
		return st, nil, nil, fmt.Errorf("passd: malformed device id %q", w.DeviceID)
	}
	copy(st.DeviceID[:], id)
	pub, err := hex.DecodeString(w.PubKey)
	if err != nil {
		return st, nil, nil, fmt.Errorf("passd: malformed public key %q", w.PubKey)
	}
	sig, err := hex.DecodeString(w.Sig)
	if err != nil {
		return st, nil, nil, fmt.Errorf("passd: malformed signature %q", w.Sig)
	}
	return st, sig, pub, nil
}
