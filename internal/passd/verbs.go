package passd

import (
	"fmt"
	"strings"
)

// verbSpec is everything the daemon and the client need to know about one
// wire verb. This table is the only place a verb name is mapped to its
// properties: dispatch, lane choice, the metric label, the durable-ack
// barrier, the staged-bytes quota charge, batch admission and the
// client's retry policy all read it, so adding or changing a verb is one
// edit here (TestVerbTable pins the sets).
type verbSpec struct {
	// name is the canonical lower-case verb, the bounded label the per-verb
	// metric families use.
	name    string
	handler func(*Server, *connState, *Request) Response

	// serial verbs run on the connection's serial lane: DPAPI verbs share
	// the per-connection handle table (connState) and record-staging verbs
	// keep their arrival order. Everything else touches only shared state
	// with its own synchronization and runs concurrently — the split that
	// lets a fast query overtake a slow disclosure on the same connection.
	serial bool
	// commits marks a single-op verb that can stage records and therefore
	// owes the durable-ack barrier before its reply ("batch" runs its own,
	// once for the whole pipeline).
	commits bool
	// staged verbs put record bytes into the durable-ack pipeline; the
	// per-tenant staged-bytes/sec quota charges them by wire size.
	staged bool
	// idempotent verbs may be blindly re-sent by the client after an
	// ambiguous transport failure (the request may have executed). Reads
	// and forced barriers are; record-staging writes are not — re-executing
	// one after a lost ack would disclose its records twice on the basis of
	// a guess. (Replicated appends are the engineered exception: the
	// follower log skips already-held prefixes, which is what makes the
	// replication stream safe under at-least-once delivery.)
	idempotent bool
	// batchable verbs are the six DPAPI calls plus revive — the ops a
	// "batch" may pipeline. Batches do not nest.
	batchable bool
}

// verbs is filled in init rather than by its declaration because the
// batch handler looks its ops up here, which a declaration-time literal
// would make an initialization cycle.
var verbs map[string]*verbSpec

func init() {
	verbs = map[string]*verbSpec{
		"hello":      {handler: (*Server).doHello, idempotent: true},
		"ping":       {handler: (*Server).doPing, idempotent: true},
		"query":      {handler: (*Server).doQuery, idempotent: true},
		"explain":    {handler: (*Server).doExplain, idempotent: true},
		"stats":      {handler: (*Server).doStats, idempotent: true},
		"drain":      {handler: (*Server).doDrain, idempotent: true},
		"checkpoint": {handler: (*Server).doCheckpointVerb, idempotent: true},
		"verify":     {handler: (*Server).doVerify, idempotent: true},

		"mkobj":  {handler: primaryOnly((*Server).doMkobj), serial: true, commits: true, staged: true, batchable: true},
		"revive": {handler: (*Server).doRevive, serial: true, idempotent: true, batchable: true},
		"read":   {handler: (*Server).doRead, serial: true, idempotent: true, batchable: true},
		"write":  {handler: primaryOnly((*Server).doWrite), serial: true, commits: true, staged: true, batchable: true},
		"freeze": {handler: primaryOnly((*Server).doFreeze), serial: true, commits: true, staged: true, batchable: true},
		"sync":   {handler: (*Server).doSync, serial: true, commits: true, idempotent: true, batchable: true},
		"close":  {handler: (*Server).doClose, serial: true, batchable: true},
		"batch":  {handler: (*Server).doBatch, serial: true, staged: true},

		"repljoin":   {handler: (*Server).doReplJoin, idempotent: true},
		"replstate":  {handler: (*Server).doReplState, idempotent: true},
		"replappend": {handler: (*Server).doReplAppend, serial: true, idempotent: true},
	}
	for name, v := range verbs {
		v.name = name
	}
}

// unknownVerb stands in for any op not in the table: it collapses into
// one metric label, so a peer spraying garbage cannot grow label
// cardinality without bound, and runs on the serial lane, where the
// refusal keeps its place in the connection's order.
var unknownVerb = &verbSpec{
	name:   "unknown",
	serial: true,
	handler: func(_ *Server, _ *connState, req *Request) Response {
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	},
}

// verbFor resolves a wire op (case-insensitive) to its table entry.
func verbFor(op string) *verbSpec {
	if v, ok := verbs[strings.ToLower(op)]; ok {
		return v
	}
	return unknownVerb
}

// primaryOnly refuses a record-staging DPAPI verb on a replication
// follower: its log is a verbatim copy of the primary's, and letting a
// client write here would fork it. Reads, revives and closes keep working
// — that is what read failover and hedging stand on.
func primaryOnly(h func(*Server, *connState, *Request) Response) func(*Server, *connState, *Request) Response {
	return func(s *Server, cs *connState, req *Request) Response {
		if s.cfg.Follower != nil {
			return errResponse(ErrReadOnly)
		}
		return h(s, cs, req)
	}
}
