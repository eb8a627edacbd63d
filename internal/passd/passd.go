// Package passd is the PASSv2 provenance daemon: a TCP serving layer over
// a Waldo database, the piece the paper's user-level stack stops short of
// (§5.6 runs Waldo and the query shell in one process, one client at a
// time). It exists so many clients can query a database that is still
// ingesting: every query pins an O(1) snapshot (waldo.DB.ReadView over
// kvdb's copy-on-write views), so readers never contend with ApplyBatch —
// the serialization the in-process path pays on waldo.DB's store lock.
//
// The wire protocol (DESIGN.md §9) is one transport: a connection opens
// with a single JSON hello line, answered once, and from then on both
// sides exchange the multiplexed binary frames in frame.go — many
// requests in flight per connection, record/data/row payloads off JSON.
// Anything else on the first line is refused with the "unsupported" (or
// "toolarge") code and a close:
//
//	→ {"op":"hello","v":3,"tenant":"acct"}
//	← {"ok":true,"version":3,"volume":61440}
//	⇄ frames
//
// Verbs (verbs.go is the table of record): "query" evaluates PQL over a
// pinned snapshot; "explain" returns the plan without executing; "stats"
// reports database and server counters (including checkpoint and
// boot-recovery state); "drain" forces a synchronous Waldo drain so
// subsequent views observe everything logged; "checkpoint" forces a
// durable checkpoint generation (Config.Checkpoints); "ping" is a
// liveness no-op; "hello" reports the protocol version and the server's
// phantom-object volume prefix.
//
// The daemon is a DPAPI layer (§5.2): the rest of its verbs are the six
// Disclosed Provenance API calls, so anything that stacks on a local layer
// through dpapi.Object/dpapi.Layer stacks on a remote daemon through the
// same interface. "mkobj" creates a phantom object and returns a wire
// handle; "revive" reopens one by (pnode, version) across connections and
// daemon restarts; "read" returns data plus the exact identity read
// (pass_read); "write" applies a data buffer and a provenance-record
// bundle as one unit, durably acknowledged (pass_write; with no handle it
// commits already-analyzed records as they are); "freeze" versions the
// object (cycle breaking); "sync" forces its provenance to persistent
// storage; "close" releases the handle without destroying provenance;
// "batch" pipelines many DPAPI ops in one round-trip under a single
// durable acknowledgment. The client side of the same contract is
// passd.Client (a dpapi.Layer) handing out RemoteObject handles
// (dpapi.Object) — see dpapi.go.
//
// Replication (DESIGN.md §10) adds three peer verbs on the same wire:
// "repljoin" announces a follower's serving address to the primary (which
// dials back and drives replication), "replstate" reports a follower's
// durable replicated log size, and "replappend" appends a chunk of the
// primary's log bytes at an exact offset, durably, draining it into the
// follower's database before the ack. A follower is read-only: client
// writes are refused with the "read_only" code; queries, stats and the
// whole read-side DPAPI keep working, which is what makes follower reads
// and hedging sound. On a primary with a write quorum configured, the
// durable-ack barrier additionally blocks until W-1 followers hold the
// acknowledged bytes; when they don't, the client sees the retryable
// "unavailable" code instead of a false ack.
//
// Durability: with a checkpoint store configured the server runs a
// background checkpointer (interval- and records-applied-triggered, see
// Config) and flushes a final generation on Close; after a crash the
// daemon restarts from the newest valid generation and re-drains only the
// log tail past the checkpointed offsets — see passv2/internal/checkpoint.
//
// Concurrency model: a reader, a writer and a serial lane per connection
// plus a goroutine per concurrent-safe request, but query execution
// passes through a bounded worker pool (Config.Workers slots). When all
// slots are busy, up to Config.MaxQueue queries wait; beyond that the
// server sheds load with an "overloaded" error instead of queueing
// unboundedly — the backpressure contract DESIGN.md §7 documents. Each
// query runs under a deadline (client-requested, capped by
// Config.MaxTimeout) enforced inside the PQL executor.
package passd

import (
	"fmt"

	"passv2/internal/pnode"
	"passv2/internal/pql"
	"passv2/internal/record"
)

// Request is one client command: the hello line is this struct as JSON,
// and a request frame carries it as a JSON envelope followed by binary
// sections for the bulk fields the marshaler skips (the record bundle,
// Data, Ops) — see frame.go.
type Request struct {
	// Op is the verb (case-insensitive); verbs.go lists them.
	Op string `json:"op"`
	// Query is the PQL source for "query" and "explain".
	Query string `json:"query,omitempty"`
	// TimeoutMS overrides the server's default per-query deadline,
	// capped at Config.MaxTimeout. Zero means the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Tenant is an optional tenant identity for per-tenant accounting and
	// quotas (Config.TenantQuotas). Carried on "hello" it names the whole
	// connection; carried on any other request it names that request
	// (overriding the connection's tenant). Empty means unattributed —
	// never quota-limited, never per-tenant-counted.
	Tenant string `json:"tenant,omitempty"`

	// --- DPAPI fields ---

	// Version is the highest protocol version the client speaks
	// ("hello"); it must be at least ProtocolVersion.
	Version int `json:"v,omitempty"`
	// Handle addresses an open object for "read", "write", "freeze",
	// "sync" and "close". Zero on "write" means the handle-less disclose
	// path.
	Handle uint64 `json:"h,omitempty"`
	// P and Ver identify the object to "revive" (pnode, version).
	P   uint64 `json:"p,omitempty"`
	Ver uint32 `json:"ver,omitempty"`
	// Off is the byte offset of a "read" or "write".
	Off int64 `json:"off,omitempty"`
	// Len bounds how many bytes a "read" returns.
	Len int `json:"len,omitempty"`
	// Data is the payload of a "write".
	Data []byte `json:"-"`
	// Ops is the pipelined op list of a "batch": each entry is a full
	// Request restricted to the DPAPI verbs (no nested batches). The
	// server executes them in order and acknowledges once, durably.
	Ops []Request `json:"-"`

	// --- replication fields (see internal/replica and DESIGN.md §10) ---

	// Addr is the follower's advertised serving address ("repljoin"): a
	// follower announces itself to the primary, which dials back and
	// drives replication. Off and Data double as the replicated log
	// offset and byte chunk of a "replappend".
	Addr string `json:"addr,omitempty"`

	// --- tamper-evidence fields (DESIGN.md §13) ---

	// MMRSize and MMRRoot ride on a "replappend" from a proof-aware
	// primary: the Merkle-mountain-range leaf count and hex-encoded root
	// covering the log prefix ending at Off+len(Data). A follower with a
	// live MMR recomputes its own root over the same prefix and refuses
	// the append with the "forked" code on mismatch. On a "verify" with
	// op "root" or "include", MMRSize optionally pins the tree size to
	// answer at (0 = current).
	MMRSize uint64 `json:"mmr_n,omitempty"`
	MMRRoot string `json:"mmr_root,omitempty"`
	// VerifyOp selects what a "verify" returns: "root" (default) — the
	// current signed root statement; "include" — an inclusion proof for
	// leaf VerifyIndex; "consistency" — a consistency proof showing the
	// tree at VerifyTo extends the tree at VerifyFrom (VerifyTo 0 =
	// current size).
	VerifyOp    string `json:"verify_op,omitempty"`
	VerifyIndex uint64 `json:"verify_index,omitempty"`
	VerifyFrom  uint64 `json:"verify_from,omitempty"`
	VerifyTo    uint64 `json:"verify_to,omitempty"`

	// recs is the record bundle of a "write": the server commits it
	// durably (write-through to the volume log when it owns one) before
	// replying, so an acknowledged write survives a daemon kill. The
	// framing ships it through internal/record's codec (frame.go); the
	// JSON marshaler never sees this field.
	recs []record.Record
}

// Response is one server reply: exactly one per request, on the request's
// stream (the hello reply is this struct as one JSON line).
type Response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	// Code is a machine-readable error class for DPAPI failures, so
	// clients can map wire errors back onto the dpapi sentinel errors:
	// "stale" (dpapi.ErrStale), "wrong_layer" (dpapi.ErrWrongLayer),
	// "closed" (dpapi.ErrClosed), "not_pass" (dpapi.ErrNotPassVolume).
	Code string `json:"code,omitempty"`

	Columns    []string        `json:"columns,omitempty"`    // query
	Rows       [][]Value       `json:"-"`                    // query (binary section)
	Plan       string          `json:"plan,omitempty"`       // explain
	Stats      *Stats          `json:"stats,omitempty"`      // stats
	Records    int64           `json:"records,omitempty"`    // drain
	Appended   int64           `json:"appended,omitempty"`   // write: records committed
	Checkpoint *CheckpointInfo `json:"checkpoint,omitempty"` // checkpoint
	Elapsed    int64           `json:"elapsed_us,omitempty"`

	// --- DPAPI fields ---

	Version int        `json:"version,omitempty"` // hello: the protocol version served
	Volume  uint16     `json:"volume,omitempty"`  // hello: phantom-object volume prefix
	Handle  uint64     `json:"h,omitempty"`       // mkobj/revive: wire handle
	P       uint64     `json:"p,omitempty"`       // mkobj/revive/read: object identity
	Ver     uint32     `json:"ver,omitempty"`     // mkobj/revive/read/freeze: version
	N       int        `json:"n,omitempty"`       // read/write: bytes moved
	Data    []byte     `json:"-"`                 // read: payload (binary section)
	Ops     []Response `json:"-"`                 // batch: one response per op, in order (binary section)

	// ReplSize is the follower's durable replicated log size after a
	// "replstate" or "replappend" — the offset replication resumes from.
	ReplSize int64 `json:"repl_size,omitempty"`

	// Verify is the payload of the "verify" verb: a root statement, an
	// inclusion proof, or a consistency proof (see WireVerify).
	Verify *WireVerify `json:"verify,omitempty"`
}

// WireVerify is the wire form of a "verify" answer. All hashes, keys and
// signatures are hex-encoded, so the struct rides the frame's JSON
// envelope unchanged. Which fields are set
// depends on Op:
//
//   - "root": Size, Root and Volume always; DeviceID, PubKey, Sig and
//     Timestamp when the daemon holds a signing identity (the signature
//     covers the canonical signer.Statement with Gen 0).
//   - "include": Index, Leaf, Size, Root, Path and Peaks — verifiable
//     with mmr.VerifyInclusion.
//   - "consistency": OldSize, OldRoot, OldPeaks, Size, Root and Fillers
//     — verifiable with mmr.VerifyConsistency.
type WireVerify struct {
	Op     string `json:"op"`
	Volume string `json:"volume,omitempty"`
	Size   uint64 `json:"n"`
	Root   string `json:"root"`

	DeviceID  string `json:"device_id,omitempty"`
	PubKey    string `json:"pub,omitempty"`
	Sig       string `json:"sig,omitempty"`
	Timestamp uint64 `json:"ts,omitempty"`

	Index uint64   `json:"index,omitempty"`
	Leaf  string   `json:"leaf,omitempty"`
	Path  []string `json:"path,omitempty"`
	Peaks []string `json:"peaks,omitempty"`

	OldSize  uint64   `json:"old_n,omitempty"`
	OldRoot  string   `json:"old_root,omitempty"`
	OldPeaks []string `json:"old_peaks,omitempty"`
	Fillers  []string `json:"fillers,omitempty"`
}

// Error codes carried in Response.Code; see decodeDPAPIError in dpapi.go.
// The last four classify availability failures so clients can decide what
// to retry without parsing error strings: "overloaded" (ErrOverloaded,
// shed before execution — always safe to retry), "unavailable"
// (ErrUnavailable, the write quorum was not reached after the records
// were already staged and durably logged — retried automatically only
// for idempotent ops; a record-staging op must not be blindly resent),
// "read_only" (ErrReadOnly, a follower refusing a write — not retryable
// here, go to the primary) and "gap" (replica.ErrGap, a replicated
// append past the follower's log end — the primary re-reads the follower
// state and backfills).
const (
	codeStale      = "stale"
	codeWrongLayer = "wrong_layer"
	codeClosed     = "closed"
	codeNotPass    = "not_pass"
	codeOverloaded = "overloaded"
	codeUnavail    = "unavailable"
	codeReadOnly   = "read_only"
	codeGap        = "gap"
	// codeTooLarge classifies a request that overflows the server's wire
	// budget (the hello line's maxHelloBytes, a frame's maxFramePayload).
	// The server replies with it before closing the connection, and the
	// client maps it onto ErrTooLarge. It is never retryable: the same
	// bytes would be refused again.
	codeTooLarge = "toolarge"
	// codeUnsupported refuses a connection whose first line is not a hello
	// offering ProtocolVersion or later — a v1 verb, a v2 hello, garbage.
	// The reply is the last thing the server sends before it closes.
	codeUnsupported = "unsupported"
	// codeQuota classifies a per-tenant quota refusal (ErrQuotaExceeded):
	// the request was refused at admission, before execution, because its
	// tenant is over its in-flight or staged-bytes/sec cap. Like
	// "overloaded" it is always safe to retry with backoff — nothing
	// executed — and the client does so automatically.
	codeQuota = "quota"
	// codeForked classifies a follower refusing a "replappend" whose
	// claimed MMR root disagrees with the root the follower recomputed
	// over the same byte prefix (ErrForked): the primary's history and
	// the follower's history are different logs. Never retryable — the
	// same bytes would be refused again, and resending cannot reconcile
	// two divergent histories. An operator must re-seed one side.
	codeForked = "forked"
)

// CheckpointInfo is the payload of the "checkpoint" verb: the committed
// generation, its kind ("full" or "delta"), the records it covers and the
// payload size on disk.
type CheckpointInfo struct {
	Gen           int64  `json:"gen"`
	Kind          string `json:"kind"`
	Records       int64  `json:"records"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
}

// Value is the wire form of one result cell (pql.Value without the
// unexported-kind enum, so both ends agree on a stable encoding).
type Value struct {
	K string `json:"k"`           // "null", "ref", "str", "int", "bool"
	S string `json:"s,omitempty"` // str payload
	I int64  `json:"i,omitempty"` // int payload
	B bool   `json:"b,omitempty"` // bool payload
	P uint64 `json:"p,omitempty"` // ref pnode
	V uint32 `json:"v,omitempty"` // ref version
	N string `json:"n,omitempty"` // ref display name
}

// Stats is the payload of the "stats" verb: a view of the server's
// metrics registry (DESIGN.md §12). Each field but the strings Role and
// MMRRoot names its one declaration, a registry family, in a `metric`
// tag: a scalar's value, with ",sum" a one-label vec's total, and on a
// map the vec whose nonzero children key it (a TenantStats element reads
// its own families at that key). So STATS cannot disagree with /metrics.
type Stats struct {
	Records   int64 `json:"records" metric:"passd_db_records"`
	ProvBytes int64 `json:"prov_bytes" metric:"passd_db_prov_bytes"`
	IdxBytes  int64 `json:"idx_bytes" metric:"passd_db_index_bytes"`

	Queries     int64 `json:"queries" metric:"passd_queries_total"`           // queries served (including failed)
	QueryErrors int64 `json:"query_errors" metric:"passd_query_errors_total"` // parse/eval failures
	Timeouts    int64 `json:"timeouts" metric:"passd_query_timeouts_total"`   // queries killed by deadline
	Shed        int64 `json:"shed" metric:"passd_shed_total,sum"`             // requests refused by backpressure, every lane
	Drains      int64 `json:"drains" metric:"passd_drains_total"`             // drain verbs served
	Conns       int64 `json:"conns" metric:"passd_conns"`                     // currently open connections
	V3Conns     int64 `json:"v3_conns,omitempty" metric:"passd_v3_conns"`     // connections past hello, speaking frames
	Workers     int   `json:"workers" metric:"passd_workers"`                 // worker-pool size
	CacheHits   int64 `json:"cache_hits" metric:"passd_cache_hits_total"`     // queries answered from a snapshot's result cache
	CacheMisses int64 `json:"cache_misses" metric:"passd_cache_misses_total"` // queries that executed

	Gen            int64 `json:"gen" metric:"passd_db_generation"`                    // database generation (applied batches)
	EntriesDecoded int64 `json:"entries_decoded" metric:"passd_ingest_entries_total"` // log entries decoded by this process's drains

	Checkpoints       int64 `json:"checkpoints" metric:"passd_checkpoints_total"`             // checkpoints committed by this process
	CheckpointErrors  int64 `json:"checkpoint_errors" metric:"passd_checkpoint_errors_total"` // checkpoint attempts that failed
	LastCheckpointGen int64 `json:"last_checkpoint_gen" metric:"passd_checkpoint_generation"`
	// Incremental-checkpoint accounting: generations committed as deltas,
	// payload bytes by kind, and committed generations whose post-commit
	// retention sweep failed (housekeeping lag, not checkpoint failure).
	CheckpointDeltas      int64 `json:"checkpoint_deltas" metric:"passd_checkpoint_deltas_total"`
	CheckpointFullBytes   int64 `json:"checkpoint_full_bytes" metric:"passd_checkpoint_full_bytes_total"`
	CheckpointDeltaBytes  int64 `json:"checkpoint_delta_bytes" metric:"passd_checkpoint_delta_bytes_total"`
	CheckpointSweepErrors int64 `json:"checkpoint_sweep_errors" metric:"passd_checkpoint_sweep_errors_total"`
	Appends               int64 `json:"appends" metric:"passd_staged_records_total"` // records staged for commit over the wire

	RecoveredGen     int64 `json:"recovered_gen" metric:"passd_recovered_generation"`                  // generation recovered at boot (0 = cold start)
	RecoveredRecords int64 `json:"recovered_records" metric:"passd_recovered_records"`                 // records in the recovered snapshot
	ResumeBytes      int64 `json:"resume_bytes" metric:"passd_recovery_resume_bytes"`                  // log bytes the recovery skipped
	SkippedGens      int64 `json:"skipped_gens" metric:"passd_recovery_skipped_generations_total,sum"` // corrupt generations recovery fell past

	Mkobjs  int64 `json:"mkobjs" metric:"passd_mkobjs_total"`   // phantom objects created over the wire
	Revives int64 `json:"revives" metric:"passd_revives_total"` // handles reopened over the wire
	Batches int64 `json:"batches" metric:"passd_batches_total"` // pipelined batch requests served
	Objects int64 `json:"objects" metric:"passd_objects"`       // live objects in the server registry

	// Replication state (DESIGN.md §10). Role is "" on a standalone
	// daemon, "primary" when replicating out, "follower" when receiving.
	Role           string `json:"role,omitempty"`
	ReplQuorum     int    `json:"repl_quorum,omitempty" metric:"passd_repl_quorum"`                    // write quorum W, counting the primary
	ReplFollowers  int64  `json:"repl_followers,omitempty" metric:"passd_repl_followers"`              // followers joined (primary)
	ReplConnected  int64  `json:"repl_connected,omitempty" metric:"passd_repl_connected"`              // followers currently streaming (primary)
	ReplBytes      int64  `json:"repl_bytes,omitempty" metric:"passd_repl_log_bytes"`                  // follower: durable replicated log bytes
	QuorumFailures int64  `json:"quorum_failures,omitempty" metric:"passd_repl_quorum_failures_total"` // acks refused because quorum was not reached

	// Serving-edge observability (DESIGN.md §12). Verbs counts dispatched
	// requests per verb, QuotaRefusals totals per-tenant quota refusals,
	// and Tenants breaks accounting down per tenant (only tenants that
	// ever named themselves appear).
	Verbs         map[string]int64       `json:"verbs,omitempty" metric:"passd_requests_total"`
	QuotaRefusals int64                  `json:"quota_refusals,omitempty" metric:"passd_quota_refused_total,sum"`
	Tenants       map[string]TenantStats `json:"tenants,omitempty" metric:"passd_tenant_requests_total"`

	// Tamper evidence (DESIGN.md §13). RecoverySkips breaks SkippedGens
	// down by the machine-readable skip class checkpoint recovery
	// assigned ("manifest", "payload", "chain_base", "orphan",
	// "root_mismatch", "other"). MMRLeaves/MMRRoot describe the live
	// Merkle mountain range over the provenance log; MMRPruned reports
	// whether it was resumed from a peak snapshot (proofs need a
	// rehydrating rescan). ForkRefusals counts replicated appends this
	// follower refused as forked; Verifies counts "verify" verbs served.
	RecoverySkips map[string]int64 `json:"recovery_skips,omitempty" metric:"passd_recovery_skipped_generations_total"`
	MMRLeaves     uint64           `json:"mmr_leaves,omitempty" metric:"passd_mmr_leaves"`
	MMRRoot       string           `json:"mmr_root,omitempty"`
	MMRPruned     bool             `json:"mmr_pruned,omitempty" metric:"passd_mmr_pruned"`
	ForkRefusals  int64            `json:"fork_refusals,omitempty" metric:"passd_fork_refusals_total"`
	Verifies      int64            `json:"verifies,omitempty" metric:"passd_verify_total"`
}

// TenantStats is one tenant's slice of the serving counters, each read
// from its per-tenant family at the tenant's label. Requests counts every
// request the tenant offered (admitted or refused), Refused the quota
// refusals among them, StagedBytes the wire bytes of admitted
// record-staging requests, and InFlight the tenant's requests executing
// right now.
type TenantStats struct {
	Requests    int64 `json:"requests" metric:"passd_tenant_requests_total"`
	Refused     int64 `json:"refused" metric:"passd_quota_refused_total"`
	StagedBytes int64 `json:"staged_bytes" metric:"passd_tenant_staged_bytes_total"`
	InFlight    int64 `json:"in_flight" metric:"passd_tenant_inflight"`
}

// ProtocolVersion is the one wire-protocol version this package speaks:
// a JSON hello line, then the multiplexed binary framing in frame.go.
// Versions 1 and 2 (JSON lines throughout) are retired; a peer offering
// less is refused with the "unsupported" code.
const ProtocolVersion = 3

// AttrMkobj is the registry's allocation record: a daemon backed by a
// durable log stages one per pass_mkobj, so an acknowledged identity
// survives a crash (pnodes are never recycled, §5.2) and the object is
// revivable before its first disclosure. It is layer housekeeping, in
// the same spirit as Lasagna's LPATH records.
const AttrMkobj record.Attr = "MKOBJ"

// encodeValue converts an engine value to its wire form.
func encodeValue(v pql.Value) Value {
	switch v.Kind {
	case pql.ValRef:
		return Value{K: "ref", P: uint64(v.Ref.PNode), V: uint32(v.Ref.Version), N: v.Name}
	case pql.ValString:
		return Value{K: "str", S: v.Str}
	case pql.ValInt:
		return Value{K: "int", I: v.Int}
	case pql.ValBool:
		return Value{K: "bool", B: v.Bool}
	default:
		return Value{K: "null"}
	}
}

// decodeValue converts a wire value back to an engine value.
func decodeValue(v Value) (pql.Value, error) {
	switch v.K {
	case "ref":
		return pql.Value{
			Kind: pql.ValRef,
			Ref:  pnode.Ref{PNode: pnode.PNode(v.P), Version: pnode.Version(v.V)},
			Name: v.N,
		}, nil
	case "str":
		return pql.Value{Kind: pql.ValString, Str: v.S}, nil
	case "int":
		return pql.Value{Kind: pql.ValInt, Int: v.I}, nil
	case "bool":
		return pql.Value{Kind: pql.ValBool, Bool: v.B}, nil
	case "null":
		return pql.Value{Kind: pql.ValNull}, nil
	default:
		return pql.Value{}, fmt.Errorf("passd: unknown value kind %q", v.K)
	}
}

// encodeResult converts a result set to wire rows.
func encodeResult(res *pql.Result) (cols []string, rows [][]Value) {
	cols = res.Columns
	rows = make([][]Value, len(res.Rows))
	for i, row := range res.Rows {
		wr := make([]Value, len(row))
		for j, v := range row {
			wr[j] = encodeValue(v)
		}
		rows[i] = wr
	}
	return cols, rows
}

// decodeResult converts wire rows back to a result set.
func decodeResult(cols []string, rows [][]Value) (*pql.Result, error) {
	res := &pql.Result{Columns: cols}
	for _, wr := range rows {
		row := make([]pql.Value, len(wr))
		for j, v := range wr {
			dv, err := decodeValue(v)
			if err != nil {
				return nil, err
			}
			row[j] = dv
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
