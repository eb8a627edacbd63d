package passd

import (
	"reflect"
	"sort"
	"testing"
)

// TestVerbTable pins the verb table against the sets the hand-kept
// switches it replaced encoded (dispatch, serialVerb, verbLabel,
// dpapiCommits, stagingVerb, the client's idempotentOp and execDPAPI's
// case list), written out literally so any drift — a verb added without
// deciding its properties, a property flipped — fails here.
func TestVerbTable(t *testing.T) {
	want := map[string][]string{
		"all": {"batch", "checkpoint", "close", "drain", "explain", "freeze", "hello", "mkobj", "ping",
			"query", "read", "replappend", "repljoin", "replstate", "revive", "stats", "sync", "verify", "write"},
		"serial":     {"batch", "close", "freeze", "mkobj", "read", "replappend", "revive", "sync", "write"},
		"commits":    {"freeze", "mkobj", "sync", "write"},
		"staged":     {"batch", "freeze", "mkobj", "write"},
		"idempotent": {"checkpoint", "drain", "explain", "hello", "ping", "query", "read", "replappend", "repljoin", "replstate", "revive", "stats", "sync", "verify"},
		"batchable":  {"close", "freeze", "mkobj", "read", "revive", "sync", "write"},
	}
	got := map[string][]string{}
	for name, v := range verbs {
		if v.handler == nil {
			t.Errorf("verb %q has no handler", name)
		}
		if v.name != name {
			t.Errorf("verb %q carries the metric label %q", name, v.name)
		}
		for set, in := range map[string]bool{
			"all": true, "serial": v.serial, "commits": v.commits,
			"staged": v.staged, "idempotent": v.idempotent, "batchable": v.batchable,
		} {
			if in {
				got[set] = append(got[set], name)
			}
		}
	}
	for set := range want {
		sort.Strings(got[set])
		if !reflect.DeepEqual(got[set], want[set]) {
			t.Errorf("%s verbs:\n got %v\nwant %v", set, got[set], want[set])
		}
	}

	// Lookup is case-insensitive, and anything outside the table — the
	// retired "append" included — is the one serial, non-retryable
	// "unknown" entry, whose handler refuses it.
	if verbFor("QuErY") != verbs["query"] {
		t.Error(`verbFor("QuErY") did not resolve to the query entry`)
	}
	for _, op := range []string{"append", "", "no-such-verb"} {
		v := verbFor(op)
		if v != unknownVerb || v.name != "unknown" || !v.serial || v.idempotent || v.commits || v.staged || v.batchable {
			t.Errorf("verbFor(%q) = %+v, want the unknown entry", op, v)
		}
		if resp := v.handler(nil, nil, &Request{Op: op}); resp.Error == "" {
			t.Errorf("unknown op %q was not refused", op)
		}
	}
}
