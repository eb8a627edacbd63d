package passd

// Fuzz harness for the two places JSON from outside still reaches the
// server: the hello line a connection opens with, and the envelope
// section of a request frame. Whatever bytes arrive, the hello parser
// must yield exactly a v3 hello or a coded refusal, and a frame carrying
// them as its envelope must either fail to decode or yield a Request that
// survives the codec round-trip without panicking or losing the scalar
// fields. CI runs this as a short smoke (-fuzz FuzzEnvelopeDecode
// -fuzztime 15s) alongside FuzzFrameDecode; longer local runs just work:
// go test -fuzz FuzzEnvelopeDecode ./internal/passd

import (
	"encoding/json"
	"strings"
	"testing"
)

// envelopeSeeds is one representative request per verb the server
// dispatches — the conformance corpus the handler tests exercise — so the
// fuzzer starts inside the envelope grammar instead of rediscovering it.
func envelopeSeeds() []*Request {
	return []*Request{
		{Op: "hello", Version: ProtocolVersion, Tenant: "acct"},
		{Op: "hello", Version: 1},
		{Op: "hello", Version: 2, Tenant: "acct"},
		{Op: "query", Query: `select F from Provenance.file as F where F.name = "/x"`, TimeoutMS: 50},
		{Op: "explain", Query: "select F from Provenance.file as F"},
		{Op: "stats"},
		{Op: "drain"},
		{Op: "checkpoint"},
		{Op: "ping"},
		{Op: "mkobj", Tenant: "bulk"},
		{Op: "revive", P: 12, Ver: 2},
		{Op: "read", Handle: 4, Off: 100, Len: 64},
		{Op: "write", Handle: 4, Off: -1, Data: []byte("payload")},
		{Op: "freeze", Handle: 4},
		{Op: "sync", Handle: 4},
		{Op: "close", Handle: 4},
		{Op: "batch", Ops: []Request{
			{Op: "mkobj"},
			{Op: "write", Handle: 1, Off: -1, Data: []byte("b")},
			{Op: "freeze", Handle: 1},
		}},
		{Op: "repljoin", Addr: "127.0.0.1:9999"},
		{Op: "replstate"},
		{Op: "replappend", Off: 4096, Data: []byte("logchunk"), MMRSize: 7, MMRRoot: "00ff"},
		{Op: "verify", VerifyOp: "consistency", VerifyFrom: 3, VerifyTo: 9},
	}
}

func FuzzEnvelopeDecode(f *testing.F) {
	for _, req := range envelopeSeeds() {
		line, err := json.Marshal(req)
		if err != nil {
			f.Fatalf("seed %q did not marshal: %v", req.Op, err)
		}
		f.Add(line)
	}
	// Hostile shapes the JSON decoder must survive: wrong types, deep
	// nesting, absurd versions, truncated/duplicated keys, retired fields.
	for _, raw := range []string{
		`{}`,
		`{"op":""}`,
		`{"op":"hello","v":-1}`,
		`{"op":"HELLO","v":999999,"tenant":"` + strings.Repeat("t", 256) + `"}`,
		`{"op":"batch","ops":[{"op":"batch","ops":[{"op":"batch"}]}]}`,
		`{"op":"query","query":"\\u0000","timeout_ms":-5}`,
		`{"op":"append","records":[{"p":18446744073709551615,"v":4294967295,"attr":"A","val":{"k":"zzz"}}]}`,
		`{"op":"write","h":0,"off":-9223372036854775808,"data":"bm90IGJhc2U2NA"}`,
		`{"op":"ping","op":"hello","v":3}`,
	} {
		f.Add([]byte(raw))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// As a connection's opening line: a v3 hello or a coded refusal,
		// never both, never neither.
		hello, refusal := parseHello(data)
		switch {
		case (hello == nil) == (refusal == nil):
			t.Fatalf("parseHello returned request %v and refusal %v", hello, refusal)
		case refusal != nil:
			if refusal.OK || refusal.Code != codeUnsupported || refusal.Error == "" {
				t.Fatalf("refusal %+v is not a coded unsupported reply", refusal)
			}
		case !strings.EqualFold(hello.Op, "hello") || hello.Version < ProtocolVersion:
			t.Fatalf("parseHello admitted %+v", hello)
		}

		// As a request frame's envelope (empty bundle, no data, no ops): a
		// decoded envelope must survive the codec round-trip with its
		// scalar fields intact.
		frame := appendUvarint(nil, uint64(len(data)))
		frame = append(append(frame, data...), 0, 0, 0)
		req, n, err := decodeRequestPayload(frame, 0)
		if err != nil {
			return // rejected envelopes are the decoder doing its job
		}
		if n != len(frame) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(frame))
		}
		buf, err := appendRequestPayload(nil, req, 0)
		if err != nil {
			return // not every envelope is representable (e.g. nested ops)
		}
		back, n, err := decodeRequestPayload(buf, 0)
		if err != nil {
			t.Fatalf("re-encoded envelope did not decode: %v\nreq: %+v", err, req)
		}
		if n != len(buf) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(buf))
		}
		if back.Op != req.Op || back.Query != req.Query || back.Tenant != req.Tenant ||
			back.Version != req.Version || back.Handle != req.Handle ||
			back.P != req.P || back.Ver != req.Ver ||
			back.Off != req.Off || back.Len != req.Len ||
			back.TimeoutMS != req.TimeoutMS || back.Addr != req.Addr {
			t.Fatalf("scalar fields changed across the codec round-trip:\nsent: %+v\ngot:  %+v", req, *back)
		}
		if len(back.Ops) != len(req.Ops) {
			t.Fatalf("batch length changed across the codec round-trip: sent %d ops, got %d",
				len(req.Ops), len(back.Ops))
		}
	})
}
