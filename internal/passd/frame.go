package passd

// Binary framing (DESIGN.md §9). After the hello line each way, both
// sides exchange length-prefixed frames carrying a stream ID, so one
// connection multiplexes many in-flight requests — a slow query on stream
// 7 cannot head-of-line-block a fast read on stream 8 — and a large result
// set is chunked across several frames instead of marshaled whole.
//
// Frame layout (all integers little-endian):
//
//	length  u32  bytes of payload that follow the 10-byte header
//	stream  u32  request/response correlation ID (client-assigned, ≥1)
//	kind    u8   1 = request, 2 = response
//	flags   u8   bit 0 (MORE): this response continues in a later frame
//	payload [length]byte
//
// A request is always a single frame. A response is one or more frames on
// its request's stream; every frame but the last sets MORE, and frames of
// different streams may interleave freely.
//
// Payloads are a hybrid encoding: a small JSON "envelope" (the Request /
// Response struct minus its bulk fields, tagged json:"-") followed by binary
// sections for exactly the fields that dominate wire volume — provenance
// records ride internal/record's AppendBundle/DecodeBundle codec instead
// of base64-inside-JSON, data buffers are raw bytes, and result rows are
// a compact tagged encoding. The envelope keeps the long tail of small
// fields (op, handles, offsets, error codes) debuggable and versionable;
// the sections remove the JSON/base64 tax from the hot 99% of bytes.
//
// Request payload:
//
//	uvarint envLen, envLen bytes   JSON Request, without Data/Ops
//	record bundle                  internal/record bundle (uvarint count…)
//	uvarint dataLen, dataLen bytes write payload
//	uvarint nOps, nOps × payload   batch ops, same grammar (no nesting)
//
// Response payload (per frame; sections accumulate across MORE frames):
//
//	uvarint envLen, envLen bytes   JSON Response, without Rows/Data/Ops
//	                               (zero on every frame after the first)
//	uvarint nRows, nRows × row     row = uvarint nCols, nCols × value
//	uvarint dataLen, dataLen bytes read payload
//	uvarint nOps, nOps × payload   batch op replies (first frame only)
//
// value = kind byte (0 null, 1 ref, 2 str, 3 int, 4 bool) then: ref =
// u64 pnode, u32 version, uvarint nameLen + name; str = uvarint len +
// bytes; int = signed varint; bool = one byte.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"passv2/internal/record"
)

const (
	frameHeaderLen = 10
	frameRequest   = 1
	frameResponse  = 2
	flagMore       = 1

	// maxFramePayload caps one frame, mirroring internal/record's 16 MiB
	// blob cap: big enough for any response chunk the server emits, small
	// enough that a corrupt or hostile length prefix cannot make either
	// side allocate unboundedly.
	maxFramePayload = 16 << 20

	// frameChunkTarget is the soft size at which a response is split
	// across MORE-flagged frames: large result sets stream out in ~256 KiB
	// pieces instead of one multi-megabyte write that would monopolize the
	// connection (and the peer's read buffer) in one burst.
	frameChunkTarget = 256 << 10
)

// errFrameTooLarge reports a frame whose declared payload exceeds
// maxFramePayload. The stream ID is already known when the header is
// read, so the receiver can refuse on that stream before closing.
var errFrameTooLarge = errors.New("passd: frame exceeds the wire size budget")

var errFrameCorrupt = errors.New("passd: corrupt frame payload")

// frameHeader is one decoded frame header.
type frameHeader struct {
	length int
	stream uint32
	kind   byte
	flags  byte
}

// readFrameHeader reads and validates the fixed 10-byte header. The
// payload length is validated here — before any allocation — so a
// corrupt length prefix costs nothing.
func readFrameHeader(r io.Reader) (frameHeader, error) {
	var b [frameHeaderLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return frameHeader{}, err
	}
	h := frameHeader{
		length: int(binary.LittleEndian.Uint32(b[0:4])),
		stream: binary.LittleEndian.Uint32(b[4:8]),
		kind:   b[8],
		flags:  b[9],
	}
	if h.length > maxFramePayload {
		return h, errFrameTooLarge
	}
	if h.kind != frameRequest && h.kind != frameResponse {
		return h, fmt.Errorf("%w: unknown frame kind %d", errFrameCorrupt, h.kind)
	}
	return h, nil
}

// putFrameHeader writes the header into a caller-provided 10-byte prefix.
func putFrameHeader(b []byte, payloadLen int, stream uint32, kind, flags byte) {
	binary.LittleEndian.PutUint32(b[0:4], uint32(payloadLen))
	binary.LittleEndian.PutUint32(b[4:8], stream)
	b[8] = kind
	b[9] = flags
}

// readFramePayload allocates and fills one frame's payload. The buffer is
// freshly allocated per frame on purpose: decoded requests/responses alias
// into it (data buffers, op slices), and the decoded object may outlive
// the read loop's next iteration (the server dispatches asynchronously).
func readFramePayload(r io.Reader, h frameHeader) ([]byte, error) {
	if h.length == 0 {
		return nil, nil
	}
	payload := make([]byte, h.length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// frameScratch is the pooled working set of one frame writer: the payload
// under construction (with the header prefix reserved in front, so client
// sends are one conn.Write) and an envelope marshal buffer.
type frameScratch struct {
	buf []byte // header + payload being built
	tmp []byte // row/op staging so section counts can prefix their bytes
}

var frameScratchPool = sync.Pool{New: func() any { return &frameScratch{} }}

func getFrameScratch() *frameScratch {
	sc := frameScratchPool.Get().(*frameScratch)
	sc.buf = sc.buf[:0]
	sc.tmp = sc.tmp[:0]
	return sc
}

// putFrameScratch returns a scratch unless a giant response inflated it —
// pooling multi-megabyte buffers would trade the GC churn this path
// exists to remove for permanently resident memory.
func putFrameScratch(sc *frameScratch) {
	if cap(sc.buf) <= 1<<20 && cap(sc.tmp) <= 1<<20 {
		frameScratchPool.Put(sc)
	}
}

// --- varint helpers over a cursor ---

func appendUvarint(dst []byte, v uint64) []byte {
	return binary.AppendUvarint(dst, v)
}

// readUvarint decodes a uvarint at buf[pos:], returning the value and the
// new cursor. Fails on truncation or overlong encodings.
func readUvarint(buf []byte, pos int) (uint64, int, error) {
	v, n := binary.Uvarint(buf[pos:])
	if n <= 0 {
		return 0, 0, errFrameCorrupt
	}
	return v, pos + n, nil
}

// readSection bounds-checks and slices a uvarint-length-prefixed byte
// section. The returned slice aliases buf.
func readSection(buf []byte, pos int) ([]byte, int, error) {
	n, pos, err := readUvarint(buf, pos)
	if err != nil {
		return nil, 0, err
	}
	if n > uint64(len(buf)-pos) {
		return nil, 0, errFrameCorrupt
	}
	return buf[pos : pos+int(n)], pos + int(n), nil
}

// --- wire values (result cells) ---

const (
	bvNull = 0
	bvRef  = 1
	bvStr  = 2
	bvInt  = 3
	bvBool = 4
)

func appendWireValue(dst []byte, v *Value) []byte {
	switch v.K {
	case "ref":
		dst = append(dst, bvRef)
		dst = binary.LittleEndian.AppendUint64(dst, v.P)
		dst = binary.LittleEndian.AppendUint32(dst, v.V)
		dst = appendUvarint(dst, uint64(len(v.N)))
		return append(dst, v.N...)
	case "str":
		dst = append(dst, bvStr)
		dst = appendUvarint(dst, uint64(len(v.S)))
		return append(dst, v.S...)
	case "int":
		dst = append(dst, bvInt)
		return binary.AppendVarint(dst, v.I)
	case "bool":
		dst = append(dst, bvBool)
		if v.B {
			return append(dst, 1)
		}
		return append(dst, 0)
	default:
		return append(dst, bvNull)
	}
}

func readWireValue(buf []byte, pos int) (Value, int, error) {
	if pos >= len(buf) {
		return Value{}, 0, errFrameCorrupt
	}
	kind := buf[pos]
	pos++
	switch kind {
	case bvNull:
		return Value{K: "null"}, pos, nil
	case bvRef:
		if len(buf)-pos < 12 {
			return Value{}, 0, errFrameCorrupt
		}
		p := binary.LittleEndian.Uint64(buf[pos:])
		ver := binary.LittleEndian.Uint32(buf[pos+8:])
		name, pos, err := readSection(buf, pos+12)
		if err != nil {
			return Value{}, 0, err
		}
		return Value{K: "ref", P: p, V: ver, N: string(name)}, pos, nil
	case bvStr:
		s, pos, err := readSection(buf, pos)
		if err != nil {
			return Value{}, 0, err
		}
		return Value{K: "str", S: string(s)}, pos, nil
	case bvInt:
		i, n := binary.Varint(buf[pos:])
		if n <= 0 {
			return Value{}, 0, errFrameCorrupt
		}
		return Value{K: "int", I: i}, pos + n, nil
	case bvBool:
		if pos >= len(buf) {
			return Value{}, 0, errFrameCorrupt
		}
		return Value{K: "bool", B: buf[pos] != 0}, pos + 1, nil
	default:
		return Value{}, 0, fmt.Errorf("%w: unknown value kind %d", errFrameCorrupt, kind)
	}
}

func appendWireRow(dst []byte, row []Value) []byte {
	dst = appendUvarint(dst, uint64(len(row)))
	for i := range row {
		dst = appendWireValue(dst, &row[i])
	}
	return dst
}

func readWireRow(buf []byte, pos int) ([]Value, int, error) {
	n, pos, err := readUvarint(buf, pos)
	if err != nil {
		return nil, 0, err
	}
	if n > uint64(len(buf)-pos) { // each value is ≥1 byte
		return nil, 0, errFrameCorrupt
	}
	row := make([]Value, 0, n)
	for i := uint64(0); i < n; i++ {
		var v Value
		v, pos, err = readWireValue(buf, pos)
		if err != nil {
			return nil, 0, err
		}
		row = append(row, v)
	}
	return row, pos, nil
}

// --- request payloads ---

// maxOpsNesting bounds batch recursion in the decoders: the protocol says
// batches do not nest, so one level of ops is all a well-formed payload
// carries; the decoder tolerates exactly that and refuses deeper input
// (which could only come from corruption or an attacker).
const maxOpsNesting = 1

// appendRequestPayload encodes req (including batch ops, recursively)
// onto dst. Requests are always a single frame: the client caps its own
// batches well under maxFramePayload.
func appendRequestPayload(dst []byte, req *Request, depth int) ([]byte, error) {
	if depth > maxOpsNesting {
		return nil, errors.New("passd: batch ops nest too deep to encode")
	}
	env, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	dst = appendUvarint(dst, uint64(len(env)))
	dst = append(dst, env...)
	dst = record.AppendBundle(dst, &record.Bundle{Records: req.recs})
	dst = appendUvarint(dst, uint64(len(req.Data)))
	dst = append(dst, req.Data...)
	dst = appendUvarint(dst, uint64(len(req.Ops)))
	for i := range req.Ops {
		dst, err = appendRequestPayload(dst, &req.Ops[i], depth+1)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// decodeRequestPayload parses one request payload. Returned requests
// alias buf (data buffers, record blobs), so buf must not be reused while
// the request is live — the read loops allocate a fresh payload per
// frame for exactly this reason.
func decodeRequestPayload(buf []byte, depth int) (*Request, int, error) {
	if depth > maxOpsNesting {
		return nil, 0, fmt.Errorf("%w: ops nest too deep", errFrameCorrupt)
	}
	req := &Request{}
	env, pos, err := readSection(buf, 0)
	if err != nil {
		return nil, 0, err
	}
	if len(env) > 0 {
		if err := json.Unmarshal(env, req); err != nil {
			return nil, 0, fmt.Errorf("%w: bad envelope: %v", errFrameCorrupt, err)
		}
	}
	bundle, n, err := record.DecodeBundle(buf[pos:])
	if err != nil {
		return nil, 0, fmt.Errorf("%w: bad record bundle: %v", errFrameCorrupt, err)
	}
	pos += n
	req.recs = bundle.Records
	data, pos, err := readSection(buf, pos)
	if err != nil {
		return nil, 0, err
	}
	if len(data) > 0 {
		req.Data = data
	}
	nOps, pos, err := readUvarint(buf, pos)
	if err != nil {
		return nil, 0, err
	}
	if nOps > uint64(len(buf)-pos) { // each op is ≥3 bytes
		return nil, 0, errFrameCorrupt
	}
	if nOps > 0 {
		req.Ops = make([]Request, 0, min(int(nOps), 256))
		for i := uint64(0); i < nOps; i++ {
			op, n, err := decodeRequestPayload(buf[pos:], depth+1)
			if err != nil {
				return nil, 0, err
			}
			pos += n
			req.Ops = append(req.Ops, *op)
		}
	}
	return req, pos, nil
}

// --- response payloads ---

// appendResponsePayload encodes resp as a single payload (no chunking);
// used for batch op replies nested inside an outer response, which are
// never split.
func appendResponsePayload(dst []byte, resp *Response, depth int) ([]byte, error) {
	if depth > maxOpsNesting {
		return nil, errors.New("passd: response ops nest too deep to encode")
	}
	env, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	dst = appendUvarint(dst, uint64(len(env)))
	dst = append(dst, env...)
	dst = appendUvarint(dst, uint64(len(resp.Rows)))
	for _, row := range resp.Rows {
		dst = appendWireRow(dst, row)
	}
	dst = appendUvarint(dst, uint64(len(resp.Data)))
	dst = append(dst, resp.Data...)
	dst = appendUvarint(dst, uint64(len(resp.Ops)))
	for i := range resp.Ops {
		dst, err = appendResponsePayload(dst, &resp.Ops[i], depth+1)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// writeResponseFrames encodes resp as one or more frames on stream and
// writes them to w. Responses whose rows/data exceed frameChunkTarget are
// split across MORE-flagged frames; the envelope and batch op replies
// ride the first frame only.
func writeResponseFrames(w *bufio.Writer, stream uint32, resp *Response, sc *frameScratch) error {
	env, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	rows, data := resp.Rows, resp.Data
	ri, di := 0, 0
	first := true
	for {
		buf := sc.buf[:0]
		buf = append(buf, make([]byte, frameHeaderLen)...)
		if first {
			buf = appendUvarint(buf, uint64(len(env)))
			buf = append(buf, env...)
		} else {
			buf = append(buf, 0)
		}
		// Rows chunk: stage rows in tmp so the count can prefix them.
		tmp := sc.tmp[:0]
		nRows := 0
		for ri < len(rows) && len(buf)+len(tmp) < frameChunkTarget {
			tmp = appendWireRow(tmp, rows[ri])
			ri++
			nRows++
		}
		buf = appendUvarint(buf, uint64(nRows))
		buf = append(buf, tmp...)
		sc.tmp = tmp
		// Data chunk: fill the remaining budget.
		chunk := 0
		if di < len(data) {
			chunk = len(data) - di
			if room := frameChunkTarget - len(buf); chunk > room {
				chunk = room
				if chunk < 1 {
					chunk = 1 // always make progress
				}
			}
		}
		buf = appendUvarint(buf, uint64(chunk))
		buf = append(buf, data[di:di+chunk]...)
		di += chunk
		// Batch op replies: first frame only, never chunked.
		if first {
			buf = appendUvarint(buf, uint64(len(resp.Ops)))
			for i := range resp.Ops {
				buf, err = appendResponsePayload(buf, &resp.Ops[i], 1)
				if err != nil {
					sc.buf = buf
					return err
				}
			}
		} else {
			buf = append(buf, 0)
		}
		sc.buf = buf
		payload := len(buf) - frameHeaderLen
		if payload > maxFramePayload {
			return fmt.Errorf("passd: response frame encodes to %d bytes, over the %d-byte frame budget", payload, maxFramePayload)
		}
		more := ri < len(rows) || di < len(data)
		var flags byte
		if more {
			flags = flagMore
		}
		putFrameHeader(buf[:frameHeaderLen], payload, stream, frameResponse, flags)
		if _, err := w.Write(buf); err != nil {
			return err
		}
		if !more {
			return nil
		}
		first = false
	}
}

// respPartial accumulates one response across its MORE-flagged frames.
type respPartial struct {
	env  []byte
	rows [][]Value
	data []byte
	ops  []Response
}

// decodeResponsePayload parses one complete (non-chunked) response
// payload — the nested form batch op replies use.
func decodeResponsePayload(buf []byte, depth int) (*Response, int, error) {
	if depth > maxOpsNesting {
		return nil, 0, fmt.Errorf("%w: response ops nest too deep", errFrameCorrupt)
	}
	var p respPartial
	pos, err := p.absorb(buf, depth)
	if err != nil {
		return nil, 0, err
	}
	resp, err := p.finish()
	return resp, pos, err
}

// absorb parses one frame's payload into the partial. Sections accumulate:
// rows and data append, the envelope and ops arrive on the first frame.
func (p *respPartial) absorb(buf []byte, depth int) (int, error) {
	env, pos, err := readSection(buf, 0)
	if err != nil {
		return 0, err
	}
	if len(env) > 0 {
		p.env = append(p.env, env...)
	}
	nRows, pos, err := readUvarint(buf, pos)
	if err != nil {
		return 0, err
	}
	if nRows > uint64(len(buf)-pos) { // each row is ≥1 byte
		return 0, errFrameCorrupt
	}
	if nRows > 0 && p.rows == nil {
		p.rows = make([][]Value, 0, min(int(nRows), 4096))
	}
	for i := uint64(0); i < nRows; i++ {
		var row []Value
		row, pos, err = readWireRow(buf, pos)
		if err != nil {
			return 0, err
		}
		p.rows = append(p.rows, row)
	}
	data, pos, err := readSection(buf, pos)
	if err != nil {
		return 0, err
	}
	if len(data) > 0 {
		p.data = append(p.data, data...)
	}
	nOps, pos, err := readUvarint(buf, pos)
	if err != nil {
		return 0, err
	}
	if nOps > uint64(len(buf)-pos) {
		return 0, errFrameCorrupt
	}
	if nOps > 0 && p.ops == nil {
		p.ops = make([]Response, 0, min(int(nOps), 256))
	}
	for i := uint64(0); i < nOps; i++ {
		op, n, err := decodeResponsePayload(buf[pos:], depth+1)
		if err != nil {
			return 0, err
		}
		pos += n
		p.ops = append(p.ops, *op)
	}
	return pos, nil
}

// finish assembles the accumulated sections into a Response.
func (p *respPartial) finish() (*Response, error) {
	resp := &Response{}
	if len(p.env) > 0 {
		if err := json.Unmarshal(p.env, resp); err != nil {
			return nil, fmt.Errorf("%w: bad envelope: %v", errFrameCorrupt, err)
		}
	}
	resp.Rows = p.rows
	resp.Data = p.data
	resp.Ops = p.ops
	return resp, nil
}
