package passd

// clientMux is the client half of the wire's stream multiplexing: one
// connection, many requests in flight, each on its own stream ID. A
// single reader goroutine routes response frames (reassembling chunked
// results) to per-request waiters; sends serialize on a write mutex but
// requests never wait for each other's responses — which is what lets a
// fast read overtake a slow query on the same connection.
//
// Failure semantics: any transport fault — a read error, a torn frame, a
// request timing out — poisons the whole connection (frame boundaries can
// no longer be trusted), every waiter gets a transportError, and the
// owning Client redials. The retry policy in client.go then decides, per
// op, what is safe to resend.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

type muxReply struct {
	resp *Response
	err  error
}

type clientMux struct {
	conn net.Conn
	br   *bufio.Reader

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	waiters map[uint32]chan muxReply
	next    uint32
	err     error // sticky: set once by fail, checked by every do
}

func newClientMux(conn net.Conn, br *bufio.Reader) *clientMux {
	m := &clientMux{conn: conn, br: br, waiters: make(map[uint32]chan muxReply)}
	go m.readLoop()
	return m
}

// fail poisons the mux: the sticky error is set, every waiter is
// released with it, and the connection is closed (which also stops the
// read loop). Idempotent — the first error wins.
func (m *clientMux) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
		for id, ch := range m.waiters {
			delete(m.waiters, id)
			ch <- muxReply{err: err}
		}
	}
	m.mu.Unlock()
	m.conn.Close()
}

// do runs one round-trip: register a stream, send the request as a
// single frame, wait for the (possibly chunked) response or the timeout.
// A timeout kills the connection, so an abandoned response cannot
// desynchronize later ones.
func (m *clientMux) do(req *Request, timeout time.Duration) (*Response, error) {
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return nil, &transportError{err}
	}
	m.next++
	stream := m.next
	ch := make(chan muxReply, 1)
	m.waiters[stream] = ch
	m.mu.Unlock()

	abandon := func() {
		m.mu.Lock()
		delete(m.waiters, stream)
		m.mu.Unlock()
	}

	sc := getFrameScratch()
	buf := append(sc.buf[:0], make([]byte, frameHeaderLen)...)
	buf, err := appendRequestPayload(buf, req, 0)
	sc.buf = buf
	if err != nil {
		putFrameScratch(sc)
		abandon()
		return nil, err // encode failure: nothing was sent, not a transport fault
	}
	payload := len(buf) - frameHeaderLen
	if payload > maxFramePayload {
		putFrameScratch(sc)
		abandon()
		return nil, fmt.Errorf("%w: request encodes to %d bytes, over the %d-byte frame budget; split the bundle",
			ErrTooLarge, payload, maxFramePayload)
	}
	putFrameHeader(buf[:frameHeaderLen], payload, stream, frameRequest, 0)

	m.wmu.Lock()
	m.conn.SetWriteDeadline(time.Now().Add(timeout))
	_, werr := m.conn.Write(buf)
	m.wmu.Unlock()
	putFrameScratch(sc)
	if werr != nil {
		m.fail(werr)
		<-ch // fail delivered to our registered waiter
		return nil, &transportError{werr}
	}

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		if r.err != nil {
			return nil, &transportError{r.err}
		}
		return r.resp, nil
	case <-timer.C:
		err := fmt.Errorf("passd: request timed out after %v", timeout)
		m.fail(err)
		return nil, &transportError{err}
	}
}

// readLoop is the connection's single frame reader: it reassembles
// chunked responses per stream and delivers each completed response to
// its waiter. Any error — transport or framing — fails the whole mux.
func (m *clientMux) readLoop() {
	partials := make(map[uint32]*respPartial)
	for {
		h, err := readFrameHeader(m.br)
		if err != nil {
			m.fail(readErr(err))
			return
		}
		if h.kind != frameResponse {
			m.fail(fmt.Errorf("passd: server sent a non-response frame (kind %d)", h.kind))
			return
		}
		payload, err := readFramePayload(m.br, h)
		if err != nil {
			m.fail(readErr(err))
			return
		}
		p := partials[h.stream]
		if p == nil {
			p = &respPartial{}
			partials[h.stream] = p
		}
		if _, err := p.absorb(payload, 0); err != nil {
			m.fail(fmt.Errorf("passd: bad response frame: %w", err))
			return
		}
		if h.flags&flagMore != 0 {
			continue
		}
		delete(partials, h.stream)
		resp, err := p.finish()
		if err != nil {
			m.fail(fmt.Errorf("passd: bad response: %w", err))
			return
		}
		m.mu.Lock()
		ch, ok := m.waiters[h.stream]
		delete(m.waiters, h.stream)
		m.mu.Unlock()
		if ok {
			ch <- muxReply{resp: resp}
		}
		// No waiter: a response for a stream nobody owns (the waiter
		// timed out and the mux is being torn down, or a server bug).
		// Dropping it is safe — frame boundaries held.
	}
}

// readErr normalizes the reader's end-of-stream, on the hello line or a
// frame, into one message for a server-closed connection.
func readErr(err error) error {
	if errors.Is(err, errFrameTooLarge) {
		return fmt.Errorf("passd: server sent an over-budget frame: %w", err)
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return errors.New("passd: connection closed by server")
	}
	return err
}
