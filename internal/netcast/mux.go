package netcast

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/control"
	"repro/internal/netcast/transport"
	"repro/internal/xpath"
)

// MuxConfig parameterises DialMux.
type MuxConfig struct {
	// Compress requests per-frame DEFLATE on the uplink; granted only if
	// the server enables compression too.
	Compress bool
	// AckTimeout bounds each logical client's wait for its ack. Zero
	// selects the Submit default.
	AckTimeout time.Duration
	// Clock supplies backoff waits (SubmitRetry). Nil selects the wall
	// clock.
	Clock control.Clock
}

// Mux multiplexes many logical clients over one uplink TCP connection:
// each LogicalClient's frames carry its varint stream ID, a per-stream
// flow-control credit (granted by the server's hello) bounds how many
// frames one stream may have in flight, and a writer goroutine drains the
// streams' queues in fair round-robin so a chatty stream cannot starve the
// rest. This is how a load generator drives tens of thousands of clients
// over a handful of sockets.
//
// The Mux itself is safe for concurrent use; each LogicalClient serves one
// goroutine.
type Mux struct {
	conn       net.Conn
	enc        *transport.Encoder // owned by the writer goroutine
	bw         *bufio.Writer      // owned by the writer goroutine
	credit     int
	compress   bool
	ackTimeout time.Duration
	clock      control.Clock

	mu      sync.Mutex
	streams map[int64]*LogicalClient
	order   []*LogicalClient // round-robin scan order
	nextID  int64
	failErr error
	closed  bool

	notify   chan struct{} // pokes the writer when a queue gains a frame
	done     chan struct{} // closed on failure or Close
	failOnce sync.Once
	wg       sync.WaitGroup

	// unknown counts frames for unknown (closed or never-opened) stream
	// IDs; they are dropped, never misdelivered.
	unknown atomic.Int64
}

// muxResp is one uplink response delivered to a logical client.
type muxResp struct {
	t       FrameType
	payload []byte
}

// LogicalClient is one multiplexed client: it submits queries over its
// mux's shared connection under its own stream ID and flow-control window.
// Not safe for concurrent use (like Client).
type LogicalClient struct {
	mux *Mux
	id  int64

	sendq  chan []byte   // encoded inner frames awaiting the round-robin drain
	resp   chan muxResp  // responses dispatched by the reader
	tokens chan struct{} // flow-control window; one token per in-flight frame

	// rng seeds this logical client's backoff jitter — per-client, so ten
	// thousand streams backing off concurrently neither race on a shared
	// source nor jitter in lockstep.
	rng *rand.Rand

	coveredFrom uint32
	closed      bool
}

// DialMux opens a multiplexed uplink to a server. The hello handshake
// negotiates compression (if both sides want it) and learns the per-stream
// credit; Open then mints logical clients.
func DialMux(uplinkAddr string, cfg MuxConfig) (*Mux, error) {
	conn, err := net.DialTimeout("tcp", uplinkAddr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("netcast: dial mux uplink: %w", err)
	}
	if err := transport.WriteHello(conn, transport.Hello{Compress: cfg.Compress, Mux: true}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("netcast: mux hello: %w", err)
	}
	br := bufio.NewReaderSize(conn, downlinkBufSize)
	_ = conn.SetReadDeadline(time.Now().Add(defaultAckTimeout))
	grant, err := transport.ReadHello(br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("netcast: mux hello reply: %w", err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	if !grant.Mux {
		conn.Close()
		return nil, fmt.Errorf("netcast: server refused multiplexing")
	}
	credit := int(grant.Credit)
	if credit <= 0 {
		credit = 1
	}
	ackTimeout := cfg.AckTimeout
	if ackTimeout == 0 {
		ackTimeout = defaultAckTimeout
	}
	m := &Mux{
		conn:       conn,
		enc:        transport.NewEncoder(grant.Compress, 0),
		bw:         bufio.NewWriterSize(conn, downlinkBufSize),
		credit:     credit,
		compress:   grant.Compress,
		ackTimeout: ackTimeout,
		clock:      control.Or(cfg.Clock),
		streams:    make(map[int64]*LogicalClient),
		notify:     make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	m.wg.Add(2)
	go m.readLoop(br)
	go m.writeLoop()
	return m, nil
}

// Credit reports the per-stream flow-control window the server granted.
func (m *Mux) Credit() int { return m.credit }

// Compressed reports whether the uplink negotiated per-frame DEFLATE.
func (m *Mux) Compressed() bool { return m.compress }

// UnknownFrames reports responses dropped for carrying an unknown stream ID.
func (m *Mux) UnknownFrames() int64 { return m.unknown.Load() }

// Open mints a new logical client on the mux.
func (m *Mux) Open() (*LogicalClient, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, errors.New("netcast: mux closed")
	}
	if m.failErr != nil {
		return nil, fmt.Errorf("netcast: mux failed: %w", m.failErr)
	}
	lc := &LogicalClient{
		mux:    m,
		id:     m.nextID,
		sendq:  make(chan []byte, m.credit),
		resp:   make(chan muxResp, m.credit),
		tokens: make(chan struct{}, m.credit),
		rng:    newClientRand(),
	}
	m.nextID++
	for i := 0; i < m.credit; i++ {
		lc.tokens <- struct{}{}
	}
	m.streams[lc.id] = lc
	m.order = append(m.order, lc)
	return lc, nil
}

// Close tears the mux down: every logical client's pending Submit fails.
func (m *Mux) Close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	m.fail(errors.New("netcast: mux closed"))
	m.wg.Wait()
}

// fail records the first fatal error, wakes every waiter and kills the
// connection. The uplink is drop-and-redial by protocol convention, so any
// read or write failure fails the whole mux.
func (m *Mux) fail(err error) {
	m.failOnce.Do(func() {
		m.mu.Lock()
		m.failErr = err
		m.mu.Unlock()
		close(m.done)
		m.conn.Close()
	})
}

// Err reports the error that failed the mux, nil while it is healthy.
func (m *Mux) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil // deliberate Close is not a failure
	}
	return m.failErr
}

// writeLoop drains the logical clients' send queues in fair round-robin —
// at most one frame per stream per pass — encoding each inner frame into a
// stream-stamped transport envelope. The buffered writer flushes only when
// every queue is empty, so bursts from many streams batch into large
// writes.
func (m *Mux) writeLoop() {
	defer m.wg.Done()
	for {
		wrote := false
		m.mu.Lock()
		order := m.order
		m.mu.Unlock()
		for _, lc := range order {
			select {
			case inner := <-lc.sendq:
				env, err := m.enc.Encode(lc.id, inner)
				if err != nil {
					m.fail(err)
					return
				}
				if _, err := m.bw.Write(env); err != nil {
					m.fail(err)
					return
				}
				wrote = true
			default:
			}
		}
		if wrote {
			continue // another fair pass while queues are non-empty
		}
		if err := m.bw.Flush(); err != nil {
			m.fail(err)
			return
		}
		select {
		case <-m.notify:
		case <-m.done:
			return
		}
	}
}

// kick pokes the writer after an enqueue.
func (m *Mux) kick() {
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

// readLoop dispatches responses to their streams by ID. Unknown streams
// are counted and dropped; a response beyond a stream's credit window is a
// protocol violation, also dropped. Any read failure fails the whole mux.
func (m *Mux) readLoop(br *bufio.Reader) {
	defer m.wg.Done()
	tr := transport.NewReaderFromBufio(br)
	for {
		fr, err := tr.Next()
		if err != nil {
			m.fail(err)
			return
		}
		t, payload, derr := decodeInner(fr.Inner)
		if derr != nil {
			m.fail(derr)
			return
		}
		m.mu.Lock()
		lc := m.streams[fr.Stream]
		m.mu.Unlock()
		if lc == nil {
			m.unknown.Add(1)
			continue
		}
		select {
		case lc.resp <- muxResp{t: t, payload: payload}:
		default:
			m.unknown.Add(1)
		}
	}
}

// ID is the logical client's stream ID on the shared connection.
func (lc *LogicalClient) ID() int64 { return lc.id }

// CoveredFrom reports the first cycle number whose index covers the most
// recently submitted query, as acked by the server.
func (lc *LogicalClient) CoveredFrom() int64 { return int64(lc.coveredFrom) }

// Close detaches the logical client from its mux; later responses for its
// stream are dropped as unknown. The shared connection stays up.
func (lc *LogicalClient) Close() {
	if lc.closed {
		return
	}
	lc.closed = true
	m := lc.mux
	m.mu.Lock()
	delete(m.streams, lc.id)
	for i, o := range m.order {
		if o == lc {
			m.order = append(append([]*LogicalClient(nil), m.order[:i]...), m.order[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
}

// Submit sends one query under this stream's ID and waits for its ack,
// spending one flow-control credit for the round trip. Mirrors
// Client.Submit's semantics (including RejectedError on admission refusal).
func (lc *LogicalClient) Submit(q xpath.Path) error {
	m := lc.mux
	// One credit per in-flight frame: when the window is exhausted the
	// submit waits for an earlier response to return a token.
	select {
	case <-lc.tokens:
	case <-m.done:
		return lc.muxDead()
	case <-m.clock.After(m.ackTimeout):
		return fmt.Errorf("netcast: submit: stream %d credit window exhausted", lc.id)
	}
	inner, err := appendFrame(nil, FrameQuery, []byte(q.String()))
	if err != nil {
		lc.tokens <- struct{}{}
		return fmt.Errorf("netcast: submit: %w", err)
	}
	select {
	case lc.sendq <- inner:
	case <-m.done:
		lc.tokens <- struct{}{}
		return lc.muxDead()
	}
	m.kick()
	select {
	case r := <-lc.resp:
		lc.tokens <- struct{}{}
		covered, _, err := parseSubmitAck(r.t, r.payload)
		if err != nil {
			return err
		}
		lc.coveredFrom = covered
		return nil
	case <-m.done:
		return lc.muxDead()
	case <-m.clock.After(m.ackTimeout):
		// The response may still arrive later; the credit stays spent so
		// the window keeps bounding what is truly in flight.
		return fmt.Errorf("netcast: submit: stream %d ack timeout", lc.id)
	}
}

// SubmitRetry submits q, waiting out admission-control rejections with the
// server's retry-after hint (clamped and jittered from this logical
// client's own rand source) until admitted, a non-overload error occurs,
// or the context expires.
func (lc *LogicalClient) SubmitRetry(ctx context.Context, q xpath.Path) error {
	for {
		err := lc.Submit(q)
		var rej *RejectedError
		if !errors.As(err, &rej) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-lc.mux.clock.After(backoffJitter(lc.rng, rej.RetryAfter)):
		}
	}
}

// muxDead names the mux's fatal error for a failed logical-client call.
func (lc *LogicalClient) muxDead() error {
	lc.mux.mu.Lock()
	err := lc.mux.failErr
	lc.mux.mu.Unlock()
	if err == nil {
		err = errors.New("netcast: mux closed")
	}
	return fmt.Errorf("netcast: submit: %w", err)
}
