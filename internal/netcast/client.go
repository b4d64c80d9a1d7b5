package netcast

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/succinct"
	"repro/internal/wire"
	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// RejectedError reports a query refused by the server's admission control
// (FrameReject): the uplink is healthy and the query was valid, the server
// is just shedding load. It matches errors.Is(err, engine.ErrOverload), so
// callers distinguish overload from network failure and back off instead of
// redialing.
type RejectedError struct {
	// RetryAfter is the server's hint for when to retry.
	RetryAfter time.Duration
	// Reason is the server's human-readable explanation.
	Reason string
}

// Error implements error.
func (e *RejectedError) Error() string {
	return fmt.Sprintf("netcast: server rejected query: %s (retry after %s)", e.Reason, e.RetryAfter)
}

// Is reports overload identity so errors.Is(err, engine.ErrOverload) works.
func (e *RejectedError) Is(target error) bool { return target == engine.ErrOverload }

// ClientStats accounts one retrieval, mirroring the simulator's metrics on
// the real byte stream.
type ClientStats struct {
	// TuningBytes counts bytes the client actually downloaded: index
	// segments, second tiers and matching documents.
	TuningBytes int64
	// DozeBytes counts broadcast bytes the client slept through (frames it
	// skipped without reading their payloads into the protocol), plus bytes
	// discarded while rescanning for a frame boundary after corruption.
	DozeBytes int64
	// Cycles is the number of cycle heads observed.
	Cycles int
	// Resyncs counts mid-stream recoveries: a corrupt, truncated or
	// undecodable frame made the client drop its cycle state and rescan the
	// byte stream for the next cycle head.
	Resyncs int
	// Reconnects counts broadcast connections re-established after the
	// downlink dropped mid-retrieval.
	Reconnects int
	// Resubmits counts queries re-registered over the uplink after a resync
	// or reconnect; ResubmitDropped counts queries evicted oldest-first from
	// the bounded resubmit queue during a long outage. Resumed counts
	// queries the session-resume handshake re-attached without a resubmit.
	// All three are client-lifetime totals, not per-retrieval deltas.
	Resubmits, ResubmitDropped, Resumed int64
}

// Reconnect backoff bounds: the delay starts at reconnectBaseDelay, doubles
// per failed dial up to reconnectMaxDelay, and each wait adds up to 50%
// random jitter so a fleet of clients dropped together doesn't redial in
// lockstep.
const (
	reconnectBaseDelay = 25 * time.Millisecond
	reconnectMaxDelay  = 2 * time.Second
)

// downlinkBufSize sizes the broadcast-side read buffer (also the window the
// resync scanner works within).
const downlinkBufSize = 64 << 10

// resubmitQueueCap bounds the queries waiting for re-registration while the
// uplink is down. During a long outage every resync/reconnect attempt wants
// to re-register; without a bound the queue would grow with outage length.
// Oldest entries are dropped first — they are the most likely to have been
// served (or re-enqueued again) by the time the uplink returns.
const resubmitQueueCap = 32

// defaultAckTimeout bounds Submit's wait for the server's ack.
const defaultAckTimeout = 10 * time.Second

// idleResubmitTimeout bounds how long a retrieval waits on a silent
// downlink before treating the stream as lost. An on-demand server airs
// nothing when its pending set is empty, so a client whose request was
// retired while it was desynchronised (the server sent the documents; the
// channel ate them) would otherwise block forever on a healthy-but-silent
// connection — no frames means no corruption to resync on. The rolling
// deadline turns that silence into the normal reconnect path, whose
// re-registration makes the server air the documents again.
const idleResubmitTimeout = 3 * time.Second

// armIdle sets conn's read deadline idleResubmitTimeout from now, clamped
// to the retrieval context's own deadline. Re-armed before every frame
// read, so it fires only on a genuinely silent stream, not a slow cycle.
func armIdle(ctx context.Context, conn net.Conn) {
	dl := time.Now().Add(idleResubmitTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(dl) {
		dl = d
	}
	_ = conn.SetReadDeadline(dl)
}

// Client is a mobile client: an uplink connection for submissions and a
// downlink subscription to the broadcast stream. A Client is not safe for
// concurrent use.
type Client struct {
	model core.SizeModel
	up    net.Conn
	down  net.Conn
	dl    *frameSource // buffered downlink; recreated on reconnect

	upAddr, downAddr string // redial targets for recovery

	// chans holds the per-channel downlink streams of a multichannel client
	// (DialChannels); nil on a classic single-stream client. chans[0] is the
	// index channel.
	chans []*chanStream

	// AckTimeout bounds how long Submit waits for the server's ack before
	// failing instead of hanging on a stalled server. Zero disables the
	// deadline. Dial sets it to 10 s.
	AckTimeout time.Duration

	// Clock supplies the waits between admission-control retries
	// (SubmitRetry and resubmit backoff). Nil selects the wall clock;
	// tests inject control.Fake so backoff runs deterministically without
	// wall-clock sleeps.
	Clock control.Clock

	// coveredFrom is the first cycle number whose index covers the last
	// submitted query (from the server's ack); earlier cycles' indexes are
	// slept through during Retrieve.
	coveredFrom uint32

	// session tracks acked submissions (durable request IDs) for the
	// session-resume handshake.
	session *ClientSession

	// resubq queues queries whose re-registration failed while the uplink
	// was down, bounded at resubmitQueueCap with drop-oldest. The counters
	// surface through ClientStats.
	resubq     []xpath.Path
	resubmits  int64
	resubDrops int64
	resumedCnt int64

	// rng seeds this client's backoff jitter. Each client (and each
	// logical client behind a mux) owns its source: the shared global
	// would race under -race when thousands of logical clients back off
	// concurrently, and per-client streams keep jitter independent.
	rng *rand.Rand
}

// newClientRand returns a per-client jitter source, seeded from the global
// generator (the only use of the shared source, and a synchronised one).
func newClientRand() *rand.Rand {
	return rand.New(rand.NewPCG(rand.Uint64(), rand.Uint64()))
}

// jitter returns this client's backoff jitter source, created on first use
// so zero-value and test-constructed clients work.
func (c *Client) jitter() *rand.Rand {
	if c.rng == nil {
		c.rng = newClientRand()
	}
	return c.rng
}

// SessionEntry is one acked submission in a resumable session.
type SessionEntry struct {
	// ID is the server-assigned durable request ID from the ack.
	ID int64
	// Query is the canonical query string.
	Query string
}

// ClientSession is the client-side state of a resumable uplink session: the
// request IDs the server acked, plus the server identity from the last
// resume handshake. Extract it with Session before discarding a client and
// hand it to a new client (dialed at the restarted server's addresses) with
// AdoptSession to resume where the old session stopped.
type ClientSession struct {
	// Epoch and Generation are the server's journal lineage and restart
	// generation from the last FrameResumeAck; zero before any resume.
	Epoch      uint64
	Generation uint32
	// Entries holds acked submissions in submission order, newest last.
	Entries []SessionEntry
}

// clone deep-copies the session.
func (s *ClientSession) clone() *ClientSession {
	if s == nil {
		return nil
	}
	out := *s
	out.Entries = append([]SessionEntry(nil), s.Entries...)
	return &out
}

// ResumeStatus is one query's disposition from a session-resume handshake.
type ResumeStatus struct {
	// ID and Query identify the presented request.
	ID    int64
	Query string
	// Status is the server's disposition: ResumeResumed, ResumeServed or
	// ResumeResubmit.
	Status byte
	// Detail is the covering cycle (resumed) or retiring cycle (served).
	Detail int64
	// NewID is the replacement request ID when Resume resubmitted the query
	// (Status == ResumeResubmit and the resubmission was acked); zero
	// otherwise.
	NewID int64
}

// Dial connects to a server's uplink and broadcast addresses.
func Dial(uplinkAddr, broadcastAddr string, model core.SizeModel) (*Client, error) {
	if model == (core.SizeModel{}) {
		model = core.DefaultSizeModel()
	}
	up, err := net.DialTimeout("tcp", uplinkAddr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("netcast: dial uplink: %w", err)
	}
	down, err := net.DialTimeout("tcp", broadcastAddr, 5*time.Second)
	if err != nil {
		up.Close()
		return nil, fmt.Errorf("netcast: dial broadcast: %w", err)
	}
	return &Client{
		model:      model,
		up:         up,
		down:       down,
		dl:         newFrameSource(down),
		upAddr:     uplinkAddr,
		downAddr:   broadcastAddr,
		AckTimeout: defaultAckTimeout,
	}, nil
}

// Close releases every connection.
func (c *Client) Close() {
	if c.up != nil {
		c.up.Close()
	}
	if c.down != nil {
		c.down.Close()
	}
	for _, cs := range c.chans {
		cs.conn.Close()
	}
}

// Submit sends one query over the uplink and waits for the server's ack,
// for at most AckTimeout.
func (c *Client) Submit(q xpath.Path) error {
	if err := writeFrame(c.up, FrameQuery, []byte(q.String())); err != nil {
		return fmt.Errorf("netcast: submit: %w", err)
	}
	if c.AckTimeout > 0 {
		_ = c.up.SetReadDeadline(time.Now().Add(c.AckTimeout))
		defer c.up.SetReadDeadline(time.Time{})
	}
	t, payload, err := readFrame(c.up)
	if err != nil {
		return fmt.Errorf("netcast: submit ack: %w", err)
	}
	covered, id, err := parseSubmitAck(t, payload)
	if err != nil {
		return err
	}
	c.recordSession(id, q.String())
	c.coveredFrom = covered
	return nil
}

// parseSubmitAck interprets one uplink response to a query submission —
// shared by Client.Submit and the multiplexed LogicalClient. An accepted
// query is acked "ok:<covered>:<id>": the first cycle whose index covers it
// and the request ID the client presents on session resume.
func parseSubmitAck(t FrameType, payload []byte) (covered uint32, id int64, err error) {
	if t == FrameReject {
		retryAfter, reason, derr := decodeReject(payload)
		if derr != nil {
			return 0, 0, fmt.Errorf("netcast: submit ack: %w", derr)
		}
		return 0, 0, &RejectedError{RetryAfter: retryAfter, Reason: reason}
	}
	if t != FrameAck {
		return 0, 0, fmt.Errorf("netcast: unexpected ack frame type %d", t)
	}
	msg := string(payload)
	if strings.HasPrefix(msg, "err:") {
		return 0, 0, fmt.Errorf("netcast: server rejected query: %s", strings.TrimSpace(msg[4:]))
	}
	rest, accepted := strings.CutPrefix(msg, "ok:")
	cov, idStr, hasID := strings.Cut(rest, ":")
	if !accepted || !hasID {
		return 0, 0, fmt.Errorf("netcast: malformed ack %q", msg)
	}
	n, err := strconv.ParseUint(cov, 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("netcast: malformed ack %q", msg)
	}
	if id, err = strconv.ParseInt(idStr, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("netcast: malformed ack %q", msg)
	}
	return uint32(n), id, nil
}

// recordSession remembers an acked submission for session resumption. A
// resubmitted query replaces its older entry (the old ID is either retired
// or a duplicate registration), and the entry list is bounded at
// maxResumeIDs with drop-oldest so an endless query stream cannot grow it
// without bound.
func (c *Client) recordSession(id int64, query string) {
	if c.session == nil {
		c.session = &ClientSession{}
	}
	entries := c.session.Entries
	for i := range entries {
		if entries[i].Query == query {
			entries = append(entries[:i], entries[i+1:]...)
			break
		}
	}
	entries = append(entries, SessionEntry{ID: id, Query: query})
	if len(entries) > maxResumeIDs {
		entries = append(entries[:0], entries[len(entries)-maxResumeIDs:]...)
	}
	c.session.Entries = entries
}

// Session deep-copies the client's resumable session state: the acked
// request IDs and the last seen server identity. Nil until an ack carried a
// request ID.
func (c *Client) Session() *ClientSession { return c.session.clone() }

// AdoptSession installs a session extracted from another client (typically
// one whose server restarted at new addresses), making this client
// resume-capable with that session's request IDs.
func (c *Client) AdoptSession(s *ClientSession) {
	c.session = s.clone()
}

// Resume runs the session-resume handshake: it presents every acked request
// ID over the uplink and applies the server's per-query dispositions —
// still-pending queries are re-attached with no resubmit (their covering
// cycle becomes CoveredFrom), already-served ones are reported for the
// caller to eavesdrop or resubmit, and unknown ones are resubmitted through
// the normal Submit path (their session entries pick up the new IDs).
// Returns the dispositions in presentation order.
func (c *Client) Resume() ([]ResumeStatus, error) {
	if c.session == nil || len(c.session.Entries) == 0 {
		return nil, nil
	}
	entries := c.session.Entries
	ids := make([]int64, len(entries))
	byID := make(map[int64]string, len(entries))
	for i, e := range entries {
		ids[i] = e.ID
		byID[e.ID] = e.Query
	}
	payload, err := encodeResume(ids)
	if err != nil {
		return nil, err
	}
	if err := writeFrame(c.up, FrameResume, payload); err != nil {
		return nil, fmt.Errorf("netcast: resume: %w", err)
	}
	if c.AckTimeout > 0 {
		_ = c.up.SetReadDeadline(time.Now().Add(c.AckTimeout))
		defer c.up.SetReadDeadline(time.Time{})
	}
	t, ack, err := readFrame(c.up)
	if err != nil {
		return nil, fmt.Errorf("netcast: resume ack: %w", err)
	}
	if t == FrameReject {
		retryAfter, reason, derr := decodeReject(ack)
		if derr != nil {
			return nil, fmt.Errorf("netcast: resume ack: %w", derr)
		}
		return nil, &RejectedError{RetryAfter: retryAfter, Reason: reason}
	}
	if t != FrameResumeAck {
		return nil, fmt.Errorf("netcast: unexpected resume ack frame type %d", t)
	}
	epoch, generation, srv, err := decodeResumeAck(ack)
	if err != nil {
		return nil, err
	}
	// The epoch ties a session to one journal lineage. A server answering
	// from a different lineage (state directory swapped behind the same
	// address) may coincidentally hold pending requests under the presented
	// IDs; its resumed/served claims describe someone else's queries, so
	// every entry degrades to a resubmit. A zero prior epoch means the
	// session never completed a handshake and has no lineage to defend.
	if prior := c.session.Epoch; prior != 0 && epoch != prior {
		for i := range srv {
			srv[i].Status, srv[i].Detail = ResumeResubmit, 0
		}
	}
	c.session.Epoch = epoch
	c.session.Generation = generation
	out := make([]ResumeStatus, 0, len(srv))
	for _, e := range srv {
		st := ResumeStatus{ID: e.ID, Query: byID[e.ID], Status: e.Status, Detail: e.Detail}
		switch e.Status {
		case ResumeResumed:
			// Still pending server-side: no resubmit, and the server names
			// the next cycle covering it.
			c.resumedCnt++
			c.coveredFrom = uint32(e.Detail)
		case ResumeResubmit:
			// Unknown to the server (fresh state directory, lost journal or
			// past the served horizon): re-register through the normal
			// submit path, which records the replacement ID.
			if q, perr := xpath.Parse(st.Query); perr == nil {
				if serr := c.Submit(q); serr == nil {
					c.resubmits++
					if n := len(c.session.Entries); n > 0 && c.session.Entries[n-1].Query == st.Query {
						st.NewID = c.session.Entries[n-1].ID
					}
				} else {
					c.queueResubmit(q)
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// CoveredFrom reports the first cycle number whose index covers the most
// recently submitted query, as acked by the server. It is the network
// protocol's arrival clock: a query acked with CoveredFrom k is scheduled
// exactly as a simulator request arriving at cycle k's start time.
func (c *Client) CoveredFrom() int64 { return int64(c.coveredFrom) }

// SubmitRetry submits q, honoring the server's admission control: each
// rejection is waited out for the server's retry-after hint (clamped to the
// reconnect backoff bounds, plus up to 50% jitter so a shedding server isn't
// re-flooded in lockstep) until the query is admitted, a non-overload error
// occurs, or the context expires.
func (c *Client) SubmitRetry(ctx context.Context, q xpath.Path) error {
	for {
		err := c.Submit(q)
		var rej *RejectedError
		if !errors.As(err, &rej) {
			return err
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-control.Or(c.Clock).After(c.backoffWait(rej.RetryAfter)):
		}
	}
}

// backoffWait turns a server retry-after hint into a client wait: clamped to
// the reconnect backoff bounds, with up to 50% random jitter added from this
// client's own source.
func (c *Client) backoffWait(hint time.Duration) time.Duration {
	return backoffJitter(c.jitter(), hint)
}

// backoffJitter clamps hint to the reconnect backoff bounds and adds up to
// 50% jitter from rng.
func backoffJitter(rng *rand.Rand, hint time.Duration) time.Duration {
	if hint < reconnectBaseDelay {
		hint = reconnectBaseDelay
	}
	if hint > reconnectMaxDelay {
		hint = reconnectMaxDelay
	}
	return hint + time.Duration(rng.Int64N(int64(hint)/2+1))
}

// Retrieve follows the access protocol over the broadcast stream until every
// result document of q has been received, returning the parsed documents in
// ID order. The context bounds the wait.
//
// Retrieve survives an unreliable downlink. A corrupt, truncated or
// undecodable frame drops the current cycle's state and rescans the byte
// stream for the next cycle head (the protocol is self-describing; the next
// index re-covers the query). A failed read redials the broadcast address
// with capped exponential backoff plus jitter. Both recoveries preserve the
// documents already received, and both resubmit q over the uplink so the
// server rebroadcasts anything the client may have missed (the server
// retires a request once its documents have been *sent*, not received). A
// downlink silent for idleResubmitTimeout is treated as lost the same way:
// an on-demand server with an empty pending set airs nothing, so silence
// after a missed delivery must trigger re-registration, not a longer wait.
func (c *Client) Retrieve(ctx context.Context, q xpath.Path) (_ []*xmldoc.Document, stats ClientStats, _ error) {
	// The resubmit-queue and resume counters are client-lifetime totals;
	// stamp them on whatever stats this retrieval returns.
	defer func() {
		stats.Resubmits = c.resubmits
		stats.ResubmitDropped = c.resubDrops
		stats.Resumed = c.resumedCnt
	}()
	if len(c.chans) > 1 {
		return c.retrieveMulti(ctx, q)
	}
	var (
		nav       = core.NewNavigator(q)
		knowsDocs bool
		remaining = make(map[xmldoc.DocID]struct{})
		inCycle   bool // synchronised to a cycle head
		twoTier   bool
		head      *cycleHead
		wantThis  map[xmldoc.DocID]struct{} // docs to catch this cycle
		got       = make(map[xmldoc.DocID]*xmldoc.Document)
	)
	applyDeadline := func() { armIdle(ctx, c.down) }
	applyDeadline()
	defer func() { _ = c.down.SetReadDeadline(time.Time{}) }()

	// dropCycle forgets mid-cycle state after corruption or disconnect; the
	// received-document state (got/remaining) is kept.
	dropCycle := func() {
		inCycle = false
		twoTier = false
		head = nil
		wantThis = nil
	}

	// resync recovers from in-stream corruption: count it, drop cycle
	// state, re-register the query, and rescan for the next cycle head.
	// Returns an I/O error if the scan hits one (caller then reconnects).
	resync := func() error {
		stats.Resyncs++
		dropCycle()
		c.resubmit(q)
		for {
			payload, skipped, err := c.dl.resync(FrameCycleHead)
			stats.DozeBytes += skipped
			if err != nil {
				return err
			}
			h, derr := decodeCycleHead(payload)
			if derr != nil {
				// Checksum-valid but undecodable (shouldn't happen with an
				// honest server); keep scanning.
				stats.DozeBytes += int64(len(payload))
				continue
			}
			head = h
			inCycle = true
			twoTier = h.TwoTier
			stats.Cycles++
			return nil
		}
	}

	// reconnect redials the broadcast address with capped exponential
	// backoff and jitter, then re-registers the query.
	reconnect := func() error {
		dropCycle()
		c.down.Close()
		delay := reconnectBaseDelay
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			conn, err := net.DialTimeout("tcp", c.downAddr, 5*time.Second)
			if err == nil {
				c.down = conn
				c.dl = newFrameSource(conn)
				applyDeadline()
				stats.Reconnects++
				c.resubmit(q)
				return nil
			}
			jittered := delay + time.Duration(c.jitter().Int64N(int64(delay)/2+1))
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(jittered):
			}
			if delay *= 2; delay > reconnectMaxDelay {
				delay = reconnectMaxDelay
			}
		}
	}

	// recoverStream routes a failure to the right recovery: resync within
	// the stream for detected corruption, reconnect for connection loss.
	recoverStream := func(err error) error {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if isCorrupt(err) {
			err = resync()
			if err == nil {
				return nil
			}
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
		}
		if err := reconnect(); err != nil {
			return fmt.Errorf("netcast: broadcast reconnect: %w", err)
		}
		return nil
	}

	for {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		applyDeadline()
		t, payload, air, err := c.dl.next()
		stats.DozeBytes += c.dl.takeDoze()
		if err != nil {
			if err := recoverStream(err); err != nil {
				return nil, stats, err
			}
			continue
		}
		switch t {
		case FrameCycleHead:
			h, derr := decodeCycleHead(payload)
			if derr != nil {
				if err := recoverStream(errFrameCorrupt); err != nil {
					return nil, stats, err
				}
				continue
			}
			head = h
			inCycle = true
			twoTier = head.TwoTier
			wantThis = nil
			stats.Cycles++
		case FrameIndex:
			if !inCycle {
				stats.DozeBytes += air
				continue
			}
			if twoTier && knowsDocs {
				// Improved protocol: the first tier was already read once.
				stats.DozeBytes += air
				continue
			}
			if head.Number < c.coveredFrom {
				// This cycle's index predates our submission and need not
				// cover our query; doze until a covering cycle.
				stats.DozeBytes += air
				continue
			}
			stats.TuningBytes += air
			docs, offs, derr := c.decodeAndNavigate(payload, head, nav, twoTier)
			if derr != nil {
				if err := recoverStream(errFrameCorrupt); err != nil {
					return nil, stats, err
				}
				continue
			}
			if !knowsDocs {
				for _, d := range docs {
					if _, done := got[d]; !done {
						remaining[d] = struct{}{}
					}
				}
				knowsDocs = true
			}
			if !twoTier {
				wantThis = make(map[xmldoc.DocID]struct{})
				for d := range offs {
					if _, need := remaining[d]; need {
						wantThis[d] = struct{}{}
					}
				}
			}
		case FrameSecondTier:
			if !inCycle || !knowsDocs {
				stats.DozeBytes += air
				continue
			}
			stats.TuningBytes += air
			entries, derr := wire.DecodeSecondTier(payload, c.model)
			if derr != nil {
				if err := recoverStream(errFrameCorrupt); err != nil {
					return nil, stats, err
				}
				continue
			}
			wantThis = make(map[xmldoc.DocID]struct{})
			for _, e := range entries {
				if _, need := remaining[e.Doc]; need {
					wantThis[e.Doc] = struct{}{}
				}
			}
		case FrameDoc:
			if len(payload) < 2 {
				if err := recoverStream(errFrameCorrupt); err != nil {
					return nil, stats, err
				}
				continue
			}
			id := xmldoc.DocID(binary.LittleEndian.Uint16(payload))
			if _, want := wantThis[id]; !want {
				stats.DozeBytes += air
				continue
			}
			// On the bare protocol the 2 ID bytes are header, not content;
			// a transport envelope is atomic, so its whole air cost counts.
			cost := air
			if !c.dl.isTransport() {
				cost -= 2
			}
			stats.TuningBytes += cost
			root, derr := xmldoc.Parse(bytes.NewReader(payload[2:]))
			if derr != nil {
				if err := recoverStream(errFrameCorrupt); err != nil {
					return nil, stats, err
				}
				continue
			}
			got[id] = xmldoc.NewDocument(id, root)
			delete(remaining, id)
			delete(wantThis, id)
		default:
			// A checksum-valid frame of unknown type means version skew or a
			// scan that locked onto the wrong boundary; resynchronise.
			if err := recoverStream(errFrameCorrupt); err != nil {
				return nil, stats, err
			}
			continue
		}
		// The retrieval is complete as soon as the remaining set drains —
		// including right after index decode when the query's result set was
		// already fully received, so a zero-remaining client returns
		// immediately instead of spinning until the context deadline.
		if knowsDocs && len(remaining) == 0 {
			return collect(got), stats, nil
		}
	}
}

// resubmit re-registers q after a resync or reconnect: the server retires a
// request once its documents have been broadcast, so anything this client
// missed is only rebroadcast if the query is pending again. Best effort —
// if the uplink died with the downlink it is redialed once; queries whose
// re-registration still fails wait in a bounded drop-oldest queue and are
// flushed by the next recovery that finds the uplink healthy.
func (c *Client) resubmit(q xpath.Path) {
	if c.up == nil {
		return // listen-only client (e.g. capture replay); nothing to re-register
	}
	c.queueResubmit(q)
	c.flushResubmits()
}

// queueResubmit enqueues q for re-registration, dropping the oldest entry
// (counted in ClientStats.ResubmitDropped) when the queue is full. A query
// already queued is not duplicated.
func (c *Client) queueResubmit(q xpath.Path) {
	key := q.String()
	for _, p := range c.resubq {
		if p.String() == key {
			return
		}
	}
	if len(c.resubq) >= resubmitQueueCap {
		drop := len(c.resubq) - resubmitQueueCap + 1
		c.resubq = append(c.resubq[:0], c.resubq[drop:]...)
		c.resubDrops += int64(drop)
	}
	c.resubq = append(c.resubq, q)
}

// flushResubmits re-registers every queued query, oldest first, stopping at
// the first failure that means the uplink is down. A rejection (admission
// control; the uplink itself is healthy) is waited out once per flush with
// the server's retry-after hint; a network failure redials the uplink once.
// Whatever cannot be submitted stays queued for the next recovery.
func (c *Client) flushResubmits() {
	redialed, backedOff := false, false
	for len(c.resubq) > 0 {
		q := c.resubq[0]
		err := c.Submit(q)
		if err == nil {
			c.resubq = c.resubq[1:]
			c.resubmits++
			continue
		}
		var rej *RejectedError
		switch {
		case errors.As(err, &rej) && !backedOff:
			// The server is shedding load: honor the retry-after hint once
			// instead of redialing (which would only add connection churn
			// to an overloaded server).
			backedOff = true
			<-control.Or(c.Clock).After(c.backoffWait(rej.RetryAfter))
		case errors.As(err, &rej):
			return // still shedding after one wait; try again next recovery
		case !redialed:
			redialed = true
			conn, derr := net.DialTimeout("tcp", c.upAddr, 5*time.Second)
			if derr != nil {
				return // uplink unreachable; the queue holds the backlog
			}
			c.up.Close()
			c.up = conn
		default:
			return // redialed and still failing
		}
	}
}

// decodeAndNavigate decodes an index segment and runs the client's query
// automaton over it, returning the result doc IDs and (one-tier) offsets.
// Under the succinct encoding the segment is navigated in place with a
// cursor — no core.Index is ever materialized client-side.
func (c *Client) decodeAndNavigate(seg []byte, head *cycleHead, nav *core.Navigator, twoTier bool) ([]xmldoc.DocID, wire.DocOffsets, error) {
	cat, err := wire.DecodeCatalog(head.Catalog)
	if err != nil {
		return nil, nil, err
	}
	if head.Succinct {
		st, err := succinct.Parse(seg, c.model, cat)
		if err != nil {
			return nil, nil, err
		}
		return st.NewCursor().Lookup(nav.Filter()), nil, nil
	}
	tier := core.OneTier
	if twoTier {
		tier = core.FirstTier
	}
	ix, offs, err := wire.DecodeIndex(seg, c.model, tier, cat)
	if err != nil {
		return nil, nil, err
	}
	if err := wire.ApplyRootLabels(ix, head.RootLabels); err != nil {
		return nil, nil, err
	}
	res := nav.Lookup(ix)
	return res.Docs, offs, nil
}

// collect returns the received documents sorted by ID.
func collect(got map[xmldoc.DocID]*xmldoc.Document) []*xmldoc.Document {
	ids := make([]int, 0, len(got))
	for id := range got {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	out := make([]*xmldoc.Document, 0, len(ids))
	for _, id := range ids {
		out = append(out, got[xmldoc.DocID(id)])
	}
	return out
}
