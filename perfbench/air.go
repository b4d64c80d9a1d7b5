package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/netcast"
	"repro/internal/netcast/transport"
	"repro/internal/xmldoc"
)

// Inner frame layout (docs/WIRE.md): two sync bytes, the type byte, a
// little-endian uint32 payload length, the payload and a CRC32C trailer.
const (
	innerHdrLen = 7
	innerCRCLen = 4
	magicLen    = 8
	magicV3     = "XBCAST3\n"
)

// airLog is the downlink observer's sink: netcast.Record writes the
// broadcast stream into it and it timestamps and indexes every frame as it
// arrives. It keeps frame metadata only, plus bounded samples for the
// traced replays, so memory stays flat however long the run.
type airLog struct {
	base time.Time
	// sampleFrames bounds the frames kept per kind for transport replay;
	// sampleCycles bounds the complete cycles kept as a capture file.
	sampleFrames, sampleCycles int

	mu         sync.Mutex
	pending    []byte
	magic      bool
	compressed bool
	off        int64 // air bytes so far
	err        error

	frames   []airFrame
	cycles   []airCycle
	byNumber map[int64]int
	airings  map[xmldoc.DocID][]airing
	samples  map[string][]frameSample
	capture  []byte // magic plus the first sampleCycles cycles, verbatim
}

// airFrame is one frame's arrival: when its last byte landed and the air
// offset just past it.
type airFrame struct {
	at, end int64
}

// airCycle is one observed cycle.
type airCycle struct {
	number int64
	headAt int64
	// indexBytes is the air size of the head, first tier and second tier:
	// what a client reads each cycle it listens to.
	indexBytes int64
}

// airing is one document's appearance on air.
type airing struct {
	cycle   int // index into airLog.cycles
	at, end int64
	size    int64
}

// frameSample keeps one frame for replay: its inner frame and its bytes on
// air.
type frameSample struct {
	inner, raw []byte
}

func newAirLog(base time.Time, sampleFrames, sampleCycles int) *airLog {
	return &airLog{
		base:         base,
		sampleFrames: sampleFrames,
		sampleCycles: sampleCycles,
		byNumber:     make(map[int64]int),
		airings:      make(map[xmldoc.DocID][]airing),
		samples:      make(map[string][]frameSample),
	}
}

// Write implements io.Writer over the capture stream Record produces.
func (a *airLog) Write(p []byte) (int, error) {
	at := int64(time.Since(a.base))
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return 0, a.err
	}
	a.pending = append(a.pending, p...)
	if !a.magic {
		if len(a.pending) < magicLen {
			return len(p), nil
		}
		a.magic = true
		a.compressed = string(a.pending[:magicLen]) == magicV3
		if a.sampleCycles > 0 {
			a.capture = append(a.capture, a.pending[:magicLen]...)
		}
		a.pending = a.pending[magicLen:]
	}
	for {
		inner, raw, ok, err := a.next()
		if err != nil {
			a.err = err
			return 0, err
		}
		if !ok {
			break
		}
		a.frame(at, inner, raw)
		a.pending = a.pending[len(raw):]
	}
	// Keep the unparsed tail in a fresh slice so the consumed prefix can be
	// collected.
	a.pending = append([]byte(nil), a.pending...)
	return len(p), nil
}

// next parses one complete frame off the pending bytes.
func (a *airLog) next() (inner, raw []byte, ok bool, err error) {
	if a.compressed {
		fr, err := transport.NewReader(bytes.NewReader(a.pending)).Next()
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, nil, false, nil
		}
		if err != nil {
			return nil, nil, false, err
		}
		return append([]byte(nil), fr.Inner...), a.pending[:len(fr.Raw)], true, nil
	}
	if len(a.pending) < innerHdrLen {
		return nil, nil, false, nil
	}
	n := innerHdrLen + int(binary.LittleEndian.Uint32(a.pending[3:])) + innerCRCLen
	if len(a.pending) < n {
		return nil, nil, false, nil
	}
	return a.pending[:n], a.pending[:n], true, nil
}

// frame indexes one complete frame.
func (a *airLog) frame(at int64, inner, raw []byte) {
	if len(inner) < innerHdrLen+innerCRCLen {
		a.err = fmt.Errorf("observer: short inner frame (%d bytes)", len(inner))
		return
	}
	size := int64(len(raw))
	a.off += size
	a.frames = append(a.frames, airFrame{at: at, end: a.off})
	t := netcast.FrameType(inner[2])
	payload := inner[innerHdrLen : len(inner)-innerCRCLen]
	if t == netcast.FrameCycleHead && len(payload) >= 4 {
		num := int64(binary.LittleEndian.Uint32(payload))
		a.byNumber[num] = len(a.cycles)
		a.cycles = append(a.cycles, airCycle{number: num, headAt: at})
	}
	if len(a.cycles) == 0 {
		return // Record starts at a cycle head; nothing precedes one
	}
	cur := &a.cycles[len(a.cycles)-1]
	kind := ""
	switch t {
	case netcast.FrameCycleHead:
		cur.indexBytes += size
	case netcast.FrameIndex:
		cur.indexBytes += size
		kind = "index"
	case netcast.FrameSecondTier:
		cur.indexBytes += size
		kind = "second_tier"
	case netcast.FrameDoc:
		kind = "doc"
		if len(payload) >= 2 {
			id := xmldoc.DocID(binary.LittleEndian.Uint16(payload))
			a.airings[id] = append(a.airings[id], airing{cycle: len(a.cycles) - 1, at: at, end: a.off, size: size})
		}
	}
	if kind != "" && len(a.samples[kind]) < a.sampleFrames {
		a.samples[kind] = append(a.samples[kind], frameSample{
			inner: append([]byte(nil), inner...),
			raw:   append([]byte(nil), raw...),
		})
	}
	// The capture sample ends at the head that opens one cycle too many.
	if len(a.cycles) <= a.sampleCycles {
		a.capture = append(a.capture, raw...)
	}
}

// firstAiring returns the first airing of doc in a cycle numbered at or
// after from.
func (a *airLog) firstAiring(doc xmldoc.DocID, from int64) (airing, bool) {
	ars := a.airings[doc]
	i := sort.Search(len(ars), func(i int) bool { return a.cycles[ars[i].cycle].number >= from })
	if i == len(ars) {
		return airing{}, false
	}
	return ars[i], true
}

// offsetAt is the air offset reached by time t: the end of the last frame
// that had fully arrived.
func (a *airLog) offsetAt(t int64) int64 {
	i := sort.Search(len(a.frames), func(i int) bool { return a.frames[i].at > t })
	if i == 0 {
		return 0
	}
	return a.frames[i-1].end
}

// cyclePeriods returns the gaps between the heads of consecutive cycles in
// milliseconds.
func (a *airLog) cyclePeriods() []float64 {
	var out []float64
	for i := 1; i < len(a.cycles); i++ {
		if a.cycles[i].number == a.cycles[i-1].number+1 {
			out = append(out, float64(a.cycles[i].headAt-a.cycles[i-1].headAt)/1e6)
		}
	}
	return out
}
